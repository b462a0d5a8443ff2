"""Per-item oracles that the production code batches or inlines: cosine
kernels, the loss terms one item at a time, and the in-context prompt
assembled and scored for a single query, the per-row random draw of
``wo_kap``'s prompts, plus helpers that write and read single exemplar-store
slots, compare pools, and run one list of items through the production
training pass, the token mapper written out as its affine formula, the
metrics' matching one record at a time, with converters between records and
the metrics' column tables, and the dataset one ``RelationInstance`` object
per row: its generator, stage split and GT ids, with converters to and from
the production ``RelationTable``. ``reference_trainer`` builds on them, and
the unit tests check each oracle against direct arithmetic or the production
code."""

from __future__ import annotations

from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from lsgg.datastream import RelationTable, StageDataset, zipf_counts
from lsgg.metrics import GTTable, PredTable, box_column, iou, union_box
from lsgg.numerics import random_unit_vector, softmax
from lsgg.prompt_pool import _relation_norm, _write_slot, admit_exemplar, retrieve_entries
from lsgg.rng import SeededRng, _mix64
from lsgg.scorer import PredicateVocab, ScorerParams, position_weights
from lsgg.token_mapper import KINDS, MapperParams
from lsgg.trainer import _Batch, _PassCache, _loss_and_grads, _retrieve


# -- cosine kernels ---------------------------------------------------------------


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if v.size == 0:
        raise ValueError(f"{name} is empty")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def cosine(a, b) -> float:
    """Cosine similarity a.b / (|a||b|).

    Zero-norm inputs are rejected: a degenerate feature vector is a data bug
    we want surfaced, not silently scored as 0.
    """
    va = as_vector(a, "a")
    vb = as_vector(b, "b")
    if va.shape[0] != vb.shape[0]:
        raise ValueError(f"dimension mismatch: {va.shape[0]} vs {vb.shape[0]}")
    na = np.linalg.norm(va)
    nb = np.linalg.norm(vb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    return float(np.dot(va, vb) / (na * nb))


def cosine_to_rows(query: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Cosine of one query against each row of a matrix (validated, vectorized)."""
    q = as_vector(query, "query")
    m = np.asarray(rows, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != q.shape[0]:
        raise ValueError(f"rows must be (n, {q.shape[0]}), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("rows contain non-finite entries")
    nq = np.linalg.norm(q)
    nr = np.linalg.norm(m, axis=1)
    if nq == 0.0 or np.any(nr == 0.0):
        raise ValueError("cosine undefined for zero-norm vector")
    return (m @ q) / (nr * nq)


class RowCache:
    """Pre-validated row matrix with cached norms for repeated cosine queries.

    ``cosines(q, qnorm)`` reproduces cosine_to_rows bit for bit (same matvec,
    same division) while skipping per-call stacking and validation.
    """

    __slots__ = ("rows", "norms")

    def __init__(self, rows):
        m = np.asarray(rows, dtype=np.float64)
        if m.ndim != 2:
            raise ValueError(f"need a row matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("rows contain non-finite entries")
        norms = np.linalg.norm(m, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("cosine undefined for zero-norm vector")
        self.rows = m
        self.norms = norms

    def cosines(self, query: np.ndarray, qnorm: float) -> np.ndarray:
        return (self.rows @ query) / (self.norms * qnorm)


# -- random draws --------------------------------------------------------------------


def choice_without_replacement(rng: SeededRng, n: int, k: int) -> list:
    """k distinct indices from range(n), order random (partial Fisher-Yates)."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot choose {k} from {n}")
    pool = list(range(n))
    for i in range(k):
        j = i + rng.randint(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


# -- losses -----------------------------------------------------------------------


def loss_key_alignment(f_c_query, keys) -> float:
    """Sum of (1 - cosine) between the query context feature and each key."""
    keys = list(keys)
    if not keys:
        raise ValueError("key-alignment loss needs at least one key")
    return float(sum(1.0 - cosine(f_c_query, k) for k in keys))


def loss_predicate_ce(distributions, target: int, vocab: PredicateVocab) -> float:
    """Teacher-forced cross-entropy over the target's non-padding token slots."""
    dist = np.asarray(distributions, dtype=float)
    toks = vocab.tokens.get(target)
    if not toks:
        raise ValueError(f"target predicate {target} has no tokens")
    total = 0.0
    for j, t in enumerate(toks):
        if not 0 <= t < dist.shape[1]:
            raise ValueError(f"token {t} outside vocabulary of size {dist.shape[1]}")
        total -= float(np.log(dist[j, t]))
    return total


# -- exemplar stores ----------------------------------------------------------------


def features(inst) -> dict:
    """An instance's raw features as float arrays, kind -> 1-D."""
    return {kind: np.asarray(getattr(inst, f"f_{kind}"), dtype=float) for kind in KINDS}


def admit(pool, inst, rng):
    """``admit_exemplar`` of one instance object, routed and measured alone:
    its relation norm first (a degenerate row raises before it is routed or
    counted), then its entry from a single-row key retrieval."""
    feats = features(inst)
    rnorm = _relation_norm(feats["r"])
    entry = int(retrieve_entries(pool.keys, feats["c"][None], 1)[0][0, 0])
    return admit_exemplar(pool, entry, feats, int(inst.predicate), rnorm, rng)


def append_exemplar(pool, entry: int, inst) -> None:
    """Append ``inst`` to entry's store as one more routed instance,
    bypassing routing and the reservoir."""
    feats = features(inst)
    _write_slot(pool, entry, int(pool.store_len[entry]), feats, int(inst.predicate),
                _relation_norm(feats["r"]))
    pool.store_len[entry] += 1
    pool.seen[entry] += 1


def rewrite_relation(pool, entry: int, slot: int, f_r) -> None:
    """Rewrite filled slot (entry, slot) through the pool's one slot writer
    with relation features ``f_r``; the other kinds and the label stay."""
    stored = {kind: f[entry, slot].copy() for kind, f in pool.store_feats.items()}
    stored["r"] = np.asarray(f_r, dtype=float)
    _write_slot(pool, entry, slot, stored, int(pool.store_labels[entry, slot]),
                _relation_norm(stored["r"]))


def stored_exemplar(pool, entry: int, slot: int) -> SimpleNamespace:
    """Store slot (entry, slot) as an item source: raw features and label."""
    return SimpleNamespace(predicate=int(pool.store_labels[entry, slot]),
                           **{f"f_{kind}": f[entry, slot] for kind, f in pool.store_feats.items()})


def pools_equal(a, b) -> bool:
    """Same arrays, comparing the stores' filled slots only."""
    if not (a.n_e == b.n_e and np.array_equal(a.prompts, b.prompts)
            and np.array_equal(a.keys, b.keys) and np.array_equal(a.seen, b.seen)
            and np.array_equal(a.store_len, b.store_len)):
        return False
    filled = np.arange(a.n_e) < a.store_len[:, None]
    if not filled.any():
        return True
    return (np.array_equal(a.store_labels[filled], b.store_labels[filled])
            and np.array_equal(a.store_rnorm[filled], b.store_rnorm[filled])
            and a.store_feats.keys() == b.store_feats.keys()
            and all(np.array_equal(f[filled], b.store_feats[kind][filled])
                    for kind, f in a.store_feats.items()))


# -- one batch through the production pass --------------------------------------------


@dataclass
class Item:
    source: object  # anything with f_c, f_r, f_s, f_o and predicate
    replay: bool  # replayed items contribute only the prediction loss


def batch_loss_and_grads(items, pool, tr, vocab, config, ab_rng=None):
    """Mean total loss over the items, gradients keyed as
    ``TrainableSet.param_items`` and the loss parts, from the production
    ``trainer._loss_and_grads`` on a fresh pass cache.

    Replayed items contribute only the prediction loss; query items add the
    key-alignment term.
    """
    batch = _Batch({kind: np.stack([features(it.source)[kind] for it in items])
                    for kind in KINDS},
                   np.array([it.source.predicate for it in items], dtype=np.int64),
                   np.array([it.replay for it in items], dtype=bool))
    return _loss_and_grads(batch, _retrieve(batch, pool, config), pool, tr, config, ab_rng,
                           _PassCache(tr, vocab))


# -- the token mapper written out ------------------------------------------------------


def encode_batch_all_rows(params: MapperParams, feats: np.ndarray, kind: str):
    """``token_mapper.encode_batch`` as the formula
    ``reshape(feats @ W.T + b, (B, n, d_tok)) + pos`` over all n rows."""
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    b = feats.shape[0]
    n = params.token_counts[kind]
    proj = feats @ params.proj_w[kind].T
    proj += params.proj_b[kind]
    proj = proj.reshape(b, n, params.d_tok)
    return proj + params.pos[kind]


def encode_batch_backward_all_rows(kind: str, feats: np.ndarray, d_out: np.ndarray,
                                   grads: dict) -> None:
    """``token_mapper.encode_batch_backward``: the affine map's gradients,
    term by term."""
    b, n, d_tok = d_out.shape
    grads[f"pos.{kind}"] += d_out.sum(axis=0)
    d_flat = d_out.reshape(b, n * d_tok)
    grads[f"proj_w.{kind}"] += d_flat.T @ feats
    grads[f"proj_b.{kind}"] += d_flat.sum(axis=0)


# -- one query's prompt -------------------------------------------------------------


@dataclass
class Segment:
    """One [prompt; exemplar; label] block plus row bookkeeping for backprop."""

    entry_index: int
    similarity: float
    is_query: bool
    prompt_start: int
    n_prompt: int
    exemplar: int | None = None  # flat store slot e * n_e + s shown, if any
    exemplar_start: int = -1
    n_exemplar: int = 0
    label_tokens: tuple = ()  # padded token ids (context segments only)
    label_start: int = -1
    n_label: int = 0


@dataclass
class AssembledPrompt:
    rows: np.ndarray  # (N, d_tok)
    segments: list
    mask_positions: list  # row indices of the mask slots, in slot order

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    def check_invariants(self) -> None:
        if not self.segments or not self.segments[-1].is_query:
            raise AssertionError("query segment must be last")
        if any(s.is_query for s in self.segments[:-1]):
            raise AssertionError("query segment must be unique")


def assemble_prompt(pool, selection, exemplars, query_block: np.ndarray,
                    mask_block: np.ndarray, emb: np.ndarray,
                    vocab: PredicateVocab) -> AssembledPrompt:
    """Assemble the in-context token sequence for one query.

    selection: (entry index, similarity) pairs in descending similarity, as
    retrieval returns them; the most similar entry hosts the query segment.
    exemplars: aligned with selection[1:], each (flat store slot, label,
    token block) or None; None (empty store) drops that segment's exemplar
    and label rows.
    query_block: the query's encoded feature rows; mask_block: the learnable
    mask-slot rows; emb: frozen embedding table supplying label rows.

    Layout is ascending similarity, so the most similar prompt sits adjacent
    to the query segment, which always comes last.
    """
    if len(selection) < 1:
        raise ValueError("need at least one retrieved prompt")
    if len(exemplars) != len(selection) - 1:
        raise ValueError("one exemplar slot per context entry required")
    d_tok = pool.d_tok
    for name, block in (("query", query_block), ("mask", mask_block), ("embedding", emb)):
        if block.ndim != 2 or block.shape[1] != d_tok:
            raise ValueError(f"{name} rows must be 2-D with width {d_tok}")

    context = [(idx, sim, ex) for (idx, sim), ex in zip(selection[1:], exemplars)]
    context.reverse()  # ascending similarity: least similar first

    parts, segments = [], []
    row = 0

    def push(block) -> int:
        nonlocal row
        parts.append(block)
        start = row
        row += block.shape[0]
        return start

    for entry_idx, sim, ex in context:
        seg = Segment(entry_index=entry_idx, similarity=float(sim), is_query=False,
                      prompt_start=push(pool.prompts[entry_idx]), n_prompt=pool.n_p)
        if ex is not None:
            seg.exemplar, label, block = ex
            seg.exemplar_start = push(block)
            seg.n_exemplar = block.shape[0]
            seg.label_tokens = vocab.padded(label)
            seg.label_start = push(emb[list(seg.label_tokens)])
            seg.n_label = len(seg.label_tokens)
        segments.append(seg)

    q_idx, q_sim = selection[0]
    qseg = Segment(entry_index=int(q_idx), similarity=float(q_sim), is_query=True,
                   prompt_start=push(pool.prompts[q_idx]), n_prompt=pool.n_p)
    qseg.exemplar_start = push(query_block)
    qseg.n_exemplar = query_block.shape[0]
    mask_start = push(mask_block)
    segments.append(qseg)

    prompt = AssembledPrompt(
        rows=np.concatenate(parts, axis=0),
        segments=segments,
        mask_positions=list(range(mask_start, mask_start + mask_block.shape[0])),
    )
    prompt.check_invariants()
    return prompt


def score(params: ScorerParams, x: AssembledPrompt,
          w: np.ndarray = None, base: np.ndarray = None) -> np.ndarray:
    """Per-mask-slot probability rows over the token vocabulary, (n_mask, V).

    Callers that already hold the positional weights w and the pooled row
    base = w @ rows (the training loop reuses both for the backward pass) may
    pass them in; the math is identical either way.
    """
    if x.rows.shape[1] != params.d_tok:
        raise ValueError(f"prompt width {x.rows.shape[1]} != decoder width {params.d_tok}")
    if len(x.mask_positions) != params.n_mask:
        raise ValueError(f"{len(x.mask_positions)} mask rows but decoder expects {params.n_mask}")
    if w is None:
        w = position_weights(params, x.n_rows)
    if base is None:
        base = w @ x.rows
    out = np.empty((params.n_mask, params.v))
    for j, mpos in enumerate(x.mask_positions):
        pooled = base + x.rows[mpos]
        out[j] = softmax(params.readout[j] @ pooled)
    return out


# -- metric matching, one record at a time ----------------------------------------------


@dataclass
class PredRecord:
    image_id: int
    rank: int  # 1-based position in the image's ranked list
    subj: int
    pred: int
    obj: int
    conf: float
    boxes: tuple | None = None  # ((x1,y1,x2,y2) subject, (x1,y1,x2,y2) object)
    gt_id: int | None = None  # instance-id match target, when known


@dataclass
class GTRecord:
    image_id: int
    gt_id: int
    subj: int
    pred: int
    obj: int
    boxes: tuple | None = None


def pred_table(records) -> PredTable:
    def col(name):
        return np.array([getattr(r, name) for r in records], dtype=np.int64)
    return PredTable(image=col("image_id"), rank=col("rank"), subj=col("subj"),
                     pred=col("pred"), obj=col("obj"),
                     conf=np.array([r.conf for r in records], dtype=np.float64),
                     gt_id=np.array([r.gt_id or 0 for r in records], dtype=np.int64),
                     has_id=np.array([r.gt_id is not None for r in records], dtype=bool),
                     boxes=box_column([r.boxes for r in records]))


def gt_table(records) -> GTTable:
    def col(name):
        return np.array([getattr(r, name) for r in records], dtype=np.int64)
    return GTTable(image=col("image_id"), gt_id=col("gt_id"), subj=col("subj"),
                   pred=col("pred"), obj=col("obj"),
                   boxes=box_column([r.boxes for r in records]))


def tables(preds, gt) -> tuple:
    """Prediction and GT record lists as the metrics' column tables."""
    return pred_table(preds), gt_table(gt)


def tables_equal(a, b) -> bool:
    """Same table type and columns, equal element for element (NaN box rows
    equal)."""
    if type(a) is not type(b):
        return False
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if (x is None) != (y is None):
            return False
        if x is not None and not (x.dtype == y.dtype
                                  and np.array_equal(x, y, equal_nan=(f.name == "boxes"))):
            return False
    return True


def _group_by_image(items):
    grouped: dict = {}
    for it in items:
        grouped.setdefault(it.image_id, []).append(it)
    return grouped


def _match_one(pred: PredRecord, gts, claimed, mode: str, iou_thr: float):
    """Index into gts of the GT this prediction matches, or None."""
    if mode == "ids":
        if pred.gt_id is None:
            return None
        for gi, gt in enumerate(gts):
            if gi in claimed or gt.gt_id != pred.gt_id:
                continue
            if (gt.subj, gt.pred, gt.obj) == (pred.subj, pred.pred, pred.obj):
                return gi
        return None
    if mode == "triplet":
        for gi, gt in enumerate(gts):
            if gi in claimed:
                continue
            if (gt.subj, gt.pred, gt.obj) == (pred.subj, pred.pred, pred.obj):
                return gi
        return None
    if pred.boxes is None:
        raise ValueError(f"prediction in image {pred.image_id} lacks boxes in {mode!r} matching")
    best_gi, best_q = None, 0.0
    for gi, gt in enumerate(gts):
        if gi in claimed:
            continue
        if (gt.subj, gt.pred, gt.obj) != (pred.subj, pred.pred, pred.obj):
            continue
        if gt.boxes is None:
            raise ValueError(f"GT {gt.gt_id} in image {gt.image_id} lacks boxes in {mode!r} matching")
        if mode == "rel":
            q = min(iou(pred.boxes[0], gt.boxes[0]), iou(pred.boxes[1], gt.boxes[1]))
        else:
            q = iou(union_box(*pred.boxes), union_box(*gt.boxes))
        if q >= iou_thr and q > best_q:
            best_gi, best_q = gi, q
    return best_gi


def record_recall_at_ks(records, gt, ks, mode: str = "ids") -> dict:
    """``metrics.recall_at_ks`` one record at a time: each image's top-K
    predictions, in rank order, each claim the first unclaimed GT they
    match."""
    k_max = max(ks)
    preds_by_img = _group_by_image(records)
    gt_by_img = _group_by_image(gt)
    for image_id in sorted(preds_by_img):
        if image_id not in gt_by_img:
            raise ValueError(f"image {image_id} has predictions but no GT entry")
    matched: dict = {}
    for image_id in sorted(gt_by_img):
        gts = gt_by_img[image_id]
        preds = sorted(preds_by_img.get(image_id, []), key=lambda p: p.rank)
        claimed: dict = {}
        for pos, pred in enumerate(preds[:k_max]):
            hit = _match_one(pred, gts, claimed, mode, 0.5)
            if hit is not None:
                claimed[hit] = pos
        matched[image_id] = claimed
    images = sorted(gt_by_img)
    gt_count: dict = {}
    for g in gt:
        gt_count[g.pred] = gt_count.get(g.pred, 0) + 1
    classes = sorted(gt_count)
    out = {}
    for k in ks:
        image_total = 0.0
        hit_count: dict = {}
        for image_id in images:
            gts = gt_by_img[image_id]
            hits = [gi for gi, pos in matched[image_id].items() if pos < k]
            image_total += len(hits) / len(gts)
            for gi in hits:
                hit_count[gts[gi].pred] = hit_count.get(gts[gi].pred, 0) + 1
        class_total = 0.0
        for c in classes:
            class_total += hit_count.get(c, 0) / gt_count[c]
        out[k] = (100.0 * image_total / len(images), 100.0 * class_total / len(classes))
    return out


def record_weighted_map(records, gt, mode: str = "rel", iou_thr: float = 0.5) -> float:
    """``metrics.weighted_map`` one record at a time: per class, predictions
    by descending confidence, each claiming the first (or, with boxes, the
    best) unclaimed GT of its image it matches; AP from an explicit envelope
    loop."""
    gt_by_img = _group_by_image(gt)
    gt_count: dict = {}
    for g in gt:
        gt_count[g.pred] = gt_count.get(g.pred, 0) + 1
    preds_by_class: dict = {}
    for p in records:
        if p.image_id not in gt_by_img:
            raise ValueError(f"image {p.image_id} has predictions but no GT entry")
        preds_by_class.setdefault(p.pred, []).append(p)
    classes = sorted(gt_count)
    total_gt = sum(gt_count[c] for c in classes)
    weighted_sum = 0.0
    for c in classes:
        preds = sorted(preds_by_class.get(c, []), key=lambda p: (-p.conf, p.image_id, p.rank))
        npos = gt_count[c]
        claimed: dict = {}
        tp = np.zeros(len(preds))
        for i, p in enumerate(preds):
            img_claimed = claimed.setdefault(p.image_id, set())
            hit = _match_one(p, gt_by_img[p.image_id], img_claimed, mode, iou_thr)
            if hit is not None:
                img_claimed.add(hit)
                tp[i] = 1.0
        ap = 0.0
        if len(preds):
            tp_cum = np.cumsum(tp)
            fp_cum = np.cumsum(1.0 - tp)
            mrec = np.concatenate(([0.0], tp_cum / npos, [1.0]))
            mpre = np.concatenate(([0.0], tp_cum / (tp_cum + fp_cum), [0.0]))
            for i in range(mpre.size - 2, -1, -1):
                mpre[i] = max(mpre[i], mpre[i + 1])
            for i in range(mrec.size - 1):
                ap += (mrec[i + 1] - mrec[i]) * mpre[i + 1]
        weighted_sum += (npos / total_gt) * ap
    return float(100.0 * weighted_sum)


# -- the dataset one object per instance -------------------------------------------


@dataclass
class RelationInstance:
    """One subject-object pair: features, entity labels, predicate label."""

    image_id: int
    f_c: np.ndarray
    f_r: np.ndarray
    f_s: np.ndarray
    f_o: np.ndarray
    subject_class: int
    object_class: int
    predicate: int
    boxes: tuple | None = None  # ((x1,y1,x2,y2) subject, (x1,y1,x2,y2) object)
    confidence: float | None = None


def build_gt_ids(dataset) -> dict:
    """GT id per instance, keyed by ``id(inst)``: its occurrence index among
    its image's instances, in dataset order."""
    occ: dict = {}
    out = {}
    for inst in dataset:
        n = occ.get(inst.image_id, 0)
        occ[inst.image_id] = n + 1
        out[id(inst)] = n
    return out


def table_of(records) -> RelationTable:
    """Instance objects as the production column table, rows in list order;
    ``gt_id`` from ``build_gt_ids``. Needs at least one record."""
    gt_ids = build_gt_ids(records)

    def col(values):
        return np.array(values, dtype=np.int64)
    return RelationTable(image=col([r.image_id for r in records]),
                         gt_id=col([gt_ids[id(r)] for r in records]),
                         subj=col([r.subject_class for r in records]),
                         obj=col([r.object_class for r in records]),
                         pred=col([r.predicate for r in records]),
                         feats={kind: np.stack([features(r)[kind] for r in records])
                                for kind in KINDS},
                         conf=np.array([np.nan if r.confidence is None else r.confidence
                                        for r in records], dtype=np.float64),
                         boxes=box_column([r.boxes for r in records]))


def records_of(table) -> list:
    """The rows of a ``RelationTable`` (or of ``Rows``) as instance objects."""
    t = table.take(slice(None))
    out = []
    for i in range(len(t)):
        box = None
        if t.boxes is not None and not np.isnan(t.boxes[i, 0]):
            box = (tuple(t.boxes[i, :4].tolist()), tuple(t.boxes[i, 4:].tolist()))
        out.append(RelationInstance(
            image_id=int(t.image[i]), f_c=t.feats["c"][i], f_r=t.feats["r"][i],
            f_s=t.feats["s"][i], f_o=t.feats["o"][i], subject_class=int(t.subj[i]),
            object_class=int(t.obj[i]), predicate=int(t.pred[i]), boxes=box,
            confidence=None if np.isnan(t.conf[i]) else float(t.conf[i])))
    return out


def train_split(records) -> StageDataset:
    """A stage whose train split holds ``records``; val and test are empty."""
    table = table_of(records)
    empty = table.take(slice(0, 0))
    return StageDataset(train=table, val=empty, test=empty)


def synth_generate_records(config, rng: SeededRng):
    """``datastream.synth_generate`` one instance object at a time: each
    class's instances drawn in turn, then the list shuffled by the
    ``image-order`` stream and cut into images of ``pairs_per_image``."""
    config.validate()
    counts = zipf_counts(config.n_pred, config.zipf_s, config.total_n)
    group_of_class = [c % config.n_groups for c in range(config.n_pred)]

    mean_rng = rng.derive("means")
    rel_means = [random_unit_vector(config.d_r, mean_rng) for _ in range(config.n_pred)]
    ctx_means = [random_unit_vector(config.d_c, mean_rng) for _ in range(config.n_groups)]
    obj_means = [random_unit_vector(config.d_o, mean_rng) for _ in range(config.n_obj)]

    obj_table = np.asarray(obj_means)
    draw_rng = rng.derive("instances")
    instances = []
    for c in range(config.n_pred):
        g = group_of_class[c]
        n = counts[c]
        if n == 0:
            continue
        bounds = np.full(n, config.n_obj)
        subj = draw_rng.randint_block(bounds)
        obj = draw_rng.randint_block(bounds)
        f_c = ctx_means[g] + config.sigma * draw_rng.normal((n, config.d_c))
        f_r = rel_means[c] + config.sigma * draw_rng.normal((n, config.d_r))
        f_s = obj_table[subj] + config.sigma * draw_rng.normal((n, config.d_o))
        f_o = obj_table[obj] + config.sigma * draw_rng.normal((n, config.d_o))
        for i, (s, o) in enumerate(zip(subj.tolist(), obj.tolist())):
            instances.append(
                RelationInstance(
                    image_id=0, f_c=f_c[i], f_r=f_r[i], f_s=f_s[i], f_o=f_o[i],
                    subject_class=s, object_class=o, predicate=c,
                )
            )

    order = rng.derive("image-order").permutation(len(instances))
    shuffled = [instances[i] for i in order]
    for idx, inst in enumerate(shuffled):
        inst.image_id = idx // config.pairs_per_image
    return shuffled, group_of_class


def _split_hash(image_id: int, occurrence: int) -> int:
    return _mix64(_mix64(image_id ^ 0xD1B54A32D192ED03) + occurrence)


def make_stage_datasets_records(dataset, schedule, split_fractions=(0.7, 0.1, 0.2)) -> list:
    """``datastream.make_stage_datasets`` one instance object at a time;
    each stage's splits as (train, val, test) lists of the instances."""
    fr = tuple(float(f) for f in split_fractions)
    per_stage = [[] for _ in range(schedule.n_stages)]
    occ_counter: dict = {}
    for inst in dataset:
        t = schedule.stage_of(inst.predicate)
        occ = occ_counter.get(inst.image_id, 0)
        occ_counter[inst.image_id] = occ + 1
        per_stage[t].append((_split_hash(inst.image_id, occ), inst.image_id, occ, inst))

    out = []
    for members in per_stage:
        members.sort(key=lambda rec: rec[:3])
        n = len(members)
        b1 = int(np.floor(fr[0] * n + 0.5))
        b2 = int(np.floor((fr[0] + fr[1]) * n + 0.5))
        insts = [rec[3] for rec in members]
        out.append((insts[:b1], insts[b1:b2], insts[b2:]))
    return out
