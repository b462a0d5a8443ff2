"""Per-item oracles that the production code batches or inlines: cosine
kernels, the loss terms one item at a time, and the in-context prompt
assembled and scored for a single query, the per-row random draw of
``wo_kap``'s prompts, plus helpers that write and read single exemplar-store
slots, compare pools, and run one list of items through the production
training pass, and the token mapper written out as its affine formula.
``reference_trainer`` builds on them, and the unit tests check each oracle
against direct arithmetic or the production code."""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from lsgg.numerics import softmax
from lsgg.prompt_pool import _write_slot
from lsgg.rng import SeededRng
from lsgg.scorer import PredicateVocab, ScorerParams, position_weights
from lsgg.token_mapper import KINDS, MapperKindCache, MapperParams
from lsgg.trainer import _PassCache, _loss_and_grads, _stack_sources


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


def token_norm_penalty(block: np.ndarray):
    """Mean squared deviation of row norms from 1; the optional auxiliary loss.

    Returns (value, gradient wrt the block rows).
    """
    sq = np.sum(block * block, axis=1)
    dev = sq - 1.0
    value = float(np.mean(dev * dev))
    grad = (4.0 / block.shape[0]) * dev[:, None] * block
    return value, grad


# -- exemplar stores ----------------------------------------------------------------


def append_exemplar(pool, entry: int, inst) -> None:
    """Append ``inst`` to entry's store as one more routed instance,
    bypassing routing and the reservoir."""
    feats = {kind: np.asarray(getattr(inst, f"f_{kind}"), dtype=float) for kind in KINDS}
    _write_slot(pool, entry, int(pool.store_len[entry]), feats, int(inst.predicate))
    pool.store_len[entry] += 1
    pool.seen[entry] += 1


def rewrite_relation(pool, entry: int, slot: int, f_r) -> None:
    """Rewrite filled slot (entry, slot) through the pool's one slot writer
    with relation features ``f_r``; the other kinds and the label stay."""
    stored = {kind: f[entry, slot].copy() for kind, f in pool.store_feats.items()}
    stored["r"] = np.asarray(f_r, dtype=float)
    _write_slot(pool, entry, slot, stored, int(pool.store_labels[entry, slot]))


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
    key-alignment term and, when bound, the auxiliary token-norm term.
    """
    batch = _stack_sources([it.source for it in items], [it.replay for it in items])
    return _loss_and_grads(batch, pool, tr, config, ab_rng, _PassCache(tr, vocab))


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
    out = proj + params.pos[kind]
    return out, MapperKindCache(kind=kind, feats=feats)


def encode_batch_backward_all_rows(params: MapperParams, cache: MapperKindCache,
                                   d_out: np.ndarray, grads: dict) -> None:
    """``token_mapper.encode_batch_backward`` for a cache of
    ``encode_batch_all_rows``: the affine map's gradients, term by term."""
    kind = cache.kind
    b = cache.feats.shape[0]
    n = params.token_counts[kind]
    grads[f"pos.{kind}"] += d_out.sum(axis=0)
    d_flat = d_out.reshape(b, n * params.d_tok)
    grads[f"proj_w.{kind}"] += d_flat.T @ cache.feats
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
