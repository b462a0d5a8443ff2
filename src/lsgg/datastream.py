"""Task schedules, synthetic embedding datasets, and the LSGG-EMB file format.

A dataset is one column table, :class:`RelationTable`, one row per relation
instance (a subject-object pair). The lifelong protocol gives each predicate
one stage: a schedule is the int64 array ``stage[p]``; each stage's
train/val/test splits are :class:`Rows`, row numbers into that one table.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .ioutil import data_lines, format_float, parse_int64
from .metrics import box_column, positions_in_runs
from .rng import SeededRng, _mix64_block
from .numerics import random_unit_vector

EMB_MAGIC = "LSGG-EMB"
EMB_VERSION = 1


@dataclass(eq=False)
class RelationTable:
    """Relation instances as columns, one row each: int64 ``image``,
    ``gt_id`` (the row's occurrence index among its image's rows, in table
    order), ``subj``, ``obj`` and ``pred``; one float64 (n, d_kind) array
    per feature kind in ``feats``; ``conf`` (NaN where absent); and
    ``boxes``, None or (n, 8) with subject then object box and a NaN row
    where absent."""

    image: np.ndarray
    gt_id: np.ndarray
    subj: np.ndarray
    obj: np.ndarray
    pred: np.ndarray
    feats: dict  # kind -> (n, d_kind)
    conf: np.ndarray
    boxes: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.pred)

    def take(self, rows) -> "RelationTable":
        """The table of rows ``rows`` (an index array, a slice or one int)."""
        return RelationTable(self.image[rows], self.gt_id[rows], self.subj[rows],
                             self.obj[rows], self.pred[rows],
                             {kind: f[rows] for kind, f in self.feats.items()},
                             self.conf[rows], None if self.boxes is None else self.boxes[rows])


def relation_table(image, subj, obj, pred, feats: dict, conf, boxes=None) -> RelationTable:
    """The table of these columns, with ``gt_id`` counted from ``image``."""
    order = np.argsort(image, kind="stable")
    gt_id = np.empty(len(image), dtype=np.int64)
    gt_id[order] = positions_in_runs(image[order])
    return RelationTable(image, gt_id, subj, obj, pred, feats, conf, boxes)


@dataclass(frozen=True, eq=False)
class Rows:
    """Rows ``index`` of table ``data``, a stage split; columns are copied
    only at the rows a caller takes."""

    data: RelationTable
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def take(self, sel=slice(None)) -> RelationTable:
        """The table of this split's rows ``sel``."""
        return self.data.take(self.index[sel])


@dataclass
class StageDataset:
    """One stage's splits: ``Rows`` of the dataset, or any tables."""

    train: Rows | RelationTable
    val: Rows | RelationTable
    test: Rows | RelationTable


def _chunk_sizes(n: int, t: int) -> list:
    base, rem = divmod(n, t)
    return [base + 1 if i < rem else base for i in range(t)]


def _stages_of(order, t: int) -> np.ndarray:
    """The schedule that cuts predicate order ``order`` into t near-equal
    stages: ``stage[p]`` is the 0-based stage of predicate ``p``."""
    n = len(order)
    if t < 1 or t > n:
        raise ValueError(f"cannot split {n} predicates into {t} stages")
    stage = np.empty(n, dtype=np.int64)
    stage[np.asarray(order, dtype=np.int64)] = np.repeat(np.arange(t), _chunk_sizes(n, t))
    return stage


def split_random(n_pred: int, t: int, rng: SeededRng) -> np.ndarray:
    """Randomly partition predicates 0..n_pred-1 into t near-equal stages."""
    order = list(range(n_pred))
    rng.shuffle(order)
    return _stages_of(order, t)


def split_by_frequency(counts, t: int) -> np.ndarray:
    """Head-to-tail split: stage 1 gets the most frequent predicates.

    Predicates are ordered by descending instance count ``counts[p]`` (ties
    by lower id) and cut into t near-equal stages.
    """
    return _stages_of(np.argsort(-np.asarray(counts, dtype=np.int64), kind="stable"), t)


def make_schedule(data: RelationTable, n_pred: int, t: int, mode: str,
                  rng: SeededRng) -> np.ndarray:
    """The t-stage schedule of predicates 0..n_pred-1 that a run uses: by their
    instance counts over the whole of ``data`` for mode ``frequency``, else at
    random by ``rng``; ValueError for a predicate of ``data`` outside them."""
    counts = np.bincount(data.pred, minlength=n_pred)
    if len(counts) > n_pred:
        raise ValueError(f"predicate {len(counts) - 1} outside 0..{n_pred - 1}")
    if mode == "frequency":
        return split_by_frequency(counts, t)
    return split_random(n_pred, t, rng)


def make_stage_datasets(data, stage: np.ndarray, split_fractions=(0.7, 0.1, 0.2)) -> list:
    """Route each row to its predicate's stage ``stage[pred]`` and split
    train/val/test.

    The within-stage split sorts rows by a content-free hash of (image,
    ``gt_id``, the row's occurrence index within its image over the whole
    dataset), then by image and ``gt_id``, so it is stable under reordering
    of whole images. Quota boundaries are rounded from the fractions, so
    split sizes stay within one row of exact proportion.
    """
    fr = tuple(float(f) for f in split_fractions)
    if len(fr) != 3 or any(f <= 0 for f in fr) or abs(sum(fr) - 1.0) > 1e-9:
        raise ValueError(f"split fractions must be three positives summing to 1, got {fr}")

    if len(data) and (data.pred.min() < 0 or data.pred.max() >= len(stage)):
        raise ValueError(f"a predicate lies outside the schedule's 0..{len(stage) - 1}")
    row_stage = stage[data.pred]
    key = _mix64_block(data.image.astype(np.uint64) ^ np.uint64(0xD1B54A32D192ED03))
    key = _mix64_block(key + data.gt_id.astype(np.uint64))
    order = np.lexsort((data.gt_id, data.image, key, row_stage))

    out, start = [], 0
    for n in np.bincount(row_stage, minlength=stage.max(initial=-1) + 1).tolist():
        rows = order[start : start + n]
        start += n
        b1 = int(np.floor(fr[0] * n + 0.5))
        b2 = int(np.floor((fr[0] + fr[1]) * n + 0.5))
        out.append(StageDataset(train=Rows(data, rows[:b1]), val=Rows(data, rows[b1:b2]),
                                test=Rows(data, rows[b2:])))
    return out


@dataclass
class SynthConfig:
    """Gaussian-mixture generator with Zipf-distributed class counts.

    Every predicate class has a unit-norm relation-space mean and belongs to
    one of ``n_groups`` knowledge groups (class id mod n_groups); each group
    has a unit-norm context-space mean, so the context feature carries the
    group identity that knowledge-keyed retrieval can recover.
    """

    n_pred: int = 50
    n_groups: int = 5
    n_obj: int = 20
    d_c: int = 64
    d_r: int = 64
    d_o: int = 32
    sigma: float = 0.35
    zipf_s: float = 0.8
    total_n: int = 10_000
    pairs_per_image: int = 4

    def validate(self) -> None:
        if self.n_pred < 1 or self.n_groups < 1 or self.n_obj < 1:
            raise ValueError("class counts must be >= 1")
        if min(self.d_c, self.d_r, self.d_o) < 2:
            raise ValueError("feature dimensions must be >= 2")
        if self.sigma < 0 or self.zipf_s < 0:
            raise ValueError("sigma and zipf_s must be >= 0")
        if self.total_n < 1 or self.pairs_per_image < 1:
            raise ValueError("total_n and pairs_per_image must be >= 1")


def zipf_counts(n_classes: int, s: float, total: int) -> list:
    """Integer class counts ~ 1/rank^s summing exactly to total, non-increasing."""
    w = np.array([1.0 / (c + 1) ** s for c in range(n_classes)])
    ideal = total * w / w.sum()
    counts = np.floor(ideal).astype(int)
    shortfall = total - int(counts.sum())
    order = sorted(range(n_classes), key=lambda c: (-(ideal[c] - counts[c]), c))
    for c in order[:shortfall]:
        counts[c] += 1
    # remainder bumps may locally break monotonicity; reassign the multiset in rank order
    return sorted(counts.tolist(), reverse=True)


def synth_generate(config: SynthConfig, rng: SeededRng):
    """Generate a dataset; returns (RelationTable, group_of_class list).

    Rows are drawn class by class and land at the positions of a shuffled
    order; consecutive blocks of ``pairs_per_image`` rows form an image."""
    config.validate()
    counts = zipf_counts(config.n_pred, config.zipf_s, config.total_n)
    group_of_class = [c % config.n_groups for c in range(config.n_pred)]

    mean_rng = rng.derive("means")
    rel_means = [random_unit_vector(config.d_r, mean_rng) for _ in range(config.n_pred)]
    ctx_means = [random_unit_vector(config.d_c, mean_rng) for _ in range(config.n_groups)]
    obj_means = [random_unit_vector(config.d_o, mean_rng) for _ in range(config.n_obj)]

    n = sum(counts)
    # the k-th row drawn (class-major) lands at position ``at[k]``
    at = np.empty(n, dtype=np.int64)
    at[rng.derive("image-order").permutation(n)] = np.arange(n)
    subj, obj, pred = (np.empty(n, dtype=np.int64) for _ in range(3))
    dims = {"c": config.d_c, "r": config.d_r, "s": config.d_o, "o": config.d_o}
    feats = {kind: np.empty((n, d)) for kind, d in dims.items()}

    obj_table = np.asarray(obj_means)
    draw_rng = rng.derive("instances")
    start = 0
    for c, n_c in enumerate(counts):
        rows = at[start : start + n_c]
        start += n_c
        if n_c == 0:
            continue
        bounds = np.full(n_c, config.n_obj)
        s, o = draw_rng.randint_block(bounds), draw_rng.randint_block(bounds)
        subj[rows], obj[rows], pred[rows] = s, o, c
        means = {"c": ctx_means[group_of_class[c]], "r": rel_means[c],
                 "s": obj_table[s], "o": obj_table[o]}
        for kind, f in feats.items():  # drawn in the order c, r, s, o
            f[rows] = means[kind] + config.sigma * draw_rng.normal((n_c, dims[kind]))

    table = relation_table(np.arange(n) // config.pairs_per_image, subj, obj, pred, feats,
                           np.full(n, np.nan))
    return table, group_of_class


# -- LSGG-EMB v1 text format -------------------------------------------------
#
# header:  LSGG-EMB 1 <d_c> <d_r> <d_o> <n_obj> <n_pred>
# record:  image_id subj_class obj_class pred_class has_boxes[0|1]
#          (8 box floats if 1) confidence f_c... f_r... f_s... f_o...
# confidence is '-' when absent; '#' lines are comments.


def save_embeddings(data, path, n_obj: int | None = None, n_pred: int | None = None) -> None:
    """Write a dataset in LSGG-EMB v1; floats at full round-trip precision."""
    d_c, d_r, d_o = (data.feats[kind].shape[1] for kind in ("c", "r", "o"))
    if n_obj is None:
        n_obj = int(max(data.subj.max(initial=0), data.obj.max(initial=0))) + 1
    if n_pred is None:
        n_pred = int(data.pred.max(initial=0)) + 1
    ids = np.stack([data.image, data.subj, data.obj, data.pred], axis=1).tolist()
    boxes = [None] * len(data) if data.boxes is None else data.boxes.tolist()
    confs = data.conf.tolist()
    floats = np.concatenate([data.feats[kind] for kind in ("c", "r", "s", "o")], axis=1)
    with open(path, "w") as fh:
        fh.write(f"{EMB_MAGIC} {EMB_VERSION} {d_c} {d_r} {d_o} {n_obj} {n_pred}\n")
        for i, row in enumerate(floats.tolist()):
            parts = [str(v) for v in ids[i]]
            if boxes[i] is None or math.isnan(boxes[i][0]):
                parts.append("0")
            else:
                parts.append("1")
                parts.extend(map(format_float, boxes[i]))
            parts.append("-" if math.isnan(confs[i]) else format_float(confs[i]))
            parts.extend(map(format_float, row))
            fh.write(" ".join(parts) + "\n")


class EmbeddingFormatError(ValueError):
    pass


def _parse_floats(tokens, n, lineno, what):
    if len(tokens) < n:
        raise EmbeddingFormatError(f"line {lineno}: expected {n} floats for {what}, found {len(tokens)}")
    try:
        vals = [float(tok) for tok in tokens[:n]]
    except ValueError as exc:
        raise EmbeddingFormatError(f"line {lineno}: bad float in {what}: {exc}") from None
    if not np.all(np.isfinite(vals)):
        raise EmbeddingFormatError(f"line {lineno}: non-finite value in {what}")
    return vals, tokens[n:]


def load_embeddings(path):
    """Parse an LSGG-EMB v1 file into (table, n_obj, n_pred), the header's
    class counts with the table; errors carry the offending line number."""
    lines = data_lines(path)
    head_no, head_text = next(lines, (None, None))
    if head_no is None:
        raise EmbeddingFormatError("missing header line")
    head = head_text.split()
    if len(head) != 7 or head[0] != EMB_MAGIC or head[1] != str(EMB_VERSION):
        raise EmbeddingFormatError(f"line {head_no}: bad header {head_text!r}")
    try:
        dims = [parse_int64(tok) for tok in head[2:]]
    except ValueError as exc:
        raise EmbeddingFormatError(f"line {head_no}: bad header field: {exc}") from None
    if min(dims) < 1:
        raise EmbeddingFormatError(f"line {head_no}: header dimensions must be >= 1")
    d_c, d_r, d_o, n_obj, n_pred = dims

    ids, boxes, confs = [], [], []
    feats = {"c": [], "r": [], "s": [], "o": []}
    widths = {"c": d_c, "r": d_r, "s": d_o, "o": d_o}
    for lineno, text in lines:
        toks = text.split()
        if len(toks) < 5:
            raise EmbeddingFormatError(f"line {lineno}: truncated record")
        try:
            image_id, subj, obj, pred = (parse_int64(tok) for tok in toks[:4])
        except ValueError as exc:
            raise EmbeddingFormatError(f"line {lineno}: bad id field: {exc}") from None
        if not 0 <= subj < n_obj or not 0 <= obj < n_obj:
            raise EmbeddingFormatError(f"line {lineno}: object class outside declared range")
        if not 0 <= pred < n_pred:
            raise EmbeddingFormatError(f"line {lineno}: predicate outside declared range")
        has_boxes = toks[4]
        rest = toks[5:]
        box = None
        if has_boxes == "1":
            flat, rest = _parse_floats(rest, 8, lineno, "boxes")
            box = (flat[:4], flat[4:])
            if not all(b[0] < b[2] and b[1] < b[3] for b in box):
                raise EmbeddingFormatError(f"line {lineno}: degenerate box {box}")
        elif has_boxes != "0":
            raise EmbeddingFormatError(f"line {lineno}: has_boxes must be 0 or 1, got {has_boxes!r}")
        if not rest:
            raise EmbeddingFormatError(f"line {lineno}: missing confidence field")
        conf_tok, rest = rest[0], rest[1:]
        conf = np.nan
        if conf_tok != "-":
            (conf,), _ = _parse_floats([conf_tok], 1, lineno, "confidence")
            if not 0.0 <= conf <= 1.0:
                raise EmbeddingFormatError(f"line {lineno}: confidence {conf} outside [0,1]")
        for kind, rows in feats.items():
            vals, rest = _parse_floats(rest, widths[kind], lineno, f"f_{kind}")
            rows.append(vals)
        if rest:
            raise EmbeddingFormatError(f"line {lineno}: {len(rest)} unexpected trailing fields")
        ids.append((image_id, subj, obj, pred))
        boxes.append(box)
        confs.append(conf)

    image, subj, obj, pred = np.array(ids, dtype=np.int64).reshape(-1, 4).T
    table = relation_table(image, subj, obj, pred,
                           {kind: np.array(rows, dtype=np.float64).reshape(-1, widths[kind])
                            for kind, rows in feats.items()},
                           np.array(confs, dtype=np.float64), box_column(boxes))
    return table, n_obj, n_pred
