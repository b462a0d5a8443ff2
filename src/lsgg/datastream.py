"""Task schedules, synthetic embedding datasets, and the LSGG-EMB file format.

A dataset is one column table, :class:`RelationTable`, one row per relation
instance (a subject-object pair). The lifelong protocol gives each predicate
one stage: a schedule is the int64 array ``stage[p]``; each stage's
train/val/test splits are :class:`Rows`, row numbers into that one table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ioutil import data_lines, exact_ints, parse_int64, read_array, write_array
from .metrics import positions_in_runs
from .rng import SeededRng, _mix64_block
from .numerics import random_unit_vector

EMB_MAGIC = "LSGG-EMB"
EMB_VERSION = 2
_EMB_COLUMNS = ("image", "subj", "obj", "pred", "conf")
_EMB_KINDS = ("c", "r", "s", "o")
_EMB_ARRAYS = (*_EMB_COLUMNS, *(f"f.{kind}" for kind in _EMB_KINDS))


@dataclass(eq=False)
class RelationTable:
    """Relation instances as columns, one row each: int64 ``image``,
    ``gt_id`` (the row's occurrence index among its image's rows, in table
    order), ``subj``, ``obj`` and ``pred``; one float64 (n, d_kind) array
    per feature kind in ``feats``; and ``conf`` (NaN where absent)."""

    image: np.ndarray
    gt_id: np.ndarray
    subj: np.ndarray
    obj: np.ndarray
    pred: np.ndarray
    feats: dict  # kind -> (n, d_kind)
    conf: np.ndarray

    def __len__(self) -> int:
        return len(self.pred)

    def take(self, rows) -> "RelationTable":
        """The table of rows ``rows`` (an index array, a slice or one int)."""
        return RelationTable(self.image[rows], self.gt_id[rows], self.subj[rows],
                             self.obj[rows], self.pred[rows],
                             {kind: f[rows] for kind, f in self.feats.items()},
                             self.conf[rows])


def relation_table(image, subj, obj, pred, feats: dict, conf) -> RelationTable:
    """The table of these columns, with ``gt_id`` counted from ``image``."""
    order = np.argsort(image, kind="stable")
    gt_id = np.empty(len(image), dtype=np.int64)
    gt_id[order] = positions_in_runs(image[order])
    return RelationTable(image, gt_id, subj, obj, pred, feats, conf)


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
    fr = np.asarray(split_fractions, dtype=np.float64)
    if fr.shape != (3,) or np.any(fr <= 0) or abs(fr.sum() - 1.0) > 1e-9:
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


# -- LSGG-EMB 2 ---------------------------------------------------------------
# A header line "LSGG-EMB 2 <n_obj> <n_pred>", then ioutil's bit-exact array
# records, one row per relation instance: image, subj, obj, pred and conf (NaN
# where absent), then f.c, f.r, f.s and f.o, whose shapes carry the feature
# widths.


def save_embeddings(data, path, n_obj: int | None = None, n_pred: int | None = None) -> None:
    """Write a dataset in LSGG-EMB 2; every column round-trips bit-exactly."""
    if n_obj is None:
        n_obj = int(max(data.subj.max(initial=0), data.obj.max(initial=0))) + 1
    if n_pred is None:
        n_pred = int(data.pred.max(initial=0)) + 1
    with open(path, "w") as fh:
        fh.write(f"{EMB_MAGIC} {EMB_VERSION} {n_obj} {n_pred}\n")
        for name in _EMB_COLUMNS:
            write_array(fh, name, getattr(data, name))
        for kind in _EMB_KINDS:
            write_array(fh, f"f.{kind}", data.feats[kind])


class EmbeddingFormatError(ValueError):
    pass


def load_embeddings(path):
    """Read an LSGG-EMB 2 file into (table, n_obj, n_pred), the header's class
    counts with the table. Any fault raises EmbeddingFormatError, naming its
    line, or for a bad value its first row (counted from 0)."""
    try:
        return _read_embeddings(path)
    except ValueError as exc:
        raise EmbeddingFormatError(str(exc)) from None


def _refuse_rows(bad: np.ndarray, what: str) -> None:
    """ValueError naming the first row where ``bad`` holds, if any."""
    rows = np.flatnonzero(bad)
    if len(rows):
        raise ValueError(f"row {rows[0]}: {what}")


def _read_embeddings(path):
    lines = data_lines(path)
    head_no, head = next(lines, (1, ""))
    toks = head.split()
    version = toks[1] if toks[:1] == [EMB_MAGIC] and len(toks) > 1 else None
    if version not in (None, str(EMB_VERSION)):
        raise ValueError(f"line {head_no}: {EMB_MAGIC} version {version} is not read; "
                         f"this reader takes version {EMB_VERSION}")
    try:
        if version is None or len(toks) != 4:
            raise ValueError(f"expected '{EMB_MAGIC} {EMB_VERSION} <n_obj> <n_pred>'")
        n_obj, n_pred = (parse_int64(tok) for tok in toks[2:])
        if min(n_obj, n_pred) < 1:
            raise ValueError("class counts must be >= 1")
    except ValueError as exc:
        raise ValueError(f"line {head_no}: bad header {head!r}: {exc}") from None
    arrays = {}
    for lineno, text in lines:
        tag, _, rest = text.partition(" ")
        if tag != "array" or read_array(arrays, lineno, rest) not in _EMB_ARRAYS:
            raise ValueError(f"line {lineno}: unknown record {' '.join(text.split()[:2])!r}")
    missing = [name for name in _EMB_ARRAYS if name not in arrays]
    if missing:
        raise ValueError(f"no array record {missing[0]!r}")

    n = len(arrays["pred"])
    feats = {kind: arrays[f"f.{kind}"] for kind in _EMB_KINDS}
    if not (all(arrays[name].shape == (n,) for name in _EMB_COLUMNS)
            and all(f.ndim == 2 and len(f) == n for f in feats.values())):
        raise ValueError("shapes do not give one row per instance: "
                         + ", ".join(f"{name} {arr.shape}" for name, arr in arrays.items()))
    if min(f.shape[1] for f in feats.values()) < 1 or feats["s"].shape != feats["o"].shape:
        raise ValueError("feature widths must be >= 1, and f.s's equal f.o's: "
                         + ", ".join(f"f.{kind} {f.shape[1]}" for kind, f in feats.items()))
    ids = {}
    for name in _EMB_COLUMNS[:4]:
        try:
            ids[name] = exact_ints(arrays[name])
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    subj, obj, pred = ids["subj"], ids["obj"], ids["pred"]
    _refuse_rows((subj < 0) | (subj >= n_obj) | (obj < 0) | (obj >= n_obj),
                 f"object class outside 0..{n_obj - 1}")
    _refuse_rows((pred < 0) | (pred >= n_pred), f"predicate outside 0..{n_pred - 1}")
    for kind, f in feats.items():
        _refuse_rows(~np.isfinite(f).all(axis=1), f"non-finite value in f.{kind}")
    conf = arrays["conf"]
    _refuse_rows(~(np.isnan(conf) | ((conf >= 0) & (conf <= 1))), "confidence outside [0, 1]")
    table = relation_table(ids["image"], subj, obj, pred, feats, conf)
    return table, n_obj, n_pred
