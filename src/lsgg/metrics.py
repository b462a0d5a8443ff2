"""Evaluation metrics: Recall@K, mean Recall@K, M@K, the forgetting measure,
GT-count-weighted mAP, and the weighted summary score, plus the prediction
dump and ground-truth file formats they consume.

Predictions and ground truth are column tables, one row per record. Reduction
order is fixed (sorted image ids, sorted class ids, sequential sums), so a
result does not depend on the order of the input rows, except that
predictions tied on their whole sort key (image and rank for recall; class,
confidence, image and rank for weighted mAP) are taken in row order.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .ioutil import data_lines, format_float, parse_int64

MATCH_MODES = ("ids", "triplet")


@dataclass
class PredTable:
    """Predictions as columns, one row each. ``rank`` is the 1-based position
    in the image's ranked list; ``gt_id``, the instance-id match target, is
    read only where ``has_id`` is set."""

    image: np.ndarray
    rank: np.ndarray
    subj: np.ndarray
    pred: np.ndarray
    obj: np.ndarray
    conf: np.ndarray
    gt_id: np.ndarray
    has_id: np.ndarray

    def __len__(self) -> int:
        return len(self.image)


@dataclass
class GTTable:
    """Ground truth as columns, one row each, in list order."""

    image: np.ndarray
    gt_id: np.ndarray
    subj: np.ndarray
    pred: np.ndarray
    obj: np.ndarray

    def __len__(self) -> int:
        return len(self.image)


def positions_in_runs(values: np.ndarray) -> np.ndarray:
    """0-based position of each element of a sorted array in its run of equal
    values."""
    n = len(values)
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    return np.arange(n) - np.repeat(starts, np.diff(np.r_[starts, n]))


def _check_inputs(preds: PredTable, gt: GTTable, mode: str) -> None:
    if mode not in MATCH_MODES:
        raise ValueError(f"unknown matching mode {mode!r}")
    stray = np.setdiff1d(preds.image, gt.image)
    if len(stray):
        raise ValueError(f"image {stray[0]} has predictions but no GT entry")


def _key_claims(preds: PredTable, gt: GTTable, order: np.ndarray, mode: str) -> np.ndarray:
    """Exact matching as one join on the key (image, [gt_id,] subj, pred,
    obj): the i-th prediction of a key in ``order`` claims the i-th GT row of
    that key, if there is one. Predictions of different keys never compete
    for a GT, so this is the greedy one-claim matching. Returns the claimed
    GT row per position of ``order``, -1 for none."""
    claims = np.full(len(order), -1, dtype=np.int64)
    at = np.arange(len(order))
    if mode == "ids":
        at = at[preds.has_id[order]]
    if not len(at):
        return claims
    rows = order[at]
    names = ("image", "subj", "pred", "obj") + (("gt_id",) if mode == "ids" else ())
    # stable: within a key, GT rows in list order, then predictions in order
    keys = [np.concatenate((getattr(gt, n), getattr(preds, n)[rows])) for n in names]
    srt = np.lexsort(keys)
    new = np.zeros(len(srt), dtype=bool)
    new[0] = True
    for key in keys:
        k = key[srt]
        new[1:] |= k[1:] != k[:-1]
    start = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    is_gt = srt < len(gt)
    n_gt = np.add.reduceat(is_gt.astype(np.int64), start)[group]
    i = np.arange(len(srt)) - start[group] - n_gt  # index among the key's predictions
    hit = ~is_gt & (i < n_gt)
    claims[at[srt[hit] - len(gt)]] = srt[start[group[hit]] + i[hit]]
    return claims


def recall_at_ks(preds: PredTable, gt: GTTable, ks, mode: str = "ids") -> dict:
    """R@K and mR@K for every K in ``ks`` from one matching pass, as
    {K: (R@K, mR@K)}, both in [0,100].

    Each image's predictions are matched in rank order (equal ranks in input
    order), the top max(K) of them, so for any K' < K the claims made at
    positions below K' are exactly the top-K' matching. R@K averages over
    images the fraction of their GT matched in the top K. mR@K pools each
    predicate class's GT across images and averages the per-class recall
    unweighted over classes with ground truth.
    """
    if not len(ks) or min(ks) < 1:
        raise ValueError("K must be >= 1")
    _check_inputs(preds, gt, mode)
    if not len(gt):
        raise ValueError("no ground truth records")
    k_max = max(ks)
    order = np.lexsort((preds.rank, preds.image))
    pos = positions_in_runs(preds.image[order])
    top = pos < k_max
    order, pos = order[top], pos[top]
    claims = _key_claims(preds, gt, order, mode)
    hit = claims >= 0
    claim_pos = np.full(len(gt), k_max)
    claim_pos[claims[hit]] = pos[hit]
    _, image_of, image_n = np.unique(gt.image, return_inverse=True, return_counts=True)
    _, class_of, class_n = np.unique(gt.pred, return_inverse=True, return_counts=True)
    out = {}
    for k in ks:
        within = claim_pos < k
        # sequential sums in sorted image and class order
        image_total = float(np.cumsum(np.bincount(image_of, weights=within) / image_n)[-1])
        class_total = float(np.cumsum(np.bincount(class_of, weights=within) / class_n)[-1])
        out[k] = (100.0 * image_total / len(image_n), 100.0 * class_total / len(class_n))
    return out


def recall_at_k(preds: PredTable, gt: GTTable, k: int, mode: str = "ids") -> float:
    """Image-averaged fraction of GT matched in the top-K, scaled to [0,100]."""
    return recall_at_ks(preds, gt, (k,), mode)[k][0]


def mean_recall_at_k(preds: PredTable, gt: GTTable, k: int, mode: str = "ids") -> float:
    """Per-predicate-class recall (class GT pooled across images), averaged
    unweighted over classes with ground truth; [0,100]."""
    return recall_at_ks(preds, gt, (k,), mode)[k][1]


def m_at_k(r: float, mr: float) -> float:
    """Arithmetic mean of R@K and mR@K."""
    return (r + mr) / 2.0


@dataclass
class MetricReport:
    """Metrics for one evaluation point (after one training stage)."""

    stage: int
    r: dict  # K -> R@K
    mr: dict  # K -> mR@K
    m: dict  # K -> M@K
    wmap: float | None = None  # weighted mAP by instance-id matching
    score: float | None = None

    def check_invariants(self) -> None:
        for k in self.m:
            if self.m[k] != m_at_k(self.r[k], self.mr[k]):
                raise AssertionError(f"M@{k} is not exactly (R@{k} + mR@{k})/2")


class AccuracyMatrix:
    """Lower-triangular a[l][j]: metric on task j measured after stage l."""

    def __init__(self, n_stages: int):
        if n_stages < 1:
            raise ValueError("need at least one stage")
        self.values = [[None] * (l + 1) for l in range(n_stages)]

    @property
    def n_stages(self) -> int:
        return len(self.values)

    def set(self, l: int, j: int, value: float) -> None:
        if not 0 <= j <= l < self.n_stages:
            raise ValueError(f"({l},{j}) outside the lower triangle of {self.n_stages} stages")
        if self.values[l][j] is not None:
            raise ValueError(f"a[{l}][{j}] already written")
        v = float(value)
        if not 0.0 <= v <= 100.0:
            raise ValueError(f"accuracy {v} outside [0,100]")
        self.values[l][j] = v

    def get(self, l: int, j: int) -> float:
        v = self.values[l][j]
        if v is None:
            raise ValueError(f"a[{l}][{j}] never measured")
        return v


def forgetting_measure(matrix) -> float:
    """Mean over tasks of (best historical accuracy - final accuracy).

    FM_T = 1/(T-1) * sum_j [ max_{l in {j..T-1}} a[l][j] - a[T][j] ] with
    1-based stages; lower is better, 0 for no forgetting.
    """
    values = matrix.values if isinstance(matrix, AccuracyMatrix) else matrix
    t = len(values)
    if t < 2:
        raise ValueError("forgetting needs at least 2 stages")
    for l, row in enumerate(values):
        if len(row) != l + 1 or any(v is None for v in row):
            raise ValueError("accuracy matrix must be lower-triangular and fully measured")
    total = 0.0
    for j in range(t - 1):
        best = max(values[l][j] for l in range(j, t - 1))
        total += best - values[t - 1][j]
    return total / (t - 1)


def _average_precision(tp: np.ndarray, npos: int) -> float:
    """The area under the monotone precision envelope over recall, for hit
    flags in rank order."""
    tp_cum = np.cumsum(tp)
    fp_cum = np.cumsum(1.0 - tp)
    mrec = np.concatenate(([0.0], tp_cum / npos, [1.0]))
    mpre = np.concatenate(([0.0], tp_cum / (tp_cum + fp_cum), [0.0]))
    mpre = np.maximum.accumulate(mpre[::-1])[::-1]
    return float(np.cumsum(np.diff(mrec) * mpre[1:])[-1])  # a sequential sum


def weighted_map(preds: PredTable, gt: GTTable, mode: str = "ids") -> float:
    """GT-count-weighted mean AP over predicate classes, [0,100].

    Per class, predictions are ranked globally by descending confidence (ties
    by image, rank, then input order) and matched greedily within their image
    (one claim per GT). AP integrates the monotone precision envelope over
    recall. Matching rule by mode: ids uses exact instance ids (the
    PredCls-style dump pathway); triplet, exact triplets.
    """
    _check_inputs(preds, gt, mode)
    classes, npos = np.unique(gt.pred, return_counts=True)
    order = np.lexsort((preds.rank, preds.image, -preds.conf, preds.pred))
    order = order[np.isin(preds.pred[order], classes)]
    tp = (_key_claims(preds, gt, order, mode) >= 0).astype(np.float64)
    ranked = preds.pred[order]
    lo = np.searchsorted(ranked, classes, side="left").tolist()
    hi = np.searchsorted(ranked, classes, side="right").tolist()
    weighted_sum = 0.0
    for n, a, b in zip(npos.tolist(), lo, hi):
        weighted_sum += (n / len(gt)) * _average_precision(tp[a:b], n)
    return float(100.0 * weighted_sum)


def score_wtd(r50: float, wmap_rel: float, wmap_phr: float) -> float:
    """The weighted summary score 0.2*R@50 + 0.4*wmAP_rel + 0.4*wmAP_phr; a
    run's ``results.csv`` passes its one ids-mode wmAP as both."""
    return 0.2 * r50 + 0.4 * wmap_rel + 0.4 * wmap_phr


# -- dump and GT files -----------------------------------------------------------
#
# prediction line:  image_id rank subj pred obj conf gt_id|-
# ground truth:     image_id gt_id subj pred obj


def save_predictions(preds: PredTable, path) -> None:
    rows = zip(preds.image.tolist(), preds.rank.tolist(), preds.subj.tolist(),
               preds.pred.tolist(), preds.obj.tolist(), preds.conf.tolist(),
               preds.gt_id.tolist(), preds.has_id.tolist())
    with open(path, "w") as fh:
        for image, rank, subj, pred, obj, conf, gt_id, has_id in rows:
            fh.write(f"{image} {rank} {subj} {pred} {obj} {format_float(conf)} "
                     f"{gt_id if has_id else '-'}\n")


def _data_lines(path, n_fields: int):
    """(line number, fields) of each data line (``ioutil.data_lines``)."""
    for lineno, text in data_lines(path):
        toks = text.split()
        if len(toks) != n_fields:
            raise ValueError(f"line {lineno}: expected {n_fields} fields, got {len(toks)}")
        yield lineno, toks


def load_predictions(path) -> PredTable:
    """The dump as a ``PredTable``, rows in file order. A NaN confidence is
    refused: it has no place in the descending-confidence ranking of
    ``weighted_map``."""
    ints, confs = [], []
    for lineno, toks in _data_lines(path, 7):
        try:
            image_id, rank, subj, pred, obj = (parse_int64(t) for t in toks[:5])
            conf = float(toks[5])
            gt_id = None if toks[6] == "-" else parse_int64(toks[6])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if rank < 1:
            raise ValueError(f"line {lineno}: rank must be >= 1")
        if math.isnan(conf):
            raise ValueError(f"line {lineno}: confidence is NaN")
        ints.append((image_id, rank, subj, pred, obj, 0 if gt_id is None else gt_id,
                     gt_id is not None))
        confs.append(conf)
    cols = np.array(ints, dtype=np.int64).reshape(-1, 7).T
    return PredTable(image=cols[0], rank=cols[1], subj=cols[2], pred=cols[3], obj=cols[4],
                     conf=np.array(confs, dtype=np.float64), gt_id=cols[5],
                     has_id=cols[6].astype(bool))


def save_gt(gt: GTTable, path) -> None:
    rows = zip(gt.image.tolist(), gt.gt_id.tolist(), gt.subj.tolist(), gt.pred.tolist(),
               gt.obj.tolist())
    with open(path, "w") as fh:
        for ids in rows:
            fh.write(" ".join(map(str, ids)) + "\n")


def load_gt(path) -> GTTable:
    """The ground truth as a ``GTTable``, rows in file order."""
    ints = []
    for lineno, toks in _data_lines(path, 5):
        try:
            ints.append(tuple(parse_int64(t) for t in toks))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    cols = np.array(ints, dtype=np.int64).reshape(-1, 5).T
    return GTTable(image=cols[0], gt_id=cols[1], subj=cols[2], pred=cols[3], obj=cols[4])
