"""Evaluation metrics: Recall@K, mean Recall@K, M@K, the forgetting measure,
GT-count-weighted mAP, and the weighted summary score, plus the prediction
dump and ground-truth file formats they consume.

Reduction order is fixed (sorted image ids, sorted class ids, plain Python
sums) so results are bitwise stable under input reordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ioutil import format_float

MATCH_MODES = ("ids", "triplet", "rel", "phr")


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


def _group_by_image(items):
    grouped: dict = {}
    for it in items:
        grouped.setdefault(it.image_id, []).append(it)
    return grouped


def iou(a, b) -> float:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    ix1, iy1 = max(ax1, bx1), max(ay1, by1)
    ix2, iy2 = min(ax2, bx2), min(ay2, by2)
    iw, ih = max(0.0, ix2 - ix1), max(0.0, iy2 - iy1)
    inter = iw * ih
    if inter <= 0.0:
        return 0.0
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def union_box(a, b):
    return (min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3]))


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
        elif mode == "phr":
            q = iou(union_box(*pred.boxes), union_box(*gt.boxes))
        else:
            raise ValueError(f"unknown matching mode {mode!r}")
        if q >= iou_thr and q > best_q:
            best_gi, best_q = gi, q
    return best_gi


def _match_topk(records, gt, k: int, mode: str, iou_thr: float = 0.5):
    """Greedy one-claim-per-GT matching of each image's top-K predictions.

    Returns {image_id: {matched GT index: 0-based rank position of the
    prediction that claimed it}} plus the grouped GT lists. Predictions are
    matched in rank order, so for any K' < K the claims made at positions
    below K' are exactly the top-K' matching.
    """
    if k < 1:
        raise ValueError("K must be >= 1")
    if mode not in MATCH_MODES:
        raise ValueError(f"unknown matching mode {mode!r}")
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
        for pos, pred in enumerate(preds[:k]):
            hit = _match_one(pred, gts, claimed, mode, iou_thr)
            if hit is not None:
                claimed[hit] = pos
        matched[image_id] = claimed
    return matched, gt_by_img


def recall_at_ks(records, gt, ks, mode: str = "ids") -> dict:
    """R@K and mR@K for every K in ``ks`` from one matching pass, as
    {K: (R@K, mR@K)}, both in [0,100].

    R@K averages over images the fraction of their GT matched in the top K.
    mR@K pools each predicate class's GT across images and averages the
    per-class recall unweighted over classes with ground truth.
    """
    if not len(ks) or min(ks) < 1:
        raise ValueError("K must be >= 1")
    matched, gt_by_img = _match_topk(records, gt, max(ks), mode)
    images = sorted(gt_by_img)
    if not images:
        raise ValueError("no ground truth records")
    gt_count: dict = {}
    for image_id in images:
        for g in gt_by_img[image_id]:
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


def recall_at_k(records, gt, k: int, mode: str = "ids") -> float:
    """Image-averaged fraction of GT matched in the top-K, scaled to [0,100]."""
    return recall_at_ks(records, gt, (k,), mode)[k][0]


def mean_recall_at_k(records, gt, k: int, mode: str = "ids") -> float:
    """Per-predicate-class recall (class GT pooled across images), averaged
    unweighted over classes with ground truth; [0,100]."""
    return recall_at_ks(records, gt, (k,), mode)[k][1]


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
    per_task: dict  # task index -> {metric name -> value}
    wmap: float | None = None  # weighted mAP by instance-id matching
    score: float | None = None

    def check_invariants(self) -> None:
        for k in self.m:
            if self.m[k] != m_at_k(self.r[k], self.mr[k]):
                raise AssertionError(f"M@{k} is not exactly (R@{k} + mR@{k})/2")


class AccuracyMatrix:
    """Lower-triangular a[l][j]: metric on task j measured after stage l."""

    def __init__(self, n_stages: int, metric: str = "mR@50"):
        if n_stages < 1:
            raise ValueError("need at least one stage")
        self.metric = metric
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

    def is_complete(self) -> bool:
        return all(v is not None for row in self.values for v in row)


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


def weighted_map(records, gt, mode: str = "rel", iou_thr: float = 0.5) -> float:
    """GT-count-weighted mean AP over predicate classes, [0,100].

    Per class, predictions are ranked globally by descending confidence and
    matched greedily within their image (one claim per GT). AP integrates the
    monotone precision envelope over recall. Matching rule by mode: rel needs
    subject and object IoU >= thr each; phr needs union-box IoU >= thr; ids
    uses exact instance ids (the PredCls-style dump pathway).
    """
    if mode not in MATCH_MODES:
        raise ValueError(f"unknown matching mode {mode!r}")
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
        preds = sorted(preds_by_class.get(c, []),
                       key=lambda p: (-p.conf, p.image_id, p.rank))
        npos = gt_count[c]
        claimed: dict = {}
        tp = np.zeros(len(preds))
        for i, p in enumerate(preds):
            img_claimed = claimed.setdefault(p.image_id, set())
            gts = gt_by_img[p.image_id]
            hit = _match_one(p, gts, img_claimed, mode, iou_thr)
            if hit is not None:
                img_claimed.add(hit)
                tp[i] = 1.0
        if len(preds) == 0:
            ap = 0.0
        else:
            tp_cum = np.cumsum(tp)
            fp_cum = np.cumsum(1.0 - tp)
            rec = tp_cum / npos
            prec = tp_cum / (tp_cum + fp_cum)
            mrec = np.concatenate(([0.0], rec, [1.0]))
            mpre = np.concatenate(([0.0], prec, [0.0]))
            for i in range(mpre.size - 2, -1, -1):
                mpre[i] = max(mpre[i], mpre[i + 1])
            ap = 0.0
            for i in range(mrec.size - 1):
                ap += (mrec[i + 1] - mrec[i]) * mpre[i + 1]
        weighted_sum += (npos / total_gt) * ap
    return float(100.0 * weighted_sum)


def score_wtd(r50: float, wmap_rel: float, wmap_phr: float) -> float:
    """The weighted summary score 0.2*R@50 + 0.4*wmAP_rel + 0.4*wmAP_phr; a
    run's ``results.csv`` passes its one ids-mode wmAP as both."""
    return 0.2 * r50 + 0.4 * wmap_rel + 0.4 * wmap_phr


# -- dump and GT files -----------------------------------------------------------
#
# prediction line:  image_id rank subj pred obj conf [8 box floats] gt_id|-
# ground truth:     image_id gt_id subj pred obj [8 box floats]


def save_predictions(records, path) -> None:
    with open(path, "w") as fh:
        for r in records:
            parts = [str(r.image_id), str(r.rank), str(r.subj), str(r.pred),
                     str(r.obj), format_float(r.conf)]
            if r.boxes is not None:
                for box in r.boxes:
                    parts.extend(format_float(v) for v in box)
            parts.append("-" if r.gt_id is None else str(r.gt_id))
            fh.write(" ".join(parts) + "\n")


def load_predictions(path) -> list:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            toks = stripped.split()
            if len(toks) not in (7, 15):
                raise ValueError(f"line {lineno}: expected 7 or 15 fields, got {len(toks)}")
            try:
                image_id, rank, subj, pred, obj = (int(t) for t in toks[:5])
                conf = float(toks[5])
                boxes = None
                if len(toks) == 15:
                    vals = [float(t) for t in toks[6:14]]
                    boxes = (tuple(vals[:4]), tuple(vals[4:]))
                gt_tok = toks[-1]
                gt_id = None if gt_tok == "-" else int(gt_tok)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            if rank < 1:
                raise ValueError(f"line {lineno}: rank must be >= 1")
            out.append(PredRecord(image_id=image_id, rank=rank, subj=subj, pred=pred,
                                  obj=obj, conf=conf, boxes=boxes, gt_id=gt_id))
    return out


def save_gt(records, path) -> None:
    with open(path, "w") as fh:
        for g in records:
            parts = [str(g.image_id), str(g.gt_id), str(g.subj), str(g.pred), str(g.obj)]
            if g.boxes is not None:
                for box in g.boxes:
                    parts.extend(format_float(v) for v in box)
            fh.write(" ".join(parts) + "\n")


def load_gt(path) -> list:
    out = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            toks = stripped.split()
            if len(toks) not in (5, 13):
                raise ValueError(f"line {lineno}: expected 5 or 13 fields, got {len(toks)}")
            try:
                image_id, gt_id, subj, pred, obj = (int(t) for t in toks[:5])
                boxes = None
                if len(toks) == 13:
                    vals = [float(t) for t in toks[5:]]
                    boxes = (tuple(vals[:4]), tuple(vals[4:]))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            out.append(GTRecord(image_id=image_id, gt_id=gt_id, subj=subj, pred=pred,
                                obj=obj, boxes=boxes))
    return out
