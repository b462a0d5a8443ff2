"""Evaluation metrics against independent oracles and hand-built geometry.

Oracle notes: with equality matching (ids / triplet modes) the pred-GT graph
decomposes into complete bipartite blocks per key, so greedy one-claim-per-GT
matching saturates min(#preds, #GT) per block; recalls follow in closed form.
AP is recomputed in exact rational arithmetic with the fractions module.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from lsgg.metrics import (MATCH_MODES, AccuracyMatrix, GTRecord, MetricReport, PredRecord,
                          forgetting_measure, iou, load_gt, load_predictions,
                          m_at_k, mean_recall_at_k, recall_at_k, recall_at_ks, save_gt,
                          save_predictions, score_wtd, union_box, weighted_map)


# -- box helpers --------------------------------------------------------------


def test_iou_hand_geometry():
    a = (0.0, 0.0, 10.0, 10.0)
    assert iou(a, a) == pytest.approx(1.0, abs=1e-15)
    assert iou(a, (20.0, 20.0, 30.0, 30.0)) == 0.0
    assert iou(a, (0.0, 5.0, 10.0, 15.0)) == pytest.approx(50.0 / 150.0, abs=1e-12)
    assert iou(a, (5.0, 5.0, 15.0, 15.0)) == pytest.approx(25.0 / 175.0, abs=1e-12)
    assert iou(a, (10.0, 10.0, 20.0, 20.0)) == 0.0  # touching corners


def test_union_box():
    assert union_box((0, 1, 2, 3), (1, 0, 5, 2)) == (0, 0, 5, 3)


# -- paper-anchored arithmetic --------------------------------------------------


def test_weighted_score_reference_rows():
    assert score_wtd(65.24, 25.97, 28.39) == pytest.approx(34.79, abs=0.005)
    assert score_wtd(62.08, 24.48, 25.69) == pytest.approx(32.48, abs=0.005)


def test_m_at_k_reference_rows():
    assert m_at_k(54.1, 18.6) == pytest.approx(36.35, abs=0.05)
    assert m_at_k(52.3, 16.2) == pytest.approx(34.25, abs=0.05)


# -- random instances and the min-count oracle -----------------------------------


def make_random_case(rng, mode, with_ids):
    """Small random image set: GT plus ranked predictions, some matchable."""
    n_img = rng.randint(1, 20)
    n_pred_classes = rng.randint(1, 10)
    gt, preds = [], []
    for img in range(n_img):
        n_gt = rng.randint(1, 5)
        for g in range(n_gt):
            gt.append(GTRecord(image_id=img, gt_id=g,
                               subj=rng.randint(0, 4),
                               pred=rng.randint(0, n_pred_classes - 1),
                               obj=rng.randint(0, 4)))
        n_p = rng.randint(0, 10)
        order = list(range(n_p))
        for rank0 in order:
            if rng.random() < 0.6:  # aim at a real GT record
                target = gt[rng.randint(len(gt) - n_gt, len(gt) - 1)]
                s, p, o = target.subj, target.pred, target.obj
                gt_id = target.gt_id
                if rng.random() < 0.3:  # corrupt one field
                    s = s + 7
            else:
                s, p, o = rng.randint(0, 4), rng.randint(0, n_pred_classes - 1), rng.randint(0, 4)
                gt_id = rng.randint(0, 4)
            preds.append(PredRecord(image_id=img, rank=rank0 + 1, subj=s, pred=p,
                                    obj=o, conf=rng.random(),
                                    gt_id=gt_id if with_ids else None))
    return preds, gt


def block_key(mode, rec):
    triple = (rec.subj, rec.pred, rec.obj)
    if mode == "ids":
        return (rec.gt_id, triple)
    return triple


def oracle_matched_counts(preds, gt, k, mode):
    """Per image: {predicate class -> matched count} via per-block min counts."""
    by_img_gt, by_img_pred = {}, {}
    for g in gt:
        by_img_gt.setdefault(g.image_id, []).append(g)
    for p in preds:
        by_img_pred.setdefault(p.image_id, []).append(p)
    out = {}
    for img in by_img_gt:
        gts = by_img_gt[img]
        top = sorted(by_img_pred.get(img, []), key=lambda p: p.rank)[:k]
        gt_blocks, pred_blocks = {}, {}
        for g in gts:
            gt_blocks[block_key(mode, g)] = gt_blocks.get(block_key(mode, g), 0) + 1
        for p in top:
            if mode == "ids" and p.gt_id is None:
                continue
            key = block_key(mode, p)
            pred_blocks[key] = pred_blocks.get(key, 0) + 1
        per_class = {}
        for key, n_gt in gt_blocks.items():
            n_hit = min(n_gt, pred_blocks.get(key, 0))
            pred_class = key[1][1] if mode == "ids" else key[1]
            per_class[pred_class] = per_class.get(pred_class, 0) + n_hit
        out[img] = per_class
    return out


def oracle_recall(preds, gt, k, mode):
    by_img_gt = {}
    for g in gt:
        by_img_gt.setdefault(g.image_id, []).append(g)
    matched = oracle_matched_counts(preds, gt, k, mode)
    total = 0.0
    images = sorted(by_img_gt)
    for img in images:
        total += sum(matched[img].values()) / len(by_img_gt[img])
    return 100.0 * total / len(images)


def oracle_mean_recall(preds, gt, k, mode):
    matched = oracle_matched_counts(preds, gt, k, mode)
    gt_count, hit_count = {}, {}
    for g in gt:
        gt_count[g.pred] = gt_count.get(g.pred, 0) + 1
    for img in sorted(matched):
        for c, n in matched[img].items():
            hit_count[c] = hit_count.get(c, 0) + n
    total = 0.0
    classes = sorted(gt_count)
    for c in classes:
        total += hit_count.get(c, 0) / gt_count[c]
    return 100.0 * total / len(classes)


@pytest.mark.parametrize("mode", ["ids", "triplet"])
def test_recalls_match_min_count_oracle(mode):
    rng = random.Random(100 if mode == "ids" else 101)
    for case in range(60):
        preds, gt = make_random_case(rng, mode, with_ids=(mode == "ids"))
        for k in (1, 3, 50):
            assert recall_at_k(preds, gt, k, mode) == oracle_recall(preds, gt, k, mode), \
                (case, k)
            assert mean_recall_at_k(preds, gt, k, mode) == \
                oracle_mean_recall(preds, gt, k, mode), (case, k)


def test_recall_monotone_in_k():
    rng = random.Random(102)
    preds, gt = make_random_case(rng, "triplet", with_ids=False)
    values = [recall_at_k(preds, gt, k, "triplet") for k in range(1, 12)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_recall_invariant_under_input_reordering():
    rng = random.Random(103)
    preds, gt = make_random_case(rng, "triplet", with_ids=False)
    base_r = recall_at_k(preds, gt, 5, "triplet")
    base_mr = mean_recall_at_k(preds, gt, 5, "triplet")
    shuffled_p, shuffled_g = list(preds), list(gt)
    rng.shuffle(shuffled_p)
    rng.shuffle(shuffled_g)
    assert recall_at_k(shuffled_p, shuffled_g, 5, "triplet") == base_r
    assert mean_recall_at_k(shuffled_p, shuffled_g, 5, "triplet") == base_mr


def test_recall_hand_case_rank_cutoff():
    gt = [GTRecord(image_id=0, gt_id=0, subj=1, pred=2, obj=3),
          GTRecord(image_id=0, gt_id=1, subj=4, pred=5, obj=6)]
    preds = [PredRecord(image_id=0, rank=1, subj=9, pred=9, obj=9, conf=0.9),
             PredRecord(image_id=0, rank=2, subj=1, pred=2, obj=3, conf=0.8),
             PredRecord(image_id=0, rank=3, subj=4, pred=5, obj=6, conf=0.7)]
    assert recall_at_k(preds, gt, 1, "triplet") == 0.0
    assert recall_at_k(preds, gt, 2, "triplet") == 50.0
    assert recall_at_k(preds, gt, 3, "triplet") == 100.0
    # one spare duplicate claims nothing extra
    preds.append(PredRecord(image_id=0, rank=4, subj=1, pred=2, obj=3, conf=0.6))
    assert recall_at_k(preds, gt, 4, "triplet") == 100.0


def test_recall_requires_gt_for_predicted_images():
    gt = [GTRecord(image_id=0, gt_id=0, subj=1, pred=1, obj=1)]
    preds = [PredRecord(image_id=7, rank=1, subj=1, pred=1, obj=1, conf=0.5)]
    with pytest.raises(ValueError, match="image 7"):
        recall_at_k(preds, gt, 1, "triplet")
    with pytest.raises(ValueError):
        recall_at_k([], [], 1, "triplet")
    with pytest.raises(ValueError):
        recall_at_k(preds, gt, 0, "triplet")
    with pytest.raises(ValueError):
        recall_at_k(preds, gt, 1, "nonsense")


# -- box-mode matching -----------------------------------------------------------


BOX_A = (0.0, 0.0, 10.0, 10.0)


def boxed_gt(image_id=0, gt_id=0, subj_box=BOX_A, obj_box=BOX_A):
    return GTRecord(image_id=image_id, gt_id=gt_id, subj=1, pred=2, obj=3,
                    boxes=(subj_box, obj_box))


def boxed_pred(image_id=0, rank=1, conf=0.9, subj_box=BOX_A, obj_box=BOX_A):
    return PredRecord(image_id=image_id, rank=rank, subj=1, pred=2, obj=3,
                      conf=conf, boxes=(subj_box, obj_box))


def test_rel_needs_both_boxes_phr_needs_union():
    # object box shifted: IoU 1/3 < 0.5 but union-box IoU 2/3 >= 0.5
    gt = [boxed_gt(obj_box=(0.0, 5.0, 10.0, 15.0))]
    preds = [boxed_pred()]
    assert recall_at_k(preds, gt, 1, "rel") == 0.0
    assert recall_at_k(preds, gt, 1, "phr") == 100.0


def test_rel_matches_at_exact_threshold():
    # shifted object box with IoU exactly 1/3; threshold comparison is >=
    gt = [boxed_gt(obj_box=(0.0, 5.0, 10.0, 15.0))]
    preds = [boxed_pred()]
    matched, _ = __import__("lsgg.metrics", fromlist=["_match_topk"])._match_topk(
        preds, gt, 1, "rel", iou_thr=1.0 / 3.0)
    assert matched[0] == {0: 0}  # GT 0, claimed by the rank-1 prediction


def test_rel_picks_highest_quality_gt():
    gt = [boxed_gt(gt_id=0, subj_box=(0.0, 0.0, 10.0, 11.0)),   # subj IoU 10/11
          boxed_gt(gt_id=1)]                                    # exact match
    preds = [boxed_pred()]
    matched, _ = __import__("lsgg.metrics", fromlist=["_match_topk"])._match_topk(
        preds, gt, 1, "rel")
    assert matched[0] == {1: 0}


def test_box_modes_reject_missing_boxes():
    gt = [boxed_gt()]
    bare = PredRecord(image_id=0, rank=1, subj=1, pred=2, obj=3, conf=0.5)
    with pytest.raises(ValueError, match="lacks boxes"):
        recall_at_k([bare], gt, 1, "rel")
    gt_bare = [GTRecord(image_id=0, gt_id=0, subj=1, pred=2, obj=3)]
    with pytest.raises(ValueError, match="lacks boxes"):
        recall_at_k([boxed_pred()], gt_bare, 1, "phr")


def test_ids_mode_needs_matching_instance_id():
    gt = [GTRecord(image_id=0, gt_id=5, subj=1, pred=2, obj=3)]
    hit = PredRecord(image_id=0, rank=1, subj=1, pred=2, obj=3, conf=0.9, gt_id=5)
    wrong_id = PredRecord(image_id=0, rank=1, subj=1, pred=2, obj=3, conf=0.9, gt_id=4)
    wrong_triple = PredRecord(image_id=0, rank=1, subj=0, pred=2, obj=3, conf=0.9, gt_id=5)
    missing = PredRecord(image_id=0, rank=1, subj=1, pred=2, obj=3, conf=0.9)
    assert recall_at_k([hit], gt, 1, "ids") == 100.0
    for p in (wrong_id, wrong_triple, missing):
        assert recall_at_k([p], gt, 1, "ids") == 0.0


# -- every K from one matching pass -------------------------------------------------


def add_random_boxes(rng, preds, gt):
    """Boxed copies of a random case: each prediction aimed at an existing
    GT gets that GT's boxes, nudged a little or a lot; the rest get random
    boxes."""
    def box():
        x, y = rng.uniform(0, 50), rng.uniform(0, 50)
        return (x, y, x + rng.uniform(5, 30), y + rng.uniform(5, 30))

    def nudge(b):
        d = rng.choice((0.0, 1.0, 8.0))
        return (b[0] + d, b[1], b[2] + d, b[3])

    boxed_gt = [replace(g, boxes=(box(), box())) for g in gt]
    by_id = {(g.image_id, g.gt_id): g.boxes for g in boxed_gt}
    boxed_preds = []
    for p in preds:
        target = by_id.get((p.image_id, p.gt_id))
        boxes = (box(), box()) if target is None else (nudge(target[0]), nudge(target[1]))
        boxed_preds.append(replace(p, boxes=boxes))
    return boxed_preds, boxed_gt


@pytest.mark.parametrize("mode", MATCH_MODES)
def test_recall_at_ks_equals_separate_calls(mode):
    # up to 10 predictions per image: K = 1, 2, 3 cut inside an image's list
    rng = random.Random(104 + MATCH_MODES.index(mode))
    ks = (1, 2, 3, 50, 100)
    for case in range(40):
        preds, gt = make_random_case(rng, mode, with_ids=(mode != "triplet"))
        if mode in ("rel", "phr"):
            preds, gt = add_random_boxes(rng, preds, gt)
        table = recall_at_ks(preds, gt, ks, mode)
        assert list(table) == list(ks)
        for k in ks:
            assert table[k] == (recall_at_k(preds, gt, k, mode),
                                mean_recall_at_k(preds, gt, k, mode)), (case, k)
            if mode in ("ids", "triplet"):
                assert table[k] == (oracle_recall(preds, gt, k, mode),
                                    oracle_mean_recall(preds, gt, k, mode)), (case, k)


# -- forgetting measure ------------------------------------------------------------


def test_forgetting_hand_cases():
    assert forgetting_measure([[0.6], [0.4, 0.7]]) == pytest.approx(0.2, abs=1e-15)
    assert forgetting_measure([[50.0], [50.0, 80.0], [50.0, 80.0, 10.0]]) == 0.0
    # backward transfer: final higher than history -> negative
    assert forgetting_measure([[0.4], [0.6, 0.5]]) == pytest.approx(-0.2, abs=1e-15)


def test_forgetting_uses_best_historical_accuracy():
    # task 1 peaked at stage 2 (0.9), finished at 0.3 -> gap 0.6
    m = [[0.5], [0.9, 0.7], [0.3, 0.6, 0.8]]
    expect = ((0.9 - 0.3) + (0.7 - 0.6)) / 2.0
    assert forgetting_measure(m) == pytest.approx(expect, abs=1e-15)


def test_forgetting_matches_direct_formula_on_random_matrices():
    rng = random.Random(104)
    for _ in range(50):
        t = rng.randint(2, 6)
        values = [[rng.uniform(0, 100) for _ in range(l + 1)] for l in range(t)]
        expect = sum(
            max(values[l][j] for l in range(j, t - 1)) - values[t - 1][j]
            for j in range(t - 1)
        ) / (t - 1)
        assert forgetting_measure(values) == expect


def test_forgetting_input_validation():
    with pytest.raises(ValueError):
        forgetting_measure([[1.0]])
    with pytest.raises(ValueError):
        forgetting_measure([[1.0], [1.0]])  # not lower-triangular
    with pytest.raises(ValueError):
        forgetting_measure([[1.0], [None, 1.0]])


def test_accuracy_matrix_write_once_and_bounds():
    m = AccuracyMatrix(3, metric="mR@50")
    assert not m.is_complete()
    m.set(0, 0, 60.0)
    with pytest.raises(ValueError, match="already"):
        m.set(0, 0, 61.0)
    with pytest.raises(ValueError):
        m.set(0, 1, 10.0)  # outside the triangle
    with pytest.raises(ValueError):
        m.set(3, 0, 10.0)
    with pytest.raises(ValueError):
        m.set(1, 0, 101.0)
    with pytest.raises(ValueError):
        m.get(1, 0)
    for l in range(1, 3):
        for j in range(l + 1):
            m.set(l, j, 10.0 * l + j)
    assert m.is_complete()
    assert m.get(2, 1) == 21.0
    assert forgetting_measure(m) == forgetting_measure(m.values)
    with pytest.raises(ValueError):
        AccuracyMatrix(0)


def test_metric_report_m_at_k_exactness():
    rep = MetricReport(stage=1, r={50: 54.1}, mr={50: 18.6},
                       m={50: m_at_k(54.1, 18.6)}, per_task={})
    rep.check_invariants()
    rep.m[50] += 1e-9
    with pytest.raises(AssertionError):
        rep.check_invariants()


# -- weighted mAP ------------------------------------------------------------------


def test_weighted_map_hand_case_two_classes():
    # class 0: npos 3, ranked TP FP TP -> AP 5/9; class 1: npos 1, FP then TP -> AP 1/2
    gt = [GTRecord(image_id=i, gt_id=0, subj=0, pred=0, obj=1) for i in (1, 2, 3)]
    gt.append(GTRecord(image_id=4, gt_id=0, subj=2, pred=1, obj=2))
    preds = [
        PredRecord(image_id=1, rank=1, subj=0, pred=0, obj=1, conf=0.9),
        PredRecord(image_id=2, rank=1, subj=5, pred=0, obj=1, conf=0.8),
        PredRecord(image_id=3, rank=1, subj=0, pred=0, obj=1, conf=0.7),
        PredRecord(image_id=4, rank=1, subj=9, pred=1, obj=9, conf=0.95),
        PredRecord(image_id=4, rank=2, subj=2, pred=1, obj=2, conf=0.5),
    ]
    expect = 100.0 * (Fraction(3, 4) * Fraction(5, 9) + Fraction(1, 4) * Fraction(1, 2))
    assert weighted_map(preds, gt, mode="triplet") == pytest.approx(float(expect), abs=1e-12)


def test_weighted_map_unpredicted_class_contributes_zero():
    gt = [GTRecord(image_id=0, gt_id=0, subj=0, pred=0, obj=0),
          GTRecord(image_id=0, gt_id=1, subj=1, pred=1, obj=1)]
    preds = [PredRecord(image_id=0, rank=1, subj=0, pred=0, obj=0, conf=0.9)]
    # class 0 AP = 1, weight 1/2; class 1 absent
    assert weighted_map(preds, gt, mode="triplet") == pytest.approx(50.0, abs=1e-12)


def oracle_weighted_map(preds, gt, mode):
    """Exact rational recomputation: streaming counter matching + envelope AP."""
    gt_remaining = {}
    gt_count = {}
    for g in gt:
        key = (g.image_id, block_key(mode, g))
        gt_remaining[key] = gt_remaining.get(key, 0) + 1
        gt_count[g.pred] = gt_count.get(g.pred, 0) + 1
    by_class = {}
    for p in preds:
        by_class.setdefault(p.pred, []).append(p)

    total_gt = sum(gt_count.values())
    out = Fraction(0)
    for c in sorted(gt_count):
        ranked = sorted(by_class.get(c, []), key=lambda p: (-p.conf, p.image_id, p.rank))
        remaining = dict(gt_remaining)
        flags = []
        for p in ranked:
            if mode == "ids" and p.gt_id is None:
                flags.append(False)
                continue
            key = (p.image_id, block_key(mode, p))
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                flags.append(True)
            else:
                flags.append(False)
        npos = gt_count[c]
        points = []
        tp = 0
        for i, flag in enumerate(flags, start=1):
            tp += int(flag)
            points.append((Fraction(tp, npos), Fraction(tp, i)))
        ap = Fraction(0)
        prev_r = Fraction(0)
        for i, (r, _) in enumerate(points):
            if r > prev_r:
                best = max(p for _, p in points[i:])
                ap += (r - prev_r) * best
                prev_r = r
        out += Fraction(npos, total_gt) * ap
    return 100.0 * float(out)


@pytest.mark.parametrize("mode", ["ids", "triplet"])
def test_weighted_map_matches_rational_oracle(mode):
    rng = random.Random(105 if mode == "ids" else 106)
    for case in range(50):
        preds, gt = make_random_case(rng, mode, with_ids=(mode == "ids"))
        got = weighted_map(preds, gt, mode=mode)
        expect = oracle_weighted_map(preds, gt, mode)
        assert got == pytest.approx(expect, abs=1e-9), case
        assert 0.0 <= got <= 100.0 + 1e-12
        assert type(got) is float  # numpy scalars corrupt repr-based dumps


def test_weighted_map_requires_gt_image():
    gt = [GTRecord(image_id=0, gt_id=0, subj=0, pred=0, obj=0)]
    stray = [PredRecord(image_id=3, rank=1, subj=0, pred=0, obj=0, conf=0.1)]
    with pytest.raises(ValueError, match="image 3"):
        weighted_map(stray, gt, mode="triplet")
    with pytest.raises(ValueError):
        weighted_map(stray, gt, mode="banana")


# -- dump files ---------------------------------------------------------------------


def test_prediction_dump_round_trip(tmp_path):
    records = [
        PredRecord(image_id=3, rank=1, subj=0, pred=7, obj=2, conf=0.1234567890123,
                   boxes=((0.0, 0.5, 3.25, 4.0), (1.0, 1.0, 2.0, 2.0)), gt_id=9),
        PredRecord(image_id=3, rank=2, subj=1, pred=2, obj=0, conf=1e-8),
    ]
    path = tmp_path / "preds.txt"
    save_predictions(records, path)
    back = load_predictions(path)
    assert back == records  # exact floats: repr round-trip


def test_gt_dump_round_trip(tmp_path):
    records = [
        GTRecord(image_id=0, gt_id=0, subj=1, pred=2, obj=3,
                 boxes=((0.0, 0.0, 1.0, 1.0), (0.5, 0.5, 2.0, 2.0))),
        GTRecord(image_id=1, gt_id=4, subj=5, pred=6, obj=7),
    ]
    path = tmp_path / "gt.txt"
    save_gt(records, path)
    assert load_gt(path) == records


def test_dump_loaders_skip_comments_and_reject_malformed(tmp_path):
    path = tmp_path / "preds.txt"
    path.write_text("# header\n\n0 1 2 3 4 0.5 -\n")
    assert len(load_predictions(path)) == 1
    path.write_text("0 1 2 3 4 0.5\n")  # 6 fields
    with pytest.raises(ValueError, match="line 1"):
        load_predictions(path)
    path.write_text("0 1 2 3 4 0.5 -\n0 x 2 3 4 0.5 -\n")
    with pytest.raises(ValueError, match="line 2"):
        load_predictions(path)
    path.write_text("0 0 2 3 4 0.5 -\n")  # rank < 1
    with pytest.raises(ValueError, match="rank"):
        load_predictions(path)

    gt_path = tmp_path / "gt.txt"
    gt_path.write_text("0 1 2 3\n")
    with pytest.raises(ValueError, match="line 1"):
        load_gt(gt_path)
    gt_path.write_text("0 1 2 3 4 5 6\n")  # 7 fields is in neither format
    with pytest.raises(ValueError):
        load_gt(gt_path)
