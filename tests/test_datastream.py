"""Task schedules, synthetic data generation, stage splits, and the embedding
file format; the column table against its per-instance oracles."""

import numpy as np
import pytest

from lsgg.datastream import (EmbeddingFormatError, Rows, StageDataset, SynthConfig,
                             load_embeddings, make_schedule, make_stage_datasets,
                             relation_table, save_embeddings, split_by_frequency,
                             split_random, synth_generate, zipf_counts)
from lsgg.rng import SeededRng

from conftest import random_instance
from oracles import (build_gt_ids, make_stage_datasets_records, records_of,
                     synth_generate_records, table_of)


# -- schedules ---------------------------------------------------------------


def check_partition(stage, n_pred, t):
    """Every predicate has exactly one stage in 0..t-1, and no stage is empty."""
    assert stage.dtype == np.int64 and stage.shape == (n_pred,)
    assert np.array_equal(np.unique(stage), np.arange(t))


def members(stage, t):
    """Each stage's predicates, ascending."""
    return [np.flatnonzero(stage == s).tolist() for s in range(t)]


def test_split_random_sizes_and_determinism():
    s1 = split_random(50, 5, SeededRng(0))
    s2 = split_random(50, 5, SeededRng(0))
    s3 = split_random(50, 5, SeededRng(1))
    check_partition(s1, 50, 5)
    assert np.bincount(s1).tolist() == [10] * 5
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, s3)
    # the stages are consecutive runs of the rng's shuffle of 0..n_pred-1
    order = SeededRng(0).permutation(50)
    assert members(s1, 5) == [sorted(order[10 * i : 10 * (i + 1)]) for i in range(5)]


def test_split_random_uneven_and_singletons():
    sched = split_random(7, 3, SeededRng(2))
    check_partition(sched, 7, 3)
    sizes = np.bincount(sched)
    assert sizes.max() - sizes.min() <= 1
    singles = split_random(3, 3, SeededRng(3))
    check_partition(singles, 3, 3)
    for n_pred, t in ((2, 3), (4, 0)):
        with pytest.raises(ValueError, match="cannot split"):
            split_random(n_pred, t, SeededRng(0))


def test_split_by_frequency_head_to_tail():
    assert members(split_by_frequency([100, 50, 10, 5], 2), 2) == [[0, 1], [2, 3]]
    assert members(split_by_frequency([5, 100, 10, 50], 2), 2) == [[1, 3], [0, 2]]
    # ties fall back to label id order
    assert members(split_by_frequency([7, 7, 7, 7], 2), 2) == [[0, 1], [2, 3]]
    assert members(split_by_frequency([3, 9, 3, 9, 3], 3), 3) == [[1, 3], [0, 2], [4]]
    for counts, t in (([3], 2), ([3, 4], 0)):
        with pytest.raises(ValueError, match="cannot split"):
            split_by_frequency(counts, t)


def test_make_schedule_counts_every_predicate_and_refuses_one_outside():
    rng = SeededRng(4)
    dataset = table_of([random_instance(rng, predicate=p) for p in (2, 0, 2, 2, 0)])
    # counts 2, 0, 3, 0: a predicate with no instance counts 0 and goes last
    assert members(make_schedule(dataset, 4, 2, "frequency", None), 2) == [[0, 2], [1, 3]]
    assert np.array_equal(make_schedule(dataset, 4, 2, "random", SeededRng(5)),
                          split_random(4, 2, SeededRng(5)))
    for mode in ("frequency", "random"):
        with pytest.raises(ValueError, match="predicate 2 outside 0..1"):
            make_schedule(dataset, 2, 2, mode, SeededRng(5))


def test_split_by_frequency_on_zipf_counts_orders_stage_mass():
    counts = np.array(zipf_counts(50, 0.8, 10_000))
    sched = split_by_frequency(counts, 5)
    check_partition(sched, 50, 5)
    mass = np.bincount(sched, weights=counts).tolist()
    assert mass[0] >= mass[-1]
    assert mass == sorted(mass, reverse=True)


def test_schedules_give_each_predicate_one_stage():
    data = table_of(make_dataset(200, 9, SeededRng(9)))
    for mode in ("frequency", "random"):
        for t in (1, 2, 4, 9):
            sched = make_schedule(data, 9, t, mode, SeededRng(t))
            check_partition(sched, 9, t)
            sizes = np.bincount(sched)
            assert sizes.max() - sizes.min() <= 1


# -- stage datasets ----------------------------------------------------------


def make_dataset(n, n_pred, rng, pairs_per_image=4):
    return [
        random_instance(rng, predicate=rng.randint(n_pred), image_id=i // pairs_per_image)
        for i in range(n)
    ]


def test_make_stage_datasets_routes_by_predicate():
    rng = SeededRng(4)
    data = table_of(make_dataset(300, 6, rng))
    sched = np.array([0, 0, 1, 1, 2, 2])
    stages = make_stage_datasets(data, sched, (0.7, 0.1, 0.2))
    assert len(stages) == 3
    for stage, labels in zip(stages, members(sched, 3)):
        for split in (stage.train, stage.val, stage.test):
            assert set(split.take().pred.tolist()) <= set(labels)
    total = sum(len(s.train) + len(s.val) + len(s.test) for s in stages)
    assert total == 300


def test_make_stage_datasets_split_sizes_near_fractions():
    rng = SeededRng(5)
    data = table_of(make_dataset(10_000, 4, rng))
    sched = np.array([0, 0, 1, 1])
    stages = make_stage_datasets(data, sched, (0.7, 0.1, 0.2))
    for stage in stages:
        n = len(stage.train) + len(stage.val) + len(stage.test)
        # boundaries are rounded cut points, so each split is within 1 of exact
        assert abs(len(stage.train) - 0.7 * n) <= 1
        assert abs(len(stage.val) - 0.1 * n) <= 1
        assert abs(len(stage.test) - 0.2 * n) <= 1


def test_make_stage_datasets_stable_under_image_reordering():
    # the split hash keys on (image_id, within-image occurrence), so any
    # reordering that keeps each image's instances in relative order routes
    # every instance identically
    rng = SeededRng(6)
    data = make_dataset(400, 4, rng)
    sched = np.array([0, 0, 1, 1])
    stages_a = make_stage_datasets(table_of(data), sched)
    images = sorted({inst.image_id for inst in data})
    order = SeededRng(7).permutation(len(images))
    origin = []  # row of the reordered table -> row of the original
    for pos in order:
        origin.extend(i for i, inst in enumerate(data) if inst.image_id == images[pos])
    stages_b = make_stage_datasets(table_of([data[i] for i in origin]), sched)
    origin = np.array(origin)
    for sa, sb in zip(stages_a, stages_b):
        for split_a, split_b in ((sa.train, sb.train), (sa.val, sb.val), (sa.test, sb.test)):
            assert sorted(split_a.index.tolist()) == sorted(origin[split_b.index].tolist())


def test_make_stage_datasets_rejects_unscheduled_predicate():
    rng = SeededRng(8)
    data = table_of([random_instance(rng, predicate=5)])
    with pytest.raises(ValueError, match="outside the schedule"):
        make_stage_datasets(data, np.array([0, 1]))
    # a negative predicate would gather from the schedule's end
    negative = table_of([random_instance(rng, predicate=-1)])
    with pytest.raises(ValueError, match="outside the schedule"):
        make_stage_datasets(negative, np.zeros(6, dtype=np.int64))
    with pytest.raises(ValueError):
        make_stage_datasets(data, np.zeros(6, dtype=np.int64), (0.5, 0.5))  # fractions must be 3
    with pytest.raises(ValueError):
        make_stage_datasets(data, np.zeros(6, dtype=np.int64), (0.7, 0.1, 0.1))  # must sum to 1


# -- zipf counts ---------------------------------------------------------------


def test_zipf_counts_sum_and_monotone():
    counts = zipf_counts(50, 0.8, 10_000)
    assert sum(counts) == 10_000
    assert counts == sorted(counts, reverse=True)
    assert all(c >= 0 for c in counts)


def test_zipf_counts_flat_when_s_zero():
    counts = zipf_counts(7, 0.0, 100)
    assert sum(counts) == 100
    assert max(counts) - min(counts) <= 1


def test_zipf_counts_largest_remainder_hand_case():
    # weights 1, 1/2, 1/4 -> shares 4/7, 2/7, 1/7 of 7 = exactly 4, 2, 1
    assert zipf_counts(3, 1.0, 7) == [4, 2, 1]


# -- synthetic generator --------------------------------------------------------


def test_synth_generate_counts_groups_and_images():
    cfg = SynthConfig(n_pred=10, n_groups=3, n_obj=6, d_c=8, d_r=8, d_o=4,
                      sigma=0.3, zipf_s=0.8, total_n=500, pairs_per_image=4)
    data, groups = synth_generate(cfg, SeededRng(0))
    assert len(data) == 500
    assert groups == [c % 3 for c in range(10)]
    assert {kind: f.shape for kind, f in data.feats.items()} == {
        "c": (500, 8), "r": (500, 8), "s": (500, 4), "o": (500, 4)}
    assert all(f.dtype == np.float64 for f in data.feats.values())
    assert 0 <= data.subj.min() and data.subj.max() < 6
    assert 0 <= data.obj.min() and data.obj.max() < 6
    assert np.bincount(data.pred, minlength=10).tolist() == zipf_counts(10, 0.8, 500)
    assert np.isnan(data.conf).all() and data.boxes is None
    # image ids: consecutive blocks of pairs_per_image, gt ids count within them
    assert data.image.tolist() == [i // 4 for i in range(500)]
    assert data.gt_id.tolist() == [i % 4 for i in range(500)]


def test_synth_generate_deterministic_and_seed_sensitive():
    cfg = SynthConfig(n_pred=5, n_groups=2, n_obj=4, d_c=6, d_r=6, d_o=4,
                      total_n=120)
    a, _ = synth_generate(cfg, SeededRng(1))
    b, _ = synth_generate(cfg, SeededRng(1))
    c, _ = synth_generate(cfg, SeededRng(2))
    assert len(a) == len(b) == len(c)
    for name in ("image", "gt_id", "subj", "obj", "pred"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for kind in a.feats:
        assert np.array_equal(a.feats[kind], b.feats[kind]), kind
    assert not np.array_equal(a.feats["r"], c.feats["r"])


def test_synth_sigma_zero_gives_separable_clusters():
    cfg = SynthConfig(n_pred=6, n_groups=2, n_obj=4, d_c=8, d_r=8, d_o=4,
                      sigma=0.0, total_n=120)
    data, _ = synth_generate(cfg, SeededRng(3))
    # with sigma 0 every f_r equals its class mean: grouping by predicate
    # yields exactly one distinct vector per class, distinct across classes
    vecs = []
    for c in np.unique(data.pred):
        rows = data.feats["r"][data.pred == c]
        assert (rows == rows[0]).all()
        assert float(np.linalg.norm(rows[0])) == pytest.approx(1.0, abs=1e-12)
        vecs.append(rows[0])
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            assert not np.array_equal(vecs[i], vecs[j])


def test_synth_context_features_carry_group_identity():
    cfg = SynthConfig(n_pred=10, n_groups=2, n_obj=4, d_c=16, d_r=8, d_o=4,
                      sigma=0.2, total_n=600)
    data, groups = synth_generate(cfg, SeededRng(4))
    # per-group mean of f_c should be far closer to its own group's centroid
    group = np.array(groups)[data.pred]
    f_c = data.feats["c"]
    cent = {g: f_c[group == g].mean(axis=0) for g in (0, 1)}
    for g in (0, 1):
        vecs = f_c[group == g]
        own = np.linalg.norm(vecs - cent[g], axis=1)
        other = np.linalg.norm(vecs - cent[1 - g], axis=1)
        assert np.mean(own < other) > 0.9


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_pred=0).validate()
    with pytest.raises(ValueError):
        SynthConfig(sigma=-0.1).validate()
    with pytest.raises(ValueError):
        SynthConfig(d_c=1).validate()


# -- embedding file format ---------------------------------------------------


def columns_equal(a, b) -> bool:
    """Two tables with equal columns, NaN equal to NaN."""
    if (a.boxes is None) != (b.boxes is None) or a.feats.keys() != b.feats.keys():
        return False
    return (all(np.array_equal(getattr(a, n), getattr(b, n))
                for n in ("image", "gt_id", "subj", "obj", "pred"))
            and all(np.array_equal(f, b.feats[kind]) for kind, f in a.feats.items())
            and np.array_equal(a.conf, b.conf, equal_nan=True)
            and (a.boxes is None or np.array_equal(a.boxes, b.boxes, equal_nan=True)))


def test_embeddings_round_trip_bit_exact(tmp_path):
    cfg = SynthConfig(n_pred=6, n_groups=2, n_obj=5, d_c=7, d_r=6, d_o=4,
                      total_n=100)
    data, _ = synth_generate(cfg, SeededRng(5))
    data.boxes = np.full((100, 8), np.nan)
    data.boxes[0] = (1.0, 2.0, 3.5, 4.25, 0.5, 0.5, 2.0, 2.0)
    data.conf[0] = 0.625
    path = tmp_path / "emb.txt"
    save_embeddings(data, path)
    back, n_obj, n_pred = load_embeddings(path)
    assert (n_obj, n_pred) == (5, 6)
    assert len(back) == len(data)
    assert columns_equal(back, data)
    save_embeddings(back, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_embeddings_empty_round_trip(tmp_path):
    # an empty table keeps its feature widths through the file
    cfg = SynthConfig(n_pred=6, n_groups=2, n_obj=5, d_c=7, d_r=6, d_o=4, total_n=20)
    empty = synth_generate(cfg, SeededRng(5))[0].take(slice(0, 0))
    path = tmp_path / "empty.txt"
    save_embeddings(empty, path)
    assert path.read_text().splitlines()[0] == "LSGG-EMB 2 1 1"
    back, n_obj, n_pred = load_embeddings(path)
    assert len(back) == 0 and columns_equal(back, empty) and (n_obj, n_pred) == (1, 1)
    assert {kind: f.shape for kind, f in back.feats.items()} == {
        "c": (0, 7), "r": (0, 6), "s": (0, 4), "o": (0, 4)}


def small_table(n=3, seed=6):
    """An n-row table of 3-class ids and feature widths 3, 2, 2, 2."""
    cfg = SynthConfig(n_pred=3, n_groups=1, n_obj=3, d_c=3, d_r=2, d_o=2, total_n=n)
    return synth_generate(cfg, SeededRng(seed))[0]


def refused(table, path, match, **counts):
    """Save ``table`` and require the loader to refuse it, message matching."""
    save_embeddings(table, path, **counts)
    with pytest.raises(EmbeddingFormatError, match=match):
        load_embeddings(path)


def test_embeddings_reject_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    for header in ("NOT-A-HEADER 2 3 3", "LSGG-EMB 2 3", "LSGG-EMB 2 3 3 3", "LSGG-EMB 2 x 3"):
        path.write_text(f"{header}\n")
        with pytest.raises(EmbeddingFormatError, match="line 1: bad header"):
            load_embeddings(path)
    # version 1's per-token text records are not read
    path.write_text("LSGG-EMB 1 1 1 1 2 2\n0 0 1 1 0 - 0.1 0.2 0.3 0.4\n")
    with pytest.raises(EmbeddingFormatError, match="line 1: LSGG-EMB version 1 is not read"):
        load_embeddings(path)

    # shapes that do not give one row per instance
    for column in ("image", "pred", "conf"):
        table = small_table()
        setattr(table, column, getattr(table, column)[:-1])
        refused(table, path, rf"one row per instance: .*{column} \(2,\)", n_obj=3, n_pred=3)
    table = small_table()
    table.feats["r"] = table.feats["r"][:-1]
    refused(table, path, r"one row per instance: .*f\.r \(2, 2\)", n_obj=3, n_pred=3)
    table = small_table()
    table.boxes = np.full((3, 4), np.nan)
    refused(table, path, r"one row per instance: .*boxes \(3, 4\)", n_obj=3, n_pred=3)

    # a missing record, named
    save_embeddings(small_table(), path)
    lines = path.read_text().splitlines()
    for name in ("image", "conf", "f.o"):
        path.write_text("\n".join(ln for ln in lines if not ln.startswith(f"array {name} ")))
        with pytest.raises(EmbeddingFormatError, match=f"no array record '{name}'"):
            load_embeddings(path)


def test_embeddings_reject_header_dimensions_below_one(tmp_path):
    # zero classes admit no record, and a zero width would load records with
    # empty features
    path = tmp_path / "dims.txt"
    for header in ("LSGG-EMB 2 0 3", "LSGG-EMB 2 3 0", "LSGG-EMB 2 3 -1",
                   f"LSGG-EMB 2 3 {2**64}"):
        path.write_text(f"# comment\n{header}\n")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_embeddings(path)
    for kind in ("c", "s"):
        table = small_table()
        table.feats[kind] = table.feats[kind][:, :0]
        refused(table, path, rf"widths must be >= 1.*f\.{kind} 0", n_obj=3, n_pred=3)
    # the object widths must agree
    table = small_table()
    table.feats["o"] = np.ones((3, 3))
    refused(table, path, r"f\.s's equal f\.o's.*f\.s 2, f\.o 3", n_obj=3, n_pred=3)


def test_embeddings_reject_ids_at_2_53(tmp_path):
    # an array record holds integers exactly below 2**53 in magnitude, so
    # the loader refuses any other id rather than round it
    path = tmp_path / "ids.txt"
    table = small_table(n=2)
    for image_id in (2**53, -(2**53), 1e30, 0.5, np.nan):
        image = np.array([0, image_id], dtype=np.float64)
        refused(relation_table(image, table.subj, table.obj, table.pred, table.feats,
                               table.conf), path, "image: .*below 2\\*\\*53", n_obj=3, n_pred=3)
    for image_id in (2**53 - 1, -(2**53 - 1)):
        image = np.array([image_id, 0], dtype=np.int64)
        save_embeddings(relation_table(image, table.subj, table.obj, table.pred, table.feats,
                                       table.conf), path, n_obj=3, n_pred=3)
        assert load_embeddings(path)[0].image.tolist() == [image_id, 0]


def test_embeddings_reject_nonfinite(tmp_path):
    path = tmp_path / "nan.txt"
    for kind, value in (("c", np.nan), ("r", np.inf), ("o", -np.inf)):
        table = small_table()
        table.feats[kind][1, 0] = value
        refused(table, path, rf"row 1: non-finite value in f\.{kind}", n_obj=3, n_pred=3)


def test_embeddings_comments_and_blank_lines(tmp_path):
    rng = SeededRng(8)
    inst = random_instance(rng, d_c=3, d_r=2, d_o=2)
    path = tmp_path / "comments.txt"
    save_embeddings(table_of([inst]), path)
    lines = path.read_text().splitlines()
    lines.insert(1, "# a comment")
    lines.insert(2, "")
    path.write_text("\n".join(lines) + "\n")
    assert len(load_embeddings(path)[0]) == 1


def test_instance_validation(tmp_path):
    # the loader refuses a class outside the header's counts, a degenerate
    # box, a box row neither finite nor all NaN, or a confidence outside
    # [0, 1], naming the first bad row
    rng = SeededRng(9)
    path = tmp_path / "inst.txt"
    good = random_instance(rng, boxes=((0.0, 0.0, 1.0, 1.0), (2.0, 2.0, 3.0, 3.0)))
    good.confidence = 1.0
    save_embeddings(table_of([good]), path)
    assert len(load_embeddings(path)[0]) == 1
    for boxes, conf, match in (
            (((0.0, 0.0, 1.0, 1.0), (2.0, 2.0, 1.0, 3.0)), None, "degenerate box"),
            (((0.0, 1.0, 1.0, 1.0), (2.0, 2.0, 3.0, 3.0)), None, "degenerate box"),
            (None, 1.5, "confidence outside"), (None, -0.25, "confidence outside"),
            (None, np.inf, "confidence outside")):
        bad = random_instance(rng, boxes=boxes)
        bad.confidence = conf
        refused(table_of([good, bad]), path, f"row 1: {match}")
    for cell, value in ((2, np.nan), (0, np.nan), (7, np.inf)):
        table = table_of([good, good])
        table.boxes[1, cell] = value
        refused(table, path, "row 1: box row neither finite nor all NaN")
    for column, value, match in (("subj", 5, "object class outside 0..4"),
                                 ("obj", -1, "object class outside 0..4"),
                                 ("pred", 2, "predicate outside 0..1")):
        table = table_of([good, good, good])
        getattr(table, column)[1:] = value
        refused(table, path, f"row 1: {match}", n_obj=5, n_pred=2)


def test_stage_dataset_shape():
    # every split is Rows of the one table, and the splits partition its rows
    data = table_of(make_dataset(60, 4, SeededRng(10)))
    stages = make_stage_datasets(data, np.array([0, 0, 1, 1]))
    rows = []
    for stage in stages:
        assert isinstance(stage, StageDataset)
        for split in (stage.train, stage.val, stage.test):
            assert isinstance(split, Rows) and split.data is data
            assert split.index.dtype == np.int64
            rows.extend(split.index.tolist())
    assert sorted(rows) == list(range(60))


# -- the column table against the per-instance oracles ------------------------------


def assert_splits_equal_oracle(table, records, schedule):
    """``make_stage_datasets`` on the table picks, split by split and in
    order, the rows the per-instance oracle picks; the table's GT ids are
    the oracle's."""
    gt_ids = build_gt_ids(records)
    assert np.array_equal(table.gt_id, [gt_ids[id(r)] for r in records])
    row_of = {id(r): i for i, r in enumerate(records)}
    got = make_stage_datasets(table, schedule)
    want = make_stage_datasets_records(records, schedule)
    assert len(got) == len(want)
    for stage, splits in zip(got, want):
        for split, insts in zip((stage.train, stage.val, stage.test), splits):
            assert np.array_equal(split.index, [row_of[id(r)] for r in insts])


@pytest.mark.parametrize("total_n", [2_000, 20_000])
@pytest.mark.parametrize("seed", [0, 3])
def test_synth_columns_and_splits_equal_per_instance_oracles(total_n, seed):
    cfg = SynthConfig(total_n=total_n)
    table, groups = synth_generate(cfg, SeededRng(seed).derive("data"))
    records, want_groups = synth_generate_records(cfg, SeededRng(seed).derive("data"))
    assert groups == want_groups
    assert columns_equal(table, table_of(records))
    schedule = make_schedule(table, cfg.n_pred, 5, "frequency", None)
    assert_splits_equal_oracle(table, records, schedule)
    assert_splits_equal_oracle(table, records, split_random(cfg.n_pred, 4, SeededRng(seed)))


@pytest.mark.parametrize("seed", range(6))
def test_loaded_columns_and_splits_equal_per_instance_oracles(tmp_path, seed):
    # negative image ids, images whose pairs fall in several stages, uneven
    # pairs per image, and an image's pairs spread over the file
    rng = SeededRng(100 + seed)
    n_pred = 2 + rng.randint(6)
    records = []
    for img in range(40 + rng.randint(40)):
        image_id = rng.randint(2**40) - 2**39 if img % 3 else -img
        for _ in range(1 + rng.randint(7)):
            records.append(random_instance(rng, d_c=3, d_r=2, d_o=2,
                                           predicate=rng.randint(n_pred), image_id=image_id))
    rng.shuffle(records)
    records[1].confidence = 0.5
    records[2].boxes = ((0.0, 0.0, 1.0, 2.0), (1.0, 1.0, 2.0, 2.0))
    path = tmp_path / "data.emb"
    save_embeddings(table_of(records), path)
    table = load_embeddings(path)[0]
    assert columns_equal(table, table_of(records))
    assert [r.image_id for r in records_of(table)] == [r.image_id for r in records]
    schedule = split_random(n_pred, 2 + rng.randint(n_pred - 1), rng)
    assert any(len({schedule[r.predicate] for r in records if r.image_id == img}) > 1
               for img in {r.image_id for r in records})
    assert_splits_equal_oracle(table, records, schedule)
