"""Task schedules, synthetic data generation, and the embedding file format."""

import numpy as np
import pytest

from lsgg.datastream import (EmbeddingFormatError, RelationInstance, StageDataset,
                             SynthConfig, TaskSchedule, load_embeddings,
                             make_stage_datasets, predicate_counts, save_embeddings,
                             split_by_frequency, split_random, synth_generate, zipf_counts)
from lsgg.rng import SeededRng

from conftest import random_instance


# -- schedules ---------------------------------------------------------------


def check_partition(schedule: TaskSchedule, vocab):
    seen = []
    for stage in schedule.stages:
        assert stage  # non-empty
        seen.extend(stage)
    assert sorted(seen) == sorted(vocab)
    assert len(seen) == len(set(seen))  # disjoint


def test_split_random_sizes_and_determinism():
    vocab = list(range(50))
    s1 = split_random(vocab, 5, SeededRng(0))
    s2 = split_random(vocab, 5, SeededRng(0))
    s3 = split_random(vocab, 5, SeededRng(1))
    check_partition(s1, vocab)
    assert all(len(st) == 10 for st in s1.stages)
    assert s1.stages == s2.stages
    assert s1.stages != s3.stages


def test_split_random_uneven_and_singletons():
    sched = split_random(list(range(7)), 3, SeededRng(2))
    check_partition(sched, range(7))
    sizes = sorted(len(st) for st in sched.stages)
    assert max(sizes) - min(sizes) <= 1
    singles = split_random([4, 9, 2], 3, SeededRng(3))
    assert sorted(len(st) for st in singles.stages) == [1, 1, 1]
    with pytest.raises(ValueError):
        split_random([1, 2], 3, SeededRng(0))


def test_split_by_frequency_head_to_tail():
    counts = {0: 100, 1: 50, 2: 10, 3: 5}
    sched = split_by_frequency([0, 1, 2, 3], counts, 2)
    assert [sorted(st) for st in sched.stages] == [[0, 1], [2, 3]]
    # ties fall back to label id order
    equal = split_by_frequency([3, 1, 0, 2], {i: 7 for i in range(4)}, 2)
    assert [sorted(st) for st in equal.stages] == [[0, 1], [2, 3]]
    with pytest.raises(ValueError):
        split_by_frequency([0, 1], {0: 3}, 2)


def test_predicate_counts_keeps_label_order_and_zeros():
    rng = SeededRng(4)
    dataset = [random_instance(rng, predicate=p) for p in (2, 0, 2, 2, 0)]
    counts = predicate_counts(dataset, [3, 2, 1, 0])
    assert list(counts.items()) == [(3, 0), (2, 3), (1, 0), (0, 2)]
    with pytest.raises(KeyError):
        predicate_counts(dataset, [0, 1])


def test_split_by_frequency_on_zipf_counts_orders_stage_mass():
    counts = dict(enumerate(zipf_counts(50, 0.8, 10_000)))
    sched = split_by_frequency(list(range(50)), counts, 5)
    check_partition(sched, range(50))
    mass = [sum(counts[c] for c in stage) for stage in sched.stages]
    assert mass[0] >= mass[-1]
    assert mass == sorted(mass, reverse=True)


def test_schedule_rejects_overlap_and_gaps():
    with pytest.raises(ValueError):
        TaskSchedule([(0, 1), (1, 2)])
    sched = TaskSchedule([(0, 1), (2,)])
    assert sched.arrived_labels(0) == [0, 1]
    assert sched.arrived_labels(1) == [0, 1, 2]


# -- stage datasets ----------------------------------------------------------


def make_dataset(n, n_pred, rng, pairs_per_image=4):
    return [
        random_instance(rng, predicate=rng.randint(n_pred), image_id=i // pairs_per_image)
        for i in range(n)
    ]


def test_make_stage_datasets_routes_by_predicate():
    rng = SeededRng(4)
    data = make_dataset(300, 6, rng)
    sched = TaskSchedule([(0, 1), (2, 3), (4, 5)])
    stages = make_stage_datasets(data, sched, (0.7, 0.1, 0.2))
    assert len(stages) == 3
    for stage, labels in zip(stages, sched.stages):
        for split in (stage.train, stage.val, stage.test):
            for inst in split:
                assert inst.predicate in labels
    total = sum(len(s.train) + len(s.val) + len(s.test) for s in stages)
    assert total == 300


def test_make_stage_datasets_split_sizes_near_fractions():
    rng = SeededRng(5)
    data = make_dataset(10_000, 4, rng)
    sched = TaskSchedule([(0, 1), (2, 3)])
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
    sched = TaskSchedule([(0, 1), (2, 3)])
    stages_a = make_stage_datasets(data, sched)
    images = sorted({inst.image_id for inst in data})
    order = SeededRng(7).permutation(len(images))
    reordered = []
    for pos in order:
        img = images[pos]
        reordered.extend(inst for inst in data if inst.image_id == img)
    stages_b = make_stage_datasets(reordered, sched)
    for sa, sb in zip(stages_a, stages_b):
        for split_a, split_b in ((sa.train, sb.train), (sa.val, sb.val), (sa.test, sb.test)):
            assert sorted(id(x) for x in split_a) == sorted(id(x) for x in split_b)


def test_make_stage_datasets_rejects_unscheduled_predicate():
    rng = SeededRng(8)
    data = [random_instance(rng, predicate=5)]
    with pytest.raises(ValueError):
        make_stage_datasets(data, TaskSchedule([(0,), (1,)]))
    with pytest.raises(ValueError):
        make_stage_datasets(data, TaskSchedule([(5,)]), (0.5, 0.5))  # fractions must be 3
    with pytest.raises(ValueError):
        make_stage_datasets(data, TaskSchedule([(5,)]), (0.7, 0.1, 0.1))  # must sum to 1


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
    per_class = [0] * 10
    for inst in data:
        per_class[inst.predicate] += 1
        assert inst.f_c.shape == (8,)
        assert inst.f_r.shape == (8,)
        assert inst.f_s.shape == (4,)
        assert inst.f_o.shape == (4,)
        assert 0 <= inst.subject_class < 6
        assert 0 <= inst.object_class < 6
    assert per_class == zipf_counts(10, 0.8, 500)
    # image ids: consecutive blocks of pairs_per_image
    ids = [inst.image_id for inst in data]
    assert ids == sorted(ids)
    assert max(ids) == (500 - 1) // 4
    for img in set(ids):
        assert ids.count(img) <= 4


def test_synth_generate_deterministic_and_seed_sensitive():
    cfg = SynthConfig(n_pred=5, n_groups=2, n_obj=4, d_c=6, d_r=6, d_o=4,
                      total_n=120)
    a, _ = synth_generate(cfg, SeededRng(1))
    b, _ = synth_generate(cfg, SeededRng(1))
    c, _ = synth_generate(cfg, SeededRng(2))
    assert len(a) == len(b) == len(c)
    for x, y in zip(a, b):
        assert np.array_equal(x.f_c, y.f_c) and np.array_equal(x.f_r, y.f_r)
        assert (x.subject_class, x.object_class, x.predicate, x.image_id) == (
            y.subject_class, y.object_class, y.predicate, y.image_id)
    assert any(not np.array_equal(x.f_r, z.f_r) for x, z in zip(a, c))


def test_synth_sigma_zero_gives_separable_clusters():
    cfg = SynthConfig(n_pred=6, n_groups=2, n_obj=4, d_c=8, d_r=8, d_o=4,
                      sigma=0.0, total_n=120)
    data, _ = synth_generate(cfg, SeededRng(3))
    # with sigma 0 every f_r equals its class mean: grouping by predicate
    # yields exactly one distinct vector per class, distinct across classes
    means = {}
    for inst in data:
        key = inst.predicate
        if key in means:
            assert np.array_equal(means[key], inst.f_r)
        else:
            means[key] = inst.f_r
    vecs = list(means.values())
    for i in range(len(vecs)):
        assert float(np.linalg.norm(vecs[i])) == pytest.approx(1.0, abs=1e-12)
        for j in range(i + 1, len(vecs)):
            assert not np.array_equal(vecs[i], vecs[j])


def test_synth_context_features_carry_group_identity():
    cfg = SynthConfig(n_pred=10, n_groups=2, n_obj=4, d_c=16, d_r=8, d_o=4,
                      sigma=0.2, total_n=600)
    data, groups = synth_generate(cfg, SeededRng(4))
    # per-group mean of f_c should be far closer to its own group's centroid
    by_group = {0: [], 1: []}
    for inst in data:
        by_group[groups[inst.predicate]].append(inst.f_c)
    cent = {g: np.mean(np.stack(v), axis=0) for g, v in by_group.items()}
    for g, vecs in by_group.items():
        other = cent[1 - g]
        own = cent[g]
        closer = sum(
            1 for v in vecs
            if float(np.linalg.norm(v - own)) < float(np.linalg.norm(v - other))
        )
        assert closer / len(vecs) > 0.9


def test_synth_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_pred=0).validate()
    with pytest.raises(ValueError):
        SynthConfig(sigma=-0.1).validate()
    with pytest.raises(ValueError):
        SynthConfig(d_c=1).validate()


# -- embedding file format ---------------------------------------------------


def test_embeddings_round_trip_bit_exact(tmp_path):
    cfg = SynthConfig(n_pred=6, n_groups=2, n_obj=5, d_c=7, d_r=6, d_o=4,
                      total_n=100)
    data, _ = synth_generate(cfg, SeededRng(5))
    data[0].boxes = ((1.0, 2.0, 3.5, 4.25), (0.5, 0.5, 2.0, 2.0))
    data[0].confidence = 0.625
    path = tmp_path / "emb.txt"
    save_embeddings(data, path)
    back = load_embeddings(path)
    assert len(back) == len(data)
    for x, y in zip(data, back):
        assert x.image_id == y.image_id
        assert (x.subject_class, x.object_class, x.predicate) == (
            y.subject_class, y.object_class, y.predicate)
        for f in ("f_c", "f_r", "f_s", "f_o"):
            assert np.array_equal(getattr(x, f), getattr(y, f))
        assert x.boxes == y.boxes
        assert x.confidence == y.confidence


def test_embeddings_empty_round_trip(tmp_path):
    path = tmp_path / "empty.txt"
    save_embeddings([], path)
    assert load_embeddings(path) == []


def test_embeddings_reject_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("NOT-A-HEADER 1 2 3 4 5 6\n")
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(path)

    rng = SeededRng(6)
    good = random_instance(rng, d_c=3, d_r=2, d_o=2, predicate=0)
    save_embeddings([good], path)
    lines = path.read_text().splitlines()
    # drop one float from the record: dimension mismatch at line 2
    lines[1] = " ".join(lines[1].split()[:-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(path)
    assert "line 2" in str(err.value)


def test_embeddings_reject_nonfinite(tmp_path):
    rng = SeededRng(7)
    inst = random_instance(rng, d_c=3, d_r=2, d_o=2)
    path = tmp_path / "nan.txt"
    save_embeddings([inst], path)
    text = path.read_text()
    token = repr(float(inst.f_c[0]))
    path.write_text(text.replace(token, "nan", 1))
    with pytest.raises(EmbeddingFormatError) as err:
        load_embeddings(path)
    assert "line 2" in str(err.value)


def test_embeddings_comments_and_blank_lines(tmp_path):
    rng = SeededRng(8)
    inst = random_instance(rng, d_c=3, d_r=2, d_o=2)
    path = tmp_path / "comments.txt"
    save_embeddings([inst], path)
    lines = path.read_text().splitlines()
    lines.insert(1, "# a comment")
    lines.insert(2, "")
    path.write_text("\n".join(lines) + "\n")
    assert len(load_embeddings(path)) == 1


def test_instance_validation():
    rng = SeededRng(9)
    inst = random_instance(rng)
    inst.validate()
    bad = random_instance(rng)
    bad.f_r = np.array([np.nan] * 5)
    with pytest.raises(ValueError):
        bad.validate()
    boxed = random_instance(rng, boxes=((0.0, 0.0, 1.0, 1.0), (2.0, 2.0, 1.0, 3.0)))
    with pytest.raises(ValueError):
        boxed.validate()


def test_stage_dataset_shape():
    ds = StageDataset(train=[1], val=[], test=[2])
    assert ds.train == [1] and ds.test == [2]
