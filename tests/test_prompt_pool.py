"""Prompt pool: retrieval against brute-force oracles, admission routing and
reservoir statistics, and serialization."""

import copy
import math

import numpy as np
import pytest

from lsgg.ioutil import pack_floats
from lsgg.prompt_pool import (PoolFormatError, _relation_norm, _write_slot, deserialize_pool,
                              init_pool, retrieve_entries, serialize_pool)
from lsgg.rng import SeededRng
from lsgg.trainer import TrainConfig, _nearest_slots, _queries, _retrieve, _select

from conftest import array_line, nearest_exemplar, random_instance
from oracles import admit, append_exemplar, cosine, pools_equal, rewrite_relation, table_of

DEGENERATE_ROWS = (np.zeros(5), np.array([1.0, np.nan, 0, 0, 0]),
                   np.array([np.inf, 0, 0, 0, 0]))


def retrieve_topk(pool, f_c, k):
    """(entry, cosine) pairs of key retrieval's top k for one query."""
    top, sims, _, _ = retrieve_entries(pool.keys, np.asarray(f_c, dtype=float)[None], k)
    return [(int(i), float(sims[0, i])) for i in top[0]]


def is_stored(pool, entry, inst) -> bool:
    """Whether a filled slot of entry's store holds ``inst``'s label and features."""
    return any(pool.store_labels[entry, s] == inst.predicate
               and all(np.array_equal(f[entry, s], getattr(inst, f"f_{kind}"))
                       for kind, f in pool.store_feats.items())
               for s in range(pool.store_len[entry]))


# -- construction -------------------------------------------------------------


def test_init_pool_shapes_and_seeding():
    pool = init_pool(n_t=10, n_p=8, d_tok=16, d_c=6, n_e=20, rng=SeededRng(0))
    assert pool.n_t == 10 and pool.n_p == 8 and pool.d_tok == 16
    assert pool.d_c == 6 and pool.n_e == 20
    assert pool.total_stored() == 0
    assert pool.prompts.shape == (10, 8, 16) and pool.keys.shape == (10, 6)
    for key in pool.keys:
        assert float(np.linalg.norm(key)) == pytest.approx(1.0, abs=1e-12)
    assert pool.store_feats == {}
    assert pool.store_labels.shape == (10, 20)
    assert pool.store_len.tolist() == [0] * 10 and pool.seen.tolist() == [0] * 10
    assert pools_equal(pool, init_pool(10, 8, 16, 6, 20, SeededRng(0)))
    assert not pools_equal(pool, init_pool(10, 8, 16, 6, 20, SeededRng(1)))
    pool.check_invariants()
    with pytest.raises(ValueError):
        init_pool(0, 8, 16, 6, 20, SeededRng(0))


def test_init_pool_capacity_arithmetic():
    pool = init_pool(100, 8, 8, 4, 20, SeededRng(1))
    assert pool.n_t * pool.n_e == 2000
    single = init_pool(1, 2, 4, 3, 5, SeededRng(2))
    assert single.n_t == 1 and single.store_len.tolist() == [0]


def test_init_prompt_token_scale():
    pool = init_pool(60, 8, 64, 4, 5, SeededRng(3))
    tokens = pool.prompts.ravel()
    assert abs(float(tokens.std()) - 1 / math.sqrt(64)) < 0.005


# -- retrieval ----------------------------------------------------------------


def test_retrieve_topk_hand_cases():
    pool = init_pool(3, 2, 4, 3, 5, SeededRng(4))
    pool.keys[:] = np.eye(3)
    got = retrieve_topk(pool, [0.0, 2.0, 0.0], 1)
    assert got == [(1, 1.0)]
    # identical keys tie toward lower indices
    pool.keys[:] = [1.0, 1.0, 0.0]
    got = retrieve_topk(pool, [2.0, 0.0, 0.0], 3)
    assert [i for i, _ in got] == [0, 1, 2]


def test_retrieve_topk_matches_brute_force_over_random_pools():
    rng = SeededRng(5)
    for trial in range(60):
        n_t = 2 + rng.randint(30)
        d_c = 2 + rng.randint(6)
        pool = init_pool(n_t, 2, 4, d_c, 5, rng.derive("pool", trial))
        if trial % 4 == 0:
            # one-hot duplicate keys: the dot product has a single nonzero
            # term, so the tie survives any BLAS reduction order
            onehot = np.zeros(d_c)
            onehot[0] = 1.0
            pool.keys[0] = pool.keys[-1] = onehot
        q = rng.normal(d_c)
        k = 1 + rng.randint(n_t)
        got = retrieve_topk(pool, q, k)
        sims = [cosine(q, key) for key in pool.keys]
        expect = sorted(range(n_t), key=lambda i: (-sims[i], i))[:k]
        assert [i for i, _ in got] == expect
        for i, s in got:
            assert s == pytest.approx(sims[i], abs=1e-12)
        assert [s for _, s in got] == sorted((s for _, s in got), reverse=True)


def test_retrieve_topk_rejects_bad_k_and_never_mutates():
    pool = init_pool(4, 2, 4, 3, 5, SeededRng(6))
    before = pool.keys.copy()
    query = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        retrieve_entries(pool.keys, query, 0)
    with pytest.raises(ValueError):
        retrieve_entries(pool.keys, query, 5)
    retrieve_entries(pool.keys, query, 4)
    assert np.array_equal(pool.keys, before)
    assert np.array_equal(query, [[1.0, 0.0, 0.0]])
    assert pool.total_stored() == 0


def stable_sort_top(sims, k):
    """The first k columns of the stable descending sort: the order retrieval
    promises, with exact ties (+0.0 against -0.0 among them) to the lower index."""
    return np.argsort(-sims, axis=1, kind="stable")[:, :k]


def test_retrieve_top_equals_stable_sort_over_batches():
    # retrieval takes its top k by argmax passes; each batch row must equal
    # the stable sort's first k columns for every k. A version that breaks
    # exact ties toward the higher index, or orders -0.0 apart from +0.0,
    # fails here: the rows hold tied one-hot keys on both sides of the k-th
    # place, and cosines of exactly +0.0 and -0.0.
    rng = SeededRng(30)
    n_t, d_c = 12, 4
    e0, e1, e2 = np.eye(d_c)[:3]
    tied = np.zeros((n_t, d_c))
    tied[:, 1:] = rng.normal((n_t, d_c - 1))  # orthogonal to e0
    tied[[1, 4, 9]], tied[[2, 7, 11]] = e0, -e0
    queries = rng.normal((6, d_c))
    queries[:, 0] = [3.0, 3.0, 3.0, -3.0, -3.0, 0.0]  # one group on top, the other last
    # nearly orthogonal keys: their cosine underflows to -0.0 or +0.0
    zeros = rng.normal((n_t, d_c))
    zeros[[0, 5, 6]], zeros[[1, 3, 10]] = e1, -e1
    zeros[[2, 11]] = e2
    tiny = np.array([[1e150, -1e-200, 0.0, 0.0], [1e150, 1e-200, 0.0, 0.0]])
    cases = ((tied, queries), (zeros, np.vstack([tiny, rng.normal((3, d_c))])))
    for keys, f_c in cases:
        sims = retrieve_entries(keys, f_c, 1)[1]
        assert np.isfinite(sims).all()
        for k in (1, 2, 3, n_t - 1, n_t):
            top, got_sims, _, _ = retrieve_entries(keys, f_c, k)
            assert np.array_equal(top, stable_sort_top(sims, k)), k
            assert np.array_equal(got_sims, sims), k  # the -inf sentinels stay in scratch
    top = retrieve_entries(tied, queries, n_t)[0]
    assert top[0, :3].tolist() == [1, 4, 9] and top[0, -3:].tolist() == [2, 7, 11]
    assert top[3, :3].tolist() == [2, 7, 11] and top[3, -3:].tolist() == [1, 4, 9]
    sims = retrieve_entries(zeros, tiny, 1)[1]
    assert (sims[:, [0, 1, 2, 3, 5, 6, 10, 11]] == 0.0).all()
    assert np.signbit(sims[0, [0, 5, 6]]).all() and not np.signbit(sims[0, [1, 3, 10]]).any()
    assert np.signbit(sims[1, [1, 3, 10]]).all() and not np.signbit(sims[1, [0, 5, 6]]).any()


OVERFLOWING_ROW = np.array([1e200, 1e200, 0.0])  # finite entries, infinite norm


def test_retrieve_rejects_overflowing_norms():
    # an overflowing norm would make every cosine of the row +-0 and route it
    # silently to entries 0 and 1; it raises instead
    pool = init_pool(4, 2, 4, 3, 5, SeededRng(31))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="query context feature is degenerate"):
            retrieve_entries(pool.keys, np.stack([np.ones(3), OVERFLOWING_ROW]), 2)
        keys = pool.keys.copy()
        keys[2] = OVERFLOWING_ROW
        with pytest.raises(ValueError, match="non-finite key"):
            retrieve_entries(keys, np.ones((1, 3)), 2)


def test_admit_rejects_an_overflowing_context_feature_before_counting():
    pool = init_pool(3, 1, 2, 3, 2, SeededRng(32))
    fill_pool(pool, SeededRng(33), 5)
    before = copy.deepcopy(pool)
    rng, twin = SeededRng(34), SeededRng(34)
    inst = random_instance(SeededRng(35), d_c=3)
    inst.f_c = OVERFLOWING_ROW
    with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                   match="query context feature is degenerate"):
        admit(pool, inst, rng)
    assert pools_equal(pool, before)  # seen counts included
    assert rng.next_u64() == twin.next_u64()


def test_retrieve_topk_k1_equals_head_of_full_ranking():
    rng = SeededRng(7)
    pool = init_pool(12, 2, 4, 5, 5, rng)
    for _ in range(20):
        q = rng.normal(5)
        assert retrieve_topk(pool, q, 1) == retrieve_topk(pool, q, 12)[:1]


def test_retrieve_exemplar_oracle_and_ties():
    rng = SeededRng(8)
    pool = init_pool(1, 2, 4, 6, 50, SeededRng(0))
    assert nearest_exemplar(pool, 0, [1.0, 0.0, 0.0, 0.0, 0.0]) is None

    for i in range(50):
        append_exemplar(pool, 0, random_instance(rng, predicate=i % 4))
    stored_r = pool.store_feats["r"][0]
    for _ in range(20):
        q = rng.normal(5)
        got = nearest_exemplar(pool, 0, q)
        sims = [cosine(q, f_r) for f_r in stored_r]
        best = max(range(len(sims)), key=lambda i: (sims[i], -i))
        assert got == best

    # exact tie: one-hot duplicate relation features (bitwise-equal cosine
    # under any reduction order); earliest insertion wins
    onehot = np.zeros(5)
    onehot[2] = 3.0
    rewrite_relation(pool, 0, 3, onehot)
    rewrite_relation(pool, 0, 7, onehot)
    q = np.zeros(5)
    q[2] = 1.0
    assert nearest_exemplar(pool, 0, q) == 3


def test_retrieve_exemplar_returns_stored_query():
    rng = SeededRng(9)
    pool = init_pool(1, 2, 4, 6, 6, SeededRng(0))
    target = random_instance(rng)
    others = [random_instance(rng) for _ in range(5)]
    for inst in others[:3] + [target] + others[3:]:
        append_exemplar(pool, 0, inst)
    assert nearest_exemplar(pool, 0, target.f_r) == 3


def test_retrieve_exemplar_rejects_degenerate_stores():
    # a degenerate relation row is refused at the write and leaves the store
    # as it was; the zero row of the unfilled slot 3 is never compared
    rng = SeededRng(27)
    for row in DEGENERATE_ROWS:
        pool = init_pool(1, 2, 4, 6, 4, SeededRng(0))
        for _ in range(3):
            append_exemplar(pool, 0, random_instance(rng))
        before = copy.deepcopy(pool)
        with pytest.raises(ValueError, match="degenerate"):
            rewrite_relation(pool, 0, 1, row)
        assert pools_equal(pool, before)
        assert nearest_exemplar(pool, 0, rng.normal(5)) in range(3)


def test_retrieve_exemplar_rejects_degenerate_queries():
    # a zero query f_r has no cosine: it raises rather than showing slot 0,
    # but only where it meets a filled store
    rng = SeededRng(28)
    pool = init_pool(2, 2, 4, 6, 4, SeededRng(0))
    for _ in range(3):
        append_exemplar(pool, 0, random_instance(rng))
    for row in DEGENERATE_ROWS:
        with pytest.raises(ValueError, match="query relation feature is degenerate"):
            nearest_exemplar(pool, 0, row)
        assert nearest_exemplar(pool, 1, row) is None
        # in a batch, the other items' stores decide nothing about it
        f_r = np.stack([rng.normal(5), row])
        assert _nearest_slots(f_r, np.array([[0], [1]]), pool).tolist() == [[
            nearest_exemplar(pool, 0, f_r[0])], [-1]]
        with pytest.raises(ValueError, match="degenerate"):
            _nearest_slots(f_r, np.array([[1], [0]]), pool)


def test_stored_norms_equal_gathered_rows_bit_for_bit():
    # the norm of one row written alone equals its norm among gathered rows,
    # which the axis-free np.linalg.norm(v), a BLAS dot, misses in the last
    # bit for some rows of every width here
    rng = SeededRng(29)
    for d in (5, 63, 64, 128, 200):
        pool = init_pool(100, 1, 2, 3, 20, SeededRng(0))
        rows = rng.normal((100, 20, d))
        for e in range(100):
            for s in range(20):
                _write_slot(pool, e, s, {"c": np.ones(3), "r": rows[e, s], "s": np.ones(1),
                                         "o": np.ones(1)}, 0, _relation_norm(rows[e, s]))
        pool.store_len[:] = pool.seen[:] = 20
        pool.check_invariants()
        gathered = np.linalg.norm(pool.store_feats["r"][np.arange(100), :20], axis=-1)
        assert np.array_equal(pool.store_rnorm, gathered), d
        dot_form = np.array([[np.linalg.norm(v) for v in block] for block in rows])
        assert not np.array_equal(dot_form, gathered), d


# -- admission ----------------------------------------------------------------


def test_admit_routes_to_nearest_key_and_fills():
    pool = init_pool(3, 2, 4, 3, 2, SeededRng(10))
    pool.keys[:] = np.eye(3)
    rng = SeededRng(11)
    inst = random_instance(rng, d_c=3)
    inst.f_c = np.array([0.1, 5.0, 0.2])
    got = admit(pool, inst, rng)
    assert got == 1
    assert pool.store_len.tolist() == [0, 1, 0] and pool.seen.tolist() == [0, 1, 0]
    assert is_stored(pool, 1, inst)


def test_admit_routes_to_the_entry_select_ranks_first():
    # admission and the trainer's batch retrieval agree on every query,
    # including exact ties between one-hot keys and queries equal to a key
    rng = SeededRng(26)
    for trial in range(100):
        n_t, d_c = 1 + rng.randint(12), 2 + rng.randint(6)
        pool = init_pool(n_t, 1, 2, d_c, 40, rng.derive("pool", trial))
        if trial % 2 == 0 and n_t >= 3:
            onehot = np.zeros(d_c)
            onehot[rng.randint(d_c)] = 1.0
            for i in (n_t - 1, 1, 0):
                pool.keys[i] = onehot
        queries = [random_instance(rng.derive("q", trial, j), d_c=d_c) for j in range(12)]
        for j, inst in enumerate(queries[:4]):
            inst.f_c = (2.0 + j) * pool.keys[rng.randint(n_t)]
        batch = _queries(table_of(queries))
        config = TrainConfig(k_retrieve=1 + rng.randint(n_t))
        selection = _select(batch, _retrieve(batch, pool, config), pool, config, None)[0]
        routed = [admit(pool, inst, rng) for inst in queries]
        assert routed == selection[:, 0].tolist(), trial


def test_admit_seen_count_and_capacity():
    pool = init_pool(1, 2, 4, 3, 4, SeededRng(12))
    rng = SeededRng(13)
    for n in range(1, 30):
        admit(pool, random_instance(rng, d_c=3), rng)
        assert pool.seen[0] == n
        assert pool.store_len[0] == min(n, 4)
        pool.check_invariants()


def test_admit_rejects_degenerate_relation_rows_whatever_the_draw():
    # refused before routing: nothing is counted in seen and no reservoir
    # draw is made, whether that draw would have kept or dropped the instance
    for trial in range(20):
        pool = init_pool(2, 1, 2, 3, 1, SeededRng(trial))
        fill_pool(pool, SeededRng(50 + trial), 4)
        before = copy.deepcopy(pool)
        for row in DEGENERATE_ROWS:
            rng, twin = SeededRng(trial), SeededRng(trial)
            inst = random_instance(SeededRng(90 + trial), d_c=3)
            inst.f_r = row
            with pytest.raises(ValueError, match="degenerate"):
                admit(pool, inst, rng)
            assert pools_equal(pool, before)
            assert rng.next_u64() == twin.next_u64()


def test_admit_refuses_other_widths_before_counting():
    # an offer wider than the stored exemplars is refused before it is
    # counted in seen or drawn for, whether its entry's store has room (one
    # earlier offer over two entries) or is full, where the draw would keep
    # or drop it (six offers to one entry of capacity 2)
    for n_t, n_offers in ((2, 1), (1, 6)):
        for trial in range(20):
            pool = init_pool(n_t, 1, 2, 3, 2, SeededRng(trial))
            fill_pool(pool, SeededRng(50 + trial), n_offers)
            before = copy.deepcopy(pool)
            rng, twin = SeededRng(trial), SeededRng(trial)
            inst = random_instance(SeededRng(90 + trial), d_c=3, d_r=6)
            with pytest.raises(ValueError, match="feature lengths"):
                admit(pool, inst, rng)
            assert pools_equal(pool, before)  # seen, store_len and the stores
            assert rng.next_u64() == twin.next_u64()


def test_admit_reservoir_keep_rate_two_items():
    # n_e = 1: the second admission replaces the first with probability 1/2
    trials = 10_000
    kept = 0
    rng = SeededRng(14)
    for t in range(trials):
        pool = init_pool(1, 1, 2, 3, 1, SeededRng(100 + t))
        a = random_instance(rng, d_c=3, predicate=0)
        b = random_instance(rng, d_c=3, predicate=1)
        admit(pool, a, rng)
        admit(pool, b, rng)
        if pool.store_labels[0, 0] == 1:
            kept += 1
    sd = math.sqrt(trials * 0.25)
    assert abs(kept - trials / 2) < 3 * sd


def test_admit_reservoir_long_run_retention_unbiased():
    # after N admissions each item should remain with probability n_e/N;
    # count retention per arrival-index bucket over many independent runs
    n_e, n_items, runs = 2, 20, 2_000
    rng = SeededRng(15)
    retained = [0] * n_items
    for r in range(runs):
        pool = init_pool(1, 1, 2, 3, n_e, SeededRng(500 + r))
        items = []
        for i in range(n_items):
            inst = random_instance(rng, d_c=3, predicate=i % 3)
            items.append(inst)
            admit(pool, inst, rng)
        for i, inst in enumerate(items):
            if is_stored(pool, 0, inst):
                retained[i] += 1
    p = n_e / n_items
    sd = math.sqrt(runs * p * (1 - p))
    for count in retained:
        assert abs(count - runs * p) < 5 * sd


# -- serialization -------------------------------------------------------------


def fill_pool(pool, rng, n_admit):
    for _ in range(n_admit):
        admit(pool, random_instance(rng, d_c=pool.d_c), rng)


def test_pool_round_trip_fresh_and_filled(tmp_path):
    pool = init_pool(5, 3, 8, 4, 3, SeededRng(16))
    path = tmp_path / "pool.lsgg"
    serialize_pool(pool, path)
    assert pools_equal(deserialize_pool(path), pool)

    fill_pool(pool, SeededRng(17), 60)
    assert pool.total_stored() > 0
    serialize_pool(pool, path)
    back = deserialize_pool(path)
    assert pools_equal(back, pool)
    back.check_invariants()


def test_pool_round_trip_at_full_capacity(tmp_path):
    pool = init_pool(20, 2, 4, 4, 5, SeededRng(18))
    fill_pool(pool, SeededRng(19), 400)
    path = tmp_path / "full.lsgg"
    serialize_pool(pool, path)
    assert pools_equal(deserialize_pool(path), pool)


def filled_pool_file(tmp_path):
    """(pool, the lines of its file, its filled-slot mask) of a small pool
    with filled slots in both entries."""
    pool = init_pool(2, 2, 4, 3, 2, SeededRng(20))
    fill_pool(pool, SeededRng(21), 5)
    serialize_pool(pool, tmp_path / "pool.lsgg")
    assert pool.store_len.tolist() == [1, 2]
    filled = np.arange(pool.n_e) < pool.store_len[:, None]
    return pool, (tmp_path / "pool.lsgg").read_text().splitlines(), filled


def with_array(lines, name, arr):
    """The file's lines with the record of array ``name`` rewritten to hold ``arr``."""
    at = next(i for i, line in enumerate(lines) if line.split()[:2] == ["array", name])
    return lines[:at] + [array_line(name, np.asarray(arr))] + lines[at + 1:]


def refuses(tmp_path, lines, match=None):
    bad = tmp_path / "bad.lsgg"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(PoolFormatError, match=match):
        deserialize_pool(bad)


def test_pool_file_errors(tmp_path):
    pool, lines, filled = filled_pool_file(tmp_path)
    assert [line.split()[1] for line in lines[1:]] == [
        "keys", "prompts", "seen", "store_len", "labels", "ex.c", "ex.s", "ex.o", "ex.r"]
    n_filled = int(filled.sum())

    # header or version: the per-entry LSGG-POOL 1 is no longer read
    for head in ("LSGG-POOL 1 2 2 4 3 2", "SOMETHING 2 2", "LSGG-POOL 2 0", "LSGG-POOL 2"):
        refuses(tmp_path, [head, *lines[1:]], f"unsupported pool header '{head}'")
    refuses(tmp_path, ["LSGG-POOL 2 two", *lines[1:]])
    # truncation, a missing record, and an empty file
    refuses(tmp_path, lines[:-1], "truncated")
    refuses(tmp_path, [lines[0], *lines[2:]], "truncated")
    refuses(tmp_path, [], "unsupported pool header ''")
    # records that are not this grammar's, or repeated
    refuses(tmp_path, [*lines, "entry 0 1 1"], "line 11: unknown record 'entry 0'")
    refuses(tmp_path, [*lines, f"array bogus 1 {pack_floats([1.0])}"],
            "unknown record 'array bogus'")
    refuses(tmp_path, [*lines, lines[2]], f"line {len(lines) + 1}: repeated record 'prompts'")
    # widths and shapes
    refuses(tmp_path, with_array(lines, "ex.c", np.ones((n_filled, pool.d_c + 4))), "widths")
    for kind in ("s", "o", "r"):  # one exemplar row short
        refuses(tmp_path, with_array(lines, f"ex.{kind}", pool.store_feats[kind][filled][1:]),
                "widths")
    refuses(tmp_path, with_array(lines, "labels", pool.store_labels[filled][1:]), "labels")
    refuses(tmp_path, with_array(lines, "keys", np.ones((3, pool.d_c))))
    refuses(tmp_path, with_array(lines, "seen", pool.seen[:1]))
    refuses(tmp_path, with_array(lines, "prompts", np.ones((2, 0, 4))), "sizes >= 1")
    # integer fields
    for name, arr in (("labels", pool.store_labels[filled] + 0.5), ("seen", [np.nan, 3.0]),
                      ("store_len", [1.0, np.inf]), ("seen", [2.0**53, 3.0])):
        refuses(tmp_path, with_array(lines, name, arr), "integer")
    # base64 and payload size
    refuses(tmp_path, [*lines[:-1], " ".join(lines[-1].split()[:3] + ["not*base64"])], "base64")
    name, _, payload = lines[-1].split()[1:]
    refuses(tmp_path, [*lines[:-1], f"array {name} 7,5 {payload}"], "payload")
    # store larger than seen, and outside capacity
    refuses(tmp_path, with_array(lines, "seen", pool.store_len - [0, 1]), "seen")
    refuses(tmp_path, with_array(lines, "store_len", [1, 3]), "capacity")
    refuses(tmp_path, with_array(lines, "store_len", [-2, 2]))


def test_pool_file_rejects_degenerate_relation_rows(tmp_path):
    pool, lines, filled = filled_pool_file(tmp_path)
    for row in DEGENERATE_ROWS:
        f_r = pool.store_feats["r"][filled]
        f_r[1] = row  # f_r, of width 5
        refuses(tmp_path, with_array(lines, "ex.r", f_r), "degenerate")


def test_pool_file_holds_widths_fixed_before_any_slot_is_filled(tmp_path):
    pool, _, _ = filled_pool_file(tmp_path)
    pool.store_len[:] = 0
    serialize_pool(pool, tmp_path / "pool.lsgg")
    back = deserialize_pool(tmp_path / "pool.lsgg")
    assert {kind: f.shape for kind, f in back.store_feats.items()} == {
        kind: f.shape for kind, f in pool.store_feats.items()}
    assert pools_equal(back, pool)


def test_pool_invariants_catch_relation_rows_edited_behind_the_writer():
    rng = SeededRng(30)
    for edit in (lambda r: r * 2.0, lambda r: r * 0.0, lambda r: r + np.nan):
        pool = init_pool(2, 2, 4, 6, 3, SeededRng(0))
        for _ in range(2):
            append_exemplar(pool, 1, random_instance(rng))
        pool.check_invariants()
        pool.store_feats["r"][1, 1] = edit(pool.store_feats["r"][1, 1])
        with pytest.raises(AssertionError, match="norms"):
            pool.check_invariants()


def test_pool_invariant_violations_detected():
    pool = init_pool(2, 2, 4, 3, 1, SeededRng(24))
    append_exemplar(pool, 0, random_instance(SeededRng(25), d_c=3))
    pool.check_invariants()
    for store_len, seen in ((2, 2), (1, 0)):  # over capacity; more stored than seen
        pool.store_len[0], pool.seen[0] = store_len, seen
        with pytest.raises(AssertionError):
            pool.check_invariants()
