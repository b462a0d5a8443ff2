"""The batched training and eval passes against the per-item reference in
``reference_trainer.py``: losses, loss parts, every gradient array, full
rankings and whole training stages must agree bit for bit, under every
ablation switch; batch boundaries must not change a prediction; and the
memory an evaluation holds at once, at the benchmark's widths."""

import copy
import functools
import tracemalloc

import numpy as np
import pytest

import reference_trainer as ref
from lsgg.datastream import Rows
from lsgg.rng import SeededRng
from lsgg.trainer import AdamW, TrainConfig, _freeze_table, predict_ranked, train_stage

from conftest import TinyWorld
from oracles import (Item, batch_loss_and_grads, pools_equal, rankings_by_batch,
                     rewrite_relation, stored_exemplar, table_of, train_split)

SWITCHES = [
    ("default", {}, {}),
    ("random_prompts", {"random_prompts": True}, {}),
    ("random_exemplar", {"random_exemplar": True}, {}),
    ("naive", {"naive": True}, {}),
    ("train_scorer", {}, {"train_scorer": True}),
]
IDS = [s[0] for s in SWITCHES]


def make_world(config_kw, world_kw, seed=61):
    # K = 3 gives two context segments, whose order the layout must keep;
    # stores of lengths 0..3 give several prompt layouts and several
    # store-length groups
    config = TrainConfig(k_retrieve=3, epochs=2, batch_size=6, lr=0.01, **config_kw)
    w = TinyWorld(seed=seed, d_tok=8, n_t=7, n_p=2, n_e=3, n_pred=5, k_retrieve=3,
                  two_word_labels=True, config=config, **world_kw)
    for e in range(w.pool.n_t):
        w.fill_store(e, e % 4, start_pred=e)
    return w


def make_batch(w):
    items = [Item(source=w.instance(predicate=i % w.n_pred), replay=False)
             for i in range(9)]
    items += [Item(source=w.instance(predicate=i), replay=True)
              for i in range(3)]
    items.append(Item(source=stored_exemplar(w.pool, 3, 0), replay=True))
    return items


@pytest.mark.parametrize("label,config_kw,world_kw", SWITCHES, ids=IDS)
def test_batch_loss_and_grads_equal_per_item_reference(label, config_kw, world_kw):
    w = make_world(config_kw, world_kw)
    batch = make_batch(w)
    rng_a, rng_b = SeededRng(5), SeededRng(5)
    loss_a, grads_a, parts_a = ref.batch_loss_and_grads(batch, w.pool, w.tr, w.vocab,
                                                        w.config, rng_a)
    loss_b, grads_b, parts_b = batch_loss_and_grads(batch, w.pool, w.tr, w.vocab,
                                                    w.config, rng_b)
    assert loss_b == loss_a
    assert parts_b == parts_a
    assert set(grads_b) == set(grads_a)
    for name in grads_a:
        assert np.array_equal(grads_b[name], grads_a[name]), name
    assert rng_b.next_u64() == rng_a.next_u64()  # same draws consumed


@pytest.mark.parametrize("label,config_kw,world_kw", SWITCHES, ids=IDS)
def test_predict_ranked_equals_per_item_reference(label, config_kw, world_kw):
    w = make_world(config_kw, world_kw)
    queries = table_of([w.instance(predicate=i % w.n_pred) for i in range(11)])
    for candidates in (None, [4, 0, 2]):
        rng_a, rng_b, rng_c = SeededRng(6), SeededRng(6), SeededRng(6)
        want = ref.predict_ranked(queries, w.pool, w.tr, w.vocab, w.config,
                                  candidates=candidates, ab_rng=rng_a, batch_size=4)
        full = rankings_by_batch(queries, w.pool, w.tr, w.vocab, w.config,
                                 candidates=candidates, ab_rng=rng_b, batch_size=4)
        assert full == want  # every candidate's score, for every instance
        got = predict_ranked(queries, w.pool, w.tr, w.vocab, w.config,
                             candidates=candidates, ab_rng=rng_c, batch_size=4)
        assert list(got) == [ranking[:1] for ranking in want]
        assert rng_b.next_u64() == rng_c.next_u64() == rng_a.next_u64()


def stages_agree(config_kw, world_kw, quota):
    """One stage of 14 rows through the reference and the production loop;
    asserts they agree bit for bit and returns the reference's world and
    result."""
    runs = []
    for stage_fn, opt in ((ref.train_stage, ref.AdamW()), (train_stage, AdamW())):
        w = make_world(config_kw, world_kw)
        train = [w.instance(predicate=i % w.n_pred, image_id=i) for i in range(14)]
        out = stage_fn(train_split(train), w.pool, w.tr, w.vocab, w.config, opt,
                       SeededRng(9), quota=quota)
        runs.append((w, out))
    (w_a, out_a), (w_b, out_b) = runs
    assert out_b["epoch_losses"] == out_a["epoch_losses"]
    assert out_b["admitted"] == out_a["admitted"]
    assert pools_equal(w_b.pool, w_a.pool)
    params_a = dict(w_a.tr.param_items())
    for name, arr in w_b.tr.param_items():
        assert np.array_equal(arr, params_a[name]), name
    return w_a, out_a


@pytest.mark.parametrize("label,config_kw,world_kw", SWITCHES, ids=IDS)
def test_train_stage_equals_per_item_reference(label, config_kw, world_kw):
    # quota > 0: admissions land mid-stage, so cached store rows must follow
    w, out = stages_agree(config_kw, world_kw, quota=8)
    if not w.config.naive:
        assert out["admitted"] > 0


DENSE_SWITCHES = [s for s in SWITCHES if s[0] != "naive"]  # naive never admits


@pytest.mark.parametrize("label,config_kw,world_kw", DENSE_SWITCHES,
                         ids=[s[0] for s in DENSE_SWITCHES])
def test_train_stage_offering_every_visit_equals_per_item_reference(label, config_kw,
                                                                     world_kw):
    # quota >= epochs x rows, as on the eval_heavy bench: every row of every
    # step is offered, each routed by the step's one ranking; stores of
    # capacity 3 overflow, so reservoir draws drop some offers and replace
    # stored exemplars between steps
    start = make_world(config_kw, world_kw).pool
    w, out = stages_agree(config_kw, world_kw, quota=1000)
    offered = w.config.epochs * 14
    assert w.pool.seen.sum() - start.seen.sum() == offered
    appended = w.pool.total_stored() - start.total_stored()
    assert appended < out["admitted"] < offered  # some kept by replacement, some dropped


def bench_width_world():
    w = TinyWorld(seed=67, d_tok=64, n_t=6, n_p=4, n_e=14, d_c=64, d_r=64, d_o=32,
                  n_pred=8, k_retrieve=3, two_word_labels=True,
                  config=TrainConfig(k_retrieve=3))
    for e in range(w.pool.n_t):
        w.fill_store(e, 10 + e % 4, start_pred=e)
    return w


def test_predict_ranked_equals_per_item_reference_at_bench_widths():
    # At the benchmark's widths (features 64/64/32, d_tok 64) the mapper's
    # 2-D products leave OpenBLAS's small-matrix path, and `feats @ proj_w.T`
    # over 1-9 rows rounds differently from the same rows in a taller
    # product (the stacked per-item products do not depend on the row
    # count). Every store holds >= 10 exemplars and each reference batch
    # shows >= 10 distinct ones, so the reference's per-batch exemplar encode
    # and the once-per-call exemplar table both take the tall path.
    w = bench_width_world()
    config = w.config
    queries = [w.instance(predicate=i % w.n_pred) for i in range(48)]
    ctx = ref._RetrievalCtx(w.pool)
    for start in range(0, len(queries), 16):
        batch = [Item(source=q, replay=False) for q in queries[start : start + 16]]
        state = ref._forward(batch, w.pool, w.tr, w.vocab, config, None, ctx=ctx)
        assert len(state.uniq_ex) >= 10
    want = ref.predict_ranked(table_of(queries), w.pool, w.tr, w.vocab, config, batch_size=16)
    full = rankings_by_batch(table_of(queries), w.pool, w.tr, w.vocab, config, batch_size=16)
    assert full == want
    got = predict_ranked(table_of(queries), w.pool, w.tr, w.vocab, config, batch_size=16)
    assert list(got) == [ranking[:1] for ranking in want]


def traced_peak(fn):
    """``fn()`` and the peak of its traced allocations above the memory
    traced when it starts, in bytes."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def table_bytes(w, batch_size: int) -> int:
    """The frozen token table's bytes, from shapes: prompts, every stored
    exemplar's block, label embeddings, mask rows and one batch's query
    blocks."""
    n_ex = int(w.pool.store_len.sum())
    rows = (w.pool.n_t * w.pool.n_p + n_ex * w.mapper.exemplar_rows() + w.scorer.v
            + w.scorer.n_mask + batch_size * w.mapper.exemplar_rows())
    return rows * w.pool.d_tok * 8


def test_freeze_table_holds_the_table_and_one_kind_block():
    # the table is allocated once and each part written into its rows: no
    # per-kind blocks joined and then the whole table joined again
    w = bench_width_world()
    _freeze_table(w.pool, w.tr, w.config, 64)  # first calls import lazily
    (table, _, _), peak = traced_peak(lambda: _freeze_table(w.pool, w.tr, w.config, 64))
    assert table.nbytes == table_bytes(w, 64)
    n_ex = int(w.pool.store_len.sum())
    kind_block = n_ex * max(w.mapper.token_counts.values()) * w.pool.d_tok * 8
    feats = n_ex * sum(w.mapper.feat_dims.values()) * 8
    # a second block bounds the buffer of encode_batch's in-place broadcast
    # adds (at most the block) and the slot map's index arrays
    assert peak < table.nbytes + 2 * kind_block + feats, peak


def test_predict_ranked_holds_one_batch_at_a_time():
    # the call builds its table, then a batch's pass (its gathered prompt
    # rows) is released before the next batch gathers its own, and the
    # first-ranked columns fill (N, 1) arrays in place
    w = bench_width_world()
    n, batch_size = 320, 64
    queries = table_of([w.instance(predicate=i % w.n_pred) for i in range(n)])
    predict_ranked(queries.take(slice(0, 2)), w.pool, w.tr, w.vocab,
                   w.config)  # first calls import lazily
    got, peak = traced_peak(lambda: predict_ranked(queries, w.pool, w.tr, w.vocab, w.config,
                                                   batch_size=batch_size))
    d_tok = w.pool.d_tok
    prompt_rows = batch_size * w.scorer.pos_weight.size * d_tok * 8  # N <= pos_weight.size
    result = got.labels.nbytes + got.scores.nbytes
    assert result == n * 16
    # the query blocks are encoded into the table's query rows, one kind's
    # block at a time; a second block bounds the broadcast buffer and the
    # gather index, as above
    kind_block = batch_size * max(w.mapper.token_counts.values()) * d_tok * 8
    feats = batch_size * sum(w.mapper.feat_dims.values()) * 8
    assert peak < (table_bytes(w, batch_size) + prompt_rows + result + 2 * kind_block
                   + feats), peak


STAGE_SWITCHES = [s for s in SWITCHES
                  if s[0] in ("default", "random_prompts", "random_exemplar")]


# (id, world, task sizes, batch size). At the benchmark's widths a product
# of a few rows takes OpenBLAS's small-matrix kernel (up to 4 rows for kinds
# c and r, 9 for s and o) and rounds differently from a tall one, so the
# tails of 3 and 2 rows there must still get the bits of a full batch
CONCAT_CASES = [(label, functools.partial(make_world, config_kw, world_kw), (3, 9, 6), 4)
                for label, config_kw, world_kw in STAGE_SWITCHES]
CONCAT_CASES.append(("bench_widths", bench_width_world, (3, 18, 16), 16))


@pytest.mark.parametrize("label,world,sizes,batch_size", CONCAT_CASES,
                         ids=[c[0] for c in CONCAT_CASES])
def test_one_call_over_concatenated_tasks_equals_per_task_calls(label, world, sizes,
                                                                batch_size):
    # the harness evaluates a stage's tasks in one call over their test rows
    # concatenated, whose batches straddle the task boundaries; each task
    # must get what a call of its own gives, and the ablation stream must be
    # drawn to the same point
    w = world()
    n = sum(sizes)
    data = table_of([w.instance(predicate=i % w.n_pred) for i in range(n)])
    order = SeededRng(3).permutation(n)
    bounds = np.cumsum((0,) + sizes)
    tasks = [Rows(data, np.asarray(order[a:b], dtype=np.int64))
             for a, b in zip(bounds, bounds[1:])]
    arrived = Rows(data, np.concatenate([task.index for task in tasks]))
    for candidates in (None, [4, 0, 2]):
        rng_a, rng_b = SeededRng(8), SeededRng(8)
        want = [predict_ranked(task, w.pool, w.tr, w.vocab, w.config, candidates=candidates,
                               ab_rng=rng_a, batch_size=batch_size) for task in tasks]
        got = predict_ranked(arrived, w.pool, w.tr, w.vocab, w.config, candidates=candidates,
                             ab_rng=rng_b, batch_size=batch_size)
        assert np.array_equal(got.labels, np.concatenate([r.labels for r in want]))
        assert np.array_equal(got.scores, np.concatenate([r.scores for r in want]))
        assert rng_b.next_u64() == rng_a.next_u64()


def test_degenerate_filled_slot_raises_at_inference():
    # stores of lengths 0..3: the unfilled slots are zero rows and do not
    # raise; a degenerate row cannot reach a filled slot, since the write
    # refuses it and leaves the pool and its predictions as they were
    for row in (np.zeros(5), np.array([1.0, np.nan, 0, 0, 0]),
                np.array([np.inf, 0, 0, 0, 0])):
        w = make_world({}, {})
        queries = table_of([w.instance(predicate=i % w.n_pred) for i in range(4)])
        want = predict_ranked(queries, w.pool, w.tr, w.vocab, w.config)
        before = copy.deepcopy(w.pool)
        with pytest.raises(ValueError, match="degenerate"):
            rewrite_relation(w.pool, 2, 1, row)  # entry 2 holds 2 exemplars
        assert pools_equal(w.pool, before)
        got = predict_ranked(queries, w.pool, w.tr, w.vocab, w.config)
        assert np.array_equal(got.scores, want.scores)


def test_degenerate_query_relation_raises_at_inference():
    w = make_world({}, {})
    queries = [w.instance(predicate=i % w.n_pred) for i in range(4)]
    for row in (np.zeros(5), np.array([1.0, np.nan, 0, 0, 0])):
        queries[1].f_r = row
        with pytest.raises(ValueError, match="query relation feature is degenerate"):
            predict_ranked(table_of(queries), w.pool, w.tr, w.vocab, w.config)
