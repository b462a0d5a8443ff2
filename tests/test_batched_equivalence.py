"""The batched training and eval passes against the per-item reference in
``reference_trainer.py``: losses, loss parts, every gradient array, rankings
and whole training stages must agree bit for bit, under every ablation
switch."""

import numpy as np
import pytest

import reference_trainer as ref
from lsgg.datastream import StageDataset
from lsgg.prompt_pool import make_exemplar
from lsgg.rng import SeededRng
from lsgg.trainer import (AdamW, TrainConfig, _Item, batch_loss_and_grads,
                          predict_ranked, train_stage)

from conftest import TinyWorld

SWITCHES = [
    ("default", {}, {}),
    ("random_prompts", {"random_prompts": True}, {}),
    ("random_exemplar", {"random_exemplar": True}, {}),
    ("random_prompts+exemplar", {"random_prompts": True, "random_exemplar": True}, {}),
    ("shuffle_order", {"shuffle_order": True}, {}),
    ("naive", {"naive": True}, {}),
    ("train_scorer", {}, {"train_scorer": True}),
    ("l1_token_norm", {"l1_mode": "token_norm", "alpha": 0.3}, {}),
]
IDS = [s[0] for s in SWITCHES]


def make_world(config_kw, world_kw, seed=61):
    # K = 3 gives two context segments, so shuffling draws; stores of lengths
    # 0..3 give several prompt layouts and several store-length groups
    config = TrainConfig(k_retrieve=3, epochs=2, batch_size=6, lr=0.01, **config_kw)
    w = TinyWorld(seed=seed, d_tok=8, n_t=7, n_p=2, n_e=3, n_pred=5, k_retrieve=3,
                  two_word_labels=True, config=config, **world_kw)
    for e in range(w.pool.n_t):
        w.fill_store(e, e % 4, start_pred=e)
    return w


def make_batch(w):
    items = [_Item(source=w.instance(predicate=i % w.n_pred), replay=False)
             for i in range(9)]
    items += [_Item(source=make_exemplar(w.instance(predicate=i)), replay=True)
              for i in range(3)]
    items.append(_Item(source=w.pool.entries[3].store[0], replay=True))
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
    queries = [w.instance(predicate=i % w.n_pred) for i in range(11)]
    for candidates in (None, [4, 0, 2]):
        rng_a, rng_b = SeededRng(6), SeededRng(6)
        want = ref.predict_ranked(queries, w.pool, w.tr, w.vocab, w.config,
                                  candidates=candidates, ab_rng=rng_a, batch_size=4)
        got = predict_ranked(queries, w.pool, w.tr, w.vocab, w.config,
                             candidates=candidates, ab_rng=rng_b, batch_size=4)
        assert list(got) == want
        assert rng_b.next_u64() == rng_a.next_u64()


@pytest.mark.parametrize("label,config_kw,world_kw", SWITCHES, ids=IDS)
def test_train_stage_equals_per_item_reference(label, config_kw, world_kw):
    # quota > 0: admissions land mid-stage, so cached store rows must follow
    runs = []
    for stage_fn, opt in ((ref.train_stage, ref.AdamW()), (train_stage, AdamW())):
        w = make_world(config_kw, world_kw)
        train = [w.instance(predicate=i % w.n_pred, image_id=i) for i in range(14)]
        out = stage_fn(StageDataset(train=train, val=[], test=[]), w.pool, w.tr,
                       w.vocab, w.config, opt, SeededRng(9), quota=8)
        runs.append((w, out))
    (w_a, out_a), (w_b, out_b) = runs
    assert out_b["epoch_losses"] == out_a["epoch_losses"]
    assert out_b["admitted"] == out_a["admitted"]
    if not w_a.config.naive:
        assert out_a["admitted"] > 0
    assert w_b.pool.equals(w_a.pool)
    params_a = dict(w_a.tr.param_items())
    for name, arr in w_b.tr.param_items():
        assert np.array_equal(arr, params_a[name]), name


def test_predict_ranked_equals_per_item_reference_at_bench_widths():
    # At the benchmark's widths (features 64/64/32, d_tok 64) the mapper's
    # 2-D products leave OpenBLAS's small-matrix path, and `feats @ proj_w.T`
    # over 1-9 rows rounds differently from the same rows in a taller
    # product (the stacked per-item products do not depend on the row
    # count). Every store holds >= 10 exemplars and each reference batch
    # shows >= 10 distinct ones, so the reference's per-batch exemplar encode
    # and the once-per-call exemplar table both take the tall path.
    config = TrainConfig(k_retrieve=3)
    w = TinyWorld(seed=67, d_tok=64, n_t=6, n_p=4, n_e=14, d_c=64, d_r=64, d_o=32,
                  n_pred=8, k_retrieve=3, two_word_labels=True, config=config)
    for e in range(w.pool.n_t):
        w.fill_store(e, 10 + e % 4, start_pred=e)
    queries = [w.instance(predicate=i % w.n_pred) for i in range(48)]
    ctx = ref._RetrievalCtx(w.pool)
    for start in range(0, len(queries), 16):
        batch = [_Item(source=q, replay=False) for q in queries[start : start + 16]]
        state = ref._forward(batch, w.pool, w.tr, w.vocab, config, None, ctx=ctx)
        assert len(state.uniq_ex) >= 10
    want = ref.predict_ranked(queries, w.pool, w.tr, w.vocab, config, batch_size=16)
    got = predict_ranked(queries, w.pool, w.tr, w.vocab, config, batch_size=16)
    assert list(got) == want
