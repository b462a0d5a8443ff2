"""Losses, analytic gradients vs finite differences, the optimizer, the stage
loop, and checkpoint files."""

import copy
import math

import numpy as np
import pytest
from mpmath import mp, mpf, workdps

from lsgg.datastream import StageDataset
from lsgg.harness import ExperimentConfig, config_from_kv, config_to_kv
from lsgg.ioutil import pack_floats
from lsgg.prompt_pool import deserialize_pool, init_pool, serialize_pool
from lsgg.rng import SeededRng
from lsgg.scorer import build_vocab, default_vocab
from lsgg.trainer import (AdamW, CheckpointFormatError, TrainConfig, load_checkpoint,
                          loss_total, predict_ranked, save_checkpoint, stage_quota,
                          train_stage)

from conftest import TinyWorld, finite_diff, grad_rel_err
from oracles import (Item, admit, batch_loss_and_grads, cosine_to_rows, loss_key_alignment,
                     loss_predicate_ce, pools_equal, table_of, train_split)


# -- loss terms ---------------------------------------------------------------


def test_key_alignment_parallel_and_antiparallel():
    f = np.array([1.0, 2.0, -1.0])
    assert loss_key_alignment(f, [3.0 * f]) == pytest.approx(0.0, abs=1e-15)
    assert loss_key_alignment(f, [-f]) == pytest.approx(2.0, abs=1e-12)
    assert loss_key_alignment(f, [f, -f]) == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(ValueError):
        loss_key_alignment(f, [])


def test_key_alignment_matches_sum_of_cosines():
    rng = SeededRng(1)
    for _ in range(20):
        f = rng.normal(6)
        keys = [rng.normal(6) for _ in range(rng.randint(4) + 1)]
        expect = sum(
            1.0 - float(f @ k) / (np.linalg.norm(f) * np.linalg.norm(k))
            for k in keys
        )
        assert loss_key_alignment(f, keys) == pytest.approx(expect, rel=1e-12)


def test_predicate_ce_point_mass_is_zero():
    vocab = default_vocab(3)
    dist = np.zeros((1, 4))
    dist[0, vocab.tokens[1][0]] = 1.0
    assert loss_predicate_ce(dist, 1, vocab) == pytest.approx(0.0, abs=1e-15)


def test_predicate_ce_uniform_is_log_vocab_size():
    # uniform over V tokens -> CE = log V per non-padding slot
    vocab = build_vocab({0: "a b", 1: "c"})
    v = vocab.n_word_tokens
    uniform = np.full((2, v), 1.0 / v)
    assert loss_predicate_ce(uniform, 0, vocab) == pytest.approx(2.0 * math.log(v), rel=1e-12)
    assert loss_predicate_ce(uniform, 1, vocab) == pytest.approx(math.log(v), rel=1e-12)


def test_predicate_ce_matches_extended_precision():
    vocab = build_vocab({0: "p q r", 1: "s"})
    rng = SeededRng(2)
    raw = rng.random_block(3 * vocab.n_word_tokens).reshape(3, -1) + 0.01
    dist = raw / raw.sum(axis=1, keepdims=True)
    got = loss_predicate_ce(dist, 0, vocab)
    with workdps(60):
        expect = -sum(mp.log(mpf(dist[j, t])) for j, t in enumerate(vocab.tokens[0]))
    assert got == pytest.approx(float(expect), abs=1e-10)


def test_predicate_ce_rejects_bad_tokens():
    vocab = default_vocab(2)
    with pytest.raises(ValueError):
        loss_predicate_ce(np.full((1, 3), 1 / 3), 7, vocab)


def test_loss_total_weighting():
    config = TrainConfig()  # lam 0.5
    assert loss_total(0.0, 3.25, config) == pytest.approx(3.25, abs=1e-15)
    assert loss_total(1.0, 1.0, config) == pytest.approx(1.5, abs=1e-12)
    off = TrainConfig(lam=0.0)
    assert loss_total(9.0, 2.0, off) == pytest.approx(2.0, abs=1e-15)
    for bad in ((float("nan"), 0.0), (0.0, float("inf"))):
        with pytest.raises(ValueError):
            loss_total(*bad, config)


def test_config_validation():
    TrainConfig().validate()
    for bad in (TrainConfig(lam=-0.1), TrainConfig(rho=1.0), TrainConfig(lr=-1e-3),
                TrainConfig(epochs=0), TrainConfig(random_prompts=True, random_exemplar=True)):
        with pytest.raises(ValueError):
            bad.validate()
    assert TrainConfig(naive=True, k_retrieve=5).effective_k() == 1
    assert TrainConfig(naive=True, rho=0.5).effective_rho() == 0.0


# -- batched loss and analytic gradients ----------------------------------------


def fd_world(train_scorer=False, n_pred=10):
    # d_tok = 8, vocabulary of 10 predicates, K = 2
    config = TrainConfig(lam=0.5, k_retrieve=2)
    w = TinyWorld(seed=21, d_tok=8, n_t=4, n_p=2, n_e=3, n_pred=n_pred,
                  k_retrieve=2, train_scorer=train_scorer,
                  two_word_labels=True, config=config)
    for e in range(w.pool.n_t):
        w.fill_store(e, 2, start_pred=e)
    batch = [
        Item(source=w.instance(predicate=1), replay=False),
        Item(source=w.instance(predicate=3), replay=False),
        Item(source=w.instance(predicate=2), replay=True),
    ]
    return w, batch


def batch_loss_only(w, batch):
    loss, _, _ = batch_loss_and_grads(batch, w.pool, w.tr, w.vocab, w.config)
    return loss


# d0: the linear (depth-0) mapper, the depth the checkpoint format records
FD_CASES = [
    ("frozen-d0", dict(train_scorer=False)),
    ("finetune-d0", dict(train_scorer=True)),
]


@pytest.mark.parametrize("label,kw", FD_CASES, ids=[c[0] for c in FD_CASES])
def test_batch_gradients_match_finite_differences(label, kw):
    w, batch = fd_world(**kw)
    _, grads, _ = batch_loss_and_grads(batch, w.pool, w.tr, w.vocab, w.config)
    params = dict(w.tr.param_items())
    assert set(grads) == set(params)

    checked = 0
    for name, arr in params.items():
        numeric = finite_diff(lambda: batch_loss_only(w, batch), arr)
        if np.max(np.abs(numeric)) < 1e-12 and np.max(np.abs(grads[name])) < 1e-12:
            continue  # parameter provably untouched by this batch
        assert grad_rel_err(grads[name], numeric) < 1e-4, name
        checked += 1
    # the batch must actually exercise the surface: mapper, pool, mask at least
    assert checked >= 10


def test_gradients_cover_every_trainable_kind():
    w, batch = fd_world(train_scorer=True)
    _, grads, _ = batch_loss_and_grads(batch, w.pool, w.tr, w.vocab, w.config)
    touched = {name for name, g in grads.items() if np.max(np.abs(g)) > 0}
    for prefix in ("mapper.proj_w", "mapper.pos", "pool.v", "pool.k", "y_mask",
                   "scorer.emb", "scorer.readout", "scorer.pos_weight"):
        assert any(t.startswith(prefix) for t in touched), prefix


def test_replay_items_skip_key_alignment():
    w, batch = fd_world()
    # replay-only batch: no key-alignment term at all
    replay_only = [it for it in batch if it.replay]
    _, grads, parts = batch_loss_and_grads(replay_only, w.pool, w.tr, w.vocab, w.config)
    assert parts["l2"] == 0.0
    assert np.max(np.abs(grads["pool.k"])) == 0.0


def test_parts_l2_matches_alignment_loss():
    w, batch = fd_world()
    _, _, parts = batch_loss_and_grads(batch, w.pool, w.tr, w.vocab, w.config)
    expect = 0.0
    cache_keys = list(w.pool.keys)
    for it in batch:
        if it.replay:
            continue
        sims = cosine_to_rows(np.asarray(it.source.f_c, float), np.stack(cache_keys))
        order = np.argsort(-sims, kind="stable")[: w.config.k_retrieve]
        expect += loss_key_alignment(it.source.f_c,
                                     [cache_keys[int(i)] for i in order])
    assert parts["l2"] == pytest.approx(expect / len(batch), abs=1e-12)


# -- optimizer -------------------------------------------------------------------


def test_zero_lr_leaves_parameters_unchanged():
    w, batch = fd_world(train_scorer=True)
    w.config.lr = 0.0
    before = {name: arr.copy() for name, arr in w.tr.param_items()}
    _, grads, _ = batch_loss_and_grads(batch, w.pool, w.tr, w.vocab, w.config)
    AdamW().step(w.tr, grads, w.config)
    for name, arr in w.tr.param_items():
        assert np.array_equal(arr, before[name]), name


def test_adamw_matches_reference_implementation():
    # one parameter, three steps, hand-rolled reference with bias correction
    w, batch = fd_world()
    opt = AdamW()
    config = TrainConfig(lr=0.01, weight_decay=0.05)
    param = w.tr.y_mask
    start = param.copy()
    gs = [SeededRng(40 + t).normal(param.shape) for t in range(3)]

    ref = start.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t, g in enumerate(gs, start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mh = m / (1.0 - 0.9 ** t)
        vh = v / (1.0 - 0.999 ** t)
        ref -= config.lr * (mh / (np.sqrt(vh) + 1e-8) + config.weight_decay * ref)

    for g in gs:
        opt.step(w.tr, {"y_mask": g}, config)
    assert np.allclose(param, ref, rtol=1e-12, atol=1e-15)


def test_scorer_lr_is_scaled_down():
    w, batch = fd_world(train_scorer=True)
    config = TrainConfig(lr=0.01, weight_decay=0.0, scorer_lr_scale=0.1)
    opt = AdamW()
    g = {name: np.ones_like(arr) for name, arr in w.tr.param_items()}
    before_mask = w.tr.y_mask.copy()
    before_emb = w.tr.scorer.emb.copy()
    opt.step(w.tr, g, config)
    d_mask = np.max(np.abs(w.tr.y_mask - before_mask))
    d_emb = np.max(np.abs(w.tr.scorer.emb - before_emb))
    assert d_mask == pytest.approx(0.01, rel=1e-6)
    assert d_emb == pytest.approx(0.001, rel=1e-6)


def test_loss_decreases_on_separable_batch():
    w, _ = fd_world(n_pred=4)
    w.config.lr = 0.01
    batch = [Item(source=w.instance(predicate=0), replay=False),
             Item(source=w.instance(predicate=3), replay=False)]
    opt = AdamW()

    def step():
        loss, grads, _ = batch_loss_and_grads(batch, w.pool, w.tr, w.vocab, w.config)
        opt.step(w.tr, grads, w.config)
        return loss

    first = batch_loss_only(w, batch)
    losses = [step() for _ in range(50)]
    assert losses[0] == pytest.approx(first, rel=1e-12)
    assert losses[-1] < 0.5 * first
    assert batch_loss_only(w, batch) < losses[-1]


def test_naive_config_reduces_surface():
    config = TrainConfig(lam=0.0, naive=True, k_retrieve=3)
    w = TinyWorld(seed=33, config=config, k_retrieve=3)
    batch = [Item(source=w.instance(predicate=1), replay=False)]
    loss, grads, parts = batch_loss_and_grads(batch, w.pool, w.tr, w.vocab, config)
    assert set(parts) == {"l2", "l3"}
    # parts report raw components; lam = 0 zeroes the weighted contribution
    assert loss == pytest.approx(parts["l3"], abs=1e-15)
    assert np.max(np.abs(grads["pool.k"])) == 0.0
    # single prompt segment: exactly one pool entry receives v-gradient
    touched_v = np.flatnonzero(np.abs(grads["pool.v"]).max(axis=(1, 2)) > 0)
    assert len(touched_v) == 1


# -- stage loop -------------------------------------------------------------------


def loop_world(seed=50, **config_kw):
    config = TrainConfig(epochs=2, batch_size=4, k_retrieve=2, lr=0.005,
                         **config_kw)
    w = TinyWorld(seed=seed, n_t=4, n_e=3, n_pred=4, config=config)
    train = [w.instance(predicate=p % w.n_pred, image_id=i)
             for i, p in enumerate(range(12))]
    return w, train_split(train)


def test_train_stage_deterministic():
    results = []
    snapshots = []
    for _ in range(2):
        w, stage = loop_world()
        opt = AdamW()
        out = train_stage(stage, w.pool, w.tr, w.vocab, w.config, opt,
                          SeededRng(7), quota=6)
        results.append(out)
        snapshots.append({name: arr.copy() for name, arr in w.tr.param_items()})
    assert results[0]["epoch_losses"] == results[1]["epoch_losses"]
    assert results[0]["admitted"] == results[1]["admitted"]
    for name in snapshots[0]:
        assert np.array_equal(snapshots[0][name], snapshots[1][name]), name


def test_train_stage_respects_quota_and_counts_steps():
    w, stage = loop_world()
    out = train_stage(stage, w.pool, w.tr, w.vocab, w.config, AdamW(),
                      SeededRng(8), quota=5)
    assert out["admitted"] <= 5
    assert w.pool.total_stored() == out["admitted"]  # pool started empty
    chunk = 4 - round(4 * 0.25)
    per_epoch = (12 + chunk - 1) // chunk
    assert out["steps"] == 2 * per_epoch
    assert len(out["epoch_losses"]) == 2


def test_pool_file_round_trip_mid_run(tmp_path):
    # stage 2 on a pool read back from a file after stage 1 matches stage 2
    # on the original pool: same losses, byte-identical final pool files
    runs = []
    for reload in (False, True):
        w, stage1 = loop_world()
        stage2 = train_split([w.instance(predicate=p % w.n_pred, image_id=i)
                              for i, p in enumerate(range(3, 15))])
        opt = AdamW()
        train_stage(stage1, w.pool, w.tr, w.vocab, w.config, opt, SeededRng(14), quota=6)
        assert w.pool.total_stored() > 0
        if reload:
            serialize_pool(w.pool, tmp_path / "mid.lsgg")
            w.tr.pool = w.pool = deserialize_pool(tmp_path / "mid.lsgg")
        out = train_stage(stage2, w.pool, w.tr, w.vocab, w.config, opt, SeededRng(15), quota=6)
        final = tmp_path / f"final{int(reload)}.lsgg"
        serialize_pool(w.pool, final)
        runs.append((out["epoch_losses"], final.read_bytes()))
    assert runs[0] == runs[1]

    # a file whose stores are all empty: the first admission fixes the widths
    serialize_pool(init_pool(3, 2, 8, w.d_c, 2, SeededRng(16)), tmp_path / "empty.lsgg")
    empty = deserialize_pool(tmp_path / "empty.lsgg")
    assert empty.store_feats == {}
    assert admit(empty, w.instance(predicate=1), SeededRng(17)) is not None
    assert empty.total_stored() == 1
    widths = {kind: f.shape[2] for kind, f in empty.store_feats.items()}
    assert widths == {"c": w.d_c, "r": w.d_r, "s": w.d_o, "o": w.d_o}
    wide = w.instance(predicate=2)
    wide.f_r = np.ones(w.d_r + 1)
    with pytest.raises(ValueError, match="lengths"):
        admit(empty, wide, SeededRng(18))


def test_train_stage_zero_quota_never_admits():
    w, stage = loop_world()
    out = train_stage(stage, w.pool, w.tr, w.vocab, w.config, AdamW(),
                      SeededRng(9), quota=0)
    assert out["admitted"] == 0
    assert w.pool.total_stored() == 0


def test_train_stage_naive_ignores_quota():
    w, stage = loop_world(naive=True)
    out = train_stage(stage, w.pool, w.tr, w.vocab, w.config, AdamW(),
                      SeededRng(10), quota=50)
    assert out["admitted"] == 0


def test_train_stage_rejects_empty_split():
    w, stage = loop_world()
    empty = StageDataset(train=stage.train.take(slice(0, 0)), val=stage.val, test=stage.test)
    with pytest.raises(ValueError):
        train_stage(empty, w.pool, w.tr, w.vocab, w.config, AdamW(), SeededRng(11))


@pytest.mark.parametrize("kind,row", [("r", [0.0] * 5), ("r", [1.0, np.nan, 0, 0, 0]),
                                      ("r", [np.inf, 0, 0, 0, 0]), ("c", [0.0] * 6),
                                      ("c", [np.nan] + [1.0] * 5)])
def test_degenerate_row_raises_before_its_step_admits(kind, row):
    # every visit is offered; the degenerate row is the last of the first
    # step, so the step's other rows would be counted first if each offer
    # were checked as it came; a step refuses before any of its admissions
    w, stage = loop_world()
    for e in range(w.pool.n_t):
        w.fill_store(e, e % 3, start_pred=e)
    chunk = w.config.batch_size - round(w.config.batch_size * w.config.rho)
    bad = SeededRng(12).derive("order").permutation(len(stage.train))[chunk - 1]
    stage.train.feats[kind][bad] = row
    before = copy.deepcopy(w.pool)
    with pytest.raises(ValueError, match="degenerate"):
        train_stage(stage, w.pool, w.tr, w.vocab, w.config, AdamW(), SeededRng(12),
                    quota=1000)
    assert pools_equal(w.pool, before)  # seen counts and store lengths included


def test_stage_quota_formula():
    w = TinyWorld(n_t=4, n_e=3)
    assert stage_quota(w.pool, 5) == (4 * 3) // 5
    assert stage_quota(w.pool, 1) == 12


def test_predict_ranked_is_pure():
    w, stage = loop_world()
    train_stage(stage, w.pool, w.tr, w.vocab, w.config, AdamW(), SeededRng(12),
                quota=6)
    before = {name: arr.copy() for name, arr in w.tr.param_items()}
    stores_before = w.pool.store_len.copy()
    queries = table_of([w.instance(predicate=i % 4) for i in range(5)])
    ranked = predict_ranked(queries, w.pool, w.tr, w.vocab, w.config)
    assert len(ranked) == 5
    for rr in ranked:
        assert len({p for p, _ in rr}) == len(rr)
        assert all(np.isfinite(s) for _, s in rr)
    for name, arr in w.tr.param_items():
        assert np.array_equal(arr, before[name]), name
    assert np.array_equal(w.pool.store_len, stores_before)
    # a different batch split changes BLAS blocking, not the ranking
    again = predict_ranked(queries, w.pool, w.tr, w.vocab, w.config, batch_size=2)
    for ra, rb in zip(again, ranked):
        assert [p for p, _ in ra] == [p for p, _ in rb]
        for (_, sa), (_, sb) in zip(ra, rb):
            assert sa == pytest.approx(sb, abs=1e-9)


# -- checkpoints --------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    w, stage = loop_world()
    train_stage(stage, w.pool, w.tr, w.vocab, w.config, AdamW(), SeededRng(13),
                quota=4)
    path = tmp_path / "ckpt.lsgg"
    echo = config_to_kv(ExperimentConfig(train=w.config))
    save_checkpoint(path, w.tr, echo, "pool.lsgg")
    arrays, config_echo, pool_path = load_checkpoint(path)
    assert pool_path == "pool.lsgg"
    assert config_echo == echo
    assert config_from_kv(config_echo).train == w.config
    assert list(arrays) == [name for name, _ in w.tr.checkpoint_items()]
    for name, arr in w.tr.checkpoint_items():
        assert np.array_equal(arrays[name], arr), name


def test_checkpoint_rejects_malformed(tmp_path):
    path = tmp_path / "ckpt.lsgg"
    path.write_text("LSGG-CKPT 1\npool p.lsgg\n")  # the format before the config echo
    with pytest.raises(CheckpointFormatError, match="header"):
        load_checkpoint(path)
    path.write_text("LSGG-CKPT 2\nmystery record\n")
    with pytest.raises(CheckpointFormatError, match="line 2"):
        load_checkpoint(path)
    path.write_text("LSGG-CKPT 2\nconfig lr=0.1\n")
    with pytest.raises(CheckpointFormatError, match="pool"):
        load_checkpoint(path)
    path.write_text("")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)
    # the first three are LSGG-CKPT 1 records, of the mixing layer and the
    # decoder flag that the arrays and the config echo now carry
    for record in ("scorer_trainable 0", "mapper_meta 64 0", "mapper_kind c 64 4 4",
                   "array foo", "array foo 2 not*b64",
                   f"array foo 3 {pack_floats(np.zeros(2))}"):
        path.write_text(f"LSGG-CKPT 2\npool p.lsgg\n{record}\n")
        with pytest.raises(CheckpointFormatError, match="line 3"):
            load_checkpoint(path)
    # a repeated record is refused, not read over: the pool reference, a
    # config key, or an array name even at another shape
    y_mask = f"array y_mask 2 {pack_floats(np.zeros(2))}"
    for records in (["pool p.lsgg", "config lr=0.1", "pool q.lsgg"],
                    ["pool p.lsgg", "config n_t=5", "# a comment", "config n_t=6"],
                    ["pool p.lsgg", y_mask, f"array y_mask 1,1 {pack_floats(np.zeros(1))}"]):
        path.write_text("\n".join(["LSGG-CKPT 2", *records]) + "\n")
        with pytest.raises(CheckpointFormatError,
                           match=f"line {len(records) + 1}: repeated record"):
            load_checkpoint(path)
