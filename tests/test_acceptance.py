"""Acceptance gate: one test per primary requirement, each printing a PASS
line (ordinary pytest failure output marks a FAIL). Budgets are wall-clock
and asserted inside the tests themselves."""

import filecmp
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from lsgg.datastream import SynthConfig, make_schedule, synth_generate
from lsgg.harness import ExperimentConfig, preset_config, run_experiment
from lsgg.metrics import (MetricReport, forgetting_measure, m_at_k,
                          mean_recall_at_k, recall_at_k, score_wtd, weighted_map)
from lsgg.prompt_pool import _relation_norm, _write_slot, init_pool, retrieve_entries
from lsgg.rng import SeededRng
from lsgg.trainer import TrainConfig

from conftest import TinyWorld, finite_diff, grad_rel_err, nearest_exemplar
from oracles import (Item, RelationInstance, admit, append_exemplar, batch_loss_and_grads,
                     cosine_to_rows, tables)
from test_metrics import (make_random_case, oracle_mean_recall, oracle_recall,
                          oracle_weighted_map)


def _passed(name: str) -> None:
    print(f"[ACCEPTANCE] {name}: PASS")


# 1 ---------------------------------------------------------------------------


def test_metric_arithmetic_vs_reference():
    assert score_wtd(65.24, 25.97, 28.39) == pytest.approx(34.79, abs=0.005)
    assert score_wtd(62.08, 24.48, 25.69) == pytest.approx(32.48, abs=0.005)
    assert m_at_k(54.1, 18.6) == pytest.approx(36.35, abs=0.05)
    _passed("metric arithmetic")


# 2 ---------------------------------------------------------------------------


def test_oracle_equivalence_on_random_instances():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    n_cases = 110
    for case in range(n_cases):
        mode = "ids" if case % 2 == 0 else "triplet"
        preds, gt = make_random_case(rng, mode, with_ids=(mode == "ids"))
        for k in (1, 5, 50):
            assert recall_at_k(*tables(preds, gt), k, mode) == oracle_recall(preds, gt, k, mode)
            assert mean_recall_at_k(*tables(preds, gt), k, mode) == \
                oracle_mean_recall(preds, gt, k, mode)
        assert weighted_map(*tables(preds, gt), mode=mode) == \
            pytest.approx(oracle_weighted_map(preds, gt, mode), abs=1e-9)
    for _ in range(n_cases):
        t = rng.randint(2, 6)
        values = [[rng.uniform(0, 100) for _ in range(l + 1)] for l in range(t)]
        expect = sum(
            max(values[l][j] for l in range(j, t - 1)) - values[t - 1][j]
            for j in range(t - 1)
        ) / (t - 1)
        assert forgetting_measure(values) == expect
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    _passed(f"oracle equivalence ({n_cases} instances, {elapsed:.1f}s)")


# 3 ---------------------------------------------------------------------------


def test_gradients_match_finite_differences():
    # d_tok=8, vocabulary of 10 tokens (9 single-word labels + padding), K=2
    t0 = time.perf_counter()
    for train_scorer in (False, True):
        config = TrainConfig(lam=0.5, k_retrieve=2)
        w = TinyWorld(seed=77, d_tok=8, n_t=4, n_p=2, n_e=3, n_pred=9, k_retrieve=2,
                      train_scorer=train_scorer, config=config)
        assert w.vocab.n_word_tokens == 10
        for e in range(w.pool.n_t):
            w.fill_store(e, 2, start_pred=e)
        batch = [Item(source=w.instance(predicate=1), replay=False),
                 Item(source=w.instance(predicate=4), replay=False),
                 Item(source=w.instance(predicate=2), replay=True)]

        def loss_only():
            return batch_loss_and_grads(batch, w.pool, w.tr, w.vocab, w.config)[0]

        _, grads, _ = batch_loss_and_grads(batch, w.pool, w.tr, w.vocab, w.config)
        checked = 0
        for name, arr in w.tr.param_items():
            numeric = finite_diff(loss_only, arr)
            if np.max(np.abs(numeric)) < 1e-12 and np.max(np.abs(grads[name])) < 1e-12:
                continue
            assert grad_rel_err(grads[name], numeric) < 1e-4, (train_scorer, name)
            checked += 1
        want = {"mapper.", "pool.v", "pool.k", "y_mask"}
        if train_scorer:
            want |= {"scorer.emb", "scorer.readout", "scorer.pos_weight"}
        touched = {name for name, g in grads.items() if np.max(np.abs(g)) > 0}
        for prefix in want:
            assert any(t.startswith(prefix) for t in touched), prefix
        assert checked >= 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    _passed(f"finite-difference gradients ({elapsed:.1f}s)")


# 4 ---------------------------------------------------------------------------


def light_instance(rng: SeededRng, d_c, d_r, predicate=0):
    return RelationInstance(image_id=0, f_c=rng.normal(d_c), f_r=rng.normal(d_r),
                            f_s=rng.normal(2), f_o=rng.normal(2),
                            subject_class=0, object_class=1, predicate=predicate)


def test_retrieval_equals_full_sort_oracles():
    # two-layer oracle: similarity values are checked against the independent
    # per-row cosine formula at 1e-12, and the selection itself against a full
    # stdlib sort of those values. A matvec and a scalar dot can differ in the
    # last ulp, so near-tie ORDER is only meaningful on one value set; exact
    # ties come from bit-identical duplicated rows and are asserted as such.
    t0 = time.perf_counter()
    rng = SeededRng(4040)
    n_pools = 1000
    for trial in range(n_pools):
        n_t = 1 + rng.randint(24)
        d_c, d_r = 2 + rng.randint(8), 2 + rng.randint(6)
        pool = init_pool(n_t, 1, 4, d_c, 4, rng.derive("pool", trial))
        tied = trial % 4 == 0 and n_t >= 3
        if tied:
            # one-hot keys: their dot products have a single nonzero term, so
            # the tie is bitwise exact under any BLAS kernel or blocking
            onehot = np.zeros(d_c)
            onehot[0] = 1.0
            for i in (0, 1, n_t - 1):
                pool.keys[i] = onehot
        query = (pool.keys[rng.randint(n_t)].copy() if trial % 5 == 0
                 else rng.normal(d_c))

        k = 1 + rng.randint(n_t)
        top, got_sims, _, _ = retrieve_entries(pool.keys, query[None], k)
        sims = cosine_to_rows(query, pool.keys)
        qn = float(np.linalg.norm(query))
        for i, key in enumerate(pool.keys):
            ind = float(np.dot(query, key)) / (qn * float(np.linalg.norm(key)))
            assert abs(float(sims[i]) - ind) < 1e-12, trial
        if tied:
            assert sims[0] == sims[1] == sims[n_t - 1], trial
        expect = sorted(range(n_t), key=lambda i: (-sims[i], i))[:k]
        assert top[0].tolist() == expect, trial
        assert np.array_equal(got_sims[0], sims), trial

        # exemplar top-1, with duplicated relation features forcing ties
        n_store = rng.randint(5)
        for j in range(n_store):
            inst = light_instance(rng.derive("ex", trial, j), d_c, d_r, predicate=j)
            append_exemplar(pool, 0, inst)
        dup_ex = n_store >= 2 and trial % 3 == 0
        if dup_ex:
            onehot_r = np.zeros(d_r)
            onehot_r[-1] = 1.0
            for slot, label in ((1, 99), (n_store - 1, 77)):
                _write_slot(pool, 0, slot, {"c": rng.normal(d_c), "r": onehot_r,
                                            "s": rng.normal(2), "o": rng.normal(2)}, label,
                            _relation_norm(onehot_r))
        q_r = rng.normal(d_r)
        got_ex = nearest_exemplar(pool, 0, q_r)
        if not n_store:
            assert got_ex is None
        else:
            stored_r = pool.store_feats["r"][0, :n_store]
            ex_sims = cosine_to_rows(q_r, stored_r)
            qn_r = float(np.linalg.norm(q_r))
            for j, f_r in enumerate(stored_r):
                ind = float(np.dot(q_r, f_r)) / (qn_r * float(np.linalg.norm(f_r)))
                assert abs(float(ex_sims[j]) - ind) < 1e-12, trial
            if dup_ex:
                assert ex_sims[1] == ex_sims[n_store - 1], trial
            best, best_s = None, -np.inf
            for j, s in enumerate(ex_sims):  # strict > keeps the earliest on ties
                if s > best_s:
                    best, best_s = j, float(s)
            assert got_ex == best, trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    _passed(f"retrieval vs full sort ({n_pools} pools, {elapsed:.1f}s)")


# 5 ---------------------------------------------------------------------------


def test_continual_learning_direction():
    # default benchmark (5 stages x 10 classes); epochs reduced via the public
    # config knob to fit the runtime budget, everything else at defaults
    t0 = time.perf_counter()
    base = ExperimentConfig()
    base.train.epochs = 5
    seeds = base.seeds
    finals, per_seed = {}, {}
    for name in ("full", "wo_inc", "wo_kap"):
        cfg = preset_config(base, name)
        mrs, fms = [], []
        for seed in seeds:
            bundle = run_experiment(cfg, seed=seed)
            mrs.append(bundle.final_report().mr[50])
            fms.append(bundle.fm[50])
        finals[name] = (sum(mrs) / len(mrs), sum(fms) / len(fms))
        per_seed[name] = (" ".join(f"{v:.2f}" for v in mrs), " ".join(f"{v:.2f}" for v in fms))
    full_mr, full_fm = finals["full"]
    inc_mr, inc_fm = finals["wo_inc"]
    kap_mr, _ = finals["wo_kap"]
    seeds_line = "; ".join(f"{name} mR@50 [{mr}] FM@50 [{fm}]"
                           for name, (mr, fm) in per_seed.items())
    assert full_mr > inc_mr, \
        f"final mR@50 {full_mr:.2f} vs w/o-inc {inc_mr:.2f} (per seed: {seeds_line})"
    assert full_fm < inc_fm, \
        f"FM@50 {full_fm:.2f} vs w/o-inc {inc_fm:.2f} (per seed: {seeds_line})"
    assert kap_mr < full_mr, \
        f"w/o-kap mR@50 {kap_mr:.2f} vs full {full_mr:.2f} (per seed: {seeds_line})"
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    _passed(
        f"direction: mR@50 full {full_mr:.2f} > w/o-inc {inc_mr:.2f}, "
        f"FM@50 full {full_fm:.2f} < w/o-inc {inc_fm:.2f}, "
        f"w/o-kap {kap_mr:.2f} < full ({elapsed:.0f}s); per seed {seeds}: {seeds_line}"
    )


# 6 ---------------------------------------------------------------------------


def test_reservoir_retention_statistics():
    # 50 independent stores x 200 offers = 10^4 admissions, capacity 20:
    # every arrival index must survive with frequency n_e/N = 0.1
    t0 = time.perf_counter()
    n_stores, n_offers, n_e = 50, 200, 20
    rng = SeededRng(606)
    decile_counts = [0] * 10
    for s in range(n_stores):
        pool = init_pool(1, 1, 2, 3, n_e, rng.derive("pool", s))
        arrivals = {}
        for i in range(n_offers):
            inst = light_instance(rng.derive("inst", s, i), 3, 2, predicate=i)
            admit(pool, inst, rng)
            arrivals[i] = inst.predicate
        assert pool.store_len[0] == n_e
        assert pool.seen[0] == n_offers
        for label in pool.store_labels[0]:
            decile_counts[label * 10 // n_offers] += 1

    p = n_e / n_offers
    per_decile_trials = n_stores * (n_offers // 10)
    expect = per_decile_trials * p
    sigma = (per_decile_trials * p * (1 - p)) ** 0.5
    for d, count in enumerate(decile_counts):
        assert abs(count - expect) <= 3.0 * sigma, \
            f"decile {d}: {count} vs {expect:.0f} +- {3 * sigma:.0f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"{elapsed:.1f}s"
    _passed(f"reservoir retention within 3 sigma ({elapsed:.1f}s)")


# 7 ---------------------------------------------------------------------------


def acceptance_config() -> ExperimentConfig:
    synth = SynthConfig(n_pred=10, n_groups=2, n_obj=6, d_c=8, d_r=8, d_o=4,
                        sigma=0.3, zipf_s=0.5, total_n=300, pairs_per_image=3)
    train = TrainConfig(epochs=1, batch_size=16, k_retrieve=2, lr=0.005)
    return ExperimentConfig(synth=synth, train=train, n_stages=2, n_t=8, n_e=4,
                            n_p=2, d_tok=8, token_preset="small", seeds=(0,),
                            eval_ks=(5, 20))


def test_run_files_are_byte_identical(tmp_path):
    names = ["results.csv", "matrix.csv", "fm.csv", "manifest.json",
             "predictions_final.txt", "gt_final.txt", "pool.lsgg",
             "checkpoint.lsgg", "vocab.txt"]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(acceptance_config(), seed=3, run_dir=dir_a)
    run_experiment(acceptance_config(), seed=3, run_dir=dir_b)
    for name in names:
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False), name
    _passed(f"byte-identical run files ({len(names)} files)")


# 8 ---------------------------------------------------------------------------


def test_protocol_invariants_enforced(tmp_path, monkeypatch):
    # (a) the run's schedule gives every predicate exactly one stage in
    # 0..T-1, and no stage is empty
    cfg = acceptance_config()
    rng = SeededRng(5)
    data, _ = synth_generate(cfg.synth, rng.derive("data"))
    schedule = make_schedule(data, cfg.synth.n_pred, cfg.n_stages, cfg.schedule_mode,
                             rng.derive("schedule"))
    assert schedule.shape == (cfg.synth.n_pred,)
    assert np.array_equal(np.unique(schedule), np.arange(cfg.n_stages))

    # (b) stage isolation: each training call sees only that stage's labels
    import lsgg.harness as harness
    from lsgg.trainer import train_stage as real_train_stage

    seen = []

    def spy(stage, *args, **kwargs):
        seen.append(np.unique(stage.train.take().pred).tolist())
        return real_train_stage(stage, *args, **kwargs)

    monkeypatch.setattr(harness, "train_stage", spy)
    bundle = run_experiment(cfg, seed=5, run_dir=tmp_path / "run")
    assert len(seen) == cfg.n_stages
    for t, labels in enumerate(seen):
        assert np.all(schedule[labels] == t)

    # (c) pool capacity bounds are live assertions
    pool = init_pool(1, 1, 2, 3, 2, SeededRng(6))
    pool.check_invariants()
    rng = SeededRng(7)
    for i in range(5):
        admit(pool, light_instance(rng.derive(i), 3, 2), rng)
    pool.check_invariants()
    pool.store_len[0] += 1  # force an overflow
    with pytest.raises(AssertionError):
        pool.check_invariants()

    # (d) M@K exactness is checked on every report the run produced
    for rep in bundle.reports:
        rep.check_invariants()
        for k in rep.m:
            assert rep.m[k] == (rep.r[k] + rep.mr[k]) / 2.0
    broken = MetricReport(stage=0, r={5: 10.0}, mr={5: 20.0}, m={5: 15.0 + 1e-12})
    with pytest.raises(AssertionError):
        broken.check_invariants()
    _passed("protocol invariants (schedule, isolation, capacity, M@K)")
