"""The benchmark's traced probe sees every item the trainer retrieves for,
one metric call per stage, and the pool's store sizes.

``perfbench/probe.py`` wraps names of the program and counts what passes
through them, so a renamed or bypassed name silently loses a count; this
test fails then:
- ``trainer._select`` is wrapped only while that name exists, and a rename
  would zero the traced item counter;
- the harness calls ``weighted_map`` once per stage through its module-level
  name, and each call is a calibration-kernel point, so a harness that
  stopped calling it by that name would drop kernel points;
- the store sizes are read through ``PromptPool.entries``, so a view that
  reported wrong sizes would fail it;
- the throughput denominators are ``len()`` of ``train_stage``'s split and
  of ``predict_ranked``'s first argument, so a split type whose ``len()``
  counted anything but rows would skew them;
- admissions are counted by wrapping ``admit_exemplar`` in ``trainer``'s
  namespace, and the checks fail a round whose count differs from
  ``train_stage``'s ``admitted``. So every offered row must make exactly
  one call through that name: a trainer that batched several offers into
  one call, or imported the function under another name, would fail every
  round as outputs_incorrect;
- evaluation rows are counted only inside ``predict_ranked``, so each stage
  must make one call through the harness's name, and that call must build
  its own token table: a table built outside it would drop its exemplar
  encodes from ``token_mapper.encode_eval_rows``.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import pytest  # noqa: E402

from lsgg.datastream import make_schedule, make_stage_datasets, synth_generate  # noqa: E402
from lsgg.rng import SeededRng  # noqa: E402
from lsgg.trainer import EVAL_BATCH  # noqa: E402

import run  # noqa: E402
from test_checks import small_config  # noqa: E402


def test_traced_round_counts_replayed_items(tmp_path):
    cfg = small_config()
    rnd = run.run_round(cfg, 0, str(tmp_path / "run"), True, time.perf_counter())
    assert rnd["failed"] == 0 and rnd["problems"] == []
    query_items = rnd["train_items"]
    retrieved = rnd["probe"].counts["trainer.train_items"]
    # every training batch goes through retrieval: its query items plus the
    # items replayed from the pool
    assert retrieved > query_items > 0
    probe = rnd["probe"]
    assert probe.counts["metrics.calls"] == cfg.n_stages
    sizes = probe.pool.store_len.tolist()
    assert probe.stages[-1]["store_sizes"] == sizes and any(sizes)


@pytest.mark.parametrize("mode", ["random", "frequency"])
def test_round_denominators_count_split_rows(tmp_path, mode):
    # train_items = epochs x the train splits' rows; eval_instances = after
    # each stage t, the test rows of every task j <= t; both from the splits
    # make_stage_datasets gives on the round's config and seed
    cfg = small_config()
    cfg.schedule_mode = mode
    rnd = run.run_round(cfg, 0, str(tmp_path / "run"), False, time.perf_counter())
    assert rnd["failed"] == 0 and rnd["problems"] == []
    rng = SeededRng(0)
    data, _ = synth_generate(cfg.synth, rng.derive("data"))
    schedule = make_schedule(data, cfg.synth.n_pred, cfg.n_stages, mode, rng.derive("schedule"))
    stages = make_stage_datasets(data, schedule, cfg.split_fractions)
    n_test = [len(stage.test) for stage in stages]
    # one admit_exemplar call per offered row: min(quota, visits) per stage
    quota = (cfg.n_t * cfg.n_e) // cfg.n_stages
    offers = sum(min(quota, cfg.train.epochs * len(stage.train)) for stage in stages)
    assert rnd["probe"].counts["prompt_pool.admit_attempts"] == offers
    assert rnd["train_items"] == cfg.train.epochs * sum(len(stage.train) for stage in stages)
    assert rnd["eval_instances"] == sum(sum(n_test[: t + 1]) for t in range(cfg.n_stages))


def test_traced_round_counts_every_row_evaluation_encodes(tmp_path):
    # one predict_ranked call per stage encodes the stage's filled store
    # slots once into its table, then each evaluated instance's query rows,
    # and zero rows padding the last batch to a full EVAL_BATCH
    cfg = small_config()
    rnd = run.run_round(cfg, 0, str(tmp_path / "run"), True, time.perf_counter())
    assert rnd["failed"] == 0 and rnd["problems"] == []
    probe = rnd["probe"]
    calls = [span for span in probe.spans if span[0] == "trainer.predict_ranked"]
    assert len(calls) == cfg.n_stages
    slots = [sum(stage["store_sizes"]) for stage in probe.stages]
    evaluated = [stage["eval_instances"] for stage in probe.stages]
    padding = [-n % EVAL_BATCH for n in evaluated]
    assert all(slots) and all(evaluated)
    want = sum(slots) + sum(evaluated) + sum(padding)
    for kind in ("c", "r", "s", "o"):
        assert probe.counts[f"encode_eval_rows.{kind}"] == want, kind
