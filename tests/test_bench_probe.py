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
  reported wrong sizes would fail it.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

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
