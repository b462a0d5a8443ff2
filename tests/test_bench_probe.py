"""The benchmark's traced probe sees every item the trainer retrieves for,
and the store sizes it reports are the pool's.

``perfbench/probe.py`` wraps ``trainer._select`` only while that name exists,
so a rename would silently zero the traced item counter; this test fails then.
The probe reads store sizes through ``PromptPool.entries``, so a view that
reported wrong sizes would also fail it.
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
    sizes = probe.pool.store_len.tolist()
    assert probe.stages[-1]["store_sizes"] == sizes and any(sizes)
