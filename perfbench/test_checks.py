"""The benchmark's output checks pass on a real round of a small config and
reject corrupted outputs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from lsgg.datastream import SynthConfig  # noqa: E402
from lsgg.harness import ExperimentConfig  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402


def small_config():
    cfg = ExperimentConfig(synth=SynthConfig(n_pred=10, n_groups=2, total_n=600),
                           n_stages=2, n_t=8, n_e=4, n_p=2, d_tok=16)
    cfg.train.epochs = 1
    return cfg


@pytest.fixture(scope="module")
def real_round(tmp_path_factory):
    """One checked round; its run files stay for the corruption tests."""
    cfg = small_config()
    run_dir = str(tmp_path_factory.mktemp("round") / "run")
    return cfg, run.run_round(cfg, 0, run_dir, False, None), run_dir


@pytest.fixture
def run_copy(real_round, tmp_path):
    _, rnd, kept = real_round
    path = str(tmp_path / "run")
    shutil.copytree(kept, path)
    return path, rnd["probe"].stages[-1]["eval_instances"]


def test_checks_pass_on_a_real_round(real_round):
    cfg, rnd, kept = real_round
    assert rnd["failed"] == 0 and rnd["ops"] == cfg.n_stages + 1
    assert rnd["problems"] == []
    assert checks.check_final(kept, rnd["probe"].stages[-1]["eval_instances"],
                              cfg.eval_ks) == []
    assert rnd["run_s"] > 0 and rnd["train_items_per_s"] > 0


def _edit_line(path, pick, edit):
    with open(path) as fh:
        lines = fh.readlines()
    i = next(i for i, line in enumerate(lines) if pick(line))
    lines[i] = edit(lines[i])
    with open(path, "w") as fh:
        fh.writelines(lines)


def test_flipped_predicate_is_rejected(run_copy, real_round):
    path, n = run_copy
    gts = {(g[0], g[1]): g for g in checks.read_gt(os.path.join(path, "gt_final.txt"))}

    def is_hit(line):
        p = [int(t) for t in line.split()[:5]] + [int(line.split()[-1])]
        return gts[(p[0], p[5])][2:] == tuple(p[2:5])

    def flip(line):
        toks = line.split()
        toks[3] = str((int(toks[3]) + 1) % real_round[0].synth.n_pred)
        return " ".join(toks) + "\n"

    _edit_line(os.path.join(path, "predictions_final.txt"), is_hit, flip)
    problems = checks.check_final(path, n, real_round[0].eval_ks)
    assert any(p.startswith("R@") for p in problems)


def test_edited_matrix_cell_is_rejected(run_copy, real_round):
    path, n = run_copy

    def bump(line):
        cells = line.rstrip("\n").split(",")
        cells[2] = repr(float(cells[2]) + 0.5)
        return ",".join(cells) + "\n"

    # stage 2, task 1: the final accuracy of a task that FM compares with its best
    _edit_line(os.path.join(path, "matrix.csv"), lambda ln: ln.startswith("2,1,"), bump)
    problems = checks.check_final(path, n, real_round[0].eval_ks)
    assert any(p.startswith("FM@") for p in problems)


def test_dropped_dump_line_is_rejected(run_copy, real_round):
    path, n = run_copy
    dump = os.path.join(path, "predictions_final.txt")
    with open(dump) as fh:
        lines = fh.readlines()
    with open(dump, "w") as fh:
        fh.writelines(lines[1:])
    problems = checks.check_final(path, n, real_round[0].eval_ks)
    assert any("predictions_final.txt has" in p for p in problems)


def test_step_count_mismatch_is_rejected(real_round):
    cfg, rnd, _ = real_round
    t = len(rnd["probe"].stages) - 1
    rec = dict(rnd["probe"].stages[t])
    report = rnd["bundle"].reports[t]
    assert checks.check_stage(t, rec, report, cfg) == []
    rec["steps_counted"] += 1
    problems = checks.check_stage(t, rec, report, cfg)
    assert any("AdamW.step calls counted" in p for p in problems)
