"""End-to-end smoke of the command-line surface on a miniature dataset."""

import numpy as np
import pytest

from lsgg.cli import main
from lsgg.datastream import SynthConfig, load_embeddings, save_embeddings, synth_generate
from lsgg.harness import load_comparison_csv
from lsgg.rng import SeededRng


def write_tiny_config(path, total_n=200):
    path.write_text(
        "synth.n_pred=8\nsynth.n_groups=2\nsynth.n_obj=6\n"
        "synth.d_c=8\nsynth.d_r=8\nsynth.d_o=4\nsynth.sigma=0.3\n"
        f"synth.zipf_s=0.5\nsynth.total_n={total_n}\nsynth.pairs_per_image=3\n"
        "train.epochs=1\ntrain.batch_size=16\ntrain.k_retrieve=2\n"
        "n_stages=2\nn_t=6\nn_e=4\nn_p=2\nd_tok=8\ntoken_preset=small\n"
        "seeds=0\neval_ks=5,20\n"
    )


def test_synth_and_split_commands(tmp_path, capsys):
    data = tmp_path / "data.lsgg"
    vocab = tmp_path / "vocab.txt"
    rc = main(["synth", "--out", str(data), "--vocab-out", str(vocab),
               "--n-pred", "6", "--n-groups", "2", "--n-obj", "5",
               "--d-c", "8", "--d-r", "8", "--d-o", "4",
               "--total-n", "120", "--pairs-per-image", "3", "--seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote 120 instances" in out
    dataset = load_embeddings(data)
    assert len(dataset) == 120
    assert vocab.exists()

    sched = tmp_path / "schedule.txt"
    rc = main(["split", "--dataset", str(data), "--out", str(sched),
               "--stages", "3", "--mode", "frequency"])
    assert rc == 0
    lines = sched.read_text().splitlines()
    assert len(lines) == 3
    labels = [int(t) for ln in lines for t in ln.split()[1:]]
    assert sorted(labels) == list(range(6))


def test_split_writes_the_schedule_the_run_uses(tmp_path):
    # a dataset of predicates {0, 1, 3, 4}: a run schedules 0..4, the absent
    # 2 among them, and so must the split command
    cfg = SynthConfig(n_pred=5, n_groups=1, n_obj=5, d_c=4, d_r=4, d_o=4, total_n=60,
                      pairs_per_image=3)
    dataset, _ = synth_generate(cfg, SeededRng(0).derive("data"))
    data = tmp_path / "gap.lsgg"
    save_embeddings(dataset.take(np.flatnonzero(dataset.pred != 2)), data, n_pred=5)
    assert sorted(set(load_embeddings(data).pred.tolist())) == [0, 1, 3, 4]
    sched = tmp_path / "schedule.txt"
    for mode, want in (("random", "stage 0 3 4\nstage 1 2\n"),
                       ("frequency", None)):
        assert main(["split", "--dataset", str(data), "--out", str(sched), "--stages", "2",
                     "--mode", mode, "--seed", "0"]) == 0
        stages = [[int(t) for t in line.split()[1:]] for line in sched.read_text().splitlines()]
        assert sorted(sum(stages, [])) == [0, 1, 2, 3, 4]
        if want is not None:
            assert sched.read_text() == want
        else:  # the absent predicate has the fewest instances: the tail stage
            assert 2 in stages[-1]


def test_train_then_eval_commands(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    write_tiny_config(cfg)
    out_dir = tmp_path / "out"
    rc = main(["train", "--config", str(cfg), "--out", str(out_dir), "--seed", "0"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "final R@5=" in stdout and "FM@5=" in stdout and "score_wtd=" in stdout
    run_dir = out_dir / "run_seed0"
    assert (run_dir / "results.csv").exists()

    rc = main(["eval", "--dump", str(run_dir / "predictions_final.txt"),
               "--gt", str(run_dir / "gt_final.txt"), "--k", "5", "--wmap"])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "R@5=" in stdout and "wmAP_ids=" in stdout and "score_wtd=" in stdout
    assert "wmAP_rel=" not in stdout  # ids mode computes and prints one wmAP
    # M@K line is the exact mean of the two lines above it
    vals = {ln.split("=")[0]: float(ln.split("=")[1])
            for ln in stdout.strip().splitlines()}
    assert vals["M@5"] == pytest.approx((vals["R@5"] + vals["mR@5"]) / 2, abs=5e-5)
    assert vals["score_wtd"] == pytest.approx(0.2 * vals["R@5"] + 0.8 * vals["wmAP_ids"],
                                              abs=2e-4)


def test_ablate_and_report_commands(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    write_tiny_config(cfg, total_n=160)
    out_dir = tmp_path / "suite"
    rc = main(["ablate", "--config", str(cfg), "--out", str(out_dir),
               "--presets", "full,wo_inc", "--seed", "0"])
    assert rc == 0
    capsys.readouterr()
    table = load_comparison_csv(out_dir / "comparison.csv")
    assert set(table) == {"full", "w/o-inc"}

    rc = main(["report", "--comparison", str(out_dir / "comparison.csv")])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "config" in stdout and "w/o-inc" in stdout


def test_cli_rejects_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
