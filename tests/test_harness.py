"""Experiment orchestration: presets, config files, full-run determinism,
result files, and comparison reports."""

import filecmp
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from lsgg.datastream import SynthConfig, save_embeddings, synth_generate
from lsgg.harness import (ABLATION_SUITE, PRESETS, ExperimentConfig,
                          _rank_pairs, config_diff, config_from_kv, config_to_kv,
                          load_comparison_csv, load_config_file, preset_config,
                          report, run_ablation_suite, run_experiment, summarize)
from lsgg.metrics import load_gt, load_predictions, mean_recall_at_k, recall_at_k
from lsgg.prompt_pool import deserialize_pool
from lsgg.scorer import load_vocab
from lsgg.rng import SeededRng
from lsgg.trainer import TrainConfig, load_checkpoint


def tiny_config(**kw) -> ExperimentConfig:
    synth = SynthConfig(n_pred=8, n_groups=2, n_obj=6, d_c=8, d_r=8, d_o=4,
                        sigma=0.3, zipf_s=0.5, total_n=240, pairs_per_image=3)
    train = TrainConfig(epochs=1, batch_size=16, k_retrieve=2, lr=0.005)
    base = dict(synth=synth, train=train, n_stages=2, n_t=6, n_e=4, n_p=2,
                d_tok=8, token_preset="default", seeds=(0,),
                eval_ks=(5, 20))
    base.update(kw)
    return ExperimentConfig(**base)


# -- presets and config plumbing -----------------------------------------------


def test_presets_change_exactly_their_knob():
    base = tiny_config()
    for name, (_, knob, _) in PRESETS.items():
        cfg = preset_config(base, name)
        assert config_diff(base, cfg) == ([] if knob is None else [knob]), name
        # deep copies: mutating the preset never touches the base
        assert cfg.train is not base.train and cfg.synth is not base.synth
    assert set(ABLATION_SUITE) == set(PRESETS) - {"w_ft"}
    with pytest.raises(ValueError):
        preset_config(base, "bogus")


def test_preset_accepts_display_spelling():
    base = tiny_config()
    assert preset_config(base, "w/o-kap").train.random_prompts
    assert preset_config(base, "w-1k").n_e == base.n_e // 2


def test_config_kv_round_trip():
    cfg = tiny_config(dataset_path="data.lsgg", schedule_mode="frequency",
                      train_scorer=True, seeds=(3, 4), split_fractions=(0.5, 0.25, 0.25))
    cfg.train.rho = 0.125
    kv = config_to_kv(cfg)
    back = config_from_kv(kv)
    assert back == cfg
    assert kv["dataset_path"] == "data.lsgg"
    assert kv["train.rho"] == "0.125"
    assert kv["vocab_path"] == "none"


def test_config_from_kv_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_kv({"n_bogus": "3"})
    for key in ("train.bogus", "train.alpha", "train.l1_mode"):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_kv({key: "3"})
    with pytest.raises(ValueError):
        config_from_kv({"train_scorer": "yes"})
    for section in ("train", "synth", "train."):
        with pytest.raises(ValueError, match=f"config key '{section}' names a section"):
            config_from_kv({section: "x"})


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# tiny run\nn_stages=3\ntrain.epochs = 7\nseeds=1,2\n\n")
    cfg = load_config_file(path)
    assert cfg.n_stages == 3
    assert cfg.train.epochs == 7
    assert cfg.seeds == (1, 2)
    path.write_text("n_stages\n")
    with pytest.raises(ValueError, match="line 1"):
        load_config_file(path)
    path.write_text("n_stages=3\ntrain=x\n")
    with pytest.raises(ValueError, match="'train' names a section"):
        load_config_file(path)
    # a repeated key is refused, not overwritten; a bad value names its line
    for text, match in (("n_t=100\n# again\nn_t=7\n", "line 3: repeated record 'n_t'"),
                        ("train.lr=0.1\ntrain.lr = 0.2\n", "line 2: repeated record"),
                        ("n_stages=3\n\nn_t=abc\n", "line 3: invalid literal"),
                        ("seeds=1,x\n", "line 1: invalid literal"),
                        ("train.naive=yes\n", "line 1: expected true/false"),
                        ("n_stages=3\nn_tt=4\n", "line 2: unknown config key")):
        path.write_text(text)
        with pytest.raises(ValueError, match=match):
            load_config_file(path)


def test_load_comparison_csv_refuses_a_repeated_config(tmp_path):
    path = tmp_path / "comparison.csv"
    path.write_text("config,seeds,mR@50_mean\nfull,1,12.5\nw/o-inc,1,10.5\nfull,1,3.0\n")
    with pytest.raises(ValueError, match="line 4: repeated record 'full'"):
        load_comparison_csv(path)


def test_config_validation():
    tiny_config().validate()
    for bad in (tiny_config(schedule_mode="alphabetical"),
                tiny_config(token_preset="xl"),
                tiny_config(n_stages=0),
                tiny_config(seeds=()),
                tiny_config(eval_ks=(0,))):
        with pytest.raises(ValueError):
            bad.validate()


# -- full runs -------------------------------------------------------------------


def test_run_experiment_protocol_shape():
    cfg = tiny_config()
    bundle = run_experiment(cfg, seed=0)
    assert len(bundle.reports) == cfg.n_stages
    for t, rep in enumerate(bundle.reports):
        assert rep.stage == t
        for k in cfg.eval_ks:  # stage t measured tasks 0..t
            row = bundle.matrices[k].values[t]
            assert len(row) == t + 1 and None not in row
        for k in cfg.eval_ks:
            assert 0.0 <= rep.r[k] <= 100.0
            assert rep.m[k] == (rep.r[k] + rep.mr[k]) / 2.0  # exact
        assert 0.0 <= rep.wmap <= 100.0
        r_low = rep.r[min(cfg.eval_ks)]
        assert rep.score == 0.2 * r_low + 0.4 * rep.wmap + 0.4 * rep.wmap  # exact
        assert rep.score is not None
    for k in cfg.eval_ks:
        assert bundle.matrices[k].is_complete()
        assert k in bundle.fm
    assert len(bundle.stage_seconds) == cfg.n_stages


def test_run_experiment_single_stage_has_no_fm():
    bundle = run_experiment(tiny_config(n_stages=1), seed=0)
    assert bundle.fm == {}
    assert len(bundle.reports) == 1
    for k in bundle.matrices:  # stage 0 measured task 0
        assert bundle.matrices[k].values == [[bundle.matrices[k].get(0, 0)]]


def test_rank_pairs_matches_sorted_oracle():
    # few distinct confidences, so many pairs of one image tie exactly
    rng = SeededRng(31)
    for trial in range(20):
        n = 1 + rng.randint(60)
        images = np.array([rng.randint(8) for _ in range(n)])
        confs = np.array([(0.25, 0.5, 1e-300, 0.5 + 2**-52)[rng.randint(4)] for _ in range(n)])
        gids = np.zeros(n, dtype=np.int64)
        for img in np.unique(images):  # occurrence index within the image
            at = np.flatnonzero(images == img)
            gids[at] = rng.permutation(at.size)
        order, ranks = _rank_pairs(images, confs, gids)
        want = []
        for img in sorted(set(images.tolist())):
            rows = sorted((i for i in range(n) if images[i] == img),
                          key=lambda i: (-confs[i], gids[i]))
            want += [(i, r) for r, i in enumerate(rows, start=1)]
        assert list(zip(order.tolist(), ranks.tolist())) == want, trial


RESULT_FILES = ["results.csv", "matrix.csv", "fm.csv", "manifest.json",
                "predictions_final.txt", "gt_final.txt", "pool.lsgg",
                "checkpoint.lsgg", "vocab.txt"]


def test_run_files_byte_identical_across_reruns(tmp_path):
    cfg = tiny_config()
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, seed=1, run_dir=dir_a)
    run_experiment(tiny_config(), seed=1, run_dir=dir_b)
    for name in RESULT_FILES:
        pa, pb = dir_a / name, dir_b / name
        assert pa.exists() and pb.exists(), name
        assert filecmp.cmp(pa, pb, shallow=False), name
    assert (dir_a / "timings.log").exists()  # quarantined, not compared


def test_a_run_from_a_saved_dataset_writes_the_in_memory_run_files(tmp_path):
    # the LSGG-EMB path end to end: the same synthetic data, saved and read
    # back, gives the same run; only the config echo's dataset_path differs
    cfg = ExperimentConfig()
    cfg.synth.total_n = 1200
    cfg.train.epochs = 1
    run_experiment(cfg, seed=0, run_dir=tmp_path / "memory")
    data, _ = synth_generate(cfg.synth, SeededRng(0).derive("data"))
    path = tmp_path / "data.emb"
    save_embeddings(data, path, n_obj=cfg.synth.n_obj, n_pred=cfg.synth.n_pred)
    cfg.dataset_path = str(path)
    run_experiment(cfg, seed=0, run_dir=tmp_path / "file")
    for name in RESULT_FILES:
        lines_a = (tmp_path / "memory" / name).read_bytes().splitlines()
        lines_b = (tmp_path / "file" / name).read_bytes().splitlines()
        assert len(lines_a) == len(lines_b), name
        differ = [b for a, b in zip(lines_a, lines_b) if a != b]
        if name in ("manifest.json", "checkpoint.lsgg"):
            assert len(differ) == 1 and b"dataset_path" in differ[0], name
            assert str(path).encode() in differ[0], name
        else:
            assert not differ, name


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The default model (50 predicates, 5 stages) cut to one epoch on 2,000
# instances: with two OpenBLAS threads and none set by lsgg, its run files
# differed from those of one thread in their last bits. The much smaller
# acceptance and benchmark-check configs gave the same bits at both counts.
THREADED_RUN = """
import sys
from lsgg.harness import ExperimentConfig, run_experiment
sys.path.insert(0, sys.argv[2])
from run import blas_info
cfg = ExperimentConfig()
cfg.synth.total_n = 2000
cfg.train.epochs = 1
run_experiment(cfg, seed=0, run_dir=sys.argv[1])
print(blas_info()["blas_threads"])
"""


def test_run_files_do_not_depend_on_blas_threads(tmp_path):
    threads = {}
    for n in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n,
                   PYTHONPATH=os.path.join(ROOT, "src"))
        out = subprocess.run([sys.executable, "-c", THREADED_RUN, str(tmp_path / n),
                              os.path.join(ROOT, "perfbench")],
                             env=env, capture_output=True, text=True, check=True)
        threads[n] = out.stdout.split()[-1]
    # importing lsgg sets one BLAS thread whatever the environment asked for
    assert threads == {"1": "1", "2": "1"}
    for name in RESULT_FILES:
        assert filecmp.cmp(tmp_path / "1" / name, tmp_path / "2" / name, shallow=False), name


def test_run_files_depend_on_seed(tmp_path):
    cfg = tiny_config()
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_experiment(cfg, seed=0, run_dir=dir_a)
    run_experiment(cfg, seed=1, run_dir=dir_b)
    assert not filecmp.cmp(dir_a / "results.csv", dir_b / "results.csv", shallow=False)


def test_run_files_are_reloadable_and_consistent(tmp_path):
    cfg = tiny_config()
    run_dir = tmp_path / "run"
    bundle = run_experiment(cfg, seed=0, run_dir=run_dir)

    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["seed"] == 0
    assert manifest["config"] == config_to_kv(cfg)
    assert config_from_kv(manifest["config"]) == cfg
    assert manifest["file_formats"]["checkpoint"] == 2

    pool = deserialize_pool(run_dir / "pool.lsgg")
    pool.check_invariants()
    assert pool.n_t == cfg.n_t
    arrays, config_echo, pool_ref = load_checkpoint(run_dir / "checkpoint.lsgg")
    assert pool_ref == "pool.lsgg"
    assert config_echo == manifest["config"]
    assert config_from_kv(config_echo) == cfg
    assert arrays["y_mask"].shape[1] == cfg.d_tok
    vocab = load_vocab(run_dir / "vocab.txt")
    assert vocab.n_labels == cfg.synth.n_pred

    # final-stage metrics recompute exactly from the dumped files
    preds = load_predictions(run_dir / "predictions_final.txt")
    gt = load_gt(run_dir / "gt_final.txt")
    final = bundle.final_report()
    for k in cfg.eval_ks:
        assert recall_at_k(preds, gt, k, mode="ids") == final.r[k]
        assert mean_recall_at_k(preds, gt, k, mode="ids") == final.mr[k]

    lines = (run_dir / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + cfg.n_stages
    assert lines[0].split(",")[0] == "stage"
    t = cfg.n_stages
    matrix_lines = (run_dir / "matrix.csv").read_text().splitlines()
    assert len(matrix_lines) == 1 + t * (t + 1) // 2
    fm_lines = (run_dir / "fm.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in fm_lines] == ["K"] + [str(k) for k in sorted(cfg.eval_ks)]


def test_final_dump_ranks_each_image_once_over_all_tasks(tmp_path):
    # six pairs per image over three tasks, so most images have pairs in
    # several tasks; the union of the tasks' dumps is ranked again as a whole
    cfg = tiny_config(n_stages=3, eval_ks=(1, 2))
    cfg.synth.pairs_per_image = 6
    run_experiment(cfg, seed=0, run_dir=tmp_path)
    preds = load_predictions(tmp_path / "predictions_final.txt")
    order, ranks = _rank_pairs(preds.image, preds.conf, preds.gt_id)
    assert np.array_equal(order, np.arange(len(preds)))
    assert np.array_equal(preds.rank, ranks)


def test_run_experiment_rejects_uncovered_vocab(tmp_path):
    from lsgg.scorer import default_vocab, save_vocab

    path = tmp_path / "vocab.txt"
    save_vocab(default_vocab(3), path)  # dataset has 8 predicates
    cfg = tiny_config(vocab_path=str(path))
    with pytest.raises(ValueError, match="vocabulary"):
        run_experiment(cfg, seed=0)


# -- ablations and reports ----------------------------------------------------------


def test_every_preset_but_full_changes_the_predictions(tmp_path):
    # a preset whose dump equals full's ablates nothing the model can see
    dumps = {}
    for name in PRESETS:
        run_experiment(preset_config(tiny_config(), name), seed=0, run_dir=tmp_path / name)
        dumps[name] = (tmp_path / name / "predictions_final.txt").read_bytes()
    assert [name for name in PRESETS if name != "full" and dumps[name] == dumps["full"]] == []


def test_ablation_suite_and_report(tmp_path):
    base = tiny_config()
    out = tmp_path / "suite"
    # a preset may be named by its display spelling; results and run
    # directories use its key
    results = run_ablation_suite(base, presets=("full", "w/o-inc"), out_dir=out)
    assert set(results) == {"full", "wo_inc"}
    assert all(len(v) == len(base.seeds) for v in results.values())
    for name in ("full_seed0", "wo_inc_seed0"):
        assert (out / name / "results.csv").exists()

    table = load_comparison_csv(out / "comparison.csv")
    assert set(table) == {"full", "w/o-inc"}
    full_final = results["full"][0].final_report()
    assert table["full"]["mR@5_mean"] == pytest.approx(full_final.mr[5], abs=1e-12)
    assert table["full"]["seeds"] == 1
    assert "mR@5_std" not in table["full"]  # single seed: no std columns

    per_stage = (out / "per_stage.csv").read_text().splitlines()
    assert len(per_stage) == 1 + 2 * base.n_stages
    assert (out / "comparison.txt").exists()


def test_report_multi_seed_includes_std(tmp_path):
    cfg = tiny_config(seeds=(0, 1))
    bundles = [run_experiment(cfg, seed=s) for s in cfg.seeds]
    paths = report({"full": bundles}, tmp_path)
    table = load_comparison_csv(tmp_path / "comparison.csv")
    finals = [b.final_report().mr[5] for b in bundles]
    mean = sum(finals) / 2
    std = (sum((v - mean) ** 2 for v in finals) / 2) ** 0.5
    assert table["full"]["mR@5_mean"] == pytest.approx(mean, abs=1e-12)
    assert table["full"]["mR@5_std"] == pytest.approx(std, abs=1e-12)
    assert table["full"]["FM@5_mean"] == pytest.approx(
        sum(b.fm[5] for b in bundles) / 2, abs=1e-12)
    assert len(paths) == 3

    summary = summarize(bundles)
    assert summary["mR@5"] == (pytest.approx(mean, abs=1e-12),
                               pytest.approx(std, abs=1e-12))


def test_report_rejects_mixed_eval_ks(tmp_path):
    a = run_experiment(tiny_config(n_stages=1), seed=0)
    b = run_experiment(tiny_config(n_stages=1, eval_ks=(7,)), seed=0)
    with pytest.raises(ValueError, match="different eval K"):
        report({"a": [a], "b": [b]}, tmp_path)
    with pytest.raises(ValueError):
        report({}, tmp_path)
    with pytest.raises(ValueError):
        report({"a": []}, tmp_path)
