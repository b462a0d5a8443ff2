"""Experiment orchestration: the full staged protocol, ablation presets, and
report generation.

A run trains stage by stage, evaluates after every stage on the test pools of
all arrived tasks, fills the accuracy matrices, and writes deterministic
result files (wall-clock timings go to a separate log so result files are
byte-comparable across runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import json
import os
import time

import numpy as np

from . import __version__
from .datastream import (SynthConfig, TaskSchedule, load_embeddings, make_stage_datasets,
                         predicate_counts, split_by_frequency, split_random, synth_generate)
from .metrics import (AccuracyMatrix, GTRecord, MetricReport, PredRecord,
                      forgetting_measure, m_at_k, recall_at_ks, save_gt, save_predictions,
                      score_wtd, weighted_map)
# the single-K metrics stay names of this module: perfbench/probe.py wraps
# harness.recall_at_k and harness.mean_recall_at_k by name
from .metrics import mean_recall_at_k, recall_at_k  # noqa: F401
from .prompt_pool import init_pool, serialize_pool
from .rng import SeededRng
from .scorer import default_vocab, init_scorer, load_vocab, save_vocab
from .token_mapper import init_mapper
from .trainer import (AdamW, TrainConfig, TrainableSet, init_y_mask, predict_ranked,
                      save_checkpoint, stage_quota, train_stage)

TOKEN_PRESETS = {
    "small": {"c": 2, "r": 1, "s": 1, "o": 1},
    "default": {"c": 4, "r": 4, "s": 2, "o": 2},
    "large": {"c": 8, "r": 4, "s": 4, "o": 4},
}

PRESET_DISPLAY = {
    "full": "full", "wo_kap": "w/o-kap", "wo_toe": "w/o-toe", "wo_aso": "w/o-aso",
    "wo_inc": "w/o-inc", "w_1k": "w-1k", "w_sc": "w-sc", "w_lc": "w-lc",
    "w_frq": "w-frq", "w_ft": "w-ft",
}

ABLATION_SUITE = ("full", "wo_kap", "wo_toe", "wo_aso", "wo_inc",
                  "w_1k", "w_sc", "w_lc", "w_frq")


@dataclass
class ExperimentConfig:
    synth: SynthConfig = field(default_factory=SynthConfig)
    dataset_path: str | None = None  # load instead of generating
    vocab_path: str | None = None
    schedule_mode: str = "random"  # or "frequency"
    n_stages: int = 5
    n_t: int = 100
    n_e: int = 20
    n_p: int = 8
    d_tok: int = 64
    depth: int = 1
    token_preset: str = "default"
    train_scorer: bool = False  # unfreeze the decoder at a reduced rate
    train: TrainConfig = field(default_factory=TrainConfig)
    seeds: tuple = (0, 1, 2, 3, 4)
    out_dir: str | None = None
    split_fractions: tuple = (0.7, 0.1, 0.2)
    eval_ks: tuple = (50, 100)

    def validate(self) -> None:
        if self.schedule_mode not in ("random", "frequency"):
            raise ValueError(f"unknown schedule mode {self.schedule_mode!r}")
        if self.token_preset not in TOKEN_PRESETS:
            raise ValueError(f"unknown token preset {self.token_preset!r}")
        if self.n_stages < 1 or min(self.n_t, self.n_e, self.n_p, self.d_tok) < 1:
            raise ValueError("stage and pool sizes must be >= 1")
        if self.depth < 0:
            raise ValueError("encoder depth must be >= 0")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(self.eval_ks) < 1 or min(self.eval_ks) < 1:
            raise ValueError("eval K values must be >= 1")
        self.train.validate()
        self.synth.validate()


@dataclass
class ResultsBundle:
    seed: int
    config_echo: dict
    reports: list  # MetricReport per stage
    matrices: dict  # K -> AccuracyMatrix of mR@K
    fm: dict  # K -> forgetting measure (n_stages >= 2 only)
    stage_seconds: list

    def final_report(self) -> MetricReport:
        return self.reports[-1]


def _clone_config(config: ExperimentConfig) -> ExperimentConfig:
    return replace(config, train=replace(config.train), synth=replace(config.synth))


def preset_config(base: ExperimentConfig, name: str) -> ExperimentConfig:
    """A copy of ``base`` with exactly one ablation knob changed."""
    key = name.replace("/", "").replace("-", "_")
    cfg = _clone_config(base)
    if key == "full":
        pass
    elif key == "wo_kap":
        cfg.train.random_prompts = True
    elif key == "wo_toe":
        cfg.train.random_exemplar = True
    elif key == "wo_aso":
        cfg.train.shuffle_order = True
    elif key == "wo_inc":
        cfg.train.naive = True
    elif key == "w_1k":
        cfg.n_e = base.n_e // 2
    elif key == "w_sc":
        cfg.token_preset = "small"
    elif key == "w_lc":
        cfg.token_preset = "large"
    elif key == "w_frq":
        cfg.schedule_mode = "frequency"
    elif key == "w_ft":
        cfg.train_scorer = True
    else:
        raise ValueError(f"unknown preset {name!r}")
    return cfg


def config_diff(a: ExperimentConfig, b: ExperimentConfig) -> list:
    """Dotted names of fields that differ; used to assert preset minimality."""
    out = []
    for key, av in sorted(vars(a).items()):
        bv = getattr(b, key)
        if key in ("train", "synth"):
            for sub, sav in sorted(vars(av).items()):
                if sav != getattr(bv, sub):
                    out.append(f"{key}.{sub}")
        elif av != bv:
            out.append(key)
    return out


# -- flat key=value config encoding ------------------------------------------------


def config_to_kv(config: ExperimentConfig) -> dict:
    kv = {}
    for key, val in sorted(vars(config).items()):
        if key in ("train", "synth"):
            for sub, sval in sorted(vars(val).items()):
                kv[f"{key}.{sub}"] = _kv_str(sval)
        else:
            kv[key] = _kv_str(val)
    return kv


def _kv_str(val) -> str:
    if val is None:
        return "none"
    if isinstance(val, bool):
        return "true" if val else "false"
    if isinstance(val, (tuple, list)):
        return ",".join(_kv_str(v) for v in val)
    if isinstance(val, float):
        return repr(val)
    return str(val)


def _kv_parse(text: str, like):
    if like is None:
        # only fields whose default is None are optional; "none" clears them
        return None if text == "none" else text
    if isinstance(like, bool):
        if text not in ("true", "false"):
            raise ValueError(f"expected true/false, got {text!r}")
        return text == "true"
    if isinstance(like, int):
        return int(text)
    if isinstance(like, float):
        return float(text)
    if isinstance(like, tuple):
        if text == "":
            return ()
        elem = like[0] if like else 0
        return tuple(_kv_parse(t, elem) for t in text.split(","))
    return text


def config_from_kv(kv: dict) -> ExperimentConfig:
    config = ExperimentConfig()
    for key, text in kv.items():
        if key.startswith("train.") or key.startswith("synth."):
            head, _, sub = key.partition(".")
            target = getattr(config, head)
            if not hasattr(target, sub):
                raise ValueError(f"unknown config key {key!r}")
            setattr(target, sub, _kv_parse(text, getattr(target, sub)))
        else:
            if not hasattr(config, key):
                raise ValueError(f"unknown config key {key!r}")
            setattr(config, key, _kv_parse(text, getattr(config, key)))
    return config


def load_config_file(path) -> ExperimentConfig:
    kv = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"line {lineno}: expected key=value")
            key, _, val = stripped.partition("=")
            kv[key.strip()] = val.strip()
    return config_from_kv(kv)


# -- the protocol --------------------------------------------------------------------


def _build_gt_ids(dataset) -> dict:
    """Stable (image-local) GT id per instance: its occurrence index in file order."""
    occ: dict = {}
    out = {}
    for inst in dataset:
        n = occ.get(inst.image_id, 0)
        occ[inst.image_id] = n + 1
        out[id(inst)] = n
    return out


def _evaluate_instances(instances, gt_ids, pool, tr, vocab, train_cfg, candidates,
                        ab_rng) -> tuple:
    """Predict each instance's predicate; emit ranked dump + GT records.

    One prediction per pair (its top-1 predicate); within an image, pairs are
    ranked by descending confidence, ties by GT id.
    """
    ranked = predict_ranked(instances, pool, tr, vocab, train_cfg,
                            candidates=candidates, ab_rng=ab_rng)
    top = ranked.labels[:, 0].tolist()
    confs = np.exp(np.ascontiguousarray(ranked.scores[:, 0])).tolist()
    by_image: dict = {}
    gt = []
    for inst, label, conf in zip(instances, top, confs):
        gid = gt_ids[id(inst)]
        by_image.setdefault(inst.image_id, []).append(
            (conf, gid, inst.subject_class, label, inst.object_class))
        gt.append(GTRecord(image_id=inst.image_id, gt_id=gid, subj=inst.subject_class,
                           pred=inst.predicate, obj=inst.object_class, boxes=inst.boxes))
    preds = []
    for image_id in sorted(by_image):
        rows = sorted(by_image[image_id], key=lambda r: (-r[0], r[1]))
        for rank, (conf, gid, subj, label, obj) in enumerate(rows, start=1):
            preds.append(PredRecord(image_id=image_id, rank=rank, subj=subj, pred=label,
                                    obj=obj, conf=conf, gt_id=gid))
    return preds, gt


def run_experiment(config: ExperimentConfig, seed: int | None = None,
                   run_dir: str | None = None) -> ResultsBundle:
    """One full staged run for one seed.

    Asserted on every run: schedule disjointness, stage isolation (a stage's
    train split is discarded the moment its stage completes), pool capacity,
    and exact M@K arithmetic.
    """
    config.validate()
    if seed is None:
        seed = config.seeds[0]
    rng = SeededRng(seed)

    if config.dataset_path:
        dataset = load_embeddings(config.dataset_path)
        n_pred = max(inst.predicate for inst in dataset) + 1
    else:
        dataset, _ = synth_generate(config.synth, rng.derive("data"))
        n_pred = config.synth.n_pred
    if config.vocab_path:
        vocab = load_vocab(config.vocab_path)
    else:
        vocab = default_vocab(n_pred)
    if sorted(vocab.tokens) != list(range(n_pred)):
        raise ValueError("vocabulary does not cover predicate ids 0..n_pred-1")

    labels = list(range(n_pred))
    if config.schedule_mode == "frequency":
        schedule = split_by_frequency(labels, predicate_counts(dataset, labels),
                                      config.n_stages)
    else:
        schedule = split_random(labels, config.n_stages, rng.derive("schedule"))
    schedule = TaskSchedule(schedule.stages)  # re-assert disjointness + coverage

    stages = make_stage_datasets(dataset, schedule, config.split_fractions)
    gt_ids = _build_gt_ids(dataset)
    for t, stage in enumerate(stages):
        if not stage.train or not stage.test:
            raise ValueError(f"stage {t + 1} has an empty train or test split")

    d_c, d_r = len(dataset[0].f_c), len(dataset[0].f_r)
    d_o = len(dataset[0].f_o)
    token_counts = TOKEN_PRESETS[config.token_preset]
    pool = init_pool(config.n_t, config.n_p, config.d_tok, d_c, config.n_e,
                     rng.derive("pool"))
    mapper = init_mapper({"c": d_c, "r": d_r, "s": d_o, "o": d_o}, d_tok=config.d_tok,
                         token_counts=token_counts, depth=config.depth,
                         rng=rng.derive("mapper"))
    ex_rows = sum(token_counts.values())
    max_rows = config.train.k_retrieve * (config.n_p + ex_rows + vocab.n_mask)
    scorer = init_scorer(vocab.n_word_tokens, config.d_tok, vocab.n_mask, max_rows,
                         rng.derive("scorer"))
    scorer.trainable = config.train_scorer
    y_mask = init_y_mask(vocab.n_mask, config.d_tok, rng.derive("mask"))
    tr = TrainableSet(mapper=mapper, pool=pool, y_mask=y_mask, scorer=scorer)
    opt = AdamW()
    quota = stage_quota(pool, config.n_stages)

    matrices = {k: AccuracyMatrix(config.n_stages, metric=f"mR@{k}")
                for k in config.eval_ks}
    reports, stage_seconds = [], []
    eval_rng = rng.derive("eval")
    final_dump = None

    for t in range(config.n_stages):
        t0 = time.perf_counter()
        train_stage(stages[t], pool, tr, vocab, config.train, opt,
                    rng.derive("stage", t), quota)
        stages[t] = replace(stages[t], train=[])  # stage isolation: never re-read
        pool.check_invariants()

        candidates = schedule.arrived_labels(t)
        per_task = {}
        union_preds, union_gt = [], []
        for j in range(t + 1):
            preds, gt = _evaluate_instances(stages[j].test, gt_ids, pool, tr, vocab,
                                            config.train, candidates, eval_rng)
            union_preds.extend(preds)
            union_gt.extend(gt)
            task_metrics = {}
            for k, (r_k, mr_k) in recall_at_ks(preds, gt, config.eval_ks, mode="ids").items():
                task_metrics[f"R@{k}"] = r_k
                task_metrics[f"mR@{k}"] = mr_k
                matrices[k].set(t, j, mr_k)
            per_task[j] = task_metrics

        union = recall_at_ks(union_preds, union_gt, config.eval_ks, mode="ids")
        r = {k: union[k][0] for k in config.eval_ks}
        mr = {k: union[k][1] for k in config.eval_ks}
        m = {k: m_at_k(r[k], mr[k]) for k in config.eval_ks}
        wmap = weighted_map(union_preds, union_gt, mode="ids")
        report = MetricReport(stage=t, r=r, mr=mr, m=m, per_task=per_task,
                              wmap_rel=wmap, wmap_phr=wmap,
                              score=score_wtd(r[min(config.eval_ks)], wmap, wmap))
        report.check_invariants()
        reports.append(report)
        stage_seconds.append(time.perf_counter() - t0)
        if t == config.n_stages - 1:
            final_dump = (union_preds, union_gt)

    fm = {}
    if config.n_stages >= 2:
        for k in config.eval_ks:
            if not matrices[k].is_complete():
                raise AssertionError("accuracy matrix has unmeasured cells")
            fm[k] = forgetting_measure(matrices[k])

    bundle = ResultsBundle(seed=seed, config_echo=config_to_kv(config), reports=reports,
                           matrices=matrices, fm=fm, stage_seconds=stage_seconds)
    if run_dir is not None:
        write_run_files(bundle, config, run_dir, tr, pool, vocab, final_dump)
    return bundle


# -- result files ----------------------------------------------------------------------


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # plain-float repr even for numpy scalars
    return str(v)


def write_run_files(bundle: ResultsBundle, config: ExperimentConfig, run_dir,
                    tr=None, pool=None, vocab=None, final_dump=None) -> None:
    """Write the deterministic result set plus a separate timing log."""
    os.makedirs(run_dir, exist_ok=True)
    ks = sorted(bundle.matrices)

    cols = ["stage"]
    for k in ks:
        cols += [f"R@{k}", f"mR@{k}", f"M@{k}"]
    cols += ["wmAP_rel", "wmAP_phr", "score_wtd"]
    with open(os.path.join(run_dir, "results.csv"), "w") as fh:
        fh.write(",".join(cols) + "\n")
        for rep in bundle.reports:
            row = [rep.stage + 1]
            for k in ks:
                row += [rep.r[k], rep.mr[k], rep.m[k]]
            row += [rep.wmap_rel, rep.wmap_phr, rep.score]
            fh.write(",".join(_csv_cell(v) for v in row) + "\n")

    with open(os.path.join(run_dir, "matrix.csv"), "w") as fh:
        fh.write("stage,task," + ",".join(f"mR@{k}" for k in ks) + "\n")
        for l in range(bundle.matrices[ks[0]].n_stages):
            for j in range(l + 1):
                cells = [str(l + 1), str(j + 1)]
                cells += [_csv_cell(bundle.matrices[k].get(l, j)) for k in ks]
                fh.write(",".join(cells) + "\n")

    with open(os.path.join(run_dir, "fm.csv"), "w") as fh:
        fh.write("K,FM\n")
        for k in ks:
            if k in bundle.fm:
                fh.write(f"{k},{_csv_cell(bundle.fm[k])}\n")

    manifest = {
        "config": bundle.config_echo,
        "seed": bundle.seed,
        "package_version": __version__,
        "file_formats": {"embeddings": 1, "pool": 1, "checkpoint": 1},
    }
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # wall clock is nondeterministic; quarantine it from the comparable set
    with open(os.path.join(run_dir, "timings.log"), "w") as fh:
        for t, secs in enumerate(bundle.stage_seconds):
            fh.write(f"stage {t + 1}: {secs:.3f}s\n")

    if final_dump is not None:
        preds, gt = final_dump
        save_predictions(preds, os.path.join(run_dir, "predictions_final.txt"))
        save_gt(gt, os.path.join(run_dir, "gt_final.txt"))
    if pool is not None:
        serialize_pool(pool, os.path.join(run_dir, "pool.lsgg"))
    if tr is not None:
        save_checkpoint(os.path.join(run_dir, "checkpoint.lsgg"), tr, config.train,
                        "pool.lsgg")
    if vocab is not None:
        save_vocab(vocab, os.path.join(run_dir, "vocab.txt"))


# -- ablations and reporting -------------------------------------------------------------

PRESET_EXPECTED_DIFF = {
    "full": set(),
    "wo_kap": {"train.random_prompts"},
    "wo_toe": {"train.random_exemplar"},
    "wo_aso": {"train.shuffle_order"},
    "wo_inc": {"train.naive"},
    "w_1k": {"n_e"},
    "w_sc": {"token_preset"},
    "w_lc": {"token_preset"},
    "w_frq": {"schedule_mode"},
    "w_ft": {"train_scorer"},
}


def run_ablation_suite(base: ExperimentConfig, presets=ABLATION_SUITE,
                       out_dir: str | None = None) -> dict:
    """Run each preset over the base config's seeds; returns preset -> bundles.

    Each preset must differ from the base in exactly its documented knob.
    """
    results = {}
    for name in presets:
        cfg = preset_config(base, name)
        diff = set(config_diff(base, cfg))
        if diff != PRESET_EXPECTED_DIFF[name]:
            raise AssertionError(f"preset {name} changed {sorted(diff)}, "
                                 f"expected {sorted(PRESET_EXPECTED_DIFF[name])}")
        bundles = []
        for seed in cfg.seeds:
            run_dir = None
            if out_dir is not None:
                run_dir = os.path.join(out_dir, f"{name}_seed{seed}")
            bundles.append(run_experiment(cfg, seed=seed, run_dir=run_dir))
        results[name] = bundles
    if out_dir is not None:
        report(results, out_dir)
    return results


def _mean_std(values):
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, var ** 0.5


def summarize(bundles: list) -> dict:
    """Final-stage metric means and stds over seeds for one configuration."""
    ks = sorted(bundles[0].matrices)
    out = {}
    for k in ks:
        for name, pick in ((f"R@{k}", lambda b, k=k: b.final_report().r[k]),
                           (f"mR@{k}", lambda b, k=k: b.final_report().mr[k]),
                           (f"M@{k}", lambda b, k=k: b.final_report().m[k])):
            out[name] = _mean_std([pick(b) for b in bundles])
        if all(k in b.fm for b in bundles):
            out[f"FM@{k}"] = _mean_std([b.fm[k] for b in bundles])
    out["score_wtd"] = _mean_std([b.final_report().score for b in bundles])
    return out


def report(groups: dict, out_dir, formats=("csv", "text")) -> list:
    """Comparison tables over configurations: CSV and/or text, means +- std.

    groups: label -> list of ResultsBundle (one per seed). Bundles must share
    eval K values; mixed groups are an error.
    """
    if not groups:
        raise ValueError("nothing to report")
    ks_ref = None
    for label, bundles in groups.items():
        if not bundles:
            raise ValueError(f"group {label!r} has no bundles")
        ks = tuple(sorted(bundles[0].matrices))
        if ks_ref is None:
            ks_ref = ks
        elif ks != ks_ref:
            raise ValueError("groups use different eval K values")
    os.makedirs(out_dir, exist_ok=True)

    labels = list(groups)
    summaries = {label: summarize(groups[label]) for label in labels}
    metric_names = [name for name in summaries[labels[0]]
                    if all(name in summaries[label] for label in labels)]
    multi_seed = any(len(groups[label]) > 1 for label in labels)
    written = []

    if "csv" in formats:
        path = os.path.join(out_dir, "comparison.csv")
        with open(path, "w") as fh:
            header = ["config", "seeds"]
            for name in metric_names:
                header.append(f"{name}_mean")
                if multi_seed:
                    header.append(f"{name}_std")
            fh.write(",".join(header) + "\n")
            for label in labels:
                row = [PRESET_DISPLAY.get(label, label), str(len(groups[label]))]
                for name in metric_names:
                    mean, std = summaries[label][name]
                    row.append(repr(float(mean)))
                    if multi_seed:
                        row.append(repr(float(std)))
                fh.write(",".join(row) + "\n")
        written.append(path)

        path = os.path.join(out_dir, "per_stage.csv")
        with open(path, "w") as fh:
            fh.write("config,stage," + ",".join(
                f"mR@{k}_mean" for k in ks_ref) + "\n")
            for label in labels:
                n_stages = len(groups[label][0].reports)
                for t in range(n_stages):
                    cells = [PRESET_DISPLAY.get(label, label), str(t + 1)]
                    for k in ks_ref:
                        mean, _ = _mean_std([b.reports[t].mr[k] for b in groups[label]])
                        cells.append(repr(float(mean)))
                    fh.write(",".join(cells) + "\n")
        written.append(path)

    if "text" in formats:
        path = os.path.join(out_dir, "comparison.txt")
        with open(path, "w") as fh:
            width = max(len(PRESET_DISPLAY.get(label, label)) for label in labels)
            width = max(width, len("config"))
            fh.write(f"{'config':<{width}}")
            for name in metric_names:
                fh.write(f"  {name:>16}")
            fh.write("\n")
            for label in labels:
                fh.write(f"{PRESET_DISPLAY.get(label, label):<{width}}")
                for name in metric_names:
                    mean, std = summaries[label][name]
                    cell = f"{mean:.2f}+-{std:.2f}" if multi_seed else f"{mean:.2f}"
                    fh.write(f"  {cell:>16}")
                fh.write("\n")
        written.append(path)
    return written


def load_comparison_csv(path) -> dict:
    """Parse comparison.csv back into {config: {column: value}}."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    out = {}
    for line in lines[1:]:
        cells = line.split(",")
        row = {}
        for name, cell in zip(header[1:], cells[1:]):
            row[name] = int(cell) if name == "seeds" else float(cell)
        out[cells[0]] = row
    return out
