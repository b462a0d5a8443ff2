"""Experiment orchestration: the full staged protocol, ablation presets, and
report generation.

A run trains stage by stage, evaluates after every stage on the test pools of
all arrived tasks, fills the accuracy matrices, and writes deterministic
result files (wall-clock timings go to a separate log so result files are
byte-comparable across runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
import json
import os
import time

import numpy as np

from . import __version__
from .datastream import (RelationTable, Rows, SynthConfig, load_embeddings, make_schedule,
                         make_stage_datasets, synth_generate)
from .ioutil import data_lines, format_float, put_once
from .metrics import (AccuracyMatrix, GTTable, MetricReport, PredTable, forgetting_measure,
                      m_at_k, positions_in_runs, recall_at_ks, save_gt, save_predictions,
                      score_wtd, weighted_map)
# names of this module only because perfbench/probe.py wraps them by name:
# the single-K metrics, and the splitters that datastream.make_schedule calls
from .datastream import split_by_frequency, split_random  # noqa: F401
from .metrics import mean_recall_at_k, recall_at_k  # noqa: F401
from .numerics import blas_summary
from .prompt_pool import init_pool, serialize_pool
from .rng import SeededRng
from .scorer import PredicateVocab, default_vocab, init_scorer, load_vocab, save_vocab
from .token_mapper import init_mapper
from .trainer import (AdamW, TrainConfig, TrainableSet, init_y_mask, predict_ranked,
                      save_checkpoint, stage_quota, train_stage)

TOKEN_PRESETS = {
    "small": {"c": 2, "r": 1, "s": 1, "o": 1},
    "default": {"c": 4, "r": 4, "s": 2, "o": 2},
    "large": {"c": 8, "r": 4, "s": 4, "o": 4},
}

# name -> (display name, the dotted config field the preset changes, its value
# or a function of the base config); "full" changes nothing
PRESETS = {
    "full": ("full", None, None),
    "wo_kap": ("w/o-kap", "train.random_prompts", True),
    "wo_toe": ("w/o-toe", "train.random_exemplar", True),
    "wo_inc": ("w/o-inc", "train.naive", True),
    "w_1k": ("w-1k", "n_e", lambda base: base.n_e // 2),
    "w_sc": ("w-sc", "token_preset", "small"),
    "w_lc": ("w-lc", "token_preset", "large"),
    "w_frq": ("w-frq", "schedule_mode", "frequency"),
    "w_ft": ("w-ft", "train_scorer", True),
}

ABLATION_SUITE = tuple(name for name in PRESETS if name != "w_ft")


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
    token_preset: str = "default"
    train_scorer: bool = False  # unfreeze the decoder at a reduced rate
    train: TrainConfig = field(default_factory=TrainConfig)
    seeds: tuple = (0, 1, 2, 3, 4)
    split_fractions: tuple = (0.7, 0.1, 0.2)
    eval_ks: tuple = (50, 100)

    def validate(self) -> None:
        if self.schedule_mode not in ("random", "frequency"):
            raise ValueError(f"unknown schedule mode {self.schedule_mode!r}")
        if self.token_preset not in TOKEN_PRESETS:
            raise ValueError(f"unknown token preset {self.token_preset!r}")
        if self.n_stages < 1 or min(self.n_t, self.n_e, self.n_p, self.d_tok) < 1:
            raise ValueError("stage and pool sizes must be >= 1")
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


def _preset_key(name: str) -> str:
    """The ``PRESETS`` key of a preset named by its key or its display name."""
    key = name.replace("/", "").replace("-", "_")
    if key not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    return key


def preset_config(base: ExperimentConfig, name: str) -> ExperimentConfig:
    """A copy of ``base`` with exactly one ablation knob changed."""
    _, knob, value = PRESETS[_preset_key(name)]
    cfg = _clone_config(base)
    if knob is not None:
        target, attr = _config_field(cfg, knob)
        setattr(target, attr, value(base) if callable(value) else value)
    return cfg


def config_diff(a: ExperimentConfig, b: ExperimentConfig) -> list:
    """Dotted names of the fields whose echoes (``config_to_kv``, as
    ``manifest.json`` writes them) differ; used to assert preset minimality."""
    ka, kb = config_to_kv(a), config_to_kv(b)
    return [key for key in ka if ka[key] != kb[key]]


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
        return format_float(val)
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


def _config_field(config: ExperimentConfig, key: str):
    """The (object, attribute) a dotted config key such as ``train.lr`` names."""
    target, attr = config, key
    head, _, sub = key.partition(".")
    if head in ("train", "synth"):
        if not sub:
            raise ValueError(f"config key {key!r} names a section, not a field")
        target, attr = getattr(config, head), sub
    if not hasattr(target, attr):
        raise ValueError(f"unknown config key {key!r}")
    return target, attr


def config_from_kv(kv: dict) -> ExperimentConfig:
    config = ExperimentConfig()
    for key, text in kv.items():
        target, attr = _config_field(config, key)
        setattr(target, attr, _kv_parse(text, getattr(target, attr)))
    return config


def load_config_file(path) -> ExperimentConfig:
    """The config of a ``key=value`` file; each error names its line."""
    kv = {}
    for lineno, text in data_lines(path):
        if "=" not in text:
            raise ValueError(f"line {lineno}: expected key=value")
        key, _, val = (part.strip() for part in text.partition("="))
        put_once(kv, key, val, lineno)
        try:
            config_from_kv({key: val})  # a key's value parses on its own
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return config_from_kv(kv)


# -- the protocol --------------------------------------------------------------------


def _gt_table(split) -> GTTable:
    """The ground truth of test rows (``datastream.Rows``), in split order;
    no feature column is copied."""
    d, rows = split.data, split.index
    return GTTable(image=d.image[rows], gt_id=d.gt_id[rows], subj=d.subj[rows],
                   pred=d.pred[rows], obj=d.obj[rows])


def _rank_pairs(image_ids: np.ndarray, confs: np.ndarray, gids: np.ndarray):
    """The dump order of the pairs (by image id; within an image by
    descending confidence, ties by GT id) and each pair's 1-based rank
    within its image, in that order."""
    order = np.lexsort((gids, -confs, image_ids))
    return order, positions_in_runs(image_ids[order]) + 1


def _take(table, sel):
    """Rows ``sel`` of a column table (``GTTable`` or ``PredTable``)."""
    return replace(table, **{f.name: getattr(table, f.name)[sel] for f in fields(table)
                             if getattr(table, f.name) is not None})


def _ranked_dump(preds: PredTable) -> PredTable:
    """``preds`` in dump order with each pair's rank within its image
    (``_rank_pairs``); the rank column it holds is not read."""
    order, ranks = _rank_pairs(preds.image, preds.conf, preds.gt_id)
    return replace(_take(preds, order), rank=ranks)


@dataclass
class RunState:
    """A staged run between stages: ``start_run`` builds it and each
    ``run_stage`` advances it by one stage."""

    config: ExperimentConfig
    seed: int
    dataset: RelationTable
    vocab: PredicateVocab
    schedule: np.ndarray  # predicate -> the stage it arrives in
    stages: list  # StageDataset per stage; a run stage's train split is None
    tr: TrainableSet  # tr.pool is the prompt pool
    opt: AdamW
    quota: int  # admissions per stage
    eval_rng: SeededRng  # the random ablations' inference stream, across stages
    matrices: dict  # K -> AccuracyMatrix of mR@K
    reports: list = field(default_factory=list)  # one per run stage
    stage_seconds: list = field(default_factory=list)
    final_dump: tuple | None = None  # the last run stage's (predictions, GT) over all tasks


def start_run(config: ExperimentConfig, seed: int | None = None) -> RunState:
    """The run for ``seed`` (default: the config's first) before its first stage."""
    config.validate()
    if seed is None:
        seed = config.seeds[0]
    rng = SeededRng(seed)

    if config.dataset_path:
        dataset, _, n_pred = load_embeddings(config.dataset_path)
    else:
        dataset, _ = synth_generate(config.synth, rng.derive("data"))
        n_pred = config.synth.n_pred
    if config.vocab_path:
        vocab = load_vocab(config.vocab_path)
    else:
        vocab = default_vocab(n_pred)
    if vocab.n_labels != n_pred:  # build_vocab holds its ids to 0..L-1
        raise ValueError(f"vocabulary has {vocab.n_labels} predicates, the data {n_pred}")

    schedule = make_schedule(dataset, n_pred, config.n_stages, config.schedule_mode,
                             rng.derive("schedule"))

    stages = make_stage_datasets(dataset, schedule, config.split_fractions)
    for t, stage in enumerate(stages):
        if not len(stage.train) or not len(stage.test):
            raise ValueError(f"stage {t + 1} has an empty train or test split")

    d_c, d_r, d_o = (dataset.feats[kind].shape[1] for kind in ("c", "r", "o"))
    token_counts = TOKEN_PRESETS[config.token_preset]
    pool = init_pool(config.n_t, config.n_p, config.d_tok, d_c, config.n_e,
                     rng.derive("pool"))
    mapper = init_mapper({"c": d_c, "r": d_r, "s": d_o, "o": d_o}, d_tok=config.d_tok,
                         token_counts=token_counts, rng=rng.derive("mapper"))
    ex_rows = sum(token_counts.values())
    max_rows = config.train.k_retrieve * (config.n_p + ex_rows + vocab.n_mask)
    scorer = init_scorer(vocab.n_word_tokens, config.d_tok, vocab.n_mask, max_rows,
                         rng.derive("scorer"))
    scorer.trainable = config.train_scorer
    y_mask = init_y_mask(vocab.n_mask, config.d_tok, rng.derive("mask"))
    return RunState(config, seed, dataset, vocab, schedule, stages,
                    TrainableSet(mapper=mapper, pool=pool, y_mask=y_mask, scorer=scorer),
                    AdamW(), stage_quota(pool, config.n_stages), rng.derive("eval"),
                    {k: AccuracyMatrix(config.n_stages) for k in config.eval_ks})


def run_stage(state: RunState, t: int) -> None:
    """Train stage ``t`` and evaluate every arrived task; ValueError unless it
    is the next stage. Asserts stage isolation, pool capacity and exact M@K."""
    config, stages, pool = state.config, state.stages, state.tr.pool
    if t != len(state.reports) or t >= config.n_stages:
        raise ValueError(f"stage {t} is not the next of {config.n_stages} to run")
    t0 = time.perf_counter()
    train_stage(stages[t], pool, state.tr, state.vocab, config.train, state.opt,
                SeededRng(state.seed).derive("stage", t), state.quota)
    stages[t] = replace(stages[t], train=None)  # stage isolation: never re-read
    pool.check_invariants()

    # every arrived task's test split in one call; task j's rows follow
    # those of the tasks before it
    sizes = [len(stages[j].test) for j in range(t + 1)]
    arrived = Rows(state.dataset, np.concatenate([stages[j].test.index for j in range(t + 1)]))
    union_gt = _gt_table(arrived)
    ranked = predict_ranked(arrived, pool, state.tr, state.vocab, config.train,
                            candidates=np.flatnonzero(state.schedule <= t),
                            ab_rng=state.eval_rng)
    preds = PredTable(image=union_gt.image, rank=None, subj=union_gt.subj,
                      pred=ranked.labels[:, 0], obj=union_gt.obj,
                      conf=np.exp(ranked.scores[:, 0]), gt_id=union_gt.gt_id,
                      has_id=np.ones(len(union_gt), dtype=bool))
    for j, end in enumerate(np.cumsum(sizes)):
        task = slice(end - sizes[j], end)
        for k, (_, mr_k) in recall_at_ks(_ranked_dump(_take(preds, task)),
                                         _take(union_gt, task), config.eval_ks,
                                         mode="ids").items():
            state.matrices[k].set(t, j, mr_k)

    # a task's ranks hold within the task; an image spans several tasks
    union_preds = _ranked_dump(preds)
    union = recall_at_ks(union_preds, union_gt, config.eval_ks, mode="ids")
    r = {k: union[k][0] for k in config.eval_ks}
    mr = {k: union[k][1] for k in config.eval_ks}
    m = {k: m_at_k(r[k], mr[k]) for k in config.eval_ks}
    wmap = weighted_map(union_preds, union_gt, mode="ids")
    report = MetricReport(stage=t, r=r, mr=mr, m=m, wmap=wmap,
                          score=score_wtd(r[min(config.eval_ks)], wmap, wmap))
    report.check_invariants()
    state.reports.append(report)
    state.final_dump = (union_preds, union_gt)
    state.stage_seconds.append(time.perf_counter() - t0)


def run_experiment(config: ExperimentConfig, seed: int | None = None,
                   run_dir: str | None = None) -> ResultsBundle:
    """One full staged run for one seed, with its run files in ``run_dir`` if given."""
    state = start_run(config, seed)
    for t in range(config.n_stages):
        run_stage(state, t)

    fm = {k: forgetting_measure(state.matrices[k])  # refuses an unmeasured cell
          for k in config.eval_ks if config.n_stages >= 2}

    bundle = ResultsBundle(seed=state.seed, config_echo=config_to_kv(config),
                           reports=state.reports, matrices=state.matrices, fm=fm,
                           stage_seconds=state.stage_seconds)
    if run_dir is not None:
        write_run_files(bundle, run_dir, state)
    return bundle


# -- result files ----------------------------------------------------------------------


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format_float(v)
    return str(v)


def _write_csv(path, header, rows) -> None:
    """``header`` and then ``rows``, one line each, every cell through ``_csv_cell``."""
    with open(path, "w") as fh:
        for row in [header, *rows]:
            fh.write(",".join(map(_csv_cell, row)) + "\n")


def write_run_files(bundle: ResultsBundle, run_dir, state: RunState) -> None:
    """Write the deterministic result set of a finished run plus a separate
    timing log; the final dump is the last stage's union over all tasks."""
    os.makedirs(run_dir, exist_ok=True)
    ks = sorted(bundle.matrices)
    _write_csv(os.path.join(run_dir, "results.csv"),
               ["stage", *(f"{m}@{k}" for k in ks for m in ("R", "mR", "M")),
                "wmAP_ids", "score_wtd"],
               [[rep.stage + 1, *(v for k in ks for v in (rep.r[k], rep.mr[k], rep.m[k])),
                 rep.wmap, rep.score] for rep in bundle.reports])
    _write_csv(os.path.join(run_dir, "matrix.csv"),
               ["stage", "task", *(f"mR@{k}" for k in ks)],
               [[l + 1, j + 1, *(bundle.matrices[k].get(l, j) for k in ks)]
                for l in range(bundle.matrices[ks[0]].n_stages) for j in range(l + 1)])
    _write_csv(os.path.join(run_dir, "fm.csv"), ["K", "FM"],
               [[k, bundle.fm[k]] for k in ks if k in bundle.fm])

    manifest = {
        "config": bundle.config_echo,
        "seed": bundle.seed,
        "package_version": __version__,
        "file_formats": {"embeddings": 2, "pool": 2, "checkpoint": 2},
    }
    with open(os.path.join(run_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    # wall clock is nondeterministic; quarantine it from the comparable set
    with open(os.path.join(run_dir, "timings.log"), "w") as fh:
        for t, secs in enumerate(bundle.stage_seconds):
            fh.write(f"stage {t + 1}: {secs:.3f}s\n")
        fh.write(blas_summary() + "\n")

    preds, gt = state.final_dump
    save_predictions(preds, os.path.join(run_dir, "predictions_final.txt"))
    save_gt(gt, os.path.join(run_dir, "gt_final.txt"))
    serialize_pool(state.tr.pool, os.path.join(run_dir, "pool.lsgg"))
    save_checkpoint(os.path.join(run_dir, "checkpoint.lsgg"), state.tr, bundle.config_echo,
                    "pool.lsgg")
    save_vocab(state.vocab, os.path.join(run_dir, "vocab.txt"))


# -- ablations and reporting -------------------------------------------------------------


def run_ablation_suite(base: ExperimentConfig, presets=ABLATION_SUITE,
                       out_dir: str | None = None) -> dict:
    """Run each preset, named by its ``PRESETS`` key or display name, over the
    base config's seeds; returns preset key -> bundles.

    Each preset must differ from the base in exactly its documented knob.
    """
    results = {}
    for name in map(_preset_key, presets):
        cfg = preset_config(base, name)
        diff, knob = sorted(config_diff(base, cfg)), PRESETS[name][1]
        expect = [] if knob is None else [knob]
        if diff != expect:
            raise AssertionError(f"preset {name} changed {diff}, expected {expect}")
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


def report(groups: dict, out_dir) -> list:
    """Comparison tables over configurations, as CSV and text: means +- std.

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
    shown = {label: PRESETS.get(label, (label,))[0] for label in labels}
    summaries = {label: summarize(groups[label]) for label in labels}
    metric_names = [name for name in summaries[labels[0]]
                    if all(name in summaries[label] for label in labels)]
    multi_seed = any(len(groups[label]) > 1 for label in labels)
    written = []

    header = ["config", "seeds"]
    for name in metric_names:
        header += [f"{name}_mean", f"{name}_std"] if multi_seed else [f"{name}_mean"]
    rows = []
    for label in labels:
        row = [shown[label], len(groups[label])]
        for name in metric_names:
            mean, std = summaries[label][name]
            row += [mean, std] if multi_seed else [mean]
        rows.append(row)
    path = os.path.join(out_dir, "comparison.csv")
    _write_csv(path, header, rows)
    written.append(path)

    path = os.path.join(out_dir, "per_stage.csv")
    _write_csv(path, ["config", "stage", *(f"mR@{k}_mean" for k in ks_ref)],
               [[shown[label], t + 1,
                 *(_mean_std([b.reports[t].mr[k] for b in groups[label]])[0] for k in ks_ref)]
                for label in labels for t in range(len(groups[label][0].reports))])
    written.append(path)

    path = os.path.join(out_dir, "comparison.txt")
    with open(path, "w") as fh:
        width = max(len(name) for name in [*shown.values(), "config"])
        fh.write(f"{'config':<{width}}")
        for name in metric_names:
            fh.write(f"  {name:>16}")
        fh.write("\n")
        for label in labels:
            fh.write(f"{shown[label]:<{width}}")
            for name in metric_names:
                mean, std = summaries[label][name]
                cell = f"{mean:.2f}+-{std:.2f}" if multi_seed else f"{mean:.2f}"
                fh.write(f"  {cell:>16}")
            fh.write("\n")
    written.append(path)
    return written


def load_comparison_csv(path) -> dict:
    """Parse comparison.csv back into {config: {column: value}}; ValueError
    naming the line of a malformed row or a repeated config."""
    lines = data_lines(path)
    _, head = next(lines, (None, None))
    if head is None:
        raise ValueError("comparison file has no header line")
    header = head.split(",")
    out = {}
    for lineno, text in lines:
        cells = text.split(",")
        if len(cells) != len(header):
            raise ValueError(f"line {lineno}: expected {len(header)} cells, got {len(cells)}")
        try:
            row = {name: int(cell) if name == "seeds" else float(cell)
                   for name, cell in zip(header[1:], cells[1:])}
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        put_once(out, cells[0], row, lineno)
    return out
