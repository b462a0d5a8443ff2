"""Output checks for one benchmark round, computed apart from the program.

Each function returns a list of problems; an empty list means the check
passed. The run files are parsed here with the benchmark's own readers, and
recall and forgetting are recomputed from them by the benchmark's own
matching and formula.
"""

from __future__ import annotations

import math
import os

TOLERANCE = 1e-9


def _read_csv(path):
    with open(path) as fh:
        lines = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return lines[0], lines[1:]


def _metric_problems(where: str, values: dict, ks) -> list:
    """Properties of one evaluation point: R@K and mR@K grow with K, and every
    metric lies in [0, 100]."""
    problems = []
    for name, v in values.items():
        if not (isinstance(v, float) and 0.0 <= v <= 100.0):
            problems.append(f"{where}: {name} = {v!r} lies outside [0, 100]")
    ks = sorted(ks)
    for lo, hi in zip(ks, ks[1:]):
        for m in ("R", "mR"):
            if values[f"{m}@{lo}"] > values[f"{m}@{hi}"]:
                problems.append(f"{where}: {m}@{lo} exceeds {m}@{hi}")
    return problems


def check_stage(t: int, rec: dict, report, config) -> list:
    """One stage: counted AdamW steps and admissions equal what train_stage
    returned, the stage kept to its admission quota, no store holds more
    than n_e exemplars, and the stage's report has sound metrics."""
    where = f"stage {t + 1}"
    problems = []
    ret = rec["returned"]
    if rec["steps_counted"] != ret["steps"]:
        problems.append(f"{where}: {rec['steps_counted']} AdamW.step calls counted, "
                        f"train_stage returned steps={ret['steps']}")
    if rec["admitted_counted"] != ret["admitted"]:
        problems.append(f"{where}: {rec['admitted_counted']} admissions counted, "
                        f"train_stage returned admitted={ret['admitted']}")
    quota = 0 if config.train.naive else (config.n_t * config.n_e) // config.n_stages
    if ret["admitted"] > quota:
        problems.append(f"{where}: admitted {ret['admitted']} over its quota of {quota}")
    if max(rec["store_sizes"]) > config.n_e:
        problems.append(f"{where}: a store holds {max(rec['store_sizes'])} exemplars, "
                        f"over n_e={config.n_e}")
    values = {}
    for k in config.eval_ks:
        values[f"R@{k}"] = float(report.r[k])
        values[f"mR@{k}"] = float(report.mr[k])
        values[f"M@{k}"] = float(report.m[k])
    values["score_wtd"] = float(report.score)
    return problems + _metric_problems(where, values, config.eval_ks)


def read_predictions(path) -> list:
    """(image, rank, subj, pred, obj, gt_id) per dump line, in file order."""
    out = []
    with open(path) as fh:
        for line in fh:
            toks = line.split()
            if toks:
                out.append((int(toks[0]), int(toks[1]), int(toks[2]), int(toks[3]),
                            int(toks[4]), None if toks[-1] == "-" else int(toks[-1])))
    return out


def read_gt(path) -> list:
    """(image, gt_id, subj, pred, obj) per ground-truth line."""
    with open(path) as fh:
        return [tuple(int(t) for t in line.split()[:5]) for line in fh if line.strip()]


def recompute_recall(preds, gts, k: int) -> tuple:
    """(R@K, mR@K) by instance-id matching: a prediction among its image's
    top K by rank matches the GT of its gt_id when the triplets agree."""
    truth: dict = {}
    for image, gid, subj, pred, obj in gts:
        truth.setdefault(image, {})[gid] = (subj, pred, obj)
    if sum(len(v) for v in truth.values()) != len(gts):
        raise ValueError("ground truth repeats a gt_id within an image")
    ranked: dict = {}
    for p in preds:
        ranked.setdefault(p[0], []).append(p)
    image_recall = 0.0
    gt_count: dict = {}
    hit_count: dict = {}
    for image in sorted(truth):
        top = sorted(ranked.get(image, []), key=lambda p: p[1])[:k]
        hits = {p[5] for p in top if truth[image].get(p[5]) == (p[2], p[3], p[4])}
        image_recall += len(hits) / len(truth[image])
        for gid, (_, label, _) in truth[image].items():
            gt_count[label] = gt_count.get(label, 0) + 1
            hit_count[label] = hit_count.get(label, 0) + (gid in hits)
    mean_recall = sum(hit_count[c] / gt_count[c] for c in sorted(gt_count))
    return 100.0 * image_recall / len(truth), 100.0 * mean_recall / len(gt_count)


def forgetting(values) -> float:
    """FM = 1/(T-1) * sum_j [max over stages j..T-1 of a[l][j] - a[T][j]],
    over a lower-triangular matrix with 1-based stages."""
    t = len(values)
    total = 0.0
    for j in range(t - 1):
        total += max(values[l][j] for l in range(j, t - 1)) - values[t - 1][j]
    return total / (t - 1)


def check_final(run_dir, final_instances: int, eval_ks) -> list:
    """The run files: the dump size, recall recomputed from the final dump,
    FM recomputed from matrix.csv, and the properties of results.csv."""
    problems = []
    preds = read_predictions(os.path.join(run_dir, "predictions_final.txt"))
    gts = read_gt(os.path.join(run_dir, "gt_final.txt"))
    if len(preds) != final_instances:
        problems.append(f"predictions_final.txt has {len(preds)} lines, the final stage "
                        f"evaluated {final_instances} instances")

    header, rows = _read_csv(os.path.join(run_dir, "results.csv"))
    for row in rows:
        values = {name: float(cell) for name, cell in zip(header[1:], row[1:])}
        problems += _metric_problems(f"results.csv stage {row[0]}", values, eval_ks)
    last = dict(zip(header, rows[-1]))
    for k in eval_ks:
        for name, ours in zip((f"R@{k}", f"mR@{k}"), recompute_recall(preds, gts, k)):
            theirs = float(last[name])
            if not math.isclose(ours, theirs, rel_tol=0.0, abs_tol=TOLERANCE):
                problems.append(f"{name}: recomputed {ours!r}, results.csv has {theirs!r}")

    header, rows = _read_csv(os.path.join(run_dir, "matrix.csv"))
    _, fm_rows = _read_csv(os.path.join(run_dir, "fm.csv"))
    fm = {int(k): float(v) for k, v in fm_rows}
    n_stages = max(int(r[0]) for r in rows)
    for col, name in enumerate(header[2:], start=2):
        k = int(name.split("@")[1])
        values = [[None] * (l + 1) for l in range(n_stages)]
        for r in rows:
            values[int(r[0]) - 1][int(r[1]) - 1] = float(r[col])
        if any(v is None for row in values for v in row):
            problems.append(f"matrix.csv misses cells of {name}")
            continue
        if n_stages < 2:
            continue
        ours = forgetting(values)
        if k not in fm or not math.isclose(ours, fm[k], rel_tol=0.0, abs_tol=TOLERANCE):
            problems.append(f"FM@{k}: recomputed {ours!r}, fm.csv has {fm.get(k)!r}")
    return problems
