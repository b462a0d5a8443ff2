"""Per-layer figures of one traced round: self times of each layer from its
spans, the counts the probe took at the layer boundaries, and the trace file.
"""

from __future__ import annotations

import json
import statistics

import numpy as np

# metric -> span names whose calibrated durations it sums, as self time
SELF_TIMES = {
    "token_mapper.encode_s": ("token_mapper.encode_batch",),
    "token_mapper.backward_s": ("token_mapper.encode_batch_backward",),
    "trainer.adamw_s": ("trainer.AdamW.step",),
    "trainer.select_s": ("trainer._select",),
    "trainer.train_self_s": ("trainer.train_stage",),
    "trainer.predict_self_s": ("trainer.predict_ranked",),
    "prompt_pool.admit_s": ("prompt_pool.admit_exemplar",),
    "prompt_pool.serialize_s": ("prompt_pool.serialize_pool",),
    "scorer.rank_s": ("scorer.rank_predicates_batch",),
    "metrics.recall_s": ("metrics.recall_at_k",),
    "metrics.mean_recall_s": ("metrics.mean_recall_at_k",),
    "metrics.wmap_s": ("metrics.weighted_map",),
    "harness.write_s": ("harness.write_run_files",),
    "datastream.synth_s": ("datastream.synth_generate",),
    "datastream.split_s": ("datastream.split_random", "datastream.split_by_frequency",
                           "datastream.make_stage_datasets"),
}


def _per_kind(counts, prefix: str) -> float:
    """Rows per feature kind: every row is encoded once for each kind."""
    rows = [v for k, v in counts.items() if k.startswith(prefix + ".")]
    return sum(rows) // len(rows) if rows else 0


def per_layer(traced: dict, untraced_run_s: float) -> dict:
    """The per-layer metrics of a traced round; ``untraced_run_s`` is the
    median run_s of the same process's untraced rounds."""
    probe, clock = traced["probe"], traced["clock"]
    names = [s[0] for s in probe.spans]
    begin = clock.at([s[1] for s in probe.spans])
    end = clock.at([s[2] for s in probe.spans])
    dur = end - begin
    parent = np.array([s[3] for s in probe.spans], dtype=np.int64)
    child = np.zeros(len(dur))
    np.add.at(child, parent[parent >= 0], dur[parent >= 0])
    self_s = dur - child
    by_name: dict = {}
    for name, s in zip(names, self_s):
        by_name[name] = by_name.get(name, 0.0) + float(s)

    def top_level_within(lo, hi) -> float:
        """Calibrated time of the outermost spans that begin in [lo, hi)."""
        inside = (parent < 0) & (begin >= lo) & (begin < hi)
        return float(dur[inside].sum())

    a, b = traced["span"]
    stages = probe.stages
    stage_ends = [s["begin"] for s in stages[1:]] + [probe.write_begin or b]
    eval_self = 0.0
    for s, e in zip(stages, stage_ends):
        lo, hi = clock.at(s["end"]), clock.at(e)
        eval_self += float(hi - lo) - top_level_within(lo, hi)
    setup_lo, setup_hi = clock.at(a), clock.at(stages[0]["begin"])
    counts = probe.counts
    query = sum(s["query_items"] for s in stages)

    metrics = {}
    for metric, spans in SELF_TIMES.items():
        if metric == "trainer.select_s" and "trainer._select" not in names:
            continue  # the attribute is gone: reported as missing
        metrics[metric] = (sum(by_name.get(n, 0.0) for n in spans), "s")
    metrics.update({
        "token_mapper.encode_rows": (_per_kind(counts, "encode_rows"), "count"),
        "token_mapper.encode_eval_rows": (_per_kind(counts, "encode_eval_rows"), "count"),
        "token_mapper.backward_calls": (names.count("token_mapper.encode_batch_backward"),
                                        "count"),
        "trainer.adamw_steps": (sum(s["steps_counted"] for s in stages), "count"),
        "trainer.eval_instances": (sum(s["eval_instances"] for s in stages), "count"),
        "prompt_pool.admit_attempts": (counts["prompt_pool.admit_attempts"], "count"),
        "prompt_pool.admitted": (sum(s["admitted_counted"] for s in stages), "count"),
        "scorer.ranked_instances": (counts["scorer.ranked_instances"], "count"),
        "metrics.calls": (counts["metrics.calls"], "count"),
        "harness.eval_self_s": (eval_self, "s"),
        "harness.setup_self_s": (float(setup_hi - setup_lo)
                                 - top_level_within(setup_lo, setup_hi), "s"),
        "bench.trace_overhead_s": (traced["run_s"] - untraced_run_s, "s"),
        "bench.calibration_ms": (1000.0 * statistics.median(clock.kernel_s), "ms"),
    })
    if "trainer._select" in names:
        metrics["trainer.train_items"] = (counts["trainer.train_items"], "count")
        metrics["trainer.replay_items"] = (counts["trainer.train_items"] - query, "count")
    return {name: {"value": v, "unit": unit} for name, (v, unit) in sorted(metrics.items())}


def write_trace(path, traced: dict, metrics: dict, args, info: dict) -> None:
    """Spans (raw seconds from the round's start), kernel runs, stage
    records, counts and the per-layer metrics, as one JSON file."""
    probe = traced["probe"]
    a = traced["span"][0]
    rel = lambda t: round(t - a, 7)  # noqa: E731
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "host": info,
        "metrics": metrics,
        "counts": dict(probe.counts),
        "stages": [{k: (rel(v) if k in ("begin", "end") else v) for k, v in s.items()}
                   for s in probe.stages],
        "kernels": [[rel(k[0]), rel(k[1])] for k in probe.kernels],
        "span_fields": ["name", "begin_s", "end_s", "parent"],
        "spans": [[s[0], rel(s[1]), rel(s[2]), s[3]] for s in probe.spans],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
