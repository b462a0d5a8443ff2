"""Benchmark of one staged lsgg run: set-up, per-stage training and
evaluation over every arrived task.

    python3 perfbench/run.py --workload full --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. It repeats whole rounds of
``harness.run_experiment`` on the workload's config and seed until
``--seconds`` have passed, checks every round's outputs, and prints one JSON
object as its last line: the end-to-end metrics (medians over rounds) with
``--trace 0``, or the per-layer metrics of one more, traced round with
``--trace 1``, which also writes its spans to ``perfbench/out/``. All times
are in seconds at a nominal host speed; see README.md.
"""

import time

T_START = time.perf_counter()  # the process's cold set-up is timed from here

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("full", "wo_inc", "eval_heavy")


def workload_config(name: str):
    """The ExperimentConfig of a workload (the seed is given separately).

    Every workload uses the frequency schedule, which fixes which tasks
    arrive when. Under the random schedule the seed also sets how many
    instances are evaluated (5.2k to 7.0k on full over seeds 0 to 5), and the
    times followed the seed rather than the program.
    """
    from lsgg.harness import ExperimentConfig, preset_config

    base = ExperimentConfig(schedule_mode="frequency")
    base.train.epochs = 5
    if name in ("full", "wo_inc"):
        return preset_config(base, name)
    if name == "eval_heavy":
        cfg = preset_config(base, "full")
        cfg.synth.total_n = 20_000
        cfg.split_fractions = (0.1, 0.1, 0.8)
        cfg.train.epochs = 1
        return cfg
    raise ValueError(f"unknown workload {name!r}")


def run_round(config, seed: int, run_dir: str, trace: bool, t_origin: float) -> dict:
    """One run_experiment call under the probe, with its checks.

    Operations: one per stage (its training, its evaluation and its checks)
    and one for the final file checks. ``t_origin`` is where set-up starts.
    """
    from lsgg import harness
    from checks import check_final, check_stage
    from probe import CalibratedClock, Probe

    probe = Probe(trace)
    probe.install()
    error = None
    try:
        probe.kernel()
        a = time.perf_counter()
        try:
            bundle = harness.run_experiment(config, seed=seed, run_dir=run_dir)
        except Exception:  # a program fault fails the whole round
            error = traceback.format_exc()
        b = time.perf_counter()
        probe.kernel()
    finally:
        probe.close()

    stages = probe.stages
    problems = []
    n_ops = config.n_stages + 1
    if error is None:
        for t, rec in enumerate(stages):
            problems += check_stage(t, rec, bundle.reports[t], config)
        problems += check_final(run_dir, stages[-1]["eval_instances"], config.eval_ks)
    else:  # the round's checks cannot run, so all its operations fail
        print(error, file=sys.stderr)
        bundle = None

    clock = CalibratedClock(probe.kernels)
    ends = [s["begin"] for s in stages[1:]] + [probe.write_begin or b]
    train_s = sum(clock.span(s["begin"], s["end"]) for s in stages if "end" in s)
    eval_s = sum(clock.span(s["end"], e) for s, e in zip(stages, ends) if "end" in s)
    setup_begin = t_origin if t_origin is not None else a
    cpu_s, raw_cpu_s = clock.cpu(a, b)
    out = {
        "ops": n_ops,
        "failed": 0 if error is None else n_ops,
        "problems": problems,
        "probe": probe,
        "bundle": bundle,
        "clock": clock,
        "span": (a, b),
        "setup_s": clock.span(setup_begin, stages[0]["begin"]) if stages else None,
        "run_s": clock.span(a, b),
        "cpu_s": cpu_s,
        "train_items": sum(s["query_items"] for s in stages if "end" in s),
        "eval_instances": sum(s["eval_instances"] for s in stages),
        "raw_run_s": b - a,
        "raw_cpu_s": raw_cpu_s,
        "raw_setup_s": stages[0]["begin"] - setup_begin if stages else None,
    }
    out["train_items_per_s"] = out["train_items"] / train_s if train_s else None
    out["eval_instances_per_s"] = out["eval_instances"] / eval_s if eval_s else None
    return out


def end_to_end(rounds: list) -> dict:
    """Medians over the rounds that ran to their end; set-up from the first."""
    done = [r for r in rounds if not r["failed"]]
    med = lambda key: statistics.median(r[key] for r in done)  # noqa: E731
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": done[0]["setup_s"], "unit": "s"},
        "run_s": {"value": med("run_s"), "unit": "s"},
        "train_items_per_s": {"value": med("train_items_per_s"), "unit": "items/s"},
        "eval_instances_per_s": {"value": med("eval_instances_per_s"), "unit": "instances/s"},
        "cpu_s": {"value": med("cpu_s"), "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def blas_info() -> dict:
    """numpy, OpenBLAS and thread figures of this process, as it got them."""
    import ctypes
    import glob

    import numpy as np

    info = {"numpy": np.__version__, "cores": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*.so*"))
    info["blas_threads"] = None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                getattr(handle, sym).restype = ctypes.c_int
                info["blas_threads"] = getattr(handle, sym)()
                break
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lsgg", "harness.py")):
        print(f"no lsgg source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lsgg

    if os.path.dirname(os.path.abspath(lsgg.__file__)) != os.path.join(SRC, "lsgg"):
        print(f"lsgg was imported from {lsgg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    config = workload_config(args.workload)
    os.makedirs(OUT, exist_ok=True)
    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < args.seconds:
        rounds.append(run_round(config, args.seed, run_dir, False,
                                T_START if not rounds else None))
        shutil.rmtree(run_dir, ignore_errors=True)
    if all(r["failed"] for r in rounds):
        print("no round ran to its end", file=sys.stderr)
        return 1
    if args.trace:
        from layers import per_layer, write_trace

        traced = run_round(config, args.seed, run_dir, True, None)
        shutil.rmtree(run_dir, ignore_errors=True)
        metrics = per_layer(traced, statistics.median(r["run_s"] for r in rounds))
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        write_trace(path, traced, metrics, args, blas_info())
        print(f"trace written to {os.path.relpath(path)}", file=sys.stderr)
        rounds.append(traced)
    else:
        metrics = end_to_end(rounds)
    problems = [p for r in rounds for p in r["problems"]]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    info = {"rounds": len(rounds), **blas_info(),
            "per_round": {key: [r[key] for r in rounds]
                          for key in ("run_s", "raw_run_s", "raw_cpu_s", "raw_setup_s")}}
    print(json.dumps(info))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
