"""Command-line entry points: synth, split, train, eval, ablate, report."""

from __future__ import annotations

import argparse
import os
import sys

from .datastream import (SynthConfig, load_embeddings, make_schedule, save_embeddings,
                         synth_generate)
from .harness import (ABLATION_SUITE, ExperimentConfig, load_comparison_csv,
                      load_config_file, run_ablation_suite, run_experiment)
from .metrics import load_gt, load_predictions, m_at_k, recall_at_ks, score_wtd, weighted_map
from .rng import SeededRng
from .scorer import default_vocab, save_vocab


def _add_seed(p, default=0):
    p.add_argument("--seed", type=int, default=default, help="base RNG seed")


def _cmd_synth(args) -> int:
    cfg = SynthConfig(n_pred=args.n_pred, n_groups=args.n_groups, n_obj=args.n_obj,
                      d_c=args.d_c, d_r=args.d_r, d_o=args.d_o, sigma=args.sigma,
                      zipf_s=args.zipf, total_n=args.total_n,
                      pairs_per_image=args.pairs_per_image)
    rng = SeededRng(args.seed)
    dataset, _ = synth_generate(cfg, rng.derive("data"))
    save_embeddings(dataset, args.out, n_obj=cfg.n_obj, n_pred=cfg.n_pred)
    print(f"wrote {len(dataset)} instances to {args.out}")
    if args.vocab_out:
        save_vocab(default_vocab(cfg.n_pred), args.vocab_out)
        print(f"wrote vocabulary to {args.vocab_out}")
    return 0


def _cmd_split(args) -> int:
    dataset = load_embeddings(args.dataset)
    schedule = make_schedule(dataset, int(dataset.pred.max()) + 1, args.stages, args.mode,
                             SeededRng(args.seed).derive("schedule"))
    with open(args.out, "w") as fh:
        for stage in schedule.stages:
            fh.write("stage " + " ".join(str(label) for label in stage) + "\n")
    print(f"wrote {args.stages}-stage schedule to {args.out}")
    return 0


def _load_experiment_config(args) -> ExperimentConfig:
    if args.config:
        config = load_config_file(args.config)
    else:
        config = ExperimentConfig()
    if args.preset:
        from .harness import preset_config
        config = preset_config(config, args.preset)
    return config


def _cmd_train(args) -> int:
    config = _load_experiment_config(args)
    seed = args.seed if args.seed is not None else config.seeds[0]
    run_dir = os.path.join(args.out, f"run_seed{seed}")
    bundle = run_experiment(config, seed=seed, run_dir=run_dir)
    final = bundle.final_report()
    ks = sorted(final.r)
    for k in ks:
        print(f"final R@{k}={final.r[k]:.2f} mR@{k}={final.mr[k]:.2f} M@{k}={final.m[k]:.2f}")
    for k, fm in sorted(bundle.fm.items()):
        print(f"FM@{k}={fm:.2f}")
    print(f"score_wtd={final.score:.2f}")
    print(f"results in {run_dir}")
    return 0


def _cmd_eval(args) -> int:
    preds = load_predictions(args.dump)
    gt = load_gt(args.gt)
    r, mr = recall_at_ks(preds, gt, (args.k,), mode=args.mode)[args.k]
    print(f"R@{args.k}={r:.4f}")
    print(f"mR@{args.k}={mr:.4f}")
    print(f"M@{args.k}={m_at_k(r, mr):.4f}")
    if args.wmap:
        # the box modes score both box matchings; ids and triplet have one
        modes = ("rel", "phr") if args.mode in ("rel", "phr") else (args.mode,)
        wmaps = [weighted_map(preds, gt, mode=mode) for mode in modes]
        for mode, wmap in zip(modes, wmaps):
            print(f"wmAP_{mode}={wmap:.4f}")
        print(f"score_wtd={score_wtd(r, wmaps[0], wmaps[-1]):.4f}")
    return 0


def _cmd_ablate(args) -> int:
    config = _load_experiment_config(args)
    if args.seed is not None:
        config.seeds = (args.seed,)
    presets = tuple(args.presets.split(",")) if args.presets else ABLATION_SUITE
    run_ablation_suite(config, presets=presets, out_dir=args.out)
    print(f"comparison tables in {args.out}")
    return 0


def _cmd_report(args) -> int:
    table = load_comparison_csv(args.comparison)
    labels = list(table)
    if not labels:
        print("empty comparison file", file=sys.stderr)
        return 1
    cols = [c for c in table[labels[0]] if c != "seeds"]
    width = max(len(label) for label in labels + ["config"])
    print(f"{'config':<{width}}  " + "  ".join(f"{c:>14}" for c in cols))
    for label in labels:
        cells = "  ".join(f"{table[label][c]:>14.4f}" for c in cols)
        print(f"{label:<{width}}  {cells}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lsgg",
                                     description="lifelong scene-graph predicate "
                                                 "prediction benchmark")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic embedding dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-out", default=None)
    p.add_argument("--n-pred", type=int, default=50)
    p.add_argument("--n-groups", type=int, default=5)
    p.add_argument("--n-obj", type=int, default=20)
    p.add_argument("--d-c", type=int, default=64)
    p.add_argument("--d-r", type=int, default=64)
    p.add_argument("--d-o", type=int, default=32)
    p.add_argument("--sigma", type=float, default=0.35)
    p.add_argument("--zipf", type=float, default=0.8)
    p.add_argument("--total-n", type=int, default=10000)
    p.add_argument("--pairs-per-image", type=int, default=4)
    _add_seed(p)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("split", help="write a task schedule for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stages", type=int, default=5)
    p.add_argument("--mode", choices=("random", "frequency"), default="random")
    _add_seed(p)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="run the staged protocol end to end")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--preset", default=None, help="ablation preset name")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a prediction dump against ground truth")
    p.add_argument("--dump", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--k", type=int, default=50)
    p.add_argument("--mode", choices=("ids", "triplet", "rel", "phr"), default="ids")
    p.add_argument("--wmap", action="store_true", help="also compute weighted mAP")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run the ablation suite")
    p.add_argument("--config", default=None)
    p.add_argument("--preset", default=None, help=argparse.SUPPRESS)
    p.add_argument("--presets", default=None, help="comma-separated preset names")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="restrict to a single seed instead of the config's list")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("report", help="pretty-print a comparison CSV")
    p.add_argument("--comparison", required=True)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
