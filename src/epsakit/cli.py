"""Command-line surface: describe, complexity, gradcheck, train-toy, ablation.

Exit codes: 0 success, 2 usage or configuration error (a model too big
to build included), 3 numerical failure (a failed gradient check, a
diverged training run, or NaN/Inf in a forward or backward pass). All
subcommands are deterministic given flags and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import complexity, defaults, gradcheck, models, training
from .tensor import NonFiniteError, random_uniform

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def cmd_describe(args) -> int:
    if args.config:
        model = models.build_from_config(json.loads(Path(args.config).read_text()))
    elif args.model:
        model = models.build_model(args.model)
    else:
        print("describe: a model name or --config is required", file=sys.stderr)
        return EXIT_USAGE
    desc = models.describe(model, input_size=args.input_size)
    _emit(desc.to_json() if args.format == "json" else desc.to_text(), args.output)
    return EXIT_OK


def cmd_complexity(args) -> int:
    reports = []
    for name in args.models:
        model = models.build_model(name)
        shape = (1, 3, args.input_size, args.input_size)
        reports.append(complexity.analyze(model, shape))
        del model
    if len(reports) == 1:
        r = reports[0]
        _emit(r.to_json() if args.format == "json" else r.to_text(), args.output)
    else:
        table = complexity.compare(reports)
        text = json.dumps(table, indent=2, sort_keys=True) if args.format == "json" \
            else complexity.compare_text(table)
        _emit(text, args.output)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_suite(args.scope, seed=args.seed)
    if args.format == "json":
        payload = [
            {"name": r.name, "max_rel_error": r.max_rel_error,
             "tolerance": gradcheck.TOLERANCE, "passed": r.passed}
            for r in results
        ]
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.output)
    else:
        _emit(gradcheck.report_text(results), args.output)
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERIC


def cmd_train_toy(args) -> int:
    flags = ("lr", "momentum", "weight_decay", "batch_size", "epochs", "seed")
    overrides = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    cfg = dataclasses.replace(defaults.TOY_TRAIN, **overrides)  # ValueError: exit 2
    ds = training.make_toy_dataset(**defaults.TOY_DATASET)
    model = models.build_toy_epsanet(num_classes=ds.num_classes, **defaults.TOY_MODEL)
    if args.output:  # before training, so a bad path costs no run
        Path(args.output).mkdir(parents=True, exist_ok=True)
    try:
        history = training.train(model, ds, cfg)
    except training.TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.output:
        outdir = Path(args.output)
        (outdir / "history.csv").write_text(history.to_csv())
        (outdir / "summary.json").write_text(history.summary_json() + "\n")
    print(history.summary_json())
    return EXIT_OK


def cmd_ablation(args) -> int:
    rows = []
    x = random_uniform((1, 3, 64, 64), seed=0)
    for cfg in models.ablation_configs():
        model = models.build_epsanet50_with_groups(cfg.groups)
        report = complexity.analyze(model, (1, 3, args.input_size, args.input_size))
        logits = models.forward(model, x)  # raises on non-finite values
        rows.append({
            "kernels": list(cfg.kernels),
            "groups": list(cfg.groups),
            "params": report.total_params,
            "params_millions": report.params_m,
            "flops": report.total_flops,
            "flops_giga": report.flops_g,
            "forward_64px_finite": bool(logits.shape == (1, 1000)),
            "default": list(cfg.groups) == list(models.SMALL_GROUPS),
        })
        del model
    if args.format == "json":
        _emit(json.dumps({"rows": rows}, indent=2, sort_keys=True), args.output)
    else:
        lines = [f"{'kernels':<14s} {'groups':<16s} {'params(M)':>10s} {'flops(G)':>9s} {'default':>8s}"]
        for r in rows:
            lines.append(
                f"{str(tuple(r['kernels'])):<14s} {str(tuple(r['groups'])):<16s} "
                f"{r['params_millions']:>10.2f} {r['flops_giga']:>9.2f} "
                f"{'*' if r['default'] else '':>8s}"
            )
        _emit("\n".join(lines), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epsakit",
        description="Pyramid squeeze attention toolkit: structure, complexity, "
                    "gradient verification, and desk-scale training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write result to this path instead of stdout")

    p = sub.add_parser("describe", help="stage table with output sizes")
    p.add_argument("model", nargs="?", help="canonical model name")
    p.add_argument("--config", help="JSON model-config file (overrides the name)")
    common(p)
    p.add_argument("--input-size", type=int, default=224)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("complexity", help="parameter/FLOP report, or a comparison for several models")
    p.add_argument("models", nargs="+", help="canonical model names")
    common(p)
    p.add_argument("--input-size", type=int, default=224)
    p.set_defaults(func=cmd_complexity)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("scope", choices=gradcheck.SCOPES)
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("train-toy", help="overfit the frozen toy fixture")
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--output", help="directory for history.csv and summary.json")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("ablation", help="group-size ablation configurations, complexity and smoke forward")
    common(p)
    p.add_argument("--input-size", type=int, default=224)
    p.set_defaults(func=cmd_ablation)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(err.code) if err.code else EXIT_OK
    try:
        return args.func(args)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    except NonFiniteError as err:  # a ValueError, so caught first
        print(f"error: {err} (layer {err.layer}, phase {err.phase})", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, MemoryError) as err:  # json.JSONDecodeError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
