"""Command-line surface: describe, complexity, gradcheck, train-toy, ablation.

Exit codes: 0 success, 2 usage or configuration error (a model too big
to build included), 3 numerical failure (a failed gradient check, a
diverged training run, or NaN/Inf in a forward or backward pass). All
subcommands are deterministic given flags and seed.

A report is data: each subcommand hands `_emit` a plain value and its
text form, and `_emit` alone writes it, so every JSON report has one form
(two-space indent, sorted keys). `train-toy --output DIR` writes
`history.csv` and `summary.json`; a diverged run writes both too, the
steps it completed and a summary of `diverged: true`, `step`, `phase`,
`layer` and `last_finite_loss`, and still exits 3.
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


def _emit(args, value, text: str | None = None, output: str | Path | None = None) -> None:
    """Write one report: `value` in the one JSON form under `--format json`
    or when the report has no text form, else `text`; to `output` with a
    trailing newline, or to stdout."""
    if text is None or args.format == "json":
        text = json.dumps(value, indent=2, sort_keys=True)
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
    _emit(args, desc.to_dict(), desc.to_text(), args.output)
    return EXIT_OK


def cmd_complexity(args) -> int:
    reports = []
    for name in args.models:
        model = models.build_model(name)
        shape = (1, 3, args.input_size, args.input_size)
        reports.append(complexity.analyze(model, shape))
        del model
    if len(reports) == 1:
        _emit(args, reports[0].to_dict(), reports[0].to_text(), args.output)
    else:
        table = complexity.compare(reports)
        _emit(args, table, complexity.compare_text(table), args.output)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_suite(args.scope, seed=args.seed)
    rows = [{"name": r.name, "max_rel_error": r.max_rel_error,
             "tolerance": gradcheck.TOLERANCE, "passed": r.passed} for r in results]
    _emit(args, rows, gradcheck.report_text(results), args.output)
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
        history = err.history
    if args.output:
        outdir = Path(args.output)
        (outdir / "history.csv").write_text(history.to_csv())
        _emit(args, history.summary, output=outdir / "summary.json")
    if history.summary["diverged"]:
        return EXIT_NUMERIC
    _emit(args, history.summary)
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
    lines = [f"{'kernels':<14s} {'groups':<16s} {'params(M)':>10s} {'flops(G)':>9s} {'default':>8s}"]
    for r in rows:
        lines.append(
            f"{str(tuple(r['kernels'])):<14s} {str(tuple(r['groups'])):<16s} "
            f"{r['params_millions']:>10.2f} {r['flops_giga']:>9.2f} "
            f"{'*' if r['default'] else '':>8s}"
        )
    _emit(args, {"rows": rows}, "\n".join(lines), args.output)
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
