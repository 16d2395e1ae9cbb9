"""Command-line entry points: generate / train / verify.

Exit codes: 0 success, 1 runtime or property failure (also an array too
large to allocate), 2 invalid usage (including a dataset CSV that does not
load), 3 semantically incompatible loss/mode combination.  Output files are
timestamp-free so reruns with the same seed are byte-identical; the only
timestamp is a single header line on stdout, suppressed by --no-timestamp.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import data, network, trainer, verify

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INCOMPATIBLE = 3


def _print_timestamp(args) -> None:
    if not args.no_timestamp:
        print(f"# run {datetime.now(timezone.utc).isoformat()}")


def cmd_generate(args, parser) -> int:
    try:
        dataset = data.generate(
            n_classes=args.classes,
            n_features=args.features,
            n_samples=args.samples,
            frequencies=[float(x) for x in args.frequencies.split(",")],
            cluster_separation=args.separation,
            seed=args.seed,
        )
        dataset = data.with_synthesized_priors(dataset, args.prior_noise)
        dataset = data.with_corrupt_labels(dataset, args.label_flip, seed=args.seed + 1)
    except ValueError as exc:
        parser.error(str(exc))
    _print_timestamp(args)
    try:
        data.save_dataset(dataset, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(",".join(str(c) for c in np.bincount(dataset.true_labels, minlength=dataset.n_classes)))
    print(f"wrote {args.samples} samples to {args.out}")
    return EXIT_OK


_CONFIG_PATH_KEYS = ("train", "val", "out_dir")


def _load_experiment_config(args, parser) -> tuple[trainer.TrainConfig, dict]:
    doc: dict = {}
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        except json.JSONDecodeError as exc:
            parser.error(f"config {args.config} is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            parser.error("config document must be a JSON object")
    paths = {key: doc.pop(key) for key in _CONFIG_PATH_KEYS if key in doc}
    for key, value in paths.items():
        if not isinstance(value, str):
            parser.error(f"config key {key!r} must be a path string")
    # each train flag that overrides a TrainConfig field has that field's name as its dest
    overrides = {f.name: v for f in fields(trainer.TrainConfig) if (v := getattr(args, f.name, None)) is not None}
    try:
        config = replace(trainer.config_from_dict(doc), **overrides)
    except (TypeError, ValueError) as exc:
        parser.error(f"invalid config: {exc}")
    return config, paths


def cmd_train(args, parser) -> int:
    config, config_paths = _load_experiment_config(args, parser)
    train_path = args.train or config_paths.get("train")
    val_path = args.val or config_paths.get("val")
    out_dir = args.out_dir or config_paths.get("out_dir")
    for name, value in (("--train", train_path), ("--val", val_path), ("--out-dir", out_dir)):
        if value is None:
            parser.error(f"{name} is required (flag or config key)")
    for label, path in (("train", train_path), ("val", val_path)):
        if not Path(path).is_file():
            parser.error(f"{label} dataset {path} does not exist")

    try:
        train_set = data.load_dataset(train_path)
        val_set = data.load_dataset(val_path)
        trainer.check_compatibility(config, train_set, val_set)
    except trainer.IncompatibleConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except ValueError as exc:  # a data.DatasetFormatError, or a set or class_weights that does not fit
        parser.error(str(exc))
    _print_timestamp(args)
    try:
        params, history = trainer.train(config, train_set, val_set)
    except trainer.NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    report = trainer.evaluate(params, val_set)

    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        network.save_params(params, out / "model.json")
        trainer.write_history(history, out / "history.csv")
        with open(out / "metrics.json", "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write outputs to {out}: {exc}", file=sys.stderr)
        return EXIT_FAILURE

    print(f"loss={config.loss} mode={config.mode} iterations={history[-1].iteration}")
    print(f"macro_precision={report.macro_precision:.4f} macro_recall={report.macro_recall:.4f} macro_f1={report.macro_f1:.4f}")
    print(f"wrote {out / 'model.json'}, {out / 'history.csv'}, {out / 'metrics.json'}")
    return EXIT_OK


def cmd_verify(args, parser) -> int:
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be >= 1")
    suites = verify.SUITES if args.suite == "all" else [args.suite]
    sizes = {} if args.trials is None else {"trials": args.trials}
    _print_timestamp(args)
    # each suite is called by its name on verify, so a suite rebound on that module is the one that runs
    results = [r for name in suites for r in getattr(verify, verify.SUITES[name].__name__)(seed=args.seed, **sizes)]
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} properties passed")
    return EXIT_OK if not failed else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kellyfe",
        description="Generalized-Kelly candidate labels, free-energy losses, and their verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic imbalanced dataset CSV")
    g.add_argument("--classes", type=int, required=True)
    g.add_argument("--features", type=int, default=2)
    g.add_argument("--samples", type=int, required=True)
    g.add_argument("--frequencies", type=str, required=True, help="comma-separated, sums to 1")
    g.add_argument("--separation", type=float, default=3.0)
    g.add_argument("--prior-noise", type=float, default=0.1)
    g.add_argument("--label-flip", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", type=str, required=True)
    g.add_argument("--no-timestamp", action="store_true")

    t = sub.add_parser("train", help="train a classifier and write model/history/metrics")
    t.add_argument("--loss", choices=trainer.LOSS_NAMES)
    t.add_argument("--mode", choices=trainer.MODE_NAMES)
    t.add_argument("--train", type=str)
    t.add_argument("--val", type=str)
    t.add_argument("--config", type=str, help="JSON file of TrainConfig fields plus train/val/out_dir")
    t.add_argument("--out-dir", type=str)
    t.add_argument("--gamma", type=float, dest="gamma_mod", metavar="GAMMA", help="focal modulation factor")
    t.add_argument("--seed", type=int)
    t.add_argument("--batch-size", type=int)
    t.add_argument("--max-iterations", type=int)
    t.add_argument("--patience", type=int)
    t.add_argument("--no-timestamp", action="store_true")

    v = sub.add_parser("verify", help="run the brute-force and finite-difference suites")
    v.add_argument("--suite", choices=(*verify.SUITES, "all"), default="all")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--no-timestamp", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # built per call, so a cmd_* rebound on this module is the one that runs
    commands = {"generate": cmd_generate, "train": cmd_train, "verify": cmd_verify}
    try:
        return commands[args.command](args, parser)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
