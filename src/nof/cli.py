"""Command-line entry point.

    nof <stage> [--config PATH] [--out DIR] [--seed N] [--set key=value ...]
    nof pipeline [--config PATH] [--out DIR] [--seed N] [--set key=value ...]

Flag precedence is flag > config file > built-in default. Exit codes:
0 success, 2 missing inputs, 3 invalid configuration or unparsable input,
4 numerical failure, 1 unexpected error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, MissingInputError, NumericalError, ParseError
from .pipeline import STAGES, load_config, run_pipeline, run_stage

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_MISSING_INPUT = 2
EXIT_BAD_CONFIG = 3
EXIT_NUMERICAL = 4


def _parse_set(pairs: list[str]) -> dict:
    """Turn --set a.b=value pairs into a nested override dict.

    A key may repeat (the last value wins), but a key that is a prefix of
    another, such as ``mine`` and ``mine.max_len``, is a conflict.
    """
    out: dict = {}
    keys: set[str] = set()
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = out
        parts = key.split(".")
        for other in keys:
            if other.startswith(key + ".") or key.startswith(other + "."):
                raise ConfigError(f"--set {key} conflicts with --set {other}")
        keys.add(key)
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nof",
        description=(
            "Multistage epoch-mining pipeline: synthesize epochs, separate "
            "factors, summarize attributes, cluster, derive classification "
            "rules, mine association rules, and partition them against an "
            "expert rule base."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES + ("pipeline",):
        p = sub.add_parser(stage, help=f"run the {stage} stage" if stage != "pipeline" else "run all stages in order")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="base seed (overrides config)")
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key, e.g. --set cluster.k_max=4",
        )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = _parse_set(args.set)
        if args.out is not None:
            overrides["out"] = args.out
        if args.seed is not None:
            overrides["seed"] = args.seed
        config = load_config(args.config, overrides)
        if args.command == "pipeline":
            entries = run_pipeline(config)
        else:
            entries = [run_stage(args.command, config)]
        for entry in entries:
            outputs = ", ".join(sorted(entry["outputs"]))
            print(f"[{entry['stage']}] ok ({entry['wall_time_s']:.3f}s): {outputs}")
        return EXIT_OK
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (ConfigError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except (NumericalError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:  # pragma: no cover - safety net
        print(f"unexpected error: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    raise SystemExit(main())
