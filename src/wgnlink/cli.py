"""Command-line entry point.

Verbs:
  simulate         WGN capacity/characterization sweep from a config file
  reference-16qam  conventional 16QAM transmission over the same sweep
  characterize     channel estimation from a stored capture pair
  validate         parse and check a config file without running anything

Exit codes: 0 success, 1 configuration error (a bad config file, flag or
output directory), 2 runtime failure at one or more sweep points.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import runner
from .config import validate_config
from .errors import ConfigError, WgnLinkError
from .pipeline import PipelineConfig
from .signals import read_signal

log = logging.getLogger(__name__)

QUICK_SAMPLES = 1_000_000


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="YAML experiment config")
    sub.add_argument("--out", default=None,
                     help="output directory (overrides the config)")
    sub.add_argument("--seeds", default=None,
                     help="comma-separated seed list (overrides the config)")
    sub.add_argument("--quick", action="store_true",
                     help=f"cap captures at {QUICK_SAMPLES} samples")
    sub.add_argument("--no-plots", action="store_true",
                     help="skip SVG generation")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for sweep points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wgnlink",
        description="WGN-based capacity estimation and characterization "
                    "of fiber-optic links")
    parser.add_argument("-v", "--verbose", action="store_true")
    subs = parser.add_subparsers(dest="verb", required=True)

    _add_common(subs.add_parser(
        "simulate", help="run the WGN capacity sweep"))
    _add_common(subs.add_parser(
        "reference-16qam", help="run the 16QAM reference sweep"))

    char = subs.add_parser(
        "characterize", help="estimate the channel from stored captures")
    char.add_argument("--input", required=True,
                      help="transmitted capture (binary)")
    char.add_argument("--output", required=True,
                      help="received capture (binary)")
    char.add_argument("--out", default="results", help="output directory")
    char.add_argument("--config", default=None,
                      help="optional YAML config for pipeline settings")
    char.add_argument("--no-plots", action="store_true")

    val = subs.add_parser("validate", help="check a config file")
    val.add_argument("--config", required=True)
    return parser


def _load(args) -> "runner.ExperimentConfig":
    cfg = validate_config(args.config)
    updates = {}
    if args.out is not None:
        updates["outputs"] = args.out
    if args.seeds is not None:
        try:
            seeds = tuple(int(s) for s in args.seeds.split(",") if s.strip())
        except ValueError as exc:
            raise ConfigError(f"bad --seeds value {args.seeds!r}") from exc
        if not seeds:
            raise ConfigError("--seeds list is empty")
        updates["seeds"] = seeds
    if args.quick:
        updates["n_samples"] = min(cfg.n_samples, QUICK_SAMPLES)
    if args.no_plots:
        updates["emit_plots"] = False
    return dataclasses.replace(cfg, **updates) if updates else cfg


def _make_out_dir(path) -> None:
    """Create the output directory before any point runs; a path that
    cannot be one (an existing file, say) is a configuration error."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: "
                          f"{exc.strerror}") from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.verb == "validate":
            cfg = validate_config(args.config)
            print(f"config OK: sweep {cfg.sweep_axis} over "
                  f"{list(cfg.sweep_values)}, seeds {list(cfg.seeds)}")
            return 0
        if args.verb in ("simulate", "reference-16qam"):
            if args.jobs < 1:
                raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
            run = (runner.run_experiment if args.verb == "simulate"
                   else runner.run_reference_16qam)
            cfg = _load(args)
            _make_out_dir(cfg.outputs)
            return run(cfg, jobs=args.jobs)
        if args.verb == "characterize":
            pipe = PipelineConfig()
            if args.config is not None:
                pipe = validate_config(args.config).pipeline
            _make_out_dir(args.out)
            try:
                with open(args.input, "rb") as f:
                    f_in = read_signal(f)
                with open(args.output, "rb") as f:
                    f_out = read_signal(f)
            except (OSError, ValueError) as exc:
                log.error("cannot read captures: %s", exc)
                return 2
            try:
                runner.characterize_captures(f_in, f_out, pipe, args.out,
                                             emit_plots=not args.no_plots)
            except (WgnLinkError, ValueError) as exc:
                log.error("characterization failed: %s", exc)
                return 2
            return 0
    except ConfigError as exc:
        log.error("configuration error: %s", exc)
        return 1
    raise AssertionError(f"unhandled verb {args.verb}")


if __name__ == "__main__":
    sys.exit(main())
