"""Experiment configuration: YAML parsing, defaulting, and validation.

The config file is a YAML document with `link`, `pipeline`, `sweep`,
`seeds`, and output settings.  One builder, :func:`_build`, makes the
`link` and `pipeline` sections and the top level into their dataclasses:
every omitted field falls back to the dataclass default, the applied
defaults are logged at INFO level, an empty section takes all of them, and
unknown keys or a section that is not a mapping are a :class:`ConfigError`.
Each dataclass checks its own field types against its annotations and
then its ranges.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import re
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import yaml

from .channel import LinkConfig, _check_types
from .errors import ConfigError
from .pipeline import PipelineConfig

log = logging.getLogger(__name__)

SWEEP_AXES = ("recirculations", "launch_power_dbm", "snr_db")


class _Loader(yaml.SafeLoader):
    """PyYAML's safe loader follows YAML 1.1, which reads a number whose
    exponent has no sign (``60.0e9``, ``1e5``) as a string; this one reads
    it as a float, as YAML 1.2 does."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)"
               r"[eE][-+]?[0-9]+$"),
    list("-+0123456789."))


@dataclass(frozen=True)
class ExperimentConfig:
    link: LinkConfig = field(default_factory=LinkConfig)
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    sweep_axis: str = "recirculations"
    sweep_values: tuple = (1,)
    seeds: tuple = (1,)
    outputs: str = "results"
    emit_plots: bool = True
    n_samples: int = 8_000_000
    capture_rate: float = 40e9
    base_recirculations: int = 1   # used when the sweep axis is not distance
    n_rings: int = 16
    mi_max_symbols: int = 500_000  # cap on samples fed to the MI estimator

    def __post_init__(self):
        _check_types(self)
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.sweep_axis!r}")
        if len(self.sweep_values) == 0:
            raise ConfigError("sweep value list is empty")
        key = f"sweep.{self.sweep_axis}"
        for v in self.sweep_values:
            if not _is_number(v):
                raise ConfigError(f"{key} values must be finite numbers, "
                                  f"got {v!r}")
            if self.sweep_axis == "recirculations" and not _is_count(v):
                raise ConfigError(f"{key} values must be integers >= 1, "
                                  f"got {v!r}")
        _reject_duplicates(key, self.sweep_values)
        # the CSVs and the characterization file names print a sweep value
        # with %.10g, so no two values may print alike there
        if len({f"{float(v):.10g}" for v in self.sweep_values}) != len(
                self.sweep_values):
            raise ConfigError(f"{key} values print alike at 10 significant "
                              f"digits: {list(self.sweep_values)}")
        for name in ("base_recirculations", "n_rings", "mi_max_symbols",
                     "n_samples"):
            v = getattr(self, name)
            if v < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")
        if self.capture_rate <= 0:
            raise ConfigError(f"capture_rate must be a positive number, "
                              f"got {self.capture_rate!r}")
        if abs(self.link.frequency_offset) >= self.capture_rate / 2:
            raise ConfigError(
                f"link.frequency_offset {self.link.frequency_offset:g} Hz "
                f"must be below half the capture_rate "
                f"{self.capture_rate:g} Hz")
        if len(self.seeds) == 0:
            raise ConfigError("need at least one seed")
        for s in self.seeds:
            if not _is_count(s, 0):
                raise ConfigError(f"seeds must be integers >= 0, got {s!r}")
        _reject_duplicates("seeds", self.seeds)

    def link_for(self, value) -> tuple[LinkConfig, int]:
        """Link config and recirculation count for one sweep point."""
        if self.sweep_axis == "recirculations":
            return self.link, int(value)
        if self.sweep_axis == "launch_power_dbm":
            return (dataclasses.replace(self.link, launch_power_dbm=float(value)),
                    self.base_recirculations)
        return (dataclasses.replace(self.link, span_snr_db=float(value)),
                self.base_recirculations)


def _is_count(v, least: int = 1) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool) and v >= least


def _is_number(v) -> bool:
    return isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)


def _reject_duplicates(key: str, values: tuple) -> None:
    if len(set(values)) != len(values):
        raise ConfigError(f"{key} lists a value twice: {list(values)}")


def _build(cls, section, name: str, **parsed):
    """Build the config dataclass `cls` from the YAML mapping `section` and
    log the fields it leaves at their defaults.  An empty section (None)
    takes every default, and YAML lists become tuples.  `parsed` holds the
    fields the caller read from other keys; `section` may not name them."""
    if section is None:
        section = {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a mapping, got {section!r}")
    known = {f.name for f in dataclasses.fields(cls)} - set(parsed)
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    defaulted = known - set(section)
    if defaulted:
        log.info("%s: using defaults for %s", name, sorted(defaulted))
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v
                      for k, v in section.items()}, **parsed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {name}: {exc}") from exc


def validate_config(path: str | Path) -> ExperimentConfig:
    """Parse, default, and invariant-check an experiment config file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_text(), Loader=_Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        raise ConfigError(f"YAML parse error{where}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    link = _build(LinkConfig, raw.pop("link", None), "link")
    pipe = _build(PipelineConfig, raw.pop("pipeline", None), "pipeline")

    # no sweep: ExperimentConfig's default point (`characterize` needs none)
    sweep = raw.pop("sweep", {"recirculations": [1]})
    if not isinstance(sweep, dict) or not sweep:
        raise ConfigError("sweep must be a mapping naming one axis")
    axes = [a for a in sweep if a in SWEEP_AXES]
    if len(axes) != 1 or set(sweep) - set(SWEEP_AXES):
        raise ConfigError(
            f"sweep must name exactly one of {SWEEP_AXES}, got {sorted(sweep)}")
    axis = axes[0]
    values = sweep[axis]
    if not isinstance(values, (list, tuple)) or len(values) == 0:
        raise ConfigError(f"sweep.{axis} must be a non-empty list")

    return _build(ExperimentConfig, raw, "config", link=link, pipeline=pipe,
                  sweep_axis=axis, sweep_values=tuple(values))
