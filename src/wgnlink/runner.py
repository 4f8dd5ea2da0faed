"""Experiment orchestration: capture -> link -> pipeline -> metrics sweeps.

Produces a JSON manifest, CSV result tables, and SVG plots.  All outputs are
pure functions of the configuration and seeds; rows are sorted before
writing so reruns are byte-identical.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import json
import logging
import math
import platform
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, svgplot
from .channel import MimoChannel, run_link
from .config import ExperimentConfig
from .errors import ConfigError
from .estimation import (ImpulseResponse, MdlSpectrum, estimate_channel,
                         impulse_response_from_channel, mdl_from_channel)
from .metrics import (build_ring_constellation, estimate_mi,
                      estimate_mi_discrete, estimate_snr, qam16_constellation)
from .pipeline import (PipelineConfig, PipelineResult, _share_cpus,
                       run_pipeline)
from .signals import (ComplexSignal, MimoSignal, MimoSpectrum,
                      _resampled_bins, _transform_rows, generate_wgn_mimo)

log = logging.getLogger(__name__)

MI_COLUMNS = ["signal", "sweep_axis", "sweep_value", "distance_km",
              "launch_power_dbm", "seed", "tributary", "bits_per_symbol",
              "assumed_baud", "snr_db"]


def _point_seed(seed: int, value) -> int:
    # stable per-(seed, sweep value) link seed
    return abs(hash((int(seed) * 1_000_003, float(value)))) % (2 ** 63)


def _wgn_point(cfg: ExperimentConfig, value, seed: int,
               characterize: bool) -> dict:
    """One sweep point x seed: full WGN capture, link, pipeline, metrics."""
    # unit power: the link noise is set relative to the measured signal
    # power, so the transmitted power does not change any result
    captures = [MimoSpectrum.of(generate_wgn_mimo(
        cfg.link.n_modes, cfg.n_samples, cfg.capture_rate, 1.0, seed))]
    result = _receive(cfg, value, seed, captures, cfg.pipeline)
    osr, limit = cfg.pipeline.oversampling, cfg.mi_max_symbols
    rate = result.f_in.sample_rate / osr
    rings = build_ring_constellation(cfg.n_rings)
    pairs = ((ComplexSignal(ref[::osr][:limit], rate),
              ComplexSignal(eq[::osr][:limit], rate))
             for ref, eq in zip(result.f_in.data, result.f_eq.data))
    rows = _tributary_rows(cfg, "wgn", value, seed, pairs,
                           lambda ref, eq: estimate_mi(ref, eq, rings))
    cap = np.log2(rings.n_points)
    for m in (r["tributary"] for r in rows if r["bits_per_symbol"] >= cap):
        log.warning("sweep value %s seed %s tributary %d: MI at the "
                    "clamp log2(64 * n_rings) = %.2f bits (n_rings=%d)",
                    value, seed, m, cap, cfg.n_rings)
    out = {"rows": rows, "alignment": result.alignment}
    if characterize:
        out["characterization"] = _characterize(result.channel,
                                                cfg.pipeline.filter_bw)
    return out


def _receive(cfg: ExperimentConfig, value, seed: int, captures: list,
             pipe: PipelineConfig) -> PipelineResult:
    """The sweep point's link, then the receive chain `pipe` over the first
    ``mi_max_symbols`` symbols.  `captures` holds the transmitted spectrum
    and nothing else may: the link appends the received one, and both are
    popped into run_pipeline, which then holds the last reference to each
    and frees it once the front end has consumed it."""
    link, n_rec = cfg.link_for(value)
    captures.append(run_link(captures[0], link, n_rec,
                             _point_seed(seed, value)))
    return run_pipeline(captures.pop(0), captures.pop(), link, pipe,
                        n_recirculations=n_rec,
                        n_measured=cfg.mi_max_symbols * pipe.oversampling)


def _tributary_rows(cfg: ExperimentConfig, signal: str, value, seed: int,
                    pairs, mi) -> list[dict]:
    """One `MI_COLUMNS` row per (reference, received) pair of symbol-rate
    signals; ``mi(reference, received)`` gives the bits per symbol."""
    link, n_rec = cfg.link_for(value)
    rows = []
    for m, (ref, eq) in enumerate(pairs):
        rows.append({"signal": signal, "sweep_axis": cfg.sweep_axis,
                     "sweep_value": value,
                     "distance_km": n_rec * link.span_length,
                     "launch_power_dbm": link.launch_power_dbm,
                     "seed": seed, "tributary": m,
                     "bits_per_symbol": mi(ref, eq),
                     "assumed_baud": cfg.pipeline.assumed_baud,
                     "snr_db": estimate_snr(ref, eq)})
    return rows


def _characterize(channel: MimoChannel, band: Optional[float]
                  ) -> tuple[MdlSpectrum, ImpulseResponse]:
    """MDL spectrum and impulse response of a channel estimate, both cut
    at the receive filter's band edge `band`."""
    return (mdl_from_channel(channel, band_edge=band),
            impulse_response_from_channel(channel, band_edge=band))


def generate_qam16_mimo(n_modes: int, n_symbols: int, baud: float,
                        mean_power: float, seed: int, oversampling: int = 2,
                        rolloff: float = 0.1,
                        sample_rate: Optional[float] = None, *,
                        spectrum: bool = False):
    """Nyquist (raised-cosine) shaped 16QAM, `oversampling` samples/symbol.

    Returns the waveform and the per-tributary symbol matrix.  The pulse is
    full raised cosine so the waveform at symbol instants equals the symbols
    exactly; matched filtering is subsumed by the data-aided equalizer.

    The waveform is sampled at `sample_rate` (default ``baud *
    oversampling``): the shaped spectrum of the symbols zero-stuffed to
    ``n = n_symbols * oversampling`` samples is cut or zero-padded onto
    that rate's grid (:func:`wgnlink.signals._resample_spectrum`), which
    equals resampling the waveform afterwards.  That n-point spectrum is
    never built: it is the symbols' own FFT repeated `oversampling` times,
    so each kept bin is gathered from that FFT and weighted by the raised
    cosine.  One in-place inverse FFT per row gives the waveform; with
    ``spectrum=True`` it is skipped and the waveform comes as its
    :class:`MimoSpectrum`.  A rate whose Nyquist frequency is below the
    occupied band ``(1 + rolloff) * baud / 2`` raises ValueError.
    """
    if not 0 < mean_power < math.inf:
        raise ValueError(f"mean_power must be finite and > 0: {mean_power!r}")
    rate = baud * oversampling
    if sample_rate is None:
        sample_rate = rate
    if (1 + rolloff) * baud > sample_rate * (1 + 1e-12):  # rounding slack
        raise ValueError(f"sample_rate {sample_rate:g} Hz cannot hold the "
                         f"{(1 + rolloff) * baud:g} Hz wide 16QAM band")
    rng = np.random.default_rng(seed)
    pts = qam16_constellation(mean_power)
    symbols = np.empty((n_modes, n_symbols), dtype=complex)
    for m in range(n_modes):
        symbols[m] = pts[rng.integers(0, 16, n_symbols)]
    n = n_symbols * oversampling
    n_out = int(round(n * sample_rate / rate))
    sym_fft = _transform_rows(np.fft.fft, symbols)
    step = 1.0 / (n * (1.0 / rate))  # as np.fft.fftfreq(n, 1 / rate)
    edge = (1 - rolloff) * baud / 2

    def shaped(a: int, b: int) -> np.ndarray:
        """Bins a..b-1 of the stuffed sequence's shaped n-point FFT."""
        k = np.arange(a, b)
        af = np.abs(np.where(k < (n + 1) // 2, k, k - n) * step)
        h = np.zeros(b - a)
        h[af <= edge] = 1.0
        ramp = (af > edge) & (af <= (1 + rolloff) * baud / 2)
        h[ramp] = 0.5 * (1 + np.cos(np.pi / (rolloff * baud)
                                    * (af[ramp] - edge)))
        return sym_fft[:, k % n_symbols] * h

    wave = _resampled_bins(shaped, (n_modes,), n, n_out)
    if spectrum:
        return MimoSpectrum._built(wave, sample_rate), symbols
    return (MimoSignal._built(_transform_rows(np.fft.ifft, wave, out=wave),
                              sample_rate), symbols)


def _qam_capture_length(cfg: ExperimentConfig) -> int:
    """Target-rate samples of a 16QAM capture: whole symbols that convert
    sample for sample between the capture and target rates.  For target /
    capture = p / q that is a multiple of p target-rate samples.  A
    `capture_rate` that leaves no capture of one equalizer block raises
    :class:`ConfigError`."""
    pipe = cfg.pipeline
    ratio = Fraction(pipe.target_rate) / Fraction(cfg.capture_rate)
    n_hi = round(cfg.n_samples * ratio)
    n_hi -= n_hi % math.lcm(pipe.oversampling, ratio.numerator)
    if n_hi < pipe.block_size:
        raise ConfigError(f"capture_rate {cfg.capture_rate!r} Hz with "
                          f"n_samples {cfg.n_samples} leaves no 16QAM "
                          f"capture of one {pipe.block_size}-sample block "
                          "that converts exactly")
    return n_hi


def _qam_point(cfg: ExperimentConfig, value, seed: int) -> dict:
    """16QAM reference transmission through the same link and pipeline."""
    pipe = dataclasses.replace(cfg.pipeline, filter_bw=None)
    osr = pipe.oversampling
    n_sym = _qam_capture_length(cfg) // osr
    tx, symbols = generate_qam16_mimo(cfg.link.n_modes, n_sym,
                                      pipe.assumed_baud, 1.0, seed, osr,
                                      sample_rate=cfg.capture_rate,
                                      spectrum=True)
    captures = [tx]
    del tx
    result = _receive(cfg, value, seed, captures, pipe)
    start = result.trim_start_in
    # the trimmed reference spans the aligned capture; f_eq only the first
    # mi_max_symbols symbols of it, which are all that is read
    n_avail = len(result.f_in)
    k_first = -(-start // osr)
    k_last = (start + n_avail - 1) // osr
    ks = np.arange(k_first, min(k_last + 1, n_sym))[:cfg.mi_max_symbols]
    locs = ks * osr - start
    baud = pipe.assumed_baud
    pts = qam16_constellation()
    pairs = ((ComplexSignal(sym[ks], baud), ComplexSignal(eq[locs], baud))
             for sym, eq in zip(symbols, result.f_eq.data))
    rows = _tributary_rows(
        cfg, "qam16", value, seed, pairs,
        lambda ref, eq: estimate_mi_discrete(ref.samples, eq, pts))
    return {"rows": rows, "alignment": result.alignment}


def _run_sweep(cfg: ExperimentConfig, kind: str, jobs: int) -> int:
    """Run all (sweep value, seed) jobs; returns a process exit code."""
    out_dir = Path(cfg.outputs)
    out_dir.mkdir(parents=True, exist_ok=True)
    tasks = [(value, seed, kind == "wgn" and i == 0)
             for value in cfg.sweep_values for i, seed in enumerate(cfg.seeds)]
    rows, errors, alignments, characterized = [], [], [], {}
    started = time.monotonic()
    # one call per task: its pooled future's result (every future is
    # submitted before the first is awaited) or the task run in-process.
    # Any per-point failure, including MemoryError or a BrokenProcessPool
    # from a killed worker, is recorded so the finished points are written.
    # Each worker's equalizer counts its share of the CPUs
    workers = min(jobs, len(tasks))
    with (ProcessPoolExecutor(max_workers=workers, initializer=_share_cpus,
                              initargs=(workers,)) if jobs > 1
          else contextlib.nullcontext()) as pool:
        calls = [pool.submit(_run_task, cfg, kind, t).result if jobs > 1
                 else functools.partial(_run_task, cfg, kind, t)
                 for t in tasks]
        for done, ((value, seed, _), call) in enumerate(zip(tasks, calls), 1):
            try:
                outcome = call()
            except Exception as exc:
                log.error("sweep point %s seed %s failed: %r", value, seed,
                          exc, exc_info=exc)
                errors.append({"sweep_value": value, "seed": seed,
                               "error": str(exc) or type(exc).__name__})
            else:
                rows.extend(outcome["rows"])
                a = outcome["alignment"]
                alignments.append({"sweep_value": value, "seed": seed,
                                   "lag": a.lag, "peak_ratio": a.peak_ratio})
                if "characterization" in outcome:
                    characterized[value] = outcome["characterization"]
            log.info("sweep: %d of %d points done, %d left, %.1f s elapsed",
                     done, len(tasks), len(tasks) - done,
                     time.monotonic() - started)

    suffix = "" if kind == "wgn" else f"_{kind}"
    _write_mi_csv(out_dir / f"mi_results{suffix}.csv", rows)
    written = [f"mi_results{suffix}.csv"]
    for value, (mdl, ir) in sorted(characterized.items(),
                                   key=lambda kv: float(kv[0])):
        written += _write_characterization(out_dir, _tag(value), mdl, ir)

    manifest = {
        "kind": kind,
        "config": dataclasses.asdict(cfg),
        "files": sorted(written),
        "errors": sorted(errors, key=_point_order),
        "alignment": sorted(alignments, key=_point_order),
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "wgnlink": __version__},
    }
    with open(out_dir / f"manifest{suffix}.json", "w") as f:
        json.dump(manifest, f, indent=2, default=str)
    if cfg.emit_plots:
        write_plots(out_dir)
    return 2 if errors else 0


def _run_task(cfg: ExperimentConfig, kind: str, task) -> dict:
    value, seed, characterize = task
    if kind == "wgn":
        return _wgn_point(cfg, value, seed, characterize)
    return _qam_point(cfg, value, seed)


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> int:
    """WGN capacity/characterization sweep.  Returns the CLI exit code.  A
    capture shorter than one equalizer block at the target rate raises
    ConfigError before any point runs."""
    pipe = cfg.pipeline
    n = round(cfg.n_samples * pipe.target_rate / cfg.capture_rate)
    if n < pipe.block_size:
        raise ConfigError(
            f"n_samples {cfg.n_samples} at capture_rate {cfg.capture_rate!r} "
            f"Hz is {n} samples at target_rate {pipe.target_rate!r} Hz, under "
            f"one block_size {pipe.block_size} equalizer block")
    return _run_sweep(cfg, "wgn", jobs)


def run_reference_16qam(cfg: ExperimentConfig, jobs: int = 1) -> int:
    """Conventional 16QAM reference transmission over the same sweep.  A
    `capture_rate` that leaves no 16QAM capture raises ConfigError before
    any point runs."""
    _qam_capture_length(cfg)
    return _run_sweep(cfg, "qam16", jobs)


def characterize_captures(f_in: MimoSignal, f_out: MimoSignal,
                          pipe: PipelineConfig, out_dir: str | Path,
                          emit_plots: bool = True) -> None:
    """Channel estimation only, from a stored capture pair."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    channel = estimate_channel(f_in, f_out, pipe)
    _write_characterization(out_dir, "capture",
                            *_characterize(channel, pipe.filter_bw))
    if emit_plots:
        write_plots(out_dir)


def _tag(value) -> str:
    """A sweep value in file names: as the CSV prints it (config rejects
    values that print alike), with ``m`` for ``-`` and ``p`` for ``.``."""
    return _fmt(float(value)).replace("-", "m").replace(".", "p")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _point_order(entry: dict) -> tuple:
    """Sort key of a row or manifest entry: numeric sweep value, then seed."""
    return float(entry["sweep_value"]), entry["seed"]


def _write_mi_csv(path: Path, rows: list[dict]) -> None:
    rows = sorted(rows, key=lambda r: (*_point_order(r), r["tributary"]))
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(MI_COLUMNS)
        for r in rows:
            writer.writerow([_fmt(r[c]) for c in MI_COLUMNS])


def _write_characterization(out_dir: Path, tag: str, mdl: MdlSpectrum,
                            ir: ImpulseResponse) -> list[str]:
    """Write ``mdl_<tag>.csv`` (valid bins only) and ``impulse_<tag>.csv``;
    returns their names."""
    names = [f"mdl_{tag}.csv", f"impulse_{tag}.csv"]
    m = ir.taps.shape[1]
    power_db = 10.0 * np.log10(np.maximum(np.abs(ir.taps) ** 2, 1e-30))
    header = (["time_s"] + [f"power_db_{i}{j}" for i in range(m)
                            for j in range(m)]
              + [f"# dynamic_range_db={ir.dynamic_range_db:.2f}"])
    tables = [(["frequency_hz", "mdl_db"],
               np.column_stack([mdl.frequencies[mdl.valid],
                                mdl.mdl_db[mdl.valid]])),
              (header, np.column_stack([ir.delays,
                                        power_db.reshape(len(ir.delays),
                                                         -1)]))]
    for name, (head, table) in zip(names, tables):
        with open(out_dir / name, "w", newline="") as f:
            csv.writer(f).writerow(head)
            # one format per row, as _fmt writes each float
            row = ",".join(["%.10g"] * table.shape[1]) + "\r\n"
            f.write("".join(row % tuple(r) for r in table.tolist()))
    return names


def write_plots(out_dir: str | Path) -> None:
    """Regenerate every SVG plot from the CSV files alone."""
    out_dir = Path(out_dir)
    rows = []
    for name in ("mi_results.csv", "mi_results_qam16.csv"):
        p = out_dir / name
        if p.exists():
            with open(p, newline="") as f:
                rows.extend(csv.DictReader(f))
    # one MI plot per sweep axis: the two verbs may share a directory
    for axis in sorted({r["sweep_axis"] for r in rows}):
        _plot_mi(out_dir, [r for r in rows if r["sweep_axis"] == axis])
    for p in sorted(out_dir.glob("mdl_*.csv")):
        _plot_mdl(out_dir, p)
    for p in sorted(out_dir.glob("impulse_*.csv")):
        _plot_impulse(out_dir, p)


def _means(rows: list[dict], key: str, columns: list[str]) -> list[tuple]:
    """Per value of column `key`, ascending: that value, then the mean of
    each of `columns` over its rows (every seed and tributary)."""
    groups = {}
    for r in rows:
        groups.setdefault(float(r[key]), []).append(r)
    return [(x, *(float(np.mean([float(r[c]) for r in groups[x]]))
                  for c in columns)) for x in sorted(groups)]


def _plot_mi(out_dir: Path, rows: list[dict]) -> None:
    x_key, xlabel, fname = {
        "recirculations": ("distance_km", "distance (km)", "mi_vs_distance"),
        "launch_power_dbm": ("launch_power_dbm", "launch power (dBm)",
                             "mi_vs_power"),
        "snr_db": ("sweep_value", "span SNR (dB)", "mi_vs_span_snr"),
    }[rows[0]["sweep_axis"]]
    series = []
    for signal in sorted({r["signal"] for r in rows}):
        means = _means([r for r in rows if r["signal"] == signal], x_key,
                       ["bits_per_symbol"])
        series.append(svgplot.Series(*zip(*means), label=signal.upper()))
    svgplot.line_plot(str(out_dir / f"{fname}.svg"), series,
                      "Mutual information", xlabel, "MI (bits/symbol)")

    # measured-SNR view with the Shannon curve overlaid
    wgn = [r for r in rows if r["signal"] == "wgn"]
    if wgn:
        xs, ys = zip(*sorted(m[1:] for m in _means(
            wgn, "sweep_value", ["snr_db", "bits_per_symbol"])))
        lo, hi = min(xs), max(xs)
        ref_x = list(np.linspace(lo, hi, 50)) if hi > lo else [lo]
        ref_y = [float(np.log2(1 + 10 ** (s / 10))) for s in ref_x]
        svgplot.line_plot(
            str(out_dir / "mi_vs_snr.svg"),
            [svgplot.Series(xs, ys, label="WGN measurement"),
             svgplot.Series(ref_x, ref_y, label="log2(1+SNR)",
                            markers=False, dashed=True)],
            "Mutual information vs measured SNR", "measured SNR (dB)",
            "MI (bits/symbol)")


def _read_table(csv_path: Path) -> np.ndarray:
    """The numbers of a characterization CSV: one row per line below the
    header, one column per header field that is not a ``#`` note.  A
    header-only file (an MDL spectrum with no valid bin) gives no rows."""
    with open(csv_path, newline="") as f:
        head, *lines = f.read().splitlines()
    n_cols = sum(not h.startswith("#") for h in head.split(","))
    return np.array([line.split(",") for line in lines],
                    dtype=float).reshape(-1, n_cols)


def _plot_mdl(out_dir: Path, csv_path: Path) -> None:
    table = _read_table(csv_path)
    svgplot.line_plot(str(out_dir / (csv_path.stem + ".svg")),
                      [svgplot.Series((table[:, 0] / 1e9).tolist(),
                                      table[:, 1].tolist(), markers=False)],
                      "Mode-dependent loss", "frequency (GHz)", "MDL (dB)")


def _plot_impulse(out_dir: Path, csv_path: Path) -> None:
    table = _read_table(csv_path)
    times = (table[:, 0] * 1e9).tolist()
    total = 10 * np.log10(np.sum(10 ** (table[:, 1:] / 10), axis=1))
    svgplot.line_plot(str(out_dir / (csv_path.stem + ".svg")),
                      [svgplot.Series(times, total.tolist(), markers=False)],
                      "Impulse response", "delay (ns)", "power (dB)")
