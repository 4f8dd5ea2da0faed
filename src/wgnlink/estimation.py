"""Inverted-role channel estimation, MDL spectra, and impulse responses.

After the receiver's own front end and alignment (without EDC), the FDE
solved with the transmitted and received fields in swapped roles gives a
frequency-domain estimate of the channel itself, from the covariance its
forward taps come from, solved the other way round.  Per-bin singular value
decomposition then yields the mode-dependent loss spectrum, and an inverse
Fourier transform of the estimate yields the channel impulse response.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import MimoChannel, _channel_on_grid
from .pipeline import PipelineConfig, run_pipeline
from .signals import MimoSignal

_NMSE_CAP_DB = -120.0


@dataclass(frozen=True)
class MdlSpectrum:
    """Mode-dependent loss versus frequency.

    Bins whose smallest singular value collapses below 1e-12 of the largest
    are flagged invalid and excluded from summary statistics.
    """

    frequencies: np.ndarray        # Hz, ascending
    mdl_db: np.ndarray             # per-bin 20*log10(s_max/s_min)
    singular_values: np.ndarray    # (n_bins, M), sorted descending
    valid: np.ndarray              # per-bin bool

    def mean_mdl_db(self) -> float:
        return float(np.mean(self.mdl_db[self.valid]))


@dataclass(frozen=True)
class ImpulseResponse:
    taps: np.ndarray           # (n_taps, M, M), zero delay at center index
    tap_spacing: float         # seconds
    dynamic_range_db: float

    @property
    def delays(self) -> np.ndarray:
        n = self.taps.shape[0]
        return (np.arange(n) - n // 2) * self.tap_spacing

    def summed_power(self) -> np.ndarray:
        return np.sum(np.abs(self.taps) ** 2, axis=(1, 2))


def estimate_channel(f_in: MimoSignal, f_out: MimoSignal,
                     cfg: PipelineConfig) -> MimoChannel:
    """Estimate the full channel from the inverted-role equalizer solve.

    :func:`wgnlink.pipeline.run_pipeline` with no link, so no EDC and the
    estimate holds the complete channel, and nothing measured, so the
    equalizer's covariance is accumulated and solved once, for the per-bin
    least-squares channel ``H = R_xd R_dd^-1``; the taps are never solved.
    """
    return run_pipeline(f_in, f_out, None, cfg, n_measured=0).channel


def mdl_from_channel(channel: MimoChannel,
                     band_edge: float | None = None) -> MdlSpectrum:
    """Per-bin singular values and MDL = 20*log10(s_max/s_min).

    `band_edge` masks bins beyond the signal bandwidth, where equalizer taps
    carry no information.  For two modes this is the PDL.
    """
    if channel.n_modes < 2:
        raise ValueError("MDL requires at least two modes")
    freqs = channel.frequencies
    keep = np.ones(len(freqs), dtype=bool)
    if band_edge is not None:
        keep = np.abs(freqs) <= band_edge
    order = np.argsort(freqs[keep])
    freqs_s = freqs[keep][order]
    sv = np.linalg.svd(channel.matrices[keep][order], compute_uv=False)
    valid = sv[:, -1] > 1e-12 * sv[:, 0]
    with np.errstate(divide="ignore"):
        mdl = 20.0 * np.log10(np.where(valid, sv[:, 0] / np.maximum(sv[:, -1], 1e-300), np.inf))
    return MdlSpectrum(freqs_s, mdl, sv, valid)


def _spectral_window(freqs: np.ndarray, band_edge: float) -> np.ndarray:
    """Raised-cosine edge taper applied before the impulse-response IFFT:
    flat to 90 % of `band_edge`, then a cosine ramp to zero at it."""
    transition = 0.1 * band_edge
    af = np.abs(freqs)
    flat = band_edge - transition
    w = np.zeros_like(af)
    w[af <= flat] = 1.0
    ramp = (af > flat) & (af <= band_edge)
    w[ramp] = 0.5 * (1.0 + np.cos(np.pi * (af[ramp] - flat) / transition))
    return w


def impulse_response_from_channel(channel: MimoChannel,
                                  band_edge: float | None = None
                                  ) -> ImpulseResponse:
    """Per-entry IFFT of the channel matrices, tapered by
    :func:`_spectral_window` at `band_edge` (default: Nyquist) and centered
    in time.

    The dynamic range is the peak summed-power tap over the median summed
    power outside the support region (the central eighth around the peak),
    which is robust to isolated reflections.
    """
    freqs = channel.frequencies
    span = channel.n_bins * channel.bin_spacing
    if band_edge is None:
        band_edge = 0.5 * span
    w = _spectral_window(freqs, band_edge)
    mats = channel.matrices * w[:, None, None]
    taps = np.fft.fftshift(np.fft.ifft(mats, axis=0), axes=0)
    power = np.sum(np.abs(taps) ** 2, axis=(1, 2))
    peak_idx = int(np.argmax(power))
    n = len(power)
    half_width = max(n // 16, 1)
    offset = (np.arange(n) - peak_idx) % n
    outside = (offset > half_width) & (offset < n - half_width)
    floor = float(np.median(power[outside])) if np.any(outside) else 0.0
    if floor > 0:
        dyn = 10.0 * np.log10(power[peak_idx] / floor)
    else:
        dyn = np.inf
    return ImpulseResponse(taps, 1.0 / span, float(max(dyn, 0.0)))


def compare_channels(estimate: MimoChannel, truth: MimoChannel,
                     band_edge: float | None = None
                     ) -> tuple[np.ndarray, float]:
    """Per-bin Frobenius NMSE (dB) and a scalar summary after a global
    complex gain/phase fit plus an integer-tap bulk-delay fit (the
    equalizer observes neither absolute phase/gain nor absolute delay:
    time alignment fixes the dominant path to lag zero).

    The truth channel is interpolated onto the estimate's grid; `band_edge`
    restricts the comparison to the usable signal band.
    """
    if estimate.n_modes != truth.n_modes:
        raise ValueError("channel dimensions differ")
    freqs = estimate.frequencies
    t_full = _channel_on_grid(truth, freqs)
    e_full = estimate.matrices
    # remove the unobservable bulk delay: pick the integer tap shift that
    # maximizes the cross-correlation between estimate and truth
    cross = np.sum(np.conj(t_full) * e_full, axis=(1, 2))
    shift = int(np.argmax(np.abs(np.fft.ifft(cross))))
    n = len(freqs)
    rot = np.exp(2j * np.pi * shift * np.arange(n) / n)
    e_full = e_full * rot[:, None, None]
    keep = np.ones(len(freqs), dtype=bool)
    if band_edge is not None:
        keep = np.abs(freqs) <= band_edge
    t_sel = t_full[keep]
    e_sel = e_full[keep]
    denom = np.sum(np.abs(t_sel) ** 2)
    if denom == 0:
        raise ValueError("truth channel has zero energy in the band")
    alpha = np.sum(np.conj(t_sel) * e_sel) / denom
    diff = e_sel - alpha * t_sel
    per_bin_num = np.sum(np.abs(diff) ** 2, axis=(1, 2))
    per_bin_den = np.sum(np.abs(t_sel) ** 2, axis=(1, 2))
    with np.errstate(divide="ignore"):
        per_bin = 10.0 * np.log10(
            np.maximum(per_bin_num / np.maximum(per_bin_den, 1e-300),
                       10.0 ** (_NMSE_CAP_DB / 10.0)))
    summary = 10.0 * np.log10(max(np.sum(per_bin_num) / denom,
                                  10.0 ** (_NMSE_CAP_DB / 10.0)))
    return per_bin, float(summary)
