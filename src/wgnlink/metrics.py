"""Mutual-information and SNR estimation between reference and equalized fields.

Every estimate first fits a least-squares complex gain of the received field
onto the reference and works on the normalized field and its residual.

The MI estimator is a mismatched-decoding lower bound with a circular
Gaussian auxiliary channel whose variance s is measured from the data
(Arnold et al., "Simulation-based computation of information rates", IEEE
Trans. IT 2006).  For the circular Gaussian reference of power P the
auxiliary output marginal is exactly CN(0, P + s), so the bound has the
closed form

    mean(|y|^2 / (P + s) - |y - x|^2 / s) / ln 2 + log2((P + s) / s)

which tracks log2(1+SNR) closely while remaining a lower bound.  A
:class:`RingConstellation` only sets its clamp log2(n_rings * phase_points).

For a known discrete source (the 16QAM reference),
:func:`estimate_mi_discrete` evaluates the same bound as a log-sum-exp over
the constellation, shifted by the sent point's exponent, which is exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import ComplexSignal

_SNR_CAP_DB = 80.0
# samples per chunk of the discrete-input MI: its (chunk, k) float64
# arrays stay in a core's cache
_MI_CHUNK = 4096


@dataclass(frozen=True)
class RingConstellation:
    """Concentric rings of `phase_points` points discretizing a circular
    Gaussian source; log2(n_points) bits clamps :func:`estimate_mi`."""

    n_rings: int
    phase_points: int = 64

    def __post_init__(self):
        if self.n_rings < 1:
            raise ValueError("n_rings must be >= 1")
        if self.phase_points < 4:
            raise ValueError("phase_points must be >= 4")

    @property
    def n_points(self) -> int:
        return self.n_rings * self.phase_points


def build_ring_constellation(n_rings: int, mean_power: float = 1.0,
                             phase_points: int = 64) -> RingConstellation:
    """The ring constellation whose size caps :func:`estimate_mi`.
    `mean_power` is accepted but has no effect: the clamp has no power."""
    return RingConstellation(n_rings, phase_points)


def _fit(x: np.ndarray, f_eq: ComplexSignal
         ) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares complex gain fit of `f_eq` onto `x`: returns the
    normalized samples and their per-sample residual power ``|y - x|^2``.
    A field from :func:`_fitted` on the array `x` returns its fit."""
    if isinstance(f_eq, _Fitted) and f_eq.reference is x:
        return f_eq.normalized, f_eq.residual
    y = f_eq.samples
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("signals must be equal non-zero length")
    denom = np.vdot(x, x)
    if denom == 0:
        raise ValueError("reference signal has zero power")
    y = y / (np.vdot(x, y) / denom)
    return y, np.abs(y - x) ** 2


@dataclass(frozen=True)
class _Fitted(ComplexSignal):
    """A received field with its :func:`_fit` onto the array `reference`,
    so that the MI and the SNR of one pair share one fit."""

    reference: np.ndarray = None
    normalized: np.ndarray = None
    residual: np.ndarray = None

    def __post_init__(self):
        pass  # built by _fitted from a checked signal


def _fitted(reference: np.ndarray, f_eq: ComplexSignal) -> ComplexSignal:
    """`f_eq` carrying its fit onto `reference`: every estimate given this
    field and that same array reads the fit instead of redoing it."""
    return _Fitted(f_eq.samples, f_eq.sample_rate, reference,
                   *_fit(reference, f_eq))


def estimate_mi(f_in: ComplexSignal, f_eq: ComplexSignal,
                rings: RingConstellation) -> float:
    """Mutual information (bits/symbol) between reference and equalized field.

    Inputs must be aligned, equal length, and sampled at one sample per
    symbol.  After a least-squares complex gain fit of `f_eq` onto `f_in`,
    with P the reference power and s the residual variance, the estimate is
    ``mean(|y|^2/(P+s) - |y-x|^2/s) / ln 2 + log2((P+s)/s)``, clamped to
    [0, log2(n_rings * phase_points)]; only the clamp depends on `rings`.
    A common complex gain on both fields leaves the estimate unchanged.
    """
    x = f_in.samples
    y, err = _fit(x, f_eq)
    cap = np.log2(rings.n_points)
    power = float(np.mean(np.abs(x) ** 2))
    noise_var = float(np.mean(err))
    if noise_var <= power * 1e-7:
        return cap  # residual below resolvable floor: bound exceeds the clamp
    total = power + noise_var  # variance of the output marginal CN(0, P + s)
    mi = float(np.mean(np.abs(y) ** 2 / total - err / noise_var) / np.log(2.0)
               + np.log2(total / noise_var))
    return float(np.clip(mi, 0.0, cap))


def estimate_mi_discrete(symbols: np.ndarray, f_eq: ComplexSignal,
                         constellation: np.ndarray) -> float:
    """Mismatched-decoding MI for a known discrete transmit sequence.

    `symbols` are the transmitted constellation points aligned with `f_eq`,
    drawn uniformly from `constellation` (k points).  The received field is
    normalized by a least-squares complex gain fit, and s is its residual
    variance, floored at 1e-10 of the constellation's mean power.  With
    ``d_j = (|y - x|^2 - |y - p_j|^2) / s`` per sample, the bound is
    ``log2 k - mean(log sum_j exp(d_j)) / ln 2``, clamped to [0, log2 k].

    d is ``(2 Re(y conj(p_j)) - |p_j|^2) / s`` minus the same expression at
    ``p_j = x``: per chunk of samples, two broadcast products and a row add
    give the first, one column add subtracts the second, and one exp and
    one row sum follow.  The sent point's column is the same arithmetic on
    the same numbers, so its d is exactly 0 and serves as the log-sum-exp's
    shift.  A chunk whose sum overflows (near-zero noise and one outlying
    sample) or underflows (symbols off the constellation) is redone shifted
    by its largest d.
    """
    x = np.asarray(symbols, dtype=complex)
    y, err = _fit(x, f_eq)
    pts = np.asarray(constellation, dtype=complex)
    k = pts.size
    p2 = np.abs(pts) ** 2
    noise_var = max(float(np.mean(err)), 1e-10 * float(np.mean(p2)))
    scale = 2.0 / noise_var
    re, im, row = pts.real * scale, pts.imag * scale, -p2 / noise_var
    # the exponents' first part at p_j = x, term by term in their order
    sent = ((y.real * (x.real * scale) + y.imag * (x.imag * scale))
            + -(np.abs(x) ** 2) / noise_var)

    def exponents(i: int) -> np.ndarray:
        d = y.real[i:i + _MI_CHUNK, None] * re
        d += y.imag[i:i + _MI_CHUNK, None] * im
        d += row
        d -= sent[i:i + _MI_CHUNK, None]
        return d

    total = 0.0
    for i in range(0, len(y), _MI_CHUNK):
        d = exponents(i)
        with np.errstate(over="ignore", divide="ignore"):
            part = float(np.sum(np.log(np.exp(d, out=d).sum(axis=1))))
        if not np.isfinite(part):
            d = exponents(i)
            peak = d.max(axis=1)
            d -= peak[:, None]
            part = float(np.sum(peak + np.log(np.exp(d, out=d).sum(axis=1))))
        total += part
    mi = np.log2(k) - total / (len(y) * np.log(2.0))
    return float(np.clip(mi, 0.0, np.log2(k)))


def estimate_snr(f_in: ComplexSignal, f_eq: ComplexSignal) -> float:
    """SNR in dB after a least-squares complex gain fit, capped at 80 dB."""
    x = f_in.samples
    _, err = _fit(x, f_eq)
    sig = float(np.mean(np.abs(x) ** 2))
    noise = float(np.mean(err))
    if noise <= 0:
        return _SNR_CAP_DB
    return float(min(10.0 * np.log10(sig / noise), _SNR_CAP_DB))


def qam16_constellation(mean_power: float = 1.0) -> np.ndarray:
    """Square 16QAM grid normalized to the requested mean power."""
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    pts = (levels[:, None] + 1j * levels[None, :]).ravel()
    return pts * np.sqrt(mean_power / np.mean(np.abs(pts) ** 2))
