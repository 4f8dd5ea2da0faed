"""Mutual-information and SNR estimation between reference and equalized fields.

Every estimate first fits a least-squares complex gain of the received field
y onto the reference x.

The MI estimator is a mismatched-decoding lower bound with a circular
Gaussian auxiliary channel whose variance s is measured from the data
(Arnold et al., "Simulation-based computation of information rates", IEEE
Trans. IT 2006).  For the circular Gaussian reference of power P the
auxiliary output marginal is exactly CN(0, P + s), so the bound has the
closed form

    mean(|y|^2 / (P + s) - |y - x|^2 / s) / ln 2 + log2((P + s) / s)

with y the normalized field.  The fit leaves the residual y - x orthogonal
to x, so mean(|y|^2) = P + s and the sample mean is 0 by algebra: the bound
is log2(1 + P/s), with P/s the measured SNR.  With the pair's squared
correlation coefficient |rho|^2 = |<x, y>|^2 / (<x, x> <y, y>), P/s is
|rho|^2 / (1 - |rho|^2), so three inner products give both, and the MI is
-log2(1 - |rho|^2).  A :class:`RingConstellation` only sets its clamp
log2(n_rings * phase_points).

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


def _gain(x: np.ndarray, y: np.ndarray) -> tuple[complex, complex]:
    """``<x, x>`` and ``<x, y>`` of a (reference, received) pair, checked:
    the least-squares gain of `y` onto `x` is their ratio."""
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("signals must be equal non-zero length")
    xx = np.vdot(x, x)
    if xx == 0:
        raise ValueError("reference signal has zero power")
    xy = np.vdot(x, y)
    if xy == 0:
        raise ValueError("received field has no least-squares gain onto the "
                         "reference: it is all zero or orthogonal to it")
    return xx, xy


def _fit(x: np.ndarray, f_eq: ComplexSignal
         ) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares complex gain fit of `f_eq` onto `x`: returns the
    normalized samples and their per-sample residual power ``|y - x|^2``."""
    xx, xy = _gain(x, f_eq.samples)
    y = f_eq.samples / (xy / xx)
    return y, np.abs(y - x) ** 2


def _rho2(f_in: ComplexSignal, f_eq: ComplexSignal) -> float:
    """Squared correlation coefficient ``|<x, y>|^2 / (<x, x> <y, y>)`` of
    the pair, one ratio at a time so that no product leaves float64."""
    x, y = f_in.samples, f_eq.samples
    xx, xy = _gain(x, y)
    return float((abs(xy) / xx.real) * (abs(xy) / np.vdot(y, y).real))


def estimate_mi(f_in: ComplexSignal, f_eq: ComplexSignal,
                rings: RingConstellation) -> float:
    """Mutual information (bits/symbol) between reference and equalized field.

    Inputs must be aligned, equal length, and sampled at one sample per
    symbol.  The mismatched-decoding bound with a Gaussian auxiliary channel
    fitted to the pair is ``log2(1 + P/s) = -log2(1 - |rho|^2)``: the
    least-squares residual is orthogonal to the reference, so the closed
    form's sample-mean term is 0 (module docstring).  So the estimate is
    ``log2(1 + 10**(estimate_snr/10))`` below the clamp
    [0, log2(n_rings * phase_points)]; only the clamp depends on `rings`.
    A residual s at most 1e-7 of P reads as the clamp.  A common complex
    gain on both fields leaves the estimate unchanged.
    """
    rho2 = _rho2(f_in, f_eq)
    cap = np.log2(rings.n_points)
    if 1.0 / rho2 - 1.0 <= 1e-7:  # s/P: below the resolvable floor
        return cap
    return float(np.clip(-np.log2(1.0 - rho2), 0.0, cap))


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
    """SNR ``P/s`` in dB after a least-squares complex gain fit, capped at
    80 dB.  The fit's residual is orthogonal to the reference, so the
    normalized field has power P + s, and ``P/s = |rho|^2 / (1 - |rho|^2)``
    (module docstring)."""
    rho2 = _rho2(f_in, f_eq)
    if rho2 >= 1.0:
        return _SNR_CAP_DB
    return float(min(10.0 * np.log10(rho2 / (1.0 - rho2)), _SNR_CAP_DB))


def qam16_constellation(mean_power: float = 1.0) -> np.ndarray:
    """Square 16QAM grid normalized to the requested mean power."""
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    pts = (levels[:, None] + 1j * levels[None, :]).ravel()
    return pts * np.sqrt(mean_power / np.mean(np.abs(pts) ** 2))
