"""Mutual-information and SNR estimation between reference and equalized fields.

The MI estimator is a mismatched-decoding lower bound with a circular
Gaussian auxiliary channel whose variance s is measured from the data
(Arnold et al., "Simulation-based computation of information rates", IEEE
Trans. IT 2006).  For the circular Gaussian reference of power P the
auxiliary output marginal is exactly CN(0, P + s), so the bound has the
closed form

    mean(|y|^2 / (P + s) - |y - x|^2 / s) / ln 2 + log2((P + s) / s)

which tracks log2(1+SNR) closely while remaining a lower bound.  The ring
constellation only sets the clamp log2(n_rings * phase_points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import ComplexSignal

_SNR_CAP_DB = 80.0


@dataclass(frozen=True)
class RingConstellation:
    """Concentric-ring discretization of a circular Gaussian source."""

    radii: np.ndarray         # linear amplitude, strictly increasing
    priors: np.ndarray        # per-ring probability
    phase_points: int

    def __post_init__(self):
        radii = np.asarray(self.radii, dtype=float)
        priors = np.asarray(self.priors, dtype=float)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "priors", priors)
        if radii.ndim != 1 or radii.size < 1:
            raise ValueError("radii must be a non-empty 1-D sequence")
        if np.any(np.diff(radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if priors.shape != radii.shape or not np.isclose(priors.sum(), 1.0):
            raise ValueError("priors must match radii and sum to 1")
        if self.phase_points < 4:
            raise ValueError("phase_points must be >= 4")

    @property
    def n_rings(self) -> int:
        return self.radii.size

    @property
    def mean_power(self) -> float:
        return float(np.sum(self.priors * self.radii ** 2))

    @property
    def n_points(self) -> int:
        return self.n_rings * self.phase_points

    def points(self) -> np.ndarray:
        """All discrete constellation points, ring-major."""
        angles = 2 * np.pi * np.arange(self.phase_points) / self.phase_points
        return (self.radii[:, None] * np.exp(1j * angles)[None, :]).ravel()


def _rayleigh_edges(n_rings: int, mean_power: float) -> np.ndarray:
    """Equiprobable annulus boundaries of the Rayleigh magnitude law."""
    sigma = np.sqrt(mean_power / 2.0)
    q = np.arange(n_rings + 1) / n_rings
    with np.errstate(divide="ignore"):
        edges = sigma * np.sqrt(-2.0 * np.log1p(-q))
    edges[-1] = np.inf
    return edges


def _rayleigh_partial_mean(r: np.ndarray, mean_power: float) -> np.ndarray:
    """Integral of rho * f(rho) from 0 to r for the Rayleigh magnitude pdf."""
    sigma2 = mean_power / 2.0
    s = np.sqrt(sigma2)
    r = np.asarray(r, dtype=float)
    out = np.full(r.shape, s * np.sqrt(np.pi / 2.0))
    finite = np.isfinite(r)
    rf = r[finite]
    erf = np.array([math.erf(v) for v in rf / (s * np.sqrt(2.0))])
    out[finite] = (-rf * np.exp(-rf ** 2 / (2 * sigma2))
                   + s * np.sqrt(np.pi / 2.0) * erf)
    return out


def build_ring_constellation(n_rings: int, mean_power: float = 1.0,
                             phase_points: int = 64) -> RingConstellation:
    """Equiprobable-annulus conditional-mean ring radii, renormalized so the
    constellation mean power equals `mean_power`."""
    if n_rings < 1:
        raise ValueError("n_rings must be >= 1")
    edges = _rayleigh_edges(n_rings, mean_power)
    partial = _rayleigh_partial_mean(edges, mean_power)
    radii = (partial[1:] - partial[:-1]) * n_rings
    radii *= np.sqrt(mean_power / np.mean(radii ** 2))
    priors = np.full(n_rings, 1.0 / n_rings)
    return RingConstellation(radii, priors, phase_points)


def _ls_gain(x: np.ndarray, y: np.ndarray) -> complex:
    denom = np.vdot(x, x)
    if denom == 0:
        raise ValueError("reference signal has zero power")
    return np.vdot(x, y) / denom


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
    y = f_eq.samples
    if len(x) != len(y):
        raise ValueError("signals must be equal length")
    if len(x) == 0:
        raise ValueError("cannot estimate MI of empty signals")
    cap = np.log2(rings.n_points)
    power = float(np.mean(np.abs(x) ** 2))
    y = y / _ls_gain(x, y)
    err = np.abs(y - x) ** 2
    noise_var = float(np.mean(err))
    if noise_var <= power * 1e-7:
        return cap  # residual below resolvable floor: bound exceeds the clamp
    total = power + noise_var  # variance of the output marginal CN(0, P + s)
    mi = float(np.mean(np.abs(y) ** 2 / total - err / noise_var) / np.log(2.0)
               + np.log2(total / noise_var))
    return float(np.clip(mi, 0.0, cap))


def estimate_mi_discrete(symbols: np.ndarray, f_eq: ComplexSignal,
                         constellation: np.ndarray,
                         priors: np.ndarray | None = None) -> float:
    """Mismatched-decoding MI for a known discrete transmit sequence.

    `symbols` are the transmitted constellation points aligned with `f_eq`.
    The received field is normalized by a least-squares complex gain fit
    before the metric is evaluated.
    """
    x = np.asarray(symbols, dtype=complex)
    y = f_eq.samples
    if len(x) != len(y):
        raise ValueError("symbol/sample length mismatch")
    if len(x) == 0:
        raise ValueError("empty inputs")
    pts = np.asarray(constellation, dtype=complex)
    k = pts.size
    if priors is None:
        priors = np.full(k, 1.0 / k)
    y = y / _ls_gain(x, y)
    noise_var = max(float(np.mean(np.abs(y - x) ** 2)),
                    1e-10 * float(np.mean(np.abs(pts) ** 2)))
    log_prior = np.log(priors)
    p2 = np.abs(pts) ** 2
    total = 0.0
    for i in range(0, len(y), 16384):
        yc = y[i:i + 16384]
        xc = x[i:i + 16384]
        cross = (yc[:, None] * np.conj(pts)[None, :]).real
        logq = (-(np.abs(yc)[:, None] ** 2 + p2[None, :] - 2 * cross)
                / noise_var + log_prior[None, :])
        peak = logq.max(axis=1)
        den = peak + np.log(np.exp(logq - peak[:, None]).sum(axis=1))
        num = -np.abs(yc - xc) ** 2 / noise_var
        total += float(np.sum(num - den))
    mi = total / (len(y) * np.log(2.0))
    return float(np.clip(mi, 0.0, np.log2(k)))


def estimate_snr(f_in: ComplexSignal, f_eq: ComplexSignal) -> float:
    """SNR in dB after a least-squares complex gain fit, capped at 80 dB."""
    x = f_in.samples
    y = f_eq.samples
    if len(x) != len(y) or len(x) == 0:
        raise ValueError("signals must be equal non-zero length")
    y = y / _ls_gain(x, y)
    sig = float(np.mean(np.abs(x) ** 2))
    err = float(np.mean(np.abs(y - x) ** 2))
    if err <= 0:
        return _SNR_CAP_DB
    return float(min(10.0 * np.log10(sig / err), _SNR_CAP_DB))


def qam16_constellation(mean_power: float = 1.0) -> np.ndarray:
    """Square 16QAM grid normalized to the requested mean power."""
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    pts = (levels[:, None] + 1j * levels[None, :]).ravel()
    return pts * np.sqrt(mean_power / np.mean(np.abs(pts) ** 2))
