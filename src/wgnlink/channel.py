"""Linear MIMO fiber-channel synthesis and application.

The channel model is deliberately phenomenological: chromatic dispersion is
an exact all-pass quadratic phase, mode coupling is a seeded multi-section
unitary/delay cascade with a frequency-flat singular-value (MDL) profile,
amplifier noise is additive Gaussian per span, and nonlinear interference
is a cubic-in-power additive Gaussian term.  Both noises are white, so
:func:`run_link` injects them per frequency bin, and a link given a
spectrum returns one without a transform, whatever its loop count.  The
link is linear, so its output is ``T x + n`` per bin, applied in one pass
whatever the loop count: ``T = D(f)^L H(f)^L`` and n has the per-bin
covariance K of the loops' noise seen at the output, both from one
recursion over the loops.  H is the identity without MDL and DGD; without
DGD it is flat, so T and K are taken at one frequency; with DGD they are
taken on a coarse frequency grid and interpolated onto the bins.  A
split-step solver is out of scope by design.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .signals import MimoSignal, MimoSpectrum, _transform_rows

SPEED_OF_LIGHT = 299_792_458.0  # m/s
_COUPLING_CHUNK = 16384  # bins per cache-resident pass of every link


@dataclass(frozen=True)
class MimoChannel:
    """Per-frequency-bin MxM transfer matrices.

    Frequencies follow FFT ordering: bin k sits at ``fftfreq(n_bins) * n_bins
    * bin_spacing``.  Both synthesized and estimated channels use this type.
    """

    matrices: np.ndarray       # (n_bins, M, M) complex
    bin_spacing: float         # Hz

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=np.complex128)
        object.__setattr__(self, "matrices", m)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError("matrices must have shape (n_bins, M, M)")
        if not np.all(np.isfinite(m)):
            raise ValueError("channel matrices must be finite")
        if self.bin_spacing <= 0:
            raise ValueError("bin_spacing must be positive")

    @property
    def n_bins(self) -> int:
        return self.matrices.shape[0]

    @property
    def n_modes(self) -> int:
        return self.matrices.shape[1]

    @property
    def frequencies(self) -> np.ndarray:
        """Baseband frequency of each bin, FFT ordering."""
        return np.fft.fftfreq(self.n_bins, d=1.0 / (self.n_bins * self.bin_spacing))


@dataclass(frozen=True)
class LinkConfig:
    """Recirculating-loop span parameters.

    ``span_snr_db`` is the per-recirculation SNR contribution at 0 dBm launch
    power; ``nlin_coeff`` scales the additive nonlinear-interference noise
    power, eta * P^3 (P in mW).  The default pair places the MI-vs-power
    peak near 0 dBm.
    """

    span_length: float = 78.0            # km
    dispersion_coeff: float = 17.0       # ps/(nm km)
    center_wavelength: float = 1550.0    # nm
    n_modes: int = 2
    mdl_per_span: float = 0.0            # dB
    dgd_per_span: float = 0.0            # s
    span_snr_db: float = 22.0            # dB per recirculation at 0 dBm
    lo_linewidth: float = 0.0            # Hz
    frequency_offset: float = 0.0        # Hz
    launch_power_dbm: float = 0.0        # dBm, 30 GHz reference bandwidth
    nlin_coeff: float = 0.00315          # mW^-2
    n_sections: int = 8                  # coupling sections per span

    def __post_init__(self):
        _check_types(self)
        for name in ("span_length", "mdl_per_span", "dgd_per_span",
                     "lo_linewidth", "nlin_coeff"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.center_wavelength <= 0:
            raise ValueError("center_wavelength must be positive")
        if self.n_modes < 2 or self.n_modes % 2:
            raise ValueError("n_modes must be even and >= 2")
        if not 0 < _from_db(self.launch_power_dbm) < math.inf:
            raise ValueError(f"launch_power_dbm must give a finite, nonzero "
                             f"power in mW, got {self.launch_power_dbm!r}")
        if self.n_sections < 1:
            raise ValueError("n_sections must be >= 1")


# per annotated field type: the type its value must be and how errors name it
_FIELD_TYPES = {int: (Integral, "an integer"), float: (Real, "a number"),
                Optional[float]: (Real, "a number"),
                bool: (bool, "true or false"), str: (str, "a string")}


def _check_types(cfg) -> None:
    """Raise TypeError naming the first field of the dataclass `cfg` that
    does not hold its annotated type: an ``int`` field an integer, a
    ``float`` field any real number (or None where the annotation is
    Optional), any other field an instance of its type.  A bool is no
    number.  A NaN or infinite ``float`` field raises ValueError, except
    ``span_snr_db = inf``, the noiseless link."""
    for name, kind in typing.get_type_hints(type(cfg)).items():
        v = getattr(cfg, name)
        if v is None and kind == Optional[float]:
            continue
        want, noun = _FIELD_TYPES.get(kind, (kind, f"a {kind.__name__}"))
        if isinstance(v, bool) != (kind is bool) or not isinstance(v, want):
            raise TypeError(f"{name} must be {noun}, got {v!r}")
        if (want is Real and not -math.inf < v < math.inf
                and (name, v) != ("span_snr_db", math.inf)):
            raise ValueError(f"{name} must be finite, got {v!r}")


def dispersion_phase(freqs: np.ndarray, dispersion_coeff: float,
                     length_km: float, wavelength_nm: float) -> np.ndarray:
    """Quadratic dispersion phase pi * lambda0^2 * D * L * f^2 / c (radians)."""
    return (_dispersion_scale(dispersion_coeff, length_km, wavelength_nm)
            * np.asarray(freqs) ** 2 / SPEED_OF_LIGHT)


def _dispersion_scale(dispersion_coeff: float, length_km: float,
                      wavelength_nm: float) -> float:
    """The scalar factor pi * lambda0^2 * D * L of :func:`dispersion_phase`."""
    if wavelength_nm <= 0:
        raise ValueError("wavelength must be positive")
    d_si = dispersion_coeff * 1e-6          # ps/(nm km) -> s/m^2
    lam = wavelength_nm * 1e-9
    return np.pi * lam * lam * d_si * (length_km * 1e3)


def _dispersion_response(n: int, sample_rate: float, dispersion_coeff: float,
                         length_km: float, wavelength_nm: float,
                         sign: float) -> np.ndarray:
    """``exp(sign * j * dispersion_phase)`` on the FFT grid of `n` samples at
    `sample_rate`: the fiber response for ``sign=+1``, EDC for ``sign=-1``.
    Built in place, with :func:`dispersion_phase`'s operations in its order,
    in one real and one complex array of `n`."""
    scale = _dispersion_scale(dispersion_coeff, length_km, wavelength_nm)
    phase = np.fft.fftfreq(n, d=1.0 / sample_rate)
    np.square(phase, out=phase)
    phase *= scale
    phase /= SPEED_OF_LIGHT
    out = np.multiply(phase, sign * 1j)
    return np.exp(out, out=out)


class MultiSectionModel:
    """Seeded cascade of random unitaries and diagonal delay elements.

    H(f) = U_1 D_1(f) ... U_S D_S(f) * diag(sigma) * Q with U_s, Q fixed
    random unitaries, D_s(f) = diag(exp(-2j pi f tau_i / S)) carrying the
    differential group delay, and sigma the frequency-flat singular values.
    Per-bin singular values equal sigma exactly at every frequency.
    """

    def __init__(self, n_modes: int, mdl_db: float, dgd: float, seed,
                 n_sections: int = 8):
        if n_modes < 2 or n_modes % 2:
            raise ValueError("n_modes must be even and >= 2")
        if mdl_db < 0:
            raise ValueError("mdl_db must be >= 0")
        if dgd < 0:
            raise ValueError("dgd must be >= 0")
        if n_sections < 1:
            raise ValueError("n_sections must be >= 1")
        rng = np.random.default_rng(seed)
        self.n_modes = n_modes
        self.n_sections = n_sections
        self.unitaries = [_random_unitary(n_modes, rng)
                          for _ in range(n_sections)]
        self.output_unitary = _random_unitary(n_modes, rng)
        # per-section mode delays; extremes accumulate to +-dgd/2
        self.delays = np.linspace(-dgd / 2, dgd / 2, n_modes) / n_sections
        ratio = 10.0 ** (mdl_db / 20.0)
        exponents = np.linspace(0.5, -0.5, n_modes)
        sigma = ratio ** exponents
        self.sigma = sigma / np.sqrt(np.mean(sigma ** 2))

    def matrices(self, freqs: np.ndarray) -> np.ndarray:
        """H at each of `freqs`: an (len(freqs), M, M) array."""
        m = self.n_modes
        h = np.broadcast_to(self.output_unitary * self.sigma[:, None],
                            (len(freqs), m, m)).copy()
        # per-section DGD phase exp(-2j pi f tau_i), one row per bin
        rot = np.exp(-2j * np.pi * self.delays[:, None] * freqs[None, :]).T
        for u in reversed(self.unitaries):
            h = np.einsum("ij,kjl->kil", u, rot[:, :, None] * h)
        return h

    def sample(self, n_bins: int, bin_spacing: float) -> MimoChannel:
        """Materialize per-bin matrices on an FFT-ordered grid."""
        freqs = np.fft.fftfreq(n_bins, d=1.0 / (n_bins * bin_spacing))
        return MimoChannel(self.matrices(freqs), bin_spacing)


def _random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diagonal(r))  # fix the QR phase ambiguity


def synthesize_mimo_channel(n_modes: int, mdl_db: float, dgd: float,
                            n_bins: int, bin_spacing: float, seed: int,
                            n_sections: int = 8) -> MimoChannel:
    """Seeded test channel with exact flat MDL and multi-peak impulse response."""
    model = MultiSectionModel(n_modes, mdl_db, dgd, seed, n_sections)
    return model.sample(n_bins, bin_spacing)


def apply_channel(signal: MimoSignal, channel: MimoChannel) -> MimoSignal:
    """Per-bin matrix-vector product.

    The channel response is interpolated onto the signal's FFT grid when the
    grids differ.
    """
    if signal.n_tributaries != channel.n_modes:
        raise ValueError("signal and channel mode counts differ")
    n = len(signal)
    freqs = np.fft.fftfreq(n, d=1.0 / signal.sample_rate)
    mats = _channel_on_grid(channel, freqs)
    spec = _transform_rows(np.fft.fft, signal.data)
    out = np.einsum("kij,jk->ik", mats, spec)
    return MimoSignal._built(_transform_rows(np.fft.ifft, out, out=out),
                             signal.sample_rate)


def _channel_on_grid(channel: MimoChannel, freqs: np.ndarray):
    """Channel matrices evaluated at arbitrary frequencies."""
    cf = channel.frequencies
    if len(cf) == len(freqs) and np.allclose(cf, freqs):
        return channel.matrices
    order = np.argsort(cf)
    cf_s = cf[order]
    m = channel.n_modes
    mats = np.empty((len(freqs), m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            col = channel.matrices[order, i, j]
            mats[:, i, j] = (np.interp(freqs, cf_s, col.real)
                             + 1j * np.interp(freqs, cf_s, col.imag))
    return mats


def add_awgn(signal: MimoSignal, snr_db: float, seed: int) -> MimoSignal:
    """Additive independent complex Gaussian noise per tributary.

    Noise power is the tributary-averaged signal power divided by the linear
    SNR, measured over the full captured band.  ``snr_db = inf`` returns the
    signal unchanged; any other value whose linear SNR is 0 or not finite
    (NaN, -inf, or beyond float64 range, such as -4000 or 4000) raises
    ValueError.
    """
    if snr_db == math.inf:
        return signal
    snr = _from_db(snr_db)
    if not 0 < snr < math.inf:
        raise ValueError(f"snr_db must be +inf or give a finite, nonzero "
                         f"linear SNR, got {snr_db!r}")
    data = signal.data
    # measured in float64 whatever the capture's dtype
    sig_power = float(np.mean(np.abs(data.astype(np.complex128,
                                                 copy=False)) ** 2))
    if sig_power <= 0:
        raise ValueError("signal power must be positive to set an SNR")
    noise_power = sig_power / snr
    rng = np.random.default_rng(seed)
    noise = np.sqrt(noise_power / 2.0) * (
        rng.standard_normal(data.shape) + 1j * rng.standard_normal(data.shape))
    return MimoSignal._built(data + noise, signal.sample_rate)


def apply_phase_noise(signal: MimoSignal, linewidth: float,
                      seed: int) -> MimoSignal:
    """Common-LO Wiener phase noise: increments have variance
    2 pi * linewidth / sample_rate; the same trajectory multiplies every
    tributary."""
    if not 0 <= linewidth < math.inf:
        raise ValueError(f"linewidth must be finite and >= 0: {linewidth!r}")
    if linewidth == 0:
        return signal
    n = len(signal)
    rng = np.random.default_rng(seed)
    std = np.sqrt(2.0 * np.pi * linewidth / signal.sample_rate)
    phase = np.cumsum(std * rng.standard_normal(n))
    return MimoSignal._built(signal.data * np.exp(1j * phase)[None, :],
                             signal.sample_rate)


def apply_frequency_offset(signal: MimoSignal, offset: float) -> MimoSignal:
    """Multiply all tributaries by exp(j 2 pi offset n / sample_rate)."""
    if not abs(offset) < signal.sample_rate / 2:
        raise ValueError(f"offset must be below Nyquist, got {offset!r} Hz")
    if offset == 0:
        return signal
    n = np.arange(len(signal))
    rot = np.exp(2j * np.pi * offset * n / signal.sample_rate)
    return MimoSignal._built(signal.data * rot[None, :], signal.sample_rate)


def _from_db(db: float) -> float:
    """``10 ** (db / 10)``, inf where that overflows float64."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def span_noise_power_ratio(cfg: LinkConfig) -> float:
    """Per-span (ASE + NLIN) noise power relative to the signal power.

    ASE noise is fixed in absolute terms (span_snr_db referenced to 0 dBm);
    NLIN grows as nlin_coeff * P^3, so the per-span SNR is P / (N_ase +
    eta P^3) and peaks at P = (N_ase / 2 eta)^(1/4).  A term beyond float64
    range reads as inf, and so does the ratio; with ``nlin_coeff = 0`` the
    cube does not count.
    """
    n_ase, n_nl = _span_noise_terms(cfg)
    return (n_ase + n_nl) / _from_db(cfg.launch_power_dbm)


def _span_noise_terms(cfg: LinkConfig) -> tuple[float, float]:
    """The ASE and NLIN noise powers (mW) of one span, each inf where it
    overflows float64."""
    n_ase = _from_db(-cfg.span_snr_db)  # 0.0 at span_snr_db = inf
    if cfg.nlin_coeff == 0:
        return n_ase, 0.0
    try:
        cube = _from_db(cfg.launch_power_dbm) ** 3
    except OverflowError:
        cube = math.inf
    return n_ase, cfg.nlin_coeff * cube


def run_link(signal: MimoSignal | MimoSpectrum, cfg: LinkConfig,
             n_recirculations: int, seed: int) -> MimoSignal | MimoSpectrum:
    """Propagate through `n_recirculations` passes of the loop span.

    Each span applies, in order: chromatic dispersion over the span length,
    the span's mode-coupling section (identity when both MDL and DGD are
    zero), and the combined ASE + nonlinear-interference noise.  The field
    stays a spectrum whatever the loop count: the white noise is drawn per
    frequency bin.  LO phase noise and frequency offset are applied once
    at the receiver, in the time domain.

    The link is linear and its noise is white and Gaussian, so its output
    is ``T x + n`` per bin, and it is applied in one pass over the bins
    whatever its loop count L: ``T = D(f)^L H(f)^L`` and ``n`` has
    covariance ``N P K(f)``, with P the launched power, measured once, and
    K the recursion of :func:`_link_response` for a launched power of 1,
    which draws each loop's noise at ``r = span_noise_power_ratio(cfg)``
    times the loop's expected power.  ``D^L`` is exact per bin, and the
    pass runs one chunk of bins at a time.  ``H^L`` and a Cholesky factor
    of K are taken:

    - without MDL and DGD, at one frequency, with ``H = I``: then ``T``
      is the dispersion of L spans and K is ``(1 + r)**L - 1`` times the
      identity, the loops' expected noise;
    - with MDL and no DGD, at one frequency, since H is flat;
    - with DGD, on a grid of B + 1 frequencies from -rate/2 to +rate/2
      (at B = N, the bins themselves), and interpolated onto the N bins
      by the cubic through the four nearest grid points.  B is the
      smallest power of two of at least 4096 and 40 grid steps per
      sample of the accumulated delay spread, ``L * dgd_per_span``, and
      at most N.

    Each chunk of k bins draws one (M, 2k) block of normals, M complex
    normals per bin.  A noiseless link (r = 0) draws nothing, nor does a
    field of no power.  Noise beyond float64 range raises ValueError
    naming its cause.

    A :class:`MimoSignal` is FFT'd once and returned as a signal after one
    inverse FFT.  A :class:`MimoSpectrum` is left unchanged and the result
    is a spectrum: without LO phase noise and frequency offset the link
    then makes no transform at all, and with either it makes one inverse
    FFT and one FFT.
    """
    if n_recirculations < 1:
        raise ValueError("n_recirculations must be >= 1")
    if signal.n_tributaries != cfg.n_modes:
        raise ValueError("signal tributary count does not match n_modes")
    _, noise_seed, lo_seed = _link_seeds(seed)
    noise_rng = np.random.default_rng(noise_seed)
    spectral = isinstance(signal, MimoSpectrum)
    rate = signal.sample_rate
    spec = (signal.data.copy() if spectral
            else _transform_rows(np.fft.fft, signal.data))
    _couple(spec, rate, cfg, n_recirculations, seed, noise_rng)
    if spectral and cfg.lo_linewidth == 0 and cfg.frequency_offset == 0:
        return MimoSpectrum._built(spec, rate)
    # the link owns `spec` and each array the LO stages return: transform
    # them in place
    out = MimoSignal._built(_transform_rows(np.fft.ifft, spec, out=spec), rate)
    del spec
    out = apply_phase_noise(out, cfg.lo_linewidth, lo_seed)
    out = apply_frequency_offset(out, cfg.frequency_offset)
    if not spectral:
        return out
    return MimoSpectrum._built(_transform_rows(np.fft.fft, out.data,
                                               out=out.data), rate)


def _couple(spec: np.ndarray, sample_rate: float, cfg: LinkConfig,
            n_recirculations: int, seed, noise_rng) -> None:
    """The link in place on an (M, N) spectrum: ``T x + n`` per bin from
    :func:`_link_response` (see :func:`run_link`), a coupling chunk at a
    time, so that nothing but the spectrum is held at its full length.
    Without DGD the pair is taken at one frequency and applied as
    constant matrices; with DGD it is interpolated from the grid."""
    m, n = spec.shape
    b = _grid_size(cfg, n_recirculations, sample_rate, n)
    # B steps from -rate/2 to +rate/2, and one more past each end for the
    # cubic's four points; an odd B, which is N, is shifted half a step
    # onto the bins.  B = 0 is one point: H is flat
    freqs = np.zeros(1)
    if b:
        step = sample_rate / b
        freqs = (np.linspace(-sample_rate / 2 - step, sample_rate / 2 + step,
                             b + 3) + b % 2 * step / 2)
    coupling, cov = _link_response(cfg, n_recirculations, seed, freqs)
    factor = stencil = None
    # N times the launched power per bin, by Parseval; per real and
    # imaginary part half of it.  A field of no power draws no noise: K
    # would be 0, which has no Cholesky factor
    power = float(np.vdot(spec, spec).real) / (m * n * n)
    if span_noise_power_ratio(cfg) > 0 and power > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            cov *= n * power / 2.0
        if not np.isfinite(cov).all():
            raise _noise_overflow(cfg, n_recirculations)
        factor = np.linalg.cholesky(cov.transpose(2, 0, 1)).transpose(1, 2, 0)
    for s in range(0, n, _COUPLING_CHUNK):
        # the bins' signed numbers in FFT order
        k = np.arange(s, min(s + _COUPLING_CHUNK, n))
        k[max((n + 1) // 2 - s, 0):] -= n
        if b:
            # each bin falls in the grid step from point `idx` to
            # `idx + 1`, a fraction `t` along it; the cubic through grid
            # points idx - 1 ... idx + 2
            pos = k * (b / n) + (b // 2 + 1)
            idx = np.clip(pos.astype(np.intp), 1, b)
            t = pos - idx
            stencil = (idx + np.arange(-1, 3)[:, None],
                       np.array([t * (t - 1) * (t - 2) / -6,
                                 (t + 1) * (t - 1) * (t - 2) / 2,
                                 (t + 1) * t * (t - 2) / -2,
                                 (t + 1) * t * (t - 1) / 6]))
        out = spec[:, s:s + k.size]
        x = out * np.exp(1j * dispersion_phase(
            k * (sample_rate / n), cfg.dispersion_coeff,
            n_recirculations * cfg.span_length, cfg.center_wavelength))
        out.fill(0)
        _add_mat_vec(coupling, stencil, x, out)
        if factor is not None:
            z = noise_rng.standard_normal((m, 2 * k.size)).view(complex)
            _add_mat_vec(factor, stencil, z, out, lower=True)


def _link_response(cfg: LinkConfig, n_recirculations: int, seed,
                   freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coupling of the link's L = `n_recirculations` spans, ``H(f)^L``,
    and the per-bin covariance ``K(f)`` of the noise its loops add, for a
    field launched at power 1 and white over `freqs`: two (M, M, len(freqs))
    arrays, ``[i, j, k]`` row i, column j at frequency k.

    H is the identity for a link without MDL and DGD, and otherwise the
    span's :class:`MultiSectionModel` of the link's `seed`, as
    :func:`_link_seeds` splits it.  Per loop, ``K <- H K H^H + r P I``, with
    ``r = span_noise_power_ratio(cfg)`` and P the expected power after the
    loop's span, the mean over `freqs` of ``tr(H^l (H^l)^H + H K H^H) /
    M``.  Dispersion is a unit-modulus scalar per bin, so it leaves K
    unchanged.  Entries whose noise leaves float64 range read inf or nan,
    without a warning."""
    m = cfg.n_modes
    if cfg.mdl_per_span > 0 or cfg.dgd_per_span > 0:
        model = MultiSectionModel(m, cfg.mdl_per_span, cfg.dgd_per_span,
                                  _link_seeds(seed)[0], cfg.n_sections)
        span = np.ascontiguousarray(model.matrices(freqs).transpose(1, 2, 0))
    else:
        span = np.repeat(np.eye(m, dtype=complex)[:, :, None], freqs.size, 2)
    span_h = span.conj().transpose(1, 0, 2)
    eye = np.eye(m)[:, :, None]
    coupling, cov = eye, np.zeros_like(span)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(n_recirculations):
            coupling = np.einsum("ijk,jlk->ilk", span, coupling)
            cov = np.einsum("ijk,jlk->ilk",
                            np.einsum("ijk,jlk->ilk", span, cov), span_h)
            power = float(np.sum(np.abs(coupling) ** 2)
                          + np.trace(cov).real.sum()) / (m * freqs.size)
            cov += span_noise_power_ratio(cfg) * power * eye
    return coupling, cov


def _link_seeds(seed) -> list:
    """The three seeds a link's `seed` splits into: its coupling model's,
    its noise's and its LO's, in that order."""
    return np.random.SeedSequence(seed).spawn(3)


def _grid_size(cfg: LinkConfig, n_recirculations: int, sample_rate: float,
               n: int) -> int:
    """B of :func:`run_link`: 0 for a link without DGD, whose flat H needs
    one grid point; otherwise the smallest power of two of at least 4096
    and of 40 grid steps per sample of the accumulated delay spread, and
    at most the bin count `n`."""
    b = 4096
    while b < 40 * n_recirculations * cfg.dgd_per_span * sample_rate:
        b *= 2
    return min(b, n) if cfg.dgd_per_span > 0 else 0


def _add_mat_vec(values: np.ndarray, stencil: Optional[tuple],
                 x: np.ndarray, out: np.ndarray, lower: bool = False) -> None:
    """``out[i] += sum_j a[i, j] x[j]`` per bin, with ``a`` the (M, M, G)
    grid `values` interpolated onto the bins by `stencil`, its (4, W) grid
    points and their weights: per entry of ``a`` one read of the grid at
    the four points, their weighted sum and one vector multiply-add.  With
    no `stencil` the grid is one point, whose entries are scalars, and its
    zero entries are skipped: the identity and the diagonal factor of a
    link without coupling cost M multiply-adds, not M**2.  ``lower`` skips
    the upper triangle, zero in a Cholesky factor."""
    for i in range(len(x)):
        for j in range(i + 1 if lower else len(x)):
            a = (values[i, j, 0] if stencil is None
                 else (values[i, j].take(stencil[0]) * stencil[1]).sum(axis=0))
            if stencil is not None or a != 0:
                a *= x[j]
                out[i] += a


def _noise_overflow(cfg: LinkConfig, n_recirculations: int) -> ValueError:
    """The error of a link whose noise leaves float64 range, naming the
    larger of its span noise terms."""
    n_ase, n_nl = _span_noise_terms(cfg)
    cause = (f"span_snr_db {cfg.span_snr_db:g}" if n_ase >= n_nl
             else f"launch_power_dbm {cfg.launch_power_dbm:g}, "
                  f"nlin_coeff {cfg.nlin_coeff:g}")
    return ValueError(f"link noise overflows: {cause}, "
                      f"{n_recirculations} loops")
