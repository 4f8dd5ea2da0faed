"""Linear MIMO fiber-channel synthesis and application.

The channel model is deliberately phenomenological: chromatic dispersion is
an exact all-pass quadratic phase, mode coupling is a seeded multi-section
unitary/delay cascade with a frequency-flat singular-value (MDL) profile,
amplifier noise is additive Gaussian per span, and nonlinear interference
is a cubic-in-power additive Gaussian term.  Both noises are white, so
:func:`run_link` injects them per frequency bin at the Parseval-scaled
power, and a link given a spectrum returns one without a transform,
whatever its loop count.  Without MDL each span is unitary per bin, and
circular white noise stays white under a unitary map, so such a link
draws the noise of all its loops at once; a link with MDL adds it loop by
loop.  A two-mode coupled link of more loops than modes builds the span's
per-bin 2x2 transfer D(f) H(f) once, from the coupling cascade, and
applies it per span; every other link runs the cascade per span.  The
transfer holds M^2 values per bin: at two modes 4, next to the 3 of the
full-length DGD rotation and dispersion it replaces; at six modes 36,
more than all the rest of the link, so wider links keep the cascade.  A
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
_COUPLING_CHUNK = 16384  # bins per cache-resident pass of the coupling


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
        if self.span_length < 0:
            raise ValueError("span_length must be >= 0")
        if self.center_wavelength <= 0:
            raise ValueError("center_wavelength must be positive")
        if self.n_modes < 2 or self.n_modes % 2:
            raise ValueError("n_modes must be even and >= 2")
        if not 0 < _from_db(self.launch_power_dbm) < math.inf:
            raise ValueError(f"launch_power_dbm must give a finite, nonzero "
                             f"power in mW, got {self.launch_power_dbm!r}")
        if self.mdl_per_span < 0:
            raise ValueError("mdl_per_span must be >= 0")
        if self.lo_linewidth < 0:
            raise ValueError("lo_linewidth must be >= 0")
        if self.nlin_coeff < 0:
            raise ValueError("nlin_coeff must be >= 0")
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
    return _dispersion_rotation(np.fft.fftfreq(n, d=1.0 / sample_rate),
                                scale, sign, np.empty(n, dtype=complex))


def _dispersion_rotation(freqs: np.ndarray, scale: float, sign: float,
                         out: np.ndarray) -> np.ndarray:
    """``exp(sign * j * scale * freqs**2 / c)`` into `out`, squaring `freqs`
    in place: :func:`_dispersion_response` on any run of its bins."""
    np.square(freqs, out=freqs)
    freqs *= scale
    freqs /= SPEED_OF_LIGHT
    np.multiply(freqs, sign * 1j, out=out)
    return np.exp(out, out=out)


def _fft_bins(n: int, sample_rate: float, start: int,
              out: np.ndarray) -> np.ndarray:
    """``np.fft.fftfreq(n, 1 / sample_rate)[start:start + len(out)]`` into
    `out`, the same numbers: the bin numbers, wrapped past n/2, times
    fftfreq's spacing."""
    np.add(np.arange(out.size, dtype=np.float64), start, out=out)
    out[max((n + 1) // 2 - start, 0):] -= n
    out *= 1.0 / (n * (1.0 / sample_rate))
    return out


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

    def delay_rotation(self, freqs: np.ndarray,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-section DGD phase exp(-2j pi f tau_i), shape (M, len(freqs)),
        built in place in `out` (a new array if None)."""
        out = np.multiply(-2j * np.pi * self.delays[:, None], freqs[None, :],
                          out=out)
        return np.exp(out, out=out)

    def apply_spectrum(self, spectrum: np.ndarray,
                       rotation: np.ndarray) -> np.ndarray:
        """Apply H(f) in place to an (M, N) spectrum, ``rotation`` being
        ``delay_rotation(freqs)``; bins pass all sections one cache-sized
        chunk at a time, and no per-bin matrix is materialized.  This
        cascade defines H: a two-mode link of more loops than modes runs
        it once per point, on identity columns, to build its span transfer
        (:func:`_span_transfer`), and every other coupled link once per
        span."""
        for s in range(0, spectrum.shape[1], _COUPLING_CHUNK):
            out = self.output_unitary @ spectrum[:, s:s + _COUPLING_CHUNK]
            out *= self.sigma[:, None]
            rot = rotation[:, s:s + _COUPLING_CHUNK]
            for u in reversed(self.unitaries):
                out *= rot
                out = u @ out
            spectrum[:, s:s + _COUPLING_CHUNK] = out
        return spectrum

    def sample(self, n_bins: int, bin_spacing: float) -> MimoChannel:
        """Materialize per-bin matrices on an FFT-ordered grid."""
        freqs = np.fft.fftfreq(n_bins, d=1.0 / (n_bins * bin_spacing))
        m = self.n_modes
        h = np.broadcast_to(self.output_unitary * self.sigma[:, None],
                            (n_bins, m, m)).copy()
        rot = self.delay_rotation(freqs).T
        for u in reversed(self.unitaries):
            h = np.einsum("ij,kjl->kil", u, rot[:, :, None] * h)
        return MimoChannel(h, bin_spacing)


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
    frequency bin, at the per-sample power the signal power (measured by
    Parseval) sets.  LO phase noise and frequency offset are applied once
    at the receiver, in the time domain.

    With ``mdl_per_span > 0`` each loop draws its noise at ``r =
    span_noise_power_ratio(cfg)`` times the power measured in that loop.
    Without MDL every span is unitary per bin and white noise stays white
    under it, so the L = `n_recirculations` loops fold into one pass: the
    dispersion of L spans in one multiply, the coupling (DGD only) L
    times, then one draw at ``g`` times the power measured there, with
    ``g = r * sum((1 + r)**l for l < L)``.  That is ``(1 + r)**L - 1``,
    the loops' expected noise, and exactly ``r`` at L = 1, where both
    paths give the same numbers.

    A two-mode link with MDL or DGD and L > 2 builds the per-bin span
    transfer ``S(f) = D(f) H(f)`` once, at the cost of two cascade passes,
    and applies it per span: 4 multiplies and 2 adds per bin in place of
    the dispersion multiply and the cascade's ``n_sections + 1`` matmuls.
    Its numbers differ from the cascade's by rounding only, a few 1e-16 of
    the largest bin per span, and the noise draws are the same.  S holds
    4 complex values per bin, where the cascade holds 3: a full-length DGD
    rotation (2) and dispersion (1).  At M modes S would hold M^2, so
    links of 4 or more modes, and links of at most 2 loops, run the
    cascade per span.

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
    root = np.random.SeedSequence(seed)
    model_seed, noise_seed, lo_seed = root.spawn(3)
    model: Optional[MultiSectionModel] = None
    if cfg.mdl_per_span > 0 or cfg.dgd_per_span > 0:
        model = MultiSectionModel(cfg.n_modes, cfg.mdl_per_span,
                                  cfg.dgd_per_span, model_seed,
                                  cfg.n_sections)
    spectral = isinstance(signal, MimoSpectrum)
    rate = signal.sample_rate
    spec = (signal.data.copy() if spectral
            else _transform_rows(np.fft.fft, signal.data))
    _recirculate(spec, rate, cfg, model, np.random.default_rng(noise_seed),
                 n_recirculations)
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


def _recirculate(spec: np.ndarray, sample_rate: float, cfg: LinkConfig,
                 model, noise_rng, n_recirculations: int) -> None:
    """The span loop of :func:`run_link`, in place on an (M, N) spectrum:
    one pass per loop with MDL, else one pass of all the spans with one
    noise draw at gain ``g`` (see :func:`run_link`).  A two-mode coupled
    link of more loops than modes applies its span transfer per span
    (:func:`_span_transfer`: M cascade passes to build, M^2 values per
    bin, so worth it only there); any other link multiplies by the
    dispersion of a pass's spans and runs the coupling cascade per span."""
    m, n = spec.shape
    passes, spans = ((1, n_recirculations) if cfg.mdl_per_span == 0
                     else (n_recirculations, 1))
    transfer = None
    if model is not None and m == 2 and n_recirculations > m:
        transfer = _span_transfer(model, n, sample_rate, cfg)
    else:
        disp_rot = _dispersion_response(n, sample_rate, cfg.dispersion_coeff,
                                        spans * cfg.span_length,
                                        cfg.center_wavelength, +1.0)
        delay_rot = (model.delay_rotation(np.fft.fftfreq(n, d=1.0 /
                                                         sample_rate))
                     if model is not None else None)
    noise_ratio = span_noise_power_ratio(cfg)
    try:
        gain = noise_ratio * sum((1.0 + noise_ratio) ** k
                                 for k in range(spans))
    except OverflowError:  # raised below, as the noise scale's overflow
        gain = math.inf
    # the noise is drawn a chunk at a time into one buffer and added to the
    # (re, im) floats of each row: the same numbers as one (M, 2N) draw
    floats = spec.view(np.float64)
    noise = np.empty(min(2 * _COUPLING_CHUNK, 2 * n))
    for _ in range(passes):
        if transfer is not None:
            _apply_transfer(spec, transfer, spans)
        else:
            spec *= disp_rot
            if model is not None:
                for _ in range(spans):
                    model.apply_spectrum(spec, delay_rot)
        if noise_ratio > 0:
            # Parseval: mean |x|^2 = sum |X|^2 / (M N^2), per-bin noise power
            # N s for per-sample s; in floats an overflow is inf, no warning
            power = float(np.vdot(spec, spec).real) / (m * n * n)
            scale = np.sqrt(n * power * gain / 2.0)
            if not math.isfinite(scale):
                n_ase, n_nl = _span_noise_terms(cfg)
                cause = (f"span_snr_db {cfg.span_snr_db:g}" if n_ase >= n_nl
                         else f"launch_power_dbm {cfg.launch_power_dbm:g}, "
                              f"nlin_coeff {cfg.nlin_coeff:g}")
                raise ValueError(f"link noise overflows: {cause}, "
                                 f"{n_recirculations} loops")
            for row in floats:
                for s in range(0, 2 * n, noise.size):
                    piece = noise[:2 * n - s]
                    noise_rng.standard_normal(out=piece)
                    piece *= scale
                    row[s:s + piece.size] += piece


def _span_transfer(model: MultiSectionModel, n: int, sample_rate: float,
                   cfg: LinkConfig) -> np.ndarray:
    """The per-bin transfer of one span, ``S(f) = D(f) H(f)``, on the FFT
    grid of `n` bins: an (M, M, n) array, ``S[i, j, k]`` row i, column j
    at bin k.  Column j is :meth:`MultiSectionModel.apply_spectrum` on the
    j-th identity column times the span's dispersion, built one coupling
    chunk at a time; the chunk's frequencies, DGD rotation and dispersion
    go into buffers of one chunk, allocated once."""
    m = model.n_modes
    width = min(_COUPLING_CHUNK, n)
    scale = _dispersion_scale(cfg.dispersion_coeff, cfg.span_length,
                              cfg.center_wavelength)
    freqs = np.empty(width)
    rot = np.empty((m, width), dtype=complex)
    disp = np.empty(width, dtype=complex)
    cols = np.empty((m, width), dtype=complex)
    transfer = np.empty((m, m, n), dtype=complex)
    for s in range(0, n, width):
        w = min(width, n - s)
        f = _fft_bins(n, sample_rate, s, freqs[:w])
        r = model.delay_rotation(f, out=rot[:, :w])
        d = _dispersion_rotation(f, scale, +1.0, disp[:w])
        col = cols[:, :w]
        for j in range(m):
            col.fill(0)
            col[j] = d
            transfer[:, j, s:s + w] = model.apply_spectrum(col, r)
    return transfer


def _apply_transfer(spec: np.ndarray, transfer: np.ndarray,
                    times: int) -> None:
    """Apply the two-mode span transfer `times` times, in place, to a
    (2, N) spectrum: a coupling chunk at a time, 4 multiplies and 2 adds
    per bin and application, through two buffers of one chunk."""
    (s00, s01), (s10, s11) = transfer
    x0, x1 = spec
    n = spec.shape[1]
    width = min(_COUPLING_CHUNK, n)
    buf = np.empty((2, width), dtype=complex)
    for s in range(0, n, width):
        e = min(s + width, n)
        u, v = x0[s:e], x1[s:e]
        a, b = buf[:, :e - s]
        for _ in range(times):
            np.multiply(s10[s:e], u, out=b)
            u *= s00[s:e]
            np.multiply(s01[s:e], v, out=a)
            u += a
            v *= s11[s:e]
            v += b
