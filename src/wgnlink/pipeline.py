"""Receive-side processing: alignment, EDC, FDE equalization, phase recovery.

The chain is fully data-aided: the transmitted WGN capture is known in its
entirety, so the whole sequence serves as the equalizer reference and no
training/payload split exists.  The equalizer taps are solved in closed
form, per frequency bin, from cross-spectra averaged over the whole capture:
the least-squares limit of the paper's LMS equalizer, with no training phase
and no step size.

:func:`run_pipeline` runs the chain for the sweep and, with no link and
nothing measured, for the channel estimate of a stored pair.  Each capture
takes at most one FFT on its way in and is held in one form at a time: the
front end's spectrum is inverted in place, and the alignment correlates
only a prefix of each time signal, a few times ``align_max_lag`` long.
The equalizer's state is one per-bin covariance of the stacked block
spectra; the taps, the channel estimate and the residual NMSE are each
solved from it.  EDC is a unit-modulus scalar per frequency, so it
commutes with the channel and is undone exactly on the estimate.  The
equalizer output and phase recovery cover only the samples measured.

Each capture-length FFT and inverse FFT runs one row at a time
(:func:`wgnlink.signals._transform_rows`), never over ``axis=1``: numpy's
batched transform holds working buffers of several capture rows that
``tracemalloc`` does not see, and they set the point's peak RSS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import (LinkConfig, MimoChannel, _check_types,
                      _dispersion_response)
from .errors import AlignmentError
from .signals import (MimoSignal, MimoSpectrum, _gaussian_response,
                      _resample_spectrum, _transform_rows)

# Overlap-save blocks whose spectra are held at once; bounds the equalizer's
# working set independently of the capture length.
_CHUNK_BLOCKS = 16
# Samples per piece of phase recovery's in-place pass: its temporaries are
# this long, not capture-sized.
_PHASE_PIECE = 1 << 16
# Diagonal load on the per-bin input covariance, relative to the mean
# per-bin, per-mode input power: keeps the taps finite when a short capture
# has fewer blocks than modes.
_DIAG_LOAD = 1e-9


@dataclass(frozen=True)
class AlignmentResult:
    lag: int            # samples by which f_out trails f_in
    phase: float        # radians, complex correlation phase at the peak
    peak_ratio: float   # peak magnitude over off-peak RMS


@dataclass(frozen=True)
class EqualizerState:
    """The per-bin covariance ``[[R_xx, R_xd], [R_dx, R_dd]]`` of the
    stacked ``[X; D]`` block spectra over the whole capture; the taps, the
    channel estimate and the residual NMSE are solved from it on each read."""

    covariance: np.ndarray    # (block_size, 2M, 2M) complex, FFT ordering

    def _r(self, i: int, j: int) -> np.ndarray:
        """Block (i, j) of the covariance, with 0 for X and 1 for D."""
        m = self.covariance.shape[1] // 2
        return self.covariance[:, i * m:(i + 1) * m, j * m:(j + 1) * m]

    @property
    def taps(self) -> np.ndarray:
        """Forward taps ``W = R_dx R_xx^-1`` per bin, (block_size, M, M)."""
        return _wiener(self._r(0, 0), self._r(1, 0))

    @property
    def channel(self) -> np.ndarray:
        """Channel estimate ``R_xd R_dd^-1`` per bin: the roles inverted."""
        return _wiener(self._r(1, 1), self._r(0, 1))

    @property
    def residual_nmse_db(self) -> float:
        """``sum_k tr(R_dd - W R_xd) / sum_k tr(R_dd)`` in dB, floored at
        -300 dB: the taps' error over the whole capture."""
        ref = np.trace(self._r(1, 1), axis1=1, axis2=2).real.sum()
        err = ref - np.einsum("kij,kji->", self.taps, self._r(0, 1)).real
        return float(10 * np.log10(max(err / ref if ref > 0 else 0, 1e-30)))


@dataclass(frozen=True)
class PipelineConfig:
    target_rate: float = 60e9
    filter_bw: Optional[float] = 15e9   # None disables the Gaussian filter
    filter_order: int = 4
    oversampling: int = 2               # samples/symbol of the assumed baud rate
    phase_window: int = 200
    # accepted for configs written for the paper's LMS equalizer; the
    # closed-form equalizer has no step size or passes, so neither has an
    # effect
    lms_step: float = 0.05
    lms_passes: int = 3
    block_size: int = 4096
    align_max_lag: int = 50_000
    align_threshold: float = 10.0

    def __post_init__(self):
        _check_types(self)
        if self.target_rate <= 0:
            raise ValueError("target_rate must be positive")
        if self.filter_bw is not None and self.filter_bw <= 0:
            raise ValueError("filter_bw must be positive (or null to "
                             "disable the filter)")
        if self.filter_order < 1:
            raise ValueError("filter_order must be >= 1")
        if self.oversampling < 1:
            raise ValueError("oversampling must be >= 1")
        if self.phase_window < 1:
            raise ValueError("phase_window must be >= 1")
        if self.lms_step <= 0:
            raise ValueError("lms_step must be positive")
        if self.block_size < 2 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a power of two >= 2")
        if self.align_max_lag < 1:
            raise ValueError("align_max_lag must be >= 1")

    @property
    def assumed_baud(self) -> float:
        return self.target_rate / self.oversampling


@dataclass(frozen=True)
class PipelineResult:
    """The receive chain's outputs for one capture pair."""

    f_in: MimoSignal      # trimmed reference, target rate
    f_eq: MimoSignal      # equalized + phase-recovered measured window
    state: EqualizerState
    alignment: AlignmentResult
    trim_start_in: int    # offset of f_in[0] in the resampled input timeline
    channel: MimoChannel  # full channel estimate, EDC undone, block grid


def align_by_crosscorrelation(f_in: MimoSignal, f_out: MimoSignal,
                              max_lag: int, threshold: float = 10.0
                              ) -> AlignmentResult:
    """Locate the delay of f_out relative to f_in by FFT cross-correlation
    of a prefix of both captures.

    Only the first ``P = min(n, 4 * max_lag)`` samples of each capture are
    read, ``n = min(len(f_in), len(f_out))``.  Each prefix row is
    zero-padded to ``P + max_lag`` samples before its FFT, so the
    correlation over ``[-max_lag, max_lag]`` is linear: no sample wraps
    around into a lag, and the transforms stay ``5 * max_lag`` long at most,
    whatever `n`.  The per-tributary cross-spectra ``F_out,m conj(F_in,m)``
    are summed (common-LO phase) and inverted with one IFFT; the winning
    lag maximizes the correlation magnitude, and ties break toward the
    smallest |lag|.  A peak-to-RMS ratio below `threshold` raises
    :class:`AlignmentError`; a capture with no power gives an all-zero
    correlation, whose ratio is 0.

    Captures with different tributary counts, captures shorter than
    ``2 * max_lag``, or a `max_lag` under 1, which leaves no off-peak lag to
    measure the ratio against, raise ValueError; a :class:`MimoSpectrum`
    raises TypeError.
    """
    if f_in.sample_rate != f_out.sample_rate:
        raise ValueError("signals must share a sample rate")
    if f_in.n_tributaries != f_out.n_tributaries:
        raise ValueError(f"tributary counts differ: f_in has "
                         f"{f_in.n_tributaries}, f_out has "
                         f"{f_out.n_tributaries}")
    for name, capture in (("f_in", f_in), ("f_out", f_out)):
        if isinstance(capture, MimoSpectrum):
            raise TypeError(f"{name} is a spectrum; pass its time signal")
    if max_lag < 1:
        raise ValueError("max_lag must be >= 1")
    n = min(len(f_in), len(f_out))
    if n < 2 * max_lag:
        raise ValueError("signals shorter than 2 * max_lag")
    prefix = min(n, 4 * max_lag)
    size = prefix + max_lag
    # one buffer each for the sum and a row's two spectra
    cross = np.zeros(size, dtype=complex)
    row, row_out = np.empty(size, dtype=complex), np.empty(size, dtype=complex)
    for m in range(f_in.n_tributaries):
        # conj(F_in) * F_out in this operand order: numpy's complex
        # multiply may round a*b and b*a differently
        np.conjugate(np.fft.fft(f_in.data[m, :prefix], size, out=row),
                     out=row)
        row *= np.fft.fft(f_out.data[m, :prefix], size, out=row_out)
        cross += row
    del row, row_out  # before the inverse FFT takes its working memory
    corr = np.fft.ifft(cross, out=cross)
    lags = np.arange(-max_lag, max_lag + 1)
    mags = np.abs(corr[lags])
    best = np.lexsort((np.abs(lags), -mags))[0]  # smallest |lag| wins ties
    peak = mags[best]
    rms = np.sqrt(np.mean(np.delete(mags, best) ** 2))
    ratio = peak / rms if rms > 0 else np.inf if peak > 0 else 0.0
    if ratio < threshold:
        raise AlignmentError(
            f"alignment: correlation peak ratio {ratio:.2f} below threshold "
            f"{threshold}; the captures may be unrelated or hold no power, "
            "or a frequency offset or phase drift decorrelates them")
    lag = int(lags[best])
    return AlignmentResult(lag=lag, phase=float(np.angle(corr[lag])),
                           peak_ratio=float(ratio))


def trim_aligned(f_in: MimoSignal, f_out: MimoSignal,
                 lag: int) -> tuple[MimoSignal, MimoSignal, int]:
    """Cut both signals to their overlapping region given f_out's lag.

    Returns the trimmed pair and the offset of the trimmed reference inside
    the original f_in timeline.
    """
    start_in, start_out = max(-lag, 0), max(lag, 0)
    n = max(min(len(f_in) - start_in, len(f_out) - start_out), 0)
    # basic slices: views of the captures, not copies
    return (MimoSignal(f_in.data[:, start_in:start_in + n], f_in.sample_rate),
            MimoSignal(f_out.data[:, start_out:start_out + n],
                       f_out.sample_rate),
            start_in)


def _front_end_length(sig: MimoSignal | MimoSpectrum,
                      cfg: PipelineConfig) -> int:
    """Samples of `sig` after :func:`_front_end`'s rate conversion."""
    return int(round(len(sig) * cfg.target_rate / sig.sample_rate))


def _front_end(sig: MimoSignal | MimoSpectrum, cfg: PipelineConfig,
               link: Optional[LinkConfig] = None, edc_km: float = 0.0,
               gauss: Optional[np.ndarray] = None
               ) -> MimoSignal | MimoSpectrum:
    """Receiver front end of one capture: resample to ``cfg.target_rate``,
    Gaussian filter (unless ``cfg.filter_bw`` is None) and, when `link` is
    given, EDC of `edc_km` of its fiber.

    A :class:`MimoSignal` takes one FFT; a :class:`MimoSpectrum` starts
    from its bins, which are never written to.  The spectrum is cut or
    zero-padded to the new rate (:func:`wgnlink.signals._resample_spectrum`)
    and multiplied by the filter response (`gauss` when the caller has it
    on the output grid) and the EDC response.  Returns the output's
    :class:`MimoSpectrum`, in bins of its own that the caller may invert in
    place; the inverse FFT is left to the caller.  A signal already at the
    target rate with no stage asked for passes through as itself.
    """
    rate = cfg.target_rate
    spectral = isinstance(sig, MimoSpectrum)
    if (not spectral and sig.sample_rate == rate and cfg.filter_bw is None
            and link is None):
        return sig
    n_out = _front_end_length(sig, cfg)
    spec = sig.data if spectral else _transform_rows(np.fft.fft, sig.data)
    spec = _resample_spectrum(spec, n_out)
    if spec is sig.data:
        spec = spec.copy()
    # a capture that run_pipeline handed over is freed here
    del sig
    if cfg.filter_bw is not None:
        if gauss is None:
            gauss = _gaussian_response(n_out, rate, cfg.filter_bw,
                                       cfg.filter_order)
        spec *= gauss
    if link is not None:
        spec *= _dispersion_response(n_out, rate, link.dispersion_coeff,
                                     edc_km, link.center_wavelength, -1.0)
    return MimoSpectrum(spec, rate)


def _as_signal(capture: MimoSignal | MimoSpectrum) -> MimoSignal:
    """The time signal of a front-end output: a spectrum's bins are
    inverted in place, so the spectrum is gone afterwards."""
    if isinstance(capture, MimoSignal):
        return capture
    return MimoSignal(_transform_rows(np.fft.ifft, capture.data,
                                      out=capture.data),
                      capture.sample_rate)


def fde_lms_equalize(f_in: MimoSignal, f_out: MimoSignal,
                     cfg: PipelineConfig, n_output: Optional[int] = None
                     ) -> tuple[MimoSignal, EqualizerState]:
    """Data-aided frequency-domain MIMO equalizer (overlap-save), solved in
    closed form.

    The capture is cut into overlap-save blocks of ``cfg.block_size``
    samples at a hop of half a block, after a leading half-block of zeros.
    The stacked ``[X; D]`` spectra of the input (`f_out`) and reference
    (`f_in`) blocks are summed per bin into the returned
    :class:`EqualizerState`.  Its taps ``W[k] = R_dx[k] R_xx[k]^-1`` are
    the least-squares limit that the paper's LMS, with its step halved on
    every pass, converges toward (``cfg.lms_step`` and ``cfg.lms_passes``
    have no effect); its channel ``H[k] = R_xd[k] R_dd[k]^-1`` (the roles
    inverted) maps the reference onto the input.

    A frozen-tap overlap-save pass over the first `n_output` samples (all
    when None) gives the equalized field.  It reads only `f_out` and the
    taps, and its samples do not depend on `n_output`; ``n_output=0`` skips
    it and the forward solve.  A negative `n_output` raises ValueError.
    """
    if f_in.n_tributaries != f_out.n_tributaries:
        raise ValueError("tributary count mismatch")
    if len(f_in) != len(f_out):
        raise ValueError("signals must be equal length (align first)")
    if n_output is not None and n_output < 0:
        raise ValueError(f"n_output must be >= 0, got {n_output}")
    m = f_in.n_tributaries
    n = len(f_in)
    n_output = n if n_output is None else min(n_output, n)
    block = cfg.block_size
    hop = block // 2
    if n < block:
        raise ValueError("signal shorter than one equalizer block")
    n_blocks = -(-n // hop)
    chunks = [(b, min(b + _CHUNK_BLOCKS, n_blocks))
              for b in range(0, n_blocks, _CHUNK_BLOCKS)]

    # [[R_xx, R_xd], [R_dx, R_dd]] per bin, from the stacked [X; D] spectra
    corr = np.zeros((block, 2 * m, 2 * m), dtype=complex)
    for first, stop in chunks:
        spec = _block_spectra((f_out.data, f_in.data), first, stop, hop)
        corr += spec @ np.conj(spec.transpose(0, 2, 1))
    state = EqualizerState(corr)
    out = np.empty((m, n_output), dtype=complex)
    taps = state.taps if n_output else None
    # whole chunks, as over the full capture, so that the samples kept are
    # those of the full pass
    for first, stop in chunks:
        if first * hop >= n_output:
            break
        spec_x = _block_spectra((f_out.data,), first, stop, hop)
        # overlap-save keeps the second half of each block
        y = np.fft.ifft(taps @ spec_x, axis=0)[hop:]
        seg = slice(first * hop, min(stop * hop, n_output))
        y = y.transpose(1, 2, 0).reshape(m, -1)
        out[:, seg] = y[:, :seg.stop - seg.start]
    return MimoSignal(out, f_in.sample_rate), state


def _wiener(r_in: np.ndarray, r_cross: np.ndarray) -> np.ndarray:
    """Per-bin ``r_cross r_in^-1`` for the (bins, M, M) blocks of one
    covariance, with `r_in` loaded by ``_DIAG_LOAD`` times its mean per-bin,
    per-mode power."""
    m = r_in.shape[1]
    power = np.trace(r_in, axis1=1, axis2=2).real.mean() / m
    r_in = r_in + (_DIAG_LOAD * power) * np.eye(m)
    # W R = C with R Hermitian  <=>  R W^H = C^H
    return np.conj(np.linalg.solve(r_in, np.conj(r_cross.transpose(0, 2, 1)))
                   .transpose(0, 2, 1))


def _block_spectra(parts, first: int, stop: int, hop: int) -> np.ndarray:
    """FFTs of overlap-save blocks ``first..stop-1`` of the rows of the
    equal-length (M_i, N) arrays `parts`, stacked in order, as a contiguous
    (2*hop, sum M_i, blocks) array.

    Block b covers samples ``(b-1)*hop .. (b+1)*hop``, zero outside the
    signal; frames are cut from the arrays without padding them first.
    """
    n = parts[0].shape[1]
    lo = (first - 1) * hop
    buf = np.zeros((sum(len(p) for p in parts), (stop - first + 1) * hop),
                   dtype=complex)
    a, b = max(lo, 0), min(stop * hop, n)
    np.concatenate([p[:, a:b] for p in parts], out=buf[:, a - lo:b - lo])
    frames = np.lib.stride_tricks.sliding_window_view(
        buf, 2 * hop, axis=1)[:, ::hop]
    return np.ascontiguousarray(np.fft.fft(frames, axis=2).transpose(2, 0, 1))


def phase_recovery(f_in: MimoSignal, f_eq: MimoSignal, window: int = 200,
                   *, out: Optional[np.ndarray] = None) -> MimoSignal:
    """Data-aided common-LO phase recovery.

    The phase estimate at sample n is the argument of the centered
    moving-window sum of sum_m f_eq,m(n) * conj(f_in,m(n)); edges use
    truncated windows.  Returns f_eq rotated by the negated estimate, in a
    new array, or in `out` when given: a writable complex128 array of f_eq's
    shape, which may be ``f_eq.data`` itself to rotate f_eq in place.

    The samples are rotated a piece of at most ``_PHASE_PIECE`` at a time,
    with no capture-sized temporary, and bit for bit as a pass over the
    whole arrays: each piece's running sum is one ``np.add.accumulate``
    that starts from the carried sum, the same sequential addition as the
    ``np.cumsum`` of :func:`_centered_moving_sum`, and each sample's cross
    product is read before that sample is rotated.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(f_in) != len(f_eq) or f_in.n_tributaries != f_eq.n_tributaries:
        raise ValueError("signals must be of equal length and mode count")
    if out is None:
        out = np.array(f_eq.data, dtype=complex)
    elif out.shape != f_eq.data.shape or out.dtype != np.complex128:
        raise ValueError("out must be a complex128 array of f_eq's shape")
    elif out is not f_eq.data:
        out[...] = f_eq.data
    ref, n = f_in.data, out.shape[1]
    # _centered_moving_sum's zero padding: `lead` zeros before the cross
    # product, and the window sum at i is csum[i + window] - csum[i]
    lead = (window - 1) // 2 + 1
    # csum[a - 1 .. b + window) for the piece a..b-1
    csum = np.zeros(window + _PHASE_PIECE + 1, dtype=complex)

    def cross(t0: int, dst: np.ndarray) -> None:
        """The padded cross product from its sample t0 on into `dst`."""
        dst[:] = 0
        lo, hi = max(t0, 0), min(t0 + len(dst), n)
        if hi <= lo:
            return
        part = dst[lo - t0:hi - t0]
        # conj(f_in) * f_eq in this operand order, as in the alignment:
        # numpy's complex multiply may round a*b and b*a differently
        np.multiply(np.conj(ref[0, lo:hi]), out[0, lo:hi], out=part)
        for m in range(1, len(out)):
            part += np.conj(ref[m, lo:hi]) * out[m, lo:hi]

    head = csum[:window + 1]
    cross(-lead, head[1:])
    np.add.accumulate(head, out=head)
    for a in range(0, n, _PHASE_PIECE):
        size = min(_PHASE_PIECE, n - a)
        new = csum[window:window + size + 1]
        cross(a + window - lead, new[1:])
        np.add.accumulate(new, out=new)
        moving = csum[window + 1:window + size + 1] - csum[1:size + 1]
        # a new product, as the whole-array pass made it: numpy rounds an
        # in-place complex multiply of a one-sample piece differently
        rotated = out[:, a:a + size] * np.exp(-1j * np.angle(moving))[None, :]
        out[:, a:a + size] = rotated
        csum[:window + 1] = csum[size:size + window + 1]
    return MimoSignal(out, f_eq.sample_rate)


def _centered_moving_sum(x: np.ndarray, window: int) -> np.ndarray:
    """The centered moving sum of the whole array `x`, truncated at the
    edges: the reference that :func:`phase_recovery` reproduces piecewise."""
    half_lo = (window - 1) // 2
    # window sum at n: csum of the zero-padded x at n + window minus at n
    csum = np.cumsum(np.pad(x, (half_lo + 1, window - 1 - half_lo)))
    return csum[window:] - csum[:-window]


def run_pipeline(f_in_raw: MimoSignal | MimoSpectrum,
                 f_out_raw: MimoSignal | MimoSpectrum,
                 link: Optional[LinkConfig], cfg: PipelineConfig,
                 n_recirculations: int = 1,
                 n_measured: Optional[int] = None) -> PipelineResult:
    """The receive chain: front end, alignment, trim, equalizer, phase
    recovery and channel estimate.

    Each capture is a :class:`MimoSignal` or its :class:`MimoSpectrum`.
    Both go through :func:`_front_end`; when `link` is given, the received
    one also takes EDC of ``edc_km = n_recirculations * span_length`` of
    its fiber.  ``link=None`` (a stored pair whose link is unknown) means
    no EDC.  A caller that passes a capture it does not keep lets it be
    freed once the front end has consumed it.  Each front-end spectrum is
    inverted in place into its time signal, so no capture is held as
    spectrum and signal at once.  The two signals are aligned on a prefix
    of each (:func:`align_by_crosscorrelation`) over a lag range cut to the
    shorter capture, then trimmed and equalized.  A capture under four
    samples at the target rate leaves no off-peak lag and raises ValueError
    before any transform.

    The one equalizer call's state gives the channel seen from the
    transmitted to the EDC-compensated received capture; the result's
    `channel` is that estimate times the fiber response of `edc_km` on its
    block grid, the exact inverse of the EDC multiply there.

    `n_measured` is the number of leading samples of the trimmed capture
    that the caller measures (all when None).  The equalizer output and
    phase recovery run over those plus ``cfg.phase_window`` samples, and
    `f_eq` holds the first `n_measured`.  The equalizer output there is
    that of a run over the whole capture; the phase estimate is a moving
    sum over ``cfg.phase_window`` samples, so it is too, up to the last
    bits of its complex products.  The received capture is freed before
    phase recovery runs.  With ``n_measured=0`` neither the forward solve,
    the output pass nor phase recovery runs and `f_eq` has no samples.
    """
    if n_measured is not None and n_measured < 0:
        raise ValueError("n_measured must be >= 0")
    rate = cfg.target_rate
    captures = [f_in_raw, f_out_raw]
    del f_in_raw, f_out_raw
    if captures[0].n_tributaries != captures[1].n_tributaries:
        raise ValueError("capture tributary counts differ")
    n_in, n_rx = (_front_end_length(c, cfg) for c in captures)
    n = min(n_in, n_rx)
    if n < 4:
        raise ValueError(f"a capture of {n} samples is too short to align "
                         "(need at least 4)")
    edc_km = 0.0 if link is None else link.span_length * n_recirculations
    gauss = None
    if cfg.filter_bw is not None and n_in == n_rx:
        gauss = _gaussian_response(n, rate, cfg.filter_bw, cfg.filter_order)
    # the list is emptied as the front end consumes it
    f_in = _front_end(captures.pop(0), cfg, gauss=gauss)
    f_out = _front_end(captures.pop(0), cfg, link, edc_km, gauss)
    del gauss
    # inverted after both front ends: inverting the first spectrum before
    # the second front end ran raised a 16QAM point's peak RSS by 15 MB
    f_in, f_out = _as_signal(f_in), _as_signal(f_out)
    alignment = align_by_crosscorrelation(
        f_in, f_out, min(cfg.align_max_lag, n // 2 - 1), cfg.align_threshold)
    f_in, f_out, start_in = trim_aligned(f_in, f_out, alignment.lag)
    n_keep = len(f_in) if n_measured is None else min(n_measured, len(f_in))
    n_eq = min(n_keep + cfg.phase_window, len(f_in)) if n_keep else 0
    f_eq, state = fde_lms_equalize(f_in, f_out, cfg, n_output=n_eq)
    # the received capture is freed before phase recovery runs
    del f_out
    if n_keep:
        # the equalizer's output is this function's own: rotated in place
        f_eq = phase_recovery(MimoSignal(f_in.data[:, :n_eq], rate), f_eq,
                              cfg.phase_window, out=f_eq.data)
        f_eq = MimoSignal(f_eq.data[:, :n_keep], rate)
    block = cfg.block_size
    channel = state.channel
    if link is not None:
        channel *= _dispersion_response(block, rate, link.dispersion_coeff,
                                        edc_km, link.center_wavelength,
                                        +1.0)[:, None, None]
    return PipelineResult(f_in=f_in, f_eq=f_eq, state=state,
                          alignment=alignment, trim_start_in=start_in,
                          channel=MimoChannel(channel, rate / block))
