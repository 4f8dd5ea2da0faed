"""Receive-side processing: alignment, EDC, FDE equalization, phase recovery.

The chain is fully data-aided: the transmitted WGN capture is known in its
entirety, so the whole sequence serves as the equalizer reference and no
training/payload split exists.  The equalizer taps are solved in closed
form, per frequency bin, from cross-spectra averaged over the whole capture:
the least-squares limit of the paper's LMS equalizer, with no training phase
and no step size.

:func:`run_pipeline` runs the chain for the sweep and, with no link and
nothing measured, for the channel estimate of a stored pair.  Each capture
takes at most one FFT on its way in and is held in one form at a time.
The front end filters and compensates its spectrum a chunk of bins at a
time, with no response of the capture's length, and the spectrum is then
inverted in place.  The alignment correlates only a prefix of each time
signal, a few times ``align_max_lag`` long, and reads the whole length
only at the lags the prefix cannot tell apart.
The equalizer's state is one per-bin covariance of the stacked block
spectra; the taps, the channel estimate and the residual NMSE are each
solved from it.  EDC is a unit-modulus scalar per frequency, so it
commutes with the channel and is undone exactly on the estimate.  The
equalizer output and phase recovery cover only the samples measured.

Each capture-length FFT and inverse FFT runs one row at a time
(:func:`wgnlink.signals._transform_rows`), never over ``axis=1``: numpy's
batched transform holds working buffers of several capture rows that
``tracemalloc`` does not see, and they set the point's peak RSS.

The equalizer's two passes run on two threads where the process may use
two CPUs, and inline on one: the calling thread and one pool thread that
is joined before the call returns.  A sweep's pool workers share the
CPUs, so each counts only its share of them.  Each bin's sums keep their
order, so the results are the same bits either way.  The threads write
only into buffers that the calling thread allocates, a chunk's or a
piece's size: a thread that allocated its own would keep a malloc arena
of them, which raised a sweep's peak RSS.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import (LinkConfig, MimoChannel, _bin_chunks, _check_types,
                      dispersion_phase)
from .errors import AlignmentError
from .signals import (MimoSignal, MimoSpectrum, _gaussian_response,
                      _resample_spectrum, _transform_rows)

# Overlap-save blocks whose spectra are held at once; bounds the equalizer's
# working set independently of the capture length.
_CHUNK_BLOCKS = 16
# Bins per piece of the covariance's per-bin product: its buffers are this
# many bins deep, not a chunk's.
_PIECE_BINS = 256
# Samples per piece of phase recovery's in-place pass: its temporaries are
# this long, not capture-sized.
_PHASE_PIECE = 1 << 16
# Processes that share this one's CPUs: a sweep's pool size in its workers
# (:func:`_share_cpus`), 1 elsewhere.
_WORKERS = 1
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
        return _wiener(self._r(0, 0), self._r(1, 0), "received")

    @property
    def channel(self) -> np.ndarray:
        """Channel estimate ``R_xd R_dd^-1`` per bin: the roles inverted."""
        return _wiener(self._r(1, 1), self._r(0, 1), "transmitted")

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

    The correlation reads the first ``P = min(n, 4 * max_lag)`` samples of
    each capture, ``n = min(len(f_in), len(f_out))``.  Each prefix row is
    zero-padded to ``P + max_lag`` samples before its FFT, so the
    correlation over ``[-max_lag, max_lag]`` is linear: no sample wraps
    around into a lag, and the transforms stay ``5 * max_lag`` long at most,
    whatever `n`.  The per-tributary cross-spectra ``F_out,m conj(F_in,m)``
    are summed (common-LO phase) and inverted with one IFFT; the winning
    lag maximizes the correlation magnitude, and ties break toward the
    smallest |lag|.  A peak-to-RMS ratio below `threshold` raises
    :class:`AlignmentError`; a capture with no power gives an all-zero
    correlation, whose ratio is 0.

    The off-peak RMS is the spread of the prefix's estimate at any lag, so
    lags within 4 RMS of the peak (two paths of nearly equal strength) are
    not told apart by the prefix: their correlations are read again over
    the captures' whole overlap, one inner product per tributary and lag,
    and the largest wins, ties again toward the smallest |lag|.  The phase
    and the peak ratio stay the prefix's.

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
    close = lags[mags >= peak - 4 * rms]
    if close.size > 1:
        full = np.empty(close.size)
        for i, k in enumerate(close):
            a, b, _ = trim_aligned(f_in, f_out, int(k))
            full[i] = abs(sum(np.vdot(x, y) for x, y in zip(a.data, b.data)))
        lag = int(close[np.lexsort((np.abs(close), -full))[0]])
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
    return (MimoSignal._built(f_in.data[:, start_in:start_in + n],
                              f_in.sample_rate),
            MimoSignal._built(f_out.data[:, start_out:start_out + n],
                              f_out.sample_rate),
            start_in)


def _front_end_length(sig: MimoSignal | MimoSpectrum,
                      cfg: PipelineConfig) -> int:
    """Samples of `sig` after :func:`_front_end`'s rate conversion."""
    return int(round(len(sig) * cfg.target_rate / sig.sample_rate))


def _front_end(sig: MimoSignal | MimoSpectrum, cfg: PipelineConfig,
               link: Optional[LinkConfig] = None, edc_km: float = 0.0
               ) -> MimoSignal | MimoSpectrum:
    """Receiver front end of one capture: resample to ``cfg.target_rate``,
    Gaussian filter (unless ``cfg.filter_bw`` is None) and, when `link` is
    given, EDC of `edc_km` of its fiber.

    A :class:`MimoSignal` takes one FFT; a :class:`MimoSpectrum` starts
    from its bins, which are never written to.  The spectrum is cut or
    zero-padded to the new rate (:func:`wgnlink.signals._resample_spectrum`)
    and multiplied by the filter and EDC responses a chunk of bins at a
    time (:func:`wgnlink.channel._bin_chunks`), each chunk's computed
    there, so nothing but the output is held at its full length.  Returns
    the output's :class:`MimoSpectrum`, in bins of its own that the caller
    may invert in place; the inverse FFT is left to the caller.  A signal
    already at the target rate with no stage asked for passes through as
    itself.  A filter bandwidth above Nyquist warns once and is applied
    as it is.
    """
    rate = cfg.target_rate
    spectral = isinstance(sig, MimoSpectrum)
    if (not spectral and sig.sample_rate == rate and cfg.filter_bw is None
            and link is None):
        return sig
    if cfg.filter_bw is not None and cfg.filter_bw > rate / 2:
        warnings.warn("filter bandwidth exceeds Nyquist; applying as-is",
                      stacklevel=2)
    n_out = _front_end_length(sig, cfg)
    spec = sig.data if spectral else _transform_rows(np.fft.fft, sig.data)
    spec = _resample_spectrum(spec, n_out)
    if spec is sig.data:
        spec = spec.copy()
    # a capture that run_pipeline handed over is freed here
    del sig
    step = 1.0 / (n_out * (1.0 / rate))  # as np.fft.fftfreq(n_out, 1 / rate)
    for chunk, k in _bin_chunks(n_out):
        if cfg.filter_bw is not None:
            spec[:, chunk] *= _gaussian_response(k * step, cfg.filter_bw,
                                                 cfg.filter_order)
        if link is not None:
            spec[:, chunk] *= np.exp(-1j * dispersion_phase(
                k * step, link.dispersion_coeff, edc_km,
                link.center_wavelength))
    return MimoSpectrum._built(spec, rate)


def _as_signal(capture: MimoSignal | MimoSpectrum) -> MimoSignal:
    """The time signal of a front-end output: a spectrum's bins are
    inverted in place, so the spectrum is gone afterwards."""
    if isinstance(capture, MimoSignal):
        return capture
    return MimoSignal._built(_transform_rows(np.fft.ifft, capture.data,
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

    Both passes run in chunks of ``_CHUNK_BLOCKS`` blocks, split over two
    threads when :func:`_cpus` gives two CPUs or more and run inline
    otherwise (:func:`_covariance`, :func:`_output_pass`); the
    results equal a one-thread pass bit for bit.  The pool lives only
    inside the call.  Reading the taps of an input, or the channel of a
    reference, that has no power raises ValueError naming that capture.
    """
    if f_in.n_tributaries != f_out.n_tributaries:
        raise ValueError("tributary count mismatch")
    if len(f_in) != len(f_out):
        raise ValueError("signals must be equal length (align first)")
    if n_output is not None and n_output < 0:
        raise ValueError(f"n_output must be >= 0, got {n_output}")
    n = len(f_in)
    n_output = n if n_output is None else min(n_output, n)
    block = cfg.block_size
    hop = block // 2
    if n < block:
        raise ValueError("signal shorter than one equalizer block")
    n_blocks = -(-n // hop)
    chunks = [(b, min(b + _CHUNK_BLOCKS, n_blocks))
              for b in range(0, n_blocks, _CHUNK_BLOCKS)]
    # joined on exit: no thread outlives the call
    with ThreadPoolExecutor(1) if _cpus() >= 2 else nullcontext() as pool:
        state = EqualizerState(_covariance(f_out.data, f_in.data, chunks,
                                           hop, pool))
        out = np.empty((f_in.n_tributaries, n_output), dtype=complex)
        if n_output:
            _output_pass(f_out.data, state.taps, chunks, hop, out, pool)
    return MimoSignal._built(out, f_in.sample_rate), state


def _cpus() -> int:
    """This process's share of the CPUs it may run on: their count divided
    by the processes that share them, at least one."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, cpus // _WORKERS)


def _share_cpus(workers: int) -> None:
    """Count this process as one of `workers` that share its CPUs: the
    initializer of a sweep's pool workers."""
    global _WORKERS
    _WORKERS = workers


def _split(pool: Optional[ThreadPoolExecutor], task, parts) -> None:
    """``task(*part)`` for both `parts`: the second on `pool`'s thread while
    the calling thread runs the first, or both in the calling thread when
    `pool` is None."""
    if pool is None:
        for part in parts:
            task(*part)
        return
    other = pool.submit(task, *parts[1])
    try:
        task(*parts[0])
    finally:
        other.result()


def _frames(src: np.ndarray, buf: np.ndarray, first: int, nb: int,
            hop: int) -> np.ndarray:
    """Overlap-save blocks ``first..first+nb-1`` of the rows of `src` as a
    (rows, nb, 2*hop) view of `buf`, which receives samples
    ``(first-1)*hop .. (first+nb)*hop``, zero outside the signal.

    Block b covers samples ``(b-1)*hop .. (b+1)*hop``; the samples are cast
    into `buf` as they are copied, without padding `src` first.
    """
    buf = buf[:, :(nb + 1) * hop]
    lo = (first - 1) * hop
    a, b = max(lo, 0), min((first + nb) * hop, src.shape[1])
    buf[:, :a - lo] = 0
    buf[:, a - lo:b - lo] = src[:, a:b]
    buf[:, b - lo:] = 0
    return np.lib.stride_tricks.sliding_window_view(
        buf, 2 * hop, axis=1)[:, ::hop]


def _contiguous(flat: np.ndarray, *shape: int) -> np.ndarray:
    """A C-contiguous `shape` view of the head of the 1-D buffer `flat`."""
    return flat[:int(np.prod(shape))].reshape(shape)


def _covariance(x: np.ndarray, d: np.ndarray, chunks, hop: int,
                pool: Optional[ThreadPoolExecutor]) -> np.ndarray:
    """The per-bin covariance of the stacked ``[X; D]`` block spectra of
    the (M, N) input `x` and reference `d`, summed chunk by chunk in order.

    Each chunk's frames are transformed into one (2M, blocks, 2*hop) array,
    `x`'s rows on one thread and `d`'s on the other.  The per-bin product
    is split by bins, half to each thread, in pieces of ``_PIECE_BINS``:
    a piece's bins are copied to a (bins, 2M, blocks) buffer and conjugated
    into a second one, and their product is added to those bins.  Every
    buffer is allocated here, before the threads start.
    """
    m, block = len(x), 2 * hop
    per = chunks[0][1] - chunks[0][0]
    frames = np.empty((2 * m, (per + 1) * hop), dtype=complex)
    spec = np.empty((2 * m, per, block), dtype=complex)
    corr = np.zeros((block, 2 * m, 2 * m), dtype=complex)
    width = min(_PIECE_BINS, hop)
    size = width * 2 * m * per
    pieces = [(np.empty(size, dtype=complex), np.empty(size, dtype=complex),
               np.empty((width, 2 * m, 2 * m), dtype=complex))
              for _ in range(2)]

    def transform(rows: slice, src: np.ndarray, first: int, nb: int):
        np.fft.fft(_frames(src, frames[rows], first, nb, hop), axis=2,
                   out=spec[rows, :nb])

    def multiply(k0: int, flat, flat_conj, prod, nb: int):
        for k in range(k0, k0 + hop, width):
            part = _contiguous(flat, width, 2 * m, nb)
            part[...] = spec[:, :nb, k:k + width].transpose(2, 0, 1)
            part_conj = _contiguous(flat_conj, width, 2 * m, nb)
            np.conjugate(part, out=part_conj)
            # the operands' layouts of ``s @ conj(s^T)`` over a contiguous
            # (bins, 2M, blocks) s, so that BLAS sums as it did there
            np.matmul(part, part_conj.transpose(0, 2, 1), out=prod)
            acc = corr[k:k + width]
            acc += prod

    for first, stop in chunks:
        nb = stop - first
        _split(pool, transform, [(slice(0, m), x, first, nb),
                                 (slice(m, 2 * m), d, first, nb)])
        _split(pool, multiply, [(0, *pieces[0], nb), (hop, *pieces[1], nb)])
    return corr


def _output_pass(x: np.ndarray, taps: np.ndarray, chunks, hop: int,
                 out: np.ndarray, pool: Optional[ThreadPoolExecutor]) -> None:
    """The frozen-tap overlap-save pass over the (M, N) input `x` into the
    first ``out.shape[1]`` samples of `out`.

    Whole chunks run, as over the full capture, so that the samples kept
    are those of the full pass; the chunks go to the two threads in turn.
    Each thread has its own frame, spectrum and product buffers, allocated
    here.  Per chunk it writes the block FFTs into the spectrum buffer in
    (bins, M, blocks) layout, ``taps @ X`` into the product buffer and the
    inverse FFT along the bin axis back into the spectrum buffer, then
    copies the second half of each block into that block's slice of `out`.
    """
    m, block, n_output = len(x), 2 * hop, out.shape[1]
    per = chunks[0][1] - chunks[0][0]
    chunks = [c for c in chunks if c[0] * hop < n_output]
    bufs = [(np.empty((m, (per + 1) * hop), dtype=complex),
             np.empty(block * m * per, dtype=complex),
             np.empty(block * m * per, dtype=complex)) for _ in range(2)]

    def run(own, frames, flat, flat_prod):
        for first, stop in own:
            nb = stop - first
            spec = _contiguous(flat, block, m, nb)
            np.fft.fft(_frames(x, frames, first, nb, hop), axis=2,
                       out=spec.transpose(1, 2, 0))
            prod = _contiguous(flat_prod, block, m, nb)
            np.matmul(taps, spec, out=prod)
            y = np.fft.ifft(prod, axis=0, out=spec)
            # overlap-save keeps the second half of each block
            for j in range(nb):
                s = (first + j) * hop
                e = min(s + hop, n_output)
                if e <= s:
                    break
                out[:, s:e] = y[hop:hop + e - s, :, j].T

    _split(pool, run, [(chunks[0::2], *bufs[0]), (chunks[1::2], *bufs[1])])


def _wiener(r_in: np.ndarray, r_cross: np.ndarray, name: str) -> np.ndarray:
    """Per-bin ``r_cross r_in^-1`` for the (bins, M, M) blocks of one
    covariance, with `r_in` loaded by ``_DIAG_LOAD`` times its mean per-bin,
    per-mode power.  An `r_in` of no power, which no load makes regular,
    raises ValueError naming the `name` capture it came from."""
    m = r_in.shape[1]
    power = np.trace(r_in, axis1=1, axis2=2).real.mean() / m
    if power == 0:
        raise ValueError(f"the {name} capture has no power: its per-bin "
                         "covariance is zero and cannot be inverted")
    r_in = r_in + (_DIAG_LOAD * power) * np.eye(m)
    # W R = C with R Hermitian  <=>  R W^H = C^H
    return np.conj(np.linalg.solve(r_in, np.conj(r_cross.transpose(0, 2, 1)))
                   .transpose(0, 2, 1))


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
    return MimoSignal._built(out, f_eq.sample_rate)


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
    Both go through :func:`_front_end`, which computes its filter response
    a chunk of bins at a time; when `link` is given, the received one also
    takes EDC of ``edc_km = n_recirculations * span_length`` of
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
    n = min(_front_end_length(c, cfg) for c in captures)
    if n < 4:
        raise ValueError(f"a capture of {n} samples is too short to align "
                         "(need at least 4)")
    edc_km = 0.0 if link is None else link.span_length * n_recirculations
    # the list is emptied as the front end consumes it
    f_in = _front_end(captures.pop(0), cfg)
    f_out = _front_end(captures.pop(0), cfg, link, edc_km)
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
        f_eq = phase_recovery(MimoSignal._built(f_in.data[:, :n_eq], rate),
                              f_eq, cfg.phase_window, out=f_eq.data)
        f_eq = MimoSignal._built(f_eq.data[:, :n_keep], rate)
    block = cfg.block_size
    channel = state.channel
    if link is not None:
        channel *= np.exp(1j * dispersion_phase(
            np.fft.fftfreq(block, 1.0 / rate), link.dispersion_coeff, edc_km,
            link.center_wavelength))[:, None, None]
    return PipelineResult(f_in=f_in, f_eq=f_eq, state=state,
                          alignment=alignment, trim_start_in=start_in,
                          channel=MimoChannel(channel, rate / block))
