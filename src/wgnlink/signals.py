"""Complex baseband signal containers, WGN generation, the capture file
format, and the spectral resampler and filter response of the receiver
front end (:func:`wgnlink.pipeline._front_end`).

Everything downstream works on :class:`ComplexSignal` (one tributary) or
:class:`MimoSignal` (M co-timed tributaries held as one complex (M, N)
array).  A simulated capture travels from the transmitter through the link
to the receiver front end as its :class:`MimoSpectrum` instead, so that it
is transformed once.  All operations are pure: they return new objects and
never mutate their inputs.  NaN and Inf are caught where samples enter (the
public constructors, :func:`read_signal` a piece at a time); library stages
wrap what they compute from checked captures without a re-scan, and config
fields and public functions' scalars are checked where they are given.

The capture file stores float64 samples; a stored capture loads as
complex64, half the memory of the file's payload.  Simulated captures,
every spectrum and every transform are complex128, and a complex64 row
takes the complex128 forward FFT when its output is complex128, so a
complex64 capture gives the numbers of its complex128 upcast.

Every capture-length FFT runs one row at a time (:func:`_transform_rows`),
never over ``axis=1`` of the (M, N) array: numpy's batched transform holds
working buffers of several rows that ``tracemalloc`` does not see, and
they set the peak RSS of a sweep point.
"""

from __future__ import annotations

import os
import struct
import warnings
from dataclasses import dataclass
from typing import BinaryIO, Optional

import numpy as np

_MAGIC = b"WGNC"
_VERSION = 1
_HEADER = struct.Struct("<4sIIQd")  # magic, version, M, Ns, sample_rate
# samples per read or write of a capture file: a 4 MB complex128 buffer
_IO_SAMPLES = 1 << 18


@dataclass(frozen=True)
class ComplexSignal:
    """Uniformly sampled complex baseband waveform."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        object.__setattr__(self, "samples", samples)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if samples.size and not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class _Capture:
    """One finite complex (M, N) array, row m for tributary m, and the
    sample rate of the capture it holds.  The array is complex128 unless
    its dtype is one the subclass keeps (`_kept_dtypes`); any other dtype
    is cast to complex128."""

    data: np.ndarray
    sample_rate: float

    _kept_dtypes = ()

    def __post_init__(self):
        data = np.asarray(self.data)
        if data.dtype not in self._kept_dtypes:
            data = data.astype(np.complex128, copy=False)
        object.__setattr__(self, "data", data)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ValueError("data must be an (M, N) array with M >= 1")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.isfinite(data).all():
            raise ValueError("samples contain NaN or Inf")

    @classmethod
    def _built(cls, data: np.ndarray, sample_rate: float):
        """`data` as it is: no cast, no shape, rate or finiteness check."""
        capture = object.__new__(cls)
        vars(capture).update(data=data, sample_rate=sample_rate)
        return capture

    @property
    def n_tributaries(self) -> int:
        return self.data.shape[0]

    def __len__(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MimoSignal(_Capture):
    """M co-timed tributaries sharing one sample rate, as one complex
    (M, N) array: row m is tributary m.  complex64 data (a stored capture,
    see :func:`read_signal`) is kept as given; any other dtype is cast to
    complex128."""

    _kept_dtypes = (np.complex64,)

    @property
    def tributaries(self) -> tuple[ComplexSignal, ...]:
        """One :class:`ComplexSignal` per row, each a view of complex128
        `data` (a complex128 copy of a complex64 row)."""
        return tuple(ComplexSignal(row, self.sample_rate)
                     for row in self.data)

    def as_array(self) -> np.ndarray:
        """The (M, N) sample array itself, not a copy."""
        return self.data


@dataclass(frozen=True)
class MimoSpectrum(_Capture):
    """The complex128 (M, N) FFT, row by row, of a :class:`MimoSignal`
    capture, with the sample rate of that capture; bins follow FFT
    ordering.  Always complex128: the link views the bins as float64
    (re, im) pairs."""

    @classmethod
    def of(cls, signal: MimoSignal) -> "MimoSpectrum":
        return cls._built(_transform_rows(np.fft.fft, signal.data),
                          signal.sample_rate)


def _transform_rows(transform, data: np.ndarray,
                    out: Optional[np.ndarray] = None) -> np.ndarray:
    """`transform` (``np.fft.fft`` or ``np.fft.ifft``) of each row of the
    (M, N) array `data`, one row at a time, written into `out`: a new
    complex array when None, `data` itself to transform in place.

    A batched ``axis=1`` transform holds hidden working memory of several
    rows; a row at a time it holds about one row's.  Each row takes the
    same pocketfft plan, so the result is bit-identical to the batched one.
    The output is complex128, so a complex64 row takes the complex128
    forward transform.  Its inverse would scale by a float32 ``1/N``, about
    1e-7 off the inverse of its complex128 upcast, so inverting complex64
    data raises TypeError.
    """
    if transform is np.fft.ifft and data.dtype == np.complex64:
        raise TypeError("complex64 rows are not inverted: np.fft.ifft "
                        "scales complex64 input by a float32 1/N; upcast "
                        "them to complex128 first")
    if out is None:
        out = np.empty(data.shape, dtype=np.complex128)
    for row, dst in zip(data, out):
        transform(row, out=dst)
    return out


def generate_wgn(n_samples: int, sample_rate: float, mean_power: float,
                 seed: int) -> ComplexSignal:
    """Circularly-symmetric complex Gaussian samples, deterministic per seed.

    Real and imaginary parts are i.i.d. with variance ``mean_power / 2`` each.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if mean_power <= 0:
        raise ValueError("mean_power must be positive")
    rng = np.random.default_rng(seed)
    scale = np.sqrt(mean_power / 2.0)
    samples = scale * (rng.standard_normal(n_samples)
                       + 1j * rng.standard_normal(n_samples))
    return ComplexSignal(samples, sample_rate)


def generate_wgn_mimo(n_tributaries: int, n_samples: int, sample_rate: float,
                      mean_power: float, seed: int) -> MimoSignal:
    """Independent WGN per tributary; tributary m uses a sub-seed of `seed`."""
    if n_samples < 1 or mean_power <= 0:
        raise ValueError("n_samples must be >= 1 and mean_power positive")
    seq = np.random.SeedSequence(seed).spawn(n_tributaries)
    data = np.empty((n_tributaries, n_samples), dtype=np.complex128)
    for row, sub in zip(data, seq):
        row[:] = generate_wgn(n_samples, sample_rate, mean_power, sub).samples
    return MimoSignal(data, sample_rate)


def _resample_spectrum(spec: np.ndarray, n_out: int) -> np.ndarray:
    """Cut or zero-pad the FFT `spec` (last axis) to `n_out` bins, scaled so
    that its inverse FFT is the resampled signal.

    When the shorter of the two lengths, m, is even, its unpaired bin m/2 is
    split into a +-m/2 pair on upsampling and the pair is merged back into
    one bin on downsampling, as in the common FFT resampler.
    Returns `spec` itself when the length does not change.
    """
    n = spec.shape[-1]
    if n_out == n:
        return spec
    return _resampled_bins(lambda a, b: spec[..., a:b], spec.shape[:-1], n,
                           n_out)


def _resampled_bins(bins, lead: tuple, n: int, n_out: int) -> np.ndarray:
    """The new ``lead + (n_out,)`` array that :func:`_resample_spectrum`
    makes of an n-bin spectrum, from a spectrum that need not be held
    whole: ``bins(a, b)`` returns its bins ``a..b-1`` (last axis), and only
    the bins the resampler keeps are asked for.  With ``n_out == n`` every
    bin is kept as it is."""
    m = min(n, n_out)
    m2 = m // 2 + 1
    out = np.zeros(lead + (n_out,), dtype=complex)
    out[..., :m2] = bins(0, m2)
    if m2 < m:
        out[..., m2 - m:] = bins(n + m2 - m, n)
    if m % 2 == 0 and n_out != n:
        if n_out < n:
            out[..., -(m // 2)] += bins(n - m // 2, n - m // 2 + 1)[..., 0]
        else:
            out[..., m // 2] /= 2
            out[..., n_out - m // 2] = out[..., m // 2]
    out /= n / n_out
    return out


def _gaussian_response(n: int, sample_rate: float, bandwidth_3db: float,
                       order: int) -> np.ndarray:
    """Zero-phase Gaussian filter response on the FFT grid of `n` samples at
    `sample_rate`: |H(f)| = exp(-ln2/2 * (|f|/B)^(2k)) with B the
    single-sided 3-dB cutoff and k the order, so H(0) = 1 exactly.  Warns
    when the bandwidth exceeds Nyquist."""
    if bandwidth_3db > sample_rate / 2:
        warnings.warn("filter bandwidth exceeds Nyquist; applying as-is",
                      stacklevel=3)
    # in place on the one frequency array, in the formula's order
    h = np.fft.fftfreq(n, d=1.0 / sample_rate)
    np.abs(h, out=h)
    h /= bandwidth_3db
    h **= 2 * order
    h *= -0.5 * np.log(2.0)
    return np.exp(h, out=h)


def write_signal(f: BinaryIO, signal: MimoSignal) -> None:
    """Write the flat binary capture format (see module docs / README):
    the header, then each row as interleaved little-endian float64
    (re, im) pairs, the <c16 layout.  The payload is written from the array
    a bounded piece at a time, never copied whole."""
    m, ns = signal.data.shape
    f.write(_HEADER.pack(_MAGIC, _VERSION, m, ns, signal.sample_rate))
    for row in signal.data:
        for s in range(0, ns, _IO_SAMPLES):
            piece = np.ascontiguousarray(row[s:s + _IO_SAMPLES], dtype="<c16")
            f.write(piece.view(np.uint8))


def read_signal(f: BinaryIO) -> MimoSignal:
    """Read the format of :func:`write_signal` from a seekable file into a
    read-only complex64 :class:`MimoSignal`.

    A payload the header declares larger than the rest of the file raises
    ValueError before anything is allocated, and so does a read that
    returns fewer bytes than asked.  A NaN or Inf sample, or a finite one
    beyond complex64 range, raises ValueError naming that cause."""
    raw = f.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise ValueError("truncated signal file header")
    magic, version, m, ns, rate = _HEADER.unpack(raw)
    if magic != _MAGIC:
        raise ValueError("not a wgnlink capture file")
    if version != _VERSION:
        raise ValueError(f"unsupported capture version {version}")
    if m < 1 or not 0 < rate < np.inf:
        raise ValueError(f"bad capture header: M={m}, sample_rate={rate!r}")
    size, start = m * ns * 16, f.tell()
    if size > f.seek(0, os.SEEK_END) - start:
        raise ValueError("truncated signal payload")
    f.seek(start)
    data = _read_payload(f, m, ns)
    data.flags.writeable = False
    return MimoSignal._built(data, rate)


def _read_payload(f: BinaryIO, m: int, ns: int) -> np.ndarray:
    """The (M, N) float64 payload as complex64, read a bounded piece at a
    time into one complex128 buffer and cast, so never held whole."""
    data = np.empty((m, ns), dtype=np.complex64)
    flat = data.reshape(-1)
    buf = np.empty(min(flat.size, _IO_SAMPLES), dtype="<c16")
    for s in range(0, flat.size, _IO_SAMPLES):
        piece = buf[:flat.size - s]
        if f.readinto(piece.view(np.uint8)) != piece.nbytes:
            raise ValueError("truncated signal payload")
        dst = flat[s:s + piece.size]
        # a finite sample beyond complex64 range casts to inf: told apart
        # from a NaN or Inf in the file below
        with np.errstate(over="ignore"):
            dst[...] = piece
        if not np.isfinite(dst).all():
            raise ValueError("samples contain NaN or Inf"
                             if not np.isfinite(piece).all() else
                             "samples beyond complex64 range (a real or "
                             "imaginary part above "
                             f"{np.finfo(np.float32).max:.4g})")
    return data
