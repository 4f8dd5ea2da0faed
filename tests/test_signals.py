"""Tests for signal containers, WGN generation, the front end's resampler
and filter response, and the capture format."""

import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal
from scipy import stats

from wgnlink import signals
from wgnlink.channel import (LinkConfig, add_awgn, apply_channel,
                             apply_frequency_offset, apply_phase_noise,
                             run_link, synthesize_mimo_channel)
from wgnlink.estimation import estimate_channel
from wgnlink.metrics import qam16_constellation
from wgnlink.pipeline import (PipelineConfig, _as_signal, _front_end,
                              run_pipeline)
from wgnlink.runner import generate_qam16_mimo
from wgnlink.signals import (_HEADER, ComplexSignal, MimoSignal, MimoSpectrum,
                             _gaussian_response, _resample_spectrum,
                             generate_wgn, generate_wgn_mimo, read_signal,
                             write_signal)


def _power(x: np.ndarray) -> float:
    return float(np.mean(np.abs(x) ** 2))


def _front(sig: MimoSignal, rate: float, filter_bw=None, order=4) -> np.ndarray:
    """The receiver front end, without EDC, as an (M, N) array at `rate`."""
    cfg = PipelineConfig(target_rate=rate, filter_bw=filter_bw,
                         filter_order=order)
    return _as_signal(_front_end(sig, cfg)).data


class TestComplexSignal:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            ComplexSignal(np.zeros(4, dtype=complex), 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ComplexSignal(np.array([1.0, np.nan]), 1.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            ComplexSignal(np.zeros((2, 2), dtype=complex), 1.0)


class TestMimoSignal:
    def test_array_round_trip(self):
        data = np.arange(8, dtype=complex).reshape(2, 4)
        sig = MimoSignal(data, 10.0)
        assert sig.n_tributaries == 2
        assert np.array_equal(sig.as_array(), data)

    @pytest.mark.parametrize("data, rate, match", [
        (np.zeros(4, dtype=complex), 1.0, "M, N"),
        (np.zeros((2, 2, 2), dtype=complex), 1.0, "M, N"),
        (np.zeros((0, 4), dtype=complex), 1.0, "M >= 1"),
        (np.zeros((2, 4), dtype=complex), 0.0, "sample_rate"),
        (np.zeros((2, 4), dtype=complex), -1.0, "sample_rate"),
        (np.array([[1.0, np.nan]]), 1.0, "NaN or Inf"),
        (np.array([[1.0], [np.inf]]), 1.0, "NaN or Inf"),
    ])
    def test_constructor_rejects(self, data, rate, match):
        with pytest.raises(ValueError, match=match):
            MimoSignal(data, rate)

    def test_tributaries_are_row_views(self):
        sig = generate_wgn_mimo(3, 100, 40e9, 1.0, seed=1)
        tribs = sig.tributaries
        assert len(tribs) == len(sig.data) == 3
        for k, t in enumerate(tribs):
            assert t.sample_rate == sig.sample_rate
            assert np.shares_memory(t.samples, sig.data[k])
            assert np.array_equal(t.samples, sig.data[k])

    def test_as_array_is_the_data(self):
        sig = generate_wgn_mimo(2, 100, 40e9, 1.0, seed=1)
        assert sig.as_array() is sig.data

    def test_complex64_kept_as_given(self):
        data = np.arange(8, dtype=np.complex64).reshape(2, 4)
        assert MimoSignal(data, 10.0).data is data

    @pytest.mark.parametrize("dtype", [np.float32, np.int64, np.complex128,
                                       ">c8"])
    def test_other_dtypes_cast_to_complex128(self, dtype):
        data = np.arange(8).reshape(2, 4).astype(dtype)
        sig = MimoSignal(data, 10.0)
        assert sig.data.dtype == np.complex128
        assert np.array_equal(sig.data, data)


class TestTransformRows:
    def test_complex64_rows_not_inverted(self):
        data = generate_wgn_mimo(2, 1000, 40e9, 1.0, seed=3).data
        low = data.astype(np.complex64)
        # the forward transform takes the complex128 FFT of the upcast
        assert np.array_equal(signals._transform_rows(np.fft.fft, low),
                              np.fft.fft(low.astype(complex), axis=1))
        # the inverse would scale by a float32 1/N
        for out in (None, np.empty(data.shape, dtype=complex)):
            with pytest.raises(TypeError, match="float32 1/N"):
                signals._transform_rows(np.fft.ifft, low, out=out)
        assert np.array_equal(signals._transform_rows(np.fft.ifft, data),
                              np.fft.ifft(data, axis=1))


class TestMimoSpectrum:
    def test_of_a_signal(self):
        sig = generate_wgn_mimo(3, 1000, 40e9, 1.0, seed=2)
        spec = MimoSpectrum.of(sig)
        assert (spec.n_tributaries, len(spec)) == (3, 1000)
        assert spec.sample_rate == 40e9
        assert np.array_equal(spec.data, np.fft.fft(sig.data, axis=1))

    def test_complex64_data_held_as_complex128(self):
        # the link views the bins as float64 (re, im) pairs
        data = generate_wgn_mimo(2, 100, 40e9, 1.0, seed=2).data
        spec = MimoSpectrum(data.astype(np.complex64), 40e9)
        assert spec.data.dtype == np.complex128
        assert np.array_equal(spec.data, data.astype(np.complex64))

    @pytest.mark.parametrize("data, rate, match", [
        (np.zeros(4, dtype=complex), 1.0, "M, N"),
        (np.zeros((0, 4), dtype=complex), 1.0, "M >= 1"),
        (np.zeros((2, 4), dtype=complex), 0.0, "sample_rate"),
        (np.array([[1.0, np.nan]]), 1.0, "NaN or Inf"),
        (np.array([[1.0], [np.inf]]), 1.0, "NaN or Inf"),
    ])
    def test_constructor_rejects(self, data, rate, match):
        with pytest.raises(ValueError, match=match):
            MimoSpectrum(data, rate)


class TestGenerateWgn:
    def test_length_and_rate(self):
        sig = generate_wgn(1000, 40e9, 1.0, seed=1)
        assert len(sig) == 1000
        assert sig.sample_rate == 40e9

    def test_deterministic(self):
        a = generate_wgn(10_000, 40e9, 1.0, seed=7)
        b = generate_wgn(10_000, 40e9, 1.0, seed=7)
        assert np.array_equal(a.samples, b.samples)

    def test_mean_power_within_one_percent(self):
        sig = generate_wgn(1_000_000, 40e9, 1.0, seed=3)
        assert _power(sig.samples) == pytest.approx(1.0, rel=0.01)

    def test_component_variances(self):
        sig = generate_wgn(500_000, 1.0, 2.0, seed=5)
        assert np.var(sig.samples.real) == pytest.approx(1.0, rel=0.02)
        assert np.var(sig.samples.imag) == pytest.approx(1.0, rel=0.02)

    def test_rayleigh_magnitude_ks(self):
        # KS statistic of |samples| against Rayleigh(scale=sqrt(p/2)) < 0.005
        sig = generate_wgn(1_000_000, 1.0, 1.0, seed=11)
        stat, _ = stats.kstest(np.abs(sig.samples), "rayleigh",
                               args=(0.0, np.sqrt(0.5)))
        assert stat < 0.005

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_wgn(0, 1.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_wgn(10, 1.0, 0.0, seed=0)

    def test_mimo_invalid_arguments_rejected_before_generating(self):
        with pytest.raises(ValueError, match="mean_power"):
            generate_wgn_mimo(2, 10, 1.0, -1.0, seed=0)
        with pytest.raises(ValueError, match="n_samples"):
            generate_wgn_mimo(2, 0, 1.0, 1.0, seed=0)

    def test_mimo_tributaries_independent(self):
        sig = generate_wgn_mimo(2, 100_000, 1.0, 1.0, seed=2)
        a, b = (t.samples for t in sig.tributaries)
        rho = np.vdot(a, b) / np.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
        assert abs(rho) < 0.02

    @settings(max_examples=20, deadline=None)
    @given(p=st.floats(min_value=0.01, max_value=100.0),
           seed=st.integers(min_value=0, max_value=2**31))
    def test_power_tracks_request(self, p, seed):
        n = 20_000
        sig = generate_wgn(n, 1.0, p, seed=seed)
        # mean of |s|^2 has std p/sqrt(n); allow 4 sigma
        assert abs(_power(sig.samples) - p) < 4 * p / np.sqrt(n)


class TestResample:
    def test_40_to_60_length(self):
        sig = generate_wgn_mimo(2, 8_000, 40e9, 1.0, seed=1)
        assert _front(sig, 60e9).shape == (2, 12_000)

    def test_identity(self):
        spec = np.fft.fft(generate_wgn(5_000, 40e9, 1.0, seed=1).samples)
        assert _resample_spectrum(spec, 5_000) is spec

    def test_tone_preserved_images_suppressed(self):
        n = 4096
        t = np.arange(n) / 40e9
        sig = MimoSignal(np.exp(2j * np.pi * 5e9 * t)[None, :], 40e9)
        out = _front(sig, 60e9)[0]
        spec = np.abs(np.fft.fft(out))
        freqs = np.fft.fftfreq(len(out), d=1 / 60e9)
        peak_bin = int(np.argmax(spec))
        assert freqs[peak_bin] == pytest.approx(5e9, rel=1e-3)
        others = np.delete(spec, [peak_bin - 1, peak_bin, peak_bin + 1])
        assert np.max(others) / spec[peak_bin] < 10 ** (-60 / 20)

    def test_round_trip_nmse(self):
        # 40 -> 60 -> 40 GS/s reproduces the in-band signal, NMSE < -50 dB
        sig = generate_wgn_mimo(1, 60_000, 40e9, 1.0, seed=9)
        back = _front(MimoSignal(_front(sig, 60e9), 60e9), 40e9)
        err = back - sig.data
        # exclude a small edge region (FFT resampling rings at the boundaries)
        sl = (0, slice(500, -500))
        nmse = _power(err[sl]) / _power(sig.data[sl])
        assert 10 * np.log10(nmse) < -50

    # (n, n_out): the shorter length even (unpaired Nyquist bin split or
    # merged) and odd, up and down, and the identity at both parities
    @pytest.mark.parametrize("n, n_out", [(1000, 1501), (1501, 1000),
                                          (1001, 1500), (1500, 1001),
                                          (1000, 1000), (1001, 1001)])
    def test_matches_scipy(self, n, n_out):
        x = generate_wgn(n, 40e9, 1.0, seed=n + n_out).samples
        out = np.fft.ifft(_resample_spectrum(np.fft.fft(x), n_out))
        ref = sp_signal.resample(x, n_out)
        assert len(out) == n_out
        assert np.max(np.abs(out - ref)) < 1e-12 * np.max(np.abs(ref))


def _stuffed_qam16(n_modes, n_symbols, baud, mean_power, seed, osr,
                   rolloff, sample_rate, spectrum):
    """The 16QAM waveform, or its spectrum, built as the zero-stuffed
    symbols' n-point FFT times the raised cosine on the n-point grid, cut or
    zero-padded onto the output grid by ``_resample_spectrum``."""
    rate = baud * osr
    rng = np.random.default_rng(seed)
    pts = qam16_constellation(mean_power)
    n = n_symbols * osr
    n_out = int(round(n * sample_rate / rate))
    af = np.abs(np.fft.fftfreq(n, d=1.0 / rate))
    lo, hi = (1 - rolloff) * baud / 2, (1 + rolloff) * baud / 2
    h = np.where(af <= lo, 1.0, 0.0)
    ramp = (af > lo) & (af <= hi)
    h[ramp] = 0.5 * (1 + np.cos(np.pi / (rolloff * baud) * (af[ramp] - lo)))
    symbols = np.empty((n_modes, n_symbols), dtype=complex)
    wave = np.empty((n_modes, n_out), dtype=complex)
    for m in range(n_modes):
        symbols[m] = pts[rng.integers(0, 16, n_symbols)]
        stuffed = np.zeros(n, dtype=complex)
        stuffed[::osr] = symbols[m]
        row = _resample_spectrum(np.fft.fft(stuffed) * h, n_out)
        wave[m] = row if spectrum else np.fft.ifft(row)
    return wave, symbols


class TestQam16Waveform:
    # (symbols, sample rate): down to the capture rate, identity, up; the
    # odd symbol count gives an odd output length
    @pytest.mark.parametrize("n_sym, rate", [(3000, 40e9), (3001, 40e9),
                                             (3000, 60e9), (3000, 90e9)])
    def test_sample_rate_equals_resampled_waveform(self, n_sym, rate):
        wave, sym = generate_qam16_mimo(2, n_sym, 30e9, 1.0, seed=5)
        direct, sym_d = generate_qam16_mimo(2, n_sym, 30e9, 1.0, seed=5,
                                            sample_rate=rate)
        n_out = round(len(wave) * rate / wave.sample_rate)
        b = sp_signal.resample(wave.data, n_out, axis=1)
        assert direct.sample_rate == rate
        assert np.array_equal(sym, sym_d)
        a = direct.as_array()
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) < 1e-12 * np.max(np.abs(b))

    @pytest.mark.parametrize("power", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_mean_power_rejected(self, power):
        # named before any symbol is drawn, not passed on as NaN samples
        with pytest.raises(ValueError, match="mean_power"):
            generate_qam16_mimo(2, 100, 30e9, power, seed=5)

    @pytest.mark.parametrize("rate", [40e9, 60e9])
    def test_spectrum_is_the_waveforms_fft(self, rate):
        wave, sym = generate_qam16_mimo(2, 3001, 30e9, 1.0, seed=5,
                                        sample_rate=rate)
        spec, sym_s = generate_qam16_mimo(2, 3001, 30e9, 1.0, seed=5,
                                          sample_rate=rate, spectrum=True)
        assert isinstance(spec, MimoSpectrum) and spec.sample_rate == rate
        assert np.array_equal(sym, sym_s)
        # the waveform is the inverse FFT of each row, bit for bit
        assert all(np.array_equal(np.fft.ifft(row), w)
                   for row, w in zip(spec.data, wave.data))

    # oversampling 2 and 3, odd and even symbol counts, and rates below,
    # equal to and above baud * oversampling: the cut (with the even
    # Nyquist bin merged), the identity and the zero-pad (with it split)
    @pytest.mark.parametrize("spectrum", [False, True],
                             ids=["signal", "spectrum"])
    @pytest.mark.parametrize("rate_ratio", [0.6, 1.0, 1.5])
    @pytest.mark.parametrize("n_sym", [3000, 3001])
    @pytest.mark.parametrize("osr", [2, 3])
    def test_matches_the_stuffed_spectrum(self, osr, n_sym, rate_ratio,
                                          spectrum):
        baud = 30e9
        rate = baud * osr * rate_ratio
        got, sym = generate_qam16_mimo(2, n_sym, baud, 1.0, seed=6,
                                       oversampling=osr, sample_rate=rate,
                                       spectrum=spectrum)
        want, sym_o = _stuffed_qam16(2, n_sym, baud, 1.0, 6, osr, 0.1, rate,
                                     spectrum)
        assert type(got) is (MimoSpectrum if spectrum else MimoSignal)
        assert got.sample_rate == rate
        assert np.array_equal(sym, sym_o)
        assert got.data.shape == want.shape
        assert np.max(np.abs(got.data - want)) < 1e-13 * np.max(np.abs(want))

    def test_rate_below_band_rejected(self):
        # a 30 GBd, 0.1-rolloff band is 33 GHz wide
        generate_qam16_mimo(1, 100, 30e9, 1.0, seed=1, sample_rate=33e9)
        with pytest.raises(ValueError, match="16QAM band"):
            generate_qam16_mimo(1, 100, 30e9, 1.0, seed=1, sample_rate=32e9)


class TestGaussianFilter:
    def test_dc_unit_gain(self):
        sig = MimoSignal(np.ones((1, 1024), dtype=complex), 60e9)
        assert np.allclose(_front(sig, 60e9, 15e9), 1.0, atol=1e-12)

    def test_half_power_at_cutoff(self):
        n = 6000
        b = 15e9
        t = np.arange(n) / 60e9
        sig = MimoSignal(np.exp(2j * np.pi * b * t)[None, :], 60e9)
        assert _power(_front(sig, 60e9, b)) == pytest.approx(0.5, rel=1e-6)

    def test_idempotent_shape(self):
        # filtering twice equals one filter with |H|^2 (frequency domain)
        sig = generate_wgn_mimo(1, 4096, 60e9, 1.0, seed=4)
        once = MimoSignal(_front(sig, 60e9, 10e9, 3), 60e9)
        twice = _front(once, 60e9, 10e9, 3)
        f = np.fft.fftfreq(4096, d=1 / 60e9)
        h2 = np.exp(-0.5 * np.log(2) * (np.abs(f) / 10e9) ** 6) ** 2
        direct = np.fft.ifft(np.fft.fft(sig.data) * h2)
        assert np.max(np.abs(twice - direct)) < 1e-10

    def test_bandwidth_above_nyquist_warns(self):
        # once per front-end call, whatever its number of bin chunks
        sig = generate_wgn_mimo(1, 40_000, 10e9, 1.0, seed=5)
        cfg = PipelineConfig(target_rate=10e9, filter_bw=8e9)
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _front_end(sig, cfg)
            assert [w.category for w in caught] == [UserWarning]
            assert "filter bandwidth exceeds Nyquist" in str(caught[0].message)

    @pytest.mark.parametrize("n", [1, 256, 4097])
    def test_response_of_any_frequencies(self, n):
        # the formula's operations in its order: the same bits
        f = np.fft.fftfreq(n, d=1 / 60e9)
        want = np.abs(f) / 15e9
        want = np.exp(want ** 8 * (-0.5 * np.log(2.0)))
        got = _gaussian_response(f, 15e9, 4)
        assert np.array_equal(got, want)
        assert got[0] == 1.0 and not np.shares_memory(got, f)

    def test_invalid_arguments(self):
        # the front end's config owns the filter's argument checks
        with pytest.raises(ValueError, match="filter_bw"):
            PipelineConfig(filter_bw=0.0)
        with pytest.raises(ValueError, match="filter_order"):
            PipelineConfig(filter_order=0)


def _capture_bytes(sig: MimoSignal) -> bytes:
    """The capture file of `sig` as the format defines it: the header, then
    the whole (M, N) array as interleaved little-endian float64 pairs."""
    m, ns = sig.data.shape
    return (_HEADER.pack(b"WGNC", 1, m, ns, sig.sample_rate)
            + sig.data.astype("<c16").tobytes())


class _ShortRaw(io.RawIOBase):
    """A raw stream over `data` whose end, as `seek` reports it, lies
    `missing` bytes past the last byte `readinto` delivers."""

    def __init__(self, data: bytes, missing: int):
        self._data, self._missing, self._pos = data, missing, 0

    def readable(self):
        return True

    def seekable(self):
        return True

    def seek(self, offset, whence=io.SEEK_SET):
        base = {io.SEEK_SET: 0, io.SEEK_CUR: self._pos,
                io.SEEK_END: len(self._data) + self._missing}[whence]
        self._pos = base + offset
        return self._pos

    def tell(self):
        return self._pos

    def readinto(self, b):
        b = memoryview(b).cast("B")
        chunk = self._data[self._pos:self._pos + len(b)]
        b[:len(chunk)] = chunk
        self._pos += len(chunk)
        return len(chunk)


class TestBinaryFormat:
    def test_round_trip(self):
        # a stored capture loads as complex64: the float64 samples rounded
        sig = generate_wgn_mimo(3, 1000, 40e9, 1.0, seed=8)
        buf = io.BytesIO()
        write_signal(buf, sig)
        buf.seek(0)
        back = read_signal(buf)
        assert back.n_tributaries == 3
        assert back.sample_rate == 40e9
        assert back.data.dtype == np.complex64
        assert np.array_equal(back.as_array(), sig.data.astype(np.complex64))

    def test_complex64_round_trip_is_exact(self):
        sig = MimoSignal(generate_wgn_mimo(3, 1000, 40e9, 1.0, seed=8)
                         .data.astype(np.complex64), 40e9)
        buf = io.BytesIO()
        write_signal(buf, sig)
        buf.seek(0)
        back = read_signal(buf)
        assert back.data.dtype == np.complex64
        assert np.array_equal(back.data, sig.data)

    def test_empty_capture_round_trip(self):
        buf = io.BytesIO()
        write_signal(buf, MimoSignal(np.zeros((2, 0)), 40e9))
        buf.seek(0)
        assert read_signal(buf).data.shape == (2, 0)

    def test_read_is_read_only(self):
        buf = io.BytesIO()
        write_signal(buf, generate_wgn_mimo(2, 100, 40e9, 1.0, seed=8))
        buf.seek(0)
        back = read_signal(buf)
        assert not back.data.flags.writeable
        with pytest.raises(ValueError):
            back.data[0, 0] = 0

    @pytest.mark.parametrize("piece", [7, 100, signals._IO_SAMPLES])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_layout_in_pieces(self, monkeypatch, piece, dtype):
        # pieces that split rows, span rows and hold the whole payload; a
        # trimmed view's rows are not contiguous with each other
        monkeypatch.setattr(signals, "_IO_SAMPLES", piece)
        data = generate_wgn_mimo(3, 300, 40e9, 1.0, seed=8).data
        sig = MimoSignal(data.astype(dtype)[:, 20:270], 40e9)
        buf = io.BytesIO()
        write_signal(buf, sig)
        assert buf.getvalue() == _capture_bytes(sig)
        buf.seek(0)
        assert np.array_equal(read_signal(buf).data,
                              sig.data.astype(np.complex64))

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_write_holds_at_most_one_row(self, tmp_path, dtype):
        sig = MimoSignal(np.ones((2, 1_000_000), dtype=dtype), 40e9)
        with open(tmp_path / "cap.bin", "wb") as f:
            tracemalloc.start()
            try:
                write_signal(f, sig)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 1_000_000 * 16

    def test_read_holds_the_array_and_one_buffer(self, tmp_path):
        path = tmp_path / "cap.bin"
        with open(path, "wb") as f:
            write_signal(f, MimoSignal(np.ones((2, 1_000_000)), 40e9))
        with open(path, "rb") as f:
            tracemalloc.start()
            try:
                back = read_signal(f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert back.data.dtype == np.complex64
        # the 16 MB complex64 array and a 4 MB read buffer, with 1 MB for
        # the per-piece checks; the complex128 payload is 32 MB
        assert peak < 2 * 1_000_000 * 8 + signals._IO_SAMPLES * 16 + 2 ** 20

    def test_short_read_is_a_truncated_payload(self):
        # the file's end as seek reports it passes the size check, and the
        # read delivers 8 bytes fewer than asked
        data = _capture_bytes(generate_wgn_mimo(2, 100, 40e9, 1.0, seed=8))
        with pytest.raises(ValueError, match="truncated signal payload"):
            read_signal(_ShortRaw(data[:-8], 8))

    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_nan_or_inf_sample_rejected(self, value):
        sig = generate_wgn_mimo(2, 100, 40e9, 1.0, seed=8)
        data = bytearray(_capture_bytes(sig))
        data[-8:] = np.float64(value).tobytes()
        with pytest.raises(ValueError, match="NaN or Inf"):
            read_signal(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("value", [1e39, -1e39j])
    def test_sample_beyond_complex64_range_rejected(self, value):
        # finite in the file's float64, infinite as complex64: named as
        # such, and without an overflow warning
        data = generate_wgn_mimo(2, 100, 40e9, 1.0, seed=8).data.copy()
        data[1, 50] = value
        buf = io.BytesIO()
        write_signal(buf, MimoSignal(data, 40e9))
        buf.seek(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beyond complex64 range"):
                read_signal(buf)

    def test_largest_complex64_value_accepted(self):
        data = np.ones((1, 10), dtype=complex)
        data[0, 3] = np.finfo(np.float32).max
        buf = io.BytesIO()
        write_signal(buf, MimoSignal(data, 40e9))
        buf.seek(0)
        assert np.array_equal(read_signal(buf).data, data)

    @pytest.mark.parametrize("m, rate", [(0, 40e9), (2, 0.0), (2, -40e9),
                                         (2, np.nan), (2, np.inf)])
    def test_bad_header_rejected(self, m, rate):
        raw = _HEADER.pack(signals._MAGIC, signals._VERSION, m, 4, rate)
        with pytest.raises(ValueError, match="bad capture header"):
            read_signal(io.BytesIO(raw + bytes(m * 4 * 16)))

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            read_signal(io.BytesIO(b"\x00" * 64))

    def test_truncated_payload(self):
        sig = generate_wgn_mimo(2, 100, 40e9, 1.0, seed=8)
        buf = io.BytesIO()
        write_signal(buf, sig)
        data = buf.getvalue()[:-8]
        with pytest.raises(ValueError):
            read_signal(io.BytesIO(data))

    @pytest.mark.parametrize("n_samples", [2 ** 40, 2 ** 61])
    def test_oversized_header_is_a_truncated_payload(self, tmp_path,
                                                     n_samples):
        # the declared payload is checked against the file, not allocated;
        # magic, version and mode count take the header's first 12 bytes
        buf = io.BytesIO()
        write_signal(buf, generate_wgn_mimo(2, 100, 40e9, 1.0, seed=8))
        data = bytearray(buf.getvalue())
        data[12:20] = n_samples.to_bytes(8, "little")
        path = tmp_path / "big.bin"
        path.write_bytes(bytes(data))
        with open(path, "rb") as f:
            with pytest.raises(ValueError, match="truncated signal payload"):
                read_signal(f)

    def test_truncated_header(self):
        with pytest.raises(ValueError):
            read_signal(io.BytesIO(b"WG"))


class TestComplex64Capture:
    """A complex64 capture gives every public function the outputs of its
    complex128 upcast: each transform and product runs in complex128."""

    @pytest.fixture(scope="class")
    def pair(self):
        """A stored transmit/receive pair, loaded as complex64, and its
        complex128 upcast."""
        tx = generate_wgn_mimo(2, 60_000, 60e9, 1.0, seed=90)
        rx = run_link(tx, LinkConfig(span_snr_db=30.0, mdl_per_span=0.5),
                      2, seed=91)
        loaded = []
        for sig in (tx, rx):
            buf = io.BytesIO()
            write_signal(buf, sig)
            buf.seek(0)
            loaded.append(read_signal(buf))
        return [(s, MimoSignal(s.data.astype(np.complex128), s.sample_rate))
                for s in loaded]

    @pytest.mark.parametrize("apply", [
        lambda s: run_link(s, LinkConfig(mdl_per_span=0.5, lo_linewidth=1e5,
                                         frequency_offset=1e6), 2, seed=3),
        lambda s: run_link(s, LinkConfig(dgd_per_span=1e-11), 3, seed=3),
        lambda s: apply_channel(s, synthesize_mimo_channel(
            2, 3.0, 1e-10, 4096, 60e9 / 4096, seed=4)),
        lambda s: add_awgn(s, 20.0, seed=5),
        lambda s: apply_phase_noise(s, 1e5, seed=6),
        lambda s: apply_frequency_offset(s, 1e6),
        MimoSpectrum.of,
    ], ids=["link-mdl-lo", "link-dgd", "channel", "awgn", "phase-noise",
            "frequency-offset", "spectrum"])
    def test_transforms(self, pair, apply):
        narrow, wide = pair[0]
        got, want = apply(narrow), apply(wide)
        assert got.data.dtype == want.data.dtype == np.complex128
        assert np.array_equal(got.data, want.data)

    @pytest.mark.parametrize("filter_bw", [None, 15e9], ids=["pass", "gauss"])
    def test_receiver(self, pair, filter_bw):
        # the pass-through front end hands the complex64 captures on to the
        # alignment and the equalizer as they are
        cfg = PipelineConfig(filter_bw=filter_bw, align_max_lag=5_000)
        (tx, tx_wide), (rx, rx_wide) = pair
        got = run_pipeline(tx, rx, None, cfg)
        want = run_pipeline(tx_wide, rx_wide, None, cfg)
        assert np.array_equal(got.state.covariance, want.state.covariance)
        assert np.array_equal(got.f_eq.data, want.f_eq.data)
        assert got.alignment == want.alignment
        assert np.array_equal(estimate_channel(tx, rx, cfg).matrices,
                              estimate_channel(tx_wide, rx_wide, cfg).matrices)

    def test_written_bytes(self, pair):
        narrow, wide = pair[1]
        bufs = [io.BytesIO(), io.BytesIO()]
        write_signal(bufs[0], narrow)
        write_signal(bufs[1], wide)
        assert bufs[0].getvalue() == bufs[1].getvalue()
