"""Tests for signal containers, WGN generation, the front end's resampler
and filter response, and the capture format."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal
from scipy import stats

from wgnlink.pipeline import PipelineConfig, _as_signal, _front_end
from wgnlink.runner import generate_qam16_mimo
from wgnlink.signals import (ComplexSignal, MimoSignal, MimoSpectrum,
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


class TestMimoSpectrum:
    def test_of_a_signal(self):
        sig = generate_wgn_mimo(3, 1000, 40e9, 1.0, seed=2)
        spec = MimoSpectrum.of(sig)
        assert (spec.n_tributaries, len(spec)) == (3, 1000)
        assert spec.sample_rate == 40e9
        assert np.array_equal(spec.data, np.fft.fft(sig.data, axis=1))

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
        with pytest.warns(UserWarning):
            _gaussian_response(256, 10e9, 8e9, 4)

    def test_invalid_arguments(self):
        # the front end's config owns the filter's argument checks
        with pytest.raises(ValueError, match="filter_bw"):
            PipelineConfig(filter_bw=0.0)
        with pytest.raises(ValueError, match="filter_order"):
            PipelineConfig(filter_order=0)


class TestBinaryFormat:
    def test_round_trip(self):
        sig = generate_wgn_mimo(3, 1000, 40e9, 1.0, seed=8)
        buf = io.BytesIO()
        write_signal(buf, sig)
        buf.seek(0)
        back = read_signal(buf)
        assert back.n_tributaries == 3
        assert back.sample_rate == 40e9
        assert np.array_equal(back.as_array(), sig.as_array())

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
