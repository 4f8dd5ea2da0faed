"""Tests for config parsing, the CLI verbs, and experiment output contracts."""

import concurrent.futures
import json
import logging
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wgnlink
from wgnlink import cli, pipeline, runner
from wgnlink.channel import LinkConfig, MimoChannel
from wgnlink.config import ExperimentConfig, validate_config
from wgnlink.errors import ConfigError
from wgnlink.pipeline import AlignmentResult
from wgnlink.signals import MimoSignal, generate_wgn_mimo, write_signal

MINIMAL = """
sweep:
  recirculations: [1]
seeds: [3]
n_samples: 120000
mi_max_symbols: 30000
"""

TINY_SWEEP = """
link:
  span_snr_db: 20.0
sweep:
  recirculations: [1, 2]
seeds: [3, 4]
n_samples: 120000
mi_max_symbols: 30000
"""

COUPLED_SWEEP = """
link:
  span_snr_db: 20.0
  mdl_per_span: 0.5
  dgd_per_span: 1.0e-11
sweep:
  recirculations: [1, 2]
seeds: [3, 4]
n_samples: 40000
mi_max_symbols: 10000
"""

README = Path(__file__).resolve().parents[1] / "README.md"

FORK_ONLY = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers see the patched point function only when forked")


def _write(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestValidateConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = validate_config(_write(tmp_path, MINIMAL))
        assert cfg.link.dispersion_coeff == 17.0
        assert cfg.link.center_wavelength == 1550.0
        assert cfg.pipeline.filter_bw == 15e9
        assert cfg.pipeline.phase_window == 200
        assert cfg.n_rings == 16
        assert cfg.sweep_axis == "recirculations"

    def test_two_sweep_axes_rejected(self, tmp_path):
        text = MINIMAL + "\n"
        text = text.replace("recirculations: [1]",
                            "recirculations: [1]\n  launch_power_dbm: [0]")
        with pytest.raises(ConfigError):
            validate_config(_write(tmp_path, text))

    def test_negative_span_rejected(self, tmp_path):
        text = "link:\n  span_length: -5\n" + MINIMAL
        with pytest.raises(ConfigError):
            validate_config(_write(tmp_path, text))

    def test_unknown_key_rejected(self, tmp_path):
        text = MINIMAL + "\nbogus_key: 1\n"
        with pytest.raises(ConfigError):
            validate_config(_write(tmp_path, text))

    def test_unknown_link_key_rejected(self, tmp_path):
        text = "link:\n  fiber_color: blue\n" + MINIMAL
        with pytest.raises(ConfigError):
            validate_config(_write(tmp_path, text))

    def test_empty_sweep_rejected(self, tmp_path):
        text = MINIMAL.replace("[1]", "[]")
        with pytest.raises(ConfigError):
            validate_config(_write(tmp_path, text))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            validate_config(tmp_path / "nope.yaml")

    def test_yaml_error_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line"):
            validate_config(_write(tmp_path, "sweep: [\n  bad"))

    def test_readme_example_validates(self, tmp_path):
        # the config block the README documents, read from the README itself
        block = README.read_text().split("```yaml\n", 1)[1].split("```")[0]
        cfg = validate_config(_write(tmp_path, block))
        assert cfg.pipeline.target_rate == 60e9
        assert cfg.pipeline.filter_bw == 15e9
        assert cfg.capture_rate == 40e9
        assert cli.main(["validate", "--config", _write(tmp_path, block)]) == 0

    @pytest.mark.parametrize("text, name", [
        ("link:\n  # span_length: 78.0\n  # n_modes: 2\n", "link"),
        ("pipeline: null\n", "pipeline"),
        ("", "config"),
    ], ids=["link-commented-out", "pipeline-null", "top-level"])
    def test_omitted_keys_take_logged_defaults(self, tmp_path, caplog, text,
                                               name):
        cfg = _write(tmp_path, text + MINIMAL)
        with caplog.at_level(logging.INFO, logger="wgnlink.config"):
            assert validate_config(cfg) == validate_config(
                _write(tmp_path, MINIMAL, "minimal.yaml"))
        assert f"{name}: using defaults for [" in caplog.text
        assert cli.main(["validate", "--config", cfg]) == 0

    def test_sweep_point_link_override(self):
        cfg = ExperimentConfig(sweep_axis="launch_power_dbm",
                               sweep_values=(-3.0, 0.0), seeds=(1,))
        link, n_rec = cfg.link_for(-3.0)
        assert link.launch_power_dbm == -3.0
        assert n_rec == cfg.base_recirculations


class TestCliVerbs:
    def test_validate_ok(self, tmp_path, capsys):
        rc = cli.main(["validate", "--config", _write(tmp_path, MINIMAL)])
        assert rc == 0
        assert "config OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path):
        rc = cli.main(["validate", "--config",
                       _write(tmp_path, "not: a\nvalid: config")])
        assert rc == 1

    def test_bad_block_size_is_exit_1(self, tmp_path):
        text = "pipeline:\n  block_size: 4000\n" + MINIMAL
        with pytest.raises(ConfigError, match="block_size"):
            validate_config(_write(tmp_path, text))
        cfg = _write(tmp_path, text)
        assert cli.main(["validate", "--config", cfg]) == 1
        assert cli.main(["simulate", "--config", cfg, "--out",
                         str(tmp_path / "o"), "--no-plots"]) == 1

    @pytest.mark.parametrize("key, value", [
        ("lms_step", 0.0), ("phase_window", 0), ("filter_order", 0),
        ("filter_bw", 0.0), ("filter_bw", -15.0e9), ("target_rate", 0.0)])
    def test_bad_pipeline_value_is_exit_1(self, tmp_path, key, value):
        text = f"pipeline:\n  {key}: {value}\n" + MINIMAL
        cfg = _write(tmp_path, text)
        with pytest.raises(ConfigError, match=key):
            validate_config(cfg)
        assert cli.main(["validate", "--config", cfg]) == 1
        assert cli.main(["simulate", "--config", cfg, "--out",
                         str(tmp_path / "o"), "--no-plots"]) == 1

    @pytest.mark.parametrize("section, key, value", [
        ("pipeline", "align_max_lag", "0"),
        ("pipeline", "align_max_lag", "-5"),
        ("link", "lo_linewidth", "-1"),
        ("link", "center_wavelength", "0"),
        ("pipeline", "phase_window", "2.5"),
        ("pipeline", "oversampling", "1.5"),
        ("link", "n_modes", "2.0"),
        ("link", "n_sections", "true"),
        ("link", "launch_power_dbm", "true"),
        ("link", "lo_linewidth", "'1.0e5'"),
        ("link", "span_length", "abc"),
        ("pipeline", "target_rate", "'60e9'"),
        ("pipeline", "filter_bw", "'15e9'"),
        # a negative eta cancels the span noise; no sections carry no DGD
        pytest.param("link", "nlin_coeff", "-1.0\n  launch_power_dbm: 3.0",
                     id="link-nlin_coeff-negative"),
        pytest.param("link", "n_sections", "0\n  mdl_per_span: 0.5",
                     id="link-n_sections-0-coupled"),
        ("link", "dgd_per_span", "-1.0e-11"),
        ("link", "frequency_offset", "25.0e9"),
        ("link", "frequency_offset", "-20.0e9"),
        # a float field must be finite; span_snr_db may only be +inf
        ("link", "span_snr_db", ".nan"),
        ("link", "span_snr_db", "-.inf"),
        ("link", "launch_power_dbm", ".inf"),
        ("link", "lo_linewidth", ".nan"),
        ("link", "dispersion_coeff", ".nan"),
        ("link", "span_length", ".inf"),
        ("link", "frequency_offset", ".nan"),
        ("pipeline", "align_threshold", ".nan"),
        ("pipeline", "filter_bw", ".inf"),
        ("pipeline", "lms_step", ".nan"),
        # finite, but the power in mW underflows to 0 or overflows
        ("link", "launch_power_dbm", "-4000"),
        ("link", "launch_power_dbm", "4000"),
    ])
    def test_bad_section_value_is_exit_1(self, tmp_path, section, key,
                                         value):
        cfg = _write(tmp_path, f"{section}:\n  {key}: {value}\n" + MINIMAL)
        with pytest.raises(ConfigError, match=key):
            validate_config(cfg)
        assert cli.main(["validate", "--config", cfg]) == 1
        for verb in ("simulate", "reference-16qam"):
            assert cli.main([verb, "--config", cfg, "--out",
                             str(tmp_path / "o"), "--no-plots"]) == 1

    def test_noiseless_span_snr_is_valid(self, tmp_path):
        cfg = _write(tmp_path, "link:\n  span_snr_db: .inf\n" + MINIMAL)
        assert validate_config(cfg).link.span_snr_db == float("inf")
        assert cli.main(["validate", "--config", cfg]) == 0

    @pytest.mark.parametrize("sweep, key", [
        ("recirculations: [1.5]", "sweep.recirculations"),
        ("recirculations: [0]", "sweep.recirculations"),
        ("recirculations: [a]", "sweep.recirculations"),
        ("recirculations: [true]", "sweep.recirculations"),
        ("launch_power_dbm: [0, .nan]", "sweep.launch_power_dbm"),
        ("snr_db: [.inf]", "sweep.snr_db"),
        ("launch_power_dbm: [false]", "sweep.launch_power_dbm"),
        ("snr_db: ['20']", "sweep.snr_db"),
        # two values the CSV and the file names print alike
        ("launch_power_dbm: [0.12345678901, 0.12345678902]",
         "sweep.launch_power_dbm"),
    ], ids=["fractional", "zero", "text", "bool", "nan", "inf",
            "bool-power", "quoted-number", "alike-at-10-digits"])
    def test_bad_sweep_value_is_exit_1(self, tmp_path, sweep, key):
        text = f"sweep:\n  {sweep}\nseeds: [3]\n"
        cfg = _write(tmp_path, text)
        with pytest.raises(ConfigError, match=key):
            validate_config(cfg)
        assert cli.main(["validate", "--config", cfg]) == 1
        assert cli.main(["simulate", "--config", cfg, "--out",
                         str(tmp_path / "o"), "--no-plots"]) == 1

    @pytest.mark.parametrize("value", ["1.5", "0", "true", "five"])
    def test_bad_base_recirculations_is_exit_1(self, tmp_path, value):
        text = ("sweep:\n  launch_power_dbm: [0]\nseeds: [3]\n"
                f"base_recirculations: {value}\n")
        cfg = _write(tmp_path, text)
        with pytest.raises(ConfigError, match="base_recirculations"):
            validate_config(cfg)
        assert cli.main(["validate", "--config", cfg]) == 1

    @pytest.mark.parametrize("line, key", [
        ("mean_power: 1.0", "mean_power"),
        ("link: 5", "link must be a mapping"),
        ("link: [1, 2]", "link must be a mapping"),
        ("pipeline: [1]", "pipeline must be a mapping"),
        ("outputs: 5", "outputs"),
        ("emit_plots: 'no'", "emit_plots"),
        ("capture_rate: 0", "capture_rate"),
        ("capture_rate: .nan", "capture_rate"),
        ("capture_rate: .inf", "capture_rate"),
        ("n_rings: 0", "n_rings"),
        ("mi_max_symbols: 0", "mi_max_symbols"),
        ("n_samples: 4000.5", "n_samples"),
        ("seeds: [1.5]", "seeds"),
        ("seeds: [true]", "seeds"),
        ("seeds: ['3']", "seeds"),
        ("seeds: [-1]", "seeds"),
        ("seeds: [1, 1]", "seeds"),
        ("sweep: {launch_power_dbm: [0, 0.0]}", "sweep.launch_power_dbm"),
        ("sweep: {recirculations: [2, 1, 2]}", "sweep.recirculations"),
    ], ids=["removed-mean-power", "scalar-link", "list-link",
            "list-pipeline", "number-outputs", "string-emit-plots",
            "zero-rate", "nan-rate", "inf-rate", "zero-rings",
            "zero-mi-symbols", "fractional-samples", "fractional-seed",
            "bool-seed", "text-seed", "negative-seed", "repeated-seed",
            "repeated-power", "repeated-loops"])
    def test_bad_top_level_value_is_exit_1(self, tmp_path, line, key):
        lines = {"sweep": "sweep: {recirculations: [1]}",
                 "seeds": "seeds: [3]", "n_samples": "n_samples: 4000"}
        lines[line.split(":")[0]] = line
        cfg = _write(tmp_path, "\n".join(lines.values()) + "\n")
        with pytest.raises(ConfigError, match=key):
            validate_config(cfg)
        assert cli.main(["validate", "--config", cfg]) == 1
        assert cli.main(["simulate", "--config", cfg, "--out",
                         str(tmp_path / "o"), "--no-plots"]) == 1

    @pytest.mark.parametrize("verb", ["simulate", "reference-16qam"])
    @pytest.mark.parametrize("flag", [["--jobs", "0"], ["--jobs", "-4"],
                                      ["--seeds", "1,1"]],
                             ids=["jobs-0", "jobs-negative", "seeds-repeated"])
    def test_bad_run_flag_is_exit_1(self, tmp_path, verb, flag):
        out = tmp_path / "o"
        assert cli.main([verb, "--config", _write(tmp_path, MINIMAL),
                         "--out", str(out), "--no-plots", *flag]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["simulate", "reference-16qam",
                                      "characterize"])
    def test_out_naming_a_file_is_exit_1(self, tmp_path, caplog, verb):
        taken = tmp_path / "taken"
        taken.write_text("")
        fi = tmp_path / "in.bin"
        with open(fi, "wb") as f:
            write_signal(f, generate_wgn_mimo(2, 40_000, 60e9, 1.0, seed=5))
        args = (["--input", str(fi), "--output", str(fi)]
                if verb == "characterize"
                else ["--config", _write(tmp_path, MINIMAL)])
        with caplog.at_level(logging.ERROR):
            rc = cli.main([verb, *args, "--out", str(taken), "--no-plots"])
        assert rc == 1
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert len(errors) == 1 and str(taken) in errors[0]
        assert taken.read_text() == ""

    def test_reference_16qam_rate_without_a_capture_is_exit_1(
            self, tmp_path, monkeypatch, caplog):
        # 60 GS/s over 40 GS/s plus half a hertz leaves no 16QAM capture
        # that converts exactly; the WGN sweep runs at that rate, so the
        # config validates
        ran = []
        monkeypatch.setattr(runner, "_run_task", lambda *a: ran.append(a))
        cfg = _write(tmp_path, MINIMAL + "capture_rate: 40000000000.5\n")
        assert cli.main(["validate", "--config", cfg]) == 0
        out = tmp_path / "o"
        with caplog.at_level(logging.ERROR):
            rc = cli.main(["reference-16qam", "--config", cfg, "--out",
                           str(out), "--no-plots"])
        assert rc == 1
        assert ran == [] and not (out / "manifest_qam16.json").exists()
        errors = [r.getMessage() for r in caplog.records
                  if r.levelno >= logging.ERROR]
        assert len(errors) == 1
        assert "capture_rate 40000000000.5 Hz" in errors[0]

    def test_missing_config_is_exit_1(self, tmp_path):
        rc = cli.main(["simulate", "--config", str(tmp_path / "missing.yaml")])
        assert rc == 1

    def test_simulate_tiny_sweep(self, tmp_path):
        out = tmp_path / "results"
        rc = cli.main(["simulate", "--config", _write(tmp_path, MINIMAL),
                       "--out", str(out)])
        assert rc == 0
        assert (out / "mi_results.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "mdl_1.csv").exists()
        assert (out / "impulse_1.csv").exists()
        assert list(out.glob("*.svg"))

    def test_no_plots_flag(self, tmp_path):
        out = tmp_path / "results"
        rc = cli.main(["simulate", "--config", _write(tmp_path, MINIMAL),
                       "--out", str(out), "--no-plots"])
        assert rc == 0
        assert not list(out.glob("*.svg"))

    def test_seeds_override(self, tmp_path):
        out = tmp_path / "results"
        rc = cli.main(["simulate", "--config", _write(tmp_path, MINIMAL),
                       "--out", str(out), "--seeds", "7,8", "--no-plots"])
        assert rc == 0
        rows = (out / "mi_results.csv").read_text().strip().splitlines()[1:]
        seeds = {r.split(",")[5] for r in rows}
        assert seeds == {"7", "8"}

    def test_bad_seeds_exit_1(self, tmp_path):
        rc = cli.main(["simulate", "--config", _write(tmp_path, MINIMAL),
                       "--seeds", "a,b"])
        assert rc == 1

    def test_characterize_from_captures(self, tmp_path):
        sig = generate_wgn_mimo(2, 120_000, 40e9, 1.0, seed=5)
        from wgnlink.channel import run_link
        out_sig = run_link(sig, LinkConfig(span_snr_db=30.0), 1, seed=6)
        fi, fo = tmp_path / "in.bin", tmp_path / "out.bin"
        with open(fi, "wb") as f:
            write_signal(f, sig)
        with open(fo, "wb") as f:
            write_signal(f, out_sig)
        out = tmp_path / "char"
        rc = cli.main(["characterize", "--input", str(fi), "--output",
                       str(fo), "--out", str(out)])
        assert rc == 0
        assert (out / "mdl_capture.csv").exists()
        assert (out / "impulse_capture.csv").exists()

    def test_characterize_needs_no_sweep(self, tmp_path):
        # the verb reads only the config's pipeline section
        fi = tmp_path / "in.bin"
        with open(fi, "wb") as f:
            write_signal(f, generate_wgn_mimo(2, 40_000, 60e9, 1.0, seed=5))
        out = tmp_path / "char"
        rc = cli.main(["characterize", "--input", str(fi), "--output",
                       str(fi), "--out", str(out), "--no-plots", "--config",
                       _write(tmp_path, "pipeline: {filter_bw: null}\n")])
        assert rc == 0
        assert (out / "mdl_capture.csv").exists()

    def test_characterize_unreadable_capture_exit_2(self, tmp_path):
        bad = tmp_path / "junk.bin"
        bad.write_bytes(b"\x00" * 100)
        rc = cli.main(["characterize", "--input", str(bad), "--output",
                       str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("n_samples", [2 ** 40, 2 ** 61])
    def test_characterize_oversized_header_exit_2(self, tmp_path, caplog,
                                                  n_samples):
        # magic, version and mode count take the header's first 12 bytes
        fi = tmp_path / "big.bin"
        with open(fi, "wb") as f:
            write_signal(f, generate_wgn_mimo(2, 100, 40e9, 1.0, seed=7))
        data = bytearray(fi.read_bytes())
        data[12:20] = n_samples.to_bytes(8, "little")
        fi.write_bytes(bytes(data))
        with caplog.at_level(logging.ERROR, logger="wgnlink.cli"):
            rc = cli.main(["characterize", "--input", str(fi), "--output",
                           str(fi), "--out", str(tmp_path / "char")])
        assert rc == 2
        assert "cannot read captures: truncated signal payload" in caplog.text

    def test_characterize_sample_beyond_complex64_exit_2(self, tmp_path,
                                                         caplog):
        # finite in the file's float64, not as the complex64 it loads as
        data = generate_wgn_mimo(2, 40_000, 60e9, 1.0, seed=7).data.copy()
        data[0, 123] = 1e39
        fi = tmp_path / "huge.bin"
        with open(fi, "wb") as f:
            write_signal(f, MimoSignal(data, 60e9))
        with caplog.at_level(logging.ERROR, logger="wgnlink.cli"):
            rc = cli.main(["characterize", "--input", str(fi), "--output",
                           str(fi), "--out", str(tmp_path / "char")])
        assert rc == 2
        assert ("cannot read captures: samples beyond complex64 range"
                in caplog.text)

    def test_characterize_mode_count_mismatch_exit_2(self, tmp_path):
        fi, fo = tmp_path / "in.bin", tmp_path / "out.bin"
        with open(fi, "wb") as f:
            write_signal(f, generate_wgn_mimo(2, 120_000, 40e9, 1.0, seed=7))
        with open(fo, "wb") as f:
            write_signal(f, generate_wgn_mimo(4, 120_000, 40e9, 1.0, seed=7))
        rc = cli.main(["characterize", "--input", str(fi), "--output",
                       str(fo), "--out", str(tmp_path / "char")])
        assert rc == 2

    def test_characterize_one_sample_capture_exit_2(self, tmp_path, caplog):
        # at the 60 GS/s processing rate the front end keeps one sample
        fi = tmp_path / "one.bin"
        with open(fi, "wb") as f:
            write_signal(f, generate_wgn_mimo(2, 1, 60e9, 1.0, seed=7))
        with caplog.at_level(logging.ERROR, logger="wgnlink.cli"):
            rc = cli.main(["characterize", "--input", str(fi), "--output",
                           str(fi), "--out", str(tmp_path / "char")])
        assert rc == 2
        assert "a capture of 1 samples is too short to align" in caplog.text

    def test_characterize_zero_power_capture_exit_2(self, tmp_path, caplog):
        # a received capture of zeros fails the alignment, which names why,
        # instead of a singular channel solve
        fi, fo = tmp_path / "in.bin", tmp_path / "zeros.bin"
        sig = generate_wgn_mimo(2, 40_000, 60e9, 1.0, seed=7)
        with open(fi, "wb") as f:
            write_signal(f, sig)
        with open(fo, "wb") as f:
            write_signal(f, MimoSignal(np.zeros_like(sig.data), 60e9))
        cfg = _write(tmp_path, "pipeline: {filter_bw: null}\n")
        with caplog.at_level(logging.ERROR, logger="wgnlink.cli"):
            rc = cli.main(["characterize", "--input", str(fi), "--output",
                           str(fo), "--out", str(tmp_path / "char"),
                           "--config", cfg])
        assert rc == 2
        assert ("characterization failed: alignment: correlation peak ratio "
                "0.00" in caplog.text)
        assert "hold no power" in caplog.text
        assert "Singular" not in caplog.text

    def test_characterize_zero_power_transmitted_capture_exit_2(
            self, tmp_path, caplog):
        # with the alignment's threshold at 0 a transmitted capture of
        # zeros reaches the channel solve, which names it
        fi, fo = tmp_path / "zeros.bin", tmp_path / "out.bin"
        sig = generate_wgn_mimo(2, 40_000, 60e9, 1.0, seed=7)
        with open(fi, "wb") as f:
            write_signal(f, MimoSignal(np.zeros_like(sig.data), 60e9))
        with open(fo, "wb") as f:
            write_signal(f, sig)
        cfg = _write(tmp_path, "pipeline: {filter_bw: null, "
                               "align_threshold: 0.0}\n")
        with caplog.at_level(logging.ERROR, logger="wgnlink.cli"):
            rc = cli.main(["characterize", "--input", str(fi), "--output",
                           str(fo), "--out", str(tmp_path / "char"),
                           "--config", cfg])
        assert rc == 2
        assert ("characterization failed: the transmitted capture has no "
                "power" in caplog.text)
        assert "Singular" not in caplog.text

    def test_jobs_capped_at_the_point_count(self, tmp_path, monkeypatch):
        # a fake pool records its size and its workers' initializer and
        # runs each point in this process: no worker starts, whatever
        # --jobs asks for, and each would count itself one of the pool's
        # size sharing the CPUs
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append((max_workers, initializer, initargs))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
        point = {"rows": [], "alignment": AlignmentResult(0, 0.0, 1.0)}
        monkeypatch.setattr(runner, "_wgn_point",
                            lambda cfg, value, seed, characterize: point)
        text = "sweep:\n  recirculations: [1, 2]\nseeds: [3]\n"
        rc = cli.main(["simulate", "--config", _write(tmp_path, text),
                       "--out", str(tmp_path / "o"), "--no-plots",
                       "--jobs", str(10 ** 6)])
        assert rc == 0
        assert sizes == [(2, pipeline._share_cpus, (2,))]

    @FORK_ONLY
    def test_pool_workers_share_the_cpus(self, tmp_path, monkeypatch):
        # each worker of a pool of two counts itself one of two sharing
        # the CPUs; each point reports what its equalizer would read, and
        # this process still counts itself alone
        def probe(cfg, value, seed, characterize):
            raise RuntimeError(f"workers {pipeline._WORKERS}")

        monkeypatch.setattr(runner, "_wgn_point", probe)
        out = tmp_path / "results"
        rc = cli.main(["simulate", "--config", _write(tmp_path, TINY_SWEEP),
                       "--out", str(out), "--no-plots", "--jobs", "2"])
        assert rc == 2
        errors = json.loads((out / "manifest.json").read_text())["errors"]
        assert len(errors) == 4
        assert {e["error"] for e in errors} == {"workers 2"}
        assert pipeline._WORKERS == 1

    def test_runtime_failure_exit_2(self, tmp_path):
        # impossible span SNR makes the pipeline alignment fail
        text = MINIMAL + "link:\n  span_snr_db: -60.0\n"
        out = tmp_path / "results"
        rc = cli.main(["simulate", "--config", _write(tmp_path, text),
                       "--out", str(out), "--no-plots"])
        assert rc == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["errors"]

    @pytest.mark.parametrize("mdl", ["0.0", "0.5"], ids=["one-draw", "mdl"])
    def test_link_noise_overflow_in_manifest(self, tmp_path, mdl):
        # the link's float64 overflow is named in the point's error
        text = (f"link:\n  launch_power_dbm: 100\n  mdl_per_span: {mdl}\n"
                "sweep:\n  recirculations: [20]\nseeds: [3]\n"
                "n_samples: 40000\n")
        out = tmp_path / "results"
        rc = cli.main(["simulate", "--config", _write(tmp_path, text),
                       "--out", str(out), "--no-plots"])
        assert rc == 2
        errors = json.loads((out / "manifest.json").read_text())["errors"]
        assert [e["error"] for e in errors] == [
            "link noise overflows: launch_power_dbm 100, nlin_coeff 0.00315, "
            "20 loops"]

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=FORK_ONLY)])
    def test_failed_point_keeps_finished_points(self, tmp_path, monkeypatch,
                                                jobs):
        point = runner._wgn_point

        def failing(cfg, value, seed, characterize):
            if value == 2:
                raise MemoryError()
            return point(cfg, value, seed, characterize)

        monkeypatch.setattr(runner, "_wgn_point", failing)
        out = tmp_path / "results"
        rc = cli.main(["simulate", "--config", _write(tmp_path, TINY_SWEEP),
                       "--out", str(out), "--no-plots", "--jobs", str(jobs)])
        assert rc == 2
        rows = (out / "mi_results.csv").read_text().strip().splitlines()[1:]
        # sweep value 1 x 2 seeds x 2 tributaries
        assert len(rows) == 4
        assert {r.split(",")[2] for r in rows} == {"1"}
        assert (out / "mdl_1.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(e["sweep_value"], e["seed"], e["error"])
                for e in manifest["errors"]] == [(2, 3, "MemoryError"),
                                                 (2, 4, "MemoryError")]

    @FORK_ONLY
    def test_killed_worker_loses_and_duplicates_no_point(self, tmp_path,
                                                         monkeypatch):
        # a worker that dies breaks the pool of two: every point is
        # recorded once, finished or failed, and the CSV holds exactly the
        # finished ones
        point = runner._wgn_point

        def dying(cfg, value, seed, characterize):
            if (value, seed) == (2, 3):
                os._exit(1)
            return point(cfg, value, seed, characterize)

        monkeypatch.setattr(runner, "_wgn_point", dying)
        text = COUPLED_SWEEP.replace("[1, 2]", "[1, 2, 3]")
        out = tmp_path / "results"
        rc = cli.main(["simulate", "--config", _write(tmp_path, text),
                       "--out", str(out), "--no-plots", "--jobs", "2"])
        assert rc == 2
        manifest = json.loads((out / "manifest.json").read_text())
        aligned = [(e["sweep_value"], e["seed"])
                   for e in manifest["alignment"]]
        failed = [(e["sweep_value"], e["seed"]) for e in manifest["errors"]]
        assert sorted(aligned + failed) == [(v, s) for v in (1, 2, 3)
                                            for s in (3, 4)]
        assert (2, 3) in failed
        rows = [r.split(",") for r in (out / "mi_results.csv").read_text()
                .strip().splitlines()[1:]]
        # 2 tributaries per finished point
        assert sorted((int(r[2]), int(r[5]), int(r[6])) for r in rows) == [
            (v, s, t) for v, s in sorted(aligned) for t in (0, 1)]

    def test_out_of_range_launch_power_fails_its_point(self, tmp_path):
        # a sweep value whose power in mW underflows to 0 fails its point
        # with the key named; the other point is written
        text = ("sweep:\n  launch_power_dbm: [0, -4000]\nseeds: [3]\n"
                "n_samples: 40000\n")
        out = tmp_path / "results"
        rc = cli.main(["simulate", "--config", _write(tmp_path, text),
                       "--out", str(out), "--no-plots"])
        assert rc == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(e["sweep_value"], e["seed"])
                for e in manifest["alignment"]] == [(0, 3)]
        [error] = manifest["errors"]
        assert (error["sweep_value"], error["seed"]) == (-4000, 3)
        assert "launch_power_dbm" in error["error"]


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(wgnlink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, wgnlink.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


class TestOutputContracts:
    def test_deterministic_csv_bytes(self, tmp_path):
        cfg_path = _write(tmp_path, TINY_SWEEP)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["simulate", "--config", cfg_path,
                           "--out", str(out), "--no-plots"])
            assert rc == 0
            outs.append((out / "mi_results.csv").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("verb, suffix", [("simulate", ""),
                                              ("reference-16qam", "_qam16")],
                             ids=["simulate", "reference-16qam"])
    def test_manifest_records_versions(self, tmp_path, monkeypatch, verb,
                                       suffix):
        cfg_path = _write(tmp_path, MINIMAL)
        outs = []
        for version in (wgnlink.__version__, "0.0.0+other"):
            monkeypatch.setattr(runner, "__version__", version)
            out = tmp_path / version
            assert cli.main([verb, "--config", cfg_path, "--out", str(out),
                             "--no-plots"]) == 0
            manifest = json.loads(
                (out / f"manifest{suffix}.json").read_text())
            assert manifest["versions"] == {
                "python": sys.version.split()[0], "numpy": np.__version__,
                "wgnlink": version}
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out.glob("*.csv"))})
        # the versions reach the manifest only
        assert outs[0] and outs[0] == outs[1]

    @FORK_ONLY
    def test_jobs_do_not_change_csv_bytes(self, tmp_path):
        cfg_path = _write(tmp_path, COUPLED_SWEEP)
        outs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            rc = cli.main(["simulate", "--config", cfg_path, "--out",
                           str(out), "--no-plots", "--jobs", str(jobs)])
            assert rc == 0
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out.glob("*.csv"))})
        assert sorted(outs[0]) == ["impulse_1.csv", "impulse_2.csv",
                                   "mdl_1.csv", "mdl_2.csv",
                                   "mi_results.csv"]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("verb, suffix", [("simulate", ""),
                                              ("reference-16qam", "_qam16")],
                             ids=["simulate", "reference-16qam"])
    def test_manifest_records_each_alignment(self, tmp_path, verb, suffix):
        # one entry per point, sorted as the errors are; --jobs 2 writes
        # the same entries as --jobs 1, and no CSV byte changes with them
        cfg_path = _write(tmp_path, COUPLED_SWEEP)
        entries, outs = [], []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert cli.main([verb, "--config", cfg_path, "--out", str(out),
                             "--no-plots", "--jobs", str(jobs)]) == 0
            manifest = json.loads(
                (out / f"manifest{suffix}.json").read_text())
            entries.append(manifest["alignment"])
            outs.append({p.name: p.read_bytes()
                         for p in sorted(out.glob("*.csv"))})
        assert entries[0] == entries[1]
        assert outs[0] == outs[1]
        assert [(e["sweep_value"], e["seed"]) for e in entries[0]] == [
            (1, 3), (1, 4), (2, 3), (2, 4)]
        assert all(sorted(e) == ["lag", "peak_ratio", "seed", "sweep_value"]
                   and isinstance(e["lag"], int) and abs(e["lag"]) <= 2
                   and e["peak_ratio"] > 10 for e in entries[0])

    def test_manifest_sorts_points_by_number(self, tmp_path, monkeypatch):
        # sweep value 2 before 10, as the CSV rows, in both lists
        point = runner._wgn_point

        def failing(cfg, value, seed, characterize):
            if seed == 4:
                raise MemoryError()
            return point(cfg, value, seed, characterize)

        monkeypatch.setattr(runner, "_wgn_point", failing)
        text = COUPLED_SWEEP.replace("[1, 2]", "[10, 2]")
        out = tmp_path / "results"
        assert cli.main(["simulate", "--config", _write(tmp_path, text),
                         "--out", str(out), "--no-plots"]) == 2
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(e["sweep_value"], e["seed"])
                for e in manifest["alignment"]] == [(2, 3), (10, 3)]
        assert [(e["sweep_value"], e["seed"])
                for e in manifest["errors"]] == [(2, 4), (10, 4)]
        rows = (out / "mi_results.csv").read_text().strip().splitlines()[1:]
        assert [r.split(",")[2] for r in rows] == ["2", "2", "10", "10"]

    def test_characterized_point_keeps_its_rows(self, tmp_path):
        cfg = validate_config(_write(tmp_path, COUPLED_SWEEP))
        plain = runner._wgn_point(cfg, 2, 3, False)
        char = runner._wgn_point(cfg, 2, 3, True)
        assert char["rows"] == plain["rows"]
        assert "characterization" in char
        assert "characterization" not in plain

    def test_coupled_point_carries_nothing_between_points(self, tmp_path):
        # a 20-loop coupled point run first, after a 1-loop point and after
        # a 6-mode link, in one process: the same rows and characterization
        # each time, so no grid, model or buffer carries over
        text = COUPLED_SWEEP.replace("[1, 2]", "[1, 20]")
        cfg = validate_config(_write(tmp_path, text))
        wide = validate_config(_write(
            tmp_path, text.replace("link:\n", "link:\n  n_modes: 6\n"),
            name="wide.yaml"))
        assert wide.link.n_modes == 6

        def point():
            out = runner._wgn_point(cfg, 20, 3, True)
            mdl, impulse = out["characterization"]
            return out["rows"], (mdl.mdl_db, mdl.singular_values,
                                 impulse.taps, impulse.dynamic_range_db)

        first = point()
        runner._wgn_point(cfg, 1, 3, False)
        second = point()
        runner._wgn_point(wide, 20, 3, False)
        third = point()
        for rows, char in (second, third):
            assert rows == first[0]
            for got, want in zip(char, first[1]):
                assert np.array_equal(got, want)

    def test_wgn_rows_sit_on_the_shannon_curve(self, tmp_path):
        # the Gaussian MI is log2(1 + SNR) of the row's own measured SNR
        cfg = validate_config(_write(tmp_path, COUPLED_SWEEP))
        rows = runner._wgn_point(cfg, 2, 3, False)["rows"]
        assert len(rows) == 2
        for r in rows:
            assert 0 < r["bits_per_symbol"] < np.log2(64 * cfg.n_rings)
            assert r["bits_per_symbol"] == pytest.approx(
                np.log2(1 + 10 ** (r["snr_db"] / 10)), rel=0, abs=1e-10)

    def test_close_sweep_values_get_their_own_files(self, tmp_path):
        # values %g prints alike are told apart as the CSV prints them
        text = COUPLED_SWEEP.replace("recirculations: [1, 2]",
                                     "launch_power_dbm: [0.1234561, "
                                     "0.1234562]")
        out = tmp_path / "results"
        assert cli.main(["simulate", "--config", _write(tmp_path, text),
                         "--out", str(out), "--no-plots"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["files"] == [
            f"{kind}_0p123456{d}.csv" for kind in ("impulse", "mdl")
            for d in "12"] + ["mi_results.csv"]
        assert sorted(p.name for p in out.glob("*.csv")) == manifest["files"]
        # the names of the benchmark sweeps' files are unchanged
        assert [runner._tag(v) for v in (1, 20, -2, 0, 2, -2.5)] == [
            "1", "20", "m2", "0", "2", "m2p5"]

    def test_each_sweep_axis_gets_its_mi_plot(self, tmp_path):
        # simulate over distance and reference-16qam over launch power,
        # written to one directory as the README's two verbs may be
        def rows(signal, axis, values):
            return [{"signal": signal, "sweep_axis": axis, "sweep_value": v,
                     "distance_km": 78.0 * (
                         v if axis == "recirculations" else 5),
                     "launch_power_dbm": (
                         float(v) if axis == "launch_power_dbm" else 0.0),
                     "seed": 1, "tributary": 0,
                     "bits_per_symbol": 3.0 + 0.25 * i,
                     "assumed_baud": 30e9, "snr_db": 12.0 + i}
                    for i, v in enumerate(values)]

        both, alone = tmp_path / "both", tmp_path / "alone"
        for d in (both, alone):
            d.mkdir()
            runner._write_mi_csv(d / "mi_results.csv",
                                 rows("wgn", "recirculations", [1, 2]))
        runner._write_mi_csv(both / "mi_results_qam16.csv",
                             rows("qam16", "launch_power_dbm", [-2, 0, 2]))
        runner.write_plots(both)
        runner.write_plots(alone)
        assert sorted(p.name for p in both.glob("*.svg")) == [
            "mi_vs_distance.svg", "mi_vs_power.svg", "mi_vs_snr.svg"]
        # the 16QAM rows reach their own axis's plot only
        for name in ("mi_vs_distance.svg", "mi_vs_snr.svg"):
            assert (both / name).read_bytes() == (alone / name).read_bytes()
        power = (both / "mi_vs_power.svg").read_text()
        assert "QAM16" in power and "WGN" not in power

    def test_sweep_progress_is_logged(self, tmp_path, caplog):
        out = tmp_path / "results"
        cfg_path = _write(tmp_path, TINY_SWEEP)
        with caplog.at_level(logging.INFO, logger="wgnlink.runner"):
            rc = cli.main(["simulate", "--config", cfg_path, "--out",
                           str(out), "--no-plots"])
        assert rc == 0
        lines = [m for m in (r.getMessage() for r in caplog.records
                             if r.levelno == logging.INFO)
                 if "points done" in m]
        # 2 sweep values x 2 seeds, one line as each point's result is
        # collected
        assert [line.split(",")[:2] for line in lines] == [
            [f"sweep: {k} of 4 points done", f" {4 - k} left"]
            for k in range(1, 5)]
        assert all(float(line.split(", ")[2].split()[0]) >= 0
                   for line in lines)
        # the log only: the outputs do not carry progress or times
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest) == ["alignment", "config", "errors",
                                    "files", "kind", "versions"]

    def test_mi_clamp_is_logged(self, tmp_path, caplog):
        text = MINIMAL + "n_rings: 1\nlink:\n  span_snr_db: 30.0\n"
        out = tmp_path / "results"
        with caplog.at_level(logging.WARNING, logger="wgnlink.runner"):
            rc = cli.main(["simulate", "--config", _write(tmp_path, text),
                           "--out", str(out), "--no-plots"])
        assert rc == 0
        rows = (out / "mi_results.csv").read_text().strip().splitlines()[1:]
        assert {r.split(",")[7] for r in rows} == {"6"}
        clamped = [m for m in (r.getMessage() for r in caplog.records
                               if r.levelno == logging.WARNING)
                   if "clamp" in m]
        assert len(clamped) == 2
        assert "sweep value 1 seed 3 tributary 0" in clamped[0]
        assert "n_rings=1" in clamped[0]

    @pytest.mark.parametrize("verb, csv_name", [
        ("simulate", "mi_results.csv"),
        ("reference-16qam", "mi_results_qam16.csv")],
        ids=["simulate", "reference-16qam"])
    def test_rows_carry_provenance(self, tmp_path, verb, csv_name):
        out = tmp_path / "results"
        assert cli.main([verb, "--config", _write(tmp_path, TINY_SWEEP),
                         "--out", str(out), "--no-plots"]) == 0
        lines = (out / csv_name).read_text().strip().splitlines()
        assert lines[0].split(",") == runner.MI_COLUMNS
        # 2 sweep values x 2 seeds x 2 tributaries, each row its own
        rows = [line.split(",") for line in lines[1:]]
        assert sorted((r[2], r[5], r[6]) for r in rows) == [
            (v, s, t) for v in "12" for s in "34" for t in "01"]
        for r in rows:
            assert r[1] == "recirculations"
            assert float(r[3]) == 78.0 * int(r[2])  # distance_km
            assert float(r[8]) == 30e9              # assumed_baud

    def test_plots_are_pure_functions_of_csv(self, tmp_path):
        out = tmp_path / "results"
        cli.main(["simulate", "--config", _write(tmp_path, MINIMAL),
                  "--out", str(out)])
        svgs = sorted(out.glob("*.svg"))
        assert svgs
        before = {p.name: p.read_bytes() for p in svgs}
        for p in svgs:
            p.unlink()
        runner.write_plots(out)
        after = {p.name: p.read_bytes() for p in sorted(out.glob("*.svg"))}
        assert before == after

    def test_header_only_mdl_csv_is_plotted(self, tmp_path):
        # a received mode with no power leaves no valid MDL bin, so the
        # MDL CSV holds its header only; its plot is the empty frame
        mats = np.zeros((64, 2, 2), dtype=complex)
        mats[:, 0, 0] = 1.0
        names = runner._write_characterization(
            tmp_path, "1", *runner._characterize(MimoChannel(mats, 1e8),
                                                 None))
        assert (tmp_path / "mdl_1.csv").read_text().splitlines() == [
            "frequency_hz,mdl_db"]
        runner.write_plots(tmp_path)
        assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
            n.replace(".csv", ".svg") for n in sorted(names)]
        svg = (tmp_path / "mdl_1.svg").read_text()
        assert "Mode-dependent loss" in svg and "<polyline" not in svg

    def test_reference_16qam_outputs(self, tmp_path):
        out = tmp_path / "results"
        rc = cli.main(["reference-16qam", "--config",
                       _write(tmp_path, MINIMAL), "--out", str(out),
                       "--no-plots"])
        assert rc == 0
        lines = (out / "mi_results_qam16.csv").read_text().splitlines()
        assert lines[1].startswith("qam16,")
        mi = float(lines[1].split(",")[7])
        assert 0.0 < mi <= 4.0

    def test_quick_flag_caps_samples(self, tmp_path):
        text = MINIMAL.replace("n_samples: 120000", "n_samples: 3000000")
        cfg = validate_config(_write(tmp_path, text))
        assert cfg.n_samples == 3_000_000

        class Args:
            out = None
            seeds = None
            quick = True
            no_plots = True
            config = str(tmp_path / "cfg.yaml")

        loaded = cli._load(Args)
        assert loaded.n_samples == cli.QUICK_SAMPLES
        assert loaded.emit_plots is False
