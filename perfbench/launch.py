"""Run one wgnlink CLI call in a fresh process and report its timings.

    python3 launch.py REPORT MODE T_LAUNCH [CLI ARGS...]

MODE is ``setup`` (import the CLI and validate the config named by
``--config``, then stop), ``plain`` (also run ``cli.main``) or ``trace``
(run ``cli.main`` with the span tracer installed).  T_LAUNCH is the parent's
``time.monotonic()`` just before it started this process; the clock is
system-wide, so setup time is measured from process start to verb start.
The report is a JSON file written to REPORT.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def _environment() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    report_path, mode, t_launch = sys.argv[1], sys.argv[2], float(sys.argv[3])
    argv = sys.argv[4:]
    from wgnlink import cli

    tracer = None
    if mode == "trace":
        import tracemalloc

        import tracer as tracing

        tracemalloc.start()
        tracer = tracing.Tracer()
        tracing.install(tracer)

    stamps = {}
    validate = cli.validate_config

    def timed_validate(*args, **kwargs):
        cfg = validate(*args, **kwargs)
        stamps["validated"] = time.monotonic()
        stamps["cpu_validated"] = _cpu_s()
        return cfg

    report = {"mode": mode, "wgnlink": os.path.abspath(cli.__file__)}
    if mode == "setup":
        timed_validate(argv[argv.index("--config") + 1])
        report["setup_s"] = stamps["validated"] - t_launch
        report["env"] = _environment()
    else:
        cli.validate_config = timed_validate
        if tracer is not None:
            root = tracer.open("runner.main")
        t_main = time.monotonic()
        try:
            rc = cli.main(argv)
        finally:
            t_end = time.monotonic()
            if tracer is not None:
                tracer.close(root)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        self_ = resource.getrusage(resource.RUSAGE_SELF)
        report.update(
            rc=rc, setup_s=stamps["validated"] - t_launch,
            main_s=t_end - t_main, verb_s=t_end - stamps["validated"],
            verb_cpu_s=_cpu_s() - stamps["cpu_validated"],
            peak_rss_mb=max(self_.ru_maxrss, kids.ru_maxrss) / 1024.0)
        if tracer is not None:
            report["spans"] = tracer.all_spans()
    with open(report_path, "w") as f:
        json.dump(report, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
