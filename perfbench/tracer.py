"""In-memory span tracer for the wgnlink benchmark's traced run.

The library imports its functions by name (``from .channel import run_link``),
so a function is wrapped in every module that *calls* it; patching only the
defining module would record nothing.  Each wrapper records one span (name,
parent, start, end, process id) plus:

- FFT work: ``numpy.fft.fft`` / ``ifft`` are wrapped and each call and its
  point count are charged to the innermost open span.  ``scipy.signal.resample``
  runs on ``scipy.fft`` and is timed (as ``signals.resample``) but its FFTs are
  not counted.
- Memory: the ``tracemalloc`` peak above the level at span entry.

Spans stay in memory.  The launcher writes them out when the CLI call ends.
Forked pool workers inherit the wrappers; each worker returns the spans of
a task inside the task's result and the parent collects them, so a
``--jobs N`` sweep is traced with all its workers.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc

import numpy as np

SPANS_KEY = "_perfbench_spans"


class Span:
    __slots__ = ("sid", "parent", "name", "pid", "t0", "t1", "base", "peak",
                 "fft_calls", "fft_points", "attrs")

    def __init__(self, sid, parent, name, pid, base):
        self.sid, self.parent, self.name, self.pid = sid, parent, name, pid
        self.base = self.peak = base
        self.fft_calls = self.fft_points = 0
        self.attrs = {}
        self.t0 = self.t1 = 0.0

    def as_dict(self) -> dict:
        return {"id": self.sid, "parent": self.parent, "name": self.name,
                "pid": self.pid, "t0": self.t0, "t1": self.t1,
                "peak_alloc": self.peak - self.base,
                "fft_calls": self.fft_calls, "fft_points": self.fft_points,
                **self.attrs}


class Tracer:
    def __init__(self):
        self.root_pid = self.pid = os.getpid()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.worker_spans: list[dict] = []
        self.count = 0

    # -- span bookkeeping -------------------------------------------------
    def _own_process(self) -> None:
        if os.getpid() != self.pid:  # a forked worker starts a fresh record
            self.pid = os.getpid()
            self.spans, self.stack = [], []

    def open(self, name: str) -> Span:
        self._own_process()
        cur, peak = tracemalloc.get_traced_memory()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.peak = max(parent.peak, peak)
        tracemalloc.reset_peak()
        self.count += 1
        span = Span(f"{self.pid}:{self.count}",
                    parent.sid if parent else None, name, self.pid, cur)
        self.spans.append(span)
        self.stack.append(span)
        span.t0 = time.monotonic()
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.monotonic()
        span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        self.stack.pop()
        if self.stack:
            self.stack[-1].peak = max(self.stack[-1].peak, span.peak)
        tracemalloc.reset_peak()

    def all_spans(self) -> list[dict]:
        return [s.as_dict() for s in self.spans] + self.worker_spans

    # -- wrappers ---------------------------------------------------------
    def wrap(self, module, attr: str, name: str, post=None) -> None:
        """Replace ``module.attr`` by a wrapper that records span `name`.

        ``post(span, args, result)`` may attach counts to the span.  A name
        the module no longer has is skipped, so its metrics read zero.
        """
        fn = getattr(module, attr, None)
        if fn is None:
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if post is not None:
                post(span, args, result)
            return result

        setattr(module, attr, wrapper)

    def wrap_fft(self) -> None:
        for attr in ("fft", "ifft"):
            fn = getattr(np.fft, attr)

            @functools.wraps(fn)
            def counted(*args, _fn=fn, **kwargs):
                out = _fn(*args, **kwargs)
                if self.stack and os.getpid() == self.pid:
                    self.stack[-1].fft_calls += 1
                    self.stack[-1].fft_points += out.size
                return out

            setattr(np.fft, attr, counted)

    def wrap_task(self, runner) -> None:
        """Sweep tasks: the span root in a worker, spans returned with the
        task's result."""
        fn = getattr(runner, "_run_task", None)
        if fn is None:
            return

        @functools.wraps(fn)
        def task(*args, **kwargs):
            span = self.open("runner.task")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if os.getpid() != self.root_pid:
                out = dict(out)
                out[SPANS_KEY] = [s.as_dict() for s in self.spans]
                self.spans = []
            return out

        runner._run_task = task

    def wrap_pool(self, runner) -> None:
        """The parent's wait on the pool, and collection of worker spans."""
        if not hasattr(runner, "ProcessPoolExecutor"):
            return
        tracer = self

        class TracedPool(runner.ProcessPoolExecutor):
            def __enter__(self):
                self._span = tracer.open("runner.pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

            def submit(self, fn, /, *args, **kwargs):
                fut = super().submit(fn, *args, **kwargs)
                fut.add_done_callback(tracer._collect)
                return fut

        runner.ProcessPoolExecutor = TracedPool

    def _collect(self, fut) -> None:
        if fut.cancelled() or fut.exception() is not None:
            return
        self.worker_spans.extend(fut.result().get(SPANS_KEY, []))


# -- post hooks: counts read from arguments and results --------------------
def _loops(span, args, result):
    span.attrs["loops"] = int(args[2])


def _alignment(span, args, result):
    span.attrs["peak_ratio"] = float(result.peak_ratio)


def _equalizer(span, args, result):
    trace = list(getattr(result[1], "error_trace", []))
    span.attrs["blocks"] = len(trace)
    passes = max(int(getattr(args[2], "lms_passes", 1)), 1)
    last = np.asarray(trace[-(len(trace) // passes or 1):], dtype=float)
    if last.size:
        span.attrs["nmse_db"] = float(
            10 * np.log10(np.mean(10 ** (last / 10))))


def _mi_symbols(span, args, result):
    span.attrs["symbols"] = len(args[0])


def install(tracer: Tracer) -> None:
    """Wrap every traced name at the module that calls it."""
    from wgnlink import cli, estimation, pipeline, runner

    tracer.wrap_fft()
    tracer.wrap(cli, "validate_config", "config.validate")
    tracer.wrap(cli, "read_signal", "signals.read")
    for mod in (runner, pipeline, estimation):
        tracer.wrap(mod, "resample", "signals.resample")
    for mod in (pipeline, estimation):
        tracer.wrap(mod, "gaussian_filter", "signals.filter")
        tracer.wrap(mod, "align_by_crosscorrelation", "pipeline.align",
                    _alignment)
        tracer.wrap(mod, "fde_lms_equalize", "pipeline.equalize", _equalizer)
    tracer.wrap(runner, "generate_wgn_mimo", "signals.generate")
    tracer.wrap(runner, "generate_qam16_mimo", "signals.generate")
    tracer.wrap(runner, "run_link", "channel.link", _loops)
    tracer.wrap(runner, "run_pipeline", "pipeline.run")
    tracer.wrap(pipeline, "apply_edc", "pipeline.edc")
    tracer.wrap(pipeline, "phase_recovery", "pipeline.phase")
    tracer.wrap(runner, "estimate_mi", "metrics.mi", _mi_symbols)
    tracer.wrap(runner, "estimate_mi_discrete", "metrics.mi_discrete")
    tracer.wrap(runner, "estimate_snr", "metrics.snr")
    tracer.wrap(runner, "estimate_channel", "estimation.channel")
    tracer.wrap(runner, "mdl_from_channel", "estimation.mdl")
    tracer.wrap(runner, "impulse_response_from_channel", "estimation.impulse")
    tracer.wrap(runner, "write_plots", "runner.plots")
    tracer.wrap_task(runner)
    tracer.wrap_pool(runner)
