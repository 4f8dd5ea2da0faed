"""Self-test of the benchmark at toy size (about two minutes).

    python3 perfbench/selftest.py

From the repository root, runs every workload with tracing off once and on
twice, and checks that:

- every metric named in BENCHMARK.json is emitted with its unit, and no other;
- the end-to-end metrics are positive;
- the count metrics repeat exactly across the two traced runs;
- each layer metric is zero on the workloads ``predictions.json`` says bypass
  its layer and non-zero on the workloads it names;
- the layer self times add up to ``trace.busy_s``, the traced span total.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PRED = json.loads((HERE / "predictions.json").read_text())
COUNTS = ("_calls", ".loops", "_blocks", "_mpoints", "_ksymbols")
# inclusive or derived times, not part of the self-time partition
NOT_SELF = {"estimation.channel_s", "trace.wall_s", "trace.overhead_s",
            "trace.busy_s"}


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_units(result: dict, specs: list, where: str) -> list[str]:
    want = {m["name"]: m["unit"] for m in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return [f"{where}: metrics {sorted(set(want) ^ set(got))} mismatch"] \
        if set(want) != set(got) else \
        [f"{where}: {k} unit {got[k]} != {u}" for k, u in want.items()
         if got[k] != u]


def main() -> int:
    problems = []
    for w in (w["name"] for w in SPEC["workloads"]):
        plain = bench(w, 0)
        problems += expect_units(plain, SPEC["end_to_end"], f"{w} trace 0")
        problems += [f"{w}: {k} = {v['value']}"
                     for k, v in plain["metrics"].items()
                     if not v["value"] > 0]
        first, second = bench(w, 1), bench(w, 1)
        problems += expect_units(first, SPEC["per_layer"], f"{w} trace 1")
        a, b = first["metrics"], second["metrics"]
        problems += [f"{w}: count {k} {a[k]['value']} != {b[k]['value']}"
                     for k in a if k.endswith(COUNTS)
                     and a[k]["value"] != b[k]["value"]]
        for k, p in PRED["layer_map"].items():
            v = a[k]["value"]
            if w in p["zero_on"] and v != 0:
                problems.append(f"{w}: {k} = {v}, predicted zero")
            if w in p["on"] and v == 0:
                problems.append(f"{w}: {k} is zero, predicted non-zero")
        self_sum = sum(v["value"] for k, v in a.items()
                       if k.endswith("_s") and k not in NOT_SELF)
        if not math.isclose(self_sum, a["trace.busy_s"]["value"],
                            rel_tol=1e-9, abs_tol=1e-9):
            problems.append(f"{w}: layer self times sum to {self_sum}, "
                            f"spans to {a['trace.busy_s']['value']}")
        print(f"{w}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
