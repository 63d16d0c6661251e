"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload in its tiny mode (a few inputs, about a second each) and
checks that:

* an untraced run emits exactly the end-to-end metrics of BENCHMARK.json,
  each one nonzero, and fails no operation;
* a traced run emits exactly the per-layer metrics, and a second traced run
  repeats every count exactly;
* a run that flips one digit of its first timed output (a count line, a
  ciphertext, a private key file) counts that operation as failed;
* without the program's sources the benchmark exits nonzero and prints no
  result.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from tracing import COUNT_METRICS, RATIO_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    if proc.returncode:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-1000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(name: str) -> list[str]:
    errors = []
    plain = result_of(bench("--workload", name, "--trace", "0", "--tiny"))
    want = [m["name"] for m in SPEC["end_to_end"]]
    if sorted(plain["metrics"]) != sorted(want):
        errors.append(f"end-to-end metrics {sorted(plain['metrics'])} != {sorted(want)}")
    errors += [f"{k} is 0" for k, v in plain["metrics"].items() if not v["value"]]
    if plain["failed"] or not plain["correct"]:
        errors.append(f"{plain['failed']} of {plain['attempted']} operations failed")

    traced = [result_of(bench("--workload", name, "--trace", "1", "--tiny")) for _ in range(2)]
    want = [m["name"] for m in SPEC["per_layer"]]
    if sorted(traced[0]["metrics"]) != sorted(want):
        errors.append(f"per-layer metrics {sorted(traced[0]['metrics'])} != {sorted(want)}")
    for key in COUNT_METRICS + RATIO_METRICS:
        a, b = (run["metrics"][key]["value"] for run in traced)
        if a != b:
            errors.append(f"{key} differs between traced runs: {a} != {b}")

    corrupt = result_of(bench("--workload", name, "--trace", "0", "--tiny", "--corrupt"))
    if corrupt["failed"] < 1 or corrupt["correct"]:
        errors.append("a flipped digit in an output was not counted as failed")
    return errors


def check_without_sources() -> list[str]:
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench_work-") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "count_verify", "--trace", "0", cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    failures = 0
    checks = [(w["name"], lambda n=w["name"]: check_workload(n)) for w in SPEC["workloads"]]
    checks.append(("without sources", check_without_sources))
    for label, check in checks:
        try:
            errors = check()
        except (AssertionError, subprocess.TimeoutExpired, ValueError) as exc:
            errors = [f"{type(exc).__name__}: {exc}"]
        print(f"{'FAIL' if errors else 'ok'}   {label}")
        for error in errors:
            print(f"       {error}")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
