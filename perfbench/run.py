"""Run one workload of the bealschur benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json and explained in
perfbench/README.md.  The workload runs in a child process of its own
(perfbench/workloads.py), so its peak RSS is its own and no FFT plan or cache
carries over from another workload; set-up is timed over several fresh
interpreters and reported as the median.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced pass with --trace 1.  The line before it records the
machine, the versions and the workload-specific figures.  Without the
program's sources next to perfbench/ the run exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("count_verify", "crypto_roundtrip", "keygen_batch")
SETUP_SAMPLES = 9
# A run must end within 180 s, set-up samples included.
RUN_DEADLINE_S = 175
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
# Single-threaded: the measured process is the only client, on one core.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def run_child(args: list[str], deadline: float) -> tuple[float, str, int]:
    """Start one workload process; returns (seconds until READY, rest of stdout, exit code).

    The child is killed if it is still running at ``deadline`` (a
    ``time.perf_counter`` value) and is always waited for.
    """
    env = {**os.environ, **CHILD_ENV}
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env,
    )
    killer = threading.Timer(max(deadline - start, 0), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY":
        code = code or 1
    return ready_s, rest, code


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str | None:
    """HEAD of the checkout, read from its own .git; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="a few inputs, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one digit of the first timed output, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bealschur" / "cli.py").is_file():
        print(f"error: no bealschur sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    child_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace)]
    child_args += ["--tiny"] * args.tiny + ["--corrupt"] * args.corrupt
    deadline = time.perf_counter() + RUN_DEADLINE_S
    setup_times = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready_s, _, code = run_child([*child_args, "--setup-only"], deadline)
            if code:
                print(f"error: set-up of {args.workload} exited with {code}", file=sys.stderr)
                return 1
            setup_times.append(ready_s)
    ready_s, out, code = run_child(child_args, deadline)
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
    lines = out.strip().splitlines()
    if code or not lines:
        print(f"error: workload {args.workload} exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    setup_times.append(ready_s)

    if args.trace:
        metrics = {
            name: {"value": value, "unit": per_layer_unit(name)}
            for name, value in result["per_layer"].items()
        }
    else:
        result["setup_s"] = statistics.median(setup_times)
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_wall_s": result["pass_wall_s"],
        "detail": result["detail"],
        "problems": result["problems"],
        **({"counts_repeat": result["counts_repeat"]} if args.trace else {}),
        "setup_samples_s": setup_times,
        "env": {
            **result["env"],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "git_commit": git_commit(),
        },
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "per_call", "per_block")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
