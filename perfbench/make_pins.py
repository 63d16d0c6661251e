"""Write perfbench/pins.json, the outputs the benchmark pins.

    python3 perfbench/make_pins.py

Runs the warm-up and one pass of every workload at the default seed (and the
self-test's tiny count_verify rungs) and records what the program printed or
wrote: count/verify stdout without the fourier= line, and the sha256 of every
seeded ciphertext and key file.  Run it only at a commit whose outputs are
the reference; the benchmark then fails any operation whose output differs.
"""

import json
import shutil
import tempfile
from pathlib import Path

from workloads import DEFAULT_SEED, PINS_FILE, WORK_ROOT, WORKLOADS, import_program, run_ops


def pins_of(cls, modules, tiny) -> dict:
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        workload = cls(modules, DEFAULT_SEED, workdir, tiny)
        pins = workload.setup_pin_values()
        for ops in (workload.warmup_ops(), workload.pass_ops()):
            _, records = run_ops(workload, ops)
            for rec in records:
                if rec.error:
                    raise RuntimeError(f"{workload.label(rec.op)}: {rec.error}")
                pins.update(workload.pin_values(rec.op, rec.result))
                problems = workload.check(rec.op, rec.result)
                if problems:
                    raise RuntimeError(f"{workload.label(rec.op)}: {problems}")
        return pins
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    modules = import_program()
    WORK_ROOT.mkdir(exist_ok=True)
    pins = {}
    for name, cls in WORKLOADS.items():
        pins[name] = pins_of(cls, modules, tiny=False)
    pins["count_verify"].update(pins_of(WORKLOADS["count_verify"], modules, tiny=True))
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    WORK_ROOT.rmdir()


if __name__ == "__main__":
    main()
