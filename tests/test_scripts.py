"""Smoke tests: the scripts under scripts/ run end to end as subprocesses."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# stdout of `encryption_demo.py --seed 0`: schemes I-III and one KG1 key, so
# any change to how encryption or keygen draws from the seeded rng shows here
DEMO_SEED_0 = """\
scheme I : 5 pairs, first x = 7758176404715800195
scheme II : 5 pairs, first x = 51502094419974747
scheme III: 6 pairs over 3 contexts

a generated KG1 public key:
BSKEY v1 PUBLIC scheme=KG1
N=9263237
z=4712438
end
"""


def run_script(name, *args, cwd):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, cwd=cwd, timeout=120,
    )


def test_encryption_demo_seeded_output(tmp_path):
    proc = run_script("encryption_demo.py", "--seed", "0", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == DEMO_SEED_0


def test_bound_chain_sweep_passes(tmp_path):
    proc = run_script("bound_chain_sweep.py", "--triplets", "2,2,2", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert header.split()[0] == "p,q,r"
    assert row.startswith("2,2, 2") and " pass " in row
    assert row.endswith("(1, 3, 808)")


@pytest.mark.parametrize(
    "triplets,code,error",
    [
        ("1,1,1", 3, "error: ExponentTooSmall: "),
        ("2,3,5", 3, "error: NotIntraDivisible: "),
        ("2,2", 2, "argument --triplets: expected p,q,r triplets"),
        ("a,b,c", 2, "argument --triplets: expected p,q,r triplets"),
    ],
)
def test_bound_chain_sweep_refuses_bad_triplets(tmp_path, triplets, code, error):
    proc = run_script("bound_chain_sweep.py", "--triplets", triplets, cwd=tmp_path)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert error in proc.stderr and "Traceback" not in proc.stderr
