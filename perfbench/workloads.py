"""Workloads of the bealschur benchmark, each run in a child process of its own.

run.py starts this file once per set-up sample and once for the measured
run:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \\
        --trace 0|1 [--setup-only] [--tiny] [--corrupt]

Each workload is one closed-loop client: a single thread drives the public
CLI entry point ``bealschur.cli.run(argv)`` in-process, with stdout captured
and files in a temporary directory, and sends the next operation only after
the previous one returned.  The process prints ``READY`` once
``bealschur.cli`` is imported and the inputs are written; then, unless
``--setup-only``, it makes one untimed warm-up operation, repeats the
workload's pass for about ``--seconds`` seconds and prints one JSON line.

Every output is checked after its pass, outside the timed region.  A failed
check, a nonzero exit code or an exception counts the operation as failed and
never stops the run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from tracing import COUNT_METRICS, RATIO_METRICS, TIME_METRICS, Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
PINS_FILE = HERE / "pins.json"

# Ciphertext and key-file hashes are pinned at this seed only; other seeds
# rely on the round-trip and invariant checks.
DEFAULT_SEED = 0

MODULES = ("cli", "counting", "crypto", "keygen", "modmath", "triplets")


def import_program() -> dict:
    """Import bealschur from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"bealschur.{name}") for name in MODULES}
    origin = sys.modules["bealschur"].__file__
    if not Path(origin).resolve().is_relative_to(SRC):
        raise ImportError(f"bealschur imported from {origin}, not {SRC}")
    return modules


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """One in-process CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def flip_digit(text: str, last: bool = False) -> str:
    """Change one decimal digit of ``text``: the first one, or the last."""
    indices = [i for i, ch in enumerate(text) if ch.isdigit()]
    i = indices[-1] if last else indices[0]
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- count_verify --------------------------------------------------------------

@dataclass(frozen=True)
class Rung:
    command: str  # "verify" or "count"
    p: int
    q: int
    r: int
    N: int
    fourier: bool = False

    @property
    def label(self) -> str:
        flag = " --fourier" if self.fourier else ""
        return f"{self.command}{flag} {self.p} {self.q} {self.r} {self.N}"

    @property
    def argv(self) -> list[str]:
        argv = [self.command]
        for flag, value in zip(("--p", "--q", "--r", "--modulus"), (self.p, self.q, self.r, self.N)):
            argv += [flag, str(value)]
        return argv + (["--fourier"] if self.fourier else [])


class CountVerify:
    """Exact counting and bound-chain verification over a ladder of moduli.

    The rungs vary gcd(e, N-1): all 2 at 1000003; 2/4/8 and 3 at 1000033;
    lcm 385 at 1000231.  The 2*10^6 rung sets the peak RSS.  The inputs do
    not depend on the seed, so their outputs are pinned at every seed.
    """

    name = "count_verify"
    seeded = False
    RUNGS = (
        Rung("verify", 2, 4, 8, 131101),
        Rung("verify", 2, 2, 2, 1000003),
        Rung("verify", 2, 4, 8, 1000033),
        Rung("count", 3, 3, 3, 1000033, fourier=True),
        Rung("count", 5, 7, 11, 1000231),
        Rung("count", 2, 3, 6, 2000003),
    )
    TINY_RUNGS = (
        Rung("verify", 2, 2, 2, 2053),
        Rung("count", 2, 2, 2, 101, fourier=True),
        Rung("count", 1, 1, 1, 7),
    )

    def __init__(self, modules, seed, workdir, tiny):
        self.cli = modules["cli"]
        self.rungs = self.TINY_RUNGS if tiny else self.RUNGS
        self.corrupt_next = False

    def setup_pin_values(self) -> dict[str, str]:
        return {}

    def warmup_ops(self):
        return [self.rungs[0]]

    def pass_ops(self):
        return list(self.rungs)

    def label(self, rung) -> str:
        return rung.label

    def execute(self, rung):
        code, out, err = call_cli(self.cli, rung.argv)
        if self.corrupt_next:
            self.corrupt_next = False
            out = flip_digit(out)
        return code, out, err

    def pin_values(self, rung, result) -> dict[str, str]:
        _, out, _ = result
        kept = [ln for ln in out.splitlines(keepends=True) if not ln.startswith("fourier=")]
        return {rung.label: "".join(kept)}

    def check(self, rung, result) -> list[str]:
        code, out, err = result
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.strip()}")
        lines = out.splitlines()
        if rung.command == "verify":
            problems += self._check_verify(rung, lines)
        else:
            problems += self._check_count(rung, lines)
        return problems

    @staticmethod
    def _check_verify(rung, lines) -> list[str]:
        problems = [f"failed check: {ln}" for ln in lines if ln.startswith("CHECK") and not ln.endswith(" pass")]
        witness = [ln.split() for ln in lines if ln.startswith("WITNESS ")]
        if len(witness) != 1 or len(witness[0]) != 4:
            return problems + ["no WITNESS line"]
        x, y, z = (int(v) for v in witness[0][1:])
        N = rung.N
        if not all(0 < v < N for v in (x, y, z)):
            problems.append(f"witness {x} {y} {z} is trivial or unreduced")
        if (pow(x, rung.p, N) + pow(y, rung.q, N) - pow(z, rung.r, N)) % N:
            problems.append(f"witness {x} {y} {z} does not satisfy the congruence")
        return problems

    @staticmethod
    def _check_count(rung, lines) -> list[str]:
        if not lines or not lines[0].startswith("M="):
            return ["no M= line"]
        fields = dict(part.split("=", 1) for part in lines[0].split())
        M, trivial, nontrivial = (int(fields[k]) for k in ("M", "trivial", "nontrivial"))
        problems = []
        if M != trivial + nontrivial:
            problems.append(f"M={M} != trivial + nontrivial")
        if rung.fourier:
            fourier = [ln for ln in lines if ln.startswith("fourier=")]
            if len(fourier) != 1 or round(float(fourier[0][len("fourier="):])) != M:
                problems.append(f"fourier line does not round to M={M}")
        return problems

    def unit_latencies(self, records) -> list[float]:
        return [rec.seconds for rec in records]

    def detail(self, passes) -> dict[str, float]:
        def summed(command):
            return statistics.median(
                sum(rec.seconds for rec in recs if rec.op.command == command) for _, recs in passes
            )

        return {"verify_s": summed("verify"), "count_s": summed("count")}


# -- crypto_roundtrip ----------------------------------------------------------

PRIME_57_BIT = 2**56 + 97  # gcd(3, N-1) = 1
PRIME_66_BIT = 2**65 + 131  # gcd(2, N-1) = 2
PRIME_74_BIT = 2**73 + 291  # gcd(8, N-1) = 2

SCHEME_KEYS = {
    "I": ({"r": 2, "N": PRIME_66_BIT}, {"p": 2, "q": 2}),
    "II": ({"p": 2, "q": 4, "r": 8}, {"N": PRIME_74_BIT}),
    "III": (
        {"n": 3, "p1": 2, "q1": 2, "r1": 2, "p2": 3, "q2": 3, "r2": 3, "p3": 2, "q3": 4, "r3": 8},
        {"n": 3, "N1": PRIME_66_BIT, "N2": PRIME_57_BIT, "N3": PRIME_74_BIT},
    ),
}
BIG_BYTES = 4096
SMALL_BYTES = 64


@dataclass(frozen=True)
class Message:
    scheme: str
    kind: str  # "big" or "small"
    index: int

    @property
    def label(self) -> str:
        return f"{self.scheme}-{self.kind}-{self.index}"


@dataclass(frozen=True)
class CryptoOp:
    action: str  # "encrypt", "decrypt", or "roundtrip" (both, timed together)
    msg: Message


class CryptoRoundtrip:
    """Encrypt and decrypt through files for schemes I, II and III.

    Each scheme gets several 4 KiB messages, encrypted and decrypted as
    separate operations, and 34 messages of 64 bytes, each timed as one
    encrypt+decrypt round trip that exposes the fixed per-call costs.
    Key files are written once during set-up.
    """

    name = "crypto_roundtrip"
    seeded = True

    def __init__(self, modules, seed, workdir, tiny):
        self.cli = modules["cli"]
        self.corrupt_next = False
        self.dir = workdir
        self.keys = {}
        for scheme, (pub, priv) in SCHEME_KEYS.items():
            paths = (workdir / f"{scheme}.pub", workdir / f"{scheme}.priv")
            paths[0].write_text(modules["keygen"].serialize_fields(scheme, "PUBLIC", pub))
            paths[1].write_text(modules["keygen"].serialize_fields(scheme, "PRIVATE", priv))
            self.keys[scheme] = paths
        n_big, n_small = (1, 2) if tiny else (3, 34)
        self.plain, self.enc_seed = {}, {}
        self.messages = []
        for scheme in SCHEME_KEYS:
            msgs = [Message(scheme, "big", i) for i in range(n_big)]
            msgs += [Message(scheme, "small", i) for i in range(n_small)]
            for msg in msgs:
                rng = random.Random(f"{seed}/{msg.label}")
                self.plain[msg] = rng.randbytes(BIG_BYTES if msg.kind == "big" else SMALL_BYTES)
                self.enc_seed[msg] = rng.getrandbits(32)
                self._path(msg, "msg").write_bytes(self.plain[msg])
            self.messages += msgs

    def _path(self, msg, suffix) -> Path:
        return self.dir / f"{msg.label}.{suffix}"

    def _key_args(self, msg) -> list[str]:
        pub, priv = self.keys[msg.scheme]
        return ["--scheme", msg.scheme, "--pub", str(pub), "--priv", str(priv)]

    def setup_pin_values(self) -> dict[str, str]:
        return {f"key:{path.name}": sha256(path.read_bytes()) for paths in self.keys.values() for path in paths}

    def warmup_ops(self):
        return [CryptoOp("roundtrip", m) for m in self.messages if m.kind == "small" and m.index == 0]

    def pass_ops(self):
        ops = []
        for msg in self.messages:
            if msg.kind == "big":
                ops += [CryptoOp("encrypt", msg), CryptoOp("decrypt", msg)]
            else:
                ops.append(CryptoOp("roundtrip", msg))
        return ops

    def label(self, op) -> str:
        return f"{op.action} {op.msg.label}"

    def _encrypt(self, msg) -> tuple[int, str]:
        argv = ["encrypt", *self._key_args(msg)]
        argv += ["--in", str(self._path(msg, "msg")), "--out", str(self._path(msg, "ct"))]
        argv += ["--seed", str(self.enc_seed[msg])]
        if msg.scheme == "III":
            size = len(self.plain[msg])
            third = size // 3
            argv += ["--partition", f"{third},{third},{size - 2 * third}", "--split-I", "2"]
        code, _, err = call_cli(self.cli, argv)
        if self.corrupt_next and code == 0:
            self.corrupt_next = False
            ct = self._path(msg, "ct")
            ct.write_text(flip_digit(ct.read_text(), last=True))
        return code, err

    def _decrypt(self, msg) -> tuple[int, str]:
        argv = ["decrypt", *self._key_args(msg)]
        argv += ["--in", str(self._path(msg, "ct")), "--out", str(self._path(msg, "out"))]
        if msg.scheme == "III":
            argv += ["--split-I", "2"]
        code, _, err = call_cli(self.cli, argv)
        return code, err

    def execute(self, op):
        results = []
        if op.action in ("encrypt", "roundtrip"):
            results.append(self._encrypt(op.msg))
        if op.action in ("decrypt", "roundtrip"):
            results.append(self._decrypt(op.msg))
        return results

    def pin_values(self, op, result) -> dict[str, str]:
        if op.action == "decrypt":
            return {}
        return {op.msg.label: sha256(self._path(op.msg, "ct").read_bytes())}

    def check(self, op, result) -> list[str]:
        problems = [f"exit {code}: {err.strip()}" for code, err in result if code != 0]
        msg = op.msg
        if op.action != "decrypt":
            head = self._path(msg, "ct").read_text().split("\n", 1)[0]
            if not head.startswith(f"BSCT v1 scheme={msg.scheme} "):
                problems.append(f"bad ciphertext header {head!r}")
        if op.action != "encrypt":
            out = self._path(msg, "out")
            if not out.exists() or out.read_bytes() != self.plain[msg]:
                problems.append("decrypted bytes differ from the plaintext")
            # A later pass writes fresh files: no check can pass on stale
            # output, and ext4 does not flush a file truncated on rewrite.
            out.unlink(missing_ok=True)
            self._path(msg, "ct").unlink(missing_ok=True)
        return problems

    def unit_latencies(self, records) -> list[float]:
        return [rec.seconds for rec in records if rec.op.action == "roundtrip"]

    def detail(self, passes) -> dict[str, float]:
        def kibps(action):
            rates = []
            for _, recs in passes:
                done = [rec for rec in recs if rec.op.action == action]
                rates.append(len(done) * BIG_BYTES / 1024 / sum(rec.seconds for rec in done))
            return statistics.median(rates)

        return {"encrypt_KiBps": kibps("encrypt"), "decrypt_KiBps": kibps("decrypt")}


# -- keygen_batch --------------------------------------------------------------

# (CLI scheme, --literal-6-2, KeyPair.scheme)
KEYGEN_VARIANTS = (("kg1", False, "KG1"), ("kg2", False, "KG2"), ("kg2", True, "KG2"))
MAX_EXPONENTS = (4, 8)
BIT_RANGES = ((18, 24), (48, 64))  # trial-division band, Miller-Rabin band


@dataclass(frozen=True)
class KeySpec:
    label: str
    variant: tuple
    max_exp: int
    bits: tuple
    seed: int


class KeygenBatch:
    """Seeded keygen calls, each followed by the library load path.

    The calls cycle through every (variant, max exponent, bit range), so
    both primality bands and both KG schemes are exercised.  Each call is
    timed together with parse_key + assemble_keypair of the files it wrote.
    """

    name = "keygen_batch"
    seeded = True

    def __init__(self, modules, seed, workdir, tiny):
        self.cli = modules["cli"]
        self.keygen = modules["keygen"]
        self.corrupt_next = False
        self.dir = workdir
        self.specs = [
            KeySpec(
                label=str(i),
                variant=KEYGEN_VARIANTS[i % 3],
                max_exp=MAX_EXPONENTS[(i // 3) % 2],
                bits=BIT_RANGES[(i // 6) % 2],
                seed=random.Random(f"{seed}/keygen/{i}").getrandbits(32),
            )
            for i in range(12 if tiny else 600)
        ]

    def _paths(self, spec) -> tuple[Path, Path]:
        return self.dir / f"{spec.label}.pub", self.dir / f"{spec.label}.priv"

    def setup_pin_values(self) -> dict[str, str]:
        return {}

    def warmup_ops(self):
        return self.specs[:1]

    def pass_ops(self):
        return list(self.specs)

    def label(self, spec) -> str:
        return f"keygen {spec.label}"

    def execute(self, spec):
        scheme, literal, _ = spec.variant
        lo, hi = spec.bits
        argv = ["keygen", "--scheme", scheme, "--max-exp", str(spec.max_exp)]
        pub_path, priv_path = self._paths(spec)
        argv += ["--prime-bits", f"{lo}..{hi}", "--seed", str(spec.seed)]
        argv += ["--out-pub", str(pub_path), "--out-priv", str(priv_path)]
        if literal:
            argv.append("--literal-6-2")
        code, _, err = call_cli(self.cli, argv)
        if code != 0:
            return code, err, None, None
        if self.corrupt_next:
            self.corrupt_next = False
            priv_path.write_text(flip_digit(priv_path.read_text(), last=True))
        pub, priv = pub_path.read_text(), priv_path.read_text()
        pair = self.keygen.assemble_keypair(self.keygen.parse_key(pub), self.keygen.parse_key(priv))
        return code, err, pub + priv, pair

    def pin_values(self, spec, result) -> dict[str, str]:
        _, _, texts, _ = result
        return {spec.label: sha256(texts.encode())}

    def check(self, spec, result) -> list[str]:
        code, err, texts, pair = result
        for path in self._paths(spec):  # see CryptoRoundtrip.check
            path.unlink(missing_ok=True)
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        _, literal, scheme = spec.variant
        ctx = pair.context
        N, lo, hi = ctx.N, *spec.bits
        problems = []
        if pair.scheme != scheme or pair.literal_roles != literal:
            problems.append(f"loaded as {pair.scheme} literal={pair.literal_roles}")
        if max(ctx.p, ctx.q, ctx.r) > spec.max_exp:
            problems.append(f"exponents ({ctx.p}, {ctx.q}, {ctx.r}) exceed {spec.max_exp}")
        if not lo <= N.bit_length() <= hi:
            problems.append(f"N has {N.bit_length()} bits, outside {lo}..{hi}")
        if not all(0 < v < N for v in (pair.x, pair.y, pair.z)):
            problems.append("key triplet is trivial or unreduced")
        if (pow(pair.x, ctx.p, N) + pow(pair.y, ctx.q, N) - pow(pair.z, ctx.r, N)) % N:
            problems.append("key triplet does not satisfy the congruence")
        return problems

    def unit_latencies(self, records) -> list[float]:
        return [rec.seconds for rec in records]

    def detail(self, passes) -> dict[str, float]:
        keys_ms = [1000 * rec.seconds for _, recs in passes for rec in recs]
        return {
            "keys_per_s": statistics.median(len(recs) / sum(r.seconds for r in recs) for _, recs in passes),
            "keygen_ms_p99": percentile(keys_ms, 99),
        }


WORKLOADS = {w.name: w for w in (CountVerify, CryptoRoundtrip, KeygenBatch)}


# -- measurement ---------------------------------------------------------------

@dataclass
class Record:
    op: object
    seconds: float
    result: object
    error: str | None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{label}: {'; '.join(problems)}")


def run_ops(workload, ops) -> tuple[float, list[Record]]:
    """Run ``ops`` back to back; returns the wall time and one record per op."""
    records = []
    start = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result, error = workload.execute(op), None
        except Exception as exc:  # a failed operation is counted, never fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        records.append(Record(op, time.perf_counter() - t0, result, error))
    return time.perf_counter() - start, records


def pin_problems(values: dict[str, str], pins: dict[str, str]) -> list[str]:
    return [f"{key} differs from its pin" for key, value in values.items() if pins.get(key, value) != value]


def check_ops(workload, records, tally: Tally, pins: dict[str, str]):
    for rec in records:
        try:
            if rec.error:
                problems = [rec.error]
            else:
                problems = pin_problems(workload.pin_values(rec.op, rec.result), pins)
                problems += workload.check(rec.op, rec.result)
        except Exception as exc:  # an output the checks cannot even parse
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        tally.add(workload.label(rec.op), problems)
        rec.result = None  # keep only the timing, so RSS does not grow with passes


def measure(workload, modules, seconds: float, trace: bool, corrupt: bool, pins: dict) -> dict:
    """Warm up, then repeat whole passes for about ``seconds`` seconds.

    With ``trace``, every untraced pass is followed by a traced one, so the
    per-layer counts are those of exactly one pass and repeat run to run.
    """
    tally = Tally()
    tally.add("set-up", pin_problems(workload.setup_pin_values(), pins))
    _, records = run_ops(workload, workload.warmup_ops())
    check_ops(workload, records, tally, pins)
    workload.corrupt_next = corrupt
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        wall, records = run_ops(workload, workload.pass_ops())
        check_ops(workload, records, tally, pins)
        passes.append((wall, records))
        if trace:
            tracer = Tracer()
            with installed(tracer, modules):
                wall, records = run_ops(workload, workload.pass_ops())
            check_ops(workload, records, tally, pins)
            traced.append((wall, tracer.metrics()))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break

    walls = [wall for wall, _ in passes]
    units_ms = [1000 * s for _, recs in passes for s in workload.unit_latencies(recs)]
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "pass_wall_s": walls,
        "wall_s": statistics.median(walls),
        "op_ms_p50": statistics.median(units_ms),
        "op_ms_p90": percentile(units_ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "detail": workload.detail(passes),
    }
    if trace:
        # counts and ratios are those of the first traced pass; every pass
        # runs the same inputs, so they must repeat exactly
        first = traced[0][1]
        result["counts_repeat"] = all(
            metrics[name] == first[name]
            for _, metrics in traced for name in COUNT_METRICS + RATIO_METRICS
        )
        per_layer = {
            name: statistics.median(metrics[name] for _, metrics in traced)
            if name in TIME_METRICS else first[name]
            for name in first
        }
        traced_wall = statistics.median(wall for wall, _ in traced)
        per_layer["trace_overhead_ratio"] = traced_wall / result["wall_s"] - 1
        per_layer["fail_ratio"] = tally.failed / tally.attempted
        result["per_layer"] = per_layer
    return result


def load_pins(workload_cls, seed: int) -> dict:
    if workload_cls.seeded and seed != DEFAULT_SEED:
        return {}
    return json.loads(PINS_FILE.read_text()).get(workload_cls.name, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="a few inputs, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip one digit of the first timed output, for the self-test")
    args = parser.parse_args(argv)

    modules = import_program()
    cls = WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = cls(modules, args.seed, workdir, args.tiny)
        print("READY", flush=True)
        if args.setup_only:
            return 0
        pins = load_pins(cls, args.seed)
        result = measure(workload, modules, args.seconds, bool(args.trace), args.corrupt, pins)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import numpy

    result["env"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "src_sha256": source_digest(),
    }
    print(json.dumps(result), flush=True)
    return 0


def source_digest() -> str:
    """sha256 over the program's source files, naming the version measured."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
