import contextlib
import io
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bealschur import counting
from bealschur.cli import run
from bealschur.keygen import parse_key, serialize_fields

from conftest import PRIME_57_BIT, PRIME_66_BIT, PRIME_74_BIT


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_passing_context(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "--p", "2", "--q", "2", "--r", "2", "--modulus", "2053"
        )
        assert code == 0
        lines = out.splitlines()
        assert all(ln.endswith(" pass") for ln in lines[:-1])
        assert lines[-1].startswith("WITNESS ")

    def test_invalid_context_is_domain_error(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "--p", "2", "--q", "3", "--r", "5", "--modulus", "101"
        )
        assert code == 3
        assert "NotIntraDivisible" in err

    def test_composite_modulus(self, capsys):
        code, out, err = invoke(
            capsys, "verify", "--p", "2", "--q", "2", "--r", "2", "--modulus", "2051"
        )
        assert code == 3
        assert "NotPrime" in err

    def test_out_of_memory_is_domain_error(self, capsys, monkeypatch):
        class _ArrayMemoryError(MemoryError):  # numpy raises a subclass like this
            pass

        def refuse(shape, *args, **kwargs):
            raise _ArrayMemoryError(f"Unable to allocate an array with shape ({shape},)")

        # stands in for the table of a modulus too large for memory, such as 2^31 - 1
        monkeypatch.setattr(counting.np, "zeros", refuse)
        code, out, err = invoke(
            capsys, "verify", "--p", "2", "--q", "2", "--r", "2", "--modulus", "2053"
        )
        assert code == 3
        assert out == ""
        assert err == "error: MemoryError: Unable to allocate an array with shape (2053,)\n"


class TestCountCommand:
    def test_linear_example(self, capsys):
        code, out, _ = invoke(
            capsys, "count", "--p", "1", "--q", "1", "--r", "1", "--modulus", "7"
        )
        assert code == 0
        assert out.splitlines()[0] == "M=49 trivial=19 nontrivial=30"

    def test_cross_checks(self, capsys):
        code, out, _ = invoke(
            capsys, "count", "--p", "2", "--q", "2", "--r", "2", "--modulus", "13",
            "--fourier", "--brute",
        )
        assert code == 0
        lines = out.splitlines()
        m = int(lines[0].split()[0].split("=")[1])
        assert any(ln == f"brute={m}" for ln in lines)
        fourier = float(next(ln for ln in lines if ln.startswith("fourier=")).split("=")[1])
        assert round(fourier) == m

    def test_fourier_runs_only_on_request(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("Fourier cross-check ran without --fourier")

        with monkeypatch.context() as patched:
            patched.setattr(counting, "count_solutions_fourier", refuse)
            code, out, _ = invoke(
                capsys, "verify", "--p", "2", "--q", "2", "--r", "2", "--modulus", "2053"
            )
            assert code == 0
            assert out.splitlines()[-1].startswith("WITNESS ")
            code, out, _ = invoke(
                capsys, "count", "--p", "2", "--q", "4", "--r", "8", "--modulus", "131101"
            )
            assert code == 0
            assert len(out.splitlines()) == 1
        code, out, _ = invoke(
            capsys, "count", "--p", "2", "--q", "4", "--r", "8", "--modulus", "131101",
            "--fourier",
        )
        assert code == 0
        first, fourier = out.splitlines()
        m = int(first.split()[0].split("=")[1])
        assert fourier.startswith("fourier=")
        assert round(float(fourier.split("=")[1])) == m


    def test_count_and_verify_run_no_histogram_or_fft(self, capsys, monkeypatch):
        class NoFFT:
            def __getattr__(self, name):
                raise AssertionError(f"np.fft.{name} called without --fourier")

        def refuse(*args):
            raise AssertionError("power histogram built without --fourier")

        monkeypatch.setattr(counting.np, "fft", NoFFT())
        monkeypatch.setattr(counting, "power_histogram", refuse)
        for argv in (
            ("count", "--p", "2", "--q", "3", "--r", "6", "--modulus", "65537"),
            ("count", "--p", "5", "--q", "7", "--r", "11", "--modulus", "1009"),
            ("verify", "--p", "2", "--q", "4", "--r", "8", "--modulus", "131101"),
        ):
            code, out, err = invoke(capsys, *argv)
            assert code == 0, err
            assert out

    def test_exponent_below_one_is_usage_error(self, capsys):
        code, out, err = invoke(
            capsys, "count", "--p", "0", "--q", "2", "--r", "2", "--modulus", "7"
        )
        assert code == 2
        assert out == ""
        assert err.strip() == "error: exponents must be positive"


class TestSumsCommand:
    def test_gauss_sum(self, capsys):
        code, out, _ = invoke(
            capsys, "sums", "--k", "1", "--ell", "2", "--modulus", "5"
        )
        assert code == 0
        assert out.strip() == "S=2.236067977,0.000000000"

    def test_zero_frequency(self, capsys):
        code, out, _ = invoke(
            capsys, "sums", "--k", "0", "--ell", "3", "--modulus", "11"
        )
        assert out.strip() == "S=11.000000000,0.000000000"


class TestRootCommand:
    def test_all_roots(self, capsys):
        code, out, _ = invoke(
            capsys, "root", "--c", "4", "--k", "2", "--modulus", "7", "--all"
        )
        assert code == 0
        assert out.strip() == "roots=2 5"

    def test_single_root(self, capsys):
        code, out, _ = invoke(
            capsys, "root", "--c", "8", "--k", "3", "--modulus", "11"
        )
        assert out.strip() == "root=2"

    # stdout recorded before roots were taken by replaying AMM's draws; on
    # the 2^61 - 1 fallback path the root depends on the seed
    @pytest.mark.parametrize(
        "c,k,modulus,seed,expected",
        [
            (4568175676801420210, 2, PRIME_66_BIT, 0, 123456789123),
            (3523928712346086392, 2, PRIME_66_BIT, 3, 36893487530135157747),
            (7794494341789263244545, 8, PRIME_74_BIT, 0, 98765432109876),
            (4677388657416738273909, 8, PRIME_74_BIT, 3, 9444732471912129878302),
            (303761141636210308, 6, 2**61 - 1, 0, 267409903359626111),
            (303761141636210308, 6, 2**61 - 1, 3, 2038433137269994375),
            (29557132031453401, 6, 2**61 - 1, 7, 1973310135770476191),
        ],
    )
    def test_seeded_root_pinned(self, capsys, c, k, modulus, seed, expected):
        code, out, _ = invoke(
            capsys, "root", "--c", str(c), "--k", str(k),
            "--modulus", str(modulus), "--seed", str(seed),
        )
        assert code == 0
        assert out == f"root={expected}\n"

    def test_non_residue_is_domain_error(self, capsys):
        code, out, err = invoke(
            capsys, "root", "--c", "3", "--k", "2", "--modulus", "7"
        )
        assert code == 3
        assert "NonResidue" in err


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    def test_bad_bit_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["keygen", "--scheme", "kg1", "--max-exp", "4",
                 "--prime-bits", "bogus", "--out-pub", "a", "--out-priv", "b"])
        assert exc.value.code == 2


class TestKeygenCommand:
    def test_writes_parsable_halves(self, capsys, tmp_path):
        pub = tmp_path / "k.pub"
        priv = tmp_path / "k.priv"
        code, out, _ = invoke(
            capsys, "keygen", "--scheme", "kg1", "--max-exp", "4",
            "--prime-bits", "18..24", "--seed", "5", "--out-pub", str(pub),
            "--out-priv", str(priv),
        )
        assert code == 0
        assert parse_key(pub.read_text()).scheme == "KG1"
        assert parse_key(priv.read_text()).role == "PRIVATE"

    def test_parser_reuse_leaks_no_option(self, capsys, tmp_path):
        # the parser is built once per process; a flag of one run must not
        # carry over into the next run's namespace
        def argv(tag, *extra):
            return ["keygen", "--scheme", "kg2", "--max-exp", "4", "--prime-bits",
                    "18..24", "--seed", "23", "--out-pub", str(tmp_path / f"{tag}.pub"),
                    "--out-priv", str(tmp_path / f"{tag}.priv"), *extra]

        assert invoke(capsys, *argv("literal", "--literal-6-2"))[0] == 0
        assert "x=" in (tmp_path / "literal.pub").read_text()
        assert invoke(capsys, *argv("plain"))[0] == 0
        fresh = subprocess.run(
            [sys.executable, "-m", "bealschur.cli", *argv("fresh")],
            capture_output=True, cwd=tmp_path,
        )
        assert fresh.returncode == 0
        plain = (tmp_path / "plain.pub").read_text()
        assert "z=" in plain and "x=" not in plain
        for suffix in ("pub", "priv"):
            assert (tmp_path / f"plain.{suffix}").read_bytes() == (
                tmp_path / f"fresh.{suffix}"
            ).read_bytes()

    def test_infeasible_bounds_domain_error(self, capsys, tmp_path):
        code, out, err = invoke(
            capsys, "keygen", "--scheme", "kg1", "--max-exp", "2",
            "--prime-bits", "8..11", "--seed", "5",
            "--out-pub", str(tmp_path / "a"), "--out-priv", str(tmp_path / "b"),
        )
        assert code == 3
        assert "BoundsInfeasible" in err


def write_scheme1_keys(tmp_path):
    pub = tmp_path / "s1.pub"
    priv = tmp_path / "s1.priv"
    pub.write_text(serialize_fields("I", "PUBLIC", {"r": 2, "N": PRIME_66_BIT}))
    priv.write_text(serialize_fields("I", "PRIVATE", {"p": 2, "q": 2}))
    return pub, priv


def write_scheme3_keys(tmp_path):
    pub = tmp_path / "s3.pub"
    priv = tmp_path / "s3.priv"
    triplets = [(2, 2, 2), (3, 3, 3), (2, 4, 8)]
    moduli = [PRIME_66_BIT, PRIME_57_BIT, PRIME_74_BIT]
    pub_fields = {"n": 3}
    for i, (p, q, r) in enumerate(triplets, start=1):
        pub_fields.update({f"p{i}": p, f"q{i}": q, f"r{i}": r})
    priv_fields = {"n": 3}
    for i, N in enumerate(moduli, start=1):
        priv_fields[f"N{i}"] = N
    pub.write_text(serialize_fields("III", "PUBLIC", pub_fields))
    priv.write_text(serialize_fields("III", "PRIVATE", priv_fields))
    return pub, priv


class TestEncryptDecryptFiles:
    def test_scheme1_file_roundtrip(self, capsys, tmp_path):
        pub, priv = write_scheme1_keys(tmp_path)
        msg = tmp_path / "msg.bin"
        ct = tmp_path / "msg.ct"
        out = tmp_path / "msg.out"
        msg.write_bytes(bytes(range(256)) * 3)
        code, _, _ = invoke(
            capsys, "encrypt", "--scheme", "I", "--pub", str(pub), "--priv", str(priv),
            "--in", str(msg), "--out", str(ct), "--seed", "7",
        )
        assert code == 0
        assert ct.read_text().startswith("BSCT v1 scheme=I")
        code, _, _ = invoke(
            capsys, "decrypt", "--scheme", "I", "--pub", str(pub), "--priv", str(priv),
            "--in", str(ct), "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == msg.read_bytes()

    def test_scheme3_file_roundtrip(self, capsys, tmp_path):
        pub, priv = write_scheme3_keys(tmp_path)
        msg = tmp_path / "m.bin"
        ct = tmp_path / "m.ct"
        out = tmp_path / "m.out"
        msg.write_bytes(b"alpha" * 40)
        args = ["--pub", str(pub), "--priv", str(priv), "--partition", "100,60,40",
                "--split-I", "2"]
        code, _, _ = invoke(
            capsys, "encrypt", "--scheme", "III", *args,
            "--in", str(msg), "--out", str(ct), "--seed", "9",
        )
        assert code == 0
        code, _, _ = invoke(
            capsys, "decrypt", "--scheme", "III", *args, "--in", str(ct),
            "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == msg.read_bytes()

    def test_scheme3_without_partition_is_usage_error(self, capsys, tmp_path):
        pub, priv = write_scheme3_keys(tmp_path)
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"abcd")
        with pytest.raises(SystemExit) as exc:
            run(["encrypt", "--scheme", "III", "--pub", str(pub), "--priv", str(priv),
                 "--in", str(msg), "--out", str(tmp_path / "m.ct")])
        assert exc.value.code == 2
        assert "scheme III needs --partition" in capsys.readouterr().err
        assert not (tmp_path / "m.ct").exists()

    def test_negative_partition_is_domain_error(self, capsys, tmp_path):
        pub, priv = write_scheme3_keys(tmp_path)
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"abcd")
        code, _, err = invoke(
            capsys, "encrypt", "--scheme", "III", "--pub", str(pub), "--priv", str(priv),
            "--partition=-2,3,3", "--in", str(msg), "--out", str(tmp_path / "m.ct"),
        )
        assert code == 3
        assert "error: PartitionMismatch" in err

    @pytest.mark.parametrize("fault", ["scheme", "role"])
    @pytest.mark.parametrize("half", ["public", "private"])
    def test_wrong_key_file_scheme(self, capsys, tmp_path, half, fault):
        # a scheme I request where one half is a scheme II file or the other role
        keys = dict(zip(("public", "private"), write_scheme1_keys(tmp_path)))
        wrong = tmp_path / "wrong.key"
        if fault == "role":
            wrong.write_text(keys["private" if half == "public" else "public"].read_text())
        elif half == "public":
            wrong.write_text(serialize_fields("II", "PUBLIC", {"p": 2, "q": 2, "r": 2}))
        else:
            wrong.write_text(serialize_fields("II", "PRIVATE", {"N": PRIME_66_BIT}))
        keys[half] = wrong
        msg = tmp_path / "x.bin"
        msg.write_bytes(b"hi")
        code, _, err = invoke(
            capsys, "encrypt", "--scheme", "I", "--pub", str(keys["public"]),
            "--priv", str(keys["private"]), "--in", str(msg),
            "--out", str(tmp_path / "x.ct"),
        )
        assert code == 3
        assert "error: SchemeMismatch" in err

    def test_malformed_ciphertext_is_domain_error(self, capsys, tmp_path):
        pub, priv = write_scheme1_keys(tmp_path)
        ct = tmp_path / "bad.ct"
        ct.write_text("BSCT v1 scheme=I blocks=1\n12345\n")
        code, _, err = invoke(
            capsys, "decrypt", "--scheme", "I", "--pub", str(pub), "--priv", str(priv),
            "--in", str(ct), "--out", str(tmp_path / "bad.out"),
        )
        assert code == 3
        assert "error: SchemeMismatch" in err


    def test_shifted_pair_is_domain_error(self, capsys, tmp_path):
        # adding N to x leaves x^p unchanged, so it must be refused, not decrypted
        pub, priv = write_scheme1_keys(tmp_path)
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"malleable?")
        ct = tmp_path / "m.ct"
        keys = ["--scheme", "I", "--pub", str(pub), "--priv", str(priv)]
        invoke(capsys, "encrypt", *keys, "--in", str(msg), "--out", str(ct), "--seed", "1")
        header, first, *rest = ct.read_text().splitlines()
        x, y = map(int, first.split())
        for shifted in (f"{x + PRIME_66_BIT} {y}", f"{x} {y + PRIME_66_BIT}", f"{-x} {y}"):
            ct.write_text("\n".join([header, shifted, *rest]) + "\n")
            code, _, err = invoke(
                capsys, "decrypt", *keys, "--in", str(ct), "--out", str(tmp_path / "o")
            )
            assert code == 3
            assert "error: SchemeMismatch" in err


class TestFileErrors:
    """Unreadable, missing or undecodable files exit 3 with a named error."""

    def decrypt(self, capsys, pub, priv, infile, out):
        return invoke(
            capsys, "decrypt", "--scheme", "I", "--pub", str(pub), "--priv", str(priv),
            "--in", str(infile), "--out", str(out),
        )

    def assert_file_error(self, result):
        code, out, err = result
        assert code == 3
        assert err.startswith("error: FileAccessError: ")
        assert "Traceback" not in err

    @pytest.fixture
    def files(self, tmp_path):
        pub, priv = write_scheme1_keys(tmp_path)
        msg = tmp_path / "m.bin"
        msg.write_bytes(b"hello")
        return pub, priv, msg, tmp_path / "m.ct", tmp_path / "m.out"

    @pytest.mark.parametrize("role", ["pub", "priv", "in"])
    @pytest.mark.parametrize("problem", ["missing", "directory", "not-utf8"])
    def test_decrypt_inputs(self, capsys, tmp_path, files, role, problem):
        pub, priv, msg, ct, out = files
        code, _, _ = invoke(
            capsys, "encrypt", "--scheme", "I", "--pub", str(pub), "--priv", str(priv),
            "--in", str(msg), "--out", str(ct), "--seed", "3",
        )
        assert code == 0
        bad = tmp_path / "bad"
        if problem == "directory":
            bad.mkdir()
        elif problem == "not-utf8":
            bad.write_bytes(b"BSKEY v1 \xff\xfe\n")
        paths = {"pub": pub, "priv": priv, "in": ct, role: bad}
        self.assert_file_error(
            self.decrypt(capsys, paths["pub"], paths["priv"], paths["in"], out)
        )

    def test_missing_plaintext(self, capsys, tmp_path, files):
        pub, priv, _, ct, _ = files
        self.assert_file_error(invoke(
            capsys, "encrypt", "--scheme", "I", "--pub", str(pub), "--priv", str(priv),
            "--in", str(tmp_path / "nonexistent"), "--out", str(ct),
        ))

    def test_unwritable_output(self, capsys, tmp_path, files):
        pub, priv, msg, _, _ = files
        self.assert_file_error(invoke(
            capsys, "encrypt", "--scheme", "I", "--pub", str(pub), "--priv", str(priv),
            "--in", str(msg), "--out", str(tmp_path / "no" / "such" / "dir"),
        ))


def write_scheme2_keys(tmp_path):
    pub = tmp_path / "s2.pub"
    priv = tmp_path / "s2.priv"
    pub.write_text(serialize_fields("II", "PUBLIC", {"p": 2, "q": 4, "r": 8}))
    priv.write_text(serialize_fields("II", "PRIVATE", {"N": PRIME_74_BIT}))
    return pub, priv


def exit_code(argv):
    """run(argv) with output discarded; argparse's SystemExit gives its code.

    Any other exception escapes, which is the traceback a user would see.
    """
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return run(argv)
        except SystemExit as exc:
            return exc.code


def splice(valid: bytes):
    """Arbitrary bytes, or valid bytes with one span replaced by arbitrary ones."""
    piece = st.one_of(st.binary(max_size=16), st.text(max_size=16).map(str.encode))
    edit = st.tuples(st.integers(0, len(valid)), st.integers(0, 16), piece).map(
        lambda e: valid[: e[0]] + e[2] + valid[e[0] + e[1]:]
    )
    return st.one_of(st.binary(max_size=200), edit)


class TestArbitraryFileBytes:
    """No bytes in --in, --pub or --priv end in a traceback: exit 0, 2 or 3."""

    SCHEME_ARGS = {"I": [], "II": [], "III": ["--split-I", "2"]}
    MESSAGE = b"arbitrary-bytes robustness message"

    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("valid")
        files = {}
        for scheme, write in (("I", write_scheme1_keys),
                              ("II", write_scheme2_keys),
                              ("III", write_scheme3_keys)):
            pub, priv = write(base)
            msg, ct = base / f"{scheme}.msg", base / f"{scheme}.ct"
            msg.write_bytes(self.MESSAGE)
            assert exit_code(self.crypt_argv(
                "encrypt", scheme, pub, priv, msg, ct, len(self.MESSAGE)
            ) + ["--seed", "1"]) == 0
            files[scheme] = {n: p.read_bytes() for n, p in
                             (("pub", pub), ("priv", priv), ("in", ct))}
        return files

    def crypt_argv(self, command, scheme, pub, priv, infile, outfile, size):
        argv = [command, "--scheme", scheme, "--pub", str(pub), "--priv", str(priv),
                "--in", str(infile), "--out", str(outfile)]
        argv += self.SCHEME_ARGS[scheme]
        if scheme == "III" and command == "encrypt":
            third = size // 3
            argv += ["--partition", f"{third},{third},{size - 2 * third}"]
        return argv

    def run_with(self, tmp_path_factory, command, scheme, contents, size=0):
        base = tmp_path_factory.mktemp("fuzz")
        paths = {}
        for name, data in contents.items():
            paths[name] = base / name
            paths[name].write_bytes(data)
        argv = self.crypt_argv(command, scheme, paths["pub"], paths["priv"],
                               paths["in"], base / "out", size)
        return exit_code(argv)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), scheme=st.sampled_from(["I", "II", "III"]),
           name=st.sampled_from(["pub", "priv", "in"]))
    def test_decrypt(self, tmp_path_factory, valid, data, scheme, name):
        contents = dict(valid[scheme])
        contents[name] = data.draw(splice(contents[name]), label=name)
        code = self.run_with(tmp_path_factory, "decrypt", scheme, contents)
        assert code in (0, 2, 3)

    @settings(max_examples=60, deadline=None)
    @given(msg=st.binary(max_size=120), scheme=st.sampled_from(["I", "II", "III"]))
    def test_encrypt(self, tmp_path_factory, valid, msg, scheme):
        contents = {**valid[scheme], "in": msg}
        code = self.run_with(tmp_path_factory, "encrypt", scheme, contents, len(msg))
        assert code in (0, 2, 3)


class TestSubprocessDeterminism:
    def run_cli(self, args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "bealschur.cli", *args],
            capture_output=True, cwd=cwd,
        )

    def test_seeded_runs_are_byte_identical(self, tmp_path):
        pub, priv = write_scheme1_keys(tmp_path)
        msg = tmp_path / "msg.bin"
        msg.write_bytes(b"determinism across processes")
        outputs = []
        for tag in ("a", "b"):
            ct = tmp_path / f"ct.{tag}"
            kpub = tmp_path / f"kp.{tag}"
            kpriv = tmp_path / f"ks.{tag}"
            r1 = self.run_cli(
                ["keygen", "--scheme", "kg2", "--max-exp", "4", "--prime-bits",
                 "18..24", "--seed", "31337", "--out-pub", str(kpub),
                 "--out-priv", str(kpriv)], tmp_path,
            )
            r2 = self.run_cli(
                ["encrypt", "--scheme", "I", "--pub", str(pub), "--priv", str(priv),
                 "--in", str(msg), "--out", str(ct), "--seed", "31337"], tmp_path,
            )
            r3 = self.run_cli(
                ["verify", "--p", "2", "--q", "2", "--r", "2", "--modulus", "2053"],
                tmp_path,
            )
            assert r1.returncode == 0 and r2.returncode == 0 and r3.returncode == 0
            outputs.append(
                (r1.stdout, r2.stdout, r3.stdout,
                 ct.read_bytes(), kpub.read_bytes(), kpriv.read_bytes())
            )
        assert outputs[0] == outputs[1]
