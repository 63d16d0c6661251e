"""Per-layer timing and counters for the traced benchmark run.

The program has no spans of its own yet, so the benchmark wraps the public
functions of each bealschur module from the outside.  A module that did
``from .modmath import kth_root_mod`` looks the name up in its own
namespace, so every wrapper is installed where the caller looks the name up
(``triplets.kth_root_mod``, ``crypto.all_kth_roots``, ...), and the originals
are put back when the traced pass ends.

A layer's self time is its time minus the time of the wrapped calls nested
inside it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


def _add(tracer, name, n):
    tracer.counts[name] = tracer.counts.get(name, 0) + n


def _histogram_elements(tracer, args, result):
    _add(tracer, "counting.power_histogram.elements", int(args[1]))


def _roots(tracer, args, result):
    _add(tracer, "modmath.all_kth_roots.roots", len(result))


def _crypto_roots(tracer, args, result):
    # decryption takes exactly one all_kth_roots call per block
    _roots(tracer, args, result)
    _add(tracer, "crypto.root_calls", 1)
    _add(tracer, "crypto.root_candidates", len(result))


def _encoded_blocks(tracer, args, result):
    _add(tracer, "crypto.blocks", len(result))


def _decoded_blocks(tracer, args, result):
    _add(tracer, "crypto.blocks", len(args[0]))


def _residue_test(tracer, args, result):
    _add(tracer, "triplets.find_bs_pair.residue_tests", 1)


def _prime_candidate(tracer, args, result):
    _add(tracer, "keygen.prime_candidates", 1)


# (module, attribute looked up by the caller, layer, counter hook)
SITES = (
    ("cli", "run", "cli.run", None),
    ("counting", "power_histogram", "counting.power_histogram", _histogram_elements),
    ("counting", "count_solutions_exact", "counting.count_solutions_exact", None),
    ("counting", "count_solutions_fourier", "counting.count_solutions_fourier", None),
    ("counting", "count_trivial", "counting.count_trivial", None),
    ("counting", "verify_bound_chain", "counting.verify_bound_chain", None),
    ("crypto", "find_bs_pair", "triplets.find_bs_pair", None),
    ("keygen", "find_bs_pair", "triplets.find_bs_pair", None),
    ("triplets", "kth_residue_test", "triplets.kth_residue_test", _residue_test),
    ("triplets", "kth_root_mod", "modmath.kth_root_mod", None),
    ("modmath", "kth_root_mod", "modmath.kth_root_mod", None),
    ("crypto", "all_kth_roots", "modmath.all_kth_roots", _crypto_roots),
    ("keygen", "all_kth_roots", "modmath.all_kth_roots", _roots),
    ("modmath", "is_probable_prime", "modmath.is_probable_prime", None),
    ("keygen", "is_probable_prime", "modmath.is_probable_prime", _prime_candidate),
    ("crypto", "encode_message", "crypto.encode_message", _encoded_blocks),
    ("crypto", "decode_message", "crypto.decode_message", _decoded_blocks),
    ("crypto", "encrypt_I", "crypto.encrypt", None),
    ("crypto", "encrypt_II", "crypto.encrypt", None),
    ("crypto", "encrypt_III", "crypto.encrypt", None),
    ("crypto", "decrypt_I", "crypto.decrypt", None),
    ("crypto", "decrypt_II", "crypto.decrypt", None),
    ("crypto", "decrypt_III", "crypto.decrypt", None),
    ("keygen", "sample_indiscernible_prime", "keygen.sample_indiscernible_prime", None),
    ("keygen", "sample_intra_divisible_triplet", "keygen.sample_intra_divisible_triplet", None),
    ("keygen", "serialize_key", "keygen.serialize_key", None),
    ("keygen", "parse_key", "keygen.parse_key", None),
    ("keygen", "assemble_keypair", "keygen.assemble_keypair", None),
)

# Per-layer metrics of one pass.  A name ending in .calls, .s or .self_s
# reads that statistic of the layer named before it; other counts are
# counters kept by the hooks above.
COUNT_METRICS = (
    "cli.run.calls",
    "counting.power_histogram.calls",
    "counting.power_histogram.elements",
    "counting.count_solutions_fourier.calls",
    "triplets.find_bs_pair.calls",
    "triplets.find_bs_pair.residue_tests",
    "modmath.kth_root_mod.calls",
    "modmath.all_kth_roots.calls",
    "modmath.is_probable_prime.calls",
    "crypto.blocks",
    "keygen.sample_indiscernible_prime.calls",
    "keygen.prime_candidates",
    "keygen.sample_intra_divisible_triplet.calls",
)
TIME_METRICS = (
    "cli.run.self_s",
    "counting.power_histogram.s",
    "counting.count_solutions_exact.self_s",
    "counting.count_solutions_fourier.s",
    "counting.count_trivial.s",
    "counting.verify_bound_chain.self_s",
    "triplets.find_bs_pair.s",
    "modmath.kth_root_mod.s",
    "modmath.all_kth_roots.s",
    "modmath.is_probable_prime.s",
    "crypto.encode_message.s",
    "crypto.decode_message.s",
    "crypto.encrypt.self_s",
    "crypto.decrypt.self_s",
    "keygen.sample_indiscernible_prime.s",
    "keygen.serialize_key.s",
    "keygen.parse_key.s",
    "keygen.assemble_keypair.s",
)
RATIO_METRICS = (
    "triplets.find_bs_pair.accept_ratio",
    "modmath.all_kth_roots.roots_per_call",
    "crypto.root_candidates_per_block",
    "keygen.prime_accept_ratio",
)


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Collects calls, total and self time per layer, plus named counters."""

    def __init__(self):
        self.layers: dict[str, list] = {}  # layer -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._open: list[list[float]] = []  # nested time of each open call

    def wrap(self, layer, fn, hook):
        def traced(*args, **kwargs):
            nested = [0.0]
            self._open.append(nested)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += elapsed
                stat = self.layers.setdefault(layer, [0, 0.0, 0.0])
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - nested[0]
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _stat(self, layer, index):
        return self.layers.get(layer, (0, 0.0, 0.0))[index]

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything traced so far."""
        out = {}
        for name in COUNT_METRICS:
            layer, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self._stat(layer, 0)
            else:
                out[name] = self.counts.get(name, 0)
        for name in TIME_METRICS:
            layer, _, field = name.rpartition(".")
            out[name] = self._stat(layer, 2 if field == "self_s" else 1)
        find_calls = self._stat("triplets.find_bs_pair", 0)
        out["triplets.find_bs_pair.accept_ratio"] = _ratio(
            find_calls, out["triplets.find_bs_pair.residue_tests"]
        )
        out["modmath.all_kth_roots.roots_per_call"] = _ratio(
            self.counts.get("modmath.all_kth_roots.roots", 0),
            out["modmath.all_kth_roots.calls"],
        )
        out["crypto.root_candidates_per_block"] = _ratio(
            self.counts.get("crypto.root_candidates", 0),
            self.counts.get("crypto.root_calls", 0),
        )
        out["keygen.prime_accept_ratio"] = _ratio(
            out["keygen.sample_indiscernible_prime.calls"], out["keygen.prime_candidates"]
        )
        return out


@contextmanager
def installed(tracer: Tracer, modules: dict):
    """Install the wrappers of SITES into ``modules``; restore on exit."""
    saved = []
    try:
        for module_name, attr, layer, hook in SITES:
            module = modules[module_name]
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(layer, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
