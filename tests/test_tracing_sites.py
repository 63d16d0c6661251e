"""The traced benchmark wraps names where callers look them up.

perfbench/tracing.py installs a wrapper at every (module, attribute) pair of
its SITES table.  A refactor that drops one of those imports (say
``keygen.is_probable_prime``) breaks the traced benchmark run, so every pair
must resolve on the package.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(site[0], site[1]) for site in module.SITES]


@pytest.mark.parametrize("module_name,attr", _sites())
def test_site_resolves(module_name, attr):
    module = importlib.import_module(f"bealschur.{module_name}")
    assert callable(getattr(module, attr, None)), f"bealschur.{module_name}.{attr}"
