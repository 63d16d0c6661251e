"""The README's examples stay true: each CLI line that ends in
``# <expected stdout>`` prints exactly that, and the Library block runs."""

import re
from pathlib import Path

import pytest

from bealschur.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

CLI_EXAMPLES = re.findall(r"^bealschur ([^\n#]+?) +# ([^\n]+)$", README, re.MULTILINE)


def test_readme_has_cli_examples():
    assert len(CLI_EXAMPLES) >= 4


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES)
def test_cli_example_prints_its_comment(capsys, argv, expected):
    assert run(argv.split()) == 0
    assert capsys.readouterr().out == expected + "\n"


def test_library_block_runs(capsys):
    library = README[README.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert all(line.endswith(" pass") for line in lines[:-1])
    assert lines[-1].startswith("WITNESS ")
