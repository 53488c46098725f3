"""README's command-line examples, op listing and library use, checked against the code."""

import re
import shlex
from pathlib import Path

import pytest

from ruledsurf import cli
from ruledsurf.verify import SUITES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _examples():
    """(argv, shown output) for each `$ ruledsurf ...` line in README's code blocks."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```", README, re.S | re.M):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M)[1:]:
            command, _, shown = chunk.partition("\n")
            argv = shlex.split(command[2:])
            assert argv[0] == "ruledsurf", command
            examples.append((argv[1:], shown.rstrip("\n") + "\n"))
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_output(capsys, argv, shown):
    code = cli.run(argv)
    assert capsys.readouterr().out == shown
    assert code == (1 if '"status": "input-error"' in shown else 0)


def test_readme_lists_exactly_the_registry_ops():
    listed = {group: ops.split(",")
              for group, ops in re.findall(r"^ruledsurf (\w+) +\{([^}]*)\}$", README, re.M)}
    expected = {group: list(ops) for group, (_, ops) in cli._GROUPS.items()}
    expected["verify"] = [*SUITES, "all"]  # verify's leaf takes a suite name
    assert listed == expected


def test_readme_library_use_shows_the_values_it_computes():
    # each `expression  # value` line of the Python block shows repr(expression)
    (block,) = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    namespace: dict = {}
    shown = 0
    for line in block.splitlines():
        code, _, value = line.partition("#")
        if value:
            assert repr(eval(code, namespace)) == value.strip(), line
            shown += 1
        else:
            exec(code, namespace)
    assert shown == 6
