"""The README's instructions work as written: its Python quick start runs and
gives the values its comments state, the ``test`` extra it installs names
every package the test modules import, and its domain exit codes are the
ones the error classes carry."""

import ast
import re
import sys
from pathlib import Path

import pytest

from mixent import errors

ROOT = Path(__file__).resolve().parents[1]


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1, "the README holds one python block, the quick start"
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    cls, report, quality = namespace["cls"], namespace["report"], namespace["quality"]
    assert cls.recoverable == (0,)
    assert report.verdict == "strict"
    assert abs(report.gap - 0.154) < 5e-4
    assert quality.success


def test_test_extra_names_every_test_import():
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    named = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in extra}
    imported = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    provided = set(sys.stdlib_module_names) | {"mixent", "numpy", "scipy"}
    assert sorted(imported - provided - named) == []


def test_readme_domain_exit_codes_match_error_classes():
    readme = (ROOT / "README.md").read_text()
    line = readme.split("\nDomain codes: ", 1)[1].split("\n\n", 1)[0]
    documented = {name: int(code) for code, name in re.findall(r"\b(\d+) (\w+)", line)}
    # UsageError carries 2, the usage code of the table above the line.
    carried = {
        c.__name__: c.exit_code
        for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, errors.MixentError)
        and c not in (errors.MixentError, errors.UsageError)
    }
    assert documented == carried
