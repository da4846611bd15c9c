"""Every Python file of the package, its tests and its benchmark parses as
the oldest Python that ``pyproject.toml`` admits (``requires-python``)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(path for top in ("src", "tests", "perfbench")
                 for path in (ROOT / top).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
