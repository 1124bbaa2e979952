"""Every Python file of the project parses as Python 3.10, the oldest
version ``pyproject.toml`` allows, whatever version runs the tests.

``ast.parse`` with ``feature_version=(3, 10)`` rejects syntax that came
later, such as ``except*``.  It catches syntax only: a call of a
standard-library function added after 3.10 parses, and only a run on 3.10
finds it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(path for folder in ("src", "tests", "perfbench")
               for path in (ROOT / folder).rglob("*.py"))


def test_every_folder_has_python_files():
    for folder in ("src", "tests", "perfbench"):
        assert any(ROOT / folder in path.parents for path in FILES)


@pytest.mark.parametrize("path", FILES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


def test_newer_syntax_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=(3, 10))
