"""Every source file parses under the oldest Python that pyproject.toml
declares. Only the grammar is checked: the floor's interpreter need not
be installed."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_file_parses_at_the_declared_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    # tomllib is 3.11+, newer than the floor it would read
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()
    sources = sorted(path for folder in ("src", "tests", "demos") for path in (ROOT / folder).rglob("*.py"))
    assert len(sources) > 30  # the folders were found
    failures = []
    for path in sources:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=tuple(map(int, floor)))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []
