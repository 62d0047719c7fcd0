"""Rules every module of src/ keeps, read from the source text."""

import ast
import pathlib
import re

import milnorforge

PACKAGE = pathlib.Path(milnorforge.__file__).parent


def _lines_matching(pattern: str) -> list[str]:
    rx = re.compile(pattern)
    return [f"{path.relative_to(PACKAGE.parent)}:{n}: {line}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if rx.search(line)]


def test_no_assert_statements():
    # python -O strips them; checks that must hold raise instead
    assert _lines_matching(r"^\s*assert\b") == []


def test_no_function_level_imports():
    # every import sits at the top of its module: no indented `import x`,
    # `from x import y` or `from . import y`
    assert _lines_matching(r"^\s+(import\s|from\s+\S+\s+import\b)") == []


def test_cli_and_checks_import_no_private_library_names():
    # the command-line driver only parses, dispatches and renders, and the
    # sampled checks call the library's public API: no relative import in
    # either may bring in an underscore-prefixed name
    bad = [f"{name} line {n.lineno}: {a.name}"
           for name in ("cli.py", "checks.py")
           for n in ast.walk(ast.parse((PACKAGE / name).read_text()))
           if isinstance(n, ast.ImportFrom) and n.level
           for a in n.names if a.name.startswith("_")]
    assert bad == []
