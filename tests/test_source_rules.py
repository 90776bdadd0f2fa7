"""Source rules the package keeps: no `assert` statement in any module,
whose check would vanish under `python -O`, and no claim reaching into the
private arithmetic kernel, so that the claims stay independent of it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "omega"
CHECKED = sorted(SRC.rglob("*.py"))


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"assert statements at lines {lines}"


def test_claims_do_not_import_the_kernel():
    tree = ast.parse((SRC / "claims.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["omega" if node.level else "", node.module]))
            imported |= {base} | {f"{base}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not {m for m in imported if m.startswith("omega.oracle.kernel")}
