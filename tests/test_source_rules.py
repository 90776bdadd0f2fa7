"""Source rules the package keeps: no `assert` statement in any module,
whose check would vanish under `python -O`; no claim reaching into the
private arithmetic kernel, so that the claims stay independent of it; one
owner of the key format, the kernel; no use of `numpy.random`, whose lazy
import is paid on first use; and no generated code (dataclasses,
namedtuples, exec or eval), which every fresh process would pay for at
import."""

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


@pytest.mark.parametrize("path", [p for p in CHECKED if p != SRC / "oracle" / "kernel.py"],
                         ids=lambda p: p.relative_to(SRC).as_posix())
def test_only_the_kernel_knows_the_key_format(path):
    """How a matrix becomes a key is the kernel's alone: other modules take
    the codec of the cached kernel, _kernel(fld, d).codec, with its width
    and its identity key, and never name the codec factory or the bits
    per entry."""
    tree = ast.parse(path.read_text(), filename=str(path))
    private = ("_make_codec", "_bits")
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in private
             or isinstance(node, ast.Attribute) and node.attr in private
             or isinstance(node, ast.alias) and node.name in private]
    assert lines == [], f"the key format named outside the kernel at lines {lines}"


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_numpy_random(path):
    """numpy imports numpy.random lazily, and the first use costs 9.5-20 ms per
    process, more than most claims."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            hit = (node.attr == "random" and isinstance(node.value, ast.Name)
                   and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Import):
            hit = any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            hit = module[:2] == ["numpy", "random"] or (
                module == ["numpy"] and any(a.name == "random" for a in node.names))
        else:
            continue
        if hit:
            lines.append(node.lineno)
    assert lines == [], f"numpy.random used at lines {lines}"


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_generated_code(path):
    """dataclasses exec the methods they generate each time their module is
    imported: 7-13 ms of every fresh process for the package's twelve
    records, which are plain classes on omega.record.Record instead;
    namedtuple (and typing.NamedTuple, built on it) evals its class source,
    0.22-0.27 ms per process for three, so results are plain tuples; nor
    does any module call exec or eval."""
    tree = ast.parse(path.read_text(), filename=str(path))
    tuple_factories = ("namedtuple", "NamedTuple")
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (not node.level and (node.module or "").split(".")[0] == "dataclasses"
                   or any(a.name in tuple_factories for a in node.names))
        elif isinstance(node, ast.Call):
            hit = isinstance(node.func, ast.Name) and node.func.id in ("exec", "eval")
        elif isinstance(node, ast.Attribute):
            hit = node.attr in tuple_factories
        elif isinstance(node, ast.Name):
            hit = node.id in tuple_factories
        else:
            continue
        if hit:
            lines.append(node.lineno)
    assert lines == [], f"dataclasses, namedtuple, exec or eval used at lines {lines}"
