"""No stale imports in the library.

Every name a module-level import in src/pdmtpt binds must be read in its
module or listed in its `__all__`.  The only exemption is a name that
perfbench/tracing.py `TARGETS` resolves on that module: the benchmark wraps
the attribute there, so the module keeps it bound even where its own code no
longer calls it.  The exemption is read from that file, so a name stops being
exempt as soon as the benchmark stops tracing it.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pdmtpt"


def _assigned(tree: ast.Module, name: str):
    """The literal value of the module-level assignment to `name`, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    return None


def _traced() -> dict[str, set[str]]:
    """Module name -> the attribute names `TARGETS` resolves on it."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    targets = _assigned(tree, "TARGETS")
    assert targets, "perfbench/tracing.py defines no TARGETS"
    out: dict[str, set[str]] = {}
    for module, attr, *_ in targets:
        out.setdefault(module, set()).add(attr)
    return out


TRACED = _traced()


def _imported(tree: ast.Module):
    """(name, line) for each name a module-level import binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_level_import_is_read_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    module = "pdmtpt" if path.stem == "__init__" else f"pdmtpt.{path.stem}"
    kept = read | set(_assigned(tree, "__all__") or ()) | TRACED.get(module, set())
    stale = [f"{name} (line {line})" for name, line in _imported(tree) if name not in kept]
    assert stale == [], f"{path.name} imports names it never reads: {stale}"
