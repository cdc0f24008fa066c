"""No stale imports or unreached definitions in the library.

Every name a module-level import in src/pdmtpt binds must be read in its
module or listed in its `__all__`.  The only exemption is a name that
perfbench/tracing.py `TARGETS` resolves on that module: the benchmark wraps
the attribute there, so the module keeps it bound even where its own code no
longer calls it.  The exemption is read from that file, so a name stops being
exempt as soon as the benchmark stops tracing it.

Every top-level function and class in src/pdmtpt is reached: src code reads
it outside its own definition, the package exports it, it is a `cli.cmd_*`
command, or `TARGETS` resolves it.  Once the benchmark stops tracing a name
that nothing else reaches, this names it for deletion.  Every top-level
function of tests/references.py is read too: by a test module or by
tests/output_diff.py that imports it from `references`, or by another
reference.

No module imports an underscore-prefixed name, or any name of an
underscore-prefixed module, from a sibling either: what a module keeps
private stays its own.  The public names of `_lazy`, the lazy NumPy and
LAPACK loader every array module imports, are the one exemption.

No module but dsusy_core names `Family`: `DeformingFunction` is the one
place that knows which family a well belongs to.

Every import sits at module level, where `python -X importtime` times it
on a cold start and the stale-import test above reads the names it binds.
The one exemption is `_lazy.lapack`'s `import scipy`, which defers SciPy
until the oracle first needs LAPACK.
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


def _public(path: pathlib.Path) -> set[str]:
    """The names a module defines at its top level without a leading underscore."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


LAZY = _public(SRC / "_lazy.py")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_a_sibling(path):
    private = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            module = node.module or ""
        elif node.level == 0 and (node.module or "").startswith("pdmtpt."):
            module = node.module[len("pdmtpt."):]
        else:
            continue
        for alias in node.names:
            if module == "_lazy" and alias.name in LAZY:
                continue
            if alias.name.startswith("_") or module.startswith("_"):
                private.append(f"{module}.{alias.name} (line {node.lineno})")
    assert private == [], f"{path.name} imports private names of siblings: {private}"



MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}

def _origin(stem: str, name: str) -> str:
    """The module whose top level defines `name` as module `stem` binds it."""
    for node in MODULES[stem].body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if any((alias.asname or alias.name) == name for alias in node.names):
                return node.module
    return stem


def _reached() -> set[tuple[str, str]]:
    """(module, name) of each `cli.cmd_*` command, each name the package
    exports or `TARGETS` resolves, and each top-level name src code reads
    outside its own definition."""
    out = {
        ("cli", node.name)
        for node in MODULES["cli"].body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
    }
    out.update((_origin("__init__", n), n) for n in _assigned(MODULES["__init__"], "__all__"))
    for module, attrs in TRACED.items():
        for attr in attrs:
            # a row on a class wraps its method, and reaches the class
            _, stem, name, *_ = f"{module}.{attr}".split(".")
            out.add((_origin(stem, name), name))
    for stem, tree in MODULES.items():
        for node in tree.body:
            own = getattr(node, "name", None)
            out.update(
                (_origin(stem, n.id), n.id)
                for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id != own
            )
    return out


def test_every_function_and_class_is_reached():
    defined = {
        (stem, node.name)
        for stem, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert sorted(defined - _reached()) == [], "nothing reaches these: delete them"


def _mentioned(tree: ast.Module):
    """Every name, attribute and imported name in `tree`."""
    for n in ast.walk(tree):
        if isinstance(n, ast.alias):
            yield from (n.name, n.asname)
        elif isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_only_dsusy_core_names_the_family():
    # DeformingFunction decides the family; every other module asks it
    naming = sorted(stem for stem, tree in MODULES.items() if "Family" in _mentioned(tree))
    assert naming == ["dsusy_core"]


def test_every_import_is_at_module_level():
    # each import inside a function or class body, by top-level definition
    nested = sorted(
        f"{stem}.{top.name}: {ast.unparse(node)}"
        for stem, tree in MODULES.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(top)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    assert nested == ["_lazy.lapack: import scipy"]


TESTS = ROOT / "tests"


def _read_names(tree: ast.Module, skip: str = "") -> set[str]:
    """The names read in `tree` outside its top-level definition `skip`."""
    return {
        n.id
        for node in tree.body
        if getattr(node, "name", None) != skip
        for n in ast.walk(node)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def test_every_reference_is_read():
    refs = ast.parse((TESTS / "references.py").read_text(encoding="utf-8"))
    defined = {node.name for node in refs.body if isinstance(node, ast.FunctionDef)}
    read = {name for name in defined if name in _read_names(refs, skip=name)}
    for path in [*TESTS.glob("test_*.py"), TESTS / "output_diff.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = _read_names(tree)
        read.update(
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "references"
            for alias in node.names
            if (alias.asname or alias.name) in loaded
        )
    assert sorted(defined - read) == [], "no test reads these references: delete them"
