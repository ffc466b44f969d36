"""A static scan of ``src/ncym``: every ``__all__`` entry names something its
module defines or imports, every module-level import is used, and every
private module-level name is read somewhere in the package, so that deleting
a function leaves no stale export, import or orphaned helper behind; every
public name a module imports from a sibling is in that sibling's ``__all__``."""

import ast
from pathlib import Path

import pytest

import ncym

MODULES = sorted(Path(ncym.__file__).parent.glob("*.py"))


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree: ast.Module) -> dict:
    """Each module-level import's bound name and its line."""
    return {alias.asname or alias.name.split(".")[0]: node.lineno
            for node in tree.body
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names}


def _definitions(tree: ast.Module) -> dict:
    """Each name a module-level def, class or assignment binds, and its line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((n.id, node.lineno) for t in targets for n in ast.walk(t)
                       if isinstance(n, ast.Name))
    return out


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["__all__"]:
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_export_resolves(path):
    tree = _parse(path)
    defined = set(_imports(tree)) | set(_definitions(tree))
    stale = [name for name in _exports(tree) if name not in defined]
    assert not stale, f"{path.name}: __all__ names {stale}, which the module does not define"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_module_level_import_is_used(path):
    tree = _parse(path)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    read.update(_exports(tree))
    unused = {name: line for name, line in _imports(tree).items() if name not in read}
    assert not unused, f"{path.name}: imported but never used (name: line) {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_public_names_imported_from_a_sibling_are_exported(path):
    """Every public name a module imports from a sibling, at any depth, is in
    that sibling's ``__all__``, where the sibling has one."""
    exports = {p.stem: names for p in MODULES if (names := _exports(_parse(p)))}
    unlisted = [(node.module, alias.name, node.lineno)
                for node in ast.walk(_parse(path))
                if isinstance(node, ast.ImportFrom) and node.level == 1
                and node.module in exports
                for alias in node.names
                if not alias.name.startswith("_") and alias.name not in exports[node.module]]
    assert not unlisted, f"{path.name}: imports names its sibling does not export {unlisted}"


def test_every_private_name_is_read():
    """Every private module-level function, class or constant (one leading
    underscore) is read by some module of the package: as a name, as a
    module attribute (``geometry._stencil``) or through an import."""
    trees = {path.stem: _parse(path) for path in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                read.update(alias.name for alias in node.names)
    orphans = [(stem, name, line) for stem, tree in trees.items()
               for name, line in _definitions(tree).items()
               if name.startswith("_") and not name.startswith("__") and name not in read]
    assert not orphans, f"private names no module reads (module, name, line) {orphans}"


# the slab readers of a connection's potential, by module; None is the
# whole module
SLAB_READERS = {
    "chern_weil": None,
    "levi_civita": None,
    "connections": ("_sampled_fields", "_split_fields", "_gluing_at", "_overlap_gluing",
                    "gluing_residuals"),
}


@pytest.mark.parametrize("module", sorted(SLAB_READERS))
def test_slab_readers_take_the_potential_from_its_accessor(module):
    """The slab readers take a chart's potential from
    ``OrdinaryConnection.slab_field``, which hands an analytic potential
    over by rows; none reads the whole-chart ``.A``, which would form it on
    every chart."""
    tree = _parse(next(p for p in MODULES if p.stem == module))
    names = SLAB_READERS[module]
    if names is None:
        scopes = [tree]
    else:
        defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert set(names) <= set(defs), f"{module}: no function {set(names) - set(defs)}"
        scopes = [defs[name] for name in names]
    reads = [(module, node.lineno) for scope in scopes for node in ast.walk(scope)
             if isinstance(node, ast.Attribute) and node.attr == "A"]
    assert not reads, f"whole-chart potential read at (module, line) {reads}"


def _scan_forbidden(tree: ast.Module) -> list:
    """The lines of ``tree`` that call ``np.meshgrid``, or that loop over the
    rows of a ``cols`` or ``weights`` array (``for c, w in zip(op.cols,
    op.weights)``) outside ``SamplingOperator.__matmul__``."""
    allowed = {id(node) for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name == "SamplingOperator"
               for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "__matmul__"
               for node in ast.walk(fn)}
    hits = [("np.meshgrid", node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "meshgrid"]
    for node in ast.walk(tree):
        if not isinstance(node, (ast.For, ast.comprehension)) or id(node) in allowed:
            continue
        it = node.iter
        parts = (it.args if isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                 and it.func.id in ("zip", "enumerate") else [it])
        if any(isinstance(p, ast.Attribute) and p.attr in ("cols", "weights") for p in parts):
            hits.append(("loop over stencil entries", it.lineno))
    return hits


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_rows_are_gathered_and_gridded_one_way(path):
    """Grid coordinates come from ``geometry.grid_points``, which calls no
    ``np.meshgrid``, and a weighted gather of first-axis rows is
    ``SamplingOperator @``: no other code walks an operator's entries."""
    hits = _scan_forbidden(_parse(path))
    assert not hits, f"{path.name}: (what, line) {hits}"
