"""The package keeps only code that the package or the benchmark runs.

Every module-level function, class and method in src/seaweeds must have
its name loaded, read as an attribute or imported somewhere in
src/seaweeds or perfbench/, outside its own definition; a re-export in
`__init__.py` does not count.  Code that only tests need lives under
tests/ (see reference_impl.py).  The check reads names, not bindings, so
a caller of any same-named definition counts.  Every name a module of
src/seaweeds imports must also be loaded in that module.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = [p for p in sorted((ROOT / "src" / "seaweeds").glob("*.py"))
           if p.name != "__init__.py"]
CALLERS = PACKAGE + sorted((ROOT / "perfbench").glob("*.py"))

# The winding moves of ROADMAP item 5 (catalogs from the moves) build on it.
ALLOWED = {"generate_frobenius"}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(qualified name, node) of every module-level definition and method;
    dunder methods are left out, since Python calls them implicitly."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, DEFS)
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def _uses(node: ast.AST) -> Counter:
    """Names loaded, attributes read and names imported under node."""
    used: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            used[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            used.update(alias.name for alias in n.names)
    return used


def _uncalled() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in CALLERS}
    used: Counter = Counter()
    for tree in trees.values():
        used += _uses(tree)
    return [f"{path.stem}.{qualname}"
            for path in PACKAGE
            for qualname, node in _definitions(trees[path])
            if qualname not in ALLOWED
            and not used[node.name] - _uses(node)[node.name]]


def test_no_two_modules_define_the_same_name():
    """Each module-level function or class name of src/seaweeds is defined
    in one module only: the caller check above reads names, so a shared
    name could keep a dead definition alive."""
    homes: dict[str, list[str]] = {}
    for path in PACKAGE:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, DEFS):
                homes.setdefault(node.name, []).append(path.stem)
    shared = {name: stems for name, stems in homes.items() if len(stems) > 1}
    assert not shared, f"defined in more than one module: {shared}"


def test_every_package_definition_has_a_caller():
    uncalled = _uncalled()
    assert not uncalled, ("defined in src/seaweeds but never used by the "
                          f"package or perfbench/: {', '.join(uncalled)}")


def test_every_imported_name_is_used_in_its_module():
    """An import that a refactor leaves without a reader fails here: each
    name an import binds (its alias, else the imported name, else a dotted
    module's first part) is loaded somewhere in the importing module."""
    unused = []
    for path in sorted((ROOT / "src" / "seaweeds").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.stem}: {bound}" for bound in (
                    alias.asname or alias.name.split(".")[0]
                    for alias in node.names) if bound not in loaded]
    assert not unused, f"imported but never used: {', '.join(unused)}"



def test_benchmark_ratio_caches_are_package_lru_caches():
    """The benchmark's tracer reads cache_info() of every RATIO_CACHES
    name; a cache dropped or renamed in the package would raise KeyError
    in every traced run."""
    spec = importlib.util.spec_from_file_location(
        "layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for name in layertrace.RATIO_CACHES:
        layer, attr = name.split(".")
        cached = getattr(importlib.import_module(f"seaweeds.{layer}"), attr)
        assert callable(getattr(cached, "cache_info", None)), name
    counts = layertrace.cache_counts(layertrace.lru_caches())
    assert list(counts) == list(layertrace.RATIO_CACHES)
