"""The package's public names, and a caller for every library name."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import ensemble_repeater

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ensemble_repeater"


def test_every_exported_name_resolves():
    missing = [
        name
        for name in ensemble_repeater.__all__
        if not hasattr(ensemble_repeater, name)
    ]
    assert missing == []
    assert len(set(ensemble_repeater.__all__)) == len(ensemble_repeater.__all__)


def test_every_imported_name_is_read_or_exported():
    """Each library module reads every name it imports, and only the
    package's ``__init__`` may import a name just to export it through
    ``__all__``: a deletion leaves no stale import behind."""
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        reads = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        if path.name == "__init__.py":
            reads.update(ensemble_repeater.__all__)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in reads:
                    stale.append(f"{path.stem}: {name}")
    assert stale == []


def _attribute_reads(tree: ast.AST) -> Counter:
    """Attribute names a tree reads; a method is only ever called as one,
    so a local variable of the same name does not count."""
    return Counter(
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    )


def _references(tree: ast.AST) -> Counter:
    """Names a tree reads: loaded names, attributes and imported names."""
    found = _attribute_reads(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function, class and assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _methods(tree: ast.Module):
    """(class, name, node) of each method and property of each
    module-level class: its functions and its ``property(...)``
    assignments."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                yield cls.name, node.name, node
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id == "property"
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        yield cls.name, target.id, node


def _class_names(tree: ast.Module):
    """Names each module-level class defines: its methods, properties
    and fields."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                yield node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield target.id


def _imports(tree: ast.Module, name: str) -> bool:
    """Whether a module imports ``name`` from another."""
    return any(isinstance(node, ast.alias) and node.name == name for node in ast.walk(tree))


def _overrides(module: str, cls: str, name: str) -> bool:
    """Whether a base class of the library class defines ``name``."""
    bases = getattr(importlib.import_module(f"ensemble_repeater.{module}"), cls).__mro__[1:]
    return any(name in vars(base) for base in bases)


def test_every_library_name_has_a_caller():
    """A module-level name of the library that no code in ``src/`` or
    ``demos/`` reads, outside its own definition, and that ``__all__``
    does not export has no caller: it goes, or moves into its tests.
    So does a method or property of a library class that nothing there
    reads as an attribute, dunders aside, unless it overrides a base
    class's.  When another library definition shares the method's name,
    only a read in a module that defines or imports its class counts."""
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    refs = {path: _references(tree) for path, tree in trees.items()}
    used = sum(refs.values(), Counter())
    attrs = {path: _attribute_reads(tree) for path, tree in trees.items()}
    used_attrs = sum(attrs.values(), Counter())
    library = {path: tree for path, tree in trees.items() if path.parent == PACKAGE}
    defined = Counter()
    for tree in library.values():
        defined.update(name for name, _ in _definitions(tree))
        defined.update(_class_names(tree))

    def method_reads(home: Path, cls: str, name: str) -> int:
        if defined[name] <= 1:
            return used_attrs[name]
        return sum(
            attrs[path][name]
            for path, tree in trees.items()
            if path == home or _imports(tree, cls)
        )

    uncalled = [
        f"{path.stem}.{name}"
        for path, tree in library.items()
        for name, node in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in ensemble_repeater.__all__
        and used[name] <= _references(node)[name]
    ]
    uncalled += [
        f"{path.stem}.{cls}.{name}"
        for path, tree in library.items()
        for cls, name, node in _methods(tree)
        if not (name.startswith("__") and name.endswith("__"))
        and method_reads(path, cls, name) <= _attribute_reads(node)[name]
        and not _overrides(path.stem, cls, name)
    ]
    assert uncalled == []
