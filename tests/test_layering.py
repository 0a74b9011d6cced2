"""Layering and dead-export guards: two AST walks over ``src/repro``.

* Nothing below the top layer imports it: only ``experiments/`` itself,
  ``cli.py`` and the root ``__init__`` (which re-exports every layer) may
  import ``repro.experiments``.
* Every name a package exports through ``__all__`` is referenced somewhere
  other than the module that defines it and the ``__init__`` that re-exports
  it -- in ``src``, ``tests``, ``benchmarks``, ``docs`` or the README -- so an
  export nothing uses fails here instead of accumulating.
"""

import ast
import os
import re

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE_ROOT = os.path.join(REPO_ROOT, "src", "repro")


def _files(root, suffixes):
    for directory, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(suffixes):
                yield os.path.join(directory, name)


def _read(path):
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _module_name(path):
    parts = os.path.relpath(path, os.path.dirname(PACKAGE_ROOT))[: -len(".py")].split(os.sep)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_modules(path):
    """Absolute dotted names of everything ``path`` imports."""
    package = _module_name(path).split(".")
    if not path.endswith("__init__.py"):
        package = package[:-1]
    for node in ast.walk(ast.parse(_read(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                yield f"{module}.{alias.name}"


def test_only_the_cli_imports_the_experiments_layer():
    offenders = []
    for path in _files(PACKAGE_ROOT, ".py"):
        relative = os.path.relpath(path, PACKAGE_ROOT)
        if relative in ("cli.py", "__init__.py") or relative.startswith("experiments" + os.sep):
            continue
        for module in _imported_modules(path):
            if module == "repro.experiments" or module.startswith("repro.experiments."):
                offenders.append(f"{relative} imports {module}")
    assert not offenders, offenders


def _exports(init_path):
    """``(name, defining file)`` for every ``__all__`` entry of a package."""
    tree = ast.parse(_read(init_path))
    directory = os.path.dirname(init_path)
    names = []
    origin = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            names = [element.value for element in node.value.elts]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                # ``from . import mod`` defines ``mod`` in mod itself.
                module = node.module.split(".")[0] if node.module else alias.name
                candidates = (
                    os.path.join(directory, module + ".py"),
                    os.path.join(directory, module, "__init__.py"),
                )
                origin[alias.asname or alias.name] = next(
                    (c for c in candidates if os.path.exists(c)), init_path
                )
    return [(name, origin.get(name, init_path)) for name in names]


def test_every_package_export_is_referenced_outside_its_definition():
    corpus = {
        path: _read(path)
        for root in ("src", "tests", "benchmarks", "docs")
        for path in _files(os.path.join(REPO_ROOT, root), (".py", ".md"))
    }
    readme = os.path.join(REPO_ROOT, "README.md")
    corpus[readme] = _read(readme)
    dead = []
    for init_path in _files(PACKAGE_ROOT, "__init__.py"):
        for name, defined_in in _exports(init_path):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(
                word.search(text)
                for path, text in corpus.items()
                if path not in (init_path, defined_in)
            ):
                dead.append(f"{os.path.relpath(init_path, REPO_ROOT)}: {name}")
    assert not dead, f"exported but referenced nowhere else: {dead}"
