"""The static import graph of ``repro`` modules, for the code-salt guards
of the two persistent caches: every module a cached value can depend on
must be in that cache's salt."""

import ast
import importlib.util


def module_imports(name: str) -> set[str]:
    """The ``repro`` modules one module's import statements name (a
    ``from pkg import sub`` counts the submodule, not the package)."""
    spec = importlib.util.find_spec(name)
    is_package = spec.origin.endswith("__init__.py")
    package = name if is_package else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(open(spec.origin).read())):
        if isinstance(node, ast.Import):
            found |= {alias.name for alias in node.names}
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        base = package
        for _ in range(max(node.level - 1, 0)):
            base = base.rpartition(".")[0]
        target = f"{base}.{node.module}" if node.level and node.module \
            else (base if node.level else node.module)
        for alias in node.names:
            sub = f"{target}.{alias.name}"
            found.add(sub if importlib.util.find_spec(target)
                      .submodule_search_locations is not None
                      and importlib.util.find_spec(sub) else target)
    return {module for module in found if module.startswith("repro.")}


def import_closure(roots) -> set[str]:
    """``roots`` and every ``repro`` module they import, transitively."""
    seen: set[str] = set()
    todo = list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(module_imports(name) - seen)
    return seen
