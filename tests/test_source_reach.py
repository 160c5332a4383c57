"""Dead-source guard: every top-level function and class in src/bundleflow is
referenced from src or perfbench, not only from tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bundleflow"

# Reached only from tests on purpose: independent references that the
# density-flow tests compare be_rhs against, computed apart from it.
ALLOWED = {
    "grad_norm_sq_field": "independent reference for be_rhs's |grad f|^2 term",
    "drift_laplacian_field": "independent reference for be_rhs's drift Laplacian",
}


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names a module reads; imports do not count (the package ``__init__``
    only re-exports), and neither does the body of ``skip``."""
    found, renamed = set(), {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            renamed.update((a.asname, a.name) for a in node.names if a.asname)
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return found | {name for alias, name in renamed.items() if alias in found}


def test_every_definition_is_reached_outside_tests():
    sources = {p: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    outside = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _references(ast.parse(path.read_text(encoding="utf-8")))
    read_by = {path: _references(tree) for path, tree in sources.items()}
    unreached = []
    for path, tree in sources.items():
        elsewhere = outside.union(*(refs for p, refs in read_by.items() if p != path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in ALLOWED:
                continue
            if node.name not in elsewhere and node.name not in _references(tree, skip=node):
                unreached.append(f"{path.name}:{node.name}")
    assert not unreached, f"reached only from tests (or nowhere): {unreached}"
