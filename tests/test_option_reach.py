"""Options guard: every defaulted parameter of a top-level function or method
in src/bundleflow is passed by some call in src or perfbench, so no keyword
stays on the API with only its default ever in use."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bundleflow"


def _options(path: pathlib.Path, tree: ast.Module):
    """(call name, label, positional parameters, defaulted parameters) of each
    top-level function and each method of a top-level class; a class is called
    by its name for ``__init__``, and nested functions are skipped."""
    for node in tree.body:
        members = [(node.name, node, 0)] if isinstance(node, ast.FunctionDef) else []
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    call = node.name if item.name == "__init__" else item.name
                    members.append((call, item, 0 if static else 1))
        for call, fn, offset in members:
            a = fn.args
            positional = [p.arg for p in a.posonlyargs + a.args]
            defaulted = positional[len(positional) - len(a.defaults):] if a.defaults else []
            defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            label = f"{path.name}:{fn.name if fn is node else f'{node.name}.{fn.name}'}"
            yield call, label, positional[offset:], set(defaulted)


def _calls(tree: ast.Module):
    """(called name, parameters it passes: positional count or None for all,
    keyword names or None for all), with ``import ... as`` aliases resolved."""
    aliases = {a.asname: a.name for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names if a.asname}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name):
            name = aliases.get(node.func.id, node.func.id)
        elif isinstance(node.func, ast.Attribute):
            name = node.func.attr
        else:
            continue
        starred = [i for i, arg in enumerate(node.args) if isinstance(arg, ast.Starred)]
        keywords = {k.arg for k in node.keywords}
        yield name, (None if starred else len(node.args)), (None if None in keywords else keywords)


def test_every_option_is_passed_outside_tests():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    passed: dict[str, list] = {}
    for tree in trees.values():
        for name, n_positional, keywords in _calls(tree):
            passed.setdefault(name, []).append((n_positional, keywords))
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for call, label, positional, defaulted in _options(path, tree):
            for param in sorted(defaulted):
                index = positional.index(param) if param in positional else None
                if not any(keywords is None or param in keywords
                           or n is None or (index is not None and index < n)
                           for n, keywords in passed.get(call, [])):
                    unused.append(f"{label}({param})")
    assert not unused, f"options no call in src or perfbench passes: {unused}"
