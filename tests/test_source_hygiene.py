"""Dead code in the package, found with ``ast`` since no linter is a
dependency: a private top-level name nothing loads, or an import its
module neither uses nor re-exports."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oceval"


def _trees():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) > 10  # the package was found
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}


def _loaded(tree):
    """Every name the module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_private_top_level_name_is_loaded_somewhere_in_the_package():
    trees = _trees()
    loaded = set().union(*map(_loaded, trees.values()))
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            unused += [
                f"{name}:{node.lineno} {d}"
                for d in defined
                if d.startswith("_") and not d.startswith("__") and d not in loaded
            ]
    assert unused == []


def test_every_import_is_used_or_exported_by_its_module():
    unused = []
    for name, tree in _trees().items():
        if name == "__init__.py":  # the package's public surface
            continue
        used = _loaded(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {alias.name}")
    assert unused == []
