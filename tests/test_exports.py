import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kcbs_qkd

MODULES = ["kcbs_qkd"] + [f"kcbs_qkd.{m.name}" for m in pkgutil.iter_modules(kcbs_qkd.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    # every exported name must exist, also after a name moves or is deleted
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists missing names {missing}"


def test_private_names_are_read():
    # a top-level private name that nothing in the package reads is dead code
    package = Path(kcbs_qkd.__file__).parent
    trees = {p.name: ast.parse(p.read_text()) for p in package.glob("*.py")}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private = (n for n in names if n.startswith("_") and not n.startswith("__"))
            defined.update((name, module) for name in private)
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{module}: {name}" for name, module in defined.items() if name not in read)
    assert not unread, f"private names never read in the package: {unread}"
