import importlib
import pkgutil

import pytest

import kcbs_qkd

MODULES = ["kcbs_qkd"] + [f"kcbs_qkd.{m.name}" for m in pkgutil.iter_modules(kcbs_qkd.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    # every exported name must exist, also after a name moves or is deleted
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ lists missing names {missing}"
