import importlib
import pkgutil

import pytest

import pickroute

# __main__ runs the CLI when imported
MODULES = ["pickroute"] + [f"pickroute.{m.name}" for m in pkgutil.iter_modules(pickroute.__path__)
                           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # a name deleted from a module but left in its __all__ would break
    # `from module import *` and mislead readers of the public API
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
