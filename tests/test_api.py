import importlib
import pkgutil

import pytest

import relaxbdf

MODULES = ["relaxbdf"] + [
    f"relaxbdf.{info.name}" for info in pkgutil.iter_modules(relaxbdf.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    # Tools that walk the public API (the benchmark's tracer among them) call
    # getattr on every __all__ entry; a stale entry would only fail there.
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
