"""Every name a module exports resolves, so that a deletion cannot leave a
stale entry behind in ``__all__``."""

import importlib
import pkgutil

import pytest

import qhagg

# __main__ runs the command line when imported
MODULES = ["qhagg"] + [f"qhagg.{m.name}" for m in pkgutil.iter_modules(qhagg.__path__)
                       if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
