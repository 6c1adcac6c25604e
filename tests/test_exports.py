"""Every name a module exports resolves, so that a deletion cannot leave a
stale entry behind in ``__all__``, and each name lives where it is owned."""

import importlib
import inspect
import pkgutil

import pytest

import qhagg
from qhagg import algebra, numerics

# __main__ runs the command line when imported
MODULES = ["qhagg"] + [f"qhagg.{m.name}" for m in pkgutil.iter_modules(qhagg.__path__)
                       if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_unit_function_owns_its_inverse():
    """``invert_monotone`` is the package's name of ``UnitFunction.invert``,
    and ``numerics`` builds inverses without reading a function's declared
    flags or private state."""
    assert qhagg.invert_monotone is qhagg.UnitFunction.invert
    assert algebra.invert_monotone is qhagg.UnitFunction.invert
    assert not hasattr(numerics, "invert_monotone")
    assert not hasattr(numerics, "ContractError")
    source = inspect.getsource(numerics)
    assert "continuous_bijection" not in source and "_kept_inverse" not in source
