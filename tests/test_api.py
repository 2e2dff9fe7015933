import importlib
import pkgutil

import pytest

import kirbyfront

MODULES = sorted(m.name for m in pkgutil.iter_modules(kirbyfront.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"kirbyfront.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"kirbyfront.{name}.{attr}"


@pytest.mark.parametrize("attr", ["MoveError", "mirror_events"])
def test_shared_names_are_one_object(attr):
    from kirbyfront import diagram, moves, wordops

    objs = {id(getattr(m, attr)) for m in (diagram, wordops, moves, kirbyfront)}
    assert len(objs) == 1
