import dataclasses
import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_no_public_callable_takes_a_trace(name):
    """A trace is shared only through the memo of ``trace_components``."""
    module = importlib.import_module(f"kirbyfront.{name}")
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        assert "tr" not in inspect.signature(obj).parameters, f"kirbyfront.{name}.{attr}"


def test_one_result_type_without_a_trace():
    from kirbyfront import moves, wordops

    assert moves.MoveResult is wordops.MoveResult
    assert "trace" not in {f.name for f in dataclasses.fields(wordops.MoveResult)}
