"""Exception types: every one survives a round trip through pickle, as pool workers need."""

import inspect
import pickle

import pytest

from cascade_droop import errors

_CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, Exception) and cls.__module__ == errors.__name__
]


def test_error_classes_are_collected():
    names = {cls.__name__ for cls in _CLASSES}
    assert {"ValidationError", "ScenarioParseError", "SimulationError", "NoRootError"} <= names


@pytest.mark.parametrize("cls", _CLASSES, ids=lambda cls: cls.__name__)
def test_errors_round_trip_through_pickle(cls):
    exc = cls(3, "bad value") if cls is errors.ScenarioParseError else cls("bad value")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert back.args == exc.args
    if cls is errors.ScenarioParseError:
        assert str(back) == "line 3: bad value"
        assert back.line == 3
