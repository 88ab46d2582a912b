"""Records are slotted frozen dataclasses, and the readers and ablation build
them column by column through their slots (``jsonio.from_columns``), never
through their ``__init__``: the records equal what the constructor builds,
and a record the constructor refuses is refused with the same error."""
from __future__ import annotations

import dataclasses
import importlib
import inspect
import math
import pkgutil
from dataclasses import InitVar, dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import navscribe
import scenes as fixtures
from navscribe import jsonio
from navscribe.jsonio import from_columns
from navscribe.nav_graph import PathSpec, SampleResult, paths_from_json, paths_to_json
from navscribe.scene_metadata import (Category, Panorama, Region, SceneObject, parse_house,
                                      read_scene_json, write_scene_json)
from navscribe.supervision_export import (DatasetRecord, WordObjectSupervision, emit_r2r_json,
                                          emit_supervision_json, read_r2r_json,
                                          read_supervision_json)
from navscribe.text_ablation import AblationMode, ablate_dataset, load_default_lexicon


def _package_dataclasses():
    for module in pkgutil.iter_modules(navscribe.__path__):
        if module.name != "__main__":
            loaded = importlib.import_module(f"navscribe.{module.name}")
            yield from (value for value in vars(loaded).values()
                        if inspect.isclass(value) and dataclasses.is_dataclass(value)
                        and value.__module__ == loaded.__name__)


def test_every_dataclass_of_the_package_is_frozen_and_slotted():
    classes = list(_package_dataclasses())
    assert len(classes) >= 20
    assert [cls.__qualname__ for cls in classes
            if not (cls.__dataclass_params__.frozen and "__slots__" in vars(cls))] == []


def test_a_record_has_no_dict_and_refuses_assignment():
    obj = parse_house(fixtures.TINY_HOUSE).objects[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.index = 5
    with pytest.raises(TypeError):
        vars(obj)
    assert dataclasses.asdict(obj)["index"] == obj.index


# ---------------------------------------------------------------------------
# The readers and ablation call no record's __init__
# ---------------------------------------------------------------------------

_RECORD_CLASSES = (Category, Region, SceneObject, Panorama, DatasetRecord,
                   WordObjectSupervision, PathSpec, SampleResult)


def _dataset():
    return [DatasetRecord(i, "loop0", 0.5 * i, ("a", "b", "c")[:i + 1],
                          (f"Walk past the red sofa {i}.", "Stop by the lamp."), 1.5 * i)
            for i in range(3)]


def test_reading_and_ablating_build_no_record_through_its_init(monkeypatch):
    house = fixtures.loop_scene().house_text
    scene_json = write_scene_json(parse_house(house))
    dataset, records = emit_r2r_json(_dataset()), _dataset()
    supervision = emit_supervision_json([WordObjectSupervision(i, ("go", "on"), (0, 1),
                                                               (("sofa",), ()))
                                         for i in range(3)])
    paths = paths_to_json(SampleResult(1, (PathSpec("loop0", ("a", "b"), 1.0, 2.0),
                                           PathSpec("loop0", ("b", "c"), 2.0, 3.0))))
    lexicon = load_default_lexicon()
    calls = []
    for cls in _RECORD_CLASSES:
        monkeypatch.setattr(cls, "__init__", _counted(cls.__init__, cls.__name__, calls))

    assert len(parse_house(house).objects) > 20
    assert len(read_scene_json(scene_json).objects) > 20
    assert len(read_r2r_json(dataset)) == 3
    assert len(ablate_dataset(records, AblationMode.NOUNS, lexicon)) == 3
    assert len(read_supervision_json(supervision)) == 3
    assert len(paths_from_json(paths).paths) == 2
    assert calls == []
    PathSpec("loop0", ("a",), 0.0, 0.0)  # the counter itself counts
    assert calls == ["PathSpec"]


def _counted(init, name, calls):
    def counting_init(self, *args, **kwargs):
        calls.append(name)
        init(self, *args, **kwargs)

    return counting_init


# ---------------------------------------------------------------------------
# A slotted builder whose __init__ is not its fields is refused up front
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class _WithInitVar:
    size: int
    scale: InitVar[int]

    def __post_init__(self, scale):
        pass


@dataclass(frozen=True, slots=True)
class _WithoutInit:
    size: int
    area: int = field(init=False, default=0)


@dataclass(frozen=True, slots=True)
class _KeywordOnly:
    size: int
    name: str = field(kw_only=True)


@pytest.mark.parametrize("check", [jsonio.record, jsonio.open_record])
@pytest.mark.parametrize("build,message", [
    (_WithInitVar, "_WithInitVar: __init__ parameters ['size', 'scale'] are not its fields, "
                   "in order and positional"),
    (_WithoutInit, "_WithoutInit: __init__ parameters ['size'] are not its fields, "
                   "in order and positional"),
    (_KeywordOnly, "_KeywordOnly: __init__ parameters ['size', 'name'] are not its fields, "
                   "in order and positional"),
], ids=["initvar", "init_false", "kw_only"])
def test_a_slotted_builder_whose_init_is_not_its_fields_is_refused(check, build, message):
    with pytest.raises(TypeError) as err:
        check(build)
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# The helper's records are the constructor's
# ---------------------------------------------------------------------------

_INT = st.integers(-2, 5)
_TEXT = st.text(max_size=3)
_VEC3 = st.tuples(*[st.floats(-2, 2)] * 3)
# Headings, ids and distances the route check refuses now and then.
_HEADING = st.floats(-1.0, 7.0) | st.just(math.nan)
_IDS = st.lists(st.sampled_from("abc"), max_size=3).map(tuple)
_DISTANCE = st.floats(-1.0, 3.0) | st.sampled_from([math.inf, math.nan])
_TEXTS = st.lists(_TEXT, max_size=2).map(tuple)
_PATH = st.builds(PathSpec, _TEXT, st.lists(st.sampled_from("abc"), min_size=1, max_size=1)
                  .map(tuple), st.floats(0.0, 6.0), st.floats(0.0, 3.0))

# Rows of each record class, its fields in order.
_ROWS = {
    SceneObject: st.tuples(_INT, _INT, _INT, _VEC3, _VEC3, _VEC3, _VEC3),
    Region: st.tuples(_INT, _INT, _TEXT, _VEC3, _VEC3, _VEC3),
    Category: st.tuples(_INT, _INT, _TEXT, _INT, _TEXT),
    Panorama: st.tuples(_TEXT, _INT, _INT, _VEC3),
    DatasetRecord: st.tuples(_INT, _TEXT, _HEADING, _IDS, _TEXTS, _DISTANCE),
    PathSpec: st.tuples(_TEXT, _IDS, _HEADING, _DISTANCE),
    SampleResult: st.tuples(_INT, st.lists(_PATH, max_size=2).map(tuple)),
    WordObjectSupervision: st.tuples(_INT, _TEXTS, st.lists(_INT, max_size=2).map(tuple),
                                     st.lists(_TEXTS, max_size=2).map(tuple)),
}


def _outcome(build):
    """The records ``build`` returns, or the type and message it raises."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


def _columns(cls, rows):
    return [[row[at] for row in rows] for at in range(len(dataclasses.fields(cls)))]


def _assert_same(cls, got, expected):
    assert got == expected
    if isinstance(expected, list):
        assert [type(r) for r in got] == [cls] * len(expected)
        assert list(map(hash, got)) == list(map(hash, expected))
        assert list(map(repr, got)) == list(map(repr, expected))
        names = [f.name for f in dataclasses.fields(cls)]
        assert ([[getattr(r, name) for name in names] for r in got]
                == [[getattr(r, name) for name in names] for r in expected])


@pytest.mark.parametrize("cls", list(_ROWS), ids=lambda cls: cls.__name__)
@settings(max_examples=150)
@given(data=st.data())
def test_column_built_records_equal_the_constructors(cls, data):
    rows = data.draw(st.lists(_ROWS[cls], max_size=6))
    columns = _columns(cls, rows)
    expected = _outcome(lambda: list(map(cls, *columns)))
    # Lazy columns, as the readers and ablation pass them.
    _assert_same(cls, _outcome(lambda: from_columns(cls, list(map(iter, columns)), len(rows))),
                 expected)


@pytest.mark.parametrize("cls,rows,message", [
    (DatasetRecord, [(0, "s", 0.5, ("a",), ("go",), 1.0), (1, "s", 7.0, ("a",), ("go",), 1.0),
                     (2, "s", 0.5, ("a",), (), 1.0)],
     "heading must be in [0, 2*pi), got 7.0"),
    (PathSpec, [("s", ("a", "b"), 0.5, 1.0), ("s", ("a", "a"), 0.5, 1.0),
                ("s", (), 0.5, -1.0)],
     "immediate repetition of viewpoint 'a'"),
    (WordObjectSupervision, [(0, ("go",), (0,), ((),)), (1, ("go",), (), ((),)),
                             (2, (), (0,), ())],
     "token, node and object lists must align"),
], ids=["dataset_record", "path_spec", "supervision"])
def test_the_first_refused_row_raises_the_constructors_error(cls, rows, message):
    columns = _columns(cls, rows)
    with pytest.raises(ValueError) as constructed:
        list(map(cls, *columns))
    with pytest.raises(ValueError) as built:
        from_columns(cls, columns, len(rows))
    assert str(built.value) == str(constructed.value) == message
