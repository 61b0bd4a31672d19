"""The framed-file container that checkpoints and the embedding cache share,
and the type check every stored document passes."""
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab.schema import (_KIND_NAMES, _is, check_types, read_arrays, read_framed,
                                 write_framed)

MAGIC = b"LTLABTEST1\n"


def read(path) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the arrays of a framed test file."""
    def build(header, fh):
        entries = [(e["name"], tuple(e["shape"]), e["dtype"]) for e in header["arrays"]]
        return header, read_arrays(fh, entries)
    return read_framed(str(path), MAGIC, "test", {"arrays": list}, build, lambda built: built[0])


@st.composite
def framed(draw) -> tuple[dict, list[np.ndarray]]:
    """A header and its arrays; the array bytes are any bit pattern, NaNs included."""
    arrays, entries = [], []
    for i in range(draw(st.integers(0, 3), label="arrays")):
        dtype = draw(st.sampled_from(["<f8", "<i8"]))
        shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3), label=f"shape {i}"))
        raw = draw(st.binary(min_size=8 * int(np.prod(shape)), max_size=8 * int(np.prod(shape))))
        arrays.append(np.frombuffer(raw, dtype).reshape(shape))
        entries.append({"name": f"a{i}", "shape": list(shape), "dtype": dtype})
    header = {"format": "longtail-lab-test", "version": 1, "note": draw(st.text(max_size=8)),
              "arrays": entries}
    return header, arrays


@pytest.fixture(scope="module")
def frame_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("framed")


@settings(max_examples=150, deadline=None)
@given(written=framed(), data=st.data())
def test_round_trip_and_any_cut_or_extension_rejected(frame_dir, written, data):
    header, arrays = written
    path = frame_dir / "file.bin"
    write_framed(str(path), MAGIC, header, arrays)
    assert [p.name for p in frame_dir.iterdir()] == ["file.bin"]
    stored, loaded = read(path)
    assert stored == header
    assert list(loaded) == [e["name"] for e in header["arrays"]]
    for arr, back in zip(arrays, loaded.values()):
        assert (back.dtype, back.shape, back.tobytes()) == (arr.dtype, arr.shape, arr.tobytes())

    whole = path.read_bytes()
    cut = data.draw(st.integers(0, len(whole) - 1), label="cut")
    tail = data.draw(st.binary(min_size=1, max_size=16), label="tail")
    for damaged in (whole[:cut], whole + tail):
        path.write_bytes(damaged)
        with pytest.raises(ValueError):
            read(path)


def reference_check_types(value, kind, where: str = "") -> None:
    """``check_types`` as it was first written: it names every field it visits."""
    kinds = kind if isinstance(kind, tuple) else (kind,)
    types = [type(k) if isinstance(k, (dict, list)) else k for k in kinds]
    for kind, of_type in zip(kinds, types):
        if _is(value, of_type):
            break
    else:
        shown = repr(value) if len(repr(value)) <= 40 else f"a {type(value).__name__}"
        raise ValueError(f"field {where!r} must be "
                         f"{' or '.join(_KIND_NAMES[t] for t in types)}, got {shown}")
    if isinstance(kind, dict):
        for key, sub in kind.items():
            name = f"{where}.{key}".lstrip(".")
            if key not in value:
                raise ValueError(f"field {name!r} is missing")
            reference_check_types(value[key], sub, name)
    elif isinstance(kind, list):
        for i, item in enumerate(value):
            reference_check_types(item, kind[0], f"{where}[{i}]")
    elif kind is int and not -2**63 <= value < 2**63:
        raise ValueError(f"field {where!r} lies outside the int64 range")


KIND = {"a": [[int]], "b": {"c": (float, None), "d": [str]}, "e": [{"f": bool, "g": [float]}]}
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**64, 2**64) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                               max_size=3),
    max_leaves=6)


def near(kind) -> st.SearchStrategy:
    """Values of ``kind``, where now and then a field holds any value or is left out."""
    if isinstance(kind, tuple):
        fitting = st.one_of([near(k) for k in kind])
    elif isinstance(kind, dict):
        fitting = st.tuples(st.fixed_dictionaries({k: near(v) for k, v in kind.items()}),
                            st.sets(st.sampled_from(list(kind)), max_size=1)).map(
            lambda drawn: {k: v for k, v in drawn[0].items() if k not in drawn[1]})
    elif isinstance(kind, list):
        fitting = st.lists(near(kind[0]), max_size=4)
    else:
        fitting = {None: st.none(), bool: st.booleans(), str: st.text(max_size=3),
                   int: st.integers(-2**64, 2**64),
                   float: st.floats(max_value=sys.float_info.max)}[kind]
    return st.integers(0, 11).flatmap(lambda roll: json_values if roll == 0 else fitting)


def message(check, value, where: str) -> str | None:
    try:
        check(value, KIND, where)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(value=near(KIND), where=st.sampled_from(["", "methods.x"]))
def test_check_types_names_the_field_as_the_reference_does(value, where):
    assert message(check_types, value, where) == message(reference_check_types, value, where)
