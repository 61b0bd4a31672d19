"""The framed-file container that checkpoints and the embedding cache share."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longtail_lab.schema import read_arrays, read_framed, write_framed

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
