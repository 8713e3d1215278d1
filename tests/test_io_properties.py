"""Round trips of the artifact formats, for any values they may hold.

`write_matrix`/`read_matrix` keep every bit of a finite float64 matrix,
whatever its shape or memory order, and refuse to write a non-finite
one; the file bytes do not depend on the memory order, which is copied
in bounded blocks.  Each `write_csv` cell reads back (with the `csv`
module) as the float, integer or string that was written.
"""

import csv
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from lconv.numerics import DegenerateInputError, read_matrix, write_csv, write_matrix

PROPS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from(SPECIAL))
SHAPES = st.tuples(st.integers(1, 6), st.integers(1, 6))


def layouts(m):
    """m itself, Fortran-ordered, and as a strided view."""
    return [m, np.asfortranarray(m), np.repeat(m, 2, axis=1)[:, ::2]]


@PROPS
@given(arrays(np.float64, SHAPES, elements=FINITE), st.integers(0, 2))
def test_matrix_roundtrip_bit_for_bit(m, layout):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mat")
        write_matrix(path, layouts(m)[layout])
        back = read_matrix(path)
    assert back.dtype == np.float64 and back.shape == m.shape
    assert back.tobytes() == np.ascontiguousarray(m).tobytes()


@PROPS
@given(arrays(np.float64, SHAPES, elements=FINITE),
       st.sampled_from([np.nan, np.inf, -np.inf]), st.data())
def test_nonfinite_matrix_rejected(m, bad, data):
    i = data.draw(st.integers(0, m.shape[0] - 1))
    j = data.draw(st.integers(0, m.shape[1] - 1))
    m[i, j] = bad
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.mat")
        with pytest.raises(DegenerateInputError):
            write_matrix(path, m)
        assert not os.path.exists(path)


# write_matrix copies about 1 MiB of rows at a time (at least 8): these
# shapes span one block, several blocks, a lone row and a lone column
@pytest.mark.parametrize("shape", [(1, 300_000), (200_000, 1), (300, 1000), (17, 50_000)])
def test_matrix_file_bytes_independent_of_layout(tmp_path, shape):
    m = np.random.default_rng(0).standard_normal(shape)
    payloads = []
    for i, view in enumerate(layouts(m)):
        write_matrix(tmp_path / f"{i}.mat", view)
        payloads.append((tmp_path / f"{i}.mat").read_bytes())
    assert payloads[0][-m.nbytes:] == m.astype("<f8").tobytes()
    assert payloads[1] == payloads[0] and payloads[2] == payloads[0]


def test_fortran_matrix_written_in_bounded_blocks(tmp_path):
    m = np.asfortranarray(np.random.default_rng(0).standard_normal((49, 50_000)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_matrix(tmp_path / "m.mat", m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < m.nbytes / 4, f"allocated {peak} bytes writing {m.nbytes}"


FLOATS = st.floats(allow_nan=False)
CELLS = st.one_of(
    FLOATS, FLOATS.map(np.float64),
    st.floats(allow_nan=False, width=32).map(np.float32),
    st.integers(-2 ** 70, 2 ** 70), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.text(st.sampled_from('ab 1.e-,"\r\n'), max_size=8))


@PROPS
@given(st.lists(st.lists(CELLS, min_size=2, max_size=4), max_size=5))
def test_csv_cells_parse_back(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write_csv(path, ("a", "b"), rows)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(fh))
    assert parsed[0] == ["a", "b"] and len(parsed) == len(rows) + 1
    for row, cells in zip(rows, parsed[1:]):
        assert len(cells) == len(row)
        for v, cell in zip(row, cells):
            if isinstance(v, (float, np.floating)):
                assert np.float64(cell).tobytes() == np.float64(v).tobytes()
            elif isinstance(v, (int, np.integer)):
                assert int(cell) == int(v)
            else:
                assert cell == v
