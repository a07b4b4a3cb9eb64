"""Tests for stream CSV persistence."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streams.io import (
    load_stream_csv,
    load_stream_csv_chunks,
    save_stream_csv,
)
from repro.streams.point import StreamPoint
from repro.streams.synthetic import EvolvingClusterStream
from tests.conftest import make_points
from tests.csv_oracle import oracle_load, oracle_save


class TestStreamCsvRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        original = list(EvolvingClusterStream(length=50, rng=0))
        path = tmp_path / "stream.csv"
        assert save_stream_csv(original, path) == 50
        loaded = list(load_stream_csv(path))
        assert len(loaded) == 50
        for a, b in zip(original, loaded):
            assert a.index == b.index
            assert a.label == b.label
            np.testing.assert_array_equal(a.values, b.values)

    def test_unlabeled_round_trip(self, tmp_path):
        pts = make_points([[1.5, -2.25]])
        path = tmp_path / "u.csv"
        save_stream_csv(pts, path)
        loaded = list(load_stream_csv(path))
        assert loaded[0].label is None
        np.testing.assert_array_equal(loaded[0].values, [1.5, -2.25])

    def test_exact_float_round_trip(self, tmp_path):
        """repr-based serialization must round-trip bit-exactly."""
        value = 0.1 + 0.2  # classic non-representable sum
        pts = make_points([[value]])
        path = tmp_path / "f.csv"
        save_stream_csv(pts, path)
        loaded = list(load_stream_csv(path))
        assert loaded[0].values[0] == value

    def test_empty_stream(self, tmp_path):
        path = tmp_path / "e.csv"
        assert save_stream_csv([], path) == 0
        assert list(load_stream_csv(path)) == []

    def test_inconsistent_dimensions_rejected(self, tmp_path):
        pts = make_points([[1.0, 2.0]]) + make_points([[1.0]], start_index=2)
        with pytest.raises(ValueError, match="inconsistent"):
            save_stream_csv(pts, tmp_path / "bad.csv")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="not a stream CSV"):
            list(load_stream_csv(path))

    def test_load_is_lazy(self, tmp_path):
        pts = list(EvolvingClusterStream(length=100, rng=1))
        path = tmp_path / "lazy.csv"
        save_stream_csv(pts, path)
        it = load_stream_csv(path)
        first = next(it)
        assert first.index == 1


# ---------------------------------------------------------------------------
# The block codec against the csv-module oracle (tests/csv_oracle.py)
# ---------------------------------------------------------------------------

SPECIAL_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,  # smallest normal
    2.225073858507201e-308,  # largest subnormal
    1.7976931348623157e308,
    -1.7976931348623157e308,
    0.1 + 0.2,
    1e16,
    1e-5,
    123456789.0,
]


def _points(rows, labels=None):
    """Like ``make_points``, but labels may mix ``None`` and ints."""
    rows = np.asarray(rows, dtype=np.float64)
    if labels is None:
        labels = [None] * len(rows)
    return [
        StreamPoint(i + 1, row, label)
        for i, (row, label) in enumerate(zip(rows, labels))
    ]


def _bits(points):
    return [
        (p.index, p.label, np.ascontiguousarray(p.values).view(np.uint64).tolist())
        for p in points
    ]


def _write(path, text, newline="\n"):
    path.write_bytes(text.replace("\n", newline).encode())
    return path


def _assert_same_as_oracle(points, path):
    """save == oracle save byte for byte; load == oracle load bit for bit."""
    oracle_path = path.with_name(path.name + ".oracle")
    assert save_stream_csv(points, path) == oracle_save(points, oracle_path)
    assert path.read_bytes() == oracle_path.read_bytes()
    loaded = list(load_stream_csv(path))
    assert _bits(loaded) == _bits(list(oracle_load(path))) == _bits(points)


class TestCodecRoundTrip:
    @given(
        rows=st.integers(min_value=1, max_value=30).flatmap(
            lambda d: st.lists(
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False),
                    min_size=d,
                    max_size=d,
                ),
                min_size=1,
                max_size=20,
            )
        ),
        label_seed=st.lists(
            st.one_of(st.none(), st.integers(min_value=-(2**70), max_value=2**70)),
            min_size=20,
            max_size=20,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_finite_floats_bit_exact(self, tmp_path_factory, rows, label_seed):
        path = tmp_path_factory.mktemp("codec") / "s.csv"
        _assert_same_as_oracle(_points(rows, label_seed[: len(rows)]), path)

    def test_special_floats_bit_exact(self, tmp_path):
        rows = [[v] for v in SPECIAL_FLOATS]
        _assert_same_as_oracle(_points(rows), tmp_path / "s.csv")
        loaded = list(load_stream_csv(tmp_path / "s.csv"))
        assert math.copysign(1.0, loaded[1].values[0]) == -1.0

    @pytest.mark.parametrize(
        "label", [None, -1, 0, 1, 2**31, 2**63 - 1, -(2**63), 10**30]
    )
    def test_labels(self, tmp_path, label):
        points = _points([[1.5], [2.5]], [label, label])
        _assert_same_as_oracle(points, tmp_path / "s.csv")
        assert [p.label for p in load_stream_csv(tmp_path / "s.csv")] == [
            label,
            label,
        ]

    @pytest.mark.parametrize("d", [1, 50])
    def test_dimensionality(self, tmp_path, d):
        rows = np.random.default_rng(d).normal(size=(33, d))
        labels = [i % 3 if i % 4 else None for i in range(33)]
        _assert_same_as_oracle(_points(rows, labels), tmp_path / "s.csv")

    @pytest.mark.parametrize("chunk_size", [1, 7, 21, 1000])
    def test_chunk_sizes(self, tmp_path, chunk_size):
        points = _points(np.arange(42.0).reshape(21, 2), list(range(21)))
        path = tmp_path / "s.csv"
        save_stream_csv(points, path)
        chunks = list(load_stream_csv_chunks(path, chunk_size))
        sizes = [len(c) for c in chunks]
        assert sum(sizes) == 21
        assert all(s == chunk_size for s in sizes[:-1])
        assert 1 <= sizes[-1] <= chunk_size
        flat = [p for c in chunks for p in c]
        assert _bits(flat) == _bits(points)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("trailing", [True, False])
    def test_line_endings(self, tmp_path, newline, trailing):
        text = "index,label,v0,v1\n1,,0.5,-2.0\n2,3,1e-07,4.0"
        if trailing:
            text += "\n"
        path = _write(tmp_path / "s.csv", text, newline)
        expected = _points([[0.5, -2.0], [1e-07, 4.0]], [None, 3])
        assert _bits(load_stream_csv(path)) == _bits(expected)
        assert _bits(oracle_load(path)) == _bits(expected)

    def test_header_only_file(self, tmp_path):
        path = _write(tmp_path / "h.csv", "index,label,v0,v1\r\n")
        assert list(load_stream_csv(path)) == []
        assert list(load_stream_csv_chunks(path, 5)) == []

    def test_empty_file(self, tmp_path):
        path = _write(tmp_path / "e.csv", "")
        assert list(load_stream_csv(path)) == []
        assert list(load_stream_csv_chunks(path, 5)) == []

    def test_writes_crlf_rows(self, tmp_path):
        path = tmp_path / "s.csv"
        save_stream_csv(_points([[1.5, -0.0]], [None]), path)
        assert path.read_bytes() == b"index,label,v0,v1\r\n1,,1.5,-0.0\r\n"

    def test_save_matches_oracle_on_generated_stream(self, tmp_path):
        points = list(EvolvingClusterStream(length=300, rng=5))
        _assert_same_as_oracle(points, tmp_path / "s.csv")

    def test_every_point_owns_its_row(self, tmp_path):
        path = tmp_path / "s.csv"
        save_stream_csv(_points(np.ones((40, 3)), list(range(40))), path)
        points = [p for c in load_stream_csv_chunks(path, 16) for p in c]
        assert all(p.values.base is None for p in points)
        assert not any(
            np.shares_memory(a.values, b.values)
            for i, a in enumerate(points)
            for b in points[i + 1 :]
        )
        assert not any(p.values.flags.writeable for p in points)

    def test_chunk_size_checked_at_call(self, tmp_path):
        with pytest.raises(ValueError, match="chunk_size"):
            load_stream_csv_chunks(tmp_path / "does-not-exist.csv", 0)


class TestCsvBoundaryErrors:
    """Every bad input raises ValueError naming the path and the line."""

    HEADER = "index,label,v0,v1\n"

    def _assert_located(self, tmp_path, body, line, match, newline="\n"):
        path = _write(tmp_path / "bad.csv", self.HEADER + body, newline)
        pattern = f"line {line}: .*{match}"
        with pytest.raises(ValueError, match=pattern) as info:
            next(load_stream_csv_chunks(path, 100))
        assert str(path) in str(info.value)
        # The flat reader raises before yielding any point of the chunk.
        with pytest.raises(ValueError, match=pattern):
            next(load_stream_csv(path))

    @pytest.mark.parametrize("row", ["3,,1.0\n", "3,,1.0,2.0,3.0\n", "3\n", "\n"])
    def test_ragged_row(self, tmp_path, row):
        body = "1,,0.0,0.0\n2,,0.0,0.0\n" + row + "4,,0.0,0.0\n"
        self._assert_located(tmp_path, body, 4, "ragged")

    @pytest.mark.parametrize("row", ["3,,,2.0\n", "3,,1.0, \n"])
    def test_blank_cell(self, tmp_path, row):
        self._assert_located(tmp_path, "1,,0.0,0.0\n2,,0,0\n" + row, 4, "blank")

    def test_all_blank_chunk_raises_without_warning(self, tmp_path):
        path = _write(tmp_path / "blank.csv", "index,label,v0\n1,,\n2,, \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="line 2: blank cell v0"):
                next(load_stream_csv_chunks(path, 10))

    @pytest.mark.parametrize(
        "cell", ["abc", "1_0", "0x1p3", "1.5 2", "1.5#3", '"1.5"', "1d5"]
    )
    def test_non_numeric_cell(self, tmp_path, cell):
        self._assert_located(tmp_path, f"1,,0,0\n2,,7,{cell}\n", 3, "v1")

    def test_hash_is_not_a_comment(self, tmp_path):
        self._assert_located(tmp_path, "1,,0,0 # note\n", 2, "not a number")

    def test_quoted_cell(self, tmp_path):
        self._assert_located(tmp_path, '1,,"1.5",2\n', 2, "not a number")

    @pytest.mark.parametrize("index", ["1.5", "x", ""])
    def test_non_integer_index(self, tmp_path, index):
        self._assert_located(tmp_path, f"1,,0,0\n{index},,0,0\n", 3, "index")

    def test_index_below_one(self, tmp_path):
        self._assert_located(tmp_path, "1,,0,0\n0,,0,0\n", 3, "index 0")

    @pytest.mark.parametrize("label", ["1.5", "x", '"2"'])
    def test_non_integer_label(self, tmp_path, label):
        self._assert_located(tmp_path, f"1,{label},0,0\n", 2, "label")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e500", "NaN"])
    def test_non_finite_value(self, tmp_path, value):
        body = f"1,,0,0\n2,,0,0\n3,,0,{value}\n"
        self._assert_located(tmp_path, body, 4, "non-finite value v1")

    def test_error_line_counts_across_chunks(self, tmp_path):
        body = "".join(f"{i},,0,0\n" for i in range(1, 11)) + "11,,0\n"
        path = _write(tmp_path / "bad.csv", self.HEADER + body, "\r\n")
        reader = load_stream_csv_chunks(path, 4)
        assert len(next(reader)) == 4
        assert len(next(reader)) == 4
        with pytest.raises(ValueError, match="line 12: ragged"):
            next(reader)

    @pytest.mark.parametrize(
        "header",
        [
            "index,label\n",
            "index,label,v1\n",
            "index,label,v1,v0\n",
            "label,index,v0\n",
            "index, label,v0\n",
            "index,label,v0,\n",
            "index,label,x\n",
        ],
    )
    def test_bad_header(self, tmp_path, header):
        path = _write(tmp_path / "h.csv", header + "1,,0\n")
        with pytest.raises(ValueError, match="line 1: not a stream CSV") as info:
            next(load_stream_csv(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_save_refuses_non_finite(self, tmp_path, value):
        with pytest.raises(ValueError, match="non-finite"):
            save_stream_csv(_points([[1.0, value]]), tmp_path / "s.csv")

    def test_save_refuses_zero_dimensions(self, tmp_path):
        with pytest.raises(ValueError, match="no values"):
            save_stream_csv([StreamPoint(1, np.empty(0))], tmp_path / "s.csv")
