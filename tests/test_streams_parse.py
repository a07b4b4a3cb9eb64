"""The CSV chunk parser's two paths agree.

``_parse_chunk`` reads a chunk with one structured :func:`numpy.loadtxt`
call (``_parse_bulk``) and falls back to the per-line parser
(``_parse_lines``) when numpy cannot read a line the way :class:`int`
does. For every well-formed chunk both paths must give equal
:class:`~repro.streams.point.PointBlock` s, bit for bit; the chunks that
need the fallback must be refused by the bulk path.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.streams.io import _parse_bulk, _parse_chunk, _parse_lines
from repro.streams.point import PointBlock


def _fail(offset, why):
    return ValueError(f"line {offset}: {why}")


def _random_rows(n, d, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=10.0 ** rng.integers(-300, 300, size=(n, d)))
    values[0, 0] = 5e-324  # a subnormal
    values[1, 0] = -0.0
    return [
        f"{i + 1},{int(label)},{','.join(map(repr, row.tolist()))}\n"
        for i, (label, row) in enumerate(
            zip(rng.integers(-5, 5, size=n), values)
        )
    ]


WELL_FORMED = {
    "plain": ["1,0,1.5,-2.25\n", "2,3,0.1,1e-300\n"],
    "plus_signs": ["+5,+2,1.0,+2.0\n", "6,3,-1.0,2.0\n"],
    "padded_integers": [" 5 , 7 ,1.0, 2.0 \n", "\t6,\t8,3.0,4.0\n"],
    "negative_zero_label": ["3,-0,1.0,2.0\n"],
    "negative_labels": ["1,-1,1.0,2.0\n", "2,-9223372036854775808,3.0,4.0\n"],
    "int64_bounds": ["9223372036854775807,9223372036854775807,1.0,2.0\n"],
    "crlf": ["1,2,1.0,2.0\r\n", "2,2,3.0,4.0\r\n"],
    "no_final_newline": ["1,2,3.0,4.0\n", "2,2,5.0,6.0"],
    "random_floats": _random_rows(64, 2, seed=1),
}

NEEDS_PER_LINE = {
    "empty_label": ["1,,1.0,2.0\n", "2,3,1.0,2.0\n"],
    "underscore_digits": ["5_0,1,1.0,2.0\n"],
    "other_digit_script": ["٣,1,1.0,2.0\n"],
    "fullwidth_digit": ["1,５,1.0,2.0\n"],
    "index_above_int64": ["9223372036854775808,1,1.0,2.0\n"],
}


def _assert_same_block(got, want):
    assert isinstance(got, PointBlock) and isinstance(want, PointBlock)
    for name in ("index", "label", "none", "values"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes(), name


class TestBulkMatchesPerLine:
    @pytest.mark.parametrize("name", sorted(WELL_FORMED))
    def test_well_formed_chunks(self, name):
        lines = WELL_FORMED[name]
        assert _parse_bulk(lines, 2) is not None, "took the per-line path"
        bulk = _parse_chunk(iter(lines), 2, Path("s.csv"), 2)
        _assert_same_block(bulk, _parse_lines(lines, 2, _fail))

    def test_ten_dimensions(self):
        lines = _random_rows(300, 10, seed=2)
        bulk = _parse_chunk(iter(lines), 10, Path("s.csv"), 2)
        _assert_same_block(bulk, _parse_lines(lines, 10, _fail))

    @pytest.mark.parametrize("name", sorted(NEEDS_PER_LINE))
    def test_fallback_chunks(self, name):
        lines = NEEDS_PER_LINE[name]
        assert _parse_bulk(lines, 2) is None
        got = _parse_chunk(iter(lines), 2, Path("s.csv"), 2)
        want = _parse_lines(lines, 2, _fail)
        if isinstance(want, PointBlock):
            _assert_same_block(got, want)
        else:
            assert [(p.index, p.label, p.values.tolist()) for p in got] == [
                (p.index, p.label, p.values.tolist()) for p in want
            ]

    def test_hex_is_refused_by_both(self):
        lines = ["1,0x10,1.0,2.0\n"]
        assert _parse_bulk(lines, 2) is None
        with pytest.raises(ValueError, match="label '0x10' is not an integer"):
            _parse_chunk(iter(lines), 2, Path("s.csv"), 2)

    @pytest.mark.parametrize(
        "lines",
        [
            ["1,2,1.0,2.0\n", "0,2,1.0,2.0\n"],
            ["1,2,1.0,2.0\n", "2,2,nan,2.0\n"],
            ["1,2,1.0,2.0\n", "2,2,1.0,-inf\n"],
        ],
    )
    def test_bulk_rows_fail_like_per_line_rows(self, lines):
        """Index and finiteness checks run on bulk-parsed rows too, with
        the per-line parser's messages."""
        assert _parse_bulk(lines, 2) is not None
        with pytest.raises(ValueError) as bulk:
            _parse_chunk(iter(lines), 2, Path("s.csv"), 2)
        with pytest.raises(ValueError) as per_line:
            _parse_lines(lines, 2, lambda k, why: _fail(k + 2, why))
        assert str(bulk.value) == f"s.csv, {per_line.value}"

    def test_blank_line_takes_per_line_path(self):
        lines = ["1,2,1.0,2.0\n", "\n", "3,2,1.0,2.0\n"]
        assert _parse_bulk(lines, 2) is None
        with pytest.raises(ValueError, match="line 3: ragged row"):
            _parse_chunk(iter(lines), 2, Path("s.csv"), 2)
