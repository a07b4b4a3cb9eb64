"""CSV persistence for streams.

Lets examples and experiments snapshot a generated stream to disk and
replay it later (e.g. to compare samplers on the byte-identical stream, or
to feed an externally produced data set into the library).

Format
------
* Header ``index,label,v0,...,v{d-1}`` with ``d >= 1``, exactly.
* One row per point: the integer arrival index, the integer label (empty
  for ``None``), then ``d`` values written as ``repr`` of the Python
  float, which round-trips every finite float64 bit for bit.
* Rows end in ``\\r\\n``, as in the :mod:`csv` module's default dialect,
  so a file is byte-identical to what ``csv.writer`` writes; the reader
  also accepts ``\\n`` and a missing final newline. No quoting, no
  comments.

Parsing
-------
:func:`load_stream_csv_chunks` reads ``chunk_size`` lines at a time. It
splits the index and label off each line once, then parses the value
columns of the whole chunk with a single :func:`numpy.loadtxt` call into
a ``(b, d)`` float64 block, and yields the chunk as a
:class:`~repro.streams.point.PointBlock`: no Python object is built per
row. A chunk holding an index or label outside int64 is yielded as a
list of :class:`StreamPoint` s instead, each owning its row.
:func:`load_stream_csv` is the flatten, boxing rows into points.

Validation
----------
The reader raises ``ValueError`` naming the path and the 1-based line
for a header that is not exactly the one above, a ragged row, a blank or
non-numeric cell, a non-integer index or label, an index below 1, and a
NaN or infinite value. A chunk with a bad line is never partly yielded.
Value cells are parsed by numpy, which is stricter than :func:`float`
(``1_0`` is refused, not read as ten) but never reads a value differently.
:func:`save_stream_csv` refuses non-finite values, so every file it
writes loads again.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.streams.point import PointBlock, StreamPoint

__all__ = ["save_stream_csv", "load_stream_csv", "load_stream_csv_chunks"]

PathLike = Union[str, Path]


def _header(dimensions: int) -> str:
    return ",".join(["index", "label"] + [f"v{i}" for i in range(dimensions)])


def save_stream_csv(stream: Iterable[StreamPoint], path: PathLike) -> int:
    """Write ``stream`` to ``path``; returns the number of points written."""
    path = Path(path)
    count = 0
    dimensions = None
    with path.open("w", newline="") as handle:
        for point in stream:
            # tolist() yields Python floats, whose repr round-trips exactly
            # (and avoids numpy 2.x scalar reprs like "np.float64(1.5)").
            values = point.values.tolist()
            if dimensions is None:
                dimensions = len(values)
                if dimensions < 1:
                    raise ValueError(
                        f"point {point.index} has no values; a stream CSV "
                        "needs at least one value column"
                    )
                handle.write(_header(dimensions) + "\r\n")
            elif len(values) != dimensions:
                raise ValueError(
                    f"inconsistent dimensionality: point {point.index} has "
                    f"{len(values)} dims, expected {dimensions}"
                )
            cells = ",".join(map(repr, values))
            # Only "nan", "inf" and "-inf" contain an "n"; no finite repr does.
            if "n" in cells:
                raise ValueError(
                    f"point {point.index} has a non-finite value ({cells})"
                )
            label = "" if point.label is None else point.label
            handle.write(f"{point.index},{label},{cells}\r\n")
            count += 1
    return count


def load_stream_csv(path: PathLike) -> Iterator[StreamPoint]:
    """Lazily read a stream written by :func:`save_stream_csv`."""
    for chunk in load_stream_csv_chunks(path):
        yield from chunk


def load_stream_csv_chunks(
    path: PathLike, chunk_size: int = 4096
) -> Iterator[Sequence[StreamPoint]]:
    """Lazily read a stream CSV as blocks of up to ``chunk_size`` points.

    The batched counterpart of :func:`load_stream_csv`, shaped for
    :meth:`~repro.core.reservoir.ReservoirSampler.offer_many`: each yielded
    chunk can be handed to a sampler whole, so file replay runs at the
    block-ingestion rate instead of one ``offer`` call per row. Each chunk
    is parsed as one block and yielded as a
    :class:`~repro.streams.point.PointBlock` (module docstring).
    ``chunk_size < 1`` raises here, not at the first ``next()``.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return _read_chunks(Path(path), chunk_size)


def _read_chunks(
    path: Path, chunk_size: int
) -> Iterator[Sequence[StreamPoint]]:
    with path.open() as handle:
        header = handle.readline()
        if not header:
            return
        names = header.rstrip("\n").split(",")
        dimensions = len(names) - 2
        if dimensions < 1 or names != _header(dimensions).split(","):
            raise ValueError(
                f"{path}, line 1: not a stream CSV (header={header!r}; "
                "expected index,label,v0,...,v{d-1} with d >= 1)"
            )
        line = 2
        while True:
            chunk = islice(handle, chunk_size)
            points = _parse_chunk(chunk, dimensions, path, line)
            if not points:
                return
            yield points
            line += len(points)


def _parse_chunk(
    lines: Iterable[str], dimensions: int, path: Path, first_line: int
) -> Sequence[StreamPoint]:
    """Parse one chunk of data lines, or raise naming the first bad line."""

    def fail(offset: int, why: str) -> ValueError:
        return ValueError(f"{path}, line {first_line + offset}: {why}")

    indices: List[int] = []
    labels: List[Optional[int]] = []
    nones: List[int] = []  # offsets of the lines with an empty label
    cells: List[str] = []
    for offset, text in enumerate(lines):
        fields = text.split(",", 2)
        if len(fields) != 3:
            raise fail(offset, _ragged(text.count(",") + 1, dimensions))
        index, label, rest = fields
        try:
            indices.append(int(index))
        except ValueError:
            raise fail(offset, f"index {index!r} is not an integer") from None
        if label == "":
            labels.append(0)
            nones.append(offset)
        else:
            try:
                labels.append(int(label))
            except ValueError:
                raise fail(
                    offset, f"label {label!r} is not an integer"
                ) from None
        cells.append(rest)
    if not cells:
        return []
    if min(indices) < 1:
        offset = next(k for k, i in enumerate(indices) if i < 1)
        raise fail(offset, f"index {indices[offset]} is below 1")
    values = None
    if any(map(str.strip, cells)):  # loadtxt warns on an all-blank chunk
        try:
            values = np.loadtxt(
                cells, delimiter=",", dtype=np.float64, ndmin=2, comments=None
            )
        except ValueError:
            pass
    # loadtxt skips blank lines, so a wrong row count is a bad line too.
    if values is None or values.shape != (len(cells), dimensions):
        for offset, text in enumerate(cells):
            why = _bad_cells(text, dimensions)
            if why is not None:
                raise fail(offset, why)
        raise fail(0, "unparseable value cells")  # pragma: no cover
    if not np.isfinite(values).all():
        offset, column = np.argwhere(~np.isfinite(values))[0].tolist()
        bad = values[offset, column]
        raise fail(offset, f"non-finite value v{column} = {bad}")
    none = np.zeros(len(cells), dtype=np.bool_)
    none[nones] = True
    try:
        return PointBlock(
            np.array(indices, dtype=np.int64),
            np.array(labels, dtype=np.int64),
            none,
            values,
        )
    except OverflowError:  # an index or label outside int64
        for offset in nones:
            labels[offset] = None
        return [
            StreamPoint(index, row.copy(), label)
            for index, row, label in zip(indices, values, labels)
        ]


def _ragged(fields: int, dimensions: int) -> str:
    return f"ragged row: {fields} fields, the header has {dimensions + 2}"


def _bad_cells(text: str, dimensions: int) -> Optional[str]:
    """Why the value cells of one line fail to parse, or ``None``."""
    fields = text.split(",")
    if len(fields) != dimensions:
        return _ragged(len(fields) + 2, dimensions)
    for column, field in enumerate(fields):
        if not field.strip():
            return f"blank cell v{column}"
        try:
            np.loadtxt([field], delimiter=",", dtype=np.float64, comments=None)
        except ValueError:
            return f"cell v{column} is not a number: {field.strip()!r}"
    return None
