"""The ``csv``-module stream reader and writer, kept as a test oracle.

These are the row-at-a-time implementations that :mod:`repro.streams.io`
replaced with its block codec. The codec must write byte-identical files
and read bit-identical points on every file they handle.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.streams.point import StreamPoint


def oracle_save(stream: Iterable[StreamPoint], path) -> int:
    """Write ``stream`` with :func:`csv.writer`; returns the point count."""
    path = Path(path)
    count = 0
    dimensions = None
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        for point in stream:
            if dimensions is None:
                dimensions = point.dimensions
                writer.writerow(
                    ["index", "label"] + [f"v{i}" for i in range(dimensions)]
                )
            elif point.dimensions != dimensions:
                raise ValueError("inconsistent dimensionality")
            label = "" if point.label is None else point.label
            writer.writerow(
                [point.index, label] + [repr(float(v)) for v in point.values]
            )
            count += 1
    return count


def oracle_load(path) -> Iterator[StreamPoint]:
    """Read a stream CSV with :func:`csv.reader`, one ``float()`` per cell."""
    path = Path(path)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            return
        if header[:2] != ["index", "label"]:
            raise ValueError(f"{path} is not a stream CSV (header={header!r})")
        for row in reader:
            index = int(row[0])
            label = None if row[1] == "" else int(row[1])
            values = np.array([float(v) for v in row[2:]])
            yield StreamPoint(index, values, label)
