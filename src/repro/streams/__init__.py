"""Stream substrates: point model, generators, transforms, persistence."""

from repro.streams.base import StreamGenerator, materialize, stream_to_arrays
from repro.streams.intrusion import INTRUSION_CLASSES, IntrusionStream
from repro.streams.io import (
    load_stream_csv,
    load_stream_csv_chunks,
    save_stream_csv,
)
from repro.streams.kdd99 import Kdd99LabelMap, load_kdd99
from repro.streams.point import PointBlock, StreamPoint
from repro.streams.synthetic import EvolvingClusterStream
from repro.streams.transforms import (
    chunked,
    normalize_unit_variance,
    project,
    relabel,
    skip,
    take,
    with_poisson_timestamps,
    zscore_online,
)

__all__ = [
    "StreamPoint",
    "PointBlock",
    "StreamGenerator",
    "materialize",
    "stream_to_arrays",
    "EvolvingClusterStream",
    "IntrusionStream",
    "INTRUSION_CLASSES",
    "save_stream_csv",
    "load_stream_csv",
    "load_stream_csv_chunks",
    "load_kdd99",
    "Kdd99LabelMap",
    "take",
    "skip",
    "chunked",
    "project",
    "relabel",
    "zscore_online",
    "normalize_unit_variance",
    "with_poisson_timestamps",
]
