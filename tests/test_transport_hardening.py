"""Hardening of the batched series transport.

Locks the boundary checks of :mod:`repro.neighborhood.transport`:

* ``pack_series`` zero-fills its padding slot — repeated packs of the
  same series (including the empty frame, whose block is *all*
  padding) are byte-identical, so digests/dedup over pickled frames
  are sound;
* ``unpack_series`` refuses a frame whose blob or lengths do not match
  its layout with a typed
  :class:`~repro.neighborhood.transport.FrameUnavailableError`, so the
  shard executor re-executes the shard instead of handing out wrong or
  truncated series.
"""

import numpy as np
import pytest

from repro.neighborhood.transport import (
    FrameUnavailableError,
    SeriesFrame,
    pack_series,
    unpack_series,
)
from repro.sim.monitor import StepSeries


def series(name, points):
    built = StepSeries(name)
    for t, v in points:
        built.record(t, v)
    return built


def sample_series():
    return [series("a", [(0.0, 1.0), (5.0, 0.0)]),
            series("b", []),
            series("c", [(1.5, 2.5)])]


# -- padding determinism (the np.empty bug) -------------------------------

def test_empty_frame_blob_is_deterministic():
    # All-padding block: before the fix this shipped one uninitialized
    # float, making consecutive packs byte-unequal.
    blobs = {pack_series([]).blob for _ in range(20)}
    assert blobs == {np.zeros((2, 1)).tobytes()}


def test_repeated_packs_are_byte_identical():
    first = pack_series(sample_series())
    for _ in range(10):
        again = pack_series(sample_series())
        assert again.blob == first.blob
        assert again.names == first.names
        assert again.lengths == first.lengths


def test_empty_frame_roundtrips():
    frame = pack_series([series("only", [])])
    (rebuilt,) = unpack_series(frame)
    assert rebuilt.name == "only"
    assert len(rebuilt) == 0


def test_no_series_frame_roundtrips():
    frame = pack_series([])
    assert frame.names == () and frame.total == 0
    assert unpack_series(frame) == []


# -- layout checks ---------------------------------------------------------

def test_blob_shorter_than_layout_is_refused():
    # Two series of 3 events need 6 float64 per row; a 4-value blob
    # used to unpack silently to series of 2 and 0 events.
    frame = SeriesFrame(names=("a", "b"), lengths=(3, 3),
                        blob=np.arange(4.0).tobytes())
    with pytest.raises(FrameUnavailableError, match="layout needs 96"):
        unpack_series(frame)


def test_blob_of_odd_length_is_refused():
    # A 3-value blob cannot hold two equal rows; it used to raise a bare
    # ValueError from reshape, which the shard executor does not catch.
    frame = SeriesFrame(names=("a",), lengths=(1,),
                        blob=np.arange(3.0).tobytes())
    with pytest.raises(FrameUnavailableError, match="re-execute"):
        unpack_series(frame)


def test_names_and_lengths_must_pair_up():
    frame = pack_series(sample_series())
    short = SeriesFrame(names=frame.names[:2], lengths=frame.lengths,
                        blob=frame.blob)
    with pytest.raises(FrameUnavailableError, match="2 names for 3"):
        unpack_series(short)
