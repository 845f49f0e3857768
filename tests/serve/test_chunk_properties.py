"""Property tests for the data steps of the chunk path.

A popped chunk is collated once (``collate_requests``) and, on a worker
slot, crosses to the child as ``batch_to_wire`` and back as
``batch_from_wire``.  These properties pin both steps over generated
inputs, where ``test_microbatcher.py`` and ``test_workers.py`` check fixed
examples only.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.data.dataset import Batch
from repro.serve import PredictRequest, collate_requests
from repro.serve.batcher import batch_from_wire, batch_to_wire

OBS_LEN = 8
PRED_LEN = 12

coordinates = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def serving_batches(draw) -> Batch:
    """Any collated serving batch: B >= 1 rows, K >= 1 neighbour slots, any
    mask, any domain ids a float64 carries exactly, zero ``future``."""
    size = draw(st.integers(1, 6))
    slots = draw(st.integers(1, 4))
    obs_len = draw(st.integers(2, OBS_LEN))
    pred_len = draw(st.integers(1, PRED_LEN))
    return Batch(
        obs=draw(arrays(np.float64, (size, obs_len, 2), elements=coordinates)),
        future=np.zeros((size, pred_len, 2)),
        neighbours=draw(
            arrays(np.float64, (size, slots, obs_len, 2), elements=coordinates)
        ),
        neighbour_mask=draw(arrays(np.bool_, (size, slots))),
        domain_ids=draw(
            arrays(np.int64, (size,), elements=st.integers(-(2**31), 2**31))
        ),
        origins=draw(arrays(np.float64, (size, 2), elements=coordinates)),
    )


@st.composite
def request_lists(draw) -> list[PredictRequest]:
    """1-8 requests, each with 0-5 neighbours and its own domain id."""
    requests = []
    for index in range(draw(st.integers(1, 8))):
        count = draw(st.integers(0, 5))
        requests.append(
            PredictRequest(
                request_id=index,
                obs=draw(arrays(np.float64, (OBS_LEN, 2), elements=coordinates)),
                neighbours=draw(
                    arrays(np.float64, (count, OBS_LEN, 2), elements=coordinates)
                ),
                domain_id=draw(st.integers(0, 3)),
            )
        )
    return requests


@settings(max_examples=100, deadline=None)
@given(serving_batches())
def test_wire_round_trip_is_exact(batch):
    clone = batch_from_wire(batch_to_wire(batch))
    for name in ("obs", "future", "neighbours", "neighbour_mask", "domain_ids", "origins"):
        ours, theirs = getattr(batch, name), getattr(clone, name)
        assert theirs.dtype == ours.dtype, name
        np.testing.assert_array_equal(theirs, ours, err_msg=name)


@settings(max_examples=100, deadline=None)
@given(request_lists(), st.one_of(st.none(), st.integers(0, 5)))
def test_each_collated_row_equals_its_request_collated_alone(requests, max_neighbours):
    batch = collate_requests(requests, pred_len=PRED_LEN, max_neighbours=max_neighbours)
    assert batch.size == len(requests)
    assert not batch.future.any()
    for row, request in enumerate(requests):
        alone = collate_requests([request], pred_len=PRED_LEN, max_neighbours=max_neighbours)
        np.testing.assert_array_equal(batch.obs[row], alone.obs[0])
        np.testing.assert_array_equal(batch.origins[row], alone.origins[0])
        assert batch.domain_ids[row] == alone.domain_ids[0] == request.domain_id
        own = alone.neighbours.shape[1]
        np.testing.assert_array_equal(batch.neighbours[row, :own], alone.neighbours[0])
        np.testing.assert_array_equal(batch.neighbour_mask[row, :own], alone.neighbour_mask[0])
        # Slots that only the wider batch has are padding: zero and masked out.
        assert not batch.neighbours[row, own:].any()
        assert not batch.neighbour_mask[row, own:].any()
