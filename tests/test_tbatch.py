"""JODIE's t-batches over the interaction datasets, checked by ``validate_tbatches``."""

import numpy as np
import pytest

from repro.datasets import load
from repro.graph import TBatch, build_tbatches, validate_tbatches

INTERACTION_DATASETS = ("wikipedia", "reddit", "lastfm", "social-evolution", "github")


@pytest.mark.parametrize("name", INTERACTION_DATASETS)
def test_build_tbatches_satisfies_both_invariants(name):
    stream = load(name, scale="tiny").stream
    batches = build_tbatches(stream, charge_host=False)
    assert validate_tbatches(stream, batches)
    assert sum(batch.size for batch in batches) == stream.num_events


def test_validate_tbatches_rejects_a_repeated_user_and_a_dropped_batch():
    stream = load("wikipedia", scale="tiny").stream
    batches = build_tbatches(stream, charge_host=False)
    with pytest.raises(ValueError, match="exactly once"):
        validate_tbatches(stream, batches[:-1])
    first, second = batches[0], batches[1]
    # Every event of the second batch waits on a node of the first, so the
    # merged batch must repeat a user or an item.
    merged = TBatch(
        *(
            np.concatenate([getattr(first, field), getattr(second, field)])
            for field in ("event_indices", "users", "items", "timestamps")
        )
    )
    with pytest.raises(ValueError, match="batch 0 repeats"):
        validate_tbatches(stream, [merged] + batches[2:])
