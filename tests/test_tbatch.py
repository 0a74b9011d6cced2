"""JODIE's t-batches over the interaction datasets, checked by ``validate_tbatches``."""

from dataclasses import fields
from typing import List

import numpy as np
import pytest

from repro.datasets import load
from repro.graph import EventStream, TBatch, validate_tbatches
from repro.graph.tbatch import iter_tbatches
from repro.hw import Machine
from repro.models import build_model

INTERACTION_DATASETS = ("wikipedia", "reddit", "lastfm", "social-evolution", "github")


@pytest.mark.parametrize("name", INTERACTION_DATASETS)
def test_build_tbatches_satisfies_both_invariants(name):
    stream = load(name, scale="tiny").stream
    batches = list(iter_tbatches(stream))
    assert validate_tbatches(stream, batches)
    assert sum(batch.size for batch in batches) == stream.num_events


def test_validate_tbatches_rejects_a_repeated_user_and_a_dropped_batch():
    stream = load("wikipedia", scale="tiny").stream
    batches = list(iter_tbatches(stream))
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


def _copy_an_event_forward_and_drop_another(batches):
    """Copy an event of batch 0 into the first later batch that shares none of
    its nodes, and drop the last event of the last batch: every batch keeps
    distinct users and items, and the summed sizes still match the stream."""
    first = batches[0]
    event, user, item = first.event_indices[0], first.users[0], first.items[0]
    target = next(
        index
        for index in range(2, len(batches) - 1)
        if user not in batches[index].users and item not in batches[index].items
    )
    extra = (event, user, item, first.timestamps[0])
    names = ("event_indices", "users", "items", "timestamps")
    copied = TBatch(
        *(np.append(getattr(batches[target], name), value) for name, value in zip(names, extra))
    )
    last = batches[-1]
    dropped = TBatch(*(getattr(last, name)[:-1] for name in names))
    return batches[:target] + [copied] + batches[target + 1 : -1] + [dropped]


def _renumber_the_last_event_past_the_stream(batches):
    last = batches[-1]
    renumbered = np.append(last.event_indices[:-1], last.event_indices[-1] + 10**6)
    return batches[:-1] + [TBatch(renumbered, last.users, last.items, last.timestamps)]


#: Reorderings and edits that keep every batch's users and items distinct and
#: the summed sizes equal to the stream's, so only the order check or the
#: coverage check can see them.
MISORDERED = {
    "reversed": lambda batches: batches[::-1],
    "two adjacent swapped": lambda batches: batches[:3] + [batches[4], batches[3]] + batches[5:],
    "an event copied forward, another dropped": _copy_an_event_forward_and_drop_another,
    "the last event renumbered past the stream": _renumber_the_last_event_past_the_stream,
}


@pytest.mark.parametrize("case", sorted(MISORDERED))
def test_validate_tbatches_rejects_batches_out_of_order(case):
    stream = load("wikipedia", scale="tiny").stream
    wrong = MISORDERED[case](list(iter_tbatches(stream)))
    assert sum(batch.size for batch in wrong) == stream.num_events
    with pytest.raises(ValueError, match="goes backwards in time|exactly once"):
        validate_tbatches(stream, wrong)


# -- the one-pass builder against the per-event reference loop --------------------


def _reference_tbatches(stream: EventStream) -> List[TBatch]:
    last_batch_of_node: dict[int, int] = {}
    assignments = np.zeros(stream.num_events, dtype=np.int64)
    for index in range(stream.num_events):
        user = int(stream.src[index])
        item = int(stream.dst[index])
        batch_index = max(last_batch_of_node.get(user, -1), last_batch_of_node.get(item, -1)) + 1
        assignments[index] = batch_index
        last_batch_of_node[user] = batch_index
        last_batch_of_node[item] = batch_index
    num_batches = int(assignments.max() + 1) if stream.num_events else 0
    batches: List[TBatch] = []
    for batch_index in range(num_batches):
        positions = np.nonzero(assignments == batch_index)[0]
        batches.append(
            TBatch(
                event_indices=positions,
                users=stream.src[positions],
                items=stream.dst[positions],
                timestamps=stream.timestamps[positions],
            )
        )
    return batches


def _assert_same_batches(got, want):
    assert len(got) == len(want)
    for got_batch, want_batch in zip(got, want):
        for field in fields(TBatch):
            got_value = getattr(got_batch, field.name)
            want_value = getattr(want_batch, field.name)
            assert got_value.dtype == want_value.dtype, field.name
            assert np.array_equal(got_value, want_value), field.name


SYNTHETIC_STREAMS = {
    "self-loops": ([0, 1, 1, 2, 0, 3], [0, 1, 2, 2, 3, 3]),
    "repeated pairs": ([0, 0, 1, 0, 1, 2, 0], [5, 5, 6, 5, 6, 7, 5]),
    "a single event": ([4], [9]),
    "no events": ([], []),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC_STREAMS) + list(INTERACTION_DATASETS))
def test_build_tbatches_equals_the_per_event_reference(name):
    if name in SYNTHETIC_STREAMS:
        src, dst = SYNTHETIC_STREAMS[name]
        stream = EventStream(src, dst, np.arange(len(src), dtype=np.float64) / 2)
    else:
        stream = load(name, scale="tiny").stream
    _assert_same_batches(list(iter_tbatches(stream)), _reference_tbatches(stream))


def test_jodie_iteration_batches_split_the_reference_batches():
    machine = Machine.cpu_only()
    with machine.activate():
        model = build_model("jodie", machine, scale="tiny", max_tbatch_size=3)
    reference = _reference_tbatches(model.dataset.stream)
    assert any(batch.size > 3 for batch in reference)
    want = [piece for batch in reference for piece in model._split(batch)]
    _assert_same_batches(list(model.iteration_batches()), want)

