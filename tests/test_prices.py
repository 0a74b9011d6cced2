"""The host-work prices in ``repro.hw.spec`` reach every charge they feed.

Every charge site reads its price as ``spec.NAME`` when it charges (a
sampler when it builds its per-``k`` table), so rebinding one attribute of
``hw.spec`` reprices everything built afterwards -- the contract a joint
calibration relies on.  These are its smoke tests: double one price, build
fresh, run, and only the charges that price feeds move; put the price back
and the log is the one the scenario has always produced.
"""

import hashlib
from itertools import islice

import pytest

from repro.cache import DeviceResidentCache, make_eviction_policy
from repro.datasets import load
from repro.hw import SYNC, Machine, spec
from repro.models.evolvegcn import EvolveGCN, EvolveGCNConfig
from repro.models.registry import build_on_fresh_machine
from repro.optim import PipelinedEvolveGCN


def scenario_rows():
    """Two tiny-scale TGAT iterations on a fresh CPU+GPU machine (sampling
    and gather kernels), then one cache store's put / probe / invalidate
    batch settled with ``flush_charges``: the machine's event rows."""
    machine, model = build_on_fresh_machine("tgat", use_gpu=True, scale="tiny")
    with machine.activate():
        for index, batch in enumerate(islice(model.iteration_batches(), 2)):
            if index == 0:
                model.warm_up(batch)
            model.inference_iteration(batch)
        store = DeviceResidentCache(
            machine, machine.gpu, "embedding", make_eviction_policy("lru"), 64 * 256, 1e9
        )
        store.put_many(list(range(300)), True, [1.0] * 300, 64)
        store.probe_many(list(range(0, 600, 2)), [2.0] * 300)
        store.invalidate(list(range(0, 300, 3)))
        store.flush_charges()
    return [tuple(event) for event in machine.events]


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


#: The scenario's log before the prices moved to ``hw.spec``: row count and digest.
PINNED_LOG = (649, "f62a3147165f87c2")


def charges(rows):
    """Every row but its start and end, with its duration instead; a sync's
    duration is a wait, not a charge, so syncs are left out."""
    return [(row[0], row[1], row[2], row[4] - row[3], *row[5:]) for row in rows if row[0] != SYNC]


#: Each price, and the names of the scenario's rows it feeds.
FEEDS = {
    "SAMPLING_US_PER_TARGET": {"temporal_neighbor_sampling"},
    "SAMPLING_US_PER_CANDIDATE": {"temporal_neighbor_sampling"},
    "SAMPLING_US_PER_SAMPLE": {"temporal_neighbor_sampling"},
    "SAMPLING_SORT_US_PER_LOG2_DEGREE": {"temporal_neighbor_sampling"},
    "CACHE_PROBE_US_PER_KEY": {"cache_embedding_admin"},
    "CACHE_INSERT_US_PER_KEY": {"cache_embedding_admin"},
    "CACHE_INVALIDATE_US_PER_KEY": {"cache_embedding_admin"},
    "IRREGULAR_ACCESS_FACTOR": {"gather"},
}


@pytest.fixture(scope="module")
def baseline():
    rows = scenario_rows()
    assert (len(rows), digest(rows)) == PINNED_LOG
    return charges(rows)


@pytest.mark.parametrize("name", sorted(FEEDS))
def test_doubling_a_price_moves_only_the_charges_it_feeds(name, baseline, monkeypatch):
    monkeypatch.setattr(spec, name, 2 * getattr(spec, name))
    doubled = charges(scenario_rows())
    assert len(doubled) == len(baseline)
    moved = [(got, want) for got, want in zip(doubled, baseline) if got != want]
    assert moved
    assert {want[1] for _, want in moved} == FEEDS[name]
    # A moved row is the same charge on the same resource, no shorter (an
    # irregular access carries more bytes; a GPU gather may stay at its
    # launch floor), and the price shows in the durations.
    for got, want in moved:
        assert got[:3] == want[:3] and got[3] >= want[3]
    assert sum(got[3] for got, _ in moved) > sum(want[3] for _, want in moved)
    monkeypatch.undo()
    rows = scenario_rows()
    assert (len(rows), digest(rows)) == PINNED_LOG


def normalization_charges(pipelined, monkeypatch):
    """The durations charged as ``adjacency_normalization`` over the first
    four tiny Bitcoin-Alpha snapshots, run by EvolveGCN-O itself or by the
    pipelined schedule, on a fresh machine."""
    charged = []
    host_work = Machine.host_work

    def recording_host_work(machine, name, duration_ms, stream=None):
        if name == "adjacency_normalization":
            charged.append(duration_ms)
        host_work(machine, name, duration_ms, stream)

    dataset = load("bitcoin-alpha", scale="tiny")
    snapshots = list(dataset.snapshots)[:4]
    machine = Machine.cpu_gpu()
    with monkeypatch.context() as patch, machine.activate():
        patch.setattr(Machine, "host_work", recording_host_work)
        model = EvolveGCN(machine, dataset, EvolveGCNConfig(variant="O"))
        if pipelined:
            PipelinedEvolveGCN(model).run_window(snapshots)
        else:
            for snapshot in snapshots:
                model.inference_iteration(snapshot)
    assert len(charged) == len(snapshots)
    return charged


def test_the_pipelined_schedule_pays_evolvegcns_normalization_price(monkeypatch):
    before = normalization_charges(False, monkeypatch)
    assert normalization_charges(True, monkeypatch) == before
    monkeypatch.setattr(spec, "ADJ_NORMALIZATION_US_PER_NNZ", 3 * spec.ADJ_NORMALIZATION_US_PER_NNZ)
    sequential = normalization_charges(False, monkeypatch)
    assert normalization_charges(True, monkeypatch) == sequential
    assert all(moved > was for moved, was in zip(sequential, before))
