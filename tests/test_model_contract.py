"""The iteration contract, pinned by what every entry point leaves in the log.

Each case runs model entry points on a fresh shape-backend machine at tiny
scale and digests what the machine did: the number of rows, the host clock at
the end (rounded to 6 decimals) and a sha256 over every row's ``(kind, name,
resource, region, stream)``.  Raw floats stay out of the hash, so the numpy
versions of the CI matrix cannot move it.  ``RECORDED`` is the table the code
produced while every model still ended its own iterations; moving those ends
into ``DGNNModel`` must leave each digest unchanged.

Print the table for the current code with
``PYTHONPATH=src python tests/test_model_contract.py``.
"""

import hashlib
import itertools
from functools import partial

import pytest

from repro.cache import backfill_embeddings, make_model_cache
from repro.hw import Machine
from repro.models import MODEL_NAMES, build_model
from repro.models.registry import build_on_fresh_machine
from repro.optim import OverlappedRunner, PipelinedEvolveGCN
from repro.serve import build_replicas

#: Row fields the digest hashes: kind, name, resource, region, stream.
FIELDS = (0, 1, 2, 7, 10)


def digest(machine):
    rows = machine.events.rows
    hashed = hashlib.sha256(repr([tuple(row[i] for i in FIELDS) for row in rows]).encode())
    return (len(rows), round(machine.host_time_ms, 6), hashed.hexdigest()[:16])


def _built(name, use_gpu=True):
    machine, model = build_on_fresh_machine(name, use_gpu=use_gpu, backend="shape", scale="tiny")
    return machine, model, list(itertools.islice(model.iteration_batches(), 3))


def _two_iterations(name, use_gpu):
    machine, model, batches = _built(name, use_gpu)
    with machine.activate():
        model.warm_up(batches[0])
        for batch in (batches * 2)[:2]:  # MolDGNN's tiny dataset is one batch
            model.inference_iteration(batch)
    return machine


def _overlapped_runner():
    machine, model, batches = _built("tgat")
    with machine.activate():
        model.warm_up(batches[0])
        OverlappedRunner(model).run(batches)
    return machine


def _dispatched_replicas():
    _, tgat, batches = _built("tgat")
    machine = Machine("2xA100-nvlink", backend="shape")
    with machine.activate():
        replicas = build_replicas(machine, lambda: build_model("tgat", machine, tgat.dataset))
        for replica in replicas:
            replica.warm_up(batches[0])
            plan = replica.prepare_iteration(batches[0])
            replica.dispatch_iteration(batches[0], plan=plan)
    return machine


def _cached_backfill():
    machine, model, batches = _built("tgat")
    with machine.activate():
        model.warm_up(batches[0])
        make_model_cache(model, staleness_ms=1e6)
        model.inference_iteration(batches[0])
        backfill_embeddings(model, top_k=16)
        model.inference_iteration(batches[1])
    return machine


def _pipelined_window(use_streams):
    machine, model, batches = _built("evolvegcn-o")
    with machine.activate():
        model.warm_up(batches[0])
        PipelinedEvolveGCN(model, use_streams=use_streams).run_window(batches)
    return machine


CASES = {
    **{
        f"{name}-{device}": partial(_two_iterations, name, device == "gpu")
        for name in MODEL_NAMES
        for device in ("cpu", "gpu")
    },
    "tgat-overlapped-runner": _overlapped_runner,
    "tgat-dispatch-2xA100-nvlink": _dispatched_replicas,
    "tgat-cached-backfill": _cached_backfill,
    "evolvegcn-o-pipelined-streams": partial(_pipelined_window, True),
    "evolvegcn-o-pipelined-default-stream": partial(_pipelined_window, False),
}

#: ``case -> (rows, end host_time_ms, sha256 prefix)``.
RECORDED = {
    "jodie-cpu": (66, 0.478552, "a5ddd83192e5f9c2"),
    "jodie-gpu": (99, 6208.026783, "53685608505ab30a"),
    "tgn-cpu": (130, 8.735782, "062deb0bc078c87e"),
    "tgn-gpu": (167, 6218.345083, "4d92732db92af6c2"),
    "evolvegcn-o-cpu": (62, 0.441104, "7783d1687ac9e7fa"),
    "evolvegcn-o-gpu": (79, 6207.633968, "ce071828b9ca9752"),
    "evolvegcn-h-cpu": (90, 0.653958, "c0ba65bfdf98996d"),
    "evolvegcn-h-gpu": (107, 6208.634722, "9e1bd2e1163ff0e4"),
    "tgat-cpu": (174, 85.54079, "1e9596b16c035cdc"),
    "tgat-gpu": (217, 6287.734666, "33108077f30061aa"),
    "astgnn-cpu": (220, 9.443396, "6e7dc665a2a2761a"),
    "astgnn-gpu": (237, 6214.34399, "2f2b0644b0a3c2e4"),
    "dyrep-cpu": (7554, 54.591933, "ac5ae0e9529f4c5d"),
    "dyrep-gpu": (7567, 6500.605571, "075e1f7a87779c31"),
    "ldg-cpu": (4994, 34.987457, "d49ae0c076c3cfc2"),
    "ldg-gpu": (5007, 6404.980721, "09964cb63700ca70"),
    "moldgnn-cpu": (348, 13.508886, "1e95527d74cd27ad"),
    "moldgnn-gpu": (737, 6228.93776, "627a43e78c033899"),
    "tgat-overlapped-runner": (329, 6324.251618, "0499e5ded6567a02"),
    "tgat-dispatch-2xA100-nvlink": (222, 12489.924889, "f5bcd1534e4c6814"),
    "tgat-cached-backfill": (4589, 6241.509512, "23f77dd87d6eb764"),
    "evolvegcn-o-pipelined-streams": (115, 6208.841176, "c7ae516f06989153"),
    "evolvegcn-o-pipelined-default-stream": (109, 6208.841176, "7bc7a3c166e0e973"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_event_log_matches_the_recording(case):
    assert digest(CASES[case]()) == RECORDED[case]


def test_every_case_is_recorded():
    assert sorted(RECORDED) == sorted(CASES)


if __name__ == "__main__":
    for case in CASES:
        rows, end_ms, sha = digest(CASES[case]())
        print(f'    "{case}": ({rows}, {end_ms!r}, "{sha}"),')
