"""Backend parity: every backend × tracing mode gives the same answer.

``run_many`` has one per-task function behind its two dispatch
branches (warm process pool, in-process map).  These tests run the same
batches on {serial, thread, process} × {untraced, traced} and hold each
combination to the serial, untraced reference: the same ``test_name``
order, identical deterministic metric means, captured failures in the
same slots with the same attempt counts, and — when traced — exactly
one grafted ``task`` root per task plus a ``trace_summary`` on every
outcome.
"""

from __future__ import annotations

import pytest

from repro.core.results import RunResult, TaskFailure
from repro.engines.faults import FaultSpec
from repro.execution.config import SystemConfiguration
from repro.execution.runner import RunnerOptions, RunTask, TestRunner
from repro.observability import Tracer

PRESCRIPTION = "database-aggregate-join"
VOLUME = 60

#: Metrics that do not depend on wall-clock time: mapreduce metrics
#: derive from the simulated cluster makespan, nosql metrics from the
#: store's seeded latency model.
DETERMINISTIC_METRICS = {
    "mapreduce": [
        "throughput", "ops_per_second", "data_rate",
        "network_rate", "energy", "cost",
    ],
    "nosql": ["throughput", "mean_latency", "latency_p95", "latency_p99"],
}

BATCH = [
    RunTask(PRESCRIPTION, "mapreduce", VOLUME),
    RunTask(PRESCRIPTION, "nosql", VOLUME),
]

#: The same batch with the nosql engine failing every attempt.
FAULTY_BATCH = [
    RunTask(PRESCRIPTION, "mapreduce", VOLUME),
    RunTask(
        PRESCRIPTION,
        "nosql",
        VOLUME,
        configuration=SystemConfiguration(
            "nosql", fault=FaultSpec(failure_rate=1.0)
        ),
    ),
]

COMBINATIONS = [
    (backend, traced)
    for backend in ("serial", "thread", "process")
    for traced in (False, True)
]


def _run(backend: str, traced: bool, tasks: list[RunTask], **kwargs):
    """Outcomes of one batch, plus the parent tracer (None untraced)."""
    runner = TestRunner(
        options=RunnerOptions(executor=backend, max_workers=2)
    )
    with runner:
        if not traced:
            return runner.run_many(tasks, **kwargs), None
        tracer = Tracer()
        with tracer.activate():
            outcomes = runner.run_many(tasks, **kwargs)
        return outcomes, tracer


def _deterministic_means(outcomes) -> list[dict[str, float] | None]:
    return [
        {
            name: outcome.mean(name)
            for name in DETERMINISTIC_METRICS[outcome.engine]
        }
        if isinstance(outcome, RunResult)
        else None
        for outcome in outcomes
    ]


def _failure_slots(outcomes) -> list[tuple[int, str, int]]:
    return [
        (index, outcome.error_type, outcome.attempts)
        for index, outcome in enumerate(outcomes)
        if isinstance(outcome, TaskFailure)
    ]


def _assert_trace_shape(outcomes, tracer: Tracer | None) -> None:
    if tracer is None:
        for outcome in outcomes:
            assert "trace" not in outcome.extra
            assert "trace_summary" not in outcome.extra
        return
    roots = tracer.roots()
    assert [root.name for root in roots] == ["task"] * len(outcomes)
    assert [root.attrs["index"] for root in roots] == list(
        range(len(outcomes))
    )
    for outcome in outcomes:
        assert "trace" not in outcome.extra
        assert "trace_summary" in outcome.extra


@pytest.fixture(scope="module")
def reference():
    outcomes, _ = _run("serial", False, BATCH)
    return outcomes


@pytest.fixture(scope="module")
def faulty_reference():
    outcomes, _ = _run(
        "serial", False, FAULTY_BATCH, on_error="continue", retries=1
    )
    return outcomes


@pytest.mark.parametrize(("backend", "traced"), COMBINATIONS)
class TestBackendParity:
    def test_batch_matches_serial_untraced(self, backend, traced, reference):
        outcomes, tracer = _run(backend, traced, BATCH)
        assert [o.test_name for o in outcomes] == [
            o.test_name for o in reference
        ]
        assert all(isinstance(o, RunResult) for o in outcomes)
        assert _deterministic_means(outcomes) == _deterministic_means(
            reference
        )
        _assert_trace_shape(outcomes, tracer)

    def test_failures_land_in_the_same_slots(
        self, backend, traced, faulty_reference
    ):
        outcomes, tracer = _run(
            backend, traced, FAULTY_BATCH, on_error="continue", retries=1
        )
        assert [o.test_name for o in outcomes] == [
            o.test_name for o in faulty_reference
        ]
        assert _failure_slots(outcomes) == _failure_slots(faulty_reference)
        assert _failure_slots(outcomes) == [(1, "InjectedFault", 2)]
        assert _deterministic_means(outcomes) == _deterministic_means(
            faulty_reference
        )
        _assert_trace_shape(outcomes, tracer)
        if tracer is not None:
            statuses = [root.attrs["status"] for root in tracer.roots()]
            assert statuses == ["ok", "failed"]
