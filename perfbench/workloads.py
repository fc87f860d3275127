"""The benchmark's four workloads.

Each workload runs inside one fresh interpreter (see ``child.py``) in
three phases: :meth:`prepare` builds the inputs from the seed (not
timed), :meth:`run` is the timed section, and :meth:`check` verifies
the outputs afterwards (not timed).  Every workload calls only public
entry points with the program's default options; the seed and the input
sizes below are the only things that change.

``check`` returns ``(attempted, failed, extra)``: the runs or jobs
attempted, how many of them failed or failed an output check, and the
user-visible figures that exist on this workload only.
"""

from __future__ import annotations

import functools
import json
import random
import time
from pathlib import Path
from typing import Any

from repro.analysis.store import RunStore
from repro.api import BaselineManager, BenchmarkSpec, compare, gate, serve
from repro.core import registry
from repro.core.prescription import builtin_repository, load_seed
from repro.core.process import BenchmarkingProcess
from repro.core.test_generator import TestGenerator
from repro.datagen.cache import DatasetCache
from repro.datagen.veracity import text_veracity
from repro.execution.harness import BenchmarkHarness
from repro.execution.runner import TestRunner

from tracing import percentile


#: Per-layer figures that only some workloads have; the others report 0.
EXTRA_METRICS = (
    "datagen.veracity_js",
    "service.job_p50_s",
    "service.job_p90_s",
    "service.queue_wait_s",
    "analysis.gate_s",
)


def _seeded_generator(name: str, seed: int):
    generator = registry.generators.create(name)
    generator.seed = seed
    # The LDA text generator draws its fit from its model's own seed.
    model = getattr(generator, "model", None)
    if model is not None:
        model.seed = seed
    return generator


def seeded_generators(seed: int) -> registry.Registry:
    """The default generator registry, with every generator seeded."""
    seeded = registry.Registry("data generator")
    for name in registry.generators.names():
        seeded.register(name, functools.partial(_seeded_generator, name, seed))
    return seeded


def _cached(test_generator: TestGenerator, prescription: str, volume: int):
    """The data set a run generated, as its dataset cache still holds it."""
    requirement = test_generator.repository.get(prescription).data
    key = DatasetCache.make_key(
        requirement.generator,
        test_generator.generators.create(requirement.generator).seed,
        volume,
        requirement.num_partitions,
        requirement.fit_on,
    )
    return test_generator.dataset_cache.peek(key)


def _holds_volume(dataset: Any, volume: int) -> bool:
    """Whether a generated data set holds the stated volume.

    Graph generators count the volume in vertices, every other
    generator in records.
    """
    if dataset is None or dataset.num_records == 0:
        return False
    if dataset.data_type.label == "graph":
        return max(max(edge) for edge in dataset.records) < volume
    return dataset.num_records == volume


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def run(self) -> None:
        raise NotImplementedError

    def check(self) -> tuple[int, int, dict[str, float]]:
        raise NotImplementedError


class TextSweep(Workload):
    """A volume sweep of ``search-index`` (LDA text → inverted index on
    MapReduce) through the harness sweep path."""

    name = "text-sweep"
    VOLUMES = (250, 1000)

    def prepare(self) -> None:
        self.generator = TestGenerator(generator_registry=seeded_generators(self.seed))
        self.harness = BenchmarkHarness(TestRunner(test_generator=self.generator))

    def run(self) -> None:
        try:
            self.report = self.harness.volume_sweep(
                "search-index", "mapreduce", list(self.VOLUMES)
            )
        finally:
            self.harness.runner.close()

    def check(self) -> tuple[int, int, dict[str, float]]:
        failed = 0
        datasets = []
        points = {point.value: point.result for point in self.report.points}
        for volume in self.VOLUMES:
            dataset = _cached(self.generator, "search-index", volume)
            datasets.append(dataset)
            result = points.get(volume)
            if result is None or not result.ok or not _holds_volume(dataset, volume):
                failed += 1
        veracity = 0.0
        if datasets[-1] is not None:
            # The largest point's data set, exactly as the run generated it.
            report = text_veracity(load_seed("text-corpus").records, datasets[-1].records)
            veracity = report.score
            if not report.is_faithful:
                failed = max(failed, 1)
        return len(self.VOLUMES), failed, {"datagen.veracity_js": veracity}


class _ProcessRuns(Workload):
    """Runs of the five-step process, one per (prescription, volume, params)."""

    RUNS: tuple[tuple[str, int, dict[str, Any]], ...] = ()

    def prepare(self) -> None:
        self.repository = builtin_repository()
        self.generator = TestGenerator(
            self.repository, generator_registry=seeded_generators(self.seed)
        )
        self.process = BenchmarkingProcess(self.repository, self.generator)
        self.specs = [
            BenchmarkSpec(prescription, volume=volume, params=self.params(params))
            for prescription, volume, params in self.RUNS
        ]

    def params(self, params: dict[str, Any]) -> dict[str, Any]:
        return dict(params)

    def run(self) -> None:
        self.reports = [self.process.execute(spec) for spec in self.specs]

    def check(self) -> tuple[int, int, dict[str, float]]:
        attempted = failed = 0
        for spec, report in zip(self.specs, self.reports):
            engines = spec.resolved_engines(self.repository)
            attempted += len(engines)
            dataset = _cached(self.generator, spec.prescription, spec.volume)
            generated = report.step("data-generation").detail.get("records")
            if (
                not _holds_volume(dataset, spec.volume)
                or generated != dataset.num_records
                or report.failures
                or sorted(r.engine for r in report.results) != sorted(engines)
            ):
                failed += len(engines)
                continue
            failed += sum(1 for result in report.results if not result.ok)
        return attempted, failed, {}


class Analytics(_ProcessRuns):
    """The engines' read-only operator paths: a relational join and
    aggregate, an iterative MapReduce chain, and windowed streaming."""

    name = "analytics"
    # PageRank stops at convergence, which takes 12 to 17 iterations
    # depending on the seeded graph; a fixed cap keeps the work per seed
    # equal, so seeds vary the data, not the amount of work.
    RUNS = (
        ("database-aggregate-join", 30000, {}),
        ("search-pagerank", 2048, {"max_iterations": 12}),
        ("realtime-windowed-aggregation", 30000, {}),
    )


class Oltp(_ProcessRuns):
    """YCSB mix A (50% reads, 50% updates) on the DBMS and the NoSQL
    store: point reads and in-place writes."""

    name = "oltp"
    RUNS = (("oltp-read-write", 2500, {"operation_count": 5000}),)

    def params(self, params: dict[str, Any]) -> dict[str, Any]:
        return {**params, "seed": self.seed}


class RecordedService(Workload):
    """A closed loop: one client submits small recorded ``micro-cfs``
    jobs, one at a time, to the in-process service over a run store with
    a long history, then gates and compares against a baseline."""

    name = "recorded-service"
    JOBS = 100
    HISTORY = 1000
    VOLUMES = (40, 80, 120, 160)

    def spec(self, volume: int) -> BenchmarkSpec:
        return BenchmarkSpec(
            "micro-cfs", volume=volume, repeats=3, record=True, store_dir=str(self.workdir)
        )

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        self.store = RunStore(self.workdir)
        with serve(schedulers=1, store_dir=str(self.workdir)) as client:
            for volume in self.VOLUMES:
                client.submit(self.spec(volume)).wait(timeout=60)
        templates = self.store.records()
        lines = []
        for index in range(self.HISTORY):
            payload = rng.choice(templates).as_dict()
            payload["record_id"] = f"r{index + 1:04d}"
            lines.append(payload)
        # Written in one pass: appending through the store would cost
        # the quadratic growth the timed section is there to measure.
        self.store.path.write_text(
            "".join(json.dumps(line, default=str) + "\n" for line in lines),
            encoding="utf-8",
        )
        (self.workdir / "jobs.jsonl").unlink()
        self.order = [rng.choice(self.VOLUMES) for _ in range(self.JOBS)]
        baseline = next(
            record
            for record in reversed(self.store.records())
            if record.fingerprint.get("volume") == self.order[-1]
        )
        BaselineManager(self.store).promote(baseline.record_id, "main")
        self.history = len(self.store.records())

    def run(self) -> None:
        self.jobs = []
        self.latencies = []
        with serve(schedulers=1, store_dir=str(self.workdir)) as client:
            for volume in self.order:
                submitted = time.perf_counter()
                job = client.submit(self.spec(volume)).wait(timeout=60)
                self.latencies.append(time.perf_counter() - submitted)
                self.jobs.append(job)
        started = time.perf_counter()
        self.verdict = gate("main", store_dir=str(self.workdir))
        self.comparison = compare(
            self.verdict.baseline_id, self.verdict.candidate_id, store_dir=str(self.workdir)
        )
        self.gate_s = time.perf_counter() - started

    def check(self) -> tuple[int, int, dict[str, float]]:
        failed = sum(
            1 for job in self.jobs if job.state != "done" or len(job.record_ids) != 1
        )
        new_ids = [record_id for job in self.jobs for record_id in job.record_ids]
        grown = [record.record_id for record in self.store.records()[self.history:]]
        if grown != new_ids:
            failed = max(failed, 1)
        # gate exit code 1 is a wall-clock verdict on two n=3 samples,
        # not a failure; only a gate that resolved nothing is.
        if not self.verdict.candidate_id or not self.comparison.metrics:
            failed = max(failed, 1)
        return self.JOBS, failed, {
            "service.job_p50_s": percentile(self.latencies, 50),
            "service.job_p90_s": percentile(self.latencies, 90),
            "service.queue_wait_s": sum(job.queue_wait_seconds() or 0.0 for job in self.jobs),
            "analysis.gate_s": self.gate_s,
        }


WORKLOADS = {
    workload.name: workload
    for workload in (TextSweep, Analytics, Oltp, RecordedService)
}
