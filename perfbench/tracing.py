"""Per-layer spans recorded from outside the program.

:class:`SpanRecorder` replaces public methods of each layer with thin
wrappers that open a span around the call.  The program's own code is
never edited: the wrappers are installed on the imported classes (and
on every module that imported a wrapped function) inside the benchmark
child process, after the untraced set-up has been measured.

A span is ``(name, start, end, parent, run, thread, attrs)``.  ``parent``
is the index of the enclosing span on the same thread, so the service's
scheduler thread and the client thread keep separate trees.  Spans stay
in memory; :meth:`SpanRecorder.dump` writes them once, at the end.

A layer is the module prefix of a span name (``datagen.fit`` belongs to
``datagen``, ``engines.dbms.update`` to ``engines.dbms``).  Self time is
a span's duration minus the part of it its child spans cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

#: Span names whose durations also get per-call percentiles, with the
#: highest percentile that keeps at least ten samples beyond it at the
#: benchmark's input sizes.
PERCENTILES = {
    "engines.dbms.execute": 99,
    "engines.dbms.update": 99,
    "engines.nosql.read": 99,
    "engines.nosql.update": 99,
    "analysis.append": 90,
}

#: Layer (module) of each span-name prefix, longest prefix first.
LAYERS = (
    "engines.dbms",
    "engines.mapreduce",
    "engines.nosql",
    "engines.streaming",
    "datagen",
    "core",
    "execution",
    "workload",
    "analysis",
    "service",
)


def layer_of(name: str) -> str:
    for layer in LAYERS:
        if name == layer or name.startswith(layer + "."):
            return layer
    raise ValueError(f"span {name!r} belongs to no known layer")


class SpanRecorder:
    """Collects spans from the wrappers it installs."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Wrappers record only while this is set (the timed section).
        self.active = False
        #: Dataset caches seen during the traced section, with their
        #: counters at first sight (for a delta at the end).
        self.caches: dict[int, tuple[Any, Any]] = {}

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "run": self.run_id,
            "thread": threading.current_thread().name,
            "attrs": {},
        }
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack().pop()

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str | Callable[..., str],
        after: Callable[[dict[str, Any], tuple, Any], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attribute`` as a span.

        ``name`` may be a function of the call's arguments (so one
        dispatcher can be keyed by engine); ``after`` may attach counts
        from the arguments and the returned value to the span.
        """
        original = owner.__dict__[attribute]

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return original(*args, **kwargs)
            index = self._open(name(*args, **kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(self.spans[index]["attrs"], args, result)
            return result

        setattr(owner, attribute, wrapper)

    def wrap_function(self, original: Callable, name: str) -> None:
        """Time a module-level function under every name it is bound to."""
        wrapper = None
        for module in list(sys.modules.values()):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    if wrapper is None:
                        self.wrap(module, attribute, name)
                        wrapper = getattr(module, attribute)
                    else:
                        setattr(module, attribute, wrapper)

    def install(self) -> None:
        """Wrap the public calls into every measured layer."""
        from repro.analysis.compare import compare_records
        from repro.analysis.store import RunStore
        from repro.core.process import BenchmarkingProcess
        from repro.core.test_generator import TestGenerator
        from repro.datagen.base import DataGenerator, DataSet
        from repro.datagen.cache import DatasetCache
        from repro.engines.dbms import DbmsEngine
        from repro.engines.mapreduce import MapReduceEngine
        from repro.engines.nosql import NoSqlStore
        from repro.engines.streaming import StreamingEngine
        from repro.execution.runner import TestRunner
        from repro.service.jobs import JobLog
        from repro.service.orchestrator import Orchestrator
        from repro.workloads.base import Workload

        def generated(attrs: dict, args: tuple, result: Any) -> None:
            attrs["records"] = result.num_records

        generators = [DataGenerator]
        while generators:
            cls = generators.pop()
            generators.extend(cls.__subclasses__())
            if "fit" in cls.__dict__:
                self.wrap(cls, "fit", "datagen.fit")
            for method in ("generate", "generate_parallel"):
                if method in cls.__dict__:
                    self.wrap(cls, method, "datagen.generate", generated)
        self.wrap(DataSet, "estimated_bytes", "datagen.sizing")

        original_get = DatasetCache.__dict__["get_or_generate"]

        @functools.wraps(original_get)
        def get_or_generate(cache: DatasetCache, *args: Any, **kwargs: Any):
            if self.active and id(cache) not in self.caches:
                self.caches[id(cache)] = (cache, cache.stats())
            return original_get(cache, *args, **kwargs)

        DatasetCache.get_or_generate = get_or_generate

        self.wrap(TestGenerator, "select_data", "core.select_data")
        self.wrap(BenchmarkingProcess, "execute", "core.process")

        def tasks(attrs: dict, args: tuple, result: Any) -> None:
            attrs["tasks"] = len(result)

        self.wrap(TestRunner, "run_many", "execution.run_many", tasks)
        self.wrap(
            Workload, "run", lambda workload, engine, *a, **k: f"workload.{engine.name}"
        )

        def query(attrs: dict, args: tuple, result: Any) -> None:
            attrs["rows_out"] = len(result.rows)
            attrs["records_read"] = result.cost.records_read

        self.wrap(DbmsEngine, "execute", "engines.dbms.execute", query)
        self.wrap(DbmsEngine, "update", "engines.dbms.update")
        self.wrap(DbmsEngine, "insert", "engines.dbms.insert")

        def job(attrs: dict, args: tuple, result: Any) -> None:
            attrs["network_bytes"] = result.cost.network_bytes
            attrs["input_records"] = result.counters.get("map", "input_records")

        self.wrap(MapReduceEngine, "run", "engines.mapreduce.job", job)
        self.wrap(MapReduceEngine, "run_chain", "engines.mapreduce.chain")
        for method in ("read", "update", "insert"):
            self.wrap(NoSqlStore, method, f"engines.nosql.{method}")
        self.wrap(StreamingEngine, "run", "engines.streaming.run")

        self.wrap(RunStore, "record_outcome", "analysis.append")
        self.wrap(RunStore, "records", "analysis.records")
        self.wrap_function(compare_records, "analysis.compare")
        self.wrap(Orchestrator, "submit", "service.submit")
        self.wrap(JobLog, "append", "service.joblog_append")

    # -- analysis -----------------------------------------------------------

    def _children(self) -> dict[int, list[int]]:
        children: dict[int, list[int]] = {}
        for index, span in enumerate(self.spans):
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(index)
        return children

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children."""
        children = self._children()
        out = []
        for index, span in enumerate(self.spans):
            intervals = sorted(
                (self.spans[child]["start"], self.spans[child]["end"])
                for child in children.get(index, [])
            )
            covered, reach = 0.0, span["start"]
            for start, end in intervals:
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span["end"] - span["start"] - covered)
        return out

    def _outermost(self, prefix: str) -> list[dict[str, Any]]:
        """Spans named ``prefix``* with no ancestor named ``prefix``*.

        A subclass method calling its base (``super().fit``) or a job
        chain running its jobs is then counted once, at the outer call.
        """
        out = []
        for span in self.spans:
            if not span["name"].startswith(prefix):
                continue
            parent = span["parent"]
            while parent is not None and not self.spans[parent][
                "name"
            ].startswith(prefix):
                parent = self.spans[parent]["parent"]
            if parent is None:
                out.append(span)
        return out

    def total(self, prefix: str) -> float:
        return sum(s["end"] - s["start"] for s in self._outermost(prefix))

    def count(self, prefix: str) -> int:
        return len(self._outermost(prefix))

    def attr_sum(self, prefix: str, key: str) -> float:
        return sum(s["attrs"].get(key, 0) for s in self._outermost(prefix))

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer over the whole traced section."""
        out: dict[str, float] = {}
        for span, own in zip(self.spans, self.self_times()):
            layer = layer_of(span["name"])
            out[layer] = out.get(layer, 0.0) + own
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric the trace can give, by name."""
        own = self.self_times()

        def self_of(name: str) -> float:
            return sum(t for s, t in zip(self.spans, own) if s["name"] == name)

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        hits = requests = 0
        for cache, before in self.caches.values():
            delta = cache.stats().since(before)
            hits += delta.hits
            requests += delta.requests
        generate_s = self.total("datagen.generate")
        values = {
            "datagen.fit_s": self.total("datagen.fit"),
            "datagen.fit_calls": self.count("datagen.fit"),
            "datagen.generate_s": generate_s,
            "datagen.records_per_s": ratio(
                self.attr_sum("datagen.generate", "records"), generate_s
            ),
            "datagen.sizing_s": self.total("datagen.sizing"),
            "datagen.cache_hit_rate": ratio(hits, requests),
            "core.select_data_s": self.total("core.select_data"),
            "core.process_self_s": self_of("core.process"),
            "execution.run_many_s": self.total("execution.run_many"),
            "execution.dispatch_self_s": self_of("execution.run_many"),
            "execution.tasks": self.attr_sum("execution.run_many", "tasks"),
            "engines.dbms.execute_s": self.total("engines.dbms.execute"),
            "engines.dbms.execute_calls": self.count("engines.dbms.execute"),
            "engines.dbms.rows_read_per_row_out": ratio(
                self.attr_sum("engines.dbms.execute", "records_read"),
                self.attr_sum("engines.dbms.execute", "rows_out"),
            ),
            "engines.dbms.update_s": self.total("engines.dbms.update"),
            "engines.dbms.update_calls": self.count("engines.dbms.update"),
            "engines.dbms.insert_s": self.total("engines.dbms.insert"),
            "engines.mapreduce.job_s": self.total("engines.mapreduce."),
            "engines.mapreduce.jobs": self.count("engines.mapreduce.job"),
            "engines.mapreduce.network_bytes_per_record": ratio(
                self.attr_sum("engines.mapreduce.job", "network_bytes"),
                self.attr_sum("engines.mapreduce.job", "input_records"),
            ),
            "engines.nosql.read_s": self.total("engines.nosql.read"),
            "engines.nosql.update_s": self.total("engines.nosql.update"),
            "engines.nosql.insert_s": self.total("engines.nosql.insert"),
            "engines.streaming.run_s": self.total("engines.streaming.run"),
            "analysis.append_s": self.total("analysis.append"),
            "analysis.appends": self.count("analysis.append"),
            "analysis.records_s": self.total("analysis.records"),
            "analysis.records_calls": self.count("analysis.records"),
            "analysis.compare_s": self.total("analysis.compare"),
            "service.submit_s": self.total("service.submit"),
            "service.joblog_append_s": self.total("service.joblog_append"),
            "service.joblog_appends": self.count("service.joblog_append"),
        }
        for engine in ("dbms", "mapreduce", "nosql", "streaming"):
            values[f"workload.{engine}_s"] = self.total(f"workload.{engine}")
        for name, pct in PERCENTILES.items():
            durations = [s["end"] - s["start"] for s in self._outermost(name)]
            values[f"{name}_p50_ms"] = percentile(durations, 50) * 1e3
            values[f"{name}_p{pct}_ms"] = percentile(durations, pct) * 1e3
        return values

    def dump(self, path: Path, **extra: Any) -> None:
        """Write every span (and ``extra`` summary fields) as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"run": self.run_id, **extra, "spans": self.spans}
        path.write_text(json.dumps(payload, default=str) + "\n", encoding="utf-8")


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
