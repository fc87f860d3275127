"""Build the layer-share table from traced runs.

Usage, from the root of a checkout, after one traced run per workload::

    for w in text-sweep analytics oltp recorded-service; do
        python3 perfbench/run.py --workload $w --seed 1 --trace 1
    done
    python3 perfbench/layers.py

Reads the span files ``run.py --trace 1`` left in
``perfbench/.work/traces/`` and writes ``perfbench/layers.json``: for
each workload, every layer's self-time share of the traced ``wall_s``,
next to the layer predicted to dominate it, and a flag where the
prediction does not hold.  The table of which per-layer metric should
move which end-to-end figure is written beside it, with the values the
traces measured, and a flag where a metric reads 0 on a workload it is
predicted to move.
"""

from __future__ import annotations

import json
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: (per-layer metrics, timed call, figure they should move, workloads).
PREDICTIONS = (
    (("datagen.fit_s", "datagen.fit_calls"), "DataGenerator.fit (all subclasses)", "wall_s", ("text-sweep",)),
    (("datagen.generate_s", "datagen.records_per_s"), "DataGenerator.generate / generate_parallel", "wall_s", ("text-sweep", "oltp")),
    (("datagen.sizing_s",), "DataSet.estimated_bytes", "wall_s", ("analytics",)),
    (("datagen.cache_hit_rate",), "DatasetCache.stats()", "wall_s", ("analytics",)),
    (("core.select_data_s",), "TestGenerator.select_data", "wall_s", ("text-sweep", "analytics", "oltp", "recorded-service")),
    (("core.process_self_s",), "BenchmarkingProcess.execute minus timed children", "service.job_p50_s", ("recorded-service",)),
    (("execution.run_many_s", "execution.dispatch_self_s", "execution.tasks"), "TestRunner.run_many minus timed children", "service.job_p50_s", ("recorded-service",)),
    (("workload.dbms_s", "workload.nosql_s"), "Workload.run, keyed by engine.name", "wall_s", ("analytics", "oltp")),
    (("workload.mapreduce_s", "workload.streaming_s"), "Workload.run, keyed by engine.name", "wall_s", ("analytics",)),
    (("engines.dbms.execute_s", "engines.dbms.execute_calls", "engines.dbms.rows_read_per_row_out"), "DbmsEngine.execute and its CostCounters", "wall_s", ("analytics", "oltp")),
    (("engines.dbms.update_s", "engines.dbms.update_calls", "engines.dbms.insert_s"), "DbmsEngine.update / insert", "wall_s", ("oltp",)),
    (("engines.mapreduce.job_s", "engines.mapreduce.jobs", "engines.mapreduce.network_bytes_per_record"), "MapReduceEngine.run / run_chain", "wall_s", ("analytics",)),
    (("engines.nosql.read_s", "engines.nosql.update_s", "engines.nosql.insert_s"), "NoSqlStore.read / update / insert", "wall_s", ("oltp",)),
    (("engines.streaming.run_s",), "StreamingEngine.run", "wall_s", ("analytics",)),
    (("analysis.append_s", "analysis.appends"), "RunStore.record_outcome", "service.job_p50_s, service.job_p90_s", ("recorded-service",)),
    (("analysis.records_s", "analysis.records_calls"), "RunStore.records (full-file parses)", "service.job_p50_s, analysis.gate_s", ("recorded-service",)),
    (("analysis.compare_s",), "compare_records", "analysis.gate_s", ("recorded-service",)),
    (("service.submit_s", "service.queue_wait_s"), "Orchestrator.submit, Job.queue_wait_seconds", "service.job_p50_s", ("recorded-service",)),
    (("service.joblog_append_s", "service.joblog_appends"), "JobLog.append", "service.job_p50_s", ("recorded-service",)),
)


def _expectation(workload: str, trace: dict) -> tuple[str, bool]:
    """The predicted dominant layer of a workload, and whether it holds."""
    wall = trace["wall_s"]
    shares = {layer: own / wall for layer, own in trace["layer_self_s"].items()}
    metrics = trace["metrics"]
    if workload == "text-sweep":
        return "datagen.fit_s >= 80% of wall_s", metrics["datagen.fit_s"] >= 0.8 * wall
    if workload == "analytics":
        engines = sum(share for layer, share in shares.items() if layer.startswith("engines."))
        others = [share for layer, share in shares.items() if not layer.startswith("engines.")]
        return "engines.* together the largest self-time share", engines > max(others, default=0.0)
    if workload == "oltp":
        return "engines.dbms the largest self-time share", max(shares, key=shares.get) == "engines.dbms"
    if workload == "recorded-service":
        per_job = shares.get("analysis", 0.0) * wall / max(metrics["analysis.appends"], 1)
        return (
            "analysis.* self time per job >= half of service.job_p50_s",
            per_job >= 0.5 * metrics["service.job_p50_s"],
        )
    raise ValueError(f"no prediction for workload {workload!r}")


def main() -> int:
    table, traces = {}, {}
    for path in sorted((HERE / ".work" / "traces").glob("*.json")):
        trace = json.loads(path.read_text(encoding="utf-8"))
        traces[trace["workload"]] = trace
        wall = trace["wall_s"]
        shares = {
            layer: round(own / wall, 4)
            for layer, own in sorted(trace["layer_self_s"].items(), key=lambda kv: -kv[1])
        }
        predicted, holds = _expectation(trace["workload"], trace)
        table[trace["workload"]] = {
            "seed": trace["seed"],
            "traced_wall_s": round(wall, 3),
            "self_share": shares,
            "unattributed_share": round(1 - sum(trace["layer_self_s"].values()) / wall, 4),
            "predicted": predicted,
            "prediction_holds": holds,
        }
    predictions = []
    for names, call, moves, on in PREDICTIONS:
        measured = {
            workload: {name: traces[workload]["metrics"][name] for name in names}
            for workload in on
            if workload in traces
        }
        predictions.append({
            "metrics": list(names),
            "timed_call": call,
            "should_move": moves,
            "on": list(on),
            "measured": measured,
            # A metric that reads 0 where it is predicted to move marks a
            # layer the workload does not reach.
            "reads_zero_on": sorted(
                f"{name} on {workload}"
                for workload, values in measured.items()
                for name, value in values.items()
                if value == 0
            ),
        })
    out = {"layer_share": table, "predictions": predictions}
    (HERE / "layers.json").write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    for workload, row in table.items():
        flag = "" if row["prediction_holds"] else "  <-- prediction does not hold"
        print(f"{workload}: {row['predicted']}{flag}")
    for row in predictions:
        for zero in row["reads_zero_on"]:
            print(f"{zero}: reads 0 where it is predicted to move {row['should_move']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
