"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload text-sweep --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload in turn.  Workloads, metric names
and units come from ``BENCHMARK.json`` at the checkout root.

Every iteration of a workload runs in a fresh interpreter
(``child.py``), the way a ``repro run`` user starts the program, so
program-level caches start cold every time.

``--trace 0`` first starts several bare interpreters that measure
set-up alone, then repeats iterations until ``--seconds`` would be
exceeded (at least one) and reports the medians of the end-to-end
metrics.  A run of ``reference.py`` comes before the first iteration and
after each one; ``wall_per_ref`` divides each iteration's ``wall_s`` by
the seconds per reference job of the two runs around it, which takes
out the host's drift in speed (see ``README.md``).  The raw ``wall_s``
and ``ref_s`` (seconds per reference job) are printed beside it.
``--trace 1`` repeats pairs of one untraced and one traced iteration of
the same inputs within the same budget (at least two pairs) and reports
the median per-layer metrics of the traced ones, plus
``tracing_overhead_s``, the median of traced minus untraced ``wall_s``
over the pairs; the spans of the last traced iteration are written to
``perfbench/.work/traces/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Bare set-up probes per run (iterations add one set-up sample each).
SETUP_PROBES = 5
#: Shortest reference run, and its length after an iteration as a share
#: of that iteration's wall time.
REF_MIN_S = 1.0
REF_SHARE = 0.5
#: Fewest untraced/traced pairs a traced run makes, even past ``--seconds``.
TRACE_PAIRS = 2
#: Wall-clock budget of one child interpreter.
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    pass


def _spawn(script: str, args: list[str], env: dict[str, str]) -> dict:
    """Run one script of this directory in a fresh interpreter; its last line."""
    command = [sys.executable, str(HERE / script), *args]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as error:
        raise BenchmarkError(f"{script} timed out after {error.timeout}s: {args}") from None
    if done.returncode != 0:
        raise BenchmarkError(f"{script} failed ({done.returncode}): {args}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _child(args: list[str], env: dict[str, str]) -> dict:
    return _spawn("child.py", ["--spawned", repr(time.time()), *args], env)


def _reference(seconds: float, env: dict[str, str]) -> tuple[float, int]:
    """Seconds spent and jobs done by at least ``seconds`` of reference work."""
    done = _spawn("reference.py", ["--seconds", repr(seconds)], env)
    return done["seconds"], done["jobs"]


def measure(workload: str, seed: int, seconds: int, trace: bool, root: Path, env) -> dict:
    """All iterations of one run, summarized to the result line's fields."""
    work = root / "perfbench" / ".work"
    iterations = []

    def iterate(trace_file: Path | None = None) -> dict:
        workdir = work / f"{workload}-seed{seed}-{os.getpid()}-{len(iterations)}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        args = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
        if trace_file is not None:
            args += ["--trace-file", str(trace_file)]
        try:
            iterations.append(_child(args, env))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return iterations[-1]

    def repeat(step, at_least: int) -> None:
        """Call ``step`` until the next call would overrun ``seconds``."""
        started = time.monotonic()
        for calls in itertools.count(1):
            begun = time.monotonic()
            step()
            now = time.monotonic()
            if calls >= at_least and now - started + (now - begun) > seconds:
                return

    timings: dict[str, float] = {}
    if trace:
        pairs = []
        trace_file = work / "traces" / f"{workload}-seed{seed}.json"

        def pair() -> None:
            # Every other pair runs its traced side first, so a drift in
            # the host's speed does not land on one side of the overhead.
            if len(pairs) % 2:
                traced = iterate(trace_file)
                pairs.append((iterate(), traced))
            else:
                pairs.append((iterate(), iterate(trace_file)))

        repeat(pair, at_least=TRACE_PAIRS)
        metrics = {
            name: statistics.median(traced["layers"][name] for _, traced in pairs)
            for name in pairs[0][1]["layers"]
        }
        metrics.update({
            name: statistics.median(plain["extra"][name] for plain, _ in pairs)
            for name in pairs[0][0]["extra"]
        })
        metrics["wall_s"] = statistics.median(plain["wall_s"] for plain, _ in pairs)
        metrics["tracing_overhead_s"] = statistics.median(
            traced["wall_s"] - plain["wall_s"] for plain, traced in pairs
        )
    else:
        setups = [_child([], env)["setup_s"] for _ in range(SETUP_PROBES)]
        # Reference work before the first iteration and after every one,
        # so each iteration is bracketed by two measures of the host's
        # speed.  A long iteration averages out the host's second-scale
        # jitter, so the reference after it runs long enough to as well.
        refs = [_reference(REF_MIN_S, env)]

        def bracketed() -> None:
            wall = iterate()["wall_s"]
            refs.append(_reference(max(REF_MIN_S, REF_SHARE * wall), env))

        repeat(bracketed, at_least=1)
        walls = [it["wall_s"] for it in iterations]
        metrics = {
            "setup_s": statistics.median(setups + [it["setup_s"] for it in iterations]),
            # Each wall over the seconds per reference job, pooled over
            # the reference runs on both sides of it.
            "wall_per_ref": statistics.median(
                wall * (before[1] + after[1]) / (before[0] + after[0])
                for wall, before, after in zip(walls, refs, refs[1:])
            ),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in iterations),
        }
        timings = {
            "wall_s": statistics.median(walls),
            "ref_s": sum(spent for spent, _ in refs) / sum(jobs for _, jobs in refs),
        }
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    return {
        "iterations": len(iterations),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        # Raw timings and user-visible figures of this workload only
        # (medians over the iterations); printed beside the metrics, not gated.
        "figures": {
            **timings,
            **{
                name: statistics.median(it["figures"][name] for it in iterations)
                for name in iterations[0]["figures"]
            },
        },
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run raises SystemExit, so subprocess.run kills and
    # reaps the iteration interpreter instead of leaving it behind.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    benchmark = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [workload["name"] for workload in benchmark["workloads"]]
    if args.workload not in known + ["all"]:
        print(f"error: unknown workload {args.workload!r}; known: {known}", file=sys.stderr)
        return 2
    catalogue = benchmark["per_layer" if args.trace else "end_to_end"]
    # The program sees the default options only: no executor, chunking
    # or store overrides leak in from the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")

    for workload in known if args.workload == "all" else [args.workload]:
        try:
            run = measure(workload, args.seed, args.seconds, bool(args.trace), root, env)
        except BenchmarkError as error:
            print(f"error: {workload}: {error}", file=sys.stderr)
            return 1
        missing = [m["name"] for m in catalogue if m["name"] not in run["metrics"]]
        if missing:
            print(f"error: {workload} gave no {missing}", file=sys.stderr)
            return 1
        print(f"{workload}: seed {args.seed}, {run['iterations']} iteration(s), "
              f"{run['failed']}/{run['attempted']} failed")
        for metric in catalogue:
            print(f"  {metric['name']} = {run['metrics'][metric['name']]:.6g} {metric['unit']}")
        units = {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}
        units["ref_s"] = "s"
        if not args.trace:
            for name, value in run["figures"].items():
                print(f"  {name} = {value:.6g} {units[name]} (not gated)")
        print(f"  failed_frac = {run['failed'] / run['attempted']:.6g} (not gated)")
        print(json.dumps({
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {
                m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
                for m in catalogue
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
