"""One measured iteration of one workload, in a fresh interpreter.

Run by ``run.py``, never by hand::

    python3 perfbench/child.py --spawned <epoch seconds> [--workload NAME
        --seed N --workdir DIR [--trace-file FILE]]

``--spawned`` is the parent's clock just before it started this
interpreter, so ``setup_s`` covers interpreter start-up, importing
``repro.api`` (which fills the component registries) and building the
builtin prescription repository.  Without ``--workload`` the child stops
there (a set-up probe).  The last line of standard output is one JSON
object with the figures of this iteration.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()

    import repro.api  # noqa: F401 - the set-up being measured
    from repro.core.prescription import builtin_repository

    builtin_repository()
    setup_s = time.time() - args.spawned
    if args.workload is None:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from workloads import EXTRA_METRICS, WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.prepare()
    recorder = None
    if args.trace_file is not None:
        from tracing import SpanRecorder

        recorder = SpanRecorder(f"{args.workload}-seed{args.seed}")
        recorder.install()
        recorder.active = True
    started = time.perf_counter()
    workload.run()
    wall_s = time.perf_counter() - started
    if recorder is not None:
        recorder.active = False
    attempted, failed, figures = workload.check()
    extra = {name: 0.0 for name in EXTRA_METRICS}
    extra.update(figures)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "figures": figures,
        "extra": extra,
    }
    if recorder is not None:
        result["layers"] = recorder.metrics()
        result["layer_self_s"] = recorder.layer_self()
        recorder.dump(
            args.trace_file,
            workload=args.workload,
            seed=args.seed,
            wall_s=wall_s,
            layer_self_s=result["layer_self_s"],
            metrics={**extra, **result["layers"]},
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
