"""A fixed pure-Python job that measures the host's speed, not the program's.

Usage (``run.py`` starts it between workload iterations)::

    python3 perfbench/reference.py --seconds 1.0

It imports nothing from the program and its inputs never change, so its
time moves only with the host: the other tenants sharing the CPU, its
caches and its memory.  The job mixes what the workloads spend their
time on: building records, hashing them into groups, sorting, a hash
join, counting words, and drawing from small numpy arrays one element
at a time.  It repeats the job until ``--seconds`` have
passed (at least once).  The last line of standard output is
``{"seconds": <total>, "jobs": <count>}``.
"""

from __future__ import annotations

import argparse
import json
import random
import time

import numpy as np

ROWS = 60_000
TOPICS, VOCABULARY, DRAWS = 8, 500, 16_000
WORDS = ("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta")


def job() -> int:
    rng = random.Random(0)
    rows = [
        {"id": i, "key": f"k{rng.randrange(2000)}", "value": rng.random()}
        for i in range(ROWS)
    ]
    groups: dict[str, float] = {}
    for row in rows:
        groups[row["key"]] = groups.get(row["key"], 0.0) + row["value"]
    rows.sort(key=lambda row: (row["key"], row["id"]))
    joined = sum(1 for row in rows if groups[row["key"]] > row["value"])
    counts: dict[str, int] = {}
    for i in range(ROWS):
        for word in " ".join(WORDS[(i + j) % len(WORDS)] for j in range(6)).split():
            counts[word] = counts.get(word, 0) + 1
    return joined + len(counts) + sample()


def sample() -> int:
    """Small array operations per element, as a sampler's inner loop does."""
    rng = np.random.default_rng(0)
    topic_word = np.ones((TOPICS, VOCABULARY))
    totals = topic_word.sum(axis=1)
    drawn = 0
    for i in range(DRAWS):
        word = i % VOCABULARY
        weights = (topic_word[:, word] + 0.1) / (totals + 0.1 * VOCABULARY)
        weights /= weights.sum()
        topic = int(rng.choice(TOPICS, p=weights))
        topic_word[topic, word] += 1
        totals[topic] += 1
        drawn += topic
    return drawn


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    started = time.perf_counter()
    jobs = 0
    while jobs == 0 or time.perf_counter() - started < args.seconds:
        job()
        jobs += 1
    print(json.dumps({"seconds": time.perf_counter() - started, "jobs": jobs}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
