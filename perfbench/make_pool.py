#!/usr/bin/env python3
"""Regenerate pool.json: the base graphs of the srcp-sweep workload.

    python3 perfbench/make_pool.py

Each base graph is a random admissible out-degree-2 graph drawn from a fixed
seed, stored with the SRCP answers of ``roadsync.srcp.srcp_decide`` for
k = 4, 5, 6.  For t <= 14 every answer is also confirmed by the plain
enumeration oracle (``srcp_oracle(fast=False)``), which shares no code with the
vectorized sweep.  The benchmark relabels these graphs per seed; a vertex
relabelling or a slot swap leaves every SRCP answer unchanged.
"""

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from roadsync.graphs import Multigraph  # noqa: E402
from roadsync.srcp import srcp_decide, srcp_oracle  # noqa: E402
from workloads import random_admissible  # noqa: E402

SIZES = (10, 14, 15, 16)
PER_SIZE = 12
KS = (4, 5, 6)


def main() -> None:
    pool = {}
    for t in SIZES:
        entries = []
        for i in range(PER_SIZE):
            edges = random_admissible(random.Random(f"pool:{t}:{i}"), t)
            g = Multigraph(t, tuple(map(tuple, edges)))
            answers = {}
            for k in KS:
                answers[str(k)] = srcp_decide(g, k)
                if t <= 14:
                    slow = srcp_oracle(g, k, fast=False) is not None
                    if slow != answers[str(k)]:
                        raise SystemExit(f"sweep and enumeration disagree: t={t} i={i} k={k}")
            entries.append({"edges": edges, "srcp": answers})
            print(t, i, answers, flush=True)
        pool[str(t)] = entries
    text = json.dumps(pool, separators=(",", ":"))
    (HERE / "pool.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
