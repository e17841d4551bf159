#!/usr/bin/env python3
"""Interleaved A/B of two roadsync checkouts, in one process, per query group.

    python3 scripts/ab_groups.py PARENT_SRC CHANGE_SRC
    python3 scripts/ab_groups.py PARENT_SRC CHANGE_SRC --workload coloring --seed 2 --reps 11

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Each
one's ``roadsync`` is loaded under its own package name (``roadsync_parent``,
``roadsync_change``), so both run in this process on the same inputs: the
perfbench inputs of the workload and seed, built in a temporary directory
(``perfbench/`` is only imported).  The warm-up queries run once on each side;
then every rep runs each query on both sides back to back, in an order that
swaps from rep to rep.  Every run of a query must give both sides the same
exit code, the same stdout and the same ``--out`` and ``--names`` files, byte
for byte; the script stops at the first difference.

A query's latency is the median over its reps, timed around
``roadsync.cli.main`` as perfbench/run.py times it.  The script prints, per
query group, both sides' median latency and their ratio (change / parent),
then the p50 and tail ranks of the per-query latencies, defined as
perfbench/run.py defines query_p50_ms and query_tail_ms, and the pass: the
sum of the per-query medians.  perfbench/run.py repeats the pass for its
whole run, so the pass ratio predicts the ratio of passes run (its inverse),
and with it the part of peak_rss_mb that grows with the passes kept.  The
last line sizes one pass's outputs as run.py keeps them until its run ends
(a code/stdout tuple and a latency float per query) and projects, from each
side's pass, the passes and the MiB kept over a run of the benchmark's
length (``run_seconds`` in BENCHMARK.json).
"""

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from run import tail_index  # noqa: E402

SIDES = ("parent", "change")
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def load_main(src: Path, side: str):
    """roadsync.cli.main of the checkout whose sources are under src."""
    package = src / "roadsync"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no roadsync sources under {src}")
    name = f"roadsync_{side}"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli").main


def outputs_of(argv: list[str]) -> list[Path]:
    return [Path(path) for flag, path in zip(argv, argv[1:]) if flag in ("--out", "--names")]


def run_once(main, argv: list[str]):
    """(elapsed seconds, exit code, stdout, bytes of every file written)."""
    files = outputs_of(argv)
    for path in files:
        path.write_bytes(b"")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = main(list(argv))
        elapsed = time.perf_counter() - start
    return elapsed, (code, out.getvalue(), [path.read_bytes() for path in files])


def run_both(mains: dict, q, order: tuple[str, ...]) -> tuple[dict, tuple]:
    """Run q on both sides in the given order; its latency per side and its
    output (exit code, stdout, files written), which both sides share."""
    results = {side: run_once(mains[side], q.argv) for side in order}
    if results["parent"][1] != results["change"][1]:
        raise SystemExit(f"error: {q.qid} ({' '.join(q.argv)}) differs between the sides")
    return {side: elapsed for side, (elapsed, _) in results.items()}, results["parent"][1]


def kept_bytes(outputs: list[tuple]) -> int:
    """Bytes of one pass's outputs as perfbench/run.py keeps them: per query
    a (code, stdout) tuple, its stdout and its latency float, and one slot
    for each in the pass's two lists (the small-int exit codes are shared)."""
    n = len(outputs)
    return (sum(sys.getsizeof((code, out)) + sys.getsizeof(out) for code, out, _ in outputs)
            + n * sys.getsizeof(0.0) + 2 * sys.getsizeof([None] * n))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, default="reset-compose")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=21)
    args = parser.parse_args(argv)
    mains = {side: load_main(src.resolve(), side)
             for side, src in zip(SIDES, (args.parent_src, args.change_src))}

    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.build(args.workload, args.seed, Path(tmp))
        inputs.write(Path(tmp))
        for q in inputs.warmup:
            run_both(mains, q, SIDES)
        queries = inputs.queries
        latencies = {side: [[] for _ in queries] for side in SIDES}
        outputs = []
        for rep in range(args.reps):
            gc.collect()
            order = SIDES if rep % 2 == 0 else SIDES[::-1]
            for i, q in enumerate(queries):
                elapsed, output = run_both(mains, q, order)
                for side in SIDES:
                    latencies[side][i].append(elapsed[side])
                if rep == 0:
                    outputs.append(output)

    per_query = {side: [statistics.median(lats) * 1e3 for lats in latencies[side]]
                 for side in SIDES}
    groups: dict[str, list[int]] = {}
    for i, q in enumerate(queries):
        groups.setdefault(q.group, []).append(i)
    print(f"# {args.workload} seed {args.seed}: {len(queries)} queries, {args.reps} reps "
          "per side, interleaved; identical output on every run")
    print(f"{'group':<12} {'queries':>7} {'parent ms':>10} {'change ms':>10} {'ratio':>6}")

    def row(label: str, count, parent: float, change: float) -> None:
        print(f"{label:<12} {count:>7} {parent:>10.3f} {change:>10.3f} {change / parent:>6.2f}")

    def group_median(side: str, idx: list[int]) -> float:
        return statistics.median(per_query[side][i] for i in idx)

    for group, idx in sorted(groups.items(), key=lambda kv: group_median("parent", kv[1])):
        row(group, len(idx), group_median("parent", idx), group_median("change", idx))
    n = len(queries)
    rank = tail_index(n)
    ranked = {side: sorted(per_query[side]) for side in SIDES}
    row("p50", "", *(statistics.median(per_query[side]) for side in SIDES))
    row(f"tail #{rank + 1}", "", *(ranked[side][rank] for side in SIDES))
    passes = {side: sum(per_query[side]) for side in SIDES}
    row("pass", n, *passes.values())
    size = kept_bytes(outputs)
    runs = {side: RUN_SECONDS * 1e3 / passes[side] for side in SIDES}
    kept = {side: runs[side] * size / 2 ** 20 for side in SIDES}
    print(f"# rss: one pass keeps {size / 1024:.1f} KiB of outputs; over {RUN_SECONDS} s, "
          f"about {runs['parent']:.0f} -> {runs['change']:.0f} passes keep "
          f"{kept['parent']:.2f} -> {kept['change']:.2f} MiB "
          f"({kept['change'] - kept['parent']:+.2f} MiB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
