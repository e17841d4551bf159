#!/usr/bin/env python3
"""Benchmark of the roadsync command line.

    python3 perfbench/run.py --workload reset-compose --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --smoke

Run from the root of a roadsync checkout; the program is imported from
``src/``.  A query is one in-process call of ``roadsync.cli.main(argv)``, so
interpreter start-up is not measured.  One client sends queries in a closed
loop on one thread.  Every query reads files generated from ``--seed`` during
set-up.  A pass runs the workload's query list once; passes repeat until
``--seconds`` is used up, and at least three run.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, including the
tracing overhead.  Every answer is checked outside the timed region, and
traced answers must equal untraced ones.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it, starting with ``#``, describe the run.  See README.md.
"""

import os

# Pin BLAS and OpenMP pools before numpy is imported anywhere in the process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import MODULES, Tracer  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3
TAIL_BEYOND = 10

END_TO_END = {
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# (function, counters) reported by the traced run, named <function>.<counter>.
LAYER_FUNCTIONS = (
    ("cli.main", ("calls", "self_ms")),
    ("automata.parse_dfa", ("self_ms",)),
    ("automata.write_dfa", ("self_ms",)),
    ("automata.apply_word", ("calls", "self_ms")),
    ("graphs.parse_graph", ("self_ms",)),
    ("graphs.is_admissible", ("calls", "self_ms")),
    ("graphs.apply_coloring", ("calls", "self_ms")),
    ("graphs.distance_layers", ("calls", "self_ms")),
    ("syncsolve.shortest_reset_word", ("calls", "self_ms")),
    ("syncsolve.is_synchronizing", ("calls", "self_ms")),
    ("srcp._sync_mask_chunk", ("calls", "self_ms")),
    ("srcp.srcp_oracle", ("self_ms",)),
    ("srcp.srcp_decide", ("self_ms",)),
    ("srcpw.fixed_word_coloring", ("calls", "self_ms")),
    ("srcpw._fixed_word_at", ("calls",)),
    ("srcpw.decide_aaa", ("calls",)),
    ("srcpw.abb_witness_target", ("self_ms",)),
    ("compose.preprocess", ("self_ms",)),
    ("compose.compose", ("self_ms",)),
    ("compose.verify_c1_c2_c3", ("self_ms",)),
    ("satreduce.parse_dimacs", ("self_ms",)),
    ("satreduce.build_reduction", ("self_ms",)),
    ("satreduce.sat_oracle", ("self_ms",)),
    ("satreduce.verify_reduction", ("self_ms",)),
)
# Sweep rates are reported for the (t, k) pairs the coloring workload runs.
SWEEP_TK = ((14, 4), (14, 5), (14, 6), (15, 4), (15, 5), (16, 4), (17, 4), (18, 4),
            (19, 4), (21, 4))


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if ".colorings_per_s." in name:
        return "1/s"
    if name.endswith((".calls", ".colorings")):
        return "count"
    return "ratio"


def per_layer_names() -> list[str]:
    names = [f"{fn}.{counter}" for fn, counters in LAYER_FUNCTIONS for counter in counters]
    names.insert(names.index("srcpw._fixed_word_at.calls") + 1, "srcpw._fixed_word_at.hit_ratio")
    names += ["srcp.sweep.colorings", "srcp.sweep.first_hit_frac"]
    names += [f"srcp.sweep.colorings_per_s.t{t}k{k}" for t, k in SWEEP_TK]
    names += [f"{layer}.self_frac" for layer in MODULES]
    names.append("trace_overhead_frac")
    return names


# ----------------------------------------------------------------------------
# Run metadata.

def git_sha():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def metadata(workload: str, seed: int, digest: str) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "input_digest": digest,
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "thread_pools": {var: os.environ[var] for var in THREAD_VARS},
        "clients": 1,
        "loop": "closed",
    }


# ----------------------------------------------------------------------------
# Set-up and queries.

def import_program():
    """Import roadsync afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "roadsync" or m.startswith("roadsync.")]:
        del sys.modules[name]
    return importlib.import_module("roadsync.cli")


def run_query(argv: list[str]):
    main = sys.modules["roadsync.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except Exception as exc:  # a crash fails the query, not the run
            code = f"raised {exc!r}"
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def parse_json(out: str):
    lines = out.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def check(query, code, out: str):
    return workloads.check_answer(query, code if isinstance(code, int) else -1, parse_json(out))


def setup(workload: str, seed: int, smoke: bool):
    """Generate and write the inputs, import the program and warm it up."""
    workdir = WORK / workload
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.build(workload, seed, workdir, smoke)
    inputs.write(workdir)
    import_program()
    warm = [(q, *run_query(q.argv)[:2]) for q in inputs.warmup]
    elapsed = time.perf_counter() - start
    failures = [(q.qid, why) for q, code, out in warm if (why := check(q, code, out))]
    return inputs, elapsed, failures


def run_pass(queries, tracer=None):
    gc.collect()
    latencies, outputs = [], []
    start = time.perf_counter()
    for i, q in enumerate(queries):
        if tracer is not None:
            tracer.query = i
        code, out, elapsed = run_query(q.argv)
        latencies.append(elapsed)
        outputs.append((code, out))
    return time.perf_counter() - start, latencies, outputs


# ----------------------------------------------------------------------------
# Metrics.

def tail_index(n: int) -> int:
    """Ascending index of the highest value with TAIL_BEYOND values above it
    (the maximum when there are too few values)."""
    return n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1


def end_to_end(passes, setups) -> tuple[dict, list[str]]:
    n = len(passes[0][1])
    per_query = [statistics.median(p[1][i] for p in passes) for i in range(n)]
    ranked = sorted(per_query)
    tail = ranked[tail_index(n)]
    walls = [p[0] for p in passes]
    wall = statistics.median(walls)
    values = {
        "query_p50_ms": statistics.median(per_query) * 1e3,
        "query_tail_ms": tail * 1e3,
        "queries_per_s": n / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setups),
    }
    beyond = n - 1 - tail_index(n)
    notes = [
        f"latency of a query = median of its {len(passes)} passes; {n} queries, "
        f"{n * len(passes)} samples",
        f"query_tail_ms is p{100.0 * (n - beyond) / n:.1f}: {beyond} of {n} queries are slower",
        f"queries_per_s = {n} queries / {wall:.3f} s, the median pass; passes took "
        + ", ".join(f"{w:.3f}" for w in walls) + " s",
        f"setup_s = median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
    ]
    return values, notes


def per_layer(tracer: Tracer, traced_passes: int, traced_wall: float, plain_wall: float) -> dict:
    def per_pass(x):
        return x / traced_passes

    values = {}
    for fn, counters in LAYER_FUNCTIONS:
        for counter in counters:
            if counter == "calls":
                values[f"{fn}.calls"] = per_pass(tracer.calls.get(fn, 0))
            else:
                values[f"{fn}.self_ms"] = per_pass(tracer.self_s.get(fn, 0.0)) * 1e3
    calls = tracer.calls.get("srcpw._fixed_word_at", 0)
    values["srcpw._fixed_word_at.hit_ratio"] = tracer.fixed_word_hits / calls if calls else 0.0
    values["srcp.sweep.colorings"] = per_pass(sum(tracer.sweep_colorings.values()))
    fracs = tracer.first_hit_fracs
    values["srcp.sweep.first_hit_frac"] = sum(fracs) / len(fracs) if fracs else 0.0
    for t, k in SWEEP_TK:
        secs = tracer.sweep_s.get((t, k), 0.0)
        values[f"srcp.sweep.colorings_per_s.t{t}k{k}"] = (
            tracer.sweep_colorings[(t, k)] / secs if secs > 0 else 0.0)
    for layer in MODULES:
        own = sum(s for name, s in tracer.self_s.items() if name.split(".", 1)[0] == layer)
        values[f"{layer}.self_frac"] = per_pass(own) / traced_wall
    values["trace_overhead_frac"] = traced_wall / plain_wall - 1.0
    return values


# ----------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    if not (SRC / "roadsync" / "cli.py").is_file():
        print(f"error: no roadsync sources under {SRC}; run from a roadsync checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setups = []
    for _ in range(SETUP_REPEATS):
        inputs, elapsed, warm_failures = setup(workload, seed, smoke)
        setups.append(elapsed)
    queries = inputs.queries
    meta = metadata(workload, seed, inputs.digest(str(WORK / workload)))
    print(f"# roadsync benchmark: workload={workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    print("# meta " + json.dumps(meta))

    plain, traced = [], []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        plain.append(run_pass(queries))
        if trace:
            tracer.install()
            try:
                traced.append(run_pass(queries, tracer))
            finally:
                tracer.uninstall()
        used = time.perf_counter() - start
        rounds = len(plain)
        if (trace or rounds >= MIN_PASSES) and used + used / rounds > seconds:
            break

    # Answers: the first pass is checked; every other pass, traced ones
    # included, must print exactly the same output.
    reference = plain[0][2]
    bad = [check(q, code, out) for q, (code, out) in zip(queries, reference)]
    attempted = len(inputs.warmup) + len(queries) * (len(plain) + len(traced))
    failed = len(warm_failures)
    for _, _, outputs in plain + traced:
        failed += sum(1 for i, got in enumerate(outputs) if bad[i] or got != reference[i])
    for qid, why in warm_failures:
        print(f"# FAILED warm-up {qid}: {why}")
    for q, why in zip(queries, bad):
        if why:
            print(f"# FAILED {q.qid} {' '.join(q.argv)}: {why}")

    groups: dict[str, list[float]] = {}
    for i, q in enumerate(queries):
        groups.setdefault(q.group, []).append(statistics.median(p[1][i] for p in plain))
    for group, lats in sorted(groups.items(), key=lambda kv: statistics.median(kv[1])):
        median_ms = statistics.median(lats) * 1e3
        print(f"# group {group}: {len(lats)} queries, median {median_ms:.2f} ms")

    if trace:
        plain_wall = statistics.median(p[0] for p in plain)
        traced_wall = statistics.median(p[0] for p in traced)
        values = per_layer(tracer, len(traced), traced_wall, plain_wall)
        units = {name: layer_unit(name) for name in values}
        spans = OUT / f"spans-{workload}.npz"
        tracer.save(spans)
        print(f"# {len(traced)} traced and {len(plain)} untraced passes; "
              f"{tracer.bindings_wrapped} bindings wrapped; "
              f"{len(tracer.span_id)} spans written to {spans.relative_to(ROOT)}")
    else:
        values, notes = end_to_end(plain, setups)
        units = END_TO_END
        for note in notes:
            print(f"# {note}")
    for name, value in values.items():
        print(f"# {name} {value:.6g} {units[name]}")
    print(f"# failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} queries)")
    shutil.rmtree(WORK / workload, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.rmdir()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined JSON line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"# workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs and a short run, to check that everything works")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
