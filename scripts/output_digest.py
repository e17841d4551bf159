#!/usr/bin/env python3
"""Print one sha256 over everything a benchmark workload's queries output.

    python3 scripts/output_digest.py reset-compose --seed 1
    python3 scripts/output_digest.py all --seed 1 2 3

For each workload (``all`` is every one) and each seed, builds the perfbench
inputs in a temporary directory and runs the warm-up and timed queries once,
in order, through ``roadsync.cli.main``, then prints one line: workload,
seed, digest.  The digest covers every exit code, every stdout and every file
written by ``--out`` or ``--names``, with the directory left out.  Equal
digests at two commits mean byte-identical output.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from roadsync.cli import main  # noqa: E402


def output_digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = workloads.build(workload, seed, Path(tmp))
        inputs.write(Path(tmp))
        for q in inputs.warmup + inputs.queries:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(q.argv))
            h.update(f"{q.qid} exit {code}\n{out.getvalue()}".replace(tmp, "{dir}").encode())
            for flag, path in zip(q.argv, q.argv[1:]):
                if flag in ("--out", "--names"):
                    h.update(Path(path).read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, nargs="+", default=[1])
    args = parser.parse_args()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        for seed in args.seed:
            print(name, seed, output_digest(name, seed), flush=True)
