"""The tools in scripts/, run as scripts: every performance claim rests on
the A/B script and the output digest, and the composition demo shows the
compose API at work."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=120)


def test_ab_groups_prints_groups_ranks_and_pass():
    src = str(ROOT / "src")
    proc = run_script("ab_groups.py", src, src, "--workload", "reset-compose", "--reps", "1")
    assert proc.returncode == 0, proc.stderr
    header, columns, *lines, rss = proc.stdout.splitlines()
    n = int(re.match(r"# reset-compose seed 1: (\d+) queries, 1 reps", header).group(1))
    assert columns.split() == ["group", "queries", "parent", "ms", "change", "ms", "ratio"]
    *groups, p50, tail, total = [line.split() for line in lines]
    assert sum(int(row[1]) for row in groups) == n
    # Each rank row ends with the group of the query at that rank on each
    # side, `at PARENT | CHANGE`; the p50 of an even count may name two.
    names = {row[0] for row in groups}
    for rank in (p50, tail):
        at = rank.index("at")
        assert rank[at + 2] == "|" and len(rank) == at + 4
        for side in (rank[at + 1], rank[at + 3]):
            assert 1 <= len(side.split("+")) <= (2 if rank is p50 else 1)
            assert set(side.split("+")) <= names
        del rank[at:]
    assert p50[0] == "p50" and len(p50) == 4
    assert tail[0] == "tail" and re.fullmatch(r"#\d+", tail[1]) and len(tail) == 5
    assert total[:2] == ["pass", str(n)]
    for row in groups + [p50, tail, total]:
        parent, change, ratio = map(float, row[-3:])
        assert parent > 0 and change > 0 and ratio > 0
    kib, parent_runs, change_runs, parent_mib, change_mib, delta = map(float, re.fullmatch(
        r"# rss: one pass keeps ([\d.]+) KiB of outputs; over 55 s, about (\d+) -> (\d+) "
        r"passes keep ([\d.]+) -> ([\d.]+) MiB \(([+-][\d.]+) MiB\)", rss).groups())
    assert kib > 0 and parent_runs > 0 and change_runs > 0
    assert abs(parent_mib - parent_runs * kib / 1024) < 0.01 * parent_mib + 0.01
    assert abs(change_mib - parent_mib - delta) < 0.02


def test_output_digest_is_repeatable():
    runs = [run_script("output_digest.py", "reset-compose", "--seed", "1") for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
        assert re.fullmatch(r"reset-compose 1 [0-9a-f]{64}\n", proc.stdout)
    assert runs[0].stdout == runs[1].stdout


def test_compose_demo_prints_the_composition_example():
    proc = run_script("compose_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "composed automaton: 93 states, 41 letters, d' = 11 (z(4) = 10)",
        "guard cells active after alpha_6: "
        "[(1, 0, 'F'), (1, 1, 'T'), (1, 2, 'T'), (1, 3, 'F')]",
        "item 1: body bccbb resets it at state 0; assembled word of length 11 "
        "drives A' to ['D']",
    ]
