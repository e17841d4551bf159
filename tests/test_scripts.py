"""The benchmark tooling in scripts/, run as scripts: every performance claim
rests on the A/B script and the output digest."""

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
