import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from roadsync import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "roadsync"


def test_no_bare_asserts_in_library():
    # `python -O` strips assert statements, so invariants that answers depend
    # on must raise instead.
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 5
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_src_imports_only_the_standard_library():
    # The library installs with no runtime dependency; numpy and friends are
    # for the tests and the benchmark only.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert found == []


def test_readme_names_every_cap_and_budget():
    # Every size cap and work budget is documented where users look for the
    # refusals (exit 2), as module.NAME.
    readme = (SRC.parent.parent / "README.md").read_text()
    names = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            names += [f"{path.stem}.{target.id}" for target in targets
                      if isinstance(target, ast.Name)
                      and target.id.endswith(("_CAP", "_BUDGET"))]
    assert len(names) >= 9
    assert [name for name in names if name not in readme] == []


def test_readme_command_lines_parse():
    # Every example of README's "Command line" block, comment removed, is
    # accepted by the real parse.
    readme = (SRC.parent.parent / "README.md").read_text()
    block = re.search(r"## Command line\n\n```\n(.*?)```", readme, re.S).group(1)
    lines = [line.split("#")[0].split() for line in block.splitlines()
             if line.startswith("roadsync ")]
    assert len(lines) >= 12
    refused = []
    for argv in lines:
        try:
            cli._parse(argv[1:])
        except cli._Usage:
            refused.append(" ".join(argv))
    assert refused == []


def test_cli_import_leaves_argparse_out():
    # The command line is parsed from cli._ACTIONS alone; building an
    # argparse tree at import was most of the module's own import time.
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    code = "import sys, roadsync.cli; print(sorted(m for m in sys.modules if 'argparse' in m))"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


def test_every_definition_is_referenced():
    # Each function, method and class of the library is named somewhere
    # besides its own definition: in the library, the tests, the scripts or
    # the benchmark.  Dunder methods are called by Python itself.
    root = SRC.parent.parent
    texts = [path.read_text() for tree in ("src", "tests", "scripts", "perfbench")
             for path in sorted((root / tree).rglob("*.py"))]
    names = set()
    for path in sorted(SRC.glob("*.py")):
        names |= {node.name for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("__")}
    assert len(names) > 100
    unused = [name for name in sorted(names)
              if not any(re.search(rf"(?<!def )(?<!class )\b{name}\b", text) for text in texts)]
    assert unused == []


def test_unchecked_dfa_builds_only_tables_known_to_pass_the_check():
    # automata._unchecked_dfa skips Dfa's check.  It builds only tables made
    # from checked ones (a checked table plus an identity column, the guard
    # table of checked items, a checked graph under a checked bijection), in
    # closed form, or checked otherwise (the batch items, whose targets
    # parse_batch checks all at once); tests/test_automata.py runs Dfa's
    # check on each of them.  Every other table is checked by Dfa.
    users, uses = set(), 0
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        uses += sum(isinstance(node, ast.Name) and node.id == "_unchecked_dfa"
                    for node in ast.walk(tree))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)
                         and isinstance(node.func, ast.Name) and node.func.id == "_unchecked_dfa"]
                uses -= len(calls)
                if calls:
                    users.add(f"{path.stem}.{func.name}")
    assert users == {"automata.cerny_automaton", "compose._items_at_once",
                     "compose.add_identity_letter", "compose.compose",
                     "graphs.apply_coloring"}
    # No use of the name besides those calls, such as an alias.
    assert uses == 0
