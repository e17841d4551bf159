import ast
from pathlib import Path

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
