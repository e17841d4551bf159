"""Command-line entry point.

Exit codes: 0 = decided/succeeded (answer on stdout), 1 = invalid input,
2 = size limit exceeded.  `--json` switches to a single JSON object with the
fields answer / witness_word / witness_coloring / report.

Each action has its own parser, which accepts only the flags in its row of
_ACTIONS, spelled in full; argparse dispatches to the action's handler.  The
parser tree is built once, at import.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import satreduce
from .compose import (
    compose as compose_batch,
    compose_or_decide,
    decide_early,
    names_json as compose_names_json,
    parse_batch,
    verify_c1_c2_c3,
)
from .automata import (
    cerny_automaton,
    parse_dfa,
    word_from_str,
    word_to_str,
    write_dfa,
)
from .errors import InvalidInputError, SizeLimitError
from .graphs import (
    Coloring,
    parse_graph,
    to_dot,
    write_graph,
    write_graph_with_colors,
)
from .srcp import kernelize, srcp_decide
from .srcpw import fixed_word_coloring
from .syncsolve import is_synchronizing, shortest_reset_word


class _Output:
    def __init__(self, as_json: bool) -> None:
        self.as_json = as_json
        self.payload: dict = {"answer": None, "witness_word": None,
                              "witness_coloring": None, "report": None}
        self.lines: list[str] = []

    def answer(self, value) -> None:
        self.payload["answer"] = value
        self.lines.append("YES" if value is True else "NO" if value is False else str(value))

    def word(self, w, alphabet_size: int) -> None:
        rendered = word_to_str(w, alphabet_size)
        self.payload["witness_word"] = rendered
        self.lines.append(rendered)

    def coloring(self, g, c: Coloring) -> None:
        self.payload["witness_coloring"] = [list(row) for row in c.slot_letters]
        self.lines.append(write_graph_with_colors(g, c).rstrip("\n"))

    def report(self, data: dict) -> None:
        self.payload["report"] = data

    def text(self, text: str, path: Optional[str]) -> None:
        """Write text to path (`--out`), or print it when there is none."""
        if path:
            _write(path, text)
        else:
            self.lines.append(text.rstrip("\n"))

    def emit(self) -> None:
        if self.as_json:
            print(json.dumps(self.payload))
        else:
            for line in self.lines:
                print(line)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path} is not UTF-8 text") from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _sync_check(args, out: _Output) -> None:
    out.answer(is_synchronizing(parse_dfa(_read(args.infile))))


def _sync_shortest(args, out: _Output) -> None:
    dfa = parse_dfa(_read(args.infile))
    word = shortest_reset_word(dfa, limit=args.limit)
    if word is None:
        out.answer("NONE")
        return
    out.answer(len(word))
    out.word(word, dfa.alphabet_size)


def _srcp_decide(args, out: _Output) -> None:
    out.answer(srcp_decide(parse_graph(_read(args.infile)), args.k))


def _srcp_kernel(args, out: _Output) -> None:
    result = kernelize(parse_graph(_read(args.infile)), args.k)
    out.answer(result.k)
    out.report({
        "trivially_yes": result.trivially_yes,
        "aperiodicity_preserved": result.aperiodicity_preserved,
    })
    out.text(write_graph(result.graph), args.outfile)


def _srcp_k3(args, out: _Output) -> None:
    out.answer(srcp_decide(parse_graph(_read(args.infile)), 3))


def _srcpw_decide(args, out: _Output) -> None:
    g = parse_graph(_read(args.infile))
    word = word_from_str(args.word, 2)
    if len(word) != 3:
        raise InvalidInputError("fixed-word classes cover length-3 words")
    witness = fixed_word_coloring(g, word)
    out.answer(witness is not None)
    if witness is not None:
        out.coloring(g, witness)


def _gen_cerny(args, out: _Output) -> None:
    out.text(write_dfa(cerny_automaton(args.n)), args.outfile)
    out.answer("OK")


def _gen_compose(args, out: _Output) -> None:
    result = compose_or_decide(*parse_batch(_read(args.batch)))
    if isinstance(result, bool):
        out.answer(result)
        return
    out.text(write_dfa(result.dfa), args.outfile)
    if args.names:
        _write(args.names, json.dumps(compose_names_json(result), indent=2))
    out.answer(result.dfa.t)


def _gen_sat_reduce(args, out: _Output) -> None:
    f = satreduce.parse_dimacs(_read(args.infile))
    rg = satreduce.build_reduction(satreduce.augment_tautologies(f))
    out.text(write_graph(rg.graph), args.outfile)
    if args.names:
        _write(args.names, json.dumps(satreduce.reduction_names_json(rg), indent=2))
    out.answer(rg.graph.t)


def _verify_compose(args, out: _Output) -> None:
    pre = decide_early(*parse_batch(_read(args.batch)))
    if pre.batch is None:
        out.answer(pre.answer)
        out.report({"short_circuit": True})
        return
    report = verify_c1_c2_c3(compose_batch(pre.batch), pre.batch)
    out.answer(report.all_pass)
    out.report({
        "c1_no_short_reset": report.c1_no_short_reset,
        "c2_all_shaped": report.c2_all_shaped,
        "c3_assembled_words_reset": report.c3_assembled_words_reset,
        "reset_word_count": report.reset_word_count,
        "assembled_count": report.assembled_count,
    })


def _verify_sat_reduce(args, out: _Output) -> None:
    report = satreduce.verify_reduction(satreduce.parse_dimacs(_read(args.infile)))
    out.answer(report.ok)
    out.report({
        "satisfiable": report.satisfiable,
        "srcp_yes": report.srcp_yes,
        "equivalent": report.equivalent,
        "size_ok": report.size_ok,
        "degree_ok": report.degree_ok,
        "strongly_connected": report.strongly_connected,
        "witness_checked": report.witness_checked,
    })


def _export_dot(args, out: _Output) -> None:
    out.text(to_dot(parse_graph(_read(args.infile))), args.outfile)
    out.answer("OK")


_FLAGS = {
    "--in": {"dest": "infile", "required": True},
    "--batch": {"required": True},
    "--word": {"required": True},
    "--out": {"dest": "outfile"},
    "--names": {},
    "--k": {"type": int, "default": 0},
    "--limit": {"type": int},
    "--n": {"type": int, "default": 4},
}

# (command, action): (handler, the flags it reads)
_ACTIONS = {
    ("sync", "check"): (_sync_check, "--in"),
    ("sync", "shortest"): (_sync_shortest, "--in", "--limit"),
    ("srcp", "decide"): (_srcp_decide, "--in", "--k"),
    ("srcp", "kernel"): (_srcp_kernel, "--in", "--k", "--out"),
    ("srcp", "k3"): (_srcp_k3, "--in"),
    ("srcpw", "decide"): (_srcpw_decide, "--word", "--in"),
    ("gen", "cerny"): (_gen_cerny, "--n", "--out"),
    ("gen", "compose"): (_gen_compose, "--batch", "--out", "--names"),
    ("gen", "sat-reduce"): (_gen_sat_reduce, "--in", "--out", "--names"),
    ("verify", "compose"): (_verify_compose, "--batch"),
    ("verify", "sat-reduce"): (_verify_sat_reduce, "--in"),
    ("export", "dot"): (_export_dot, "--in", "--out"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roadsync", allow_abbrev=False)
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    commands = parser.add_subparsers(dest="command", required=True)
    actions = {}
    for (command, action), (handler, *flags) in _ACTIONS.items():
        if command not in actions:
            actions[command] = commands.add_parser(command).add_subparsers(
                dest="action", required=True)
        # No prefixes: --n must not stand for --names.
        p = actions[command].add_parser(action, allow_abbrev=False)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(handler=handler)
    return parser


_PARSER = _build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    out = _Output(args.json)
    try:
        args.handler(args, out)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out.emit()
    return 0


if __name__ == "__main__":
    sys.exit(main())
