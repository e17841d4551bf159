"""Command-line entry point.

Exit codes: 0 = decided/succeeded (answer on stdout), 1 = invalid input,
2 = size limit exceeded.  `--json` switches to a single JSON object with the
fields answer / witness_word / witness_coloring / report.
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
    names_json as compose_names_json,
    parse_batch,
    preprocess,
    verify_c1_c2_c3,
)
from .automata import (
    Dfa,
    cerny_automaton,
    parse_dfa,
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
from .srcpw import canonical_word, fixed_word_coloring
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

    def raw(self, text: str) -> None:
        self.lines.append(text)

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


def _needed(args, attr: str, flag: str) -> str:
    """The path an action cannot run without; argparse leaves it optional."""
    value = getattr(args, attr)
    if value is None:
        raise InvalidInputError(f"{args.command} {args.action} needs {flag}")
    return value


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_sync(args, out: _Output) -> int:
    dfa = parse_dfa(_read(args.infile))
    if args.action == "check":
        out.answer(is_synchronizing(dfa))
        return 0
    word = shortest_reset_word(dfa, limit=args.limit)
    if word is None:
        out.answer("NONE")
        return 0
    out.answer(len(word))
    out.word(word, dfa.alphabet_size)
    return 0


def _cmd_srcp(args, out: _Output) -> int:
    g = parse_graph(_read(args.infile))
    if args.action == "decide":
        out.answer(srcp_decide(g, args.k))
        return 0
    if args.action == "kernel":
        result = kernelize(g, args.k)
        text = write_graph(result.graph)
        if args.outfile:
            _write(args.outfile, text)
        out.answer(result.k)
        out.report({
            "trivially_yes": result.trivially_yes,
            "aperiodicity_preserved": result.aperiodicity_preserved,
        })
        if not args.outfile:
            out.raw(text.rstrip("\n"))
        return 0
    out.answer(srcp_decide(g, 3))
    return 0


def _cmd_srcpw(args, out: _Output) -> int:
    g = parse_graph(_read(args.infile))
    witness = fixed_word_coloring(g, canonical_word(args.word))
    out.answer(witness is not None)
    if witness is not None:
        out.coloring(g, witness)
    return 0


def _cmd_gen(args, out: _Output) -> int:
    if args.action == "cerny":
        dfa = cerny_automaton(args.n)
        text = write_dfa(dfa)
        if args.outfile:
            _write(args.outfile, text)
        else:
            out.raw(text.rstrip("\n"))
        out.answer("OK")
        return 0
    if args.action == "compose":
        raw, t = parse_batch(_read(_needed(args, "batch", "--batch")))
        result = compose_or_decide(raw, t)
        if isinstance(result, bool):
            out.answer(result)
            return 0
        text = write_dfa(result.dfa)
        if args.outfile:
            _write(args.outfile, text)
        else:
            out.raw(text.rstrip("\n"))
        if args.names:
            _write(args.names, json.dumps(compose_names_json(result), indent=2))
        out.answer(result.dfa.t)
        return 0
    f = satreduce.parse_dimacs(_read(_needed(args, "infile", "--in")))
    rg = satreduce.build_reduction(satreduce.augment_tautologies(f))
    text = write_graph(rg.graph)
    if args.outfile:
        _write(args.outfile, text)
    else:
        out.raw(text.rstrip("\n"))
    if args.names:
        _write(args.names, json.dumps(satreduce.reduction_names_json(rg), indent=2))
    out.answer(rg.graph.t)
    return 0


def _cmd_verify(args, out: _Output) -> int:
    if args.action == "compose":
        raw, t = parse_batch(_read(_needed(args, "batch", "--batch")))
        pre = preprocess(raw, t)
        if pre.answer is not None:
            out.answer(pre.answer)
            out.report({"short_circuit": True})
            return 0
        composed = compose_batch(pre.batch)
        report = verify_c1_c2_c3(composed, pre.batch)
        out.answer(report.all_pass)
        out.report({
            "c1_no_short_reset": report.c1_no_short_reset,
            "c2_all_shaped": report.c2_all_shaped,
            "c3_assembled_words_reset": report.c3_assembled_words_reset,
            "reset_word_count": report.reset_word_count,
            "assembled_count": report.assembled_count,
        })
        return 0
    f = satreduce.parse_dimacs(_read(_needed(args, "infile", "--in")))
    report = satreduce.verify_reduction(f)
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
    return 0


def _cmd_export(args, out: _Output) -> int:
    text = _read(args.infile)
    g = parse_graph(text)
    dot = to_dot(g)
    if args.outfile:
        _write(args.outfile, dot)
    else:
        out.raw(dot.rstrip("\n"))
    out.answer("OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="roadsync")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sync = sub.add_parser("sync")
    p_sync.add_argument("action", choices=["check", "shortest"])
    p_sync.add_argument("--in", dest="infile", required=True)
    p_sync.add_argument("--limit", type=int, default=None)

    p_srcp = sub.add_parser("srcp")
    p_srcp.add_argument("action", choices=["decide", "kernel", "k3"])
    p_srcp.add_argument("--in", dest="infile", required=True)
    p_srcp.add_argument("--k", type=int, default=0)
    p_srcp.add_argument("--out", dest="outfile", default=None)

    p_srcpw = sub.add_parser("srcpw")
    p_srcpw.add_argument("action", choices=["decide"])
    p_srcpw.add_argument("--word", required=True)
    p_srcpw.add_argument("--in", dest="infile", required=True)

    p_gen = sub.add_parser("gen")
    p_gen.add_argument("action", choices=["cerny", "compose", "sat-reduce"])
    p_gen.add_argument("--n", type=int, default=4)
    p_gen.add_argument("--batch", default=None)
    p_gen.add_argument("--in", dest="infile", default=None)
    p_gen.add_argument("--out", dest="outfile", default=None)
    p_gen.add_argument("--names", default=None)

    p_verify = sub.add_parser("verify")
    p_verify.add_argument("action", choices=["compose", "sat-reduce"])
    p_verify.add_argument("--batch", default=None)
    p_verify.add_argument("--in", dest="infile", default=None)

    p_export = sub.add_parser("export")
    p_export.add_argument("action", choices=["dot"])
    p_export.add_argument("--in", dest="infile", required=True)
    p_export.add_argument("--out", dest="outfile", default=None)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    out = _Output(args.json)
    handlers = {
        "sync": _cmd_sync,
        "srcp": _cmd_srcp,
        "srcpw": _cmd_srcpw,
        "gen": _cmd_gen,
        "verify": _cmd_verify,
        "export": _cmd_export,
    }
    try:
        code = handlers[args.command](args, out)
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
    return code


if __name__ == "__main__":
    sys.exit(main())
