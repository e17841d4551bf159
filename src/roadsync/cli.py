"""Command-line entry point.

Exit codes: 0 = decided/succeeded (answer on stdout), 1 = invalid input,
2 = size limit exceeded.  `--json` switches to a single JSON object with the
fields answer / witness_word / witness_coloring / report.

A command line is `[--json] command action` and then the action's flags,
each `--flag value` or `--flag=value`.  _ACTIONS names each action's handler
and the flags it reads, spelled in full; _FLAGS gives each flag's dest, and
whether it is required, an integer or has a default.  Anything else is a
usage error: a `usage:` line and an `error:` line on stderr, exit 1.  `-h`
or `--help` prints the usage on stdout instead, exit 0.
"""

from __future__ import annotations

import json
import re
import sys
from types import SimpleNamespace
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
    _ints,
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


# Integer flags (type int) take the token rule of the input files.
_FLAGS = {
    "--in": {"dest": "infile", "required": True},
    "--batch": {"dest": "batch", "required": True},
    "--word": {"dest": "word", "required": True},
    "--out": {"dest": "outfile"},
    "--names": {"dest": "names"},
    "--k": {"dest": "k", "type": int, "default": 0},
    "--limit": {"dest": "limit", "type": int},
    "--n": {"dest": "n", "type": int, "default": 4},
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

_COMMANDS = {command for command, _ in _ACTIONS}
_HELP = ("-h", "--help")
_NEGATIVE_NUMBER = re.compile(r"-\d+$|-\d*\.\d+$")


class _Usage(Exception):
    """A command line outside the grammar; args are the command and action
    read before it (a tuple) and the message, None for a request for help."""


def _usage(path: tuple) -> str:
    """One usage line per action under path, naming its flags."""
    lines = []
    for key, (_, *flags) in _ACTIONS.items():
        if key[:len(path)] == path:
            words = [f"{flag} {flag[2:].upper()}" if _FLAGS[flag].get("required")
                     else f"[{flag} {flag[2:].upper()}]" for flag in flags]
            lines.append(" ".join(["roadsync [--json]", *key, *words]))
    return "usage: " + "\n       ".join(lines)


def _is_flag(token: str, flags) -> bool:
    """Whether token stands where a flag may stand, and so is no flag value:
    it starts with "-", is not "-" alone, and names help or one of flags
    (before any "="), or else is neither a negative number nor a token
    that holds a space."""
    if token[:1] != "-" or len(token) == 1:
        return False
    name = token.partition("=")[0]
    return (name in flags or name in _HELP
            or " " not in token and _NEGATIVE_NUMBER.match(token) is None)


def _parse(argv: list[str]):
    """The handler, the --json switch and the flag values (attributes named
    by dest) of a command line, else _Usage.

    A flag's value may not itself look like a flag (_is_flag), and a flag
    given twice keeps its last value.  A flag without its value, a bad
    integer, an unknown command or action is refused where it stands; help
    is answered where it stands; unknown flags and stray words are refused
    at the end, after any missing required flag."""
    as_json, path, flags, values, strays = False, (), {}, {}, []
    i, n = 0, len(argv)
    while i < n:
        token = argv[i]
        i += 1
        name, eq, value = token.partition("=")
        if name in flags:
            if not eq:
                if i == n or _is_flag(argv[i], flags):
                    raise _Usage(path, f"argument {name}: expected one argument")
                value = argv[i]
                i += 1
            spec = flags[name]
            if "type" in spec:
                try:
                    value = _ints((value,), f"argument {name}")[0]
                except InvalidInputError as exc:
                    raise _Usage(path, str(exc)) from None
            values[spec["dest"]] = value
        elif name in _HELP or name == "--json" and not path:
            if eq:
                raise _Usage(path, f"argument {name}: ignored explicit argument {value!r}")
            if name != "--json":
                raise _Usage(path, None)
            as_json = True
        elif len(path) == 2 or _is_flag(token, flags):
            strays.append(token)
        elif path:
            path += (token,)
            if path not in _ACTIONS:
                raise _Usage(path[:1], f"invalid action: {token!r}")
            flags = {flag: _FLAGS[flag] for flag in _ACTIONS[path][1:]}
            values = {spec["dest"]: spec.get("default") for spec in flags.values()}
        elif token in _COMMANDS:
            path = (token,)
        else:
            raise _Usage(path, f"invalid command: {token!r}")
    if len(path) < 2:
        raise _Usage(path, "expected an action" if path else "expected a command")
    missing = [flag for flag, spec in flags.items()
               if spec.get("required") and values[spec["dest"]] is None]
    if missing:
        raise _Usage(path, "missing required flags: " + ", ".join(missing))
    if strays:
        raise _Usage(path, "unrecognized arguments: " + " ".join(strays))
    return _ACTIONS[path][0], as_json, SimpleNamespace(**values)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        handler, as_json, args = _parse(sys.argv[1:] if argv is None else argv)
    except _Usage as exc:
        path, message = exc.args
        if message is None:
            print(_usage(path))
            return 0
        print(_usage(path), f"error: {message}", sep="\n", file=sys.stderr)
        return 1
    out = _Output(as_json)
    try:
        handler(args, out)
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
