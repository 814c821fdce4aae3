"""Command-line interface: per-triple reports, graph export, scans, verification.

Exit codes: 0 success, 1 verification failure (a failed verify suite, a
failed internal self-consistency check or a dead verify worker) or output
error (a closed or full stdout, also under --help), 2 usage error, 130
interrupted (Ctrl-C); main reports each failure in one line on stderr.  All
numeric output is exact (integers).  JSON is written by _json, without the
json module: the bytes that json.dumps(value, sort_keys=True, indent=2)
writes, the tests' oracle.  Keys are sorted so that parsing and re-emitting is
byte-identical, and a value the outputs never hold is refused.  Scan rows are
read straight from classify.invariants, in SCAN_COLUMNS order; no CSV cell
needs quoting.

parse_args reads argv from the COMMANDS table, without argparse, as the argparse
parser it replaced read it on Python 3.11: unique prefixes of options, --opt=value,
"--", -3 as a positional, and the last of a repeated option.  The help screens are built
from the same table by argparse's rules at 80 columns, at any terminal width; a usage
error writes its parser's usage block and one "error:" line to stderr, in argparse's words.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import classify, resolution, verify
from .errors import InternalCheckError
from .ring import BrieskornPair, BrieskornTriple

SCAN_COLUMNS = [
    "a", "b", "c", "pg", "nr_m", "q_m", "pf",
    "rational", "elliptic", "boundary", "rees_normal",
    "nr_A_status", "nr_A",
]


def _safe(s):
    """s, if it is a str that JSON writes as it is between quotes: printable ASCII
    with no '"' or '\\'.  Anything else is refused, naming it."""
    if type(s) is str and s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return s
    raise InternalCheckError(f"JSON output cannot hold {type(s).__name__} {s!r}")


def _json(value, nl: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, for the values the
    JSON outputs hold: dicts with str keys, lists, int, True, False, None and _safe strs.
    nl is the newline and indent of value's own line; a list of ints is one join."""
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    kind = type(value)
    if kind is int:
        return str(value)
    if (kind is list or kind is dict) and not value:
        return "[]" if kind is list else "{}"
    inner = nl + "  "
    if kind is list:
        items = (
            map(str, value) if {*map(type, value)} == {int} else [_json(x, inner) for x in value]
        )
        return "[" + inner + ("," + inner).join(items) + nl + "]"
    if kind is dict:
        items = [f'"{k}": {_json(value[k], inner)}' for k in sorted(value, key=_safe)]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    return f'"{_safe(value)}"'


def _dump_json(obj) -> str:
    return _json(obj, "\n") + "\n"


def _invariants_dict(t: BrieskornTriple) -> dict:
    inv = classify.invariants(t)
    p = t.pair
    status, value = inv.nr_A
    e0, e1, e2 = p.hilbert
    return {
        "a": t.a,
        "b": t.b,
        "c": t.c,
        "pg": inv.pg,
        "pf": inv.pf,
        "nr_m": p.nr,
        "br_m": p.nr,
        "q_m": inv.q[1],
        "q_sequence": list(inv.q),
        "v_sequence": list(p.v),
        "hilbert": {"e0": e0, "e1": e1, "e2": e2},
        "rational": inv.rational,
        "elliptic": inv.elliptic,
        "boundary": inv.boundary,
        "rees_normal": inv.rees_normal,
        "pg_ideal_m": inv.pg_ideal_m,
        "nr_A": {"status": status, "value": value},
        "pg_bound_holds": inv.pg_bound_holds,
    }


def _invariants_text(d: dict) -> str:
    lines = [
        f"triple: ({d['a']}, {d['b']}, {d['c']})",
        f"pg: {d['pg']}",
        f"pf: {d['pf']}",
        f"nr_m: {d['nr_m']} (= br_m)",
        f"q_m: {d['q_m']}",
        f"q_sequence: {d['q_sequence']}",
        f"v_sequence: {d['v_sequence']}",
        "hilbert: e0={e0} e1={e1} e2={e2}".format(**d["hilbert"]),
        f"rational: {str(d['rational']).lower()}",
        f"elliptic: {str(d['elliptic']).lower()}",
        f"boundary: {str(d['boundary']).lower()}",
        f"rees_normal: {str(d['rees_normal']).lower()}",
        f"pg_ideal_m: {str(d['pg_ideal_m']).lower()}",
        f"nr_A: {d['nr_A']['value']} ({d['nr_A']['status']})",
    ]
    return "\n".join(lines) + "\n"


def _parse_range(spec: str) -> range:
    try:
        if ".." in spec:
            lo_text, hi_text = spec.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(spec)
    except ValueError:
        raise ValueError(f"malformed range {spec!r}; expected N or N..M") from None
    return range(lo, hi + 1)


def cmd_invariants(args, out) -> int:
    t = BrieskornTriple(args.a, args.b, args.c)
    data = _invariants_dict(t)
    out.write(_dump_json(data) if args.format == "json" else _invariants_text(data))
    return 0


def cmd_graph(args, out) -> int:
    t = BrieskornTriple(args.a, args.b, args.c)
    g = resolution.dual_graph(t)
    if args.format == "json":
        out.write(_dump_json(resolution.to_json_dict(g)))
    else:
        out.write(resolution.to_dot(g))
    return 0


def _scan_rows(args):
    for a in args.a_range:
        for b in args.b_range:
            if not 2 <= a <= b:
                continue
            pair = BrieskornPair(a, b)  # one per (a, b), read by each c
            for c in args.c_range:
                if c < b:
                    continue
                inv = classify.invariants(pair.triple(c))
                if args.filter != "all" and not getattr(inv, args.filter):
                    continue
                yield [a, b, c, inv.pg, pair.nr, inv.q[1], inv.pf, inv.rational,
                       inv.elliptic, inv.boundary, inv.rees_normal, *inv.nr_A]


def cmd_scan(args, out) -> int:
    rows = _scan_rows(args)
    if args.format == "json":
        out.write(_dump_json([dict(zip(SCAN_COLUMNS, row)) for row in rows]))
    else:  # only True and False hold a capital, and print as true and false
        lines = [",".join(SCAN_COLUMNS), *(",".join(map(str, row)).lower() for row in rows)]
        out.write("\r\n".join(lines) + "\r\n")
    return 0


def cmd_verify(args, out) -> int:
    affinity = getattr(os, "sched_getaffinity", None)  # missing on some platforms
    cores = len(affinity(0)) if affinity else os.cpu_count() or 1
    results = verify.run_all(args.max, cores)
    failed = False
    for suite in results:
        if suite.passed:
            out.write(f"ok   {suite.name}: {suite.checks} checks\n")
        else:
            failed = True
            out.write(
                f"FAIL {suite.name}: {len(suite.failures)} of {suite.checks} checks; "
                f"first: {suite.failures[0]}\n"
            )
    out.write(("FAIL" if failed else "ok") + f" total: {len(results)} suites\n")
    return 1 if failed else 0


DESCRIPTION = "Exact invariants of Brieskorn hypersurface singularities x^a + y^b + z^c"

# Each command's function, its one-line summary, its positionals with their converters,
# and its long options in help order: a choice option, whose dest is its name and whose
# default is its first choice, or a flag, which sets format to its value.
COMMANDS = {
    "invariants": (
        cmd_invariants, "report all invariants of one triple", {"a": int, "b": int, "c": int},
        {"--format": ("text", "json"), "--json": "json"},
    ),
    "graph": (
        cmd_graph, "emit the resolution dual graph", {"a": int, "b": int, "c": int},
        {"--format": ("dot", "json"), "--dot": "dot", "--json": "json"},
    ),
    "scan": (
        cmd_scan, "tabulate invariants over exponent ranges",
        {"a_range": _parse_range, "b_range": _parse_range, "c_range": _parse_range},
        {"--filter": ("all", "rational", "elliptic", "boundary", "rees_normal"),
         "--format": ("csv", "json"), "--json": "json"},
    ),
    "verify": (cmd_verify, "run every formula-vs-oracle suite", {"max": int}, {}),
}


def _parts(command):
    """The options after -h, --help and the positionals that command's help lists (None:
    the top level's), each as its row names it."""
    if command is None:
        return [], ["{" + ",".join(COMMANDS) + "}"]
    _, _, positionals, options = COMMANDS[command]
    return [f"{option} {{{','.join(choices)}}}" if type(choices) is tuple else option
            for option, choices in options.items()], [*positionals]


def _usage(command) -> str:
    """The usage block of command's help (None: the top level's), as argparse writes it
    at 80 columns: one line if it fits in 78, or else the options filled in greedily
    after the program's name and at its indent, then the positionals from a new line."""
    options, positionals = _parts(command)
    prog = "usage: brieskorn" + (" " + command if command else "")
    parts = ["[-h]", *(f"[{option}]" for option in options), *positionals, *["..."] * (not command)]
    wraps = len(" ".join([prog, *parts])) > 78
    lines = [prog]
    for i, part in enumerate(parts):  # parts[len(options) + 1] is the first positional
        if len(lines[-1]) + 1 + len(part) > 78 or wraps and i == len(options) + 1:
            lines.append(" " * len(prog))
        lines[-1] += " " + part
    return "\n".join(lines) + "\n"


def _screen(command) -> str:
    """The help screen of command (None: the top level's), as argparse writes it at 80
    columns: the usage, the description, then a row for each positional and option, its
    help from the column min(longest row + 2, 24), or from the next line if the row
    leaves less than two spaces before that column.  Every command has a positional, and
    no summary is long enough to wrap."""
    options, positionals = _parts(command)
    commands = [(f"    {name}", entry[1]) for name, entry in COMMANDS.items()] * (not command)
    sections = {
        "positional arguments": [*((f"  {name}", "") for name in positionals), *commands],
        "options": [("  -h, --help", "show this help message and exit"),
                    *((f"  {option}", "") for option in options)],
    }
    column = min(max(len(row) for rows in sections.values() for row, _ in rows) + 2, 24)
    blocks = [_usage(command), *[DESCRIPTION + "\n"] * (not command)]
    for heading, rows in sections.items():
        lines = [heading + ":"]
        for row, text in rows:
            if text:
                row = (row.ljust(column) if len(row) + 2 <= column else f"{row}\n{' ' * column}")
                row += text
            lines.append(row)
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


class UsageError(Exception):
    """A command line the parser refuses; its str is what main writes to stderr."""


def _refused(command, message: str) -> UsageError:
    """The usage block of command's help, or the top level's for None, and one line."""
    prog = "brieskorn" + (" " + command if command else "")
    return UsageError(f"{_usage(command)}{prog}: error: {message}\n")


def _is_negative_number(token: str) -> bool:
    """Whether token is -N or -N.M, in any script's decimal digits (N may be empty in the
    second), with one newline allowed at its end: a positional, as argparse reads it."""
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    if not dot:
        return whole.isdecimal()
    return fraction.isdecimal() and (not whole or whole.isdecimal())


def _kind(token: str, options: list, command):
    """How argparse reads token: "A" for a positional, or (option, its explicit value or
    None), with option None for an unknown one.  options lists -h and --help first."""
    if token[:1] != "-" or token == "-":
        return "A"
    if token in options:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in options:
        return name, value
    if token[1] == "-":  # a prefix of long options, before any "="
        matches = [option for option in options if option.startswith(name)]
        explicit = value if eq else None
    else:  # -h with the rest of the token as its value, as -hh is -h -h
        matches, explicit = (["-h"], token[2:]) if token[:2] == "-h" else ([], None)
    if len(matches) > 1:
        raise _refused(command, f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], explicit
    return "A" if _is_negative_number(token) or " " in token else (None, None)


def _help(command, option: str, explicit):
    """The help of command (None: the top level) for -h or --help, given explicit."""
    rest = explicit.lstrip("h") if option == "-h" and explicit else explicit  # -hh: -h -h
    if explicit is None or explicit and not rest:
        return _screen(command)
    raise _refused(command, f"argument -h/--help: ignored explicit argument {rest!r}")


def _read(command, tokens: list, extras: list):
    """The parsed tokens after the command's name: command, its positionals and options
    by dest, and func, the cmd_* function that runs it; or its help text.  What no
    positional or option takes goes to extras."""
    func, _, positionals, options = COMMANDS[command]
    known = ["-h", "--help", *options]
    kinds = []  # every token is read before any is taken, so a bad prefix is found first
    for index, token in enumerate(tokens):
        if token == "--":  # every token after the first "--" is a positional
            kinds += ["-"] + ["A"] * (len(tokens) - index - 1)
            break
        kinds.append(_kind(token, known, command))
    values = {"command": command, "func": func}
    for option, choices in options.items():
        if type(choices) is tuple:
            values[option[2:]] = choices[0]
    names = [*positionals]
    i, n = 0, len(tokens)
    while i < n:
        kind = kinds[i]
        if type(kind) is tuple:
            option, explicit = kind
            i += 1
            if option is None:
                extras.append(tokens[i - 1])
                continue
            if option in ("-h", "--help"):
                return _help(command, option, explicit)
            choices = options[option]
            if type(choices) is str:  # a flag
                if explicit is not None:
                    raise _refused(
                        command, f"argument {option}: ignored explicit argument {explicit!r}"
                    )
                values["format"] = choices
                continue
            if explicit is None:
                if i == n or kinds[i] != "A":
                    raise _refused(command, f"argument {option}: expected one argument")
                explicit = tokens[i]
                i += 1
            if explicit not in choices:
                raise _refused(command, f"argument {option}: invalid choice: {explicit!r} "
                                        f"(choose from {', '.join(map(repr, choices))})")
            values[option[2:]] = explicit
            continue
        start = i
        # each positional left takes the next "A", with a "--" on either side of it
        while names:
            j = i + (i < n and kinds[i] == "-")
            if j >= n or kinds[j] != "A":
                break
            name = names.pop(0)
            convert = positionals[name]
            try:
                values[name] = convert(tokens[j])
            except ValueError as exc:
                message = f"invalid int value: {tokens[j]!r}" if convert is int else str(exc)
                raise _refused(command, f"argument {name}: {message}") from None
            i = j + 1 + (j + 1 < n and kinds[j + 1] == "-")
        if i == start:  # no positional left to take them, up to the next option
            while i < n and type(kinds[i]) is not tuple:
                extras.append(tokens[i])
                i += 1
    if names:
        raise _refused(command, f"the following arguments are required: {', '.join(names)}")
    return SimpleNamespace(**values)


def parse_args(argv):
    """argv read left to right as argparse reads it, with unique prefixes of options,
    --opt=value, "--", -3 as a positional and the last of a repeated option: the parsed
    command line, or the help text of the parser reached at -h or --help.  A refused argv
    raises UsageError with argparse's wording."""
    tokens, extras, i = [*argv], [], 0
    while i < len(tokens) and tokens[i] != "--":
        kind = _kind(tokens[i], ["-h", "--help"], None)
        if kind == "A":  # the command
            break
        option, explicit = kind
        if option is not None:
            return _help(None, option, explicit)
        extras.append(tokens[i])
        i += 1
    if i + (tokens[i:i + 1] == ["--"]) >= len(tokens):  # nothing, or only "--", is left
        raise _refused(None, "the following arguments are required: command")
    command = tokens[i]
    if command not in COMMANDS:
        raise _refused(None, f"argument command: invalid choice: {command!r} "
                             f"(choose from {', '.join(map(repr, COMMANDS))})")
    args = _read(command, tokens[i + 1:], extras)
    if extras and type(args) is not str:
        raise _refused(None, f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    if sys.stdout is None:  # started with file descriptor 1 closed
        print("brieskorn: stdout is closed", file=sys.stderr)
        return 1
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if type(args) is str:  # -h or --help: the help of the parser reached
            sys.stdout.write(args)
            code = 0
        else:
            code = args.func(args, sys.stdout)
        sys.stdout.flush()  # so a closed or full stdout fails here, not at exit
        return code
    except UsageError as exc:
        sys.stderr.write(str(exc))
        return 2
    except OSError as exc:
        print(f"brieskorn: {exc}", file=sys.stderr)
        # what stdout still buffers would fail again when the interpreter flushes it
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ValueError as exc:
        print(f"brieskorn: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"brieskorn: internal check failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("brieskorn: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
