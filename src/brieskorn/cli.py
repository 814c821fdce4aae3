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
"""

from __future__ import annotations

import argparse
import os
import sys

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
        raise argparse.ArgumentTypeError(f"malformed range {spec!r}; expected N or N..M")
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


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write to stdout (--help) raises for main
    to report, where argparse swallows it; its subparsers share the class."""

    def _print_message(self, message, file=None):
        if message and file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="brieskorn",
        description="Exact invariants of Brieskorn hypersurface singularities x^a + y^b + z^c",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariants", help="report all invariants of one triple")
    p_inv.add_argument("a", type=int)
    p_inv.add_argument("b", type=int)
    p_inv.add_argument("c", type=int)
    p_inv.add_argument("--format", choices=["text", "json"], default="text")
    p_inv.add_argument("--json", dest="format", action="store_const", const="json")
    p_inv.set_defaults(func=cmd_invariants)

    p_graph = sub.add_parser("graph", help="emit the resolution dual graph")
    p_graph.add_argument("a", type=int)
    p_graph.add_argument("b", type=int)
    p_graph.add_argument("c", type=int)
    p_graph.add_argument("--format", choices=["dot", "json"], default="dot")
    p_graph.add_argument("--dot", dest="format", action="store_const", const="dot")
    p_graph.add_argument("--json", dest="format", action="store_const", const="json")
    p_graph.set_defaults(func=cmd_graph)

    p_scan = sub.add_parser("scan", help="tabulate invariants over exponent ranges")
    p_scan.add_argument("a_range", type=_parse_range)
    p_scan.add_argument("b_range", type=_parse_range)
    p_scan.add_argument("c_range", type=_parse_range)
    p_scan.add_argument(
        "--filter",
        choices=["all", "rational", "elliptic", "boundary", "rees_normal"],
        default="all",
    )
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    p_scan.add_argument("--json", dest="format", action="store_const", const="json")
    p_scan.set_defaults(func=cmd_scan)

    p_verify = sub.add_parser("verify", help="run every formula-vs-oracle suite")
    p_verify.add_argument("max", type=int)
    p_verify.set_defaults(func=cmd_verify)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if sys.stdout is None:  # started with file descriptor 1 closed
        print("brieskorn: stdout is closed", file=sys.stderr)
        return 1
    if _parser is None:  # built on first use, not at import, and reused after
        _parser = build_parser()
    try:
        try:
            args = _parser.parse_args(argv)
        except SystemExit:  # --help, or a usage error: its text, too, is flushed here
            sys.stdout.flush()
            raise
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # so a closed or full stdout fails here, not at exit
        return code
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
