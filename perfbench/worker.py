"""One repetition of a benchmark workload, in a fresh interpreter.

Reads a JSON spec from stdin: {"workload", "mode", "ops"}.  Runs the ops in
a closed loop (one client; the next op starts when the previous returns) and
prints one JSON object to stdout.

mode "timed" drives the program as a user does: `brieskorn.cli.main(argv)`
with output captured, or, for `laufer`, the public `resolution` functions.
Every output is checked by rules that do not trust the program.

mode "traced" calls the public functions that the CLI (or the op) calls, in
the same order, and times each call as a span.  A function that no longer
exists is reported as absent; an exception inside a span is counted against
the span's module.

A failed op has a `failure` kind: "exception", "exit" or "mismatch", and
makes the run incorrect.  A `laufer` op whose triple was recorded as hitting
the step cap of `resolution.fundamental_cycle`, and does so again (ROADMAP
item 1), gets the kind "known_cap": the recorded outcome, not a failed op,
though not a completed one either.

Between ops it times fixed calibration work (calibrated_loop), by which
the benchmark scales op times to a reference machine speed.

Only public names of the package are used.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SCAN_BC_ARG = "2..40"
SCAN_BC = range(2, 41)
VERIFY_BOUND = 20
# the verify suites in verify.run_all order, with the module each exercises
SUITE_LAYER = {
    "suite_nr_formula": "filtration",
    "suite_membership_oracle": "ring",
    "suite_q_recursion": "filtration",
    "suite_hilbert": "filtration",
    "suite_fundamental_genus": "resolution",
    "suite_negative_definite": "resolution",
    "suite_classification": "classify",
    "suite_certificates": "classify",
    "suite_pg_bound": "genus",
}
# the calls cli makes for one triple, in cli's order: (module, function, span)
INVARIANT_CALLS = (
    ("genus", "geometric_genus", "genus.geometric_genus_ms"),
    ("filtration", "q_sequence", "filtration.q_sequence_ms"),
    ("classify", "infer_nr_A", "classify.predicates_ms"),
    ("resolution", "fundamental_genus", "resolution.fundamental_genus_ms"),
    ("genus", "q_of_m", "genus.q_of_m_ms"),
    ("classify", "is_rational", "classify.predicates_ms"),
    ("classify", "is_elliptic", "classify.predicates_ms"),
    ("classify", "boundary_case", "classify.predicates_ms"),
    ("classify", "rees_normal", "classify.predicates_ms"),
    ("classify", "is_pg_ideal_m", "classify.predicates_ms"),
)
CALIBRATION_LOOPS = 2
CALIBRATE_EVERY_S = 1.0
HILBERT_PROBE = ("filtration", "normal_hilbert_coefficients", "filtration.normal_hilbert_coefficients_ms")


def calibration_step(a: int, n: int) -> int:
    return (n * (a + 7)) // a + (n * a) % (a + 7)


def calibration_work() -> None:
    """Fixed interpreter work of the kinds the program does.

    Function calls, generators, tuples and floor division, then a dict of
    20000 tuple keys and a sort.  A tight loop over small ints, which stays
    in the first-level cache, slowed down on a busy shared machine about
    1.5 times less (in log time) than the program did; this mix slows down
    about as much as the program.
    """
    for a in range(3, 103):
        v = tuple(calibration_step(a, n) for n in range(300))
        sum(x for x in v if x & 1)
    counts: dict[tuple[int, int], int] = {}
    for i in range(20_000):
        key = (i % 211, i % 97)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts)


def calibration_block() -> float:
    """Best of a few runs of calibration_work: how fast the machine runs now."""
    best = float("inf")
    for _ in range(CALIBRATION_LOOPS):
        start = time.perf_counter()
        calibration_work()
        best = min(best, time.perf_counter() - start)
    return best


def calibrated_loop(ops: list[dict], run_op) -> tuple[list[dict], list[float]]:
    """run_op(op) for each op in a closed loop, with calibration blocks between ops.

    A block runs before the first op, after the last, and between ops once
    CALIBRATE_EVERY_S has passed since the previous one.  Each result gets
    `cal_s`, the mean of the blocks just before and just after its op; the
    benchmark scales the op's time by it, so a slow spell of a shared machine
    does not read as a slower program.  Returns (results, blocks).
    """
    blocks = [calibration_block()]
    last = time.perf_counter()
    results, before = [], []
    for op in ops:
        if time.perf_counter() - last >= CALIBRATE_EVERY_S:
            blocks.append(calibration_block())
            last = time.perf_counter()
        before.append(len(blocks) - 1)
        results.append(run_op(op))
    blocks.append(calibration_block())
    for result, i in zip(results, before):
        result["cal_s"] = (blocks[i] + blocks[i + 1]) / 2
    return results, blocks


def load_package():
    sys.path.insert(0, str(SRC))
    import brieskorn
    from brieskorn import classify, cli, filtration, genus, resolution, verify

    if Path(brieskorn.__file__).resolve().parent != SRC / "brieskorn":
        raise ImportError(f"brieskorn imported from {brieskorn.__file__}, not {SRC}")
    return brieskorn, {
        "classify": classify,
        "cli": cli,
        "filtration": filtration,
        "genus": genus,
        "resolution": resolution,
        "verify": verify,
    }


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def nr_m(a: int, b: int) -> int:
    return ((a - 1) * b) // a


# ---------------------------------------------------------------- timed ops


def call_cli(cli, argv: list[str]) -> tuple[object, str, float]:
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, out.getvalue(), time.perf_counter() - start


def check_invariants(op: dict, text: str) -> str | None:
    a, b, c = op["triple"]
    d = json.loads(text)
    if (d["a"], d["b"], d["c"]) != (a, b, c):
        return "wrong triple"
    if d["nr_m"] != nr_m(a, b):
        return f"nr_m {d['nr_m']} != {nr_m(a, b)}"
    if d["hilbert"]["e0"] != a:
        return f"e0 {d['hilbert']['e0']} != a"
    if len(d["q_sequence"]) != d["nr_m"] + 2:
        return "len(q_sequence) != nr_m + 2"
    if d["q_sequence"][0] != d["pg"]:
        return "q_sequence[0] != pg"
    if digest(text) != op["digest"]:
        return "output differs from the recorded digest"
    return None


def check_scan(op: dict, text: str) -> str | None:
    a = op["a"]
    rows = list(csv.DictReader(io.StringIO(text)))
    triples = [(int(r["a"]), int(r["b"]), int(r["c"])) for r in rows]
    if triples != slab_triples(a):
        return "rows are not the triples of the slab"
    for r in rows:
        if int(r["nr_m"]) != nr_m(a, int(r["b"])):
            return f"nr_m wrong at {r['a']},{r['b']},{r['c']}"
    if digest(text) != op["digest"]:
        return "output differs from the recorded digest"
    return None


def slab_triples(a: int) -> list[tuple[int, int, int]]:
    return [(a, b, c) for b in SCAN_BC for c in SCAN_BC if a <= b <= c]


def op_triples(workload: str, op: dict) -> int:
    """How many triples an op covers (the unit of triples_per_s)."""
    if workload == "scan_box":
        return len(slab_triples(op["a"]))
    if workload == "verify":
        r = range(2, VERIFY_BOUND + 1)
        return sum(1 for a in r for b in r for c in r if a <= b <= c)
    return 1


def check_verify(text: str) -> str | None:
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("ok total"):
        return "verify did not end in 'ok total'"
    return None


def cli_op(mods, argv: list[str], check) -> dict:
    code, text, seconds = call_cli(mods["cli"], argv)
    if code != 0:
        return {"s": seconds, "failure": "exit", "detail": f"exit code {code}"}
    problem = check(text)
    if problem:
        return {"s": seconds, "failure": "mismatch", "detail": problem}
    return {"s": seconds}


def laufer_op(brieskorn, mods, op: dict) -> dict:
    resolution = mods["resolution"]
    a, b, c, size = op["triple"]
    start = time.perf_counter()
    t = brieskorn.new_triple(a, b, c)
    graph = resolution.build_dual_graph(resolution.seifert_data(t))
    try:
        cycle = resolution.fundamental_cycle(graph)
    except brieskorn.InternalCheckError as exc:
        if not op["capped"]:
            raise
        detail = f"known step cap: fundamental_cycle: {exc}"
        return {"s": time.perf_counter() - start, "failure": "known_cap", "detail": detail}
    pf = resolution.fundamental_genus_oracle(graph)
    try:
        pf_formula = resolution.fundamental_genus_formula(t)
    except brieskorn.FormulaInapplicableError:
        pf_formula = None
    seconds = time.perf_counter() - start
    problem = check_cycle(graph, cycle.coefficients, size)
    if problem is None and pf_formula is not None and pf_formula != pf:
        problem = f"p_f closed form {pf_formula} != adjunction {pf}"
    if problem:
        return {"s": seconds, "failure": "mismatch", "detail": problem}
    return {"s": seconds}


def check_cycle(graph, z: tuple[int, ...], size: int) -> str | None:
    """Z is positive, anti-nef (Z.E_i <= 0) and of the recorded minimal size sum(Z)."""
    if len(z) != len(graph.vertices) or min(z) < 1:
        return "cycle is not a positive cycle on the graph"
    for i, (weight, _) in enumerate(graph.vertices):
        if z[i] * weight + sum(z[j] for j in graph.neighbors[i]) > 0:
            return f"cycle is not anti-nef at vertex {i}"
    if sum(z) != size:
        return f"sum(Z) = {sum(z)}, expected {size}"
    return None


def run_timed(workload: str, ops: list[dict]) -> tuple[list[dict], list[float]]:
    brieskorn, mods = load_package()

    def run_op(op: dict) -> dict:
        start = time.perf_counter()
        try:
            if workload == "ladder":
                argv = ["invariants", *map(str, op["triple"]), "--json"]
                result = cli_op(mods, argv, lambda text: check_invariants(op, text))
            elif workload == "scan_box":
                argv = ["scan", str(op["a"]), SCAN_BC_ARG, SCAN_BC_ARG]
                result = cli_op(mods, argv, lambda text: check_scan(op, text))
            elif workload == "verify":
                result = cli_op(mods, ["verify", str(VERIFY_BOUND)], check_verify)
            else:
                result = laufer_op(brieskorn, mods, op)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            detail = f"{type(exc).__name__}: {exc}"
            result = {"s": time.perf_counter() - start, "failure": "exception", "detail": detail}
        result["triples"] = op_triples(workload, op)
        return result

    return calibrated_loop(ops, run_op)


# ---------------------------------------------------------------- traced ops

FAILED = object()
ABSENT = object()


class Trace:
    """Span totals (seconds), exact counts and absent functions for one repetition."""

    def __init__(self, mods):
        self.mods = mods
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: set[str] = set()
        self.error: str | None = None
        self.error_at: tuple[str, str, type] | None = None  # (module, function, exception type)

    def call(self, module: str, name: str, span: str, *args, allowed=()):
        """fn(*args) timed into `span`; ABSENT if fn or an argument is missing.

        An exception of a type in `allowed` is an expected outcome and returns
        None; any other is counted in `<module>.errors` and returns FAILED.
        """
        fn = getattr(self.mods[module], name, None)
        if fn is None:
            self.absent.add(f"{module}.{name}")
            return ABSENT
        if any(arg is ABSENT or arg is FAILED for arg in args):
            return ABSENT
        start = time.perf_counter()
        try:
            return fn(*args)
        except allowed:
            return None
        except Exception as exc:  # counted against the module; the op fails
            self.counts[f"{module}.errors"] += 1
            self.error = f"{module}.{name}: {type(exc).__name__}: {exc}"
            self.error_at = (module, name, type(exc))
            return FAILED
        finally:
            self.seconds[span] += time.perf_counter() - start


def traced_triple(trace: Trace, t) -> None:
    """The calls cli makes for one triple, in cli's order."""
    pg = ABSENT
    for module, name, span in INVARIANT_CALLS:
        args = (t, pg) if name == "q_sequence" else (t,)
        result = trace.call(module, name, span, *args)
        if result is FAILED:
            return
        if name == "geometric_genus":
            pg = result


def traced_laufer(brieskorn, trace: Trace, t) -> None:
    sd = trace.call("resolution", "seifert_data", "resolution.seifert_data_ms", t)
    graph = trace.call("resolution", "build_dual_graph", "resolution.build_dual_graph_ms", sd)
    if graph is not ABSENT and graph is not FAILED:
        trace.counts["resolution.vertices"] += len(graph.vertices)
    cycle = trace.call("resolution", "fundamental_cycle", "resolution.fundamental_cycle_ms", graph)
    if cycle is FAILED:
        return
    if cycle is not ABSENT:
        trace.counts["resolution.laufer_bumps"] += sum(z - 1 for z in cycle.coefficients)
    trace.call("resolution", "fundamental_genus_oracle", "resolution.fundamental_genus_oracle_ms", graph)
    trace.call(
        "resolution", "fundamental_genus_formula", "resolution.fundamental_genus_formula_ms", t,
        allowed=brieskorn.FormulaInapplicableError,
    )


def traced_op(brieskorn, trace: Trace, workload: str, op: dict) -> tuple[str | None, float]:
    """(failure kind or None, seconds of the op itself with probes excluded)."""
    errors = sum(trace.counts[f"{m}.errors"] for m in trace.mods)
    start = time.perf_counter()
    probe = 0.0
    failure = None
    if workload in ("ladder", "scan_box"):
        triples = [op["triple"]] if workload == "ladder" else slab_triples(op["a"])
        for a, b, c in triples:
            t = brieskorn.new_triple(a, b, c)
            traced_triple(trace, t)
            trace.counts["filtration.br_sum"] += nr_m(a, b)
            before = time.perf_counter()
            trace.call(*HILBERT_PROBE, t)
            probe += time.perf_counter() - before
    elif workload == "verify":
        for name in SUITE_LAYER:
            result = trace.call("verify", name, f"verify.{name}_s", VERIFY_BOUND)
            if result is not ABSENT and result is not FAILED:
                trace.counts[f"verify.{name}.checks"] += result.checks
                if not result.passed:
                    failure = "mismatch"
    else:
        traced_laufer(brieskorn, trace, brieskorn.new_triple(*op["triple"][:3]))
    seconds = time.perf_counter() - start - probe
    if sum(trace.counts[f"{m}.errors"] for m in trace.mods) > errors:
        failure = "exception"
        module, name, kind = trace.error_at
        if op.get("capped") and (module, name) == ("resolution", "fundamental_cycle") \
                and issubclass(kind, brieskorn.InternalCheckError):
            failure = "known_cap"
    return failure, seconds


def run_traced(workload: str, ops: list[dict]) -> tuple[list[dict], list[float], Trace]:
    brieskorn, mods = load_package()
    trace = Trace(mods)

    def run_op(op: dict) -> dict:
        failure, seconds = traced_op(brieskorn, trace, workload, op)
        result = {"s": seconds}
        if failure:
            result.update(failure=failure, detail=f"traced op: {trace.error or 'verify suite failed'}")
        return result

    return (*calibrated_loop(ops, run_op), trace)


def main() -> int:
    spec = json.load(sys.stdin)
    out = {}
    if spec["mode"] == "timed":
        out["ops"], out["calibration_s"] = run_timed(spec["workload"], spec["ops"])
    else:
        out["ops"], out["calibration_s"], trace = run_traced(spec["workload"], spec["ops"])
        out["spans"] = dict(trace.seconds)
        out["counts"] = {name: n for name, n in trace.counts.items() if n}
        out["absent"] = sorted(trace.absent)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
