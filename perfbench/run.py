"""Benchmark of the brieskorn calculator, end to end and module by module.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  The
metric names and units are those of BENCHMARK.json.

Workloads (inputs depend only on --seed; `scan_box` and `verify` are fixed):

* `ladder`   `invariants a b c --json` on 102 distinct triples: (3,4,7),
             (500,700,900) and one from each of 100 groups of a fixed pool
             with a log-uniform in 3..500, b <= 1.5a, c <= 1.5b
             (perfbench/reference.json, made by make_reference.py).
* `scan_box` `scan a 2..40 2..40` in CSV for a = 2..10: 9 ops, 5700 rows.
* `verify`   `verify 20`, one op per repetition.
* `laufer`   300 distinct sorted triples with exponents in 30..120, one from
             each of 300 groups of a fixed pool; each op runs seifert_data,
             build_dual_graph, fundamental_cycle, fundamental_genus_oracle
             and, where it applies, fundamental_genus_formula.

Each repetition runs every op of the workload in a fresh interpreter
(perfbench/worker.py), one client in a closed loop, so no cache entry from
one repetition serves the next; that is also what a CLI user pays.
Repetitions run until --seconds is used up.  Latency and throughput come
from each op's median time over the repetitions (q1 and q3 from its
quartiles); every other metric is the median over repetitions, and setup_s
the median over fresh-interpreter imports.  Every time is scaled to a
reference machine speed, measured by fixed calibration work that each
repetition runs between its ops (see rescale).

--trace 0 reports the end-to-end metrics, measured untraced:
  setup_s         time a fresh interpreter takes to import brieskorn.cli
  op_p50_ms       median, over the completed ops, of each op's latency
                  (ladder: invariants_p50_ms, laufer: laufer_p50_ms,
                  verify: verify_s x 1000, as verify has one op)
  op_p90_ms       90th percentile of the same
  triples_per_s   triples of completed ops per second of op time
                  (scan_box: scan_rows_per_s)
  peak_rss_mb     ru_maxrss of the repetition's interpreter
  completed_frac  completed ops / attempted ops (failed_frac = 1 - this)
An op fails when it raises, exits nonzero, or its output fails a check, and
any failed op makes the run incorrect (`correct` false).  A `laufer` op on a
triple recorded in reference.json as hitting the step cap of
resolution.fundamental_cycle, which stops there in the same way, reproduces
the recorded outcome (ROADMAP item 1): it is not a failed op, but it is not a
completed op either, so the defect shows in completed_frac and in the
report's count of capped ops.  A new failure cannot hide inside
completed_frac's bound, and `failed` counts only new failures.

--trace 1 alternates untraced repetitions with traced ones, which time the
calls into each module's public functions, and reports the per-layer
metrics.  trace.unattributed_frac is 1 - (span sum / untraced op time);
trace.overhead_frac is traced op time / untraced op time - 1.

Layer metric                          end-to-end metric it should move
  filtration.q_sequence_ms            ladder op_p50/op_p90, scan_box triples_per_s
  genus.geometric_genus_ms            ladder op_p90_ms
  filtration.normal_hilbert_coefficients_ms (a probe outside the span sum)
                                      scan_box triples_per_s
  classify.predicates_ms, genus.q_of_m_ms, resolution.fundamental_genus_ms
                                      scan_box triples_per_s and peak_rss_mb
  verify.<suite>_s                    verify op_p50_ms
  resolution.{seifert_data, build_dual_graph, fundamental_cycle,
  fundamental_genus_oracle, fundamental_genus_formula}_ms
                                      laufer op_p50/op_p90
  resolution.errors                   laufer completed_frac
So a q_sequence change should move ladder and scan_box and leave laufer flat;
a membership-oracle change should move verify only; a Laufer change should
move laufer and leave ladder and scan_box flat (they take the closed-form p_f
path).

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import HILBERT_PROBE, SUITE_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("ladder", "scan_box", "verify", "laufer")
SCAN_SLABS = range(2, 11)
SETUP_PER_REP = 3
# time of worker.calibration_block at the reference speed; every time the
# benchmark reports is scaled to that speed
CALIBRATION_REF_S = 0.014
TIME_LIMIT_S = 170  # every run must end within 180 s
# the names users know these figures by on each workload
ALSO_KNOWN_AS = {
    "ladder": {"op_p50_ms": "invariants_p50_ms", "op_p90_ms": "invariants_p90_ms"},
    "scan_box": {"triples_per_s": "scan_rows_per_s"},
    "verify": {"op_p50_ms": "verify_s x 1000"},
    "laufer": {"op_p50_ms": "laufer_p50_ms", "op_p90_ms": "laufer_p90_ms"},
}


class BenchError(Exception):
    pass


def quantile(values: list[float], p: float) -> float:
    """The p-quantile, p a multiple of 0.01, interpolated between order statistics."""
    if len(values) == 1:  # statistics.quantiles needs two values
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(p * 100) - 1]


# ---------------------------------------------------------------- inputs


def make_ops(workload: str, seed: int, ref: dict) -> list[dict]:
    """The workload's ops, drawn from --seed for ladder and laufer."""
    if workload == "ladder":
        rng = random.Random(f"ladder/{seed}")
        picks = ref["ladder_endpoints"] + [rng.choice(group) for group in ref["ladder_pool"]]
        rng.shuffle(picks)
        return [{"triple": p[:3], "digest": p[3]} for p in picks]
    if workload == "scan_box":
        return [{"a": a, "digest": ref["scan_box"][str(a)]} for a in SCAN_SLABS]
    if workload == "verify":
        return [{}]
    rng = random.Random(f"laufer/{seed}")
    picks = [rng.choice(stratum) for stratum in ref["laufer_pool"]]
    rng.shuffle(picks)
    capped = {tuple(t) for t in ref["laufer_capped"]}
    return [{"triple": p, "capped": tuple(p[:3]) in capped} for p in picks]


# ---------------------------------------------------------------- processes


class Clock:
    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.deadline = self.start + seconds

    def remaining_limit(self) -> float:
        left = TIME_LIMIT_S - (time.perf_counter() - self.start)
        if left <= 1:
            raise BenchError("out of time")
        return left


def run_python(clock: Clock, args: list[str], what: str, stdin: str | None = None) -> str:
    """stdout of a fresh interpreter (no user site, no PYTHON* variables)."""
    try:
        proc = subprocess.run(
            [sys.executable, "-E", "-s", *args],
            input=stdin, capture_output=True, text=True, cwd=ROOT,
            timeout=clock.remaining_limit(),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def run_worker(clock: Clock, workload: str, mode: str, ops: list[dict]) -> dict:
    spec = json.dumps({"workload": workload, "mode": mode, "ops": ops})
    out = run_python(clock, [str(HERE / "worker.py")], f"{workload} {mode} repetition", spec)
    return json.loads(out.splitlines()[-1])


def setup_seconds(clock: Clock) -> float:
    """Time a fresh interpreter takes to import brieskorn.cli, at the reference speed.

    Timed inside that interpreter, as process start and interpreter boot do
    not depend on the program, and scaled by a calibration block run right
    after it, as the machine's speed can change by half within seconds.
    """
    code = (
        f"import sys, time; sys.path.insert(0, {str(SRC)!r}); start = time.perf_counter(); "
        "import brieskorn.cli; print(time.perf_counter() - start); "
        f"sys.path.insert(0, {str(HERE)!r}); import worker; print(worker.calibration_block())"
    )
    out = run_python(clock, ["-c", code], "import of brieskorn.cli")
    import_s, calibration_s = map(float, out.split())
    return import_s * CALIBRATION_REF_S / calibration_s


def repeat(clock: Clock, one_round) -> list:
    """Call one_round until the next call would pass the deadline; at least once."""
    rounds, walls = [], []
    while True:
        start = time.perf_counter()
        rounds.append(one_round())
        walls.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(walls) > clock.deadline:
            return rounds


# ---------------------------------------------------------------- metrics


def op_metrics(reps: list[dict], p: float) -> dict[str, float]:
    """Op metrics from each op's p-quantile time over the repetitions.

    The reported value takes each op's median time (p = 0.5) before the
    quantiles across ops, which keeps a repetition that other processes
    slowed down out of the result.
    """
    ops = len(reps[0]["ops"])
    failed = [any("failure" in rep["ops"][i] for rep in reps) for i in range(ops)]
    seconds = [quantile([rep["ops"][i]["s"] for rep in reps], p) for i in range(ops)]
    sizes = [op["triples"] for op in reps[0]["ops"]]
    done = [(s, n) for s, f, n in zip(seconds, failed, sizes) if not f]
    if not done:
        detail = next(op["detail"] for op in reps[0]["ops"] if "failure" in op)
        raise BenchError(f"no op completed; first failure: {detail}")
    latencies = [s * 1000 for s, _ in done]
    return {
        "op_p50_ms": quantile(latencies, 0.5),
        "op_p90_ms": quantile(latencies, 0.9),
        "triples_per_s": sum(n for _, n in done) / sum(seconds),
    }


def layer_metrics(untraced: dict, traced: dict, names: list[str]) -> dict[str, float]:
    spans, counts = traced["spans"], traced["counts"]
    values = {}
    for name in names:
        if name.endswith("_ms"):
            values[name] = spans.get(name, 0.0) * 1000
        elif name.endswith("_s"):
            values[name] = spans.get(name, 0.0)
        else:
            values[name] = counts.get(name, 0)
    untraced_s = sum(op["s"] for op in untraced["ops"])
    traced_s = sum(op["s"] for op in traced["ops"])
    pipeline = sum(s for name, s in spans.items() if name != HILBERT_PROBE[2])
    values["trace.unattributed_frac"] = 1 - pipeline / untraced_s
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    return values


def rescale(reps: list[dict]) -> float:
    """Scale every time in reps to the reference speed; returns the run's factor.

    An op's time is scaled by the reference time of the calibration work over
    its time around that op (a span total by the same ratio for its
    repetition's median).  This removes most of the drift in speed of a shared
    machine (20-45% over minutes, in CPU time as well as wall time), which no
    median or minimum within one run can remove.  The run's factor is the
    reference time over its median calibration time.
    """
    for rep in reps:
        for op in rep["ops"]:
            op["s"] *= CALIBRATION_REF_S / op["cal_s"]
        rep_factor = CALIBRATION_REF_S / statistics.median(rep["calibration_s"])
        for name in rep.get("spans", {}):
            rep["spans"][name] *= rep_factor
    return CALIBRATION_REF_S / statistics.median(s for rep in reps for s in rep["calibration_s"])


def spread(values: list[float]) -> tuple[float, float, float, int]:
    """(median, q1, q3, n)."""
    return quantile(values, 0.5), quantile(values, 0.25), quantile(values, 0.75), len(values)


def failures(reps: list[dict]) -> tuple[int, int, int, list[str]]:
    """(attempted, failed, capped, first failure details).

    An op that stopped at its recorded step cap ("known_cap") is counted as
    capped, not failed.
    """
    ops = [op for rep in reps for op in rep["ops"]]
    capped = sum(op.get("failure") == "known_cap" for op in ops)
    failed = [op for op in ops if op.get("failure") not in (None, "known_cap")]
    return len(ops), len(failed), capped, sorted({op["detail"] for op in failed})[:5]


# ---------------------------------------------------------------- runs


def run_timed(clock: Clock, workload: str, ops: list[dict]):
    setup_seconds(clock)  # warm-up: compiles bytecode
    setups = []

    def one_round():
        setups.extend(setup_seconds(clock) for _ in range(SETUP_PER_REP))
        return run_worker(clock, workload, "timed", ops)

    reps = repeat(clock, one_round)
    factor = rescale(reps)
    by_quantile = {p: op_metrics(reps, p) for p in (0.5, 0.25, 0.75)}
    stats = {
        name: (by_quantile[0.5][name], *sorted((by_quantile[0.25][name], by_quantile[0.75][name])), len(reps))
        for name in by_quantile[0.5]
    }
    stats["peak_rss_mb"] = spread([rep["rss_mb"] for rep in reps])
    stats["completed_frac"] = spread(
        [sum("failure" not in op for op in rep["ops"]) / len(rep["ops"]) for rep in reps]
    )
    stats["setup_s"] = spread(setups)
    return {"reps": reps, "rounds": len(reps), "stats": stats, "absent": [], "speed": factor}


def run_traced(clock: Clock, workload: str, ops: list[dict], layer_names: list[str]):
    def one_round():
        return run_worker(clock, workload, "timed", ops), run_worker(clock, workload, "traced", ops)

    pairs = repeat(clock, one_round)
    factor = rescale([rep for pair in pairs for rep in pair])
    per_pair = [layer_metrics(untraced, traced, layer_names) for untraced, traced in pairs]
    stats = {name: spread([values[name] for values in per_pair]) for name in per_pair[0]}
    absent = sorted({name for _, traced in pairs for name in traced["absent"]})
    reps = [rep for pair in pairs for rep in pair]
    return {"reps": reps, "rounds": len(pairs), "stats": stats, "absent": absent, "speed": factor}


def report(args, metrics: list[dict], run: dict) -> dict:
    attempted, failed, capped, details = failures(run["reps"])
    stats = run["stats"]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}: "
          f"{run['rounds']} repetitions, one client, closed loop")
    print(f"# times scaled to the reference speed by {run['speed']:.4f} "
          f"(divide by it for the wall times of this run)")
    if args.trace:
        labels = {f"verify.{suite}_s": layer for suite, layer in SUITE_LAYER.items()}
    else:
        labels = ALSO_KNOWN_AS[args.workload]
    for m in metrics:
        median, q1, q3, n = stats[m["name"]]
        label = f"  ({labels[m['name']]})" if m["name"] in labels else ""
        print(f"{m['name']:<46} {median:>14.6g} {m['unit']:<6} q1 {q1:.6g}  q3 {q3:.6g}  n={n}{label}")
    print(f"failed ops: {failed} of {attempted} attempted (failed_frac {failed / attempted:.4f})")
    if capped:
        print(f"capped ops: {capped} of {attempted} attempted stopped at the recorded step cap "
              f"of resolution.fundamental_cycle (ROADMAP item 1; capped_frac {capped / attempted:.4f})")
    for detail in details:
        print(f"  failure: {detail}")
    if run["absent"]:
        print(f"absent (reported as 0): {', '.join(run['absent'])}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": stats[m["name"]][0], "unit": m["unit"]} for m in metrics},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "brieskorn" / "cli.py").is_file():
            raise BenchError(f"no program to measure: {SRC / 'brieskorn'} is missing")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        ref = json.loads((HERE / "reference.json").read_text())
        clock = Clock(args.seconds)
        ops = make_ops(args.workload, args.seed, ref)
        if args.trace:
            metrics = spec["per_layer"]
            names = [m["name"] for m in metrics if not m["name"].startswith("trace.")]
            run = run_traced(clock, args.workload, ops, names)
        else:
            metrics = spec["end_to_end"]
            run = run_timed(clock, args.workload, ops)
        result = report(args, metrics, run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
