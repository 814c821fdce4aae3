"""Record the input pools and reference outputs that the benchmark uses.

Writes perfbench/reference.json with

* `ladder_pool`: STRATA * CANDIDATES distinct triples with a log-uniform in
  3..500 (CANDIDATES per slice of log(a)), b <= 1.5a and c <= 1.5b, b/a
  spread evenly over [1, 1.5].  They are grouped CANDIDATES at a time in
  order of br * (br + a), br = floor((a-1)b/a), the size of the q-sequence
  work that dominates an `invariants` call, so a draw taking one triple per
  group costs nearly the same from seed to seed.  Every triple carries a
  digest of its `invariants --json` output; the two fixed endpoints are kept
  apart.
* `scan_box`: a digest of the CSV output of each `scan a 2..40 2..40` slab.
* `laufer_pool`: LAUFER_STRATA groups of LAUFER_CANDIDATES distinct sorted
  triples with exponents in 30..120, grouped by the size sum(Z) of their
  fundamental cycle.  That size predicts the cost of an op closely, so a draw
  taking one triple per group costs nearly the same from seed to seed.  The
  size is a property of the triple, computed here by Laufer's sequence with no
  step cap, and every op's cycle is checked against it.
* `laufer_capped`: the pool triples on which `resolution.fundamental_cycle`
  raised InternalCheckError (its step cap) when the file was recorded.  Such a
  failure of one of these triples is the known defect; any other failure
  makes a run incorrect.

The file was recorded once, at the commit that introduced the benchmark.  The
program's JSON and CSV output must stay byte-identical, so it is not meant to
be recorded again.

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from pathlib import Path

from run import SCAN_SLABS
from worker import SCAN_BC_ARG, digest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

A_MIN, A_MAX = 3, 500
STRATA = 100
CANDIDATES = 5
ENDPOINTS = [(3, 4, 7), (500, 700, 900)]
LAUFER_MIN, LAUFER_MAX = 30, 120
LAUFER_STRATA = 300
LAUFER_CANDIDATES = 5


def ladder_pool() -> list[list[tuple[int, int, int]]]:
    """The pool triples, grouped by their q-sequence work."""
    rng = random.Random("perfbench ladder pool")
    seen = set(ENDPOINTS)
    span = math.log(A_MAX / A_MIN)
    pool = []
    for i in range(STRATA):
        for m in range(CANDIDATES):
            for attempt in range(10_000):
                a = int(A_MIN * math.exp(span * (i + rng.random()) / STRATA))
                # small a has few distinct triples; let a drift upward until one is free
                a = min(A_MAX, a + attempt // 200)
                ratio = 1 + 0.5 * (m + rng.random()) / CANDIDATES
                b = max(a, min(int(a * ratio), (3 * a) // 2))
                c = rng.randint(b, (3 * b) // 2)
                if (a, b, c) not in seen:
                    break
            else:
                raise RuntimeError(f"no free triple for stratum {i}")
            seen.add((a, b, c))
            pool.append((a, b, c))

    def work(t):
        br = (t[0] - 1) * t[1] // t[0]
        return br * (br + t[0])

    pool.sort(key=lambda t: (work(t), t))
    return [pool[k:k + CANDIDATES] for k in range(0, len(pool), CANDIDATES)]


def cycle_size(graph) -> int:
    """sum(Z) of the fundamental cycle, by the computation sequence with no step cap."""
    n = len(graph.vertices)
    z = [1] * n
    pairing = [graph.vertices[i][0] + len(graph.neighbors[i]) for i in range(n)]
    worklist = [i for i in range(n) if pairing[i] > 0]
    while worklist:
        i = worklist.pop()
        if pairing[i] <= 0:
            continue
        z[i] += 1
        pairing[i] += graph.vertices[i][0]
        if pairing[i] > 0:
            worklist.append(i)
        for j in graph.neighbors[i]:
            pairing[j] += 1
            if pairing[j] > 0:
                worklist.append(j)
    return sum(z)


def laufer_pool(resolution, new_triple) -> list[list[list[int]]]:
    rng = random.Random("perfbench laufer pool")
    seen: set[tuple[int, int, int]] = set()
    while len(seen) < LAUFER_STRATA * LAUFER_CANDIDATES:
        seen.add(tuple(sorted(rng.randint(LAUFER_MIN, LAUFER_MAX) for _ in range(3))))
    sized = sorted(
        (cycle_size(resolution.dual_graph(new_triple(*t))), t) for t in seen
    )
    return [
        [[*t, size] for size, t in sized[k:k + LAUFER_CANDIDATES]]
        for k in range(0, len(sized), LAUFER_CANDIDATES)
    ]


def laufer_capped(brieskorn, pool) -> list[list[int]]:
    capped = []
    for group in pool:
        for a, b, c, _ in group:
            graph = brieskorn.build_dual_graph(brieskorn.seifert_data(brieskorn.new_triple(a, b, c)))
            try:
                brieskorn.fundamental_cycle(graph)
            except brieskorn.InternalCheckError:
                capped.append([a, b, c])
    return sorted(capped)


def cli_output(cli, argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"{argv} exited with {code}")
    return out.getvalue()


def invariants_digest(cli, triple) -> str:
    return digest(cli_output(cli, ["invariants", *map(str, triple), "--json"]))


def main() -> int:
    import brieskorn
    from brieskorn import cli, new_triple, resolution

    pool = laufer_pool(resolution, new_triple)
    record = {
        "ladder_endpoints": [[*t, invariants_digest(cli, t)] for t in ENDPOINTS],
        "ladder_pool": [
            [[*t, invariants_digest(cli, t)] for t in group] for group in ladder_pool()
        ],
        "scan_box": {
            str(a): digest(cli_output(cli, ["scan", str(a), SCAN_BC_ARG, SCAN_BC_ARG]))
            for a in SCAN_SLABS
        },
        "laufer_pool": pool,
        "laufer_capped": laufer_capped(brieskorn, pool),
    }
    (HERE / "reference.json").write_text(json.dumps(record, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
