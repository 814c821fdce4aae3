"""The mutation gate: tier-1 must fail on every mutant below.  Run it as
`python tests/mutants.py`, with no options; pytest does not collect it.

Tier-1 must pass on an unmutated copy of src/, tests/ and perfbench/.  Then each
mutant, (id, file, old text, new text, why), is applied to a fresh copy, and tier-1
runs there with -x, at most one run per usable core.  pytest's exit 1 means caught,
0 survived and any other an error; a run past TIMEOUT is timed out.  Each mutant's
line names its catcher, its run's first FAILED or ERROR line.  A mutant whose old
text does not occur exactly once is refused.  The gate exits 1 on a survivor, an
error or a refusal (DeMillo, Lipton and Sayward, "Hints on test data selection").
"""

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = ["-m", "pytest", "-qx", "--continue-on-collection-errors", "tests"]
TIMEOUT = 600  # seconds; tier-1 takes about 15 s alone on a 2-core VM
R, G, N, F, Z, C, V, CLI = (
    f"src/brieskorn/{module}.py"
    for module in "ring genus numtheory filtration resolution classify verify cli".split()
)
MUTANTS = [
    ("M1", R, "min(self.b * k, self.c", "max(self.b * k, self.c", "expansion degrees max for min"),
    ("M2", R, "(*chain.from_iterable(runs), 0)", "(self.a, *chain.from_iterable(runs))",
     "v shifted by one: v_n read at n - 1"),
    ("M3", R, "map(comb, self.n_seq, repeat(2))", "(comb(nk + 1, 2) for nk in self.n_seq)",
     "e2 sums C(n_k + 1, 2)"),
    ("M4", R, "max(n - nk, 0) for nk in p.n_seq",
     "max(n - nk, 0) + (nk == p.n_seq[-1]) for nk in p.n_seq", "last staircase threshold + 1"),
    ("M5", R, "BrieskornPair._make = ", "", "BrieskornPair._make not rebound"),
    ("M7", G, "range(1, p.a)) - (p.a - 1)", "range(1, p.a)) - (p.a - 2)", "q(m) tail - (a - 2)"),
    ("M9", N, "return (-inverse) % alpha", "return inverse % alpha", "the inverse not negated"),
    ("M10", Z, "lcms = (lcm(t.b, t.c),", "lcms = (t.b,", "alpha_1 = a/gcd(a, b)"),
    ("M11", Z, "    x = 1\n    while True:", "    x = 2\n    while True:", "x-search starts at 2"),
    ("M12", Z, "Cycle(-(mu_ell // e),", "Cycle(-(mu_ell // e) + 1,", "L's center + 1"),
    ("M13", Z, "bound = sum(top) - sum(z)", "bound = sum(top) - sum(z) - 1", "Laufer's bound - 1"),
    ("M14", Z, "sum(m * r[1] * (ell // r[0])", "sum(r[1] * (ell // r[0])", "e without copies"),
    ("M15", C, "(2, 5) and c <= 9", "(2, 5) and c <= 10", "elliptic (2, 5) edge at c <= 10"),
    ("M16", C, "(3, 4) and c <= 5", "(3, 4) and c <= 6", "elliptic (3, 4) edge at c <= 6"),
    ("M17", C, "b == 4 and c <= 7", "b == 4 and c <= 8", "boundary (2, 4) edge at c <= 8"),
    ("M18", V, "os.kill(pid, signal.SIGKILL)", "pass", "no SIGKILL in _forked's finally"),
    ("M19", C, "pg < comb(nr + 1, 2)", "pg <= comb(nr + 1, 2)", "nr(A) exact at C(nr + 1, 2)"),
    ("M20", V, "if jobs < 1:", "if False:", "the jobs < 1 check dropped"),
    ("M21", V, "out)\n                    out.flush()", "out)", "the per-row flush dropped"),
    ("M21b", V, "for pipe in pipes:  #", "for pipe in []:  #", "a worker keeps the read ends"),
    ("M22", V, "SIG_BLOCK, [signal.SIGINT]", "SIG_BLOCK, []", "SIGINT not blocked across forks"),
    ("M23", CLI, "f'\"{k}\": {", "f'\"{k}\":{", "the JSON key separator \":\""),
    ("M24", CLI, "os.cpu_count() or 1", "os.cpu_count() or 2", "the cpu-count fallback 2"),
    ("M25", CLI, "stdout)\n        sys.stdout.flush()", "stdout)", "main's flush dropped"),
    ("M26", V, "if not status and i >=", "if i >=", "a nonzero status after a full share"),
    ("M27", CLI, "except KeyboardInterrupt:", "except ZeroDivisionError:", "no Ctrl-C handler"),
    ("M28", F, "if pg < sums[-1]:", "if False:", "the q >= 0 guard dropped"),
    ("M29", CLI, "            sys.stdout.write(args)\n",
     "            try:\n                sys.stdout.write(args)\n            except OSError:\n"
     "                pass\n", "a failed write of the help is swallowed"),
    ("M30", "perfbench/reference.json", '7,"9440bfe78e7a9f8d"', '7,"9440bfe78e7a9f8e"',
     "a wrong digest: the digest tests read the reference file"),
    ("M31", CLI, "if sys.stdout is None:", "if False:", "no check for a closed fd 1 at start"),
    ("M32", R, "if got != expected:", "if False:", "the S(1) and S(nr + 1) guard dropped"),
    ("M34", V, "if bound > 1000:", "if False:", "verify's bound cap dropped"),
    ("M35", CLI, "if len(matches) > 1:", "if False:", "an ambiguous prefix takes its first match"),
    ("M36", G, "(c - 1) + 1 + 3", "(c - 1) + 3", "Laufer's p_g without the + 1"),
    ("M37", N, "+ h + u % k", "+ h + -u % k", "12k s(h, k) with -h' for h'"),
    ("M38", G, "dedekind += m * (P // alpha)", "dedekind += (P // alpha)",
     "the Dedekind sums without their copies m"),
    ("M39", G, "if remainder:", "if False:", "the 12 abc divisibility guard dropped"),
    ("M40", N, "if not 0 < h < k:", "if False:", "12k s(h, k) takes h outside 0 < h < k"),
    ("M41", N, "if num != 1:", "if False:", "12k s(h, k) takes h and k with a common factor"),
]


def tier1(mutant=None) -> tuple[str, float, str]:
    """Tier-1 with -x on a fresh copy, with mutant applied if given: its outcome, seconds,
    and the first FAILED or ERROR line of pytest's summary, the test that caught it.
    The run is a session of its own; nothing of it outlives the call."""
    started = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in ["src", "tests", "perfbench"]:
            shutil.copytree(ROOT / name, Path(tmp, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        if mutant:
            path = Path(tmp, mutant[1])
            path.write_text(path.read_text().replace(mutant[2], mutant[3]))
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")))
        # a file, not a pipe: a long traceback never fills it, and a forked worker
        # that outlives pytest does not hold the read open until the timeout
        with open(Path(tmp, "tier1.log"), "w+") as log, subprocess.Popen(
            [sys.executable, *TIER1], cwd=tmp, env=env, start_new_session=True,
            stdout=log, stderr=subprocess.STDOUT,
        ) as proc:
            try:
                code = proc.wait(TIMEOUT)
            except subprocess.TimeoutExpired:
                code = None
            finally:  # a mutant can leave a forked worker behind
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
            log.seek(0)
            catcher = next((line.split(" - ")[0].strip() for line in log
                            if line.startswith(("FAILED ", "ERROR "))), "")
    outcome = {None: "timed out", 0: "survived", 1: "caught"}.get(code, f"error {code}")
    return outcome, time.monotonic() - started, catcher


def main() -> int:
    counts = {m: (ROOT / m[1]).read_text().count(m[2]) for m in MUTANTS}
    for mutant, count in counts.items():
        if count != 1:
            print(f"{mutant[0]:4} refused: its old text occurs {count} times in {mutant[1]}")
    applied = [mutant for mutant, count in counts.items() if count == 1]
    outcome, seconds, _ = tier1()
    print(f"unmutated: {outcome.replace('survived', 'passed')} in {seconds:.0f} s", flush=True)
    failed = outcome != "survived" or len(applied) < len(MUTANTS)
    if outcome == "survived":
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with ThreadPoolExecutor(max_workers=cores or 1) as pool:
            for mutant, (outcome, seconds, catcher) in zip(applied, pool.map(tier1, applied)):
                failed |= outcome not in ("caught", "timed out")
                print(f"{mutant[0]:4} {outcome:9} {seconds:4.0f}s  {mutant[4]:44} {catcher}",
                      flush=True)
    print(f"gate {'failed' if failed else 'passed'}: {len(applied)} of {len(MUTANTS)} apply")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
