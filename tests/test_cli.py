import argparse
import contextlib
import errno
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import brieskorn
from brieskorn import cli, filtration, genus, resolution, verify
from brieskorn.cli import cmd_graph, cmd_invariants, cmd_scan, cmd_verify, main
from brieskorn.errors import InternalCheckError


def run_cli(argv):
    args = cli.parse_args(argv)
    out = io.StringIO()
    code = args.func(args, out)
    return code, out.getvalue()


class TestInvariants:
    def test_text_output(self):
        code, text = run_cli(["invariants", "3", "4", "7"])
        assert code == 0
        assert "triple: (3, 4, 7)" in text
        assert "pg: 3" in text
        assert "pf: 2" in text
        assert "nr_m: 2" in text

    def test_invalid_triple_exits_2(self, capsys):
        assert main(["invariants", "4", "3", "5"]) == 2
        assert capsys.readouterr() == ("", "brieskorn: need a <= b <= c, got (4, 3, 5)\n")

    def test_an_exponent_below_2_exits_2_with_one_line(self, capsys):
        assert main(["invariants", "1", "2", "3"]) == 2
        assert capsys.readouterr() == ("", "brieskorn: need a >= 2, got a=1\n")


class TestGraph:
    def test_dot_default(self):
        # TestReferenceDigests replays --dot and --json byte for byte
        assert run_cli(["graph", "2", "3", "5"]) == run_cli(["graph", "2", "3", "5", "--dot"])


def usable_cores(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def no_fork():
    raise AssertionError("a worker was forked")


def recorded_forks(monkeypatch) -> list[int]:
    """verify._forked mapping the rows in process: the list of the jobs it was asked
    for, so no process is started however many cores are patched in."""
    jobs_asked = []

    def forked(row, pairs, jobs):
        jobs_asked.append(jobs)
        return map(row, pairs)

    monkeypatch.setattr(verify, "_forked", forked)
    return jobs_asked


def checkout_env() -> dict:
    """os.environ, with this checkout's brieskorn on the import path."""
    return dict(os.environ, PYTHONPATH=str(Path(brieskorn.__file__).resolve().parent.parent))


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports this checkout's brieskorn, through pipes."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=checkout_env()
    )


# python -m brieskorn.cli with two usable cores, so verify forks two workers
TWO_CORES = (
    "import os, runpy; os.sched_getaffinity = lambda pid: {0, 1}; "
    "runpy.run_module('brieskorn.cli', run_name='__main__')"
)


@contextlib.contextmanager
def own_session(*argv: str):
    """A fresh interpreter that imports this checkout's brieskorn, through pipes, in a
    session of its own; whatever failed, no process of its group outlives the block."""
    with subprocess.Popen(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=checkout_env(), start_new_session=True,
    ) as proc:
        try:
            yield proc
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)


class TestVerifyWorkers:
    """verify forks one worker per usable core, at most one per pair, and no more."""

    def test_a_bad_bound_is_refused_before_any_pool(self, monkeypatch, capsys):
        usable_cores(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        assert main(["verify", "1"]) == 2
        assert capsys.readouterr().err == "brieskorn: bound must be at least 2, got 1\n"
        # the cap, checked before the pair list is built
        assert main(["verify", "1001"]) == 2
        assert capsys.readouterr().err == "brieskorn: bound must be at most 1000, got 1001\n"
        with pytest.raises(ValueError, match="^jobs must be at least 1, got 0$"):
            verify.run_all(8, jobs=0)

    def test_a_value_error_in_a_worker_exits_2_with_the_same_line(self, monkeypatch, capsys):
        exact = filtration.nr_by_staircase_oracle

        def refused(p):
            if (p.a, p.b) == (3, 5):
                raise ValueError(f"{p}: injected")
            return exact(p)

        monkeypatch.setattr(filtration, "nr_by_staircase_oracle", refused)
        outcomes = []
        for cores in (1, 2):
            usable_cores(monkeypatch, cores)
            outcomes.append((main(["verify", "8"]), capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        code, captured = outcomes[0]
        assert code == 2 and captured.out == ""
        assert captured.err == "brieskorn: BrieskornPair(a=3, b=5): injected\n"

    def test_no_worker_outlives_the_command(self, monkeypatch, capsys):
        usable_cores(monkeypatch, 1)
        in_process = run_cli(["verify", "8"])[1]
        assert all(line.startswith("ok ") for line in in_process.splitlines())
        assert in_process.endswith("ok total: 9 suites\n")
        usable_cores(monkeypatch, 2)
        assert main(["verify", "8"]) == 0
        assert capsys.readouterr().out == in_process
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)

    # usable cores (None: no affinity call), os.cpu_count(), whether os has fork, the
    # bound, and the workers asked for, where 1 walks in process; 28 pairs at bound 8
    @pytest.mark.parametrize("cores, cpu_count, fork, bound, jobs", [
        (1000, 64, True, 3, 3), (3, 64, True, 8, 3), (2, 64, True, 2, 1), (1, 64, True, 8, 1),
        (None, None, True, 8, 1), (None, 1, True, 8, 1), (None, 4, True, 8, 4),
        (None, 64, True, 8, 28), (4, 4, False, 8, 1),
    ], ids="1000-3-3 3-8-3 2-2-1 1-8-1 cpu-None cpu-1 cpu-4 cpu-64 no-fork".split())
    def test_never_more_workers_than_cores_or_pairs(
        self, monkeypatch, capsys, cores, cpu_count, fork, bound, jobs
    ):
        usable_cores(monkeypatch, 1)
        in_process = run_cli(["verify", str(bound)])[1]
        if cores is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            usable_cores(monkeypatch, cores)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setattr(os, "fork", no_fork, raising=False)
        if not fork:
            monkeypatch.delattr(os, "fork")
        jobs_asked = recorded_forks(monkeypatch)
        assert main(["verify", str(bound)]) == 0
        assert capsys.readouterr().out == in_process
        assert jobs_asked == ([jobs] if jobs > 1 else [])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks no worker")
    @pytest.mark.parametrize("jobs", [2, 3, 7])
    def test_forked_rows_and_first_exception_come_in_walk_order(self, jobs):
        # worker w maps pairs[w::jobs] and stops at its first exception; 4 and 5
        # fall in different shares for every jobs here, and 4 is first in walk order
        pairs = list(range(10))
        assert verify._forked(lambda x: (x, [str(x)]), pairs, jobs) == [
            (x, [str(x)]) for x in pairs
        ]

        def row(x):
            if x in (4, 5, 8):
                raise ValueError(x)
            return x

        with pytest.raises(ValueError, match="^4$"):
            verify._forked(row, pairs, jobs)
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks no worker")
    def test_a_dead_worker_ends_the_walk_while_another_still_runs(self):
        # verify 8 on two forked workers: worker 1 exits 7 at (3, 5), pair 9, and worker
        # 0 waits forever at (3, 6), pair 10; the walk ends at row 9 in exit 1 and one
        # line, without waiting for worker 0's share, and leaves no process
        injection = (
            "import os, signal; from brieskorn import filtration as f; parent = os.getpid(); "
            "exact = f.nr_by_staircase_oracle; f.nr_by_staircase_oracle = lambda p: exact(p) "
            "if os.getpid() == parent else os._exit(7) if p == (3, 5) "
            "else signal.pause() if p == (3, 6) else exact(p); "
        )
        with own_session("-c", injection + TWO_CORES, "verify", "8") as proc:
            out, err = proc.communicate(timeout=20)
            with pytest.raises(ProcessLookupError):  # nothing is left in the group
                os.killpg(proc.pid, 0)
        assert (proc.returncode, out) == (1, "")
        assert err == (
            f"brieskorn: internal check failed: verify worker 1 of 2 died: wait status {7 << 8}\n"
        )

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks no worker")
    def test_a_worker_that_sends_every_row_and_exits_nonzero_is_reported(self, monkeypatch):
        # each worker's os._exit(0), after its last row, exits 3 instead
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(3))
        with pytest.raises(
            InternalCheckError, match=f"^verify worker 0 of 2 died: wait status {3 << 8}$"
        ):
            verify._forked(lambda x: (x, []), list(range(10)), 2)
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks no worker")
    @pytest.mark.parametrize("cores, jobs, placed", [
        (4, 2, [[0, 2], [1, 3]]), (2, 3, [[0], [1], [0]]),
    ], ids=["4-cores-2-jobs", "2-cores-3-jobs"])
    def test_each_worker_runs_on_its_share_of_the_cores(self, monkeypatch, cores, jobs, placed):
        # the forked workers inherit the recorder; worker w's one row is what it recorded
        usable_cores(monkeypatch, cores)
        recorded = []
        monkeypatch.setattr(
            os, "sched_setaffinity", lambda pid, mask: recorded.append([pid, sorted(mask)]),
            raising=False,
        )
        rows = verify._forked(lambda w: recorded, list(range(jobs)), jobs)
        assert rows == [[[0, mask]] for mask in placed]
        assert recorded == []  # the parent stays where it was
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks no worker")
    @pytest.mark.parametrize("refused", [True, False], ids=["refused", "no-affinity-call"])
    def test_a_worker_that_cannot_be_placed_walks_its_share_unplaced(self, monkeypatch, refused):
        # a refused placement (a core gone, a sandbox) and an os without the call alike
        # leave the worker where the scheduler put it: same rows, and no worker dies
        row = partial(verify._row, 8, list(verify._SUITES))
        pairs = [(a, b) for a in range(2, 9) for b in range(a, 9)]
        in_process = list(map(row, pairs))
        usable_cores(monkeypatch, 2)
        if refused:
            def refuse(pid, mask):
                raise OSError(errno.EINVAL, "injected")

            monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        else:
            monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        assert verify._forked(row, pairs, 2) == in_process
        with pytest.raises(ChildProcessError):  # every worker is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_importing_the_cli_imports_no_multiprocessing(self):
        # nor dataclasses, which with the inspect it imports costs more than
        # the rest of the package; records are named tuples; nor json, as cli
        # writes its own; nor argparse and the gettext it imports, as cli reads
        # its own argv, on import and after a command or a help screen alike
        probe = (
            "import sys, brieskorn.cli as cli; loaded = lambda: [m for m in sys.modules if"
            " 'multipro' in m or m in ('dataclasses', 'inspect', 'json', 'json.encoder',"
            " '_json', 'argparse', 'gettext')]; seen = [loaded()]; "
            "cli.main(['invariants', '3', '4', '7']); seen.append(loaded()); "
            "cli.main(['scan', '--help']); seen.append(loaded()); print(seen, file=sys.stderr)"
        )
        run = run_python("-c", probe)
        assert (run.returncode, run.stderr) == (0, "[[], [], []]\n")
        assert run.stdout.startswith("triple: (3, 4, 7)\n")

    def test_a_piped_report_prints_once_and_warns_nothing(self):
        # verify 8 on two forked workers under -W error: no buffer a fork copied
        # is flushed twice, and no DeprecationWarning about forking is raised; nor
        # is multiprocessing imported, nor pickle, which only a worker's exception
        # needs: printed at the parent's exit, which no worker reaches
        at_exit = (
            "import atexit, sys; atexit.register(lambda: print([m for m in sys.modules"
            " if 'multipro' in m or 'pickle' in m], file=sys.stderr)); "
        )
        run = run_python("-W", "error", "-c", at_exit + TWO_CORES, "verify", "8")
        assert (run.returncode, run.stderr) == (0, "[]\n")
        assert run.stdout == run_cli(["verify", "8"])[1]


needs_proc_children = pytest.mark.skipif(
    not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists()
    or not hasattr(os, "fork"),
    reason="reads a process's children from /proc, and verify forks its workers",
)


def forked_workers(proc: subprocess.Popen) -> list[str]:
    """The pids of proc's two verify workers, once both exist."""
    deadline = time.monotonic() + 60
    while True:
        workers = [
            pid
            for tasks in Path(f"/proc/{proc.pid}/task").glob("*/children")
            for pid in tasks.read_text().split()
        ]
        if len(workers) >= 2:
            return workers
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.01)


def exited(pid: str) -> bool:
    """Whether the process is gone, or a zombie that no one has reaped yet."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestInterrupt:
    """Ctrl-C ends any command in one line on stderr and exit 130, never a traceback."""

    def test_an_interrupted_command_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(bound, jobs):
            raise KeyboardInterrupt

        monkeypatch.setattr(verify, "run_all", interrupted)
        try:
            code = main(["verify", "8"])
        except KeyboardInterrupt:  # raised here, it would end the whole test session
            pytest.fail("main let KeyboardInterrupt through")
        assert code == 130
        assert capsys.readouterr() == ("", "brieskorn: interrupted\n")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="verify forks no worker")
    def test_the_walk_leaves_sigint_unblocked(self, monkeypatch):
        # SIGINT is blocked only while the workers fork, and unblocked also when a
        # fork fails; the worker forked before the failure is killed and reaped
        def blocked():
            return signal.SIGINT in signal.pthread_sigmask(signal.SIG_BLOCK, [])

        assert all(result.passed for result in verify.run_all(8, jobs=2))
        assert not blocked()
        fork, seen = os.fork, []

        def second_fork_fails():
            seen.append(blocked())
            if len(seen) == 2:
                raise OSError(errno.EAGAIN, "injected")
            return fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        with pytest.raises(OSError, match="injected"):
            verify.run_all(8, jobs=2)
        assert seen == [True, True] and not blocked()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @needs_proc_children
    def test_ctrl_c_on_forked_workers_reports_once_and_leaves_no_process(self):
        # once both workers of verify 60 exist, SIGINT goes to the whole process
        # group, as a terminal's Ctrl-C does
        with own_session("-c", TWO_CORES, "verify", "60") as proc:
            forked_workers(proc)
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
            with pytest.raises(ProcessLookupError):  # nothing is left in the group
                os.killpg(proc.pid, 0)
        assert (proc.returncode, out, err) == (130, "", "brieskorn: interrupted\n")

    @needs_proc_children
    def test_the_workers_of_a_killed_parent_exit(self):
        # verify 70 on two forked workers, whose parent is killed once both exist:
        # each leaves at its next pair, seconds before its share would end
        with own_session("-c", TWO_CORES, "verify", "70") as proc:
            workers = forked_workers(proc)
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            deadline = time.monotonic() + 5
            while not all(map(exited, workers)):
                assert time.monotonic() < deadline
                time.sleep(0.01)


def _parse_range(spec: str) -> range:
    """cli._parse_range, refusing as ArgumentTypeError, whose message argparse writes as
    it is, as the parser's own type did."""
    try:
        return cli._parse_range(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser(extend=lambda sub: None) -> argparse.ArgumentParser:
    """The argparse parser that cli.parse_args replaced: its reference.  extend(sub) may
    add to it, given its subparsers action, whose choices hold each command's parser."""
    parser = argparse.ArgumentParser(
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

    extend(sub)
    return parser


REFERENCE = build_parser()


def reference_outcome(argv, parser=REFERENCE):
    """What argparse makes of argv at 80 columns: the parsed values, or its exit code and
    what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out):
        with contextlib.redirect_stderr(err):
            try:
                return vars(parser.parse_args(argv))
            except SystemExit as exc:
                return exc.code, out.getvalue(), err.getvalue()


def outcome(argv):
    """The same for cli: the parsed values, or, when there is no command to run, main's
    exit code and what it wrote to stdout and stderr."""
    try:
        args = cli.parse_args(argv)
        if type(args) is not str:
            return vars(args)
    except cli.UsageError:
        pass
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv), out.getvalue(), err.getvalue()


# argv tokens: ints and ranges, the first three valid and drawn more often; every
# option, with its unique and its ambiguous prefixes in each command; option values
INT_TOKENS = ["2", "3", "7", "12", "0", "+7", "7_0", "٧", "-3", "x", "3.5", ""]  # ٧ is 7
RANGE_TOKENS = ["2", "3..4", "2..12", "x..3", "-3..5", "5..3", "..3", "3..x"]
OPTION_TOKENS = [
    "--format", "--form", "--fo", "--f", "--filter", "--fi", "--json", "--js", "--j",
    "--dot", "--d", "--help", "--he", "--h", "-h", "--format=json", "--json=1", "--x",
]
CHOICE_TOKENS = ["json", "text", "csv", "dot", "all", "elliptic", "rees_normal", "xml"]


@st.composite
def argvs(draw):
    """An option or "--" before the command, now and then; a command, an unknown one or
    none; its positionals, one short or one too many; options with or without a value,
    and values alone; and at most one "--", all after the command in any order.  A
    second "--" is left out: argparse keeps a "--" that is a value as [], where cli
    reads it as "--"."""
    before = draw(st.sampled_from([[]] * 5 + [[token] for token in [*OPTION_TOKENS, "--"]]))
    command = draw(st.sampled_from([*cli.COMMANDS] * 2 + ["frobnicate", None]))
    wanted = 1 if command == "verify" else 3
    count = draw(st.sampled_from([wanted - 1, wanted, wanted, wanted + 1]))
    tokens = RANGE_TOKENS if command == "scan" else INT_TOKENS
    valid = st.sampled_from(tokens[:3])
    positionals = draw(st.lists((valid | valid | st.sampled_from(tokens)).map(lambda t: [t]),
                                min_size=count, max_size=count))
    options = draw(st.lists(
        st.lists(st.sampled_from(OPTION_TOKENS), min_size=1, max_size=1)
        | st.tuples(st.sampled_from(OPTION_TOKENS), st.sampled_from(CHOICE_TOKENS)).map(list)
        | st.lists(st.sampled_from(CHOICE_TOKENS), min_size=1, max_size=1),
        max_size=2,
    ))
    dashes = draw(st.sampled_from([[], [["--"]]]))
    body = draw(st.permutations(positionals + options + dashes))
    return [*before, *([command] if command else []), *(token for unit in body for token in unit)]


class TestParser:
    """cli reads argv as the argparse parser it replaced read it, with its help screens
    and the wording of its usage errors."""

    # argparse in 3.12's and 3.13's later releases reads some argv differently, such as
    # -h after an ambiguous prefix, which 3.11 refuses; the golden tests below hold there
    @pytest.mark.skipif(sys.version_info >= (3, 12), reason="the reference is 3.11's argparse")
    @settings(max_examples=500, deadline=None)
    @given(argvs())
    @example(["scan", "2", "2", "2", "--f", "elliptic"])  # an ambiguous prefix
    @example(["--", "invariants", "3", "4", "7"])  # "--" before the command
    def test_reads_argv_as_argparse_does(self, argv):
        expected = reference_outcome(argv)
        assert outcome(argv) == expected
        if type(expected) is not dict:  # help, or a refusal with nothing on stdout
            code, out, _ = expected
            assert code == 0 and out.startswith("usage: ") or (code, out) == (2, "")

    # sha256 of each screen, as argparse wrote it on Python 3.11 at 80 columns
    HELP = {
        "": "a56a72b58239b115",
        "invariants": "29247dc65713f36d",
        "graph": "33c134df57f1d8c6",
        "scan": "5a75ad0c78c570d8",
        "verify": "06b4d999e0d3bfba",
    }

    @pytest.mark.parametrize("command", [*HELP])
    def test_help_screens(self, capsys, command):
        assert main([*command.split(), "--help"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and hashlib.sha256(out.encode()).hexdigest()[:16] == self.HELP[command]

    # an entry the table gains, and the reference parser with it: a flag that makes
    # invariants' usage 80 columns wide, so that a b c start a line; a choice option that
    # wraps verify's usage and widens its help column; one that makes scan's third usage
    # line 80 columns wide, so that it starts a fourth; and a command whose name puts its
    # summary on the next line and makes the top usage 79 columns wide
    @pytest.mark.skipif(sys.version_info >= (3, 12), reason="the reference is 3.11's argparse")
    @pytest.mark.parametrize("command, option, value", [
        ("invariants", "--exact", "json"),
        ("verify", "--suite", ("all", "oracles", "formulas", "classification")),
        ("scan", "--precision", ("exact", "float")),
        ("tabulate-rees-algebras", None, None),
    ])
    def test_the_table_is_the_whole_definition(self, monkeypatch, command, option, value):
        if option is None:
            summary = "tabulate the Rees algebras of m"
            monkeypatch.setitem(cli.COMMANDS, command, (cmd_verify, summary, {"max": int}, {}))

            def extend(sub):
                sub.add_parser(command, help=summary).add_argument("max", type=int)
        else:
            func, summary, positionals, options = cli.COMMANDS[command]
            monkeypatch.setitem(cli.COMMANDS, command,
                                (func, summary, positionals, {**options, option: value}))

            def extend(sub):
                parser = sub.choices[command]
                if type(value) is tuple:
                    parser.add_argument(option, choices=value, default=value[0])
                else:
                    parser.add_argument(option, dest="format", action="store_const", const=value)
        reference = build_parser(extend)
        for argv in [["--help"], [command, "--help"], [command]]:
            assert outcome(argv) == reference_outcome(argv, reference)

    USAGE = {
        "": "usage: brieskorn [-h] {invariants,graph,scan,verify} ...\n",
        "invariants": "usage: brieskorn invariants [-h] [--format {text,json}] [--json] a b c\n",
        "graph": "usage: brieskorn graph [-h] [--format {dot,json}] [--dot] [--json] a b c\n",
        "scan": "usage: brieskorn scan [-h]\n"
                + " " * 22 + "[--filter {all,rational,elliptic,boundary,rees_normal}]\n"
                + " " * 22 + "[--format {csv,json}] [--json]\n"
                + " " * 22 + "a_range b_range c_range\n",
        "verify": "usage: brieskorn verify [-h] max\n",
    }

    # argv, the parser that refuses it ("" is the top level) and its one line
    @pytest.mark.parametrize("argv, command, message", [
        ("invariants 3 x 7", "invariants", "argument b: invalid int value: 'x'"),
        ("scan 2 x..3 4", "scan", "argument b_range: malformed range 'x..3'; expected N or N..M"),
        ("invariants 3 4", "invariants", "the following arguments are required: c"),
        ("verify", "verify", "the following arguments are required: max"),
        ("graph 2 3 5 --format svg", "graph",
         "argument --format: invalid choice: 'svg' (choose from 'dot', 'json')"),
        ("frobnicate 3", "", "argument command: invalid choice: 'frobnicate' "
                             "(choose from 'invariants', 'graph', 'scan', 'verify')"),
        ("", "", "the following arguments are required: command"),
        ("--json verify 8 9 --x", "", "unrecognized arguments: --json 9 --x"),
        ("invariants 3 4 7 --json=1", "invariants",
         "argument --json: ignored explicit argument '1'"),
        ("scan 2 2 2 --f json", "scan", "ambiguous option: --f could match --filter, --format"),
        ("scan 2 2 2 --format", "scan", "argument --format: expected one argument"),
    ])
    def test_a_usage_error_writes_the_usage_and_one_line(self, capsys, argv, command, message):
        assert main(argv.split()) == 2
        prog = f"brieskorn {command}".strip()
        assert capsys.readouterr() == ("", f"{self.USAGE[command]}{prog}: error: {message}\n")

    def test_an_int_may_have_a_sign_and_any_scripts_digits(self, capsys):
        assert main(["invariants", "+3", "4", "٧", "--json"]) == 0  # U+0667 is 7
        spelled = capsys.readouterr()
        assert main(["invariants", "3", "4", "7", "--json"]) == 0
        assert capsys.readouterr() == spelled


class TestReferenceDigests:
    """Output is byte-identical to the digests recorded in perfbench/reference.json,
    and graph output to digests recorded before the dual graph became a star record."""

    @pytest.fixture
    def reference(self):  # read per test: a checkout without perfbench/ fails only its readers
        path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
        return json.loads(path.read_text())

    @staticmethod
    def mismatches(runs):
        wrong = []
        for argv, digest in runs:
            args = cli.parse_args(argv)
            out = io.StringIO()
            assert args.func(args, out) == 0, argv
            if hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] != digest:
                wrong.append(argv)
        return wrong

    def test_invariants_json(self, reference):
        ladder = reference["ladder_endpoints"] + [
            triple for group in reference["ladder_pool"] for triple in group
        ]
        assert len(ladder) == 502
        runs = [(["invariants", str(a), str(b), str(c), "--json"], d) for a, b, c, d in ladder]
        assert self.mismatches(runs) == []

    def test_scan_slabs(self, reference):
        slabs = reference["scan_box"]
        assert sorted(map(int, slabs)) == list(range(2, 11))
        runs = [(["scan", a, "2..40", "2..40"], d) for a, d in slabs.items()]
        assert self.mismatches(runs) == []

    # recorded before scan rows were read straight from the record
    BOX = ["scan", "2..8", "2..24", "2..24"]
    SCANS = {
        ("--json",): "e2dcfc2b328a28bb",
        ("--filter", "rational"): "5ff9850bb752a02a",
        ("--filter", "elliptic"): "e2e481bb0135ab47",
        ("--filter", "boundary"): "6a345164ddf44424",
        ("--filter", "rees_normal"): "9694345b64d72c07",
        ("--json", "--filter", "elliptic"): "7f739950db6cd561",
    }

    def test_scan_json_and_filters(self):
        runs = [(self.BOX + list(options), digest) for options, digest in self.SCANS.items()]
        assert self.mismatches(runs) == []

    # (2, 2, 3) has empty branches, (2, 4, 8) a genus-1 center, (6, 10, 15) is
    # outside the p_f formula, b = c in the last three; V = 14,161 at (119, 120, 120)
    GRAPHS = {
        (2, 3, 5): ("a5297193798dce8f", "4a7c478c3031b040"),
        (3, 4, 7): ("13600f0640d82e06", "41c0b37da2a566f5"),
        (2, 2, 3): ("2e39d38f2388f304", "6fd82e1182f987ff"),
        (2, 4, 8): ("6a2d0b64db742424", "523c9a659b123af1"),
        (6, 10, 15): ("0ce96ddf5a58153c", "699be33813309216"),
        (12, 12, 12): ("73b75b8ff208ac59", "b931c1be1120a72b"),
        (30, 30, 30): ("5f661b2d8bbd3d11", "12a1365cfd1ca234"),
        (119, 120, 120): ("98555e7e3ece9392", "1e03172448448533"),
    }

    def test_graph_dot_and_json(self):
        runs = [
            (["graph", *map(str, triple), option], digest)
            for triple, digests in self.GRAPHS.items()
            for option, digest in zip(["--dot", "--json"], digests)
        ]
        assert self.mismatches(runs) == []


class TestInternalCheckError:
    @pytest.mark.parametrize(
        "argv", [["invariants", "3", "4", "7", "--json"], ["scan", "2", "3..4", "5..6"]]
    )
    def test_uncaught_error_exits_1_with_one_line(self, monkeypatch, capsys, argv):
        def broken(t, pg):
            raise InternalCheckError(f"{t}: injected")

        monkeypatch.setattr(filtration, "q_sequence", broken)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("brieskorn: internal check failed: ")
        assert "injected" in captured.err

    def test_verify_records_it_as_a_failed_triple(self, monkeypatch, capsys):
        def broken(graph):
            raise InternalCheckError("injected")

        monkeypatch.setattr(resolution, "fundamental_cycle", broken)
        assert main(["verify", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        fail = [line for line in lines if line.startswith("FAIL fundamental-genus:")]
        assert len(fail) == 1
        assert "first: BrieskornTriple(" in fail[0] and fail[0].endswith(": injected")
        assert lines[-1].startswith("FAIL total:")


class TestOneRecordPerTriple:
    def test_each_invariant_is_computed_once(self, monkeypatch):
        calls = Counter()
        for module, name in [
            (genus, "geometric_genus"),
            (filtration, "q_sequence"),
            (resolution, "fundamental_genus"),
        ]:
            def counted(*args, fn=getattr(module, name), name=name):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)
        # (6, 10, 15) is outside the p_f formula, so p_f takes the adjunction path
        for triple in (["3", "4", "7"], ["6", "10", "15"]):
            calls.clear()
            assert main(["invariants", *triple, "--json"]) == 0
            assert calls == {"geometric_genus": 1, "q_sequence": 1, "fundamental_genus": 1}

    def test_scan_builds_a_star_only_on_the_adjunction_path(self, monkeypatch, capsys):
        records, stars = [], []
        exact_seifert, exact_build = resolution.seifert_data, resolution.build_dual_graph
        monkeypatch.setattr(
            resolution, "seifert_data", lambda t: records.append(t) or exact_seifert(t)
        )
        monkeypatch.setattr(
            resolution, "build_dual_graph", lambda sd: stars.append(sd) or exact_build(sd)
        )
        assert main(["scan", "2..10", "2..40", "2..40"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5701
        # the 11 triples of the box outside the p_f formula, such as (6, 10, 15)
        assert len(records) == len(stars) == 11
        assert len({(t.a, t.b, t.c) for t in records}) == 11

    @pytest.mark.parametrize(
        "argv", [["invariants", "3", "4", "7"], ["scan", "3", "4", "6..8", "--json"]]
    )
    def test_elliptic_disagreement_exits_1(self, monkeypatch, capsys, argv):
        # p_f(3, 4, 7) = 2; a p_f of 1 contradicts the elliptic list, which excludes it
        exact = resolution.fundamental_genus

        def wrong_at_347(t):
            return 1 if (t.a, t.b, t.c) == (3, 4, 7) else exact(t)

        monkeypatch.setattr(resolution, "fundamental_genus", wrong_at_347)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "brieskorn: internal check failed: BrieskornTriple(a=3, b=4, c=7): "
            "p_f path says True, elliptic list says False\n"
        )


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


INTS = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
# printable ASCII but '"' and '\\': the strs the JSON outputs hold, keys and values
SAFE = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'))
VALUES = st.recursive(
    st.none() | st.booleans() | INTS | SAFE | st.lists(INTS),
    lambda children: st.lists(children) | st.dictionaries(SAFE, children),
    max_leaves=25,
)


class TestJsonWriter:
    """cli writes JSON itself, byte for byte as json.dumps(sort_keys=True, indent=2),
    and refuses any value the JSON outputs never hold."""

    @given(VALUES)
    def test_writes_what_json_dumps_writes(self, value):
        assert cli._dump_json(value) == oracle(value)

    @pytest.fixture
    def written(self, monkeypatch, capsys):
        """main(argv) -> what it printed, and the one value it wrote that from."""
        values, writer = [], cli._dump_json
        monkeypatch.setattr(cli, "_dump_json", lambda value: values.append(value) or writer(value))

        def run(argv):
            values.clear()
            assert main(argv) == 0
            [value] = values
            return capsys.readouterr().out, value

        return run

    def test_every_record_is_written_as_json_dumps_writes_it(self, written):
        triples = [(a, b, c) for c in range(2, 13) for b in range(2, c + 1) for a in range(2, b + 1)]
        for triple in [*triples, (500, 700, 900)]:
            text, value = written(["invariants", *map(str, triple), "--json"])
            assert text == oracle(value), triple
        assert (3, 4, 7) in triples and len(triples) == 286

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "2", "3", "5", "--json"],
            ["graph", "6", "10", "10", "--json"],  # a b = c star
            ["scan", "2..4", "2..8", "2..8", "--json"],
            ["scan", "2..4", "2..8", "2..8", "--json", "--filter", "elliptic"],
        ],
    )
    def test_graphs_and_scans_are_written_as_json_dumps_writes_them(self, written, argv):
        text, value = written(argv)
        assert value and text == oracle(value)

    def test_an_empty_scan_is_an_empty_list(self, capsys):
        assert main(["scan", "3", "4", "7", "--json", "--filter", "elliptic"]) == 0
        assert capsys.readouterr() == ("[]\n", "")

    REFUSED = [1.5, (1, 2), {3: 1}, {"a": 1, 3: 2}, {'a"b': 1}, 'say "hi"', "\u00e9", "a\\b", "\t"]

    @pytest.mark.parametrize("value", REFUSED)
    def test_refuses_what_the_outputs_never_hold(self, value):
        with pytest.raises(InternalCheckError, match="^JSON output cannot hold "):
            cli._dump_json({"nested": [value]})

    @pytest.mark.parametrize("value", REFUSED)
    def test_a_refused_value_exits_1_with_one_line(self, monkeypatch, capsys, value):
        monkeypatch.setattr(cli, "_invariants_dict", lambda t: {"pg": value})
        assert main(["invariants", "3", "4", "7", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("brieskorn: internal check failed: JSON output cannot hold ")


def run_to(stdout, unbuffered: bool, *argv: str, preexec_fn=None) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, writing to stdout, with or without a buffer."""
    env = checkout_env()
    env.pop("PYTHONUNBUFFERED", None)
    flags = ["-u"] if unbuffered else []
    return subprocess.run(
        [sys.executable, *flags, "-m", "brieskorn.cli", *argv], preexec_fn=preexec_fn,
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
class TestClosedOutput:
    """A closed or full stdout ends in one line on stderr and exit 1, never a traceback:
    unbuffered, the first write fails; buffered, main's flush does."""

    EPIPE = (1, f"brieskorn: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}\n")

    @staticmethod
    def into_a_closed_pipe(unbuffered: bool, *argv: str) -> tuple[int, str]:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = run_to(write_end, unbuffered, *argv)
        finally:
            os.close(write_end)
        return run.returncode, run.stderr

    def test_a_pipe_closed_early(self, unbuffered):
        assert self.into_a_closed_pipe(unbuffered, "verify", "12") == self.EPIPE

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full here")
    def test_a_full_device(self, unbuffered):
        with open("/dev/full", "w") as full:
            run = run_to(full, unbuffered, "invariants", "3", "4", "7")
        assert (run.returncode, run.stderr) == (
            1, f"brieskorn: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        )

    def test_file_descriptor_1_closed_at_start(self, unbuffered):
        # the interpreter then sets sys.stdout to None
        for argv in (["invariants", "3", "4", "7"], ["scan", "--help"]):
            run = run_to(None, unbuffered, *argv, preexec_fn=lambda: os.close(1))
            assert (run.returncode, run.stderr) == (1, "brieskorn: stdout is closed\n")

    def test_help_into_a_closed_pipe_exits_1_with_one_line(self, unbuffered):
        # buffered, main writes the help into stdout's buffer and its flush fails;
        # unbuffered, the write itself fails
        assert self.into_a_closed_pipe(unbuffered, "scan", "--help") == self.EPIPE
        run = run_to(subprocess.PIPE, unbuffered, "scan", "--help")
        assert (run.returncode, run.stderr) == (0, "")
        assert run.stdout.startswith("usage: brieskorn scan ")
        run = run_to(subprocess.PIPE, unbuffered, "scan", "2", "x..3", "4")
        assert run.returncode == 2 and run.stdout == ""
