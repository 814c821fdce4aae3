import hashlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from brieskorn import cli, filtration, genus, resolution
from brieskorn.cli import build_parser, main
from brieskorn.errors import InternalCheckError


def run_cli(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
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

    def test_json_round_trip_is_byte_identical(self):
        code, text = run_cli(["invariants", "2", "4", "5", "--json"])
        assert code == 0
        data = json.loads(text)
        assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"
        assert data["pg"] == 1
        assert data["hilbert"] == {"e0": 2, "e1": 2, "e2": 1}
        assert data["q_sequence"] == [1, 0, 0, 0]

    def test_invalid_triple_exits_2(self):
        assert main(["invariants", "4", "3", "5"]) == 2


class TestGraph:
    def test_dot_default(self):
        code, text = run_cli(["graph", "2", "3", "5"])
        assert code == 0
        assert text.startswith("graph {")
        assert text.count("n0") >= 2  # declared and linked

    def test_json_has_eight_e8_vertices(self):
        code, text = run_cli(["graph", "2", "3", "5", "--json"])
        assert code == 0
        data = json.loads(text)
        assert len(data["vertices"]) == 8
        assert all(v["weight"] == -2 for v in data["vertices"])


class TestScan:
    def test_csv_header_and_rows(self):
        code, text = run_cli(["scan", "2", "3..4", "5..6"])
        assert code == 0
        lines = text.split("\r\n")
        assert lines[0] == "a,b,c,pg,nr_m,q_m,pf,rational,elliptic,boundary,rees_normal,nr_A_status,nr_A"
        assert len([line for line in lines[1:] if line]) == 4
        assert lines[1].startswith("2,3,5,0,1,0,0,true,")

    def test_filter_rational(self):
        code, text = run_cli(["scan", "2", "2..5", "2..8", "--filter", "rational"])
        assert code == 0
        rows = [line for line in text.split("\r\n")[1:] if line]
        assert all(row.split(",")[7] == "true" for row in rows)

    def test_json_format(self):
        code, text = run_cli(["scan", "3", "4", "7", "--json"])
        assert code == 0
        rows = json.loads(text)
        assert rows == [
            {
                "a": 3, "b": 4, "c": 7, "pg": 3, "nr_m": 2, "q_m": 2, "pf": 2,
                "rational": False, "elliptic": False, "boundary": False,
                "rees_normal": True, "nr_A_status": "lower_bound", "nr_A": 2,
            }
        ]

    def test_malformed_range_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["scan", "2", "x..3", "4"])
        assert exc.value.code == 2


class TestVerify:
    def test_small_bound_passes(self):
        code, text = run_cli(["verify", "4"])
        assert code == 0
        lines = [line for line in text.splitlines() if line]
        assert all(line.startswith("ok") for line in lines)
        assert lines[-1].startswith("ok total:")

    def test_bad_bound_exits_2(self, capsys):
        assert main(["verify", "1"]) == 2
        assert capsys.readouterr().err == "brieskorn: bound must be at least 2, got 1\n"


class TestParserReuse:
    CALLS = [
        ["invariants", "3", "4", "7", "--json"],
        ["scan", "2", "3..4", "5..6"],
        ["scan", "2", "x..3", "4"],
        ["invariants", "3", "4", "7", "--json"],
    ]

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reused_parser_matches_a_fresh_one(self, monkeypatch, capsys):
        builds = []

        def counted_build():
            builds.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted_build)
        monkeypatch.setattr(cli, "_parser", None)
        reused = [self.outcome(capsys, argv) for argv in self.CALLS]
        assert len(builds) == 1
        fresh = []
        for argv in self.CALLS:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(self.outcome(capsys, argv))
        assert [code for code, _, _ in reused] == [0, 0, 2, 0]
        assert reused == fresh
        assert reused[3] == reused[0]
        assert reused[2][2].startswith("usage: brieskorn scan")


class TestReferenceDigests:
    """Output is byte-identical to the digests recorded in perfbench/reference.json,
    and graph output to digests recorded before the dual graph became a star record."""

    REFERENCE = json.loads(
        (Path(__file__).resolve().parent.parent / "perfbench" / "reference.json").read_text()
    )

    @staticmethod
    def mismatches(runs):
        parser = build_parser()
        wrong = []
        for argv, digest in runs:
            args = parser.parse_args(argv)
            out = io.StringIO()
            assert args.func(args, out) == 0, argv
            if hashlib.sha256(out.getvalue().encode()).hexdigest()[:16] != digest:
                wrong.append(argv)
        return wrong

    def test_invariants_json(self):
        ladder = self.REFERENCE["ladder_endpoints"] + [
            triple for group in self.REFERENCE["ladder_pool"] for triple in group
        ]
        assert len(ladder) == 502
        runs = [(["invariants", str(a), str(b), str(c), "--json"], d) for a, b, c, d in ladder]
        assert self.mismatches(runs) == []

    def test_scan_slabs(self):
        slabs = self.REFERENCE["scan_box"]
        assert sorted(map(int, slabs)) == list(range(2, 11))
        runs = [(["scan", a, "2..40", "2..40"], d) for a, d in slabs.items()]
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


def test_main_smoke(capsys):
    assert main(["invariants", "2", "3", "7", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pg"] == 1 and data["elliptic"] is True


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
