import io
import json

import pytest

from brieskorn import cli, filtration, resolution
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

    def test_bad_bound_exits_2(self):
        assert main(["verify", "1"]) == 2


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
