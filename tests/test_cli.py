"""Command-line batch front end: parsing, outputs, exit codes."""
import json
import math

import pytest

from strassen_lab import flow
from strassen_lab.cli import (Instance, instance_to_dict, main, parse_instance,
                              _fmt, _json_cell, _parse_grid, _parse_ns)
from strassen_lab.errors import ValidationError
from strassen_lab.ldp import rate_g_binary
from strassen_lab.clt import lambda_binary


BINARY = {
    "px": {"labels": [0, 1], "mass": [0.3, 0.7]},
    "py": {"labels": [0, 1], "mass": [0.6, 0.4]},
    "cost": [[0.0, 1.0], [1.0, 0.0]],
    "alpha": 0.4,
    "n": 2,
}

TWO_BY_THREE = {
    "px": {"labels": [0, 1], "mass": [0.37, 0.63]},
    "py": {"labels": ["a", "b", "c"], "mass": [0.17, 0.29, 0.54]},
    "cost": [[0.0, 0.6, 1.0], [0.8, 0.2, 0.5]],
    "alpha": 0.37,
    "n": 6,
}


@pytest.fixture
def binary_path(tmp_path):
    p = tmp_path / "binary.json"
    p.write_text(json.dumps(BINARY))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out: str):
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestParseInstance:
    def test_round_trip_through_dict(self):
        inst = parse_instance(BINARY)
        assert isinstance(inst, Instance)
        again = parse_instance(instance_to_dict(inst))
        assert again.px.mass == inst.px.mass
        assert again.py.labels == inst.py.labels
        assert again.cost.as_array().tolist() == \
            inst.cost.as_array().tolist()
        assert again.alpha == inst.alpha and again.n == inst.n

    def test_rejects_unknown_keys(self):
        bad = dict(BINARY, extra=1)
        with pytest.raises(ValidationError, match="unknown instance keys"):
            parse_instance(bad)

    def test_rejects_missing_cost(self):
        bad = {k: v for k, v in BINARY.items() if k != "cost"}
        with pytest.raises(ValidationError, match="missing 'cost'"):
            parse_instance(bad)

    def test_rejects_label_mass_length_mismatch(self):
        bad = dict(BINARY, px={"labels": [0, 1, 2], "mass": [0.3, 0.7]})
        with pytest.raises(ValidationError, match="labels against"):
            parse_instance(bad)

    def test_rejects_cost_shape_mismatch(self):
        bad = dict(BINARY, cost=[[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]])
        with pytest.raises(ValidationError):
            parse_instance(bad)

    def test_rejects_non_integer_n(self):
        with pytest.raises(ValidationError, match="positive integer"):
            parse_instance(dict(BINARY, n=1.5))
        with pytest.raises(ValidationError, match="positive integer"):
            parse_instance(dict(BINARY, n=True))
        with pytest.raises(ValidationError, match="positive integer"):
            parse_instance(dict(BINARY, n=0))

    def test_rejects_non_finite_extras(self):
        with pytest.raises(ValidationError, match="finite"):
            parse_instance(dict(BINARY, alpha=math.inf))
        with pytest.raises(ValidationError, match="finite"):
            parse_instance(dict(BINARY, delta=math.nan))

    def test_rejects_boolean_masses(self):
        bad = dict(BINARY, px={"labels": [0, 1], "mass": [True, 0.0]})
        with pytest.raises(ValidationError, match="finite numbers"):
            parse_instance(bad)


class TestGridParsers:
    def test_grid_endpoints(self):
        assert _parse_grid("-1:1:5") == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_grid_single_step(self):
        assert _parse_grid("0.5:0.5:1") == [0.5]

    def test_grid_rejects_backwards(self):
        with pytest.raises(ValidationError, match="backwards"):
            _parse_grid("1:-1:5")

    def test_grid_rejects_malformed(self):
        with pytest.raises(ValidationError):
            _parse_grid("1:2")
        with pytest.raises(ValidationError):
            _parse_grid("a:b:3")

    def test_ns_single_value(self):
        assert _parse_ns("8") == [8]

    def test_ns_doubling(self):
        assert _parse_ns("4:17:doubling") == [4, 8, 16]

    def test_ns_count(self):
        assert _parse_ns("10:20:3") == [10, 15, 20]

    def test_ns_rejects_bad_rule(self):
        with pytest.raises(ValidationError, match="neither"):
            _parse_ns("4:16:zig")
        with pytest.raises(ValidationError, match="bad range"):
            _parse_ns("16:4:doubling")

    def test_ns_rejects_non_integers(self):
        with pytest.raises(ValidationError, match="bad n value 'a'"):
            _parse_ns("a")
        with pytest.raises(ValidationError, match="non-integer bounds"):
            _parse_ns("5:x:3")

    def test_ns_count_one_is_the_low_end(self):
        assert _parse_ns("5:9:1") == [5]


class TestCells:
    def test_csv_cells(self):
        assert [_fmt(v) for v in (True, False, 3, "f", 0.25)] == [
            "1", "0", "3", "f", "0.25"]
        assert [_fmt(v) for v in (math.nan, math.inf, -math.inf)] == [
            "nan", "inf", "-inf"]

    def test_json_cells_spell_out_non_finite_values(self):
        assert [_json_cell(v) for v in (math.nan, math.inf, -math.inf)] == [
            "nan", "inf", "-inf"]
        assert [_json_cell(v) for v in (0.25, 3, "f")] == [0.25, 3, "f"]


class TestOtCommand:
    def test_value(self, capsys, binary_path):
        code, out, _ = run(capsys, "ot", binary_path)
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["value"]
        assert float(rows[0][0]) == pytest.approx(0.3, abs=1e-12)

    def test_certify_gap_tiny(self, capsys, binary_path):
        code, out, _ = run(capsys, "ot", binary_path, "--certify")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["value", "duality_gap"]
        assert abs(float(rows[0][1])) <= 1e-9

    def test_certify_solves_once(self, capsys, binary_path, monkeypatch):
        # the certificate reuses the potentials of ot_cost's own solve
        calls = []
        real = flow.transport_min_cost
        monkeypatch.setattr(flow, "transport_min_cost",
                            lambda *a: calls.append(1) or real(*a))
        code, _, _ = run(capsys, "ot", binary_path, "--certify")
        assert code == 0 and len(calls) == 1


class TestEcpCommand:
    def test_frozen_row(self, capsys, binary_path):
        code, out, _ = run(capsys, "ecp", binary_path)
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["alpha", "value", "complement"]
        assert rows[0][0] == "0.4"
        assert float(rows[0][1]) == pytest.approx(0.3, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(0.7, abs=1e-12)

    def test_oracle_column_agrees(self, capsys, binary_path):
        code, out, _ = run(capsys, "ecp", binary_path, "--oracle", "--exact")
        assert code == 0
        header, rows = rows_of(out)
        assert header[-1] == "oracle"
        assert float(rows[0][1]) == pytest.approx(float(rows[0][3]), abs=1e-12)

    def test_exact_flag_is_accepted_and_ignored(self, capsys, binary_path):
        for extra in ((), ("--format", "json")):
            plain = run(capsys, "ecp", binary_path, *extra)
            assert run(capsys, "ecp", binary_path, "--exact", *extra) == plain

    def test_tiny_mass_exits_cleanly(self, capsys, tmp_path):
        # the exact flow raised OverflowError here, and the command exited 1
        p = tmp_path / "tiny.json"
        p.write_text(json.dumps({**BINARY, "alpha": 0.5,
                                 "px": {"labels": [0, 1],
                                        "mass": [1e-300, 1.0]},
                                 "py": {"labels": [0, 1],
                                        "mass": [0.5, 0.5]}}))
        code, out, _ = run(capsys, "ecp", str(p), "--oracle")
        assert code == 0
        assert out.split("\n")[1] == "0.5,0.5,0.5,0.5"

    def test_json_payload_echoes_instance(self, capsys, binary_path):
        code, out, _ = run(capsys, "ecp", binary_path, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["columns"] == ["alpha", "value", "complement"]
        again = parse_instance(payload["instance"])
        assert again.px.mass == (0.3, 0.7)
        assert again.alpha == 0.4


class TestExactGnCommand:
    def test_frozen_value_with_oracle(self, capsys, binary_path):
        code, out, _ = run(capsys, "exact-gn", binary_path, "--oracle")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["alpha", "n", "value", "complement", "oracle"]
        assert rows[0][1] == "2"
        assert float(rows[0][2]) == pytest.approx(0.33, abs=1e-12)
        assert float(rows[0][4]) == pytest.approx(0.33, abs=1e-12)

    def test_flags_override_instance_fields(self, capsys, binary_path):
        code, out, _ = run(capsys, "exact-gn", binary_path,
                           "--alpha", "0", "--n", "3")
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0][1] == "3"
        assert float(rows[0][2]) == pytest.approx(0.432, abs=1e-12)

    def test_two_by_three_with_oracle_pinned(self, capsys, tmp_path):
        path = tmp_path / "two_by_three.json"
        path.write_text(json.dumps(TWO_BY_THREE))
        code, out, _ = run(capsys, "exact-gn", str(path), "--oracle")
        assert code == 0
        assert out == ("alpha,n,value,complement,oracle\n"
                       "0.37,6,0.351171934461,0.648828065539,0.351171934461\n")

    def test_two_by_three_past_the_dense_guard(self, capsys, tmp_path):
        # 101 x 5,151 lattice cells: more than the dense flow takes, while
        # the 2-letter side runs the interval chain DP
        path = tmp_path / "two_by_three.json"
        path.write_text(json.dumps(TWO_BY_THREE))
        gs = []
        for alpha in ("0.2", "0.3", "0.37", "0.45", "0.6"):
            code, out, err = run(capsys, "exact-gn", str(path), "--alpha",
                                 alpha, "--n", "100", "--format", "json")
            assert code == 0, err
            _, n, g, comp = json.loads(out)["rows"][0]
            assert n == 100
            assert abs(g + comp - 1.0) <= 1e-9
            gs.append(g)
        assert all(b <= a for a, b in zip(gs, gs[1:]))
        assert gs[0] > 0.99 and gs[-1] < 0.01

    def test_two_by_three_past_the_old_table_guard(self, capsys, tmp_path):
        # 201 x 20,301 type pairs: more than the inner table takes, while
        # the interval ends come from the cost
        path = tmp_path / "two_by_three.json"
        path.write_text(json.dumps(TWO_BY_THREE))
        code, out, err = run(capsys, "exact-gn", str(path), "--n", "200",
                             "--format", "json")
        assert code == 0, err
        _, n, g, comp = json.loads(out)["rows"][0]
        assert n == 200
        assert 0.0 < g < 1.0
        assert abs(g + comp - 1.0) <= 1e-9

    def test_three_by_three_past_the_dense_guard(self, capsys, tmp_path):
        # 861 x 861 lattice cells and no 2-letter side: the dense flow
        # refuses them
        inst = dict(TWO_BY_THREE, px={"labels": [0, 1, 2],
                                      "mass": [0.2, 0.3, 0.5]},
                    cost=[[0.0, 0.6, 1.0], [0.8, 0.2, 0.5], [1.0, 0.4, 0.1]])
        path = tmp_path / "three_by_three.json"
        path.write_text(json.dumps(inst))
        code, out, err = run(capsys, "exact-gn", str(path), "--n", "40")
        assert code == 3
        assert out == ""
        assert err.startswith("refused:")


class TestLdpRateCommand:
    def test_both_kinds(self, capsys, binary_path):
        code, out, _ = run(capsys, "ldp-rate", binary_path)
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["kind", "alpha", "rate"]
        by_kind = {r[0]: float(r[2]) for r in rows}
        # alpha 0.4 >= |0.3 - 0.6|, so the lower-tail rate vanishes
        assert by_kind["f"] == pytest.approx(0.0, abs=1e-9)
        assert by_kind["g"] == pytest.approx(
            rate_g_binary(0.3, 0.6, 0.4), abs=1e-4)

    def test_infinite_rate_in_json(self, capsys, binary_path):
        code, out, _ = run(capsys, "ldp-rate", binary_path, "--kind", "f",
                           "--alpha", "-0.1", "--format", "json")
        assert code == 0
        assert json.loads(out)["rows"] == [["f", -0.1, "inf"]]

    def test_single_kind(self, capsys, binary_path):
        code, out, _ = run(capsys, "ldp-rate", binary_path, "--kind", "f")
        assert code == 0
        _, rows = rows_of(out)
        assert [r[0] for r in rows] == ["f"]


class TestMdpRateCommand:
    def test_lower_side(self, capsys, binary_path):
        code, out, _ = run(capsys, "mdp-rate", binary_path, "--delta", "-1")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["side", "delta", "rate"]
        assert rows[0][0] == "lower"
        # Bern(0.3) vs Bern(0.6): 1 / (2 (sigma_y - sigma_x)^2)
        sx = math.sqrt(0.21)
        sy = math.sqrt(0.24)
        assert float(rows[0][2]) == pytest.approx(
            1.0 / (2.0 * (sy - sx) ** 2), rel=1e-6)

    def test_upper_side(self, capsys, binary_path):
        code, out, _ = run(capsys, "mdp-rate", binary_path,
                           "--delta", "0.5", "--directions", "240")
        assert code == 0
        _, rows = rows_of(out)
        assert rows[0][0] == "upper"
        sx = math.sqrt(0.21)
        sy = math.sqrt(0.24)
        assert float(rows[0][2]) == pytest.approx(
            0.25 / (2.0 * (sx + sy) ** 2), rel=1e-5)

    def test_json_echoes_the_instance_delta(self, capsys, tmp_path):
        p = tmp_path / "delta.json"
        p.write_text(json.dumps(dict(BINARY, delta=-1.0)))
        code, out, _ = run(capsys, "mdp-rate", str(p), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0][:2] == ["lower", -1.0]
        assert payload["instance"]["delta"] == -1.0
        assert parse_instance(payload["instance"]).delta == -1.0

    def test_zero_delta_rejected(self, capsys, binary_path):
        code, _, err = run(capsys, "mdp-rate", binary_path, "--delta", "0")
        assert code == 2
        assert "nonzero" in err


class TestCltCommand:
    def test_negative_grid_bound_parses(self, capsys):
        code, out, _ = run(capsys, "clt", "--a", "0.1", "--b", "0.5",
                           "--delta-grid", "-1:1:5")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["delta", "lambda"]
        assert [float(r[0]) for r in rows] == pytest.approx(
            [-1.0, -0.5, 0.0, 0.5, 1.0])
        for r in rows:
            assert float(r[1]) == pytest.approx(
                lambda_binary(0.1, 0.5, float(r[0])), abs=1e-9)

    def test_oracle_column(self, capsys):
        code, out, _ = run(capsys, "clt", "--a", "0.2", "--b", "0.4",
                           "--oracle", "--delta-grid", "0:2:3")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["delta", "lambda", "lambda_dual"]
        for r in rows:
            assert float(r[1]) == pytest.approx(float(r[2]), abs=1e-6)


class TestConvergeCommand:
    def test_doubling_series(self, capsys, binary_path):
        code, out, _ = run(capsys, "converge", binary_path, "--mode", "lower",
                           "--alpha", "0.2", "--n", "4:17:doubling")
        assert code == 0
        header, rows = rows_of(out)
        assert header == ["n", "exponent"]
        assert [r[0] for r in rows] == ["4", "8", "16"]
        for r in rows:
            assert float(r[1]) > 0.0

    def test_single_n(self, capsys, binary_path):
        code, out, _ = run(capsys, "converge", binary_path, "--mode", "upper",
                           "--alpha", "0.5", "--n", "8")
        assert code == 0
        _, rows = rows_of(out)
        assert len(rows) == 1 and rows[0][0] == "8"


class TestSampleCommand:
    def test_deterministic_with_seed(self, capsys, binary_path):
        argv = ("sample", binary_path, "--seed", "7", "--count", "5")
        code, first, _ = run(capsys, *argv)
        assert code == 0
        code, second, _ = run(capsys, *argv)
        assert first == second
        header, rows = rows_of(first)
        assert header == ["draw", "x", "y", "cost"]
        assert len(rows) == 5
        for r in rows:
            xs = r[1].split("|")
            assert len(xs) == 2 and set(xs) <= {"0", "1"}
            assert 0.0 <= float(r[3]) <= 1.0

    def test_seed_is_required(self, capsys, binary_path):
        code, _, _ = run(capsys, "sample", binary_path)
        assert code == 2

    def test_binary_past_the_table_guard(self, capsys, binary_path):
        # the binary inner table at n = 1414 has 1415^2 entries, past
        # PAIR_GUARD
        code, out, err = run(capsys, "sample", binary_path, "--n", "1414",
                             "--seed", "1")
        assert code == 3
        assert out == ""
        assert err.startswith("refused:")

    def test_tied_costs_pinned(self, capsys, tmp_path):
        # x = 0 costs nothing against a or b, so many inner joint types have
        # several optima; the lexicographically least one is drawn
        path = tmp_path / "tied.json"
        path.write_text(json.dumps({
            "px": {"labels": [0, 1], "mass": [0.5, 0.5]},
            "py": {"labels": ["a", "b", "c"], "mass": [0.25, 0.5, 0.25]},
            "cost": [[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
            "alpha": 0.5, "n": 4,
        }))
        code, out, _ = run(capsys, "sample", str(path), "--seed", "3",
                           "--count", "8")
        assert code == 0
        assert out == (
            "draw,x,y,cost\n"
            "0,0|1|1|1,b|b|c|b,0.5\n"
            "1,0|1|1|0,b|b|a|b,0.5\n"
            "2,0|0|0|1,b|a|b|a,0.25\n"
            "3,0|1|1|1,b|b|b|c,0.5\n"
            "4,1|1|0|0,c|c|a|b,0\n"
            "5,0|0|0|1,b|a|b|a,0.25\n"
            "6,0|1|1|0,b|a|b|b,0.5\n"
            "7,1|1|1|0,c|c|a|b,0.25\n"
        )


class TestFailureModes:
    def test_malformed_json_reports_position(self, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"px": \n  oops}')
        code, _, err = run(capsys, "ot", str(p))
        assert code == 2
        assert "line 2" in err and "column" in err

    def test_unknown_key_exits_two(self, capsys, tmp_path):
        p = tmp_path / "extra.json"
        p.write_text(json.dumps(dict(BINARY, mystery=1)))
        code, _, err = run(capsys, "ot", str(p))
        assert code == 2
        assert "unknown instance keys" in err

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = run(capsys, "ot", str(tmp_path / "absent.json"))
        assert code == 2
        assert "error:" in err

    def test_size_guard_exits_three(self, capsys, tmp_path):
        k = 5
        inst = {
            "px": {"labels": list(range(k)), "mass": [1.0 / k] * k},
            "py": {"labels": list(range(k)), "mass": [1.0 / k] * k},
            "cost": [[float(i != j) for j in range(k)] for i in range(k)],
            "alpha": 0.05,
        }
        p = tmp_path / "big.json"
        p.write_text(json.dumps(inst))
        code, _, err = run(capsys, "ldp-rate", str(p))
        assert code == 3
        assert err.startswith("refused:")

    def test_missing_alpha_everywhere(self, capsys, tmp_path):
        inst = {k: v for k, v in BINARY.items() if k not in ("alpha", "n")}
        p = tmp_path / "noalpha.json"
        p.write_text(json.dumps(inst))
        code, _, err = run(capsys, "ecp", str(p))
        assert code == 2
        assert "alpha" in err


class TestOutputFile:
    def test_out_writes_file_and_silences_stdout(self, capsys, tmp_path,
                                                 binary_path):
        target = tmp_path / "result.csv"
        code, out, _ = run(capsys, "ecp", binary_path, "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        header, rows = rows_of(text)
        assert header == ["alpha", "value", "complement"]
        assert float(rows[0][1]) == pytest.approx(0.3, abs=1e-12)

    def test_reruns_byte_identical(self, tmp_path, binary_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code, _, _ = run(capsys, "exact-gn", binary_path, "--format",
                             "json", "--out", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
