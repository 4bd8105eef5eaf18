import csv
import io
import json
import math

import pytest

from delaystab import threshold_gain
from delaystab.cli import main

B0 = threshold_gain(1, 1, 1, 1)
ONES_FLAGS = ["--alpha", "1", "--delta", "1", "--l", "1", "--f", "1"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestEig:
    def test_zero_gain_single_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["eig", *ONES_FLAGS, "--beta", "0", "--tau", "1", "--sigma", "2"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["re", "im", "residual", "structural"]
        assert len(rows) == 1
        assert float(rows[0][0]) == pytest.approx(-1.0, abs=1e-10)
        assert float(rows[0][1]) == 0.0
        assert rows[0][3] == "false"

    def test_threshold_gain_includes_origin(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["eig", *ONES_FLAGS, "--beta", repr(B0), "--tau", "0.5"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert any(
            math.hypot(float(r[0]), float(r[1])) <= 1e-8 for r in rows
        )

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eig", "--alpha", "1"])
        assert exc.value.code == 2

    def test_invalid_parameter_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["eig", "--alpha", "-1", "--delta", "1", "--l", "1", "--f", "1", "--beta", "0", "--tau", "1"],
        )
        assert code == 2
        assert "alpha" in err

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        import delaystab.cli as cli
        from delaystab.errors import BoundaryZero

        def boom(*args, **kwargs):
            raise BoundaryZero("stuck on a contour zero")

        for command, solver in (("eig", "spectrum"), ("classify", "classify")):
            monkeypatch.setattr(cli, solver, boom)
            code, _, err = run_cli(
                capsys, [command, *ONES_FLAGS, "--beta", "1", "--tau", "1"]
            )
            assert code == 3, command
            assert "contour" in err

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["eig", *ONES_FLAGS, "--beta", "0", "--tau", "1", "--sigma", "2", "--format", "json"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["rows"][0]["re"] == pytest.approx(-1.0)

    def test_svg_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eig", *ONES_FLAGS, "--beta", "0", "--tau", "1", "--format", "svg"])
        assert exc.value.code == 2


class TestClassify:
    def test_stable_point(self, capsys):
        code, out, _ = run_cli(
            capsys, ["classify", *ONES_FLAGS, "--beta", "1", "--tau", "1"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["label", "evidence", "max_real_part"]
        assert rows[0][0] == "StableSteadyState"

    def test_oscillating_point(self, capsys):
        code, out, _ = run_cli(
            capsys, ["classify", *ONES_FLAGS, "--beta", "-4", "--tau", "4"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == "LimitCycleOscillation"
        assert float(rows[0][2]) > 0

    def test_certificate_evidence(self, capsys):
        code, out, _ = run_cli(
            capsys, ["classify", *ONES_FLAGS, "--beta", "0.5", "--tau", "0.2"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][0] == "StableSteadyState"
        assert rows[0][1] == "DecayCertificate"
        assert rows[0][2].startswith("<-")


class TestSweep:
    def test_csv_contract_and_coordinates(self, capsys):
        argv = [
            "sweep",
            *ONES_FLAGS,
            "--beta-range",
            "-1:1",
            "--tau-range",
            "0:2",
            "--grid",
            "3x2",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tau", "beta", "label", "evidence", "max_real_part", "error"]
        assert len(rows) == 6
        assert [r[0] for r in rows] == ["0.0", "1.0", "2.0", "0.0", "1.0", "2.0"]
        assert [r[1] for r in rows] == ["-1.0"] * 3 + ["1.0"] * 3
        assert all(r[5] == "" for r in rows)

    def test_deterministic_output(self, capsys):
        argv = [
            "sweep",
            *ONES_FLAGS,
            "--beta-range",
            "-2:2",
            "--tau-range",
            "0:1",
            "--grid",
            "2x2",
        ]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_parallel_env_matches_serial(self, capsys, monkeypatch):
        argv = [
            "sweep",
            *ONES_FLAGS,
            "--beta-range",
            "-2:2",
            "--tau-range",
            "0:1",
            "--grid",
            "2x2",
        ]
        _, serial, _ = run_cli(capsys, argv)
        monkeypatch.setenv("DDE_THREADS", "2")
        _, parallel, _ = run_cli(capsys, argv)
        assert serial == parallel

    def test_svg_output(self, capsys, tmp_path):
        out_path = tmp_path / "map.svg"
        argv = [
            "sweep",
            *ONES_FLAGS,
            "--beta-range",
            "-2:3",
            "--tau-range",
            "0:2",
            "--grid",
            "3x3",
            "--format",
            "svg",
            "--output",
            str(out_path),
        ]
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("<svg ")
        assert text.count("<rect ") >= 9
        assert ">tau</text>" in text and ">beta</text>" in text

    def test_bad_grid_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "sweep",
                *ONES_FLAGS,
                "--beta-range",
                "-1:1",
                "--tau-range",
                "0:1",
                "--grid",
                "nonsense",
            ],
        )
        assert code == 2
        assert "grid" in err


class TestTraceR0:
    def test_csv_contract_and_grid(self, capsys):
        argv = [
            "trace-r0",
            *ONES_FLAGS,
            "--tau-max",
            "2",
            "--steps",
            "5",
            "--omega-max",
            "8",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tau", "omega", "beta", "residual"]
        taus = sorted({float(r[0]) for r in rows})
        assert taus == pytest.approx([p * 2.0 / 4 for p in range(5)], abs=1e-12)
        zero_rows = [r for r in rows if float(r[1]) == 0.0]
        assert len(zero_rows) == 5
        for r in zero_rows:
            assert float(r[2]) == pytest.approx(B0, abs=1e-8)

    def test_svg_dots(self, capsys):
        argv = [
            "trace-r0",
            *ONES_FLAGS,
            "--tau-max",
            "1",
            "--steps",
            "3",
            "--omega-max",
            "5",
            "--format",
            "svg",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert '<circle ' in out and 'r="1.5"' in out


class TestSimulate:
    def test_csv_contract(self, capsys):
        argv = [
            "simulate",
            *ONES_FLAGS,
            "--beta",
            "0.5",
            "--tau",
            "0.3",
            "--nx",
            "20",
            "--t-final",
            "1",
            "--gamma",
            "0.7",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["t", "E", "a_sq", "c_l"]
        assert len(rows) == 21
        assert float(rows[0][0]) == 0.0
        assert all(float(r[1]) > 0 for r in rows)

    def test_zero_profile_flag(self, capsys):
        argv = [
            "simulate",
            *ONES_FLAGS,
            "--beta",
            "0",
            "--tau",
            "0",
            "--nx",
            "10",
            "--t-final",
            "0.5",
            "--c0",
            "zero",
            "--a0",
            "2",
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        _, rows = parse_csv(out)
        assert float(rows[0][1]) == pytest.approx(2.0)

    def test_bad_nx_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            [
                "simulate",
                *ONES_FLAGS,
                "--beta",
                "0.5",
                "--tau",
                "0.3",
                "--nx",
                "1",
                "--t-final",
                "1",
            ],
        )
        assert code == 2


class TestCertify:
    def test_applicable(self, capsys):
        code, out, _ = run_cli(
            capsys, ["certify", *ONES_FLAGS, "--beta", "0.5", "--tau", "0.3"]
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["applicable", "gamma", "rate", "gamma_lo", "gamma_hi"]
        assert rows[0][0] == "true"
        assert float(rows[0][1]) == pytest.approx(math.exp(-0.3), rel=1e-12)
        assert float(rows[0][2]) == pytest.approx(0.0751, abs=1e-4)

    def test_not_applicable(self, capsys):
        code, out, _ = run_cli(
            capsys, ["certify", *ONES_FLAGS, "--beta", "1.5", "--tau", "0"]
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0] == ["false", "", "", "", ""]

    def test_gamma_override_out_of_range(self, capsys):
        code, _, _ = run_cli(
            capsys,
            ["certify", *ONES_FLAGS, "--beta", "0.5", "--tau", "0.3", "--gamma", "0.1"],
        )
        assert code == 2


class TestOutputFiles:
    def test_write_to_path(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(
            capsys,
            [
                "classify",
                *ONES_FLAGS,
                "--beta",
                "1",
                "--tau",
                "1",
                "--output",
                str(target),
            ],
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("label,evidence,max_real_part")
