import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest

from delaystab import SystemParams, axis_crossing_candidates, cli, region, threshold_gain
from delaystab.cli import main
from delaystab.simulator import SimConfig, init_state, sine_profile, step, zero_fn

B0 = threshold_gain(1, 1, 1, 1)
ONES_FLAGS = ["--alpha", "1", "--delta", "1", "--l", "1", "--f", "1"]
FLOAT_LITERAL = re.compile(r"-?(\d+\.\d*|\d+)(e[+-]\d+)?")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def with_flag(flag, value):
    """ONES_FLAGS with one flag's value replaced."""
    flags = list(ONES_FLAGS)
    flags[flags.index(flag) + 1] = value
    return flags


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

    def test_unpolishable_cell_is_numerical_failure(self, capsys):
        # At tol = 1e-8 two simple eigenvalues near -3, 2.1e-6 apart, share a
        # cell too small to split that Newton cannot polish: no partial list.
        argv = ["eig", "--alpha", "1.4768116880880315", "--beta=-0.4768116880884702"]
        argv += ["--delta", "1", "--l", "1", "--f", "1", "--tau", "0", "--sigma", "3.5"]
        code, out, err = run_cli(capsys, [*argv, "--tol", "1e-8"])
        assert (code, out) == (3, "")
        assert re.search(r"the 2 zeros counted in cell ContourBox\(.*\) at depth \d+$", err)
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and len(parse_csv(out)[1]) == 2

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

    @pytest.mark.parametrize("delta", ["-709", "-1000"])
    def test_far_negative_decay_is_numerical_failure(self, capsys, delta):
        argv = ["classify", "--alpha", "1", "--delta", delta, "--l", "1", "--f", "1"]
        code, out, err = run_cli(capsys, [*argv, "--beta", "1", "--tau", "1"])
        assert code == 3
        assert out == "" and err.startswith("delaystab: ")

    def test_sample_budget_is_numerical_failure(self, capsys):
        # delta*l/f = -38 gives a search box about 1e9 high
        argv = ["classify", "--alpha", "0.06258610018621615", "--beta", "17.677583434925197",
                "--delta=-1.216998575191424", "--l", "3.454339200090323",
                "--f", "0.10974200890988042", "--tau", "7.089619906245331"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == "" and "1000000 samples" in err

    def test_delay_past_exp_overflow(self, capsys):
        code, out, err = run_cli(
            capsys, ["classify", *ONES_FLAGS, "--beta", "0.5", "--tau", "800"]
        )
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert rows[0][0] == "StableSteadyState"

    @pytest.mark.parametrize("flag, value", [("--beta", "-1e-3"), ("--delta", "-1E-2")])
    def test_negative_value_in_scientific_notation(self, capsys, flag, value):
        argv = ["classify", *ONES_FLAGS, "--beta", "1", "--tau", "1"]
        at = argv.index(flag) + 1
        code, out, err = run_cli(capsys, [*argv[: at - 1], f"{flag}={value}", *argv[at + 1 :]])
        assert code == 0 and err == ""
        argv[at] = value
        assert run_cli(capsys, argv) == (0, out, "")

    def test_negative_infinity_is_a_usage_error(self, capsys):
        argv = ["classify", *ONES_FLAGS, "--beta", "-inf", "--tau", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "beta must be finite" in err

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

    def test_parallel_env_matches_serial(self, capsys, monkeypatch, started_pools):
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
        assert started_pools == [2]

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5", ""])
    def test_dde_threads_must_be_a_positive_integer(self, capsys, monkeypatch, value):
        monkeypatch.setenv("DDE_THREADS", value)
        argv = ["sweep", *ONES_FLAGS, "--beta-range", "0:1", "--tau-range", "0:1", "--grid", "2x2"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "DDE_THREADS" in err

    @pytest.mark.parametrize(
        "beta_range, tau_range, axis_labels",
        [("1:1", "0:2", (">0<", ">1<", ">2<")), ("-2:3", "0:0", (">-1<", ">0<", ">1<"))],
    )
    def test_svg_one_value_range(self, capsys, beta_range, tau_range, axis_labels):
        argv = [
            "sweep",
            *ONES_FLAGS,
            "--beta-range",
            beta_range,
            "--tau-range",
            tau_range,
            "--grid",
            "2x2",
            "--format",
            "svg",
        ]
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert out.startswith("<svg ") and out.count('fill="#') >= 4
        assert all(label in out for label in axis_labels)

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

    def test_range_of_three_parts_is_usage_error(self, capsys):
        argv = ["sweep", *ONES_FLAGS, "--beta-range", "1:2:3", "--tau-range", "0:1"]
        code, out, err = run_cli(capsys, [*argv, "--grid", "2x2"])
        assert (code, out) == (2, "")
        assert err == "delaystab: range must look like A:B, got '1:2:3'\n"

    def test_failed_node_row_has_empty_labels_and_the_error(self, capsys):
        argv = ["sweep", *with_flag("--delta", "-1000"), "--beta-range", "1:2"]
        code, out, err = run_cli(capsys, [*argv, "--tau-range", "0:1", "--grid", "2x2"])
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert header[2:] == ["label", "evidence", "max_real_part", "error"]
        assert [row[:2] for row in rows] == [["0.0", "1.0"], ["1.0", "1.0"], ["0.0", "2.0"], ["1.0", "2.0"]]
        for row in rows:
            assert row[2:5] == ["", "", ""]
            assert row[5] == f"search radius overflows at beta={row[1]}, delta*l/f=-1000.0"


    @pytest.mark.parametrize("flag", ["--l", "--f"])
    def test_bad_family_is_usage_error(self, capsys, flag):
        code, out, err = run_cli(
            capsys,
            [
                "sweep",
                *with_flag(flag, "0"),
                "--beta-range",
                "0:1",
                "--tau-range",
                "0:1",
                "--grid",
                "2x2",
            ],
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("delaystab: ")


class TestTraceR0:
    @pytest.mark.parametrize("flag", ["--l", "--f"])
    def test_bad_family_is_usage_error(self, capsys, flag):
        argv = ["trace-r0", *with_flag(flag, "0"), "--steps", "3", "--omega-max", "5"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("delaystab: ")

    def test_non_finite_omega_max_is_usage_error(self, capsys):
        argv = ["trace-r0", *ONES_FLAGS, "--steps", "3", "--omega-max", "nan"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert "omega_max" in err

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

    def test_default_window_finds_negative_decay_crossings(self, capsys):
        argv = ["trace-r0", "--alpha", "0.5", "--delta=-0.8", "--l", "2", "--f", "1"]
        code, out, _ = run_cli(capsys, [*argv, "--tau-max", "0.1", "--steps", "3"])
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 19
        near = [
            r
            for r in rows
            if float(r[0]) == 0.05
            and abs(float(r[1]) - 6.1407) < 1e-3
            and abs(float(r[2]) - 9.5303) < 1e-3
        ]
        assert len(near) == 1 and abs(float(near[0][2])) <= 10.0

    @pytest.mark.parametrize(
        "alpha, delta, l, f", [(0.5, -0.8, 2.0, 1.0), (2.0, -0.3, 3.0, 0.5), (1.0, -2.0, 1.0, 1.0)]
    )
    def test_default_window_covers_axis_candidates(self, capsys, monkeypatch, alpha, delta, l, f):
        windows = []

        def record_window(fn, grid, *rows):
            windows.append(grid[-1])
            return np.zeros(0, dtype=int), np.zeros(0)

        monkeypatch.setattr(region, "_scan_roots", record_window)
        flags = ["--alpha", repr(alpha), f"--delta={delta!r}", "--l", repr(l), "--f", repr(f)]
        code, _, _ = run_cli(capsys, ["trace-r0", *flags, "--steps", "2"])
        assert code == 0
        monkeypatch.undo()  # axis_crossing_candidates scans with _scan_roots too
        for beta in (10.0, -10.0):
            omegas = axis_crossing_candidates(SystemParams(alpha, beta, delta, l, f, 0.0))
            assert omegas and max(omegas) < windows[0]

    def test_default_window_overflow_is_numerical_failure(self, capsys):
        argv = ["trace-r0", *with_flag("--delta", "-709"), "--steps", "3"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "search radius" in err

    def test_overflowing_axis_gain_is_numerical_failure(self, capsys):
        # delta*l/f = -800: exp(-delta*l/f) overflows and the axis gain is NaN
        argv = ["trace-r0", *with_flag("--delta", "-800"), "--tau-max", "1", "--steps", "3"]
        code, out, err = run_cli(capsys, [*argv, "--omega-max", "1"])
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "axis gain overflows" in err

    def test_bad_tau_max_is_usage_error_before_the_default_window(self, capsys):
        argv = ["trace-r0", *with_flag("--delta", "-800"), "--tau-max", "-1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "tau_max" in err

    def test_default_window_too_wide_to_scan_asks_for_omega_max(self, capsys):
        # delta*l/f = -20: the radius at |beta| = 10 is about 7e4, and a scan
        # resolving crossings about pi/11 apart up to it would take 3.9e6 points.
        argv = ["trace-r0", *with_flag("--delta", "-20"), "--steps", "3"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "pass a smaller omega_max" in err
        # The window of the delta >= 0 bound, eig_bound_radius(10, -20) + 1,
        # still prints the 129 low-frequency crossings found with it before.
        code, out, err = run_cli(capsys, [*argv, "--omega-max", "21.954451150103324"])
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert len(rows) == 129
        assert rows[3] == ["0.0", "8.36922239228329", "-3.766542835897715e-07", "2.2812429974665866e-16"]

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

    def test_empty_trace_draws_the_default_frame(self, capsys):
        # every omega = 0 crossing hits char_fn's pole at -alpha, and the
        # window holds no other: axes over tau in [0, 1], beta in [-1, 1]
        argv = ["trace-r0", *with_flag("--alpha", "1e-300"), "--steps", "3", "--tau-max", "1"]
        code, out, err = run_cli(capsys, [*argv, "--omega-max", "0.001", "--format", "svg"])
        assert code == 0 and err.count("\n") == 3
        assert out.startswith("<svg ") and out.endswith("</svg>\n")
        assert "<circle" not in out and out.count("<rect ") == 1
        labels = re.findall(r">([^<]+)</text>", out)
        assert labels == ["0", "-1", "0.5", "0", "1", "1", "tau", "beta"]

    def test_failures_are_stderr_lines(self, capsys):
        # delta = 0: the gain has a pole at omega = 2*pi, a sign flip of the
        # scan at every delay, each reported as one line
        argv = ["trace-r0", *with_flag("--delta", "0"), "--tau-max", "1", "--steps", "3"]
        code, out, err = run_cli(capsys, [*argv, "--omega-max", "8"])
        assert code == 0
        assert err.splitlines() == [
            f"trace-r0: tau={tau}: omega={2.0 * math.pi!r}: beta must be finite, got nan"
            for tau in ("0.0", "0.5", "1.0")
        ]
        _, rows = parse_csv(out)
        assert len(rows) == 11 and all(row[2] != "nan" for row in rows)


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

    def test_profile_past_the_memory_bound_is_bad_input(self, capsys):
        # nx + 1 = 1e13 profile samples: exit 2 before any is allocated.
        argv = ["simulate", *ONES_FLAGS, "--beta", "0.5", "--tau", "0"]
        argv += ["--nx", "10000000000000", "--t-final", "1e-9"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "delaystab: nx must be an integer from 2 to 16777215, got 10000000000000\n"

    @pytest.mark.parametrize(
        "flag, field",
        [
            pytest.param("--nx", "nx must be an integer from 2 to 16777215", id="--nx"),
            ("--stride", "output_stride"),
        ],
    )
    def test_integer_past_the_float_range_is_bad_input(self, capsys, flag, field):
        # 1 followed by 400 zeros for nx, and its negative for the stride
        value = str(10**400) if flag == "--nx" else str(-(10**400))
        argv = ["simulate", *ONES_FLAGS, "--beta", "0.5", "--tau", "0.3", "--t-final", "1"]
        argv += ["--nx", "10", f"{flag}={value}"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "") and field in err and "Traceback" not in err

    def test_stride_past_the_float_range_outputs_the_ends(self, capsys):
        argv = ["simulate", *ONES_FLAGS, "--beta", "0.5", "--tau", "0.3", "--t-final", "1"]
        argv += ["--nx", "10", "--stride", str(10**400)]
        code, out, _ = run_cli(capsys, argv)
        _, rows = parse_csv(out)
        assert code == 0 and [float(row[0]) for row in rows] == [0.0, 1.0]

    def test_step_that_underflows_is_bad_input(self, capsys):
        argv = ["simulate", "--alpha", "1", "--beta", "0.5", "--delta", "1", "--l", "1e-320"]
        argv += ["--f", "1e10", "--tau", "0.3", "--nx", "10", "--t-final", "1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "") and "underflows" in err

    def test_step_that_overflows_is_bad_input(self, capsys):
        argv = ["simulate", "--alpha", "1", "--beta", "0.5", "--delta", "1", "--l", "1e30"]
        argv += ["--f", "1e-300", "--tau", "0.3", "--nx", "10", "--t-final", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv)
        assert (code, out, err) == (2, "", "delaystab: the step (l/nx)/f overflows to inf\n")

    def test_stride_past_any_c_long_prints_the_rows_of_stride_10(self, capsys):
        # 10 steps: any stride of 10 or more outputs steps 0 and 10
        argv = ["simulate", *ONES_FLAGS, "--beta", "0.5", "--tau", "0.3", "--nx", "10"]
        argv += ["--t-final", "1", "--stride"]
        code, out, _ = run_cli(capsys, [*argv, "10"])
        huge_code, huge_out, _ = run_cli(capsys, [*argv, str(10**20)])
        assert code == huge_code == 0 and huge_out == out

    def test_fields_are_plain_floats_from_the_step_loop(self, capsys):
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
        _, rows = parse_csv(out)
        p = SystemParams(1, 0.5, 1, 1, 1, 0.3)
        state = init_state(p, SimConfig(20, 1.0, 0.7), sine_profile(1.0), 1.0, zero_fn)
        for k, row in enumerate(rows):
            assert all(FLOAT_LITERAL.fullmatch(field) for field in row), row
            if k:
                state = step(state, p)
            assert row[0] == repr(state.t)
            # run sums each block's steps in closed form, step one at a time
            assert float(row[2]) == pytest.approx(state.a * state.a, rel=1e-15)
            assert float(row[3]) == pytest.approx(float(state.c[-1]), rel=1e-15, abs=1e-15)
        assert len(rows) == 21

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


    @pytest.mark.parametrize("flag", ["--t-final", "--gamma"])
    def test_infinite_time_or_weight_is_usage_error(self, capsys, flag):
        argv = [
            "simulate",
            *ONES_FLAGS,
            "--beta",
            "0.5",
            "--tau",
            "0.3",
            "--nx",
            "10",
            "--t-final",
            "1",
            flag,
            "inf",
        ]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and flag[2:].replace("-", "_") in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_a0_is_usage_error(self, capsys, value):
        argv = [
            "simulate",
            *ONES_FLAGS,
            "--beta",
            "0.5",
            "--tau",
            "0.3",
            "--nx",
            "10",
            "--t-final",
            "1",
            "--a0",
            value,
        ]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "a0" in err

    def test_default_gamma_past_exp_underflow(self, capsys):
        # f*exp(-tau) underflows to 0.0 above tau of about 745; the default
        # weight is taken as log(gamma) + tau = log(f), exact for every tau,
        # and exp(tau - age) does not overflow past tau of about 709.78
        # either.  Up to t = 0.1 the delayed trace is the zero history at
        # both delays, so tau = 800 gives the rows of tau = 710.
        outputs = {}
        for tau in ("710", "800"):
            argv = ["simulate", *ONES_FLAGS, "--beta", "0.5", "--tau", tau]
            argv += ["--nx", "10", "--t-final", "0.1"]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, argv)
            assert code == 0 and "gamma" not in err
            header, rows = parse_csv(out)
            assert header == ["t", "E", "a_sq", "c_l"] and len(rows) == 2
            assert all(math.isfinite(float(row[1])) and float(row[1]) > 0 for row in rows)
            outputs[tau] = rows
        assert outputs["800"] == outputs["710"]
        assert outputs["800"][1][1] == "0.6409643055730043"

    def test_overflowing_energy_is_numerical_failure(self, capsys):
        # beta = -30 grows until the energy overflows at t = 241
        argv = ["simulate", *ONES_FLAGS, "--beta", "-30", "--tau", "0.3"]
        argv += ["--nx", "10", "--t-final", "2000", "--gamma", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == "delaystab: the energy left the floating-point range at t = 241.0\n"

    def test_decay_factor_past_the_float_range_is_numerical_failure(self, capsys):
        # delta*dt = -1000 at dt = 0.1
        argv = ["simulate", "--alpha", "1", "--delta=-1e4", "--l", "1", "--f", "1"]
        argv += ["--beta", "0.5", "--tau", "0.3", "--nx", "10", "--t-final", "1"]
        code, out, err = run_cli(capsys, argv)
        assert code == 3
        assert out == ""
        assert err == "delaystab: exp(-delta*dt) overflows at delta*dt = -1000.0\n"

    def test_delay_past_the_index_range_is_usage_error(self, capsys):
        # 1e301 delay steps: refused before any history sample is taken
        argv = ["simulate", *ONES_FLAGS, "--beta", "0.5", "--tau", "1e300"]
        argv += ["--nx", "10", "--t-final", "0.5"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == (
            "delaystab: tau=1e+300 spans 1e+301 steps, a delay window of more than 16777216"
            " samples\n"
        )

    def test_delay_window_past_the_memory_bound_is_usage_error(self, capsys):
        # 1e9 delay steps: refused before any history sample is taken
        argv = ["simulate", *ONES_FLAGS, "--beta", "0.5", "--tau", "1e8"]
        argv += ["--nx", "10", "--t-final", "0.5"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == (
            "delaystab: tau=100000000.0 spans 1000000000 steps, a delay window of more than"
            " 16777216 samples\n"
        )


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

    def test_delay_past_exp_overflow_not_applicable(self, capsys):
        code, out, err = run_cli(
            capsys, ["certify", *ONES_FLAGS, "--beta", "0.5", "--tau", "800"]
        )
        assert code == 0 and err == ""
        _, rows = parse_csv(out)
        assert rows[0] == ["false", "", "", "", ""]

    def test_zero_gamma_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["certify", *ONES_FLAGS, "--beta", "0.5", "--tau", "0.3", "--gamma", "0"],
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "gamma" in err

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

    def test_unwritable_path_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(
            capsys,
            ["classify", *ONES_FLAGS, "--beta", "1", "--tau", "1", "--output", str(target)],
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("delaystab: ")
        assert str(target) in err


class TestOutputPath:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_svg_is_drawn_only_for_svg_format(self, capsys, monkeypatch, fmt):
        def refuse(*args):
            raise AssertionError(f"SVG drawn for --format {fmt}")

        monkeypatch.setattr(cli, "_sweep_svg", refuse)
        monkeypatch.setattr(cli, "_trace_svg", refuse)
        for argv in (
            ["sweep", *ONES_FLAGS, "--beta-range", "-1:1", "--tau-range", "0:1", "--grid", "2x2"],
            ["trace-r0", *ONES_FLAGS, "--tau-max", "1", "--steps", "3", "--omega-max", "5"],
        ):
            code, out, err = run_cli(capsys, [*argv, "--format", fmt])
            assert code == 0 and out and err == "", argv[0]
