"""Command-line front end: spectra, classification, sweeps, boundary traces,
simulations and decay certificates, serialized as CSV, JSON or SVG.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure.
Identical flags produce byte-identical output; floats are written in their
shortest round-trip form.  The DDE_THREADS environment variable, a positive
integer, caps the worker count used by ``sweep``; the pool never has more
processes than grid nodes or usable CPUs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .eigensolver import BelowThreshold, spectrum
from .errors import DelayStabError, InvalidParameter
from .params import SystemParams, decay_certificate
from .region import Label, classify, sweep, trace_boundary
from .simulator import SimConfig, run as run_sim, sine_profile, zero_fn

_SCHEMA_VERSION = 1

_SWEEP_COLORS = {
    Label.STABLE_STEADY_STATE.value: "#4878cf",
    Label.LIMIT_CYCLE_OSCILLATION.value: "#d65f5f",
    Label.BOUNDARY_BAND.value: "#eead33",
    "": "#bbbbbb",
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _label_fields(result) -> list:
    """The label, evidence and max_real_part fields of a classification."""
    bound = result.max_real_part
    if isinstance(bound, BelowThreshold):
        bound = f"<{bound.threshold!r}"
    return [result.label.value, result.evidence.value, bound]


def _emit(args, header, rows, draw=None) -> None:
    """Write a handler's table to --output in --format; draw() makes the SVG
    and is called only for --format svg, which argparse allows only for the
    subcommands that pass it."""
    if args.format == "svg":
        text = draw()
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        text = buf.getvalue()
    else:
        payload = {
            "schema_version": _SCHEMA_VERSION,
            "command": args.command,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParameter(f"cannot write --output {args.output!r}: {exc.strerror}") from exc


def _add_param_flags(parser: argparse.ArgumentParser, with_beta_tau: bool = True) -> None:
    parser.add_argument("--alpha", type=float, required=True)
    parser.add_argument("--delta", type=float, required=True)
    parser.add_argument("--l", type=float, required=True)
    parser.add_argument("--f", type=float, required=True)
    if with_beta_tau:
        parser.add_argument("--beta", type=float, required=True)
        parser.add_argument("--tau", type=float, required=True)


def _add_output_flags(parser: argparse.ArgumentParser, formats=("csv", "json")) -> None:
    parser.add_argument("--format", choices=formats, default="csv")
    parser.add_argument("--output", default="-", help="output path, '-' for stdout")


def _params_from(args) -> SystemParams:
    return SystemParams(args.alpha, args.beta, args.delta, args.l, args.f, args.tau)


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(part) for part in text.split(":"))
    except ValueError as exc:
        raise InvalidParameter(f"range must look like A:B, got {text!r}") from exc
    return lo, hi


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        n_tau, n_beta = (int(part) for part in text.lower().split("x"))
    except ValueError as exc:
        raise InvalidParameter(f"grid must look like NTAUxNBETA, got {text!r}") from exc
    return n_tau, n_beta


_WIDTH, _HEIGHT = 720, 540
_LEFT, _RIGHT, _TOP, _BOTTOM = 70.0, 20.0, 20.0, 50.0
_PLOT_W = _WIDTH - _LEFT - _RIGHT
_PLOT_H = _HEIGHT - _TOP - _BOTTOM


def _svg(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _frame(tau_range, beta_range):
    """The maps x(tau) and y(beta) onto the plot frame, and the frame's axes
    as SVG elements.

    A span narrower than 1e-12 is widened by 1 on each side, so a
    one-value range still maps onto the frame.
    """
    (tau_lo, tau_hi), (beta_lo, beta_hi) = (
        (lo - 1.0, hi + 1.0) if abs(hi - lo) < 1e-12 else (lo, hi)
        for lo, hi in (tau_range, beta_range)
    )

    def x(tau: float) -> float:
        return _LEFT + (tau - tau_lo) / (tau_hi - tau_lo) * _PLOT_W

    def y(beta: float) -> float:
        return _TOP + (beta_hi - beta) / (beta_hi - beta_lo) * _PLOT_H

    axes = [
        f'<rect x="{_LEFT:.2f}" y="{_TOP:.2f}" width="{_PLOT_W:.2f}" '
        f'height="{_PLOT_H:.2f}" fill="none" stroke="#000000" stroke-width="1"/>'
    ]
    for frac in (0.0, 0.5, 1.0):
        tau = tau_lo + frac * (tau_hi - tau_lo)
        beta = beta_lo + frac * (beta_hi - beta_lo)
        axes += [
            f'<text x="{x(tau):.2f}" y="{_HEIGHT - 28:.2f}" font-size="12" '
            f'text-anchor="middle">{tau:.3g}</text>',
            f'<text x="{_LEFT - 8:.2f}" y="{y(beta) + 4:.2f}" font-size="12" '
            f'text-anchor="end">{beta:.3g}</text>',
        ]
    axes += [
        f'<text x="{_LEFT + _PLOT_W / 2:.2f}" y="{_HEIGHT - 8:.2f}" '
        f'font-size="14" text-anchor="middle">tau</text>',
        f'<text x="16" y="{_TOP + _PLOT_H / 2:.2f}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 16 {_TOP + _PLOT_H / 2:.2f})">beta</text>',
    ]
    return x, y, axes


def _sweep_svg(nodes, tau_range, beta_range, n_tau, n_beta) -> str:
    cell_w = _PLOT_W / n_tau
    cell_h = _PLOT_H / n_beta
    body = []
    for idx, node in enumerate(nodes):
        i_beta, i_tau = divmod(idx, n_tau)
        label = node.result.label.value if node.result else ""
        color = _SWEEP_COLORS.get(label, "#bbbbbb")
        x = _LEFT + i_tau * cell_w
        y = _TOP + _PLOT_H - (i_beta + 1) * cell_h
        body.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{cell_w:.2f}" height="{cell_h:.2f}" '
            f'fill="{color}"/>'
        )
    body.extend(_frame(tau_range, beta_range)[2])
    legend_y = _TOP + 6
    for label, color in list(_SWEEP_COLORS.items())[:3]:
        body += [
            f'<rect x="{_LEFT + 6:.2f}" y="{legend_y:.2f}" width="12" height="12" '
            f'fill="{color}" stroke="#000000" stroke-width="0.5"/>',
            f'<text x="{_LEFT + 22:.2f}" y="{legend_y + 10:.2f}" font-size="11">{label}</text>',
        ]
        legend_y += 16
    return _svg(body)


def _trace_svg(points) -> str:
    if points:
        beta_lo = min(p.beta for p in points)
        beta_hi = max(p.beta for p in points)
        tau_hi = max(p.tau for p in points)
    else:
        beta_lo, beta_hi, tau_hi = -1.0, 1.0, 1.0
    x, y, body = _frame((0.0, tau_hi), (beta_lo, beta_hi))
    for p in points:
        body.append(f'<circle cx="{x(p.tau):.2f}" cy="{y(p.beta):.2f}" r="1.5" fill="#333333"/>')
    return _svg(body)


def _cmd_eig(args):
    params = _params_from(args)
    result = spectrum(params, args.sigma, tol=args.tol)
    header = ["re", "im", "residual", "structural"]
    rows = []
    for root in result.roots:
        for _ in range(root.multiplicity):
            rows.append([root.lam.real, root.lam.imag, root.residual, root.structural])
    return header, rows


def _cmd_classify(args):
    result = classify(_params_from(args), args.eps0)
    return ["label", "evidence", "max_real_part"], [_label_fields(result)]


def _cmd_sweep(args):
    n_tau, n_beta = _parse_grid(args.grid)
    beta_range = _parse_range(args.beta_range)
    tau_range = _parse_range(args.tau_range)
    fixed = (args.alpha, args.delta, args.l, args.f)
    threads = os.environ.get("DDE_THREADS", "1")
    if not (threads.isdecimal() and int(threads) >= 1):
        raise InvalidParameter(f"DDE_THREADS must be a positive integer, got {threads!r}")
    nodes = sweep(
        fixed, beta_range, tau_range, (n_beta, n_tau), eps0=args.eps0, workers=int(threads)
    )
    header = ["tau", "beta", "label", "evidence", "max_real_part", "error"]
    rows = []
    for node in nodes:
        if node.result is None:
            rows.append([node.tau, node.beta, "", "", "", node.error or ""])
        else:
            rows.append([node.tau, node.beta, *_label_fields(node.result), ""])
    return header, rows, lambda: _sweep_svg(nodes, tau_range, beta_range, n_tau, n_beta)


def _cmd_trace_r0(args):
    fixed = (args.alpha, args.delta, args.l, args.f)
    result = trace_boundary(fixed, args.tau_max, args.steps, args.omega_max)
    for tau, message in result.failures:
        print(f"trace-r0: tau={tau!r}: {message}", file=sys.stderr)
    header = ["tau", "omega", "beta", "residual"]
    rows = [[p.tau, p.omega, p.beta, p.residual] for p in result.points]
    return header, rows, lambda: _trace_svg(result.points)


def _cmd_simulate(args):
    params = _params_from(args)
    # No --gamma leaves SimConfig's default, f*exp(-tau), exact for every tau.
    config = SimConfig(
        nx=args.nx, t_final=args.t_final, gamma=args.gamma, output_stride=args.stride
    )
    c0 = sine_profile(params.l) if args.c0 == "sine" else zero_fn
    _, etrace = run_sim(params, config, c0, args.a0, zero_fn)
    header = ["t", "E", "a_sq", "c_l"]
    columns = (etrace.times, etrace.energies, etrace.a_sq, etrace.c_l)
    rows = list(zip(*(a.tolist() for a in columns)))
    return header, rows


def _cmd_certify(args):
    params = _params_from(args)
    cert = decay_certificate(params, gamma=args.gamma)
    header = ["applicable", "gamma", "rate", "gamma_lo", "gamma_hi"]
    if cert is None:
        rows = [[False, None, None, None, None]]
    else:
        rows = [[True, cert.gamma, cert.rate, cert.gamma_interval[0], cert.gamma_interval[1]]]
    return header, rows


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delaystab",
        description="Spectral stability analysis of a delayed transport feedback loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eig = sub.add_parser("eig", help="eigenvalues in the right half-plane strip")
    _add_param_flags(p_eig)
    p_eig.add_argument("--sigma", type=float, default=1e-6)
    p_eig.add_argument("--tol", type=float, default=1e-12)
    _add_output_flags(p_eig)
    p_eig.set_defaults(handler=_cmd_eig)

    p_cls = sub.add_parser("classify", help="stability label of one point")
    _add_param_flags(p_cls)
    p_cls.add_argument("--eps0", type=float, default=1e-8)
    _add_output_flags(p_cls)
    p_cls.set_defaults(handler=_cmd_classify)

    p_sweep = sub.add_parser("sweep", help="classify a (tau, beta) grid")
    _add_param_flags(p_sweep, with_beta_tau=False)
    p_sweep.add_argument("--beta-range", required=True, help="A:B")
    p_sweep.add_argument("--tau-range", required=True, help="A:B")
    p_sweep.add_argument("--grid", required=True, help="NTAUxNBETA, e.g. 50x50")
    p_sweep.add_argument("--eps0", type=float, default=1e-8)
    _add_output_flags(p_sweep, formats=("csv", "json", "svg"))
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_trace = sub.add_parser("trace-r0", help="trace the oscillation boundary")
    _add_param_flags(p_trace, with_beta_tau=False)
    p_trace.add_argument("--tau-max", type=float, default=10.0)
    p_trace.add_argument("--steps", type=int, default=500)
    p_trace.add_argument(
        "--omega-max",
        type=float,
        default=None,
        help="largest crossing frequency scanned; default: the eigenvalue "
        "search radius at |beta| = 10 plus 1, which holds every crossing with "
        "|beta| <= 10; a window needing more than 65536 scan points exits 3",
    )
    _add_output_flags(p_trace, formats=("csv", "json", "svg"))
    p_trace.set_defaults(handler=_cmd_trace_r0)

    p_sim = sub.add_parser("simulate", help="time-domain energy trace")
    _add_param_flags(p_sim)
    p_sim.add_argument("--nx", type=int, required=True)
    p_sim.add_argument("--t-final", type=float, required=True)
    p_sim.add_argument("--gamma", type=float, default=None)
    p_sim.add_argument("--c0", choices=("zero", "sine"), default="sine")
    p_sim.add_argument("--a0", type=float, default=1.0)
    p_sim.add_argument("--stride", type=int, default=1)
    _add_output_flags(p_sim)
    p_sim.set_defaults(handler=_cmd_simulate)

    p_cert = sub.add_parser("certify", help="exponential decay certificate")
    _add_param_flags(p_cert)
    p_cert.add_argument("--gamma", type=float, default=None)
    _add_output_flags(p_cert)
    p_cert.set_defaults(handler=_cmd_certify)

    return parser


def _is_number(token: str) -> bool:
    """Whether token parses as a float or an A:B range of floats."""
    try:
        return len([float(part) for part in token.split(":")]) <= 2
    except ValueError:
        return False


def _splice_negatives(argv: list[str]) -> list[str]:
    # argparse mistakes "-1e-3", "-inf" or "-5:5" for an option; splice a
    # negative number or range onto its flag with '=' so it parses.
    spliced = []
    for token in argv:
        prev = spliced[-1] if spliced else ""
        if prev.startswith("--") and "=" not in prev and token[:1] == "-" and _is_number(token):
            spliced[-1] += f"={token}"
        else:
            spliced.append(token)
    return spliced


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_splice_negatives(list(argv)))
    try:
        _emit(args, *args.handler(args))
        return 0
    except InvalidParameter as exc:
        print(f"delaystab: {exc}", file=sys.stderr)
        return 2
    except DelayStabError as exc:
        print(f"delaystab: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"delaystab: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
