"""Output checks of the benchmark.

Every item is compared with the result recorded from the package in
``reference.json`` and checked against invariants that need no reference.
An item whose reference is an error passes when it now returns a result that
meets the invariants, so a robustness fix lowers the failure count instead
of tripping a check.
"""

from __future__ import annotations

import json
import math
import pathlib

from delaystab import BelowThreshold, Label, SystemParams, char_fn, decay_certificate
from workloads import EPS0

REFERENCE = pathlib.Path(__file__).with_name("reference.json")

ROOT_TOL = 1e-12       # roots, max real parts, boundary beta and omega
ENERGY_RTOL = 1e-12    # energies, relative
RATE_RTOL = 1e-9       # fitted decay rates, relative; a least-squares slope of ln E
RESIDUAL_MAX = 1e-8    # |char_fn| at a reported root or axis crossing
CONJ_TOL = 1e-8        # distance of a root's conjugate partner, relative to 1 + |root|
ENERGY_STRIDE = 1000   # the reference keeps every 1000th energy sample and the last


def load_reference() -> dict:
    with REFERENCE.open() as fh:
        return json.load(fh)


def _real_part(value):
    if value is None or isinstance(value, float):
        return value
    if isinstance(value, BelowThreshold):
        return {"below": value.threshold}
    raise TypeError(f"unexpected max_real_part {value!r}")


def summarize(kind: str, value) -> dict:
    """The JSON form of one item's result, as stored in the reference."""
    if kind == "node":
        return summarize("classify", value.result)
    if kind == "classify":
        return {
            "label": value.label.value,
            "evidence": value.evidence.value,
            "max_real_part": _real_part(value.max_real_part),
        }
    if kind == "spectrum":
        return {
            "roots": [[r.lam.real, r.lam.imag, r.multiplicity] for r in value.roots],
            "unresolved": len(value.unresolved),
        }
    if kind == "delay":
        return {"points": [[p.beta, p.omega] for p in sorted(value, key=lambda p: p.omega)]}
    if kind == "ring":
        _, etrace, fit = value
        energies = [s.energy for s in etrace.samples]
        return {
            "samples": len(energies),
            "energies": energies[::ENERGY_STRIDE] + energies[-1:],
            "rate": fit.rate,
        }
    raise ValueError(f"unknown item kind {kind!r}")


def _close(got: float, ref: float, tol: float = ROOT_TOL) -> bool:
    return abs(got - ref) <= tol * max(1.0, abs(ref))


def _rel_close(got: float, ref: float, rtol: float) -> bool:
    return abs(got - ref) <= rtol * abs(ref)


def _compare_label(ref: dict, got: dict) -> str | None:
    for field in ("label", "evidence"):
        if got[field] != ref[field]:
            return f"{field} {got[field]} != reference {ref[field]}"
    a, b = got["max_real_part"], ref["max_real_part"]
    if isinstance(a, dict) and isinstance(b, dict):
        a, b = a["below"], b["below"]
    elif isinstance(a, dict) or isinstance(b, dict) or (a is None) != (b is None):
        return f"max_real_part {a!r} != reference {b!r}"
    if a is not None and not _close(a, b):
        return f"max_real_part {a!r} != reference {b!r}"
    return None


def _compare_roots(ref: dict, got: dict) -> str | None:
    if got["unresolved"] != ref["unresolved"]:
        return f"{got['unresolved']} unresolved cells, reference {ref['unresolved']}"
    if len(got["roots"]) != len(ref["roots"]):
        return f"{len(got['roots'])} roots, reference {len(ref['roots'])}"
    pool = [complex(re, im) for re, im, _ in got["roots"]]
    mults = [m for _, _, m in got["roots"]]
    for re, im, mult in ref["roots"]:
        target = complex(re, im)
        i = min(range(len(pool)), key=lambda k: abs(pool[k] - target))
        if abs(pool[i] - target) > ROOT_TOL * max(1.0, abs(target)) or mults[i] != mult:
            return f"reference root {target!r} (x{mult}) not matched; nearest {pool[i]!r}"
        del pool[i], mults[i]
    return None


def _compare_points(ref: dict, got: dict) -> str | None:
    if len(got["points"]) != len(ref["points"]):
        return f"{len(got['points'])} crossings, reference {len(ref['points'])}"
    for (beta, omega), (rbeta, romega) in zip(got["points"], ref["points"]):
        if not (_close(beta, rbeta) and _close(omega, romega)):
            return f"crossing ({beta!r}, {omega!r}) != reference ({rbeta!r}, {romega!r})"
    return None


def _compare_ring(ref: dict, got: dict) -> str | None:
    if got["samples"] != ref["samples"]:
        return f"{got['samples']} energy samples, reference {ref['samples']}"
    for k, (e, r) in enumerate(zip(got["energies"], ref["energies"])):
        if not _rel_close(e, r, ENERGY_RTOL):
            return f"energy sample {k} is {e!r}, reference {r!r}"
    if not _rel_close(got["rate"], ref["rate"], RATE_RTOL):
        return f"fitted rate {got['rate']!r} != reference {ref['rate']!r}"
    return None


_COMPARE = {
    "classify": _compare_label,
    "node": _compare_label,
    "spectrum": _compare_roots,
    "delay": _compare_points,
    "ring": _compare_ring,
}


def compare(kind: str, ref: dict, got: dict) -> str | None:
    """None when ``got`` matches the reference within the tolerances above."""
    return _COMPARE[kind](ref, got)


def spectrum_invariants(params: SystemParams, roots, label) -> str | None:
    """Residual and conjugate symmetry of a spectrum, and its agreement with
    the point's classify label when that is known."""
    lams = [r.lam for r in roots]
    for lam in lams:
        g = abs(char_fn(params, lam))
        if not g <= RESIDUAL_MAX:
            return f"|char_fn({lam!r})| = {g:.3e} > {RESIDUAL_MAX}"
        if abs(lam.imag) > CONJ_TOL * (1.0 + abs(lam)):
            partner = min(abs(mu - lam.conjugate()) for mu in lams)
            if partner > CONJ_TOL * (1.0 + abs(lam)):
                return f"root {lam!r} has no conjugate partner"
    if label is None:
        return None
    top = max((lam.real for lam in lams), default=None)
    if label is Label.STABLE_STEADY_STATE and top is not None and top > EPS0:
        return f"classified stable but spectrum has Re = {top!r}"
    if label is Label.LIMIT_CYCLE_OSCILLATION and (top is None or top < -EPS0):
        return f"classified oscillating but spectral bound is {top!r}"
    if label is Label.BOUNDARY_BAND and (top is None or abs(top) > EPS0):
        return f"classified boundary band but spectral bound is {top!r}"
    return None


def node_invariants(grid, node) -> str | None:
    beta, tau = grid
    if not (_close(node.beta, beta) and _close(node.tau, tau)):
        return f"node at (beta {node.beta!r}, tau {node.tau!r}), grid ({beta!r}, {tau!r})"
    return None


def crossing_invariants(context, points) -> str | None:
    (alpha, delta, l, f), tau = context
    for p in points:
        g = abs(char_fn(SystemParams(alpha, p.beta, delta, l, f, tau), 1j * p.omega))
        if not g <= RESIDUAL_MAX:
            return f"|char_fn(i*{p.omega!r})| = {g:.3e} at beta {p.beta!r}"
    return None


def ring_invariants(ring, value) -> str | None:
    _, etrace, fit = value
    energies = [s.energy for s in etrace.samples]
    if not all(math.isfinite(e) and e > 0.0 for e in energies):
        return "energy not finite and positive"
    cert = decay_certificate(ring.params)
    if cert is not None and not fit.rate >= cert.rate:
        return f"fitted rate {fit.rate!r} below certificate rate {cert.rate!r}"
    return None


class Checker:
    """Checks each item as a pass hands it over and keeps the counts.

    An item fails when it raised, returned an error entry or failed a check;
    only a failed check (or a raise where the reference has a result) makes
    the run incorrect.  An item with no reference entry fails its check, and
    so does every reference item a pass did not hand over (see end_pass).
    With ``reference`` None only the invariants are checked, as when a
    reference is recorded.
    """

    def __init__(self, reference: dict | None):
        self.reference = reference
        self.labels: dict[str, Label] = {}
        self.seen: set[str] = set()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.problems

    def __call__(self, outcome, context) -> None:
        key = f"{outcome.kind} {outcome.key}"
        if key in self.seen:
            reason = "handed over twice in one pass"
        else:
            self.seen.add(key)
            reason = self.check(outcome, context)
        self._count(key, reason, outcome.error is not None)

    def end_pass(self) -> None:
        """Fail every reference item the pass did not hand over."""
        for key in sorted(set(self.reference or ()) - self.seen):
            self._count(key, "missing from the pass's results", True)
        self.seen = set()

    def _count(self, key: str, reason: str | None, error: bool) -> None:
        self.attempted += 1
        if reason is not None:
            self.problems.append(f"{key}: {reason}")
        if reason is not None or error:
            self.failed += 1

    def check(self, outcome, context) -> str | None:
        ref = None
        if self.reference is not None:
            ref = self.reference.get(f"{outcome.kind} {outcome.key}")
            if ref is None:
                return "no reference entry"
        if outcome.error is not None:
            if ref is not None and "error" not in ref:
                return f"raised {outcome.error!r} where the reference has a result"
            return None
        reason = self.invariants(outcome, context)
        if reason is not None or ref is None or "error" in ref:
            return reason
        return compare(outcome.kind, ref, summarize(outcome.kind, outcome.value))

    def invariants(self, outcome, context) -> str | None:
        kind, value = outcome.kind, outcome.value
        if kind == "classify":
            self.labels[outcome.key] = value.label
        elif kind == "node":
            return node_invariants(context, value)
        elif kind == "spectrum":
            return spectrum_invariants(context, value.roots, self.labels.get(outcome.key))
        elif kind == "delay":
            return crossing_invariants(context, value)
        elif kind == "ring":
            return ring_invariants(context, value)
        return None
