"""Print three lines per fixed point set, the labels `classify` gives it and
the spectra `spectrum` finds there, a line that checks the boundary trace
against the labels on either side of each crossing, a line of spectra near
a double eigenvalue, and a last line that checks simulated decay rates
against the spectrum.

The labels line holds the set's name and size, the count of each
(label, evidence) pair and of each error class, and the first 12 hex digits
of two SHA-256 hashes over the points in order: one of the labels (or error
classes), one of repr(max_real_part).  The spectra line holds the number of
roots that spectrum(p, 1e-6) lists over the set, the count of each error
class, and one hash over every root's repr(lam), repr(residual),
newton_iters and multiplicity, point by point; a point whose classify
raised is not searched again and enters the hash as that error's class.
The reuse line counts the points whose spectrum(p, 1e-6) was answered from
the search classify kept (none on a tree that keeps no search), out of the
points where classify ran a search that it kept, so a query that searches
twice shows as served < searched; then the points among them whose answer
differs from a fresh search's (of an equal params object) in any root or
residual bit, and the largest root difference |lam - fresh|/max(1, |fresh|)
among them.
A last line, boundary, ties the boundary trace to the labels: at each
omega > 0 crossing (tau, beta) of the region-map trace (500 delays of the
family (1, 1, 1, 1)), classify labels the points at beta*(1 - 1e-3) and
beta*(1 + 1e-3), just inside and just past the crossing's gain; the line
counts the crossings by that (inside, past) pair of labels (or error
classes) and hashes the pairs in trace order.
The degenerate line runs spectrum(p, 3.5) near the double eigenvalue -3 of
(alpha0, beta0, 1, 1, 1, 0), the family of the eigensolver tests'
double-zero case: at the 90 points alpha0 +- 10**k, k = -16..-2, with tau
in {0, 1e-3, 0.05}.  It counts them by outcome, ok or the error class, and
hashes the roots as the spectra lines do, or the error class, point by
point.  These searches reach the solver's give-up paths: a split that
fails at every fraction restarts the search on a box nudged outward, and
BoundaryZero ends it once the nudges run out.
The decay line ties the simulator to the spectrum: at each point of the
point-queries set that classify labels stable, the fitted decay rate of
run's energy, fit_decay_rate over [T/2, T], against -2*max Re lambda over
the roots of spectrum(p, sigma), sigma doubled from 1/8 up to 16 until it
lists a root.  Each run has nx = 20, the sine profile, a0 = 1 and a zero
history, and runs to T = 80/rate, where the energy has fallen by about
exp(-80); the line counts the ratios within 2% of 1 and those outside,
each error class (and no_root, a point whose spectrum listed no root up to
sigma = 16), and hashes the ratios to 6 significant digits, point by point.
Running it on two checkouts and diffing the outputs shows which sets a
change relabelled, and which moved a root or residual bit.  The sets are the
80 points of the benchmark's point-queries workload, the region-map family
(1, 1, 1, 1) on the benchmark's 20x20 grid and on a 50x50 grid of the same
ranges, the 300-point robustness corpus and a seeded set of 200 points with
delta < 0.  BLAS is pinned to one thread before numpy loads, as in the
benchmark: the collocation's eigenvalues, and with them the last bits of a
max_real_part, round differently with the thread count, so only digests
made with the same thread count compare.  Run from the repository root:

    python3 tools/label_digest.py [src directory]
"""

import collections
import dataclasses
import hashlib
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# numpy, the package and the benchmark's and tests' modules are imported
# under __main__, after the src directory given is put first on the path.


def grid(n: int):
    """The points that sweep classifies on an n x n grid of the region-map
    family, in sweep's row-major order."""
    alpha, delta, l, f = FAMILY
    betas = np.linspace(*SWEEP_BETA, n)
    taus = np.linspace(*SWEEP_TAU, n)
    return [SystemParams(alpha, float(b), delta, l, f, float(t)) for b in betas for t in taus]


def short_hash(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:12]


def listed(roots) -> str:
    """Each root's repr(lam), repr(residual), newton_iters and multiplicity."""
    return " ".join(f"{r.lam!r} {r.residual!r} {r.newton_iters} {r.multiplicity}" for r in roots)


def fresh_difference(served, p) -> tuple[bool, float]:
    """Whether the roots served differ from those of a fresh
    spectrum(p, 1e-6) of an equal params object in any root or residual
    bit, and their largest relative root difference (inf when their root
    counts differ)."""
    fresh = spectrum(dataclasses.replace(p), 1e-6).roots
    if len(fresh) != len(served):
        return True, float("inf")
    differs = [(r.lam, r.residual) for r in served] != [(r.lam, r.residual) for r in fresh]
    return differs, max(
        (abs(a.lam - b.lam) / max(1.0, abs(b.lam)) for a, b in zip(served, fresh)), default=0.0
    )


def digest(points) -> tuple[str, str, str]:
    """The labels, spectra and reuse lines of points, after the set's name."""
    counts, errors = collections.Counter(), collections.Counter()
    labels, bounds, spectra = [], [], []
    n_roots = searched = served = differ = 0
    worst = 0.0
    for p in points:
        try:
            result = classify(p)
        except DelayStabError as exc:
            label, bound = type(exc).__name__, None
            spectra.append(label)
            errors[label] += 1
        else:
            label = f"{result.label.value}/{result.evidence.value}"
            bound = result.max_real_part
            kept = getattr(eigensolver, "_kept", None)
            searched += kept is not None and kept[0] is p
            try:
                roots = spectrum(p, 1e-6).roots
            except DelayStabError as exc:
                spectra.append(type(exc).__name__)
                errors[type(exc).__name__] += 1
            else:
                n_roots += len(roots)
                spectra.append(listed(roots))
                # A fresh search replaces the kept entry; a served query
                # leaves the one classify made for p.
                if kept is not None and kept[0] is p and eigensolver._kept is kept:
                    served += 1
                    differs, diff = fresh_difference(roots, p)
                    differ += differs
                    worst = max(worst, diff)
        counts[label] += 1
        labels.append(label)
        bounds.append(repr(bound))
    pairs = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    failed = "".join(f" {k}={v}" for k, v in sorted(errors.items()))
    return (
        f"{len(points)} {pairs} labels {short_hash(labels)} max_real_part {short_hash(bounds)}",
        f"{n_roots} roots{failed} spectra {short_hash(spectra)}",
        f"reuse {served} of {searched} served {differ} differ max_root_diff {worst:.1e}",
    )


def label_of(p) -> str:
    try:
        return classify(p).label.value
    except DelayStabError as exc:
        return type(exc).__name__


def boundary() -> str:
    """The boundary line: each omega > 0 crossing's (inside, past) labels."""
    alpha, delta, l, f = FAMILY
    trace = trace_boundary(FAMILY, TRACE_TAU_MAX, TRACE_NUM_TAU, region_map_inputs(0))
    pairs = [
        ">".join(
            label_of(SystemParams(alpha, c.beta * (1.0 + side), delta, l, f, c.tau))
            for side in (-1e-3, 1e-3)
        )
        for c in trace.points
        if c.omega > 0.0
    ]
    counts = " ".join(f"{k}={v}" for k, v in sorted(collections.Counter(pairs).items()))
    return f"{len(pairs)} crossings {counts} labels {short_hash(pairs)}"


def degenerate() -> str:
    """The degenerate line: spectrum(p, 3.5) around a double eigenvalue."""
    # The deflated numerator lambda + alpha - beta*phi(lambda + 1) and its
    # derivative both vanish at lambda = -3 (w = lambda + 1 = -2).
    w = -2.0
    phi = -math.expm1(-w) / w
    beta = 1.0 / (((1.0 + w) * math.exp(-w) - 1.0) / (w * w))
    alpha = beta * phi + 3.0
    outcomes, spectra = collections.Counter(), []
    for tau in (0.0, 1e-3, 0.05):
        for k in range(-16, -1):
            for sign in (-1.0, 1.0):
                p = SystemParams(alpha + sign * 10.0**k, beta, 1.0, 1.0, 1.0, tau)
                try:
                    outcome, item = "ok", listed(spectrum(p, 3.5).roots)
                except DelayStabError as exc:
                    outcome = item = type(exc).__name__
                outcomes[outcome] += 1
                spectra.append(item)
    counts = " ".join(f"{k}={v}" for k, v in sorted(outcomes.items()))
    return f"{len(spectra)} {counts} spectra {short_hash(spectra)}"


# The decay line's runs: ring size, e-folds of the energy to the end of the
# run, the bound on |ratio - 1|, and the spectrum's first and last sigma.
DECAY_NX = 20
DECAY_EFOLDS = 80.0
DECAY_RTOL = 0.02
DECAY_SIGMA = 0.125
DECAY_SIGMA_MAX = 16.0


def decay(points) -> str:
    """The decay line: each stable point's fitted rate over its spectrum's."""
    outcomes, ratios = collections.Counter(), []
    for p in points:
        if label_of(p) != "StableSteadyState":
            continue
        try:
            sigma, roots = DECAY_SIGMA, ()
            while not roots and sigma <= DECAY_SIGMA_MAX:
                roots = spectrum(p, sigma).roots
                sigma *= 2.0
            if not roots:
                outcome = item = "no_root"
            else:
                rate = -2.0 * max(r.lam.real for r in roots)
                t_final = DECAY_EFOLDS / rate
                _, trace = run(p, SimConfig(DECAY_NX, t_final), sine_profile(p.l), 1.0, zero_fn)
                ratio = fit_decay_rate(trace, (0.5 * t_final, t_final)).rate / rate
                outcome = "within" if abs(ratio - 1.0) <= DECAY_RTOL else "outside"
                item = f"{ratio:.6g}"
        except DelayStabError as exc:
            outcome = item = type(exc).__name__
        outcomes[outcome] += 1
        ratios.append(item)
    failed = "".join(
        f" {k}={v}" for k, v in sorted(outcomes.items()) if k not in ("within", "outside")
    )
    return (
        f"{len(ratios)} stable nx={DECAY_NX} within {DECAY_RTOL:.0%}={outcomes['within']} "
        f"outside={outcomes['outside']}{failed} ratios {short_hash(ratios)}"
    )


if __name__ == "__main__":
    # One BLAS thread, set before numpy loads.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [
        os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else "src"),
        os.path.join(ROOT, "perfbench"),
        os.path.join(ROOT, "tests"),
    ]
    import numpy as np
    from delaystab import (
        SimConfig,
        SystemParams,
        classify,
        eigensolver,
        fit_decay_rate,
        run,
        sine_profile,
        spectrum,
        trace_boundary,
        zero_fn,
    )
    from delaystab.errors import DelayStabError
    from test_robustness import corpus, negative_delta
    from workloads import (
        FAMILY,
        SWEEP_BETA,
        SWEEP_TAU,
        TRACE_NUM_TAU,
        TRACE_TAU_MAX,
        point_queries_inputs,
        region_map_inputs,
    )

    sets = {
        "point-queries": point_queries_inputs(0),
        "grid-20x20": grid(20),
        "grid-50x50": grid(50),
        "corpus": corpus(),
        "negative-delta": negative_delta(),
    }
    for name, points in sets.items():
        for line in digest(points):
            print(f"{name}  {line}")
    print(f"boundary  {boundary()}")
    print(f"degenerate  {degenerate()}")
    print(f"decay  {decay(sets['point-queries'])}")
