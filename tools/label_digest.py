"""Print three lines per fixed point set, the labels `classify` gives it and
the spectra `spectrum` finds there, and a last line that checks the boundary
trace against the labels on either side of each crossing.

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
                spectra.append(" ".join(
                    f"{r.lam!r} {r.residual!r} {r.newton_iters} {r.multiplicity}" for r in roots
                ))
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
    from delaystab import SystemParams, classify, eigensolver, spectrum, trace_boundary
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
