"""Print one line per fixed point set: the labels `classify` gives it.

Each line holds the set's name and size, the count of each
(label, evidence) pair and of each error class, and the first 12 hex digits
of two SHA-256 hashes over the points in order: one of the labels (or error
classes), one of repr(max_real_part).  Running it on two checkouts and
diffing the outputs shows which sets a change relabelled.  The sets are the
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
import hashlib
import os
import random
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


def negative_delta(n=200, seed=29):
    rng = random.Random(seed)
    return [
        SystemParams(
            alpha=10 ** rng.uniform(-1, 1),
            beta=rng.uniform(-10, 10),
            delta=-rng.uniform(1e-3, 1),
            l=10 ** rng.uniform(-0.5, 0.5),
            f=10 ** rng.uniform(-0.5, 0.5),
            tau=rng.uniform(0, 20),
        )
        for _ in range(n)
    ]


def short_hash(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:12]


def digest(points) -> str:
    counts = collections.Counter()
    labels, bounds = [], []
    for p in points:
        try:
            result = classify(p)
        except DelayStabError as exc:
            label, bound = type(exc).__name__, None
        else:
            label = f"{result.label.value}/{result.evidence.value}"
            bound = result.max_real_part
        counts[label] += 1
        labels.append(label)
        bounds.append(repr(bound))
    pairs = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    return f"{len(points)} {pairs} labels {short_hash(labels)} max_real_part {short_hash(bounds)}"


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
    from delaystab import SystemParams, classify
    from delaystab.errors import DelayStabError
    from test_robustness import corpus
    from workloads import FAMILY, SWEEP_BETA, SWEEP_TAU, point_queries_inputs

    sets = {
        "point-queries": point_queries_inputs(0),
        "grid-20x20": grid(20),
        "grid-50x50": grid(50),
        "corpus": corpus(),
        "negative-delta": negative_delta(),
    }
    for name, points in sets.items():
        print(f"{name}  {digest(points)}")
