"""Seeded random corpus over the admissible parameter space.

Every point, the known-bad ones included, must end in a label or a typed
DelayStabError within a per-point time budget: never a bare exception, a
NaN or a multi-minute run.
"""

import random
import time

from delaystab import RegionLabel, SystemParams, classify
from delaystab.errors import DelayStabError

BUDGET_S = 30.0
# Labelled points of the corpus; the other 9 raise SampleBudgetExceeded.  A
# solver change that loses labels fails here instead of passing unnoticed.
MIN_LABELS = 291


def corpus(n=300, seed=0):
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        alpha = 10 ** rng.uniform(-2, 1)
        beta = rng.uniform(-20, 20)
        delta = rng.uniform(-2, 5)
        l = 10 ** rng.uniform(-1, 1)
        f = 10 ** rng.uniform(-1, 1)
        tau = rng.uniform(0, 30)
        points.append(SystemParams(alpha, beta, delta, l, f, tau))
    return points


def negative_delta(n=200, seed=29):
    """A seeded set of points with delta < 0, over the benchmark's point
    query ranges of the other coordinates."""
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


def test_every_point_labelled_or_typed_within_budget():
    failures = []
    labels = 0
    for i, p in enumerate(corpus()):
        start = time.perf_counter()
        try:
            outcome = classify(p)
        except DelayStabError:
            outcome = None
        except Exception as exc:  # noqa: BLE001 - any other type is the failure
            failures.append(f"#{i} {p}: untyped {type(exc).__name__}: {exc}")
            continue
        elapsed = time.perf_counter() - start
        if isinstance(outcome, RegionLabel):
            labels += 1
        elif outcome is not None:
            failures.append(f"#{i} {p}: returned {outcome!r}")
        if elapsed > BUDGET_S:
            failures.append(f"#{i} {p}: took {elapsed:.1f} s")
    assert not failures, "\n".join(failures)
    assert labels >= MIN_LABELS
