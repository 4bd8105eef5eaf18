"""Record the reference results that the output checks compare against.

    python3 perfbench/record_reference.py

Runs one untimed pass of every workload with the package in ``src/`` and
writes ``perfbench/reference.json``.  Run it only on a commit whose results
are meant to become the reference; the invariant checks must pass first.
"""

from __future__ import annotations

import json
import sys

from run import import_package

import_package()

from checks import REFERENCE, Checker, summarize  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from workloads import WORKLOADS, Caller  # noqa: E402


def record(workload) -> dict:
    checker = Checker(None)
    entries = {}

    def sink(outcome, context):
        checker(outcome, context)
        key = f"{outcome.kind} {outcome.key}"
        if outcome.error is not None:
            entries[key] = {"error": outcome.error}
        else:
            entries[key] = summarize(outcome.kind, outcome.value)

    workload.run_pass(workload.make_inputs(0), Caller(HostClock()), sink)
    if not checker.correct:
        raise SystemExit("invariants fail, not recording:\n" + "\n".join(checker.problems))
    print(f"{workload.name}: {len(entries)} items, {checker.failed} failed", file=sys.stderr)
    return entries


def main() -> None:
    reference = {name: record(workload) for name, workload in WORKLOADS.items()}
    # One item per line, so that a change of results shows as a readable diff.
    blocks = []
    for name, entries in reference.items():
        items = ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value, separators=(',', ':'))}"
            for key, value in sorted(entries.items())
        )
        blocks.append(f"{json.dumps(name)}: {{\n{items}\n}}")
    REFERENCE.write_text("{\n" + ",\n".join(blocks) + "\n}\n")


if __name__ == "__main__":
    main()
