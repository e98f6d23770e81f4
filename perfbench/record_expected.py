"""Record the report digests that the correctness oracle expects.

Run from the repository root, only when a change to the reports is
intended (the reports are otherwise required to stay byte-identical)::

    python3 perfbench/record_expected.py

It writes ``perfbench/expected.json``; the Heawood ``analyze`` takes a
while.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import AuditMix, HeawoodAnalyze, digest, heawood_edges, run_cli


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cm = run.fresh_import()
    gen = cm.generators.generate

    def report(argv, text, code):
        got, out = run_cli(cm.cli, argv, text)
        if got != code:
            raise SystemExit(f"{argv} exited {got}, expected {code}")
        return digest(out)

    expected = {
        "heawood-analyze": report(HeawoodAnalyze.argv, gen("heawood"), 0),
        "audit-mix": {
            "check-pg3": report(AuditMix.check_argv, gen("incidence_pg", q="3"), 0),
            "check-heawood": report(AuditMix.check_argv, gen("heawood"), 0),
            "analyze-perturbed": {
                edge: report(AuditMix.analyze_argv, gen("perturb", base="heawood", edge=edge, delta="1"), 2)
                for edge in heawood_edges()
            },
        },
    }
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
