"""The benchmark's workloads: seeded inputs, one timed operation each, and
the correctness oracle that judges the operation's output.

Every workload is a closed loop with one client: the next operation starts
only after the previous one has returned and been checked.  The program
sees only generated text, fed to its public entry points
(``cli.main``, ``dehn.parse_measure_tiling`` / ``dehn_test`` /
``functional_identity``).

Why these three:

* ``heawood-analyze`` is the north-star case: one ``analyze`` touches
  every layer, and bars, grid verification and Dijkstra dominate it.
* ``audit-mix`` loads the audit (point diameter, girth) and the rejecting
  path, with no tiling or Dehn work: the control for tiling and Dehn
  changes, the target for audit changes.  It runs by name but is not listed
  in ``BENCHMARK.json``: with the run budget spent on two longer workloads
  their medians are steadier, and ``heawood-analyze`` runs the audit too.
* ``dehn-tilings`` loads the Dehn tests, the scalar layer and parsing with
  no graph work; its mixed-basis sides keep the interval path, so a
  single-base fast path should leave it unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction

_CUT_FRACTIONS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))
_SIDE_COEFFS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))
TILINGS_PER_BATCH = 1000
MIXED_PER_BATCH = 750  # the rest have pi-parallel sides


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_cli(cli, argv: list[str], stdin_text: str) -> tuple[int, str]:
    """One ``commensura`` invocation in this process: the input arrives on
    stdin, the report is captured from stdout."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def heawood_edges() -> list[str]:
    """Edge ids of the built-in Heawood graph, e0 .. e20."""
    return [f"e{i}" for i in range(21)]


def _check_cli(errors: list, label: str, got: tuple[int, str], code: int, want_digest: str) -> None:
    if got[0] != code:
        errors.append(f"{label}: exit code {got[0]}, expected {code}")
    elif digest(got[1]) != want_digest:
        errors.append(f"{label}: report digest {digest(got[1])[:16]} differs from the recorded one")


# ---------------------------------------------------------------------------
# heawood-analyze
# ---------------------------------------------------------------------------


class HeawoodAnalyze:
    """``commensura --format machine analyze`` on the Heawood graph."""

    verdicts_per_op = 612
    coverage = {"cycles": 213, "pairs": 42, "bars": 336, "segments": 21, "complete": True}
    argv = ["--format", "machine", "analyze", "-"]

    def __init__(self, cm, seed: int, expected: dict):
        self.cm = cm
        self.expected = expected
        # the Heawood graph is fixed; the seed has nothing to choose here
        self.text = cm.generators.generate("heawood")
        # small conformant graphs that walk the same analyze path
        self.warm_texts = [
            cm.generators.generate("circle", edges=6),
            cm.generators.generate("theta", length="PI"),
        ]

    def warm_up(self) -> None:
        for text in self.warm_texts:
            run_cli(self.cm.cli, self.argv, text)

    def operation(self):
        return run_cli(self.cm.cli, self.argv, self.text)

    def check(self, result) -> list[str]:
        errors: list[str] = []
        _check_cli(errors, "analyze heawood", result, 0, self.expected["heawood-analyze"])
        if errors:
            return errors
        report = json.loads(result[1])
        if report["conformant"] is not True:
            errors.append("analyze heawood: report is not conformant")
        if report["coverage"] != self.coverage:
            errors.append(f"analyze heawood: coverage {report['coverage']}")
        return errors


# ---------------------------------------------------------------------------
# audit-mix
# ---------------------------------------------------------------------------


class AuditMix:
    """One round: ``check`` PG(2,3), ``check`` Heawood, and ``analyze`` a
    Heawood graph with one seeded edge lengthened by 1, which must be
    rejected with the exact PI + 1/2 witness."""

    verdicts_per_op = 3
    check_argv = ["--format", "machine", "check", "-"]
    analyze_argv = ["--format", "machine", "analyze", "-"]

    def __init__(self, cm, seed: int, expected: dict):
        gen = cm.generators.generate
        self.cm = cm
        self.expected = expected["audit-mix"]
        self.edge = _rng("audit-mix", seed).choice(heawood_edges())
        self.pg3 = gen("incidence_pg", q="3")
        self.heawood = gen("heawood")
        self.perturbed = gen("perturb", base="heawood", edge=self.edge, delta="1")

    def warm_up(self) -> None:
        # the rejected analyze runs the whole audit before its hint
        run_cli(self.cm.cli, self.analyze_argv, self.perturbed)

    def operation(self):
        cli = self.cm.cli
        return (
            run_cli(cli, self.check_argv, self.pg3),
            run_cli(cli, self.check_argv, self.heawood),
            run_cli(cli, self.analyze_argv, self.perturbed),
        )

    def check(self, result) -> list[str]:
        pg3, heawood, perturbed = result
        want = self.expected
        errors: list[str] = []
        _check_cli(errors, "check pg3", pg3, 0, want["check-pg3"])
        _check_cli(errors, "check heawood", heawood, 0, want["check-heawood"])
        _check_cli(
            errors, f"analyze perturbed {self.edge}", perturbed, 2,
            want["analyze-perturbed"][self.edge],
        )
        if not errors:
            report = json.loads(perturbed[1])
            failure = report["failure"]
            if (
                report["audit"]["point_diameter"]["max_distance"] != "PI + 1/2"
                or failure["kind"] != "hypothesis-violation"
                or not failure["incommensurable_cycle"]
            ):
                errors.append("analyze perturbed: witness or hint missing")
        return errors


# ---------------------------------------------------------------------------
# dehn-tilings
# ---------------------------------------------------------------------------


def _literal(rational: Fraction, pi: Fraction) -> str:
    """``rational + pi*PI`` in the scalar grammar, without spaces."""
    terms = []
    if pi:
        terms.append(f"{pi}*PI")
    if rational:
        terms.append(str(rational))
    return "+".join(terms)


def _guillotine(rng: random.Random, pieces: int) -> list[tuple]:
    """Random guillotine cuts of the unit square into ``pieces`` rectangles
    (x0, x1, y0, y1) with rational corners."""
    rects = [(Fraction(0), Fraction(1), Fraction(0), Fraction(1))]
    while len(rects) < pieces:
        x0, x1, y0, y1 = rects.pop(rng.randrange(len(rects)))
        cut = rng.choice(_CUT_FRACTIONS)
        if rng.random() < 0.5:
            xm = x0 + cut * (x1 - x0)
            rects += [(x0, xm, y0, y1), (xm, x1, y0, y1)]
        else:
            ym = y0 + cut * (y1 - y0)
            rects += [(x0, x1, y0, ym), (x0, x1, ym, y1)]
    return rects


def measure_tiling_text(rng: random.Random, mixed: bool) -> str:
    """A guillotine tiling of a W x H rectangle as a measure tiling.

    Mixed sides (W = a + b*PI, H = c + d*PI, not parallel) make every piece
    a non-square rectangle, so the Dehn test must return a certificate;
    PI-parallel sides must come back commensurable.
    """
    if mixed:
        while True:
            a, b, c, d = (rng.choice(_SIDE_COEFFS) for _ in range(4))
            if a * d != b * c:
                break
        width, height = (a, b), (c, d)
    else:
        width = (Fraction(0), rng.choice(_SIDE_COEFFS))
        height = (Fraction(0), rng.choice(_SIDE_COEFFS))
    rects = _guillotine(rng, rng.randint(3, 8))
    xs = sorted({r[0] for r in rects} | {r[1] for r in rects})
    ys = sorted({r[2] for r in rects} | {r[3] for r in rects})

    def space(axis: str, prefix: str, cuts: list, side: tuple) -> str:
        items = []
        for i, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            w = hi - lo
            items.append(f"{prefix}{i}={_literal(w * side[0], w * side[1])}")
        return f"space {axis} " + " ".join(items)

    lines = [space("X", "x", xs, width), space("Y", "y", ys, height)]
    for x0, x1, y0, y1 in rects:
        a_side = ",".join(f"x{i}" for i in range(len(xs) - 1) if x0 <= xs[i] and xs[i + 1] <= x1)
        b_side = ",".join(f"y{k}" for k in range(len(ys) - 1) if y0 <= ys[k] and ys[k + 1] <= y1)
        lines.append(f"piece A={{{a_side}}} B={{{b_side}}}")
    return "\n".join(lines) + "\n"


def tiling_batch(seed: int, index: int) -> list[tuple[str, bool]]:
    """Batch ``index`` of the run with this seed: (text, mixed) pairs,
    three quarters mixed, in seeded order."""
    rng = _rng(f"dehn-tilings:{index}", seed)
    kinds = [True] * MIXED_PER_BATCH + [False] * (TILINGS_PER_BATCH - MIXED_PER_BATCH)
    rng.shuffle(kinds)
    return [(measure_tiling_text(rng, mixed), mixed) for mixed in kinds]


class DehnTilings:
    """One operation: 1000 measure tilings parsed, decided, and every
    certificate re-checked through ``functional_identity``."""

    verdicts_per_op = TILINGS_PER_BATCH
    batches = 4  # distinct batches, used in turn
    warm_tilings = 200

    def __init__(self, cm, seed: int, expected: dict):
        self.cm = cm
        self.inputs = [tiling_batch(seed, i) for i in range(self.batches)]
        self.warm_batch = tiling_batch(seed, self.batches)[:self.warm_tilings]
        self.next = 0

    def _decide(self, batch):
        dehn = self.cm.dehn
        out = []
        for text, _ in batch:
            tiling = dehn.parse_measure_tiling(text)
            verdict = dehn.dehn_test(tiling)
            identity = None
            if isinstance(verdict, dehn.DehnCertificate):
                identity = dehn.functional_identity(tiling, verdict.functional)
            out.append((tiling, verdict, identity))
        return out

    def warm_up(self) -> None:
        self._decide(self.warm_batch)

    def operation(self):
        batch = self.inputs[self.next]
        self.next = (self.next + 1) % self.batches
        return batch, self._decide(batch)

    def check(self, result) -> list[str]:
        dehn = self.cm.dehn
        batch, decided = result
        errors: list[str] = []
        for i, ((_, mixed), (tiling, verdict, identity)) in enumerate(zip(batch, decided)):
            if mixed:
                if not isinstance(verdict, dehn.DehnCertificate):
                    errors.append(f"tiling {i}: mixed sides but verdict {type(verdict).__name__}")
                elif not identity[0] == identity[1] == verdict.lhs:
                    errors.append(f"tiling {i}: functional identity {identity} vs lhs {verdict.lhs}")
                elif verdict.violated.status != "not-square":
                    errors.append(f"tiling {i}: violated axiom {verdict.violated.status}")
            elif not isinstance(verdict, dehn.CommensurableVerdict):
                errors.append(f"tiling {i}: PI-parallel sides but verdict {type(verdict).__name__}")
            else:
                ratios = verdict.x_ratios + verdict.y_ratios
                measures = tiling.x_measures + tiling.y_measures
                if any(verdict.base.scale(r) != m for r, m in zip(ratios, measures)):
                    errors.append(f"tiling {i}: ratios do not rebuild the side measures")
        if len(decided) != len(batch):
            errors.append(f"{len(decided)} verdicts for {len(batch)} tilings")
        return errors


WORKLOADS = {
    "heawood-analyze": HeawoodAnalyze,
    "audit-mix": AuditMix,
    "dehn-tilings": DehnTilings,
}
