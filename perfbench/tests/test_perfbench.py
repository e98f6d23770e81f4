"""Tests of the benchmark itself: seeded inputs, the correctness oracle,
and the exact counts of the traced run.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The traced Heawood test runs one full ``analyze`` and takes about a minute.
"""

import json

import pytest

import run
import workloads
from tracing import COUNTED, SPANNED, Tracer, _package_modules

EXPECTED = json.loads((run.HERE / "expected.json").read_text())


@pytest.fixture(scope="module")
def cm():
    return run.fresh_import()


def _inputs(wl):
    if isinstance(wl, workloads.HeawoodAnalyze):
        return [wl.text]
    if isinstance(wl, workloads.AuditMix):
        return [wl.edge, wl.pg3, wl.heawood, wl.perturbed]
    return [text for batch in wl.inputs + [wl.warm_batch] for text, _ in batch]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(cm, name):
    make = workloads.WORKLOADS[name]
    first = _inputs(make(cm, 7, EXPECTED))
    again = _inputs(make(run.fresh_import(), 7, EXPECTED))
    assert first == again


def test_seed_changes_generated_inputs(cm):
    assert workloads.tiling_batch(1, 0) != workloads.tiling_batch(2, 0)
    edges = {workloads.AuditMix(cm, seed, EXPECTED).edge for seed in range(8)}
    assert len(edges) > 1


def test_tiling_batch_mix():
    batch = workloads.tiling_batch(3, 0)
    assert len(batch) == workloads.TILINGS_PER_BATCH
    assert sum(mixed for _, mixed in batch) == workloads.MIXED_PER_BATCH


@pytest.fixture(scope="module")
def audit_round(cm):
    wl = workloads.AuditMix(cm, 5, EXPECTED)
    return wl, wl.operation()


def test_audit_round_passes_its_oracle(audit_round):
    wl, result = audit_round
    assert wl.check(result) == []


def test_corrupted_report_is_a_failure(audit_round):
    wl, (pg3, heawood, (code, text)) = audit_round
    corrupted = text.replace("PI + 1/2", "PI + 1/3", 1)
    assert corrupted != text
    assert wl.check((pg3, heawood, (code, corrupted)))
    assert wl.check((pg3, heawood, (0, text)))  # wrong exit code


def test_corrupted_digest_is_a_failure(cm, audit_round):
    _, result = audit_round
    expected = json.loads(json.dumps(EXPECTED))
    expected["audit-mix"]["check-pg3"] = "0" * 64
    assert workloads.AuditMix(cm, 5, expected).check(result)


def _small_dehn(cm, size=40):
    wl = workloads.DehnTilings(cm, 11, EXPECTED)
    wl.inputs = [batch[:size] for batch in wl.inputs]
    return wl


def test_dehn_batch_passes_its_oracle(cm):
    wl = _small_dehn(cm)
    assert wl.check(wl.operation()) == []


def test_wrong_verdict_is_a_failure(cm):
    wl = _small_dehn(cm)
    batch, decided = wl.operation()
    flipped = [(text, not mixed) for text, mixed in batch]
    assert len(wl.check((flipped, decided))) == len(batch)
    i = next(k for k, (_, mixed) in enumerate(batch) if mixed)
    tiling, verdict, (lhs, rhs) = decided[i]
    broken = list(decided)
    broken[i] = (tiling, verdict, (lhs, rhs + 1))
    assert wl.check((batch, broken))


class _Flaky:
    verdicts_per_op = 1

    def __init__(self):
        self.calls = 0

    def operation(self):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("boom")
        return self.calls

    def check(self, result):
        return ["wrong"] if result == 3 else []


def test_measure_counts_raising_and_wrong_operations():
    times, failures = run.measure(_Flaky(), 0.0)
    assert len(times) == 1 and not failures
    wl = _Flaky()
    times = []
    failures = []
    for _ in range(4):
        t, f = run.measure(wl, 0.0)
        times += t
        failures += f
    assert len(times) == 4 and len(failures) == 2


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    e2e = run.end_to_end(workloads.HeawoodAnalyze, [1.0], [], 0.5)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]


def test_install_rebinds_every_binding():
    run.fresh_import()  # the tracer wraps the package as sys.modules holds it
    originals = []
    modules = _package_modules(run.PACKAGE)
    by_name = {m.__name__: m for m in modules}
    for table in (SPANNED, COUNTED):
        for short, names in table.items():
            for qual in names:
                obj = by_name[f"{run.PACKAGE}.{short}"]
                for part in qual.split("."):
                    obj = getattr(obj, part)
                originals.append(obj)
    tracer = Tracer(run.PACKAGE)
    tracer.install()
    try:
        assert tracer.missing == []
        for m in modules:
            for key, value in vars(m).items():
                assert all(value is not fn for fn in originals), f"{m.__name__}.{key}"
    finally:
        tracer.uninstall()
    for m in modules:
        assert not any(getattr(v, "__wrapped__", None) for v in vars(m).values() if callable(v))


def test_traced_heawood_counts():
    wl = workloads.HeawoodAnalyze(run.fresh_import(), 1, EXPECTED)
    tracer = Tracer(run.PACKAGE)
    tracer.install()
    try:
        times, failures = run.measure(wl, 0.0, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    calls = tracer.layer_totals()["calls"]
    assert calls["engine.analyze_cycle"] == 213
    assert calls["engine.analyze_cycle_pair"] == 42
    assert calls["engine.analyze_bar"] == 336
    assert calls["tilings.verify_tiling"] == 1011
    assert tracer.distinct["tilings.verify_tiling"] == 633
    assert calls["graph.dijkstra"] == 7007
    assert calls["cli.main"] == 1
