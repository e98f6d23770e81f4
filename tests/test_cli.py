"""End-to-end runs of the command line interface, one process, no shell."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commensura import cli
from commensura.cli import _machine_chunks, main
from commensura.engine import analyze
from commensura.generators import generate
from commensura.graph import parse_graph

HEX1 = "e0,e1,e10,e11,e6,e7"
HEX2 = "e13,e14,e15,e17,e3,e5"
OCT = "e0,e1,e10,e11,e18,e19,e4,e5"

PLUS_CONFORMING = """\
space X x1=1 x2=1 x3=5/2 x4=5/2
space Y y1=3/2 y2=1
piece A={x1} B={y1}
piece A={x2} B={y1}
piece A={x1} B={y2}
piece A={x2} B={y2}
piece A={x3} B={y1,y2}
piece A={x4} B={y1,y2}
"""

PLUS_PI = """\
space X a=1 b=1 c=1 d=3 e=2*PI
space Y u=1 v=PI+1
piece A={a} B={v}
piece A={b} B={v}
piece A={a} B={u}
piece A={b} B={u}
piece A={c} B={u}
"""

# a declared symbol puts the solve columns at symbol indices 1 and 2
H_BY_PI = """\
symbol h 2.5 err 1/100
space X x0=PI x1=h
space Y y0=2*PI
piece A={x0} B={y0}
piece A={x1} B={y0}
"""

UNIT_BY_PI = """\
space X x1=1
space Y y1=PI
piece A={x1} B={y1}
"""


def _json_text(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _machine_text(payload):
    return "".join(_machine_chunks(payload))


@pytest.fixture(autouse=True)
def machine_reports_match_json(monkeypatch):
    """Every machine report a test here prints must be the text json.dumps
    writes with sorted keys and a two-space indent.  The payload's arrays
    may be one-shot iterators, so the check re-encodes the parsed text."""

    def checked(payload):
        text = _machine_text(payload)
        assert text == _json_text(json.loads(text))
        return [text]

    monkeypatch.setattr(cli, "_machine_chunks", checked)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def heawood_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("graphs") / "heawood.graph"
    p.write_text(generate("heawood"))
    return str(p)


@pytest.fixture(scope="module")
def theta_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("graphs") / "theta.graph"
    p.write_text(generate("theta", strands="3", length="PI"))
    return str(p)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_conformant_graph(capsys, heawood_path):
    code, out, _ = run(capsys, "check", heawood_path)
    assert code == 0
    assert "audit: ok" in out
    assert "girth 2*PI" in out


def test_check_machine_output_is_json(capsys, heawood_path):
    code, out, _ = run(capsys, "--format", "machine", "check", heawood_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "audit"
    assert doc["audit"]["ok"] is True
    assert doc["audit"]["min_degree"]["value"] == 3


def test_check_reports_violation_with_witness(capsys, tmp_path):
    path = write(tmp_path, "bad.graph", generate("circle", edges="6", length="2*PI+1"))
    code, out, _ = run(capsys, "check", path)
    assert code == 2
    assert "point diameter PI + 1/2" in out
    assert "violated" in out
    assert "witness points" in out


def test_check_named_subgraph(capsys, tmp_path, heawood_path):
    with open(heawood_path) as fh:
        text = fh.read() + f"subgraph hex {HEX1.replace(',', ' ')}\n"
    path = write(tmp_path, "named.graph", text)
    code, out, _ = run(capsys, "check", path, "--subgraph", "hex")
    assert code == 0
    assert "subgraph: hex" in out


def test_check_unknown_subgraph_is_usage_error(capsys, heawood_path):
    code, _, err = run(capsys, "check", heawood_path, "--subgraph", "nope")
    assert code == 1
    assert "no subgraph named" in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_theta(capsys, theta_path):
    code, out, _ = run(capsys, "analyze", theta_path)
    assert code == 0
    assert "conformant: yes" in out
    assert "segment s0" in out
    assert "1/2*cycle(s0,s1)" in out


def test_analyze_machine_report(capsys, theta_path):
    code, out, _ = run(capsys, "--format", "machine", "analyze", theta_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "analysis"
    assert doc["conformant"] is True
    assert doc["coverage"] == {
        "cycles": 3, "pairs": 0, "bars": 0, "segments": 3, "complete": True,
    }
    assert [c["pi_ratio"] for c in doc["cycles"]] == ["2", "2", "2"]


def test_analyze_runs_are_byte_identical(capsys, theta_path):
    _, first, _ = run(capsys, "--format", "machine", "analyze", theta_path)
    _, second, _ = run(capsys, "--format", "machine", "analyze", theta_path)
    assert first == second


def test_analyze_violating_graph_exits_2(capsys, tmp_path):
    path = write(tmp_path, "bad.graph", generate("circle", edges="6", length="2*PI+1"))
    code, out, _ = run(capsys, "analyze", path)
    assert code == 2
    assert "hypothesis-violation" in out
    assert "incommensurable cycle" in out
    assert "2*PI + 1" in out


# ---------------------------------------------------------------------------
# chords / tile
# ---------------------------------------------------------------------------


def test_chords_of_hexagon_none(capsys, heawood_path):
    code, out, _ = run(capsys, "chords", "--loop", HEX1, heawood_path)
    assert code == 0
    assert "no chords" in out


def test_chords_of_octagon(capsys, heawood_path):
    code, out, _ = run(capsys, "--format", "machine", "chords", "--loop", OCT, heawood_path)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["chords"]) == 8
    assert all(c["distance"] == "2/3*PI" for c in doc["chords"])
    assert all(c["side"] == "1/3*PI" for c in doc["chords"])


def test_chords_rejects_non_cycle(capsys, heawood_path):
    code, _, err = run(capsys, "chords", "--loop", "e0,e1", heawood_path)
    assert code == 1
    assert "do not form one embedded cycle" in err


def test_tile_octagon(capsys, heawood_path):
    code, out, _ = run(capsys, "tile", "--loop", OCT, heawood_path)
    assert code == 0
    assert "verdict ok" in out
    assert "tiled=16/9*PI*PI" in out


def test_tile_pair_of_hexagons(capsys, heawood_path):
    code, out, _ = run(capsys, "tile", "--pair", HEX1, HEX2, heawood_path)
    assert code == 0
    assert out.count("verdict ok") == 2


@pytest.mark.parametrize(
    "argv", [["analyze"], ["tile", "--loop", OCT], ["tile", "--pair", HEX1, HEX2]]
)
def test_machine_format_builds_no_human_text(capsys, monkeypatch, heawood_path, argv):
    def refuse(*args):
        raise AssertionError("human text built under --format machine")

    monkeypatch.setattr(cli, "_human_analysis", refuse)
    monkeypatch.setattr(cli, "serialize_tiling", refuse)
    code, out, _ = run(capsys, "--format", "machine", *argv, heawood_path)
    assert code == 0 and json.loads(out)


def test_tile_needs_exactly_one_mode(capsys, heawood_path):
    code, _, err = run(capsys, "tile", heawood_path)
    assert code == 1
    assert "exactly one of" in err
    code, _, err = run(
        capsys, "tile", "--loop", OCT, "--pair", HEX1, HEX2, heawood_path
    )
    assert code == 1


def test_tile_rejects_overlapping_pair(capsys, heawood_path):
    code, _, err = run(capsys, "tile", "--pair", HEX1, OCT, heawood_path)
    assert code == 1
    assert "not disjoint" in err


def test_tile_loop_shorter_than_two_pi_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "theta.graph"
    path.write_text("vertex u\nvertex v\nedge s0 u v 1\nedge s1 u v PI - 1\nedge s2 u v PI - 1\n")
    for fmt in ("human", "machine"):
        code, out, err = run(capsys, "--format", fmt, "tile", "--loop", "s1,s2", str(path))
        assert code == 1
        assert out == ""
        assert err == (
            "error: loop s1,s2 of length 2*PI - 2: "
            "loop shorter than 2*pi has no annulus region\n"
        )


def test_tile_plot_export(capsys, tmp_path, heawood_path):
    plot = tmp_path / "plot.tsv"
    code, _, _ = run(
        capsys, "--export-plot", str(plot), "--plot-digits", "3",
        "tile", "--loop", OCT, heawood_path,
    )
    assert code == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "context\tlabel\tkind\tcenter_x\tcenter_y\thalf_u\thalf_v"
    assert len(lines) == 9  # header + 8 chord squares
    first = lines[1].split("\t")
    assert first[:3] == ["annulus", "chord0", "square"]
    assert first[5] == first[6] == "1.047"  # z = pi/3 both ways


# a Heawood hexagon pair whose first cycle runs over e0; perturbing e0
# breaks the product tiling in three different ways
@pytest.mark.parametrize(
    "delta, lifts, verdict",
    [
        ("1", None, "verdict area-mismatch tiled=4*PI*PI region=4*PI*PI + 2*PI"),
        (
            "1/6*PI",
            (12, 13),
            "verdict gap witness=(1/4*PI,11/6*PI) tiled=4*PI*PI region=13/3*PI*PI",
        ),
        (
            "-1/12*PI",
            (24, 23),
            "verdict overlap witness=(1/6*PI,15/8*PI) pieces=chord3,chord5"
            " tiled=4*PI*PI region=23/6*PI*PI",
        ),
    ],
    ids=["area-mismatch", "gap", "overlap"],
)
def test_tile_pair_of_perturbed_hexagons(capsys, tmp_path, delta, lifts, verdict):
    from commensura.chords import cross_chords, loop_from_cycle
    from commensura.generators import build
    from commensura.graph import cycles_of
    from commensura.tilings import product_tiling, psi_transform

    pair = ("e0,e10,e11,e6,e7,e1", "e3,e15,e17,e14,e13,e5")
    text = generate("perturb", base="heawood", edge="e0", delta=delta)
    path = write(tmp_path, "perturbed.graph", text)
    code, out, _ = run(capsys, "tile", "--pair", *pair, path)
    assert code == 3
    assert out.splitlines()[-1] == verdict
    assert out.count("verdict") == 1  # no torus form follows a failed product
    code, out, _ = run(capsys, "--format", "machine", "tile", "--pair", *pair, path)
    assert code == 3
    doc = json.loads(out)
    assert doc["axis"] is None
    assert doc["product"]["verdict"]["status"] == verdict.split()[1]
    if lifts is not None:
        g = build("perturb", base="heawood", edge="e0", delta=delta)
        c1, c2 = (
            next(c for c in cycles_of(g.whole()) if c.edge_ids == set(spec.split(",")))
            for spec in pair
        )
        chords = cross_chords(loop_from_cycle(g, c1), loop_from_cycle(g, c2))
        product = product_tiling(g, c1, c2, chords)
        assert psi_transform(product).region.lift_counts == lifts


def test_tile_pair_refuses_lifts_above_the_cycle_cap(capsys, tmp_path):
    # lifts 24 x 23 and six chords make 2*24*23*6 = 6624 torus translates
    pair = ("e0,e10,e11,e6,e7,e1", "e3,e15,e17,e14,e13,e5")
    path = write(tmp_path, "p.graph", generate("perturb", base="heawood", edge="e0", delta="-1/12*PI"))
    code, out, err = run(capsys, "tile", "--pair", *pair, path, "--cycle-cap", "6623")
    assert code == 4
    assert out == ""
    assert err == "resource limit: enumeration exceeded cap of 6623\n"
    code, _, _ = run(capsys, "tile", "--pair", *pair, path, "--cycle-cap", "6624")
    assert code == 3  # the overlap of the default run


def test_analyze_names_the_pair_whose_lifts_exceed_the_cap(capsys, tmp_path):
    # two disjoint hexagons: 2 cycles, then one pair of 2*1*1*6 = 12 translates
    text = generate("heawood") + f"subgraph hh {HEX1.replace(',', ' ')} {HEX2.replace(',', ' ')}\n"
    path = write(tmp_path, "hh.graph", text)
    code, out, err = run(capsys, "analyze", "--subgraph", "hh", path, "--cycle-cap", "11")
    assert code == 4
    assert out == ""
    assert err == (
        "resource limit: enumeration exceeded cap of 11"
        f" (stage pairs, subject {HEX1.replace(',', ', ')}; {HEX2.replace(',', ', ')})\n"
    )
    code, out, _ = run(capsys, "analyze", "--subgraph", "hh", path, "--cycle-cap", "12")
    assert code == 0
    assert "pairs 1" in out


@pytest.mark.parametrize("digits", ["-1", "18", "200000"])
def test_plot_digits_out_of_range_is_usage_error(capsys, tmp_path, heawood_path, digits):
    plot = tmp_path / "plot.tsv"
    code, out, err = run(
        capsys, "--export-plot", str(plot), "--plot-digits", digits,
        "tile", "--loop", OCT, heawood_path,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: --plot-digits")
    assert not plot.exists()


@pytest.mark.parametrize("digits", ["0", "17"])
def test_plot_digits_limits_are_inclusive(capsys, tmp_path, heawood_path, digits):
    plot = tmp_path / "plot.tsv"
    code, _, _ = run(
        capsys, "--export-plot", str(plot), "--plot-digits", digits,
        "tile", "--loop", OCT, heawood_path,
    )
    assert code == 0
    half = plot.read_text().splitlines()[1].split("\t")[5]
    assert len(half.partition(".")[2]) == int(digits)


@pytest.mark.parametrize("where", ["before", "after"])
def test_negative_cycle_cap_is_usage_error(capsys, heawood_path, where):
    flag = ("--cycle-cap", "-1")
    argv = [*flag, "analyze", heawood_path] if where == "before" else ["analyze", heawood_path, *flag]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: --cycle-cap")


@pytest.mark.parametrize("cap, stage", [(5, "cycles"), (300, "bars")])
def test_cycle_cap_names_the_stage_that_hit_it(capsys, heawood_path, cap, stage):
    # Heawood has 213 cycles and 336 bars, so a cap of 300 stops at the bars
    code, out, err = run(capsys, "analyze", heawood_path, "--cycle-cap", str(cap))
    assert code == 4
    assert out == ""
    assert err == f"resource limit: enumeration exceeded cap of {cap} (stage {stage})\n"


def test_audit_resource_limit_names_the_stage(capsys, tmp_path):
    # h is a second handle on pi, so the PI and h strands tie undecidably
    # in the audit's shortest paths
    text = "symbol h pi\nvertex a\nvertex b\nedge s0 a b PI\nedge s1 a b h\nedge s2 a b PI\n"
    code, out, err = run(capsys, "analyze", write(tmp_path, "tie.g", text))
    assert code == 4
    assert out == ""
    assert err == "resource limit: shortest-path relaxation undecidable (stage audit)\n"


def test_plot_export_rejected_without_tiling(capsys, heawood_path):
    code, _, err = run(capsys, "--export-plot", "/tmp/x.tsv", "check", heawood_path)
    assert code == 1
    assert "only applies to" in err


# ---------------------------------------------------------------------------
# dehn
# ---------------------------------------------------------------------------


def test_dehn_commensurable_tiling(capsys, tmp_path):
    from commensura.dehn import serialize_measure_tiling
    from commensura.scalars import SymbolTable

    from test_dehn import squared_rect_tiling

    text = serialize_measure_tiling(squared_rect_tiling(SymbolTable()))
    path = write(tmp_path, "rect.mt", text)
    code, out, _ = run(capsys, "dehn", path)
    assert code == 0
    assert "verify: ok" in out
    assert "x ratios: 14, 4, 6, 1, 8" in out
    assert "y ratios: 15, 3, 4, 1, 9" in out


def test_dehn_pi_sided_square_tiling_fails(capsys, tmp_path):
    path = write(tmp_path, "unit.mt", UNIT_BY_PI)
    code, out, _ = run(capsys, "dehn", path)
    assert code == 3
    assert "incommensurable" in out
    assert "violated axiom: not-square" in out


def test_dehn_certificate_functional_keyed_by_symbol(capsys, tmp_path):
    path = write(tmp_path, "h.tiling", H_BY_PI)
    code, out, _ = run(capsys, "--format", "machine", "dehn", path)
    assert code == 3
    dehn = json.loads(out)["dehn"]
    assert dehn["verdict"] == "certificate"
    assert dehn["functional"] == {"1": "-1/2", "2": "3/2"}
    # f(muX) * f(muY) = 1 * (-1) < 0, impossible for a sum of squares
    assert dehn["lhs"] == "-1"
    assert dehn["piece_products"] == ["1/2", "-3/2"]


def test_dehn_two_parameter_commensurable(capsys, tmp_path):
    path = write(tmp_path, "plus.mt", PLUS_CONFORMING)
    code, out, _ = run(
        capsys, "dehn", path,
        "--q", "1/2", "--r", "1", "--total", "6", "--designated", "2,3,4,5",
    )
    assert code == 0
    assert "verify: ok" in out
    assert "q = 1/2 * r" in out


def test_dehn_two_parameter_certificate(capsys, tmp_path):
    path = write(tmp_path, "pluspi.mt", PLUS_PI)
    code, out, _ = run(
        capsys, "--format", "machine", "dehn", path,
        "--q", "PI", "--r", "1", "--total", "6", "--designated", "2,3,4",
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["dehn_plus"]["verdict"] == "certificate"
    assert doc["dehn_plus"]["functional"] == {"0": "-1", "1": "2"}
    assert doc["dehn_plus"]["f_mu_x"] == "-2"
    assert doc["dehn_plus"]["violated"]["status"] == "uncovered"


def test_dehn_two_parameter_needs_all_flags(capsys, tmp_path):
    path = write(tmp_path, "plus.mt", PLUS_CONFORMING)
    code, _, err = run(capsys, "dehn", path, "--q", "1/2")
    assert code == 1
    assert "--total" in err


def test_dehn_audit_failure_exits_3(capsys, tmp_path):
    path = write(tmp_path, "plus.mt", PLUS_CONFORMING)
    code, out, _ = run(
        capsys, "dehn", path,
        "--q", "1/2", "--r", "1", "--total", "8", "--designated", "2,3",
    )
    assert code == 3
    assert "audit failure" in out


@pytest.mark.parametrize(
    "total, designated, culprit",
    [("1/0", "2", "--total"), ("x", "2", "--total"), ("6", "x", "--designated")],
    ids=["total-zero-denominator", "total-not-rational", "designated-not-integer"],
)
def test_dehn_two_parameter_malformed_numbers_are_usage_errors(
    capsys, tmp_path, total, designated, culprit
):
    path = write(tmp_path, "plus.mt", PLUS_CONFORMING)
    code, _, err = run(
        capsys, "dehn", path,
        "--q", "1/2", "--r", "1", "--total", total, "--designated", designated,
    )
    assert code == 1
    assert err.startswith(f"error: {culprit}")


@pytest.mark.parametrize(
    "flag, literal, reason",
    [("--q", "zz", "unknown symbol: zz"), ("--r", "1+", "expected a term")],
    ids=["unknown-symbol", "dangling-operator"],
)
def test_dehn_bad_scalar_literal_is_usage_error(capsys, tmp_path, flag, literal, reason):
    path = write(tmp_path, "plus.mt", PLUS_CONFORMING)
    given = {"--q": "1/2", "--r": "1", flag: literal}
    code, out, err = run(
        capsys, "dehn", path, "--q", given["--q"], "--r", given["--r"], "--total", "6"
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} must be a scalar literal, got {literal!r} ({reason})\n"


@pytest.mark.parametrize(
    "text",
    [
        "space X x0=1 x0=2\nspace Y y0=1\npiece A={x0} B={y0}\n",
        "space X x0=1\nspace Y y0=1 y1=1\npiece A={x0} B={y0} B={y1}\n",
    ],
    ids=["duplicate-element", "repeated-side"],
)
def test_dehn_malformed_tiling_is_input_error(capsys, tmp_path, text):
    path = write(tmp_path, "bad.mt", text)
    code, out, err = run(capsys, "dehn", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: line ")


# ---------------------------------------------------------------------------
# decompose / gen
# ---------------------------------------------------------------------------


def test_decompose_dumbbell_bar(capsys, tmp_path):
    path = write(tmp_path, "db.graph", generate("dumbbell"))
    code, out, _ = run(capsys, "decompose", "--segment", "bar", path)
    assert code == 0
    assert "(1) * bar(bar)" in out
    assert "re-expansion verified" in out


def test_decompose_machine_report(capsys, theta_path):
    code, out, _ = run(
        capsys, "--format", "machine", "decompose", "--segment", "s0", theta_path
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "decomposition"
    assert doc["verified"] is True
    assert [t["coefficient"] for t in doc["decomposition"]] == ["1/2", "1/2", "-1/2"]


def test_decompose_unknown_segment(capsys, theta_path):
    code, _, err = run(capsys, "decompose", "--segment", "s0,s1", theta_path)
    assert code == 1
    assert "no segment with edges" in err


def test_gen_writes_graph_text(capsys):
    code, out, _ = run(capsys, "gen", "circle", "edges=4", "length=2*PI")
    assert code == 0
    assert "vertex v0" in out
    assert "edge c0 v0 v1 1/2*PI" in out


def test_gen_unknown_name(capsys):
    code, _, err = run(capsys, "gen", "moebius")
    assert code == 1
    assert "unknown generator" in err


def test_gen_bad_param_syntax(capsys):
    code, _, err = run(capsys, "gen", "circle", "edges")
    assert code == 1
    assert "key=value" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("perturb", "base=heawood", "edge=e0", "delta=x"),
         "delta must be a scalar literal, got 'x' (unknown symbol: x)"),
        (("circle", "length=zz"), "length must be a scalar literal, got 'zz' (unknown symbol: zz)"),
    ],
    ids=["perturb-delta", "circle-length"],
)
def test_gen_bad_scalar_literal_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("circle", "edges=x"), "edges must be an integer, got 'x'"),
        (("incidence_pg", "q=x"), "q must be an integer, got 'x'"),
        (("theta", "strands=2.5"), "strands must be an integer, got '2.5'"),
    ],
    ids=["circle-edges", "incidence-q", "theta-strands"],
)
def test_gen_bad_integer_literal_is_usage_error(capsys, argv, message):
    code, out, err = run(capsys, "gen", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_gen_oversized_graph_is_usage_error(capsys, monkeypatch):
    from commensura.graph import MetricGraph

    def add_vertex(self, v):
        raise AssertionError("a vertex was added before the size check")

    monkeypatch.setattr(MetricGraph, "add_vertex", add_vertex)
    code, _, err = run(capsys, "gen", "circle", "edges=100000000")
    assert code == 1
    assert "100000000 edges" in err


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("where", ["before", "after"])
def test_precision_bits_above_the_limit_is_usage_error(capsys, tmp_path, where):
    path = write(tmp_path, "circle.graph", generate("circle", length="2*PI"))
    flag = ("--precision-bits", "65537")
    argv = [*flag, "check", path] if where == "before" else ["check", path, *flag]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "65536" in err
    code, _, _ = run(capsys, "check", path, "--precision-bits", "65536")
    assert code == 0


@pytest.mark.parametrize("bits", ["0", "63", "-5"])
def test_precision_bits_below_the_first_rung_is_usage_error(capsys, tmp_path, bits):
    path = write(tmp_path, "circle.graph", generate("circle", length="2*PI"))
    code, out, err = run(capsys, "analyze", path, "--precision-bits", bits)
    assert code == 1
    assert out == ""
    assert "64..65536" in err


def test_precision_bits_at_the_first_rung_is_used(capsys, tmp_path):
    path = write(tmp_path, "circle.graph", generate("circle", length="2*PI"))
    code, out, _ = run(capsys, "--format", "machine", "analyze", path, "--precision-bits", "64")
    assert code == 0
    assert json.loads(out)["precision_bits"] == 64


def test_missing_file_is_input_error(capsys):
    code, _, err = run(capsys, "check", "/nonexistent/graph.txt")
    assert code == 1
    assert "error" in err


def test_malformed_graph_is_input_error(capsys, tmp_path):
    path = write(tmp_path, "junk.graph", "vertex a\nfrobnicate b\n")
    code, _, err = run(capsys, "check", path)
    assert code == 1
    assert "unknown directive" in err


@pytest.mark.parametrize("length", ["-1", "0"])
def test_nonpositive_length_is_input_error(capsys, tmp_path, length):
    path = write(tmp_path, "neg.graph", f"vertex a\nvertex b\nedge e a b {length}\n")
    code, out, err = run(capsys, "check", path)
    assert (code, out) == (1, "")
    assert err == "error: edge e has nonpositive length\n"


def test_disconnected_graph_is_input_error(capsys, tmp_path):
    path = write(tmp_path, "apart.graph", "vertex a\nvertex b\nvertex c\nedge e a b 1\n")
    code, out, err = run(capsys, "check", path)
    assert (code, out) == (1, "")
    assert err == "error: unreachable vertices: c\n"


def test_directory_input_is_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "check", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "directory" in err


def test_non_utf8_input_is_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.graph"
    path.write_bytes("vertex \u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: 'utf-8' codec can't decode")


def test_gen_nonpositive_perturbation_is_input_error(capsys):
    code, out, err = run(capsys, "gen", "perturb", "base=heawood", "edge=e0", "delta=-10")
    assert (code, out) == (1, "")
    assert err == "error: edge e0 has nonpositive length\n"


def test_stdin_dash(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(generate("theta", length="PI")))
    code, out, _ = run(capsys, "check", "-")
    assert code == 0
    assert "audit: ok" in out


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "error" in err


def test_global_flags_accepted_after_subcommand(capsys, theta_path):
    _, prefix, _ = run(capsys, "--format", "machine", "analyze", theta_path)
    code, postfix, _ = run(capsys, "analyze", "--format", "machine", theta_path)
    assert code == 0
    assert postfix == prefix
    code, out, _ = run(capsys, "analyze", theta_path, "--precision-bits", "128")
    assert code == 0
    assert "conformant: yes" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "commensura", "gen", "circle"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "vertex v0" in proc.stdout


# ---------------------------------------------------------------------------
# the machine encoder
# ---------------------------------------------------------------------------

_json_strings = st.one_of(
    st.text(max_size=8),
    st.text(st.characters(max_codepoint=0x1F), max_size=4),
    st.sampled_from(["", "\"", "\\", "/", "\u2028", "\U0001F600", "pi \u03c0"]),
)
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    _json_strings,
)
_json_payloads = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_json_strings, inner, max_size=4),
    ),
    max_leaves=20,
)


def _iterated(value):
    """value with every list replaced by a one-shot iterator over it."""
    if isinstance(value, dict):
        return {k: _iterated(v) for k, v in value.items()}
    if isinstance(value, list):
        return iter([_iterated(v) for v in value])
    if isinstance(value, tuple):
        return tuple(_iterated(v) for v in value)
    return value


@given(st.dictionaries(_json_strings, _json_payloads, max_size=5))
@settings(max_examples=300, deadline=None)
def test_machine_text_matches_json(payload):
    assert _machine_text(payload) == _json_text(payload)
    assert _machine_text(_iterated(payload)) == _json_text(payload)


def test_machine_text_of_empty_and_mixed_containers():
    payload = {"a": {}, "b": [], "c": [True, 1, False, 0, None], "d": [{}, [[]], {"x": ()}], "\u00e9": 10**40}
    assert _machine_text(payload) == _json_text(payload)


@pytest.mark.parametrize(
    "make",
    [
        lambda wrap: {"x": wrap([])},
        lambda wrap: {"x": wrap([{"k": 1}])},
        lambda wrap: {"x": wrap(range(50)), "y": wrap(["a", None, True])},
        lambda wrap: {"x": wrap([wrap([]), wrap([wrap([1, 2])]), {"y": wrap([{}])}])},
        lambda wrap: {"x": wrap({"i": i, "s": [str(i)] * (i % 3)} for i in range(400))},
    ],
    ids=["empty", "one", "many", "nested", "records"],
)
def test_machine_text_writes_an_iterator_as_its_list(make):
    assert _machine_text(make(iter)) == _json_text(make(list))


def test_machine_chunks_stay_bounded_on_a_long_iterator():
    rows = 5 * cli._CHUNK_PIECES
    payload = {"rows": ({"n": n} for n in range(rows))}
    chunks = list(_machine_chunks(payload))
    assert "".join(chunks) == _json_text({"rows": [{"n": n} for n in range(rows)]})
    assert len(chunks) >= 5
    # every piece here (an indent, a key, a bracket or an int) is at most
    # 10 characters long
    assert max(map(len, chunks)) <= 10 * (cli._CHUNK_PIECES + 8)


@pytest.mark.parametrize(
    "payload",
    [
        {"x": 0.5}, {"x": [1, 2.0]}, {1: "a"}, {"x": {None: 1}}, {"x": {1, 2}},
        {"x": iter([1, 0.5])}, {"x": iter([{2: "a"}])},
    ],
    ids=["float", "nested-float", "int-key", "none-key", "set", "iterated-float", "iterated-int-key"],
)
def test_machine_text_refuses_what_json_would_change(payload):
    with pytest.raises(TypeError):
        _machine_text(payload)


def test_machine_report_streams_in_bounded_memory():
    """Writing the Heawood analysis report takes under 1 MB beyond the
    finished analysis: one chunk and one record at a time, where the
    report's text alone is 1.68 MB."""
    graph = parse_graph(generate("heawood"))
    result = analyze(graph, graph.whole(), subgraph_name="whole")
    size = 0
    tracemalloc.start()
    try:
        for chunk in _machine_chunks(result.as_report(records=iter)):
            size += len(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size == 1_678_154
    assert peak < 1_000_000


def test_closed_pipe_exits_1_without_a_shutdown_error(heawood_path):
    """A reader that stops early leaves the report undelivered: exit 1 and
    one error line, with no exception reported at interpreter exit."""
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    with subprocess.Popen(
        [sys.executable, "-m", "commensura", "--format", "machine", "analyze", heawood_path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        # the report is far larger than a pipe's buffer, so the writer is
        # still writing when the reader goes
        assert proc.stdout.read(20) == b'{\n  "audit": {\n    "'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert err == "error: [Errno 32] Broken pipe\n"
