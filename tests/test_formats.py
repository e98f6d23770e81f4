"""The ``symbol`` lines shared by the graph and the measure-tiling formats.

Both formats declare symbols through one codec, so every case here runs
against each format.
"""

import pytest

from commensura._rat import Rat
from commensura.dehn import parse_measure_tiling, serialize_measure_tiling
from commensura.errors import GraphFormatError
from commensura.graph import parse_graph, serialize_graph

GRAPH_BODY = "vertex a\nvertex b\nedge e a b 3*PI\n"
TILING_BODY = "space X x0=PI\nspace Y y0=PI\npiece A={x0} B={y0}\n"

FORMATS = {
    "graph": (parse_graph, serialize_graph, GRAPH_BODY),
    "tiling": (parse_measure_tiling, serialize_measure_tiling, TILING_BODY),
}


@pytest.fixture(params=sorted(FORMATS))
def fmt(request):
    return FORMATS[request.param]


def test_symbol_lines_round_trip(fmt):
    parse, serialize, body = fmt
    header = "symbol h 2.5 err 1/100\nsymbol tau pi\nsymbol m -0.0625 err 3\n"
    first = parse(header + body)
    text = serialize(first)
    assert text.startswith(header)
    second = parse(text)
    assert serialize(second) == text
    h, tau, m = second.table.user_symbols()
    assert (h.name, h.kind, h.value, h.radius) == ("h", "decimal", Rat(5, 2), Rat(1, 100))
    assert (tau.name, tau.kind) == ("tau", "pi")
    assert (m.value, m.radius) == (Rat(-1, 16), Rat(3))


@pytest.mark.parametrize(
    "line,fragment",
    [
        # a PI term in the radius must not be dropped: that would narrow
        # the declared enclosure
        ("symbol h 2.5 err 1/100+PI", "error radius must be rational"),
        ("symbol h 1/0 err 1/100", "bad decimal"),
        # 1/3 has no decimal form, so the table could not be written back
        ("symbol h 1/3 err 1/100", "bad decimal"),
        ("symbol h 1e5 err 1/100", "bad decimal"),
        ("symbol h 2.5 err 0", "error radius must be positive"),
        ("symbol h 2.5 err 1/100 extra", "expected 'symbol NAME pi'"),
        ("symbol h", "expected 'symbol NAME pi'"),
    ],
)
def test_malformed_symbol_line_rejected(fmt, line, fragment):
    parse, _, body = fmt
    with pytest.raises(GraphFormatError) as err:
        parse(line + "\n" + body)
    assert "line 1" in str(err.value)
    assert fragment in str(err.value)
