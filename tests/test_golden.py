"""Golden digests of machine reports the benchmark oracle does not cover.

Each case runs one command with ``--format machine`` in process and pins
the sha256 of its stdout together with its exit code.  A refactor that
keeps every report byte-identical keeps every digest; a change that means
to alter a report must say so and record the new digest here.
"""

import hashlib

import pytest

from commensura.cli import main
from commensura.generators import generate

PERTURBED_HEX = "e0,e10,e11,e6,e7,e1"
HEX2 = "e3,e15,e17,e14,e13,e5"
OCT = "e0,e1,e10,e11,e18,e19,e4,e5"


def _k44(split: bool) -> str:
    """K4,4 with every edge PI/2, vertices declared as the k44 graph of
    tests/test_chords.py declares them.  Split, the edge u1-x1 carries a
    vertex a at PI/4 + h/10, declared last: its loops have more shapes (13)
    than distinct tilings (4)."""
    if split:
        lines = ["symbol h 2.5 err 1/100"] + [f"vertex {p}{i}" for p in "ux" for i in range(1, 5)]
        lines.append("vertex a")
    else:
        lines = [f"vertex {v}" for v in ("u1", "x1", "x2", "x3", "x4", "u2", "u3", "u4")]
    for i in range(1, 5):
        for j in range(1, 5):
            if split and (i, j) == (1, 1):
                lines += ["edge e0 u1 a 1/4*PI + 1/10*h", "edge f0 a x1 1/4*PI - 1/10*h"]
            else:
                lines.append(f"edge e{4 * i + j - 5} u{i} x{j} 1/2*PI")
    return "\n".join(lines) + "\n"


GRAPHS = {
    "dumbbell": generate("dumbbell"),
    "theta-mixed": "vertex u\nvertex v\nedge s0 u v 1\nedge s1 u v PI - 1\nedge s2 u v PI - 1\n",
    "heawood-perturbed": generate("perturb", base="heawood", edge="e0", delta="1/6*PI"),
    "k44": _k44(split=False),
    "k44-split": _k44(split=True),
}

TILINGS = {
    # commensurable: every side a rational multiple of 1
    "rational": """\
space X x1=1 x2=1 x3=5/2 x4=5/2
space Y y1=3/2 y2=1
piece A={x1} B={y1}
piece A={x2} B={y1}
piece A={x1} B={y2}
piece A={x2} B={y2}
piece A={x3} B={y1,y2}
piece A={x4} B={y1,y2}
""",
    # mixed directions: the second element is already off the first's line
    "mixed": """\
symbol h 2.5 err 1/100
space X x0=PI x1=h
space Y y0=2*PI
piece A={x0} B={y0}
piece A={x1} B={y0}
""",
    # one direction that is not the unit: the base is canonicalised
    "pi-line": """\
space X x0=2/3*PI x1=4/3*PI
space Y y0=2*PI
piece A={x0} B={y0}
piece A={x1} B={y0}
""",
    "plus-pi": """\
space X a=1 b=1 c=1 d=3 e=2*PI
space Y u=1 v=PI+1
piece A={a} B={v}
piece A={b} B={v}
piece A={a} B={u}
piece A={b} B={u}
piece A={c} B={u}
""",
    # the side measures below are not decided by one sign: a decimal
    # symbol, or coefficients of both signs, so positivity climbs the
    # interval rungs
    "mixed-decimal": """\
symbol h 2.5 err 1/100
space X x0=1+h x1=1/2*PI+1/2*h
space Y y0=3/2+PI y1=h
piece A={x0} B={y0}
piece A={x1} B={y0}
piece A={x0} B={y1}
piece A={x1} B={y1}
""",
    "mixed-negative": """\
space X x0=-1+PI x1=-1/2*PI+2 x2=3/2
space Y y0=-1*PI+4 y1=-1/2+1/3*PI
piece A={x0,x1} B={y0}
piece A={x2} B={y0}
piece A={x0} B={y1}
piece A={x1,x2} B={y1}
""",
    "mixed-tau": """\
symbol tau pi
space X x0=tau x1=-1+PI
space Y y0=-1+PI y1=1/2*tau
piece A={x0} B={y0}
piece A={x1} B={y0}
piece A={x0,x1} B={y1}
""",
}

PLUS = ("--total", "6")

CASES = {
    "dumbbell-chords": ("dumbbell", ["chords", "--loop", "la"]),
    "dumbbell-tile-loop": ("dumbbell", ["tile", "--loop", "la"]),
    "dumbbell-tile-pair": ("dumbbell", ["tile", "--pair", "la", "lb"]),
    "dumbbell-decompose": ("dumbbell", ["decompose", "--segment", "bar"]),
    "dumbbell-analyze": ("dumbbell", ["analyze"]),
    "theta-mixed-chords": ("theta-mixed", ["chords", "--loop", "s1,s2"]),
    "theta-mixed-tile-pair": ("theta-mixed", ["tile", "--pair", "s0,s1", "s1,s2"]),
    "theta-mixed-decompose": ("theta-mixed", ["decompose", "--segment", "s0"]),
    "theta-mixed-analyze": ("theta-mixed", ["analyze"]),
    "heawood-perturbed-chords": ("heawood-perturbed", ["chords", "--loop", PERTURBED_HEX]),
    "heawood-perturbed-tile-loop": ("heawood-perturbed", ["tile", "--loop", OCT]),
    "heawood-perturbed-tile-pair": (
        "heawood-perturbed", ["tile", "--pair", PERTURBED_HEX, HEX2]
    ),
    "heawood-perturbed-decompose": ("heawood-perturbed", ["decompose", "--segment", "e0"]),
    "heawood-perturbed-analyze": ("heawood-perturbed", ["analyze"]),
    "k44-analyze": ("k44", ["analyze"]),
    "k44-split-analyze": ("k44-split", ["analyze"]),
    "dehn-rational": ("rational", ["dehn"]),
    "dehn-mixed": ("mixed", ["dehn"]),
    "dehn-pi-line": ("pi-line", ["dehn"]),
    "dehn-mixed-decimal": ("mixed-decimal", ["dehn"]),
    "dehn-mixed-negative": ("mixed-negative", ["dehn"]),
    "dehn-mixed-tau": ("mixed-tau", ["dehn"]),
    "dehn-plus-rational": (
        "rational", ["dehn", "--q", "1/2", "--r", "1", *PLUS, "--designated", "2,3,4,5"]
    ),
    "dehn-plus-pi": ("plus-pi", ["dehn", "--q", "PI", "--r", "1", *PLUS, "--designated", "2,3,4"]),
}

# (exit code, sha256 of stdout)
DIGESTS = {
    "dehn-mixed-decimal": (3, "cf7f8abf36a07642f9c0b8edd388c86dad00f56833ba0435f32aff5b2d755648"),
    "dehn-mixed-negative": (3, "83894232d3021a1ae533c54bbedf4835e5b63d6eaa0678e2f2c6f13893e9f55c"),
    "dehn-mixed-tau": (3, "9085eb325f13e35d7fad799ecbb9ecc31892b1250cc9ef55c623d5768a4c920f"),
    "dehn-mixed": (3, "b4b70e48e104e363ac5957cc3e2de81642f90cf30ab09990ba3fa7b5d83d838f"),
    "dehn-pi-line": (3, "8298f48f53fab69151862b378a5bf6e8475359e66e454bbe5cfa9a45065473d0"),
    "dehn-plus-pi": (3, "bdbf57cdc68c679e9e6fc5787af1055ab27e61a19693651d61f55d6ddf7b55ce"),
    "dehn-plus-rational": (0, "113f8f6dff38e697d7be9609ff543ea52735728a8cc6be762e0566d7acbb06f5"),
    "dehn-rational": (3, "15be64f8f8f06e8ff332aa39d4945ac0d77d192db115c2f9d016c59a444d6533"),
    "dumbbell-analyze": (2, "25a1b557949ad436567fc8580bc1120096e2b834004a7920f1f740ad51416460"),
    "dumbbell-chords": (0, "6e2f0cbbe4451a639eb8e60b81551f5b594ff75bfbb87e8ee1b4fd7eb33f5fb8"),
    "dumbbell-decompose": (0, "bbe580678d62bc7c73cfe30ab15312c1eb40f7827e0e96fbb372da18ab5c4ecd"),
    "dumbbell-tile-loop": (0, "8397eb00a076b6dc4f93f74f0ac13f04ff6908ac8bde8a5656fff2c0160c36ad"),
    "dumbbell-tile-pair": (3, "cddb7bc093af48d0662fe57328dfbb38d6a593fb910e3e96eee190d3979b6394"),
    "heawood-perturbed-analyze": (2, "dcb537e9a1a00aae8e2a0f1e434168893ed1ab9b6efbade8012a9a7898271613"),
    "heawood-perturbed-chords": (0, "72307583ba6940c8ae96c8512a7b9b28b7a7c04ca4e1a4929fd975538191c160"),
    "heawood-perturbed-decompose": (0, "38cd7d1528774b756d528668d5560b9890edde9579da9dab764fc1a47b1bc476"),
    "heawood-perturbed-tile-loop": (3, "e16f66373e0740c27f6171d0bd42678e99b9c4de0380755893d4124213c3470d"),
    "heawood-perturbed-tile-pair": (3, "747091d9c76a474fbebde9e0f7afb499205c7c24f76ad3d006da2144a468f6ec"),
    "k44-analyze": (0, "752ba841b6b4b64f0eb3c05e2e8d12098444c560ce4d8b8ca860c14ac72d742a"),
    "k44-split-analyze": (0, "38f98648a2752445548e470e074793cb55d2e34fe604b0bd6bed723052f526e1"),
    "theta-mixed-analyze": (2, "566c332f50c72844395bc561145c17c6c7eee25ea762b56aa736d6fa282161b3"),
    "theta-mixed-chords": (0, "e8f6d046246ce143c8c5498dfe3b6469d3bc8218eb5a7e93f77146bf83d195c1"),
    "theta-mixed-decompose": (0, "2e5c1f4acfc8dcc1227c713721564e9bd3a2fdf95decdddb0f70e3f3de74324f"),
    "theta-mixed-tile-pair": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


def run_case(capsys, tmp_path, name):
    source, argv = CASES[name]
    path = tmp_path / f"{source}.txt"
    path.write_text(GRAPHS.get(source) or TILINGS[source])
    code = main(["--format", "machine", *argv, str(path)])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_machine_report_digest(capsys, tmp_path, name):
    assert run_case(capsys, tmp_path, name) == DIGESTS[name]
