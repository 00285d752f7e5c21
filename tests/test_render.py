from __future__ import annotations

import xml.etree.ElementTree as ET

from seaweeds.rootsys import LieType
from seaweeds.seaweed import make_seaweed
from seaweeds.meander import orbits
from seaweeds.render import render_svg, render_tikz

from reference_data import C8, D14


def _meander(ref):
    fam, rank, top, bottom = ref
    return orbits(make_seaweed(LieType(fam, rank), top, bottom))


def test_svg_well_formed_and_has_expected_arcs():
    svg = render_svg(_meander(C8))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    # involution arcs of the symplectic example, by drawing position
    for arc in ("arc-1+-3+", "arc-1--2-", "arc-4--7-", "arc-5--6-"):
        assert f'id="{arc}"' in svg
    assert svg.count("stroke-dasharray") == 4
    # 8 vertices per row, filled per membership
    assert svg.count('fill="black"') >= 12
    assert svg.count('fill="white"') == 4


def test_tikz_arcs_and_nodes():
    tikz = render_tikz(_meander(C8))
    assert tikz.startswith("\\begin{tikzpicture}")
    assert tikz.rstrip().endswith("\\end{tikzpicture}")
    assert "\\draw [dashed] (1+) to [bend left=60] (3+);" in tikz
    assert "\\draw [dashed] (1-) to [bend right=60] (2-);" in tikz
    assert "\\draw [dashed] (4-) to [bend right=60] (7-);" in tikz
    assert "\\draw [dashed] (5-) to [bend right=60] (6-);" in tikz
    assert "double distance" in tikz  # the doubled edge at the short end


def test_fork_vertices_share_a_column():
    svg = render_svg(_meander(D14))
    root = ET.fromstring(svg)
    circles = {c.get("id"): (float(c.get("cx")), float(c.get("cy")))
               for c in root.iter() if c.tag.endswith("circle")}
    x13, _ = circles["v13+"]  # alpha_2 on top
    x14, _ = circles["v14+"]  # alpha_1 on top
    assert x13 == x14
    _, y13 = circles["v13+"]
    _, y14 = circles["v14+"]
    assert y13 != y14


def test_dashed_arc_count_matches_involutions():
    m = _meander(D14)
    svg = render_svg(m)
    pairs = sum(1 for i in range(1, 15) if m.i1(i) > i)
    pairs += sum(1 for i in range(1, 15) if m.i2(i) > i)
    assert svg.count("stroke-dasharray") == pairs


def test_all_families_render():
    from reference_impl import enumerate_frobenius
    cases = [("B", 5), ("D", 6), ("E", 6), ("E", 7), ("E", 8),
             ("F", 4), ("G", 2)]
    for fam, n in cases:
        s = enumerate_frobenius(LieType(fam, n)).entries[-1]
        m = orbits(s)
        svg = render_svg(m)
        ET.fromstring(svg)
        tikz = render_tikz(m)
        assert tikz.count("node") == 2 * n
