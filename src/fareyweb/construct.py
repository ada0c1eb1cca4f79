"""Idealized web as an exact plane graph in the unit square.

Base coordinates come from a middle-thirds Cantor construction on [0.2, 0.8]
with two extra level-0 holes centered at 0.1 and 0.9 for the endpoints: a
fraction at tree level n gets the center of the gap removed at stage n along
its tree path, which orders base points exactly like the fractions.

The graph starts from top vertices above the two level-0 holes and the single
seed segment from the top-left vertex to the base-right vertex.  Each stage
visits every adjacent pair of base vertices; the pair's carrier segment (a
drawn segment from some top vertex down to one of the pair's base vertices)
receives the mediant's top vertex at its prescribed x, the mediant's base
vertex is added below, and a two-segment dogleg is drawn from the other
pair's top vertex through the new vertex down to the carrier-side base
vertex.  The carrier bookkeeping then hands each half of the split gap a
drawn segment spanning it, which keeps the whole figure a planar subdivision.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .farey import Frac, level_and_path, mediant

#: Cantor base support and the two extra hole centers for the endpoints.
BASE_LO = 0.2
BASE_HI = 0.8
HOLE_LEFT = 0.1
HOLE_RIGHT = 0.9

_ZERO = Frac(0, 1)
_ONE = Frac(1, 1)


@dataclass(frozen=True)
class WebVertex:
    kind: str  # "T" | "B"
    frac: Frac
    x: float
    y: float


@dataclass(frozen=True)
class Dogleg:
    """Two straight segments from T(upper) through T(via) down to B(lower)."""

    via: Frac
    upper: Frac
    lower: Frac


@dataclass
class IdealWeb:
    stages: int
    vertices: list[WebVertex] = field(default_factory=list)
    doglegs: list[Dogleg] = field(default_factory=list)
    #: base pair (left frac, right frac) -> (top frac, base frac) of the
    #: drawn segment spanning the gap, used by the next stage
    carriers: dict[tuple[Frac, Frac], tuple[Frac, Frac]] = field(default_factory=dict)
    #: planar subdivision of everything drawn, as vertex-key pairs
    segments: list[tuple[tuple[str, Frac], tuple[str, Frac]]] = field(default_factory=list)

    def vertex(self, kind: str, frac: Frac) -> WebVertex:
        return self._index[(kind, frac)]

    def __post_init__(self):
        self._index = {(v.kind, v.frac): v for v in self.vertices}

    def _add_vertex(self, v: WebVertex) -> None:
        self.vertices.append(v)
        self._index[(v.kind, v.frac)] = v

    def segment_coords(self) -> list[tuple[float, float, float, float]]:
        out = []
        for (k1, f1), (k2, f2) in self.segments:
            v1, v2 = self.vertex(k1, f1), self.vertex(k2, f2)
            out.append((v1.x, v1.y, v2.x, v2.y))
        return out


def cantor_x(frac: Frac) -> float:
    """Base coordinate: hole centers of the middle-thirds construction."""
    if frac == _ZERO:
        return HOLE_LEFT
    if frac == _ONE:
        return HOLE_RIGHT
    lo, hi = BASE_LO, BASE_HI
    for move in level_and_path(frac).path:
        w = (hi - lo) / 3.0
        if move == "L":
            hi = lo + w
        else:
            lo = hi - w
    return 0.5 * (lo + hi)


def build(stages: int) -> IdealWeb:
    """Carry out the staged construction."""
    if stages < 0:
        raise ValueError("stages must be non-negative")
    web = IdealWeb(stages)
    web._add_vertex(WebVertex("T", _ZERO, HOLE_LEFT, 1.0))
    web._add_vertex(WebVertex("T", _ONE, HOLE_RIGHT, 1.0))
    web._add_vertex(WebVertex("B", _ZERO, HOLE_LEFT, 0.0))
    web._add_vertex(WebVertex("B", _ONE, HOLE_RIGHT, 0.0))
    web.segments.append((("T", _ZERO), ("B", _ONE)))  # the seed segment
    web.carriers[(_ZERO, _ONE)] = (_ZERO, _ONE)

    for _ in range(stages):
        next_carriers: dict[tuple[Frac, Frac], tuple[Frac, Frac]] = {}
        for pair in sorted(web.carriers):  # deterministic left-to-right order
            top_frac, base_frac = web.carriers[pair]
            m = mediant(pair[0], pair[1])
            x = cantor_x(m)
            vt = web.vertex("T", top_frac)
            vb = web.vertex("B", base_frac)
            # y from the carrier's line; vb.y is 0 by construction
            y = vt.y * (vb.x - x) / (vb.x - vt.x)
            web._add_vertex(WebVertex("T", m, x, y))
            web._add_vertex(WebVertex("B", m, x, 0.0))
            web.doglegs.append(Dogleg(m, base_frac, top_frac))
            # split the carrier at the new vertex, then draw the dogleg legs
            old = (("T", top_frac), ("B", base_frac))
            web.segments.remove(old)
            web.segments.append((("T", top_frac), ("T", m)))
            web.segments.append((("T", m), ("B", base_frac)))
            web.segments.append((("T", base_frac), ("T", m)))
            web.segments.append((("T", m), ("B", top_frac)))
            # the two half-gaps inherit the spanning drawn segments
            lo_pair = (min(top_frac, m), max(top_frac, m))
            hi_pair = (min(m, base_frac), max(m, base_frac))
            next_carriers[lo_pair] = (m, top_frac)
            next_carriers[hi_pair] = (m, base_frac)
        web.carriers = next_carriers
    return web


def _fmt(v: float) -> str:
    return format(v, ".12g")


def to_json(web: IdealWeb) -> str:
    doc = {
        "stages": web.stages,
        "vertices": [
            {"kind": v.kind, "p": v.frac.p, "q": v.frac.q, "x": v.x, "y": v.y}
            for v in web.vertices
        ],
        "doglegs": [
            {"via": str(d.via), "upper": str(d.upper), "lower": str(d.lower)}
            for d in web.doglegs
        ],
    }
    return json.dumps(doc, indent=2)


def from_json(text: str) -> IdealWeb:
    """Rebuild the graph part (vertices and doglegs) of a serialized web."""
    doc = json.loads(text)
    web = IdealWeb(doc["stages"])
    for v in doc["vertices"]:
        web._add_vertex(WebVertex(v["kind"], Frac(v["p"], v["q"]), v["x"], v["y"]))
    for d in doc["doglegs"]:
        web.doglegs.append(Dogleg(Frac.parse(d["via"]), Frac.parse(d["upper"]),
                                  Frac.parse(d["lower"])))
    return web


def to_svg(web: IdealWeb) -> str:
    """Deterministic SVG: one line for the seed, one 3-point polyline per dogleg."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1" width="800" height="800">',
        '<rect x="0" y="0" width="1" height="1" fill="white"/>',
    ]
    vt0 = web.vertex("T", _ZERO)
    vb1 = web.vertex("B", _ONE)
    lines.append(
        f'<line class="seed" x1="{_fmt(vt0.x)}" y1="{_fmt(1 - vt0.y)}" '
        f'x2="{_fmt(vb1.x)}" y2="{_fmt(1 - vb1.y)}" '
        f'stroke="#444444" stroke-width="0.002"/>')
    for d in web.doglegs:
        pu = web.vertex("T", d.upper)
        pv = web.vertex("T", d.via)
        pl = web.vertex("B", d.lower)
        pts = " ".join(f"{_fmt(p.x)},{_fmt(1 - p.y)}" for p in (pu, pv, pl))
        lines.append(
            f'<polyline class="dogleg" points="{pts}" fill="none" '
            f'stroke="#1060c0" stroke-width="0.002"/>')
    for v in web.vertices:
        color = "#c02020" if v.kind == "T" else "#202020"
        lines.append(f'<circle cx="{_fmt(v.x)}" cy="{_fmt(1 - v.y)}" r="0.004" fill="{color}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render(web: IdealWeb, fmt: str) -> str:
    if fmt == "svg":
        return to_svg(web)
    if fmt == "json":
        return to_json(web)
    raise ValueError(f"format must be 'svg' or 'json', got {fmt!r}")
