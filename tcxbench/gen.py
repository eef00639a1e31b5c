"""Seeded generators of tcx-1 inputs, with the facts the oracles need.

Each generator returns a fixture dict (what the program sees) together
with the combinatorial data the benchmark keeps for itself (what the
oracles use).  Those that vary with the seed take a `random.Random`, so
the same seed gives the same inputs.  No generator imports `tropcomplex`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

FORMAT = "tcx-1"


def regular_fixture(n, cells, **extra):
    """Abstract fixture of a regular complex given by sorted vertex tuples.

    `cells[k]` lists the k-cells in fixture order; face slot s of a cell
    drops its s-th vertex, which satisfies the simplicial identities.
    """
    index = [{cell: i for i, cell in enumerate(level)} for level in cells]
    faces = []
    for k in range(1, n + 1):
        for i, cell in enumerate(cells[k]):
            for slot in range(k + 1):
                faces.append([k, i, slot, index[k - 1][cell[:slot] + cell[slot + 1:]]])
    data = {"format": FORMAT, "kind": "abstract", "n": n,
            "simplices": [len(level) for level in cells], "faces": faces}
    data.update(extra)
    return data


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# k x k triangulated torus, alpha = 1


@dataclass
class Torus:
    k: int
    vertex: dict          # grid point (i, j) -> vertex index
    edges: list           # sorted vertex pairs, fixture order
    triangles: list       # sorted vertex triples, fixture order
    opposite: list        # edge index -> the two opposite vertices
    fixture: dict = field(repr=False)
    _edge_index: dict = field(default_factory=dict, repr=False)
    _point: dict = field(default_factory=dict, repr=False)

    @property
    def nv(self):
        return self.k * self.k

    def edge_index(self, a, b):
        return self._edge_index[(min(a, b), max(a, b))]

    def straight_cycles(self):
        """Edge-index lists of the 3k closed straight lines (rows, columns,
        diagonals), each of k edges."""
        k, vx = self.k, self.vertex
        out = []
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            for c in range(k):
                start = (0, c) if di else (c, 0)
                cyc = []
                i, j = start
                for _ in range(k):
                    a = vx[(i % k, j % k)]
                    b = vx[((i + di) % k, (j + dj) % k)]
                    cyc.append(self.edge_index(a, b))
                    i, j = i + di, j + dj
                out.append(cyc)
        return out

    def vertex_star(self, v):
        """Neighbours of v in cyclic order around the hexagonal link."""
        i, j = self._point[v]
        k = self.k
        steps = ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1))
        return [self.vertex[((i + di) % k, (j + dj) % k)] for di, dj in steps]


def torus(k, rng=None):
    """Triangulated k x k torus (k >= 3), every diagonal parallel.

    Vertex labels and cell order are drawn from rng; without one they are
    lexicographic."""
    perm = _shuffled(rng, range(k * k)) if rng else list(range(k * k))
    vertex = {(i, j): perm[i * k + j] for i in range(k) for j in range(k)}
    tris = set()
    for i in range(k):
        for j in range(k):
            a = vertex[(i, j)]
            b = vertex[((i + 1) % k, j)]
            c = vertex[((i + 1) % k, (j + 1) % k)]
            d = vertex[(i, (j + 1) % k)]
            tris.add(tuple(sorted((a, b, c))))
            tris.add(tuple(sorted((a, d, c))))
    triangles = sorted(tris)
    edges = sorted({e for t in tris for e in itertools.combinations(t, 2)})
    if rng:
        triangles, edges = _shuffled(rng, triangles), _shuffled(rng, edges)
    cells = [[(v,) for v in range(k * k)], edges, triangles]
    alpha = [[e, s, 1] for e in range(len(edges)) for s in range(2)]
    fixture = regular_fixture(2, cells, alpha=alpha)
    t = Torus(k, vertex, edges, triangles, [], fixture,
              {e: i for i, e in enumerate(edges)},
              {idx: p for p, idx in vertex.items()})
    opp = [[] for _ in edges]
    for tri in triangles:
        for e in itertools.combinations(tri, 2):
            (x,) = set(tri) - set(e)
            opp[t._edge_index[e]].append(x)
    t.opposite = [tuple(o) for o in opp]
    return t


def torus_principal(t: Torus, phi):
    """div(phi) on the torus by the chip-firing rule with alpha = 1:
    the two opposite values minus the two endpoint values, per edge."""
    out = {}
    for e, (a, b) in enumerate(t.edges):
        c, d = t.opposite[e]
        coeff = phi[c] + phi[d] - phi[a] - phi[b]
        if coeff:
            out[e] = coeff
    return out


def torus_curve(t: Torus, rng):
    """Nonnegative sum of one to three straight cycles, as edge -> mult."""
    mult = {}
    for cyc in rng.sample(t.straight_cycles(), rng.randint(1, 3)):
        w = rng.randint(1, 2)
        for e in cyc:
            mult[e] = mult.get(e, 0) + w
    return mult


def torus_degeneration(t: Torus, rng):
    """Strict degeneration data whose structure constants are alpha = 1:
    deg(C_v . C_r) is -1 for the endpoints of r and +1 for its opposite
    vertices.  Names principal divisors P0, P1 and straight curves L0, L1,
    and claims degree 0 for every (P, L) pair."""
    vrd = []
    for e, (a, b) in enumerate(t.edges):
        c, d = t.opposite[e]
        vrd += [[a, e, -1], [b, e, -1], [c, e, 1], [d, e, 1]]
    complex_data = {key: t.fixture[key] for key in ("format", "n", "simplices", "faces")}
    divisors, curves, claimed = {}, {}, []
    for p in range(2):
        phi = [rng.randint(-3, 3) for _ in range(t.nv)]
        divisors["P%d" % p] = sorted([e, c] for e, c in torus_principal(t, phi).items())
        curves["L%d" % p] = sorted([e, m] for e, m in torus_curve(t, rng).items())
    for dname in divisors:
        for cname in curves:
            claimed.append([dname, cname, 0, 1])
    return {"format": FORMAT, "kind": "degeneration", "mode": "strict",
            "complex": complex_data, "vertex_ridge_degrees": vrd,
            "divisors": divisors, "curves": curves, "claimed": claimed}


# ---------------------------------------------------------------------------
# Graphs (n = 1): chip-firing on cycles, complete graphs and grids


@dataclass
class Graph:
    name: str
    nv: int
    edges: list  # sorted vertex pairs, fixture order
    fixture: dict = field(repr=False)

    def laplacian_apply(self, phi):
        """(L phi)[v] = sum over edges at v of phi(other end) - phi(v);
        the chip-firing divisor of phi, computed without the program."""
        out = [0] * self.nv
        for a, b in self.edges:
            out[a] += phi[b] - phi[a]
            out[b] += phi[a] - phi[b]
        return out

    def laplacian(self):
        """The matrix of laplacian_apply, rows and columns by vertex."""
        cols = [self.laplacian_apply([int(i == v) for i in range(self.nv)])
                for v in range(self.nv)]
        return [list(row) for row in zip(*cols)]


def graph(name, nv, edges):
    edges = sorted(tuple(sorted(e)) for e in edges)
    cells = [[(v,) for v in range(nv)], edges]
    return Graph(name, nv, edges, regular_fixture(1, cells))


def cycle_graph(m):
    return graph("C%d" % m, m, [(i, (i + 1) % m) for i in range(m)])


def complete_graph(m):
    return graph("K%d" % m, m, itertools.combinations(range(m), 2))


def grid_graph(k):
    def v(i, j):
        return i * k + j
    edges = [(v(i, j), v(i + 1, j)) for i in range(k - 1) for j in range(k)]
    edges += [(v(i, j), v(i, j + 1)) for i in range(k) for j in range(k - 1)]
    return graph("grid%d" % k, k * k, edges)


# ---------------------------------------------------------------------------
# Embedded k x k square with outward rays


@dataclass
class Square:
    k: int
    points: list      # lattice points (x, y), vertex order
    edges: list       # bounded 1-cells, sorted vertex pairs
    triangles: list   # bounded 2-cells
    rays: dict        # boundary edge index -> outward ray
    fixture: dict = field(repr=False)


def embedded_square(k, rng):
    """[0, k]^2 cut into 2k^2 unimodular triangles (diagonals parallel),
    each boundary edge extended by an outward ray, each corner by a
    quadrant.  Vertex order, a stored vertex function and a stored divisor
    come from rng."""
    pts = _shuffled(rng, [(x, y) for x in range(k + 1) for y in range(k + 1)])
    idx = {p: i for i, p in enumerate(pts)}
    tris, edges = set(), set()
    for x in range(k):
        for y in range(k):
            a, b, c, d = idx[(x, y)], idx[(x + 1, y)], idx[(x + 1, y + 1)], idx[(x, y + 1)]
            for tri in ((a, b, c), (a, d, c)):
                tri = tuple(sorted(tri))
                tris.add(tri)
                edges.update(itertools.combinations(tri, 2))
    edges, tris = sorted(edges), sorted(tris)

    def outward(p, q):
        (x1, y1), (x2, y2) = pts[p], pts[q]
        if y1 == y2 == 0:
            return (0, -1)
        if y1 == y2 == k:
            return (0, 1)
        if x1 == x2 == 0:
            return (-1, 0)
        if x1 == x2 == k:
            return (1, 0)
        return None

    rays = {}
    unbounded = set()
    for e, (p, q) in enumerate(edges):
        r = outward(p, q)
        if r is not None:
            rays[e] = r
            unbounded.add(((p, q), (r,)))
            unbounded.add(((p,), (r,)))
            unbounded.add(((q,), (r,)))
    for (x, y), (rx, ry) in (((0, 0), (-1, 0)), ((k, 0), (1, 0)),
                             ((k, k), (1, 0)), ((0, k), (-1, 0))):
        qy = (0, -1) if y == 0 else (0, 1)
        unbounded.add(((idx[(x, y)],), tuple(sorted(((rx, ry), qy)))))
    unbounded_cells = [{"vertices": list(vs), "rays": [list(r) for r in rs]}
                       for vs, rs in sorted(unbounded)]
    f = [rng.randint(-4, 4) for _ in pts]
    divisor = sorted([e, rng.randint(-2, 2)] for e in rng.sample(range(len(edges)), 3))
    fixture = {
        "format": FORMAT, "kind": "embedded", "N": 2,
        "vertices": [[x, y, 1] for x, y in pts],
        "bounded_cells": [[[v] for v in range(len(pts))],
                          [list(e) for e in edges], [list(t) for t in tris]],
        "unbounded_cells": unbounded_cells,
        "sheets": {"counts": [], "face_sheet_maps": []},
        "functions": {"f": f},
        "divisors": {"D": [d for d in divisor if d[1]]},
    }
    return Square(k, pts, edges, tris, rays, fixture)


def square_balancing_holds(sq: Square, ridge, coefficients, d):
    """The weight-1 balancing relation at a bounded edge, checked on the
    generator's own coordinates: the extra vertices of the adjacent
    triangles plus the outward ray equal sum c_i v_i, and d counts the
    adjacent triangles."""
    a, b = sq.edges[ridge]
    extras = [next(iter(set(t) - {a, b})) for t in sq.triangles if a in t and b in t]
    lhs = [0, 0, 0]
    for v in extras:
        x, y = sq.points[v]
        lhs = [lhs[0] + x, lhs[1] + y, lhs[2] + 1]
    if ridge in sq.rays:
        rx, ry = sq.rays[ridge]
        lhs = [lhs[0] + rx, lhs[1] + ry, lhs[2]]
    ca, cb = coefficients
    (xa, ya), (xb, yb) = sq.points[a], sq.points[b]
    rhs = [ca * xa + cb * xb, ca * ya + cb * yb, ca + cb]
    return lhs == rhs and d == len(extras)
