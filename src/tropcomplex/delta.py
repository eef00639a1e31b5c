"""Finite Delta-complexes: face tables, parametrizing simplices, links.

A complex is stored as per-dimension simplex counts plus the face table
faces[k][i] = (d_0 s, ..., d_k s) for every k-simplex s = (k, i).  Faces of a
simplex may coincide (non-regular gluing), so links count incidences with
multiplicity.  A link element of s is the pair (coface, slots): a coface
and the strictly increasing slot tuple of the coface's parametrizing simplex
that maps onto s.  The pair identifies the element, so it is its own key.

The slot combinatorics of the standard m-simplex depend on m alone, so they
live in module-level tables per dimension, built once per process and shared
by every complex: the slot table (`_slot_table`) and the construction plan
read from it (`_plan`).  Construction validates the faces (shape,
simplicial identities read straight from the face rows, a connected
1-skeleton), then fills a second table one dimension at a time: the face of
every simplex at every slot tuple, each entry read from the level below.
`face_at`, the vertex lookups and the links all come from that table, so
construction composes no chain of faces.  The pass that fills the links
also records, for each m-simplex (m >= 1) and each slot d, its position in
link0 of its facet d_d (`_cofacet_pos[m][j][d]`, shaped like `faces`): the
germ coordinates of `curves` read positions there instead of searching
link0.  For n >= 2 the same pass records the local table of every
(n-2)-cell q, two flat tuples of ints in link order: `_local_keys[q]`, one
int key r * n + s per link0 element for its alpha entry (ridge r, slot s),
and `_local_ends[q]`, the two link0 positions of each link edge.  The
local systems of `structure` read only these and the flat alpha diagonal
of the structure, so a query makes no slot-table or facet-row lookup and
builds no key tuple.
They are filled at construction, not on a first query: a complex is
immutable and holds no memo.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import eq, itemgetter
from typing import NamedTuple

from .errors import (Disconnected, DimensionExceeded, SchemaError,
                     SimplicialIdentityViolation, entry_list, int_entry,
                     int_value)

Simplex = tuple  # (dimension, index)


class LinkElement(NamedTuple):
    """(coface, slots); equals and hashes as that plain tuple."""

    coface: Simplex
    slots: tuple


_SLOTS = {}  # m -> slot table; construction fills m <= n, queries index it
_PLANS = {}  # m -> construction plan, read from the slot tables


def _slot_table(m):
    """The slot table of the standard m-simplex, built once per process.

    It maps each strictly increasing slot tuple of sizes 1..m+1, in
    combinations order, to (its position in that order, its faces): one
    face per slot outside the tuple, in increasing order, as (that dropped
    slot, the tuple re-indexed to the dropped face).  The full tuple comes
    last and has no faces.
    """
    table = _SLOTS.get(m)
    if table is None:
        tuples = [slots for size in range(1, m + 2)
                  for slots in combinations(range(m + 1), size)]
        table = _SLOTS[m] = {
            slots: (p, tuple((drop, tuple(x if x < drop else x - 1
                                          for x in slots))
                             for drop in range(m + 1) if drop not in slots))
            for p, slots in enumerate(tuples)}
    return table


def _plan(m):
    """How construction fills the tables of an m-simplex (m >= 1), built
    once per process from the slot tables: (faces, lower, cofacets, edges).

    faces lists, for each slot tuple S but the full one in combinations
    order, (the largest slot not in S, the position in the slot table of
    m - 1 of S re-indexed to that face).  lower lists each tuple of size
    below m, in the same order, as (S, the dimension of the face it spans,
    its link dimension); cofacets lists each tuple of size m as (the slot d
    it misses, S), d decreasing, which is their combinations order.  edges
    lists each tuple of size m - 1, the link edges of the (m - 2)-faces, as
    (its position in lower, d0, d1 - 1, d1) for the slots d0 < d1 it
    misses.
    """
    plan = _PLANS.get(m)
    if plan is None:
        below = _slot_table(m - 1)
        table = _slot_table(m)
        tuples = list(table)[:-1]
        lower = [(slots, len(slots) - 1, m - len(slots))
                 for slots in tuples[:-m - 1]]
        plan = _PLANS[m] = (
            [(faces[-1][0], below[faces[-1][1]][0])
             for _, faces in list(table.values())[:-1]],
            lower,
            list(enumerate(reversed(tuples[-m - 1:])))[::-1],
            [(p, d0, d1 - 1, d1)
             for p, (slots, _, d) in enumerate(lower) if d == 1
             for (d0, _), (d1, _) in [table[slots][1]]])
    return plan


class DeltaComplex:
    """Immutable after construction; links are computed eagerly and cached."""

    def __init__(self, n, counts, faces):
        self.n = n
        self.counts = tuple(counts)
        # faces[k][i] is a tuple of (k-1)-simplex indices, k >= 1
        self.faces = tuple(tuple(tuple(f) for f in faces.get(k, ()))
                           for k in range(n + 1))
        self._validate()
        self._build_face_table()
        self._build_links()

    # -- construction helpers ------------------------------------------------

    def _validate(self):
        if len(self.counts) != self.n + 1:
            raise DimensionExceeded(
                "expected %d per-dimension counts, got %d"
                % (self.n + 1, len(self.counts))
            )
        if self.counts[0] < 1:
            raise Disconnected("complex has no vertices")
        for k in range(1, self.n + 1):
            if len(self.faces[k]) != self.counts[k]:
                raise DimensionExceeded(
                    "dimension %d: %d simplices but %d face rows"
                    % (k, self.counts[k], len(self.faces[k]))
                )
            for i, row in enumerate(self.faces[k]):
                if len(row) != k + 1:
                    raise DimensionExceeded(
                        "simplex (%d,%d) needs %d faces" % (k, i, k + 1)
                    )
                for t in row:
                    if not 0 <= t < self.counts[k - 1]:
                        raise DimensionExceeded(
                            "simplex (%d,%d) has face index %d out of range"
                            % (k, i, t)
                        )
        # simplicial identity d_i d_j = d_{j-1} d_i for i < j
        for k in range(2, self.n + 1):
            lower = self.faces[k - 1]
            pairs = [(i, j) for j in range(1, k + 1) for i in range(j)]
            for i_s, row in enumerate(self.faces[k]):
                for i, j in pairs:
                    if lower[row[j]][i] != lower[row[i]][j - 1]:
                        raise SimplicialIdentityViolation((k, i_s), i, j)
        # connectedness of the 1-skeleton, by union-find over the vertices
        # that an edge touches: every simplex is joined to its vertices
        # through its edges, and every other vertex is a component of its
        # own, so nothing is allocated per vertex count.  Both finds run
        # inline, with path halving, and each component keeps one root
        edges = self.faces[1] if self.n >= 1 else ()
        parent = {v: v for edge in edges for v in edge}
        for a, b in edges:
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            parent[a] = b
        components = (sum(map(eq, parent, parent.values()))
                      + self.counts[0] - len(parent))
        if components > 1:
            raise Disconnected("complex has %d components" % components)

    def _build_face_table(self):
        """The face of every simplex at every slot tuple, one dimension at
        a time, with no face chains.

        Row j of level m lists the faces of (m, j) at its slot tuples of
        sizes 1..m+1 in the order of `_slot_table(m)`, as indices of
        simplices of dimension size - 1.  The first m+1 entries are its
        vertices and the last is j.  For a slot tuple S, let `drop` be the
        largest slot not in S, the first slot that removing the complement
        from the top drops: the face is the face of d_drop (m, j) at S
        re-indexed, read from row d_drop (m, j) of level m-1 (for |S| = m,
        its last entry).  The level is filled a column at a time: each
        slot tuple's column is gathered over every row by maps of item
        lookups and the rows are zipped from the columns, so no bytecode
        runs per simplex.
        """
        table = [tuple((i,) for i in range(self.counts[0]))]
        for m in range(1, self.n + 1):
            lower, rows = table[m - 1], self.faces[m]
            table.append(tuple(zip(*[
                map(itemgetter(p), map(lower.__getitem__,
                                       map(itemgetter(drop), rows)))
                for drop, p in _plan(m)[0]], range(len(rows)))))
        self._face_table = tuple(table)

    def _build_links(self):
        """One pass over the cofaces: each (coface, slot tuple) pair is
        appended to the link of the face it spans, read from the face
        table, and the cofacet positions and the local tables are recorded
        on the way.

        Visiting cofaces by dimension, then index, then slot tuple in
        combinations order gives every link its elements in exactly that
        order.  Local matrix rows and the canonical reports depend on it.
        The slot tuples that miss one slot d of an m-simplex come last, d
        decreasing, and land in link0 of its facet d_d: the length of that
        list before the append is the element's position there, stored as
        `_cofacet_pos[m][j][d]` for the m-simplex (m, j), a table shaped
        like `faces` (level 0 is empty).

        For n >= 2 the same pass fills the local table of every
        (n-2)-cell q, two flat tuples of ints in link order.
        `_local_keys[q]` holds one int r * n + d for each element of
        link0(q): the ridge (n-1, r) and the slot d of r that the
        element's slots miss, the key of its alpha entry, which
        `divmod(key, n)` decodes; it is appended with the element.
        `_local_ends[q]` holds a, b for each edge of link1(q): an edge
        ((n, j), slots) misses slots d0 < d1 of its facet, and its ends
        are the link0(q) positions of the ridges d_d0 and d_d1 of (n, j),
        at their slots d1 - 1 and d0, read from the cofacet positions of
        the ridges, which the pass has filled by then.  A loop has a == b.
        """
        n, counts = self.n, self.counts
        new = tuple.__new__  # a LinkElement without its Python-level __new__
        # lists[k][d][i]: the link elements of (k, i) of link dimension d
        lists = [[[[] for _ in range(counts[k])] for _ in range(n - k)]
                 for k in range(n + 1)]
        cells = counts[n - 2] if n >= 2 else 0
        keys = [[] for _ in range(cells)]
        ends = [[] for _ in range(cells)]
        positions = [()]
        for m in range(1, n + 1):
            _, plan, cofacets, edges = _plan(m)
            lower = [(slots, lists[k][d]) for slots, k, d in plan]
            top = lists[m - 1][0]
            ridges = positions[m - 1]  # the cofacet positions of level m - 1
            here = []
            for j, (row, faces) in enumerate(zip(self._face_table[m],
                                                 self.faces[m])):
                coface = (m, j)
                for (slots, level), i in zip(lower, row):
                    level[i].append(new(LinkElement, (coface, slots)))
                pos = [0] * (m + 1)
                for d, slots in cofacets:
                    link0 = top[faces[d]]
                    pos[d] = len(link0)
                    link0.append(new(LinkElement, (coface, slots)))
                here.append(tuple(pos))
                if m == n - 1:
                    key = j * n
                    for d, _ in cofacets:
                        keys[faces[d]].append(key + d)
                elif m == n:
                    for p, d0, d, d1 in edges:
                        ends[row[p]] += (ridges[faces[d0]][d],
                                         ridges[faces[d1]][d0])
            positions.append(tuple(here))
        self._links = tuple(
            tuple(zip(*[map(tuple, per_dim) for per_dim in lists[k]]))
            if k < n else ((),) * counts[k] for k in range(n + 1))
        self._cofacet_pos = tuple(positions)
        self._local_keys = tuple(map(tuple, keys))
        self._local_ends = tuple(map(tuple, ends))

    # -- queries -------------------------------------------------------------

    def face_at(self, s, slots):
        """The face of s spanned by the given parametrizing-simplex slots.

        Slots are a strictly increasing tuple.  The face is the composition
        of the d_i that remove the complement one slot at a time from the
        top, looked up in the face table built at construction.
        """
        k, i = s
        return len(slots) - 1, self._face_table[k][i][_SLOTS[k][slots][0]]

    def vertices_of(self, s):
        return self._face_table[s[0]][s[1]][:s[0] + 1]

    def link(self, s):
        """Link elements of s grouped by link dimension (0-based tuple)."""
        return self._links[s[0]][s[1]]

    def link0(self, s):
        per_dim = self._links[s[0]][s[1]]
        return per_dim[0] if per_dim else ()

    def opp_slot(self, t):
        """Vertex slot of the coface outside the identified face.

        Only defined for 0-dimensional link elements, whose slots miss
        exactly one of 0..m for a coface of dimension m.
        """
        m = t.coface[0]
        if len(t.slots) != m:
            raise ValueError("opp_slot needs a 0-dimensional link element")
        return m * (m + 1) // 2 - sum(t.slots)

    def opp_vertex(self, t):
        m, j = t.coface
        return self._face_table[m][j][self.opp_slot(t)]

    def degree(self, r):
        return len(self.link0(r))

    def is_regular(self):
        for k in range(1, self.n + 1):
            for i in range(self.counts[k]):
                vs = self.vertices_of((k, i))
                if len(set(vs)) != len(vs):
                    return False
        return True

    # -- serialization -------------------------------------------------------

    def to_json(self):
        entries = []
        for k in range(1, self.n + 1):
            for i in range(self.counts[k]):
                for slot, t in enumerate(self.faces[k][i]):
                    entries.append([k, i, slot, t])
        return {
            "format": "tcx-1",
            "n": self.n,
            "simplices": list(self.counts),
            "faces": entries,
        }

    def __eq__(self, other):
        return (
            isinstance(other, DeltaComplex)
            and self.n == other.n
            and self.counts == other.counts
            and self.faces == other.faces
        )

    def __hash__(self):
        return hash((self.n, self.counts, self.faces))


def build_complex(data):
    """Build and validate a DeltaComplex from its textual description.

    Expects keys "n", "simplices" (per-dimension counts) and "faces"
    (entries [dimension, index, slot, target]).
    """
    if not isinstance(data, dict):
        raise SchemaError("a complex is a JSON object, not %s"
                          % type(data).__name__)
    for key in ("n", "simplices"):
        if key not in data:
            raise SchemaError("complex is missing key %r" % key)
    n = int_value(data["n"], "n")
    counts = int_entry(data["simplices"], None, "simplices")
    if n < 0:
        raise DimensionExceeded("n must be nonnegative")
    if len(counts) != n + 1:
        raise DimensionExceeded(
            "expected %d per-dimension counts, got %d" % (n + 1, len(counts))
        )
    faces = _face_rows(entry_list(data.get("faces", []), "face"), n, counts)
    return DeltaComplex(n, counts, faces)


def _face_rows(entries, n, counts):
    """{k: the face rows of the k-simplices, 1 <= k <= n} read from face
    entries [dimension, index, slot, target], or the error that names the
    first bad entry.  A later entry for the same slot wins.

    One pass tests and writes each entry inline, with no call per entry,
    and one membership test finds a slot left empty.  Only when the pass
    stops at an entry, or a slot is empty, does the loop that reads each
    entry through int_entry run, to name the first bad one.  Each entry
    fills at most one slot, so when the counts ask for more slots than
    there are entries that loop runs at once, with rows only for the
    simplices that some entry names: no table larger than the entries is
    allocated.
    """
    if sum((k + 1) * counts[k] for k in range(1, n + 1)) <= len(entries):
        faces = {k: [[None] * (k + 1) for _ in range(counts[k])]
                 for k in range(1, n + 1)}
        for entry in entries:
            if type(entry) is list and len(entry) == 4:
                k, i, slot, target = entry
                if (type(k) is int and type(i) is int and type(slot) is int
                        and type(target) is int and 1 <= k <= n
                        and 0 <= i < counts[k] and 0 <= slot <= k):
                    faces[k][i][slot] = target
                    continue
            break
        else:
            if None not in chain.from_iterable(
                    chain.from_iterable(faces.values())):
                return faces
    # every write of the pass above is repeated here, in the same order
    rows = {}
    for entry in entries:
        k, i, slot, target = int_entry(entry, 4, "face")
        if not 1 <= k <= n:
            raise DimensionExceeded("face entry at dimension %d" % k)
        if not 0 <= i < counts[k]:
            raise DimensionExceeded("face entry for missing simplex (%d,%d)" % (k, i))
        if not 0 <= slot <= k:
            raise DimensionExceeded("face slot %d out of range" % slot)
        rows.setdefault((k, i), [None] * (k + 1))[slot] = target
    # the first simplex with an empty slot lies within the first
    # len(rows) + 1 of its dimension
    for k in range(1, n + 1):
        for i in range(counts[k]):
            row = rows.get((k, i))
            if row is None or None in row:
                raise DimensionExceeded("missing face entries for (%d,%d)" % (k, i))
    return {k: [rows[k, i] for i in range(counts[k])] for k in range(1, n + 1)}
