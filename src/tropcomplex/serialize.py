"""Fixture files and canonical JSON encodings.

A fixture is a JSON object with "format": "tcx-1" and one of three kinds:
"abstract" (a DeltaComplex with optional structure constants, divisors,
curves, and vertex functions), "embedded" (a unimodular subdivision), or
"degeneration" (a complex plus intersection data).  Rationals are encoded
as [numerator, denominator] in lowest terms; reports use sorted keys so
equal inputs produce byte-identical output.

`canonical_json` writes a report as the bytes of
`json.dumps(obj, sort_keys=True, indent=2)`: keys sorted, two-space
indent, every non-ASCII character escaped.  It writes them itself, in one
recursive pass that joins its pieces once, because `indent` keeps
`json.dumps` on its pure-Python encoder, which took about a tenth of an
in-process `tcx` call; the direct writer is about twice as fast.
"""

from __future__ import annotations

import gc
import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .delta import DeltaComplex, build_complex
from .errors import (IndexMismatch, InputError, SchemaError, brief,
                     entry_list, fraction_entry, int_entry, int_table, named)
from .structure import TropicalStructure
from .divisors import Divisor, FacetPiece, LocalGerm, TwoPieceFunction
from .curves import BreakpointFunction, Curve, PointSum
from .degeneration import DegenerationData, load_degeneration
from .embedded import EmbeddedComplex, load_embedded

FORMAT = "tcx-1"


def rat(x):
    """[numerator, denominator] in lowest terms.  An int or a Fraction is
    read as it is, already in lowest terms; anything else (a bool among
    them, which would print as true) goes through Fraction."""
    f = x if type(x) is int or type(x) is Fraction else Fraction(x)
    return [f.numerator, f.denominator]


def canonical_json(obj):
    """The bytes of json.dumps(obj, sort_keys=True, indent=2), written
    directly: the same text, the same TypeError on a value json cannot
    encode."""
    out = []
    _write(obj, out.append, "\n")
    return "".join(out)


_INF = float("inf")


def _scalar(o):
    """A value that is no container, as json writes it."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == _INF:
            return "Infinity"
        if o == -_INF:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(o).__name__)


def _key(k):
    """A dict key as the string json writes, converted after sorting."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _scalar(k)
    raise TypeError("keys must be str, int, float, bool or None, not %s"
                    % type(k).__name__)


def _write(o, put, nl):
    """Put the pieces of o, a value at the indentation that nl (a newline
    and the enclosing indent) ends with.  A list's exact ints and strs,
    most of a report, are written inline rather than by a call each."""
    if isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "[" + inner
        for x in o:
            t = type(x)
            if t is int:
                put(sep + int.__repr__(x))
            elif t is str:
                put(sep + _quote(x))
            else:
                put(sep)
                _write(x, put, inner)
            sep = comma
        put(nl + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        comma = "," + inner
        sep = "{" + inner
        for k, x in sorted(o.items()):
            put(sep + _quote(_key(k)) + ": ")
            _write(x, put, inner)
            sep = comma
        put(nl + "}")
    else:
        put(_scalar(o))


# ---------------------------------------------------------------------------
# Object encodings


def divisor_to_json(D: Divisor):
    return {
        "ridge_part": [[r, c] for r, c in D.ridge_part],
        "facet_pieces": [
            [p.facet, list(p.normal), p.offset.numerator,
             p.offset.denominator, p.multiplicity]
            for p in D.facet_pieces
        ],
    }


def alpha_to_json(T: TropicalStructure):
    """[[ridge, slot, alpha], ...] in key order."""
    return [[r, s, a] for (r, s), a in sorted(T.alpha.items())]


def divisor_from_json(data):
    """[[ridge, coefficient], ...] or {"ridge_part", "facet_pieces"}; the
    ridge part of either form is read by int_table."""
    if isinstance(data, list):
        data = {"ridge_part": data}
    elif not isinstance(data, dict):
        raise SchemaError("a divisor is a list of [ridge, coefficient] or an "
                          "object with ridge_part and facet_pieces, not %s"
                          % brief(data))
    table = int_table(data.get("ridge_part", []), 2, "divisor")
    pieces = tuple(_facet_piece(e) for e in
                   entry_list(data.get("facet_pieces", []), "facet piece"))
    return Divisor.on_ridges(table, pieces)


def _facet_piece(entry):
    """[facet, normal, offset numerator, offset denominator, multiplicity]."""
    if not isinstance(entry, (list, tuple)) or len(entry) != 5:
        raise SchemaError("facet piece entry %s is not [facet, normal, "
                          "numerator, denominator, multiplicity]"
                          % brief(entry))
    f, num, den, mult = int_entry(entry[:1] + entry[2:], 4, "facet piece")
    offset = fraction_entry(num, den, "facet piece entry", entry)
    normal = int_entry(entry[1], None, "facet piece normal")
    return FacetPiece(f, normal, offset, mult)


def two_piece_from_json(data):
    """{"facet", "normal", "offset": [numerator, denominator]} as a
    TwoPieceFunction, or SchemaError."""
    if not isinstance(data, dict) or not {"facet", "normal", "offset"} <= set(data):
        raise SchemaError("a two-piece function is an object with facet, "
                          "normal and offset, not %s" % brief(data))
    (facet,) = int_entry([data["facet"]], 1, "two-piece facet")
    num, den = int_entry(data["offset"], 2, "two-piece offset")
    offset = fraction_entry(num, den, "two-piece offset", data["offset"])
    normal = int_entry(data["normal"], None, "two-piece normal")
    return TwoPieceFunction(facet, normal, offset)


def curve_to_json(C: Curve):
    return [[e, m] for e, m in C.multiplicities]


def curve_from_json(data):
    return Curve.on_edges(int_table(data, 2, "curve"))


def point_sum_to_json(P: PointSum):
    out = []
    for loc, coeff in P.entries:
        if loc[0] == "v":
            key = ["v", loc[1]]
        else:
            pos = loc[2]
            key = ["e", loc[1], pos.numerator, pos.denominator]
        out.append([key, coeff.numerator, coeff.denominator])
    return out


def germ_to_json(g: LocalGerm):
    return {
        "base": list(g.base),
        "slopes": [rat(s) for s in g.slopes],
    }


def breakpoints_from_json(data):
    """[[edge, [[position num, den, value num, den], ...]], ...]."""
    if not isinstance(data, list):
        raise SchemaError("breakpoints are a list of [edge, points], not %s"
                          % brief(data))
    pieces = {}
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2 \
                or not isinstance(entry[1], list):
            raise SchemaError("breakpoint entry %s is not [edge, points]"
                              % brief(entry))
        (e,) = int_entry(entry[:1], 1, "breakpoint edge")
        # every point's integers are read before any denominator, so a
        # malformed point is named before a zero denominator
        points = [int_entry(pt, 4, "breakpoint") for pt in entry[1]]
        pieces[e] = [(fraction_entry(pn, pd, "breakpoint entry", entry),
                      fraction_entry(vn, vd, "breakpoint entry", entry))
                     for pn, pd, vn, vd in points]
    return BreakpointFunction.on_edges(pieces)


# ---------------------------------------------------------------------------
# Fixtures


class Fixture:
    """A loaded fixture; `load_fixture` fills it in after construction, and
    builds the structure of an abstract fixture that gives alpha."""

    __slots__ = ("kind", "complex", "_structure", "embedded", "degeneration",
                 "divisors", "curves", "functions")

    def __init__(self, kind: str):
        self.kind = kind
        self.complex: DeltaComplex | None = None
        self._structure: TropicalStructure | None = None
        self.embedded: EmbeddedComplex | None = None
        self.degeneration: DegenerationData | None = None
        self.divisors: dict = {}
        self.curves: dict = {}
        self.functions: dict = {}

    def structure(self):
        if self.complex is None:
            raise InputError("fixture has no abstract complex")
        if self._structure is not None:
            return self._structure
        return TropicalStructure(self.complex)


def detect_kind(data):
    if "kind" in data:
        return data["kind"]
    if "N" in data and "vertices" in data:
        return "embedded"
    if "mode" in data or "vertex_ridge_degrees" in data \
            or "self_intersections" in data:
        return "degeneration"
    if "n" in data and "simplices" in data:
        return "abstract"
    raise InputError("cannot determine fixture kind")


def load_fixture(data):
    if not isinstance(data, dict):
        raise SchemaError("a fixture is a JSON object, not %s"
                          % type(data).__name__)
    if data.get("format") != FORMAT:
        raise InputError("unsupported fixture format %s"
                         % brief(data.get("format")))
    kind = detect_kind(data)
    fx = Fixture(kind)
    alpha = None
    if kind == "abstract":
        fx.complex = build_complex(data)
        if "alpha" in data:
            alpha = int_table(data["alpha"], 3, "alpha")
    elif kind == "embedded":
        fx.embedded = load_embedded(data)
    elif kind == "degeneration":
        if "complex" not in data:
            raise SchemaError("degeneration fixture is missing key 'complex'")
        fx.complex = build_complex(data["complex"])
        fx.degeneration = load_degeneration(data)
        fx.divisors = fx.degeneration.divisors
        fx.curves = fx.degeneration.curves
    else:
        raise InputError("unknown fixture kind %s" % brief(kind))
    if kind != "degeneration":
        for name, d in named(data, "divisors"):
            fx.divisors[name] = divisor_from_json(d)
        for name, c in named(data, "curves"):
            fx.curves[name] = curve_from_json(c)
    for name, values in named(data, "functions"):
        fx.functions[name] = list(int_entry(values, None, "function"))
    if alpha is not None:
        fx._structure = TropicalStructure(fx.complex, alpha)
    if fx.complex is not None:
        _check_ranges(fx)
    return fx


def _check_ranges(fx):
    """Every curve edge, divisor ridge and facet of a facet piece names a
    simplex of the fixture's complex, and every facet piece's normal has n
    entries, or IndexMismatch names the entry.  The alpha table was checked
    when the fixture's structure was made.  Ridge parts and curve
    multiplicities are sorted by index, so their first and last entries
    bound the rest, and only a table out of range is read entry by
    entry, to name the first bad entry."""
    X = fx.complex
    n = X.n
    checks = (("curve", "edge", X.counts[1] if n >= 1 else 0,
               {name: C.multiplicities for name, C in fx.curves.items()}),
              ("divisor", "ridge", X.counts[n - 1] if n >= 1 else 0,
               {name: D.ridge_part for name, D in fx.divisors.items()}))
    for what, cell, count, named in checks:
        for name, pairs in named.items():
            if pairs and not (0 <= pairs[0][0] and pairs[-1][0] < count):
                for i, c in pairs:
                    if not 0 <= i < count:
                        raise IndexMismatch(
                            "%s %s entry [%d, %d]: %s %d out of range (%d %ss)"
                            % (what, brief(name), i, c, cell, i, count, cell))
    facets = X.counts[n]
    for name, D in fx.divisors.items():
        for p in D.facet_pieces:
            if 0 <= p.facet < facets and len(p.normal) == n:
                continue
            # the piece as its fixture entry
            entry = brief([p.facet, list(p.normal), p.offset.numerator,
                           p.offset.denominator, p.multiplicity])
            if not 0 <= p.facet < facets:
                raise IndexMismatch(
                    "divisor %s facet piece %s: facet %d out of range "
                    "(%d facets)" % (brief(name), entry, p.facet, facets))
            raise IndexMismatch(
                "divisor %s facet piece %s: normal has %d entries, not "
                "n = %d" % (brief(name), entry, len(p.normal), n))


def read_json(path, raw=None):
    """The JSON value in a file, or InputError when it is not UTF-8 JSON.

    raw: the file's bytes, when the caller has read them already.
    """
    if raw is None:
        with open(path, "rb") as fh:
            raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError("%s is not UTF-8 text: %s" % (path, exc)) from None
    # the universal newlines of a text-mode read, which error positions count
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("invalid JSON in %s: %s" % (path, exc)) from exc


def load_fixture_file(path, raw=None):
    """The Fixture in a file; raw as for read_json.

    The cyclic garbage collector is off while the file is read and built:
    a load allocates thousands of tuples and lists that stay alive in the
    fixture, so the collections those allocations would trigger traverse
    them and free next to nothing.  The caller's setting is restored on
    return and on every error.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return load_fixture(read_json(path, raw))
    finally:
        if enabled:
            gc.enable()
