"""Fixture files and canonical JSON encodings.

A fixture is a JSON object with "format": "tcx-1" and one of three kinds:
"abstract" (a DeltaComplex with optional structure constants, divisors,
curves, and vertex functions), "embedded" (a unimodular subdivision), or
"degeneration" (a complex plus intersection data).  Rationals are encoded
as [numerator, denominator] in lowest terms; reports use sorted keys so
equal inputs produce byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .delta import DeltaComplex, build_complex
from .errors import InputError, SchemaError
from .structure import TropicalStructure, make_structure
from .divisors import Divisor, FacetPiece, LocalGerm
from .curves import BreakpointFunction, Curve, PointSum
from .degeneration import DegenerationData, load_degeneration
from .embedded import EmbeddedComplex, load_embedded

FORMAT = "tcx-1"


def rat(x):
    f = Fraction(x)
    return [f.numerator, f.denominator]


def unrat(v):
    if isinstance(v, (list, tuple)):
        return Fraction(int(v[0]), int(v[1]))
    return Fraction(v)


def _int_entry(entry, size, what):
    """A fixture entry as a tuple of `size` ints, or SchemaError naming it."""
    try:
        out = tuple(int(x) for x in entry)
    except (TypeError, ValueError):
        out = None
    if out is None or len(out) != size:
        raise SchemaError("%s entry %r is not %d integers" % (what, entry, size))
    return out


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def sha256_of_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


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


def divisor_from_json(data):
    if isinstance(data, list):
        return Divisor.on_ridges(dict(_int_entry(e, 2, "divisor") for e in data))
    pairs = [_int_entry(e, 2, "divisor") for e in data.get("ridge_part", [])]
    ridge = tuple(sorted(p for p in pairs if p[1] != 0))
    pieces = tuple(
        FacetPiece(int(f), tuple(int(x) for x in normal),
                   Fraction(int(num), int(den)), int(mult))
        for f, normal, num, den, mult in data.get("facet_pieces", [])
    )
    return Divisor(ridge, pieces)


def curve_to_json(C: Curve):
    return [[e, m] for e, m in C.multiplicities]


def curve_from_json(data):
    return Curve.on_edges(dict(_int_entry(e, 2, "curve") for e in data))


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
    pieces = {}
    for e, pts in data:
        pieces[int(e)] = [
            (Fraction(int(pn), int(pd)), Fraction(int(vn), int(vd)))
            for pn, pd, vn, vd in pts
        ]
    return BreakpointFunction.on_edges(pieces)


# ---------------------------------------------------------------------------
# Fixtures


@dataclass
class Fixture:
    kind: str
    raw: dict
    complex: DeltaComplex | None = None
    alpha: dict | None = None
    embedded: EmbeddedComplex | None = None
    degeneration: DegenerationData | None = None
    divisors: dict = field(default_factory=dict)
    curves: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)

    def structure(self):
        if self.complex is None:
            raise InputError("fixture has no abstract complex")
        return make_structure(self.complex, self.alpha)


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
        raise InputError("unsupported fixture format %r" % (data.get("format"),))
    kind = detect_kind(data)
    fx = Fixture(kind, data)
    if kind == "abstract":
        fx.complex = build_complex(data)
        if "alpha" in data:
            fx.alpha = {(r, s): v for r, s, v in
                        (_int_entry(e, 3, "alpha") for e in data["alpha"])}
    elif kind == "embedded":
        fx.embedded = load_embedded(data)
    elif kind == "degeneration":
        fx.complex = build_complex(data["complex"])
        fx.degeneration = load_degeneration(data)
        fx.divisors = {
            name: Divisor.on_ridges(dict(entries))
            for name, entries in fx.degeneration.divisors.items()
        }
        fx.curves = {
            name: Curve.on_edges(dict(entries))
            for name, entries in fx.degeneration.curves.items()
        }
    else:
        raise InputError("unknown fixture kind %r" % (kind,))
    if kind != "degeneration":
        for name, d in data.get("divisors", {}).items():
            fx.divisors[name] = divisor_from_json(d)
        for name, c in data.get("curves", {}).items():
            fx.curves[name] = curve_from_json(c)
    for name, values in data.get("functions", {}).items():
        fx.functions[name] = [int(x) for x in values]
    return fx


def load_fixture_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError("invalid JSON in %s: %s" % (path, exc)) from exc
    return load_fixture(data)
