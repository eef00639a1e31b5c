"""Relabelling invariance: the paper defines everything up to isomorphism
of Delta-complexes, so permuting the simplex indices within each
dimension, slots kept, must map every answer with the labels.  The
answers of a relabelled copy, mapped back, must equal the answers on the
fixture as given."""

import json
import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from tcxbench import gen
from tropcomplex import (InputError, classify, div_vertex_function,
                         intersect_degree, is_balanced, load_fixture,
                         weil_test)

from tests.conftest import ABSTRACT, fixture_path, relabel

ALPHA_KINDS = ("unit", "weak", "kernel")


@lru_cache(maxsize=None)
def shipped(name):
    return fixture_path(name).read_text()


def torus_data(k, alpha_kind, rng):
    """The shuffled k x k torus as a fixture dict, with a random divisor,
    a sum of straight cycles, a random curve and a vertex function.  alpha
    is 1 everywhere ("unit"), random with slot sums 2, which keeps the
    weak constraint ("weak"), or random in -2..3 per entry, as
    `kernel_structures` draws it ("kernel")."""
    t = gen.torus(k, rng)
    data = dict(t.fixture)
    edges = range(len(t.edges))
    if alpha_kind == "weak":
        data["alpha"] = []
        for e in edges:
            a = rng.choice((-1, 0, 1, 1, 2, 3))
            data["alpha"] += [[e, 0, a], [e, 1, 2 - a]]
    elif alpha_kind == "kernel":
        data["alpha"] = [[e, s, rng.randint(-2, 3)]
                         for e in edges for s in range(2)]
    data["divisors"] = {"R": sorted([e, rng.randint(-2, 2)]
                                    for e in rng.sample(edges, 3))}
    data["curves"] = {
        "L": sorted([e, m] for e, m in gen.torus_curve(t, rng).items()),
        "R": sorted([e, rng.randint(-2, 2)] for e in rng.sample(edges, 4))}
    data["functions"] = {"phi": [rng.randint(-3, 3) for _ in range(t.nv)]}
    return data


def source_data(source, rng):
    if source[0] == "fixture":
        return json.loads(shipped(source[1]))
    return torus_data(source[1], source[2], rng)


def answers(fixture, back):
    """Every answer of classify, weil_test, is_balanced, intersect_degree
    and div_vertex_function on a loaded abstract fixture, with each
    simplex index i of dimension k written as back[k][i]: the fixture's
    divisors and the divisor of each vertex function, against each of its
    curves.  An intersection that raises is recorded by its error type
    only, since the message names the first failing vertex."""
    T = fixture.structure()
    n = T.complex.n

    def at(k, i):
        return back[k][i]

    result = classify(T)
    out = {"classify": (
        result.verdict,
        sorted((at(n - 2, q), tuple(ine)) for q, ine in result.inertias),
        sorted((at(n - 1, r), total, deg)
               for r, total, deg in result.weak.violations),
        sorted(at(n - 1, r) for r in result.weak.isolated_ridges))}
    divisors = dict(fixture.divisors)
    for name, phi in fixture.functions.items():
        D = divisors["div " + name] = div_vertex_function(T, phi)
        out["div", name] = sorted((at(n - 1, r), c) for r, c in D.ridge_part)
    for name, D in divisors.items():
        passed, failures = weil_test(T, D)
        out["weil", name] = passed, sorted(at(n - 2, q) for q in failures)
    for cname, C in fixture.curves.items():
        balance = is_balanced(T, C)
        out["balance", cname] = balance.balanced, sorted(
            (at(0, v), dim) for v, dim in balance.dims)
        for name, D in divisors.items():
            try:
                got = intersect_degree(T, D, C)
            except InputError as exc:
                out["intersect", name, cname] = type(exc).__name__
                continue
            out["intersect", name, cname] = got.degree, sorted(
                ((loc[0], at(0 if loc[0] == "v" else 1, loc[1]), *loc[2:]), c)
                for loc, c in got.point_sum.entries)
    return out


def relabelled_answers(data, rng):
    """(answers on data as given, answers on a relabelled copy mapped
    back)."""
    identity = [range(count) for count in data["simplices"]]
    copy, perm = relabel(data, rng)
    back = []
    for p in perm:
        inverse = [0] * len(p)
        for i, j in enumerate(p):
            inverse[j] = i
        back.append(inverse)
    return (answers(load_fixture(data), identity),
            answers(load_fixture(copy), back))


SOURCES = st.one_of(
    st.tuples(st.just("fixture"), st.sampled_from(ABSTRACT)),
    st.tuples(st.just("torus"), st.integers(3, 5),
              st.sampled_from(ALPHA_KINDS)))


@settings(max_examples=120, deadline=None)
@given(SOURCES, st.randoms(use_true_random=False))
def test_answers_map_with_a_relabelling(source, rng):
    given_answers, mapped = relabelled_answers(source_data(source, rng), rng)
    assert mapped == given_answers


def test_relabelling_reaches_every_kind_of_answer():
    # the draws of the test above reach every verdict, both ways a
    # divisor or a curve can fail and both intersection errors, over
    # fixed seeds of every source
    kinds = set()
    sources = [("fixture", name) for name in ABSTRACT]
    sources += [("torus", k, alpha) for k in (3, 5) for alpha in ALPHA_KINDS]
    for source in sources:
        for seed in range(3):
            rng = random.Random(seed)
            given_answers, mapped = relabelled_answers(
                source_data(source, rng), rng)
            assert mapped == given_answers, (source, seed)
            for key, value in given_answers.items():
                if key == "classify":
                    kinds.add(value[0])
                    kinds.add("inertias" if value[1] else "no inertias")
                elif key[0] in ("weil", "balance"):
                    kinds.add((key[0], value[0]))
                elif key[0] == "intersect":
                    kinds.add(value if isinstance(value, str)
                              else ("degree", value[0] != 0))
    assert kinds >= {
        "tropical", "weak-only", "inertias", "no inertias",
        ("weil", True), ("weil", False), ("balance", True),
        ("balance", False), "NotBalanced", "NotQCartierNearCurve",
        ("degree", True), ("degree", False)}, kinds
