"""Relabelling invariance: the paper defines everything up to isomorphism
of Delta-complexes, so permuting the simplex indices within each
dimension, slots kept, must map every answer with the labels, and so must
permuting the cells of an embedded complex within each level.  The
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
from tropcomplex.embedded import (derive_structure, push_forward_and_compare,
                                  robustness_check)

from tests.conftest import (ABSTRACT, EMBEDDED, fixture_path, relabel,
                            relabel_embedded)

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


def inverse(perm):
    """The permutation that undoes perm."""
    back = [0] * len(perm)
    for i, j in enumerate(perm):
        back[j] = i
    return back


def relabelled_answers(data, rng):
    """(answers on data as given, answers on a relabelled copy mapped
    back)."""
    identity = [range(count) for count in data["simplices"]]
    copy, perm = relabel(data, rng)
    return (answers(load_fixture(data), identity),
            answers(load_fixture(copy), [inverse(p) for p in perm]))


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


# -- embedded data -----------------------------------------------------------


def maximal_key(E, k, idx, m):
    """The maximal unbounded cell m of bounded cell (k, idx), label-free:
    its dimension, and the cell itself (its vertices and rays) unless
    another unbounded cell on the bounded cell, of that dimension, also
    contains every unbounded (k+1)-cell on it, when the cell order breaks
    the tie."""
    if m is None:
        return None
    cell = set(E.bounded[k][idx])
    adjacent = [u for u in E.unbounded if cell <= set(u.vertices)]
    faces = [u for u in adjacent if u.dim == k + 1]
    dim = E.unbounded[m].dim
    tied = [u for u in adjacent if u.dim == dim and all(
        set(a.vertices) <= set(u.vertices) and set(a.rays) <= set(u.rays)
        for a in faces)]
    return dim, E.unbounded[m] if len(tied) == 1 else None


def embedded_answers(data, back):
    """Every answer of the import, the robustness test and the
    push-forward on a loaded embedded fixture, with bounded cell (k, i)
    written as back[k][i]: the balancing coefficients and d per ridge
    cell, the verdict, certificate and maximal cell (`maximal_key`) per
    bounded cell, and per vertex function the push-forward, the oracle
    weights and the verdict, and per divisor its push-forward."""
    fixture = load_fixture(data)
    E = fixture.embedded
    n = E.n
    out = {}
    for r, sol in derive_structure(E)[3].items():
        out["balancing", back[n - 1][r]] = sol.coefficients, sol.d
    for k, level in enumerate(E.bounded):
        for idx in range(len(level)):
            robust, cert, m = robustness_check(E, k, idx)
            out["robust", k, back[k][idx]] = (robust, cert,
                                              maximal_key(E, k, idx, m))

    def mapped(weights):
        return sorted((back[n - 1][r], w) for r, w in weights.items())

    for name, f in fixture.functions.items():
        push = push_forward_and_compare(E, f=f)
        out["push", name] = (mapped(push.pushed), mapped(push.oracle),
                             push.verdict)
    for name, D in fixture.divisors.items():
        out["push", name] = mapped(push_forward_and_compare(E, D).pushed)
    return out


def embedded_data(source, rng):
    """An embedded fixture dict: a shipped one or `gen.embedded_square`,
    with one more vertex function drawn from rng."""
    if source[0] == "fixture":
        data = json.loads(shipped(source[1]))
    else:
        data = dict(gen.embedded_square(source[1], rng).fixture)
    data["functions"] = dict(data.get("functions", {}), drawn=[
        rng.randint(-4, 4) for _ in data["vertices"]])
    return data


def relabelled_embedded_answers(data, rng):
    """(answers on data as given, answers on a relabelled copy mapped
    back)."""
    copy, perm, _ = relabel_embedded(data, rng)
    identity = [range(len(level)) for level in data["bounded_cells"]]
    return (embedded_answers(data, identity),
            embedded_answers(copy, [inverse(p) for p in perm]))


EMBEDDED_SOURCES = st.one_of(
    st.tuples(st.just("fixture"), st.sampled_from(EMBEDDED)),
    st.tuples(st.just("square"), st.integers(1, 3)))


@settings(max_examples=40, deadline=None)
@given(EMBEDDED_SOURCES, st.randoms(use_true_random=False))
def test_embedded_answers_map_with_a_relabelling(source, rng):
    given_answers, mapped = relabelled_embedded_answers(
        embedded_data(source, rng), rng)
    assert mapped == given_answers
