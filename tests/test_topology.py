"""Finite topologies: axiom checking, constructions, continuity certificates."""

import itertools
import types

import pytest
from hypothesis import given, settings, strategies as st

import groupoids.topology as finite_topology
from groupoids.core import FiniteGroupoid, pair_groupoid
from groupoids.topology import (
    STRUCTURE_MAPS,
    FiniteTopology,
    TopologySizeError,
    check_topological_groupoid,
    difference_pairs,
    discrete,
    generate_from_base,
    indiscrete,
    is_topology,
    pullback_continuity,
    topology,
)
from helpers import (
    composable_pairs,
    cyclic,
    difference_equivalence,
    explicit_pullback,
    explicit_topology,
    group_groupoid,
    product_groupoid,
    product_topology,
    pullback_pointwise,
    pullback_space,
    scan_continuity,
    scan_pullback_continuity,
    subspace_topology,
)

F = frozenset
SIERPINSKI = [F(), F({0}), F({0, 1})]


def brute_force_topology(points, family):
    """Quadratic reference check used against the linear implementation."""
    fam = {F(s) for s in family}
    if F() not in fam or F(points) not in fam:
        return False
    return all(a | b in fam and a & b in fam for a in fam for b in fam)


# ------------------------------------------------------------ axiom checks

def test_discrete_family_is_a_topology():
    assert not is_topology([0, 1, 2], discrete([0, 1, 2]).opens)  # powerset


def test_sierpinski_is_a_topology():
    assert not is_topology([0, 1], SIERPINSKI)


def test_missing_union_has_a_pair_witness():
    rep = is_topology([0, 1], [F(), F({0}), F({1})])
    assert rep and rep[0][0] == "missing-union"
    a, b = rep[0][1]
    assert a | b == F({0, 1})  # the union the family is missing


def test_missing_intersection_has_a_pair_witness():
    rep = is_topology([0, 1, 2], [F(), F({0, 1}), F({1, 2}), F({0, 1, 2})])
    assert rep and rep[0][0] == "missing-intersection"
    assert rep[0][1] == (F({0, 1}), F({1, 2}))


def test_structural_failures():
    assert is_topology([0], [F({0})])[0][0] == "missing-empty"
    assert is_topology([0], [F()])[0][0] == "uncovered-point"
    with pytest.raises(ValueError, match="not a subset"):
        is_topology([0], [F({0, 7})])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_axiom_check_matches_brute_force(data):
    pts = list(range(data.draw(st.integers(1, 4))))
    subs = st.frozensets(st.sampled_from(pts), max_size=len(pts))
    fam = data.draw(st.lists(subs, min_size=1, max_size=10))
    fam = [F(s) for s in fam] + data.draw(
        st.sampled_from([[], [F()], [F(pts)], [F(), F(pts)]]))
    rep = is_topology(pts, fam)
    assert (not rep) == brute_force_topology(pts, fam)
    kind, witness = rep[0] if rep else (None, None)
    if kind in ("missing-union", "missing-intersection"):
        a, b = witness  # witnesses replay: members in, combination out
        fs = {F(s) for s in fam}
        assert a in fs and b in fs
        combined = a | b if kind == "missing-union" else a & b
        assert combined not in fs


def test_validated_constructor():
    T = topology([0, 1], SIERPINSKI)
    assert T.points == (0, 1)
    with pytest.raises(ValueError, match="missing-union"):
        topology([0, 1], [F(), F({0}), F({1})])


def test_family_cap():
    assert discrete(range(17)).open_count == 2 ** 17  # counted, never listed
    pts = list(range(17))
    powerset = [F(c) for r in range(18) for c in itertools.combinations(pts, r)]
    with pytest.raises(TopologySizeError, match="exceeds the cap"):
        topology(pts, powerset)


def test_minimal_neighborhoods():
    T = topology([0, 1], SIERPINSKI)
    assert T.neighborhoods == {0: F({0}), 1: F({0, 1})}
    assert F(T.neighborhoods.values()) == F({F({0}), F({0, 1})})


# ------------------------------------------------------------ construction

def test_generate_from_singletons_is_discrete():
    gen = generate_from_base([0, 1, 2], [{0}, {1}, {2}])
    assert gen.base_compatible
    assert gen.topology.opens == discrete([0, 1, 2]).opens


def test_generate_from_whole_set_is_indiscrete():
    gen = generate_from_base([0, 1], [{0, 1}])
    assert gen.base_compatible
    assert gen.topology.opens == indiscrete([0, 1]).opens


def test_incompatible_base_flagged_and_treated_as_subbase():
    gen = generate_from_base([0, 1, 2], [{0, 1}, {1, 2}])
    assert not gen.base_compatible  # {0,1} & {1,2} is no union of members
    assert gen.topology.opens == F({F(), F({1}), F({0, 1}), F({1, 2}), F({0, 1, 2})})


def test_generate_requires_cover():
    with pytest.raises(ValueError, match="fails to cover"):
        generate_from_base([0, 1, 2], [{0, 1}])


def test_generation_cap():
    T = generate_from_base(range(17), [{i} for i in range(17)]).topology
    with pytest.raises(TopologySizeError):
        T.opens  # 2**17 opens: the cap trips where the family is enumerated


def test_product_of_discretes_is_discrete():
    P = product_topology(discrete([0, 1]), discrete([0, 1]))
    assert len(P.opens) == 16
    assert P.opens == discrete(P.points).opens


def test_product_of_sierpinski_by_hand():
    S = topology([0, 1], SIERPINSKI)
    P = product_topology(S, S)
    assert P.opens == F({
        F(), F({(0, 0)}), F({(0, 0), (0, 1)}), F({(0, 0), (1, 0)}),
        F({(0, 0), (0, 1), (1, 0)}), F({(0, 0), (0, 1), (1, 0), (1, 1)})})


def test_product_cap_trips_while_enumerating():
    big = discrete(range(16))
    P = product_topology(big, big)
    with pytest.raises(TopologySizeError, match="over the cap"):
        P.opens


def test_subspace_of_sierpinski_closed_point():
    S = topology([0, 1], SIERPINSKI)
    T = subspace_topology(S, {1})
    assert T.opens == indiscrete([1]).opens
    with pytest.raises(ValueError, match="not contained"):
        subspace_topology(S, {5})


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_subspace_chains_collapse(data):
    pts = list(range(data.draw(st.integers(2, 5))))
    subs = st.frozensets(st.sampled_from(pts), min_size=1, max_size=len(pts))
    base = data.draw(st.lists(subs, max_size=5)) + [F(pts)]
    T = generate_from_base(pts, base).topology
    A = data.draw(st.frozensets(st.sampled_from(pts), min_size=1))
    B = data.draw(st.frozensets(st.sampled_from(sorted(A)), min_size=1))
    assert subspace_topology(subspace_topology(T, A), B).opens \
        == subspace_topology(T, B).opens  # B <= A: restricting twice = once


def two_object_unit_groupoid():
    """Two objects, two identity morphisms, nothing else."""
    return FiniteGroupoid(
        objects=frozenset({"x", "y"}),
        source={"1x": "x", "1y": "y"}, target={"1x": "x", "1y": "y"},
        identity={"x": "1x", "y": "1y"},
        inverse={"1x": "1x", "1y": "1y"},
        compose={("1x", "1x"): "1x", ("1y", "1y"): "1y"})


def test_pullback_of_discrete_units():
    G = two_object_unit_groupoid()
    P = pullback_space(G, discrete(G.morphisms))
    assert set(P.points) == {("1x", "1x"), ("1y", "1y")}
    assert P.opens == discrete(P.points).opens
    with pytest.raises(ValueError, match="unknown pullback kind"):
        pullback_space(G, discrete(G.morphisms), kind="weird")


# ---------------------------------------------------------------- counting

@st.composite
def small_topologies(draw):
    """Topologies on at most 10 points: generated by a random subbase, a
    product of two such, or a subspace of one."""
    def generated(max_points):
        pts = list(range(draw(st.integers(1, max_points))))
        subs = st.frozensets(st.sampled_from(pts), min_size=1)
        return generate_from_base(pts, draw(st.lists(subs, max_size=6)) + [F(pts)]).topology

    kind = draw(st.sampled_from(["subbase", "product", "subspace"]))
    if kind == "subbase":
        return generated(10)
    if kind == "product":
        return product_topology(generated(3), generated(3))
    T = generated(10)
    return subspace_topology(T, draw(st.frozensets(st.sampled_from(T.points), min_size=1)))


@given(small_topologies())
@settings(max_examples=300, deadline=None)
def test_open_count_matches_the_listed_family(T):
    assert T.open_count == len(T.opens)


def test_long_chains_and_wide_antichains_count_without_recursion():
    """A chain halves at each branch and an antichain is all lone points, so
    neither goes deep.  The 5,000-point chain is given to the counter as bit
    masks: its neighbourhoods as sets would hold 12.5 million points.  The
    1,200-point chain, over the default recursion limit, goes through
    `FiniteTopology`."""
    n = 5000
    full = (1 << n) - 1
    down = [(1 << (i + 1)) - 1 for i in range(n)]
    up = [full ^ ((1 << i) - 1) for i in range(n)]
    assert finite_topology._count_down_sets(down, up, finite_topology.MAX_COUNT_STATES)[0] \
        == n + 1
    chain = FiniteTopology({i: F(range(i + 1)) for i in range(1200)})
    assert chain.open_count == 1201
    assert discrete(range(200)).open_count == 2 ** 200


def test_open_count_stops_at_its_bound(monkeypatch, capsys):
    """The Sierpinski clt document needs 5 memoised subproblems to count the
    6 opens of its morphism topology; with the bound at 4 the count stops
    and the report is undecided, naming the bound."""
    import json
    import pathlib

    from groupoids.cli import main

    S = topology([0, 1], SIERPINSKI)
    assert S.open_count == 3
    monkeypatch.setattr(finite_topology, "MAX_COUNT_STATES", 0)
    assert topology([0, 1], SIERPINSKI).open_count is None
    assert discrete(range(20)).open_count == 2 ** 20  # lone points need no memo

    doc = pathlib.Path(__file__).resolve().parent.parent / "corpus" / "clt-sierpinski.json"
    argv = ["clt-generate", str(doc), "--format", "machine"]
    monkeypatch.setattr(finite_topology, "MAX_COUNT_STATES", 5)
    assert main(argv) == 0 and json.loads(capsys.readouterr().out)["verdicts"]["opens"] == 6
    monkeypatch.setattr(finite_topology, "MAX_COUNT_STATES", 4)
    assert main(argv) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "undecided" and report["verdicts"]["opens"] is None
    assert report["undecided"] == [
        "opens not counted: the count stopped at MAX_COUNT_STATES = 4 memoised subproblems"]


# -------------------------------------------------------------- continuity

def rename_product(T, fmt):
    """Product topology with tuple points renamed through fmt."""
    pts = [fmt(p) for p in T.points]
    return topology(pts, [{fmt(p) for p in o} for o in T.opens])


def test_discrete_groupoid_is_topological():
    G = group_groupoid(cyclic(3))
    rep = check_topological_groupoid(G, discrete(G.morphisms), discrete(G.objects))
    assert rep == ()
    assert difference_equivalence(rep)


def test_pair_groupoid_on_sierpinski_with_product_topology():
    T_X = topology([0, 1], SIERPINSKI)
    G = pair_groupoid([0, 1])
    T_G = rename_product(product_topology(T_X, T_X), lambda p: f"({p[0]},{p[1]})")
    rep = check_topological_groupoid(G, T_G, T_X)
    assert rep == ()
    assert difference_equivalence(rep)


def test_indiscrete_morphisms_refute_the_source_map():
    G = pair_groupoid([0, 1])
    rep = check_topological_groupoid(G, indiscrete(G.morphisms), discrete([0, 1]))
    assert rep
    witness = dict(rep)["source"]
    assert witness[0] == F({0})                      # smallest bad open
    assert witness[1] == F({"(0,0)", "(0,1)"})       # its preimage
    assert difference_equivalence(rep)               # all three legs pass


def test_point_set_preconditions():
    G = pair_groupoid([0, 1])
    with pytest.raises(ValueError, match="morphism"):
        check_topological_groupoid(G, discrete([0, 1]), discrete([0, 1]))
    with pytest.raises(ValueError, match="object"):
        check_topological_groupoid(G, discrete(G.morphisms), discrete([0, 1, 2]))


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_pullback_certificates_replay_on_materialized_pullbacks(data):
    """The rectangle criterion must agree with a brute preimage scan over the
    actually-constructed pullback topology."""
    G = pair_groupoid([0, 1])
    ms = sorted(G.morphisms)
    subs = st.frozensets(st.sampled_from(ms), min_size=1, max_size=4)
    base = data.draw(st.lists(subs, max_size=4)) + [F(ms)]
    T_G = generate_from_base(ms, base).topology
    T_X = data.draw(st.sampled_from([indiscrete([0, 1]), discrete([0, 1])]))
    refuted = dict(check_topological_groupoid(G, T_G, T_X))
    for kind, pairs, name, fn in (
            ("composable", composable_pairs(G), "composition",
             lambda ab: G.compose[ab]),
            ("difference", difference_pairs(G), "difference",
             lambda ab: G.compose[(G.inverse[ab[0]], ab[1])])):
        mat = pullback_space(G, T_G, kind=kind)
        scan = scan_continuity(mat.points, mat.opens, T_G.opens, fn)
        assert (name not in refuted) == (scan is None), (kind, T_G.opens)
    # one direction of the difference-map equivalence is unconditional...
    if "composition" not in refuted and "inversion" not in refuted:
        assert "difference" not in refuted
    # ...the converse needs the identity and source maps (it rebuilds
    # inversion as a -> difference(a, 1 at source(a)))
    if "identity" not in refuted and "source" not in refuted:
        assert difference_equivalence(refuted.items())


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_certificates_match_the_explicit_family_scan(data):
    """Every certificate carries the verdict, open, preimage and pair that an
    exhaustive preimage scan over explicitly generated families finds."""
    G = data.draw(st.sampled_from([pair_groupoid([0, 1]), group_groupoid(cyclic(3))]))
    ms, objs = sorted(G.morphisms), sorted(G.objects, key=str)

    def random_opens(points):
        subs = st.frozensets(st.sampled_from(points), min_size=1)
        return explicit_topology(points, data.draw(st.lists(subs, max_size=4)))

    opens_g, opens_x = random_opens(ms), random_opens(objs)
    rep = check_topological_groupoid(G, topology(ms, opens_g), topology(objs, opens_x))
    assert [name for name, _ in rep] == [n for n in STRUCTURE_MAPS if n in dict(rep)]
    refuted = dict(rep)
    plain = ((ms, opens_g, opens_x, G.source.__getitem__),
             (ms, opens_g, opens_x, G.target.__getitem__),
             (objs, opens_x, opens_g, G.identity.__getitem__),
             (ms, opens_g, opens_g, G.inverse.__getitem__))
    for name, (points, dom, cod, fn) in zip(STRUCTURE_MAPS, plain):
        # (open, preimage) from the scan, as the witness is
        assert refuted.get(name) == scan_continuity(points, dom, cod, fn), name
    composable = [(a, b) for a in ms for b in ms if G.target[a] == G.source[b]]
    co_source = [(a, b) for a in ms for b in ms if G.source[a] == G.source[b]]
    pullbacks = ((composable, lambda ab: G.compose[ab]),
                 (co_source, lambda ab: G.compose[(G.inverse[ab[0]], ab[1])]))
    for name, (pairs, fn) in zip(STRUCTURE_MAPS[4:], pullbacks):
        # (open, pair) from the scan, as the witness is
        found = scan_pullback_continuity(pairs, explicit_pullback(opens_g, pairs),
                                         opens_g, fn)
        assert refuted.get(name) == found, name


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_pullback_continuity_is_the_explicit_scan(data):
    """The one neighbourhood pass gives the verdict, open and pair that an
    exhaustive preimage scan of the explicit pullback family gives, on
    composition and on the difference map.  Random subbases refute often;
    discrete and indiscrete topologies never do.  The explicit family grows
    fast, so the larger groupoids are checked against the pair-by-pair
    neighbourhoods of `pullback_pointwise` alone."""
    small = [pair_groupoid([0, 1]), group_groupoid(cyclic(3))]
    G = data.draw(st.sampled_from(small + [group_groupoid(cyclic(4)), pair_groupoid([0, 1, 2]),
                                           product_groupoid(2, cyclic(2))]))
    ms = sorted(G.morphisms)
    subs = st.frozensets(st.sampled_from(ms), min_size=1)
    subbase = data.draw(st.one_of(st.lists(subs, max_size=3),
                                  st.sampled_from([[], [F({m}) for m in ms]])))
    T = generate_from_base(ms, subbase + [F(ms)]).topology
    for pairs, fn in ((composable_pairs(G), lambda a, b: G.compose[(a, b)]),
                      (difference_pairs(G), lambda a, b: G.compose[(G.inverse[a], b)])):
        found = pullback_continuity(pairs, T, T, fn)
        assert found == pullback_pointwise(pairs, T, T, fn)
        assert pullback_continuity(iter(pairs), T, T, fn) == found  # read once
        if G in small:
            opens = T.opens
            assert found == scan_pullback_continuity(
                pairs, explicit_pullback(opens, pairs), opens, lambda ab: fn(*ab))


def test_pullback_first_bad_open_may_lie_in_a_later_class():
    """Two neighbourhood classes fail: the first, of the pair (1, 1), only
    the open {p, t, u}, the later, of (3, 3), the smaller {r}.  The witness
    is {r}, so the least bad open is taken over every class."""
    factor = FiniteTopology({"1": F("12"), "2": F("2"), "3": F("34"), "4": F("4")})
    cod = FiniteTopology({"p": F("ptu"), **{x: F(x) for x in "qrstu"}})
    pairs = [(x, x) for x in "1234"]
    value = dict(zip(pairs, "pqrs"))

    def fn(a, b):
        return value[(a, b)]

    found = pullback_continuity(pairs, factor, cod, fn)
    assert found == (F("r"), (("3", "3"), ("4", "4")))
    assert found == pullback_pointwise(pairs, factor, cod, fn)
    assert found == scan_pullback_continuity(
        pairs, explicit_pullback(factor.opens, pairs), cod.opens, lambda ab: fn(*ab))


def test_the_package_attribute_is_the_module():
    import groupoids.topology as T

    assert isinstance(T, types.ModuleType) and T.topology is topology
