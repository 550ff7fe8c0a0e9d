import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from groupoids import core
from groupoids.core import (
    components,
    generated_by,
    normal_closure,
    pair_groupoid,
    quotient,
    validate_groupoid,
    validate_morphism,
)
from helpers import (
    all_groups_upto8,
    closure_oracle,
    cyclic,
    group_groupoid,
    normal_closure_oracle,
    pair_compose_table,
    product_groupoid,
    replay_violation,
    sym3,
    wide_subgroupoid_oracle,
    with_tables,
)


def test_pair_groupoid_composition_rule():
    G = pair_groupoid(["0", "1", "2"])
    assert G.compose[("(0,1)", "(1,2)")] == "(0,2)"  # (x,y)(y,z) = (x,z)
    assert G.inverse[("(0,1)")] == "(1,0)"
    assert G.identity["1"] == "(1,1)"


@pytest.mark.parametrize("n", range(1, 7))
def test_pair_groupoid_axioms(n):
    G = pair_groupoid([str(i) for i in range(n)])
    assert not validate_groupoid(G)
    assert len(list(G.morphisms)) == n * n


@pytest.mark.parametrize("name,table", all_groups_upto8())
def test_groups_validate(name, table):
    assert not validate_groupoid(group_groupoid(table))


def test_star_costar():
    G = pair_groupoid(["a", "b", "c"])
    assert G.star("a") == ["(a,a)", "(a,b)", "(a,c)"]
    assert G.costar("b") == ["(a,b)", "(b,b)", "(c,b)"]
    with pytest.raises(ValueError):
        G.star("zz")


def test_star_partitions_morphisms():
    G = product_groupoid(3, sym3())
    seen = []
    for x in sorted(G.objects):
        seen.extend(G.star(x))
    assert sorted(seen) == sorted(G.morphisms)  # stars partition the morphisms


def test_injected_endpoint_fault_is_reported_once():
    G = pair_groupoid(["0", "1", "2"])
    bad = dict(G.compose)
    bad[("(0,1)", "(1,2)")] = "(0,1)"  # wrong target
    B = type(G)(objects=G.objects, source=G.source, target=G.target,
                identity=G.identity, inverse=G.inverse, compose=bad)
    rep = validate_groupoid(B)
    assert rep
    assert [w for _, w in rep] == [("(0,1)", "(1,2)", "(0,1)")]
    assert rep[0][0] == "compose-endpoint"


def test_associativity_fault_in_group_table():
    names, mul, inv, unit = cyclic(5)
    mul = dict(mul)
    mul[("2", "3")] = "1"  # should be 0
    G = group_groupoid((names, mul, inv, unit))
    rep = validate_groupoid(G)
    kinds = {k for k, _ in rep}
    assert "associativity" in kinds or "inverse-law" in kinds
    for v in rep:
        assert replay_violation(G, v)


def test_random_single_entry_mutations_always_caught():
    rng = random.Random(7)
    pool = [group_groupoid(t) for _, t in all_groups_upto8() if len(t[0]) > 1]
    pool += [pair_groupoid([str(i) for i in range(n)]) for n in range(2, 5)]
    for _ in range(60):
        G = rng.choice(pool)
        table = rng.choice(["compose", "inverse", "identity"])
        morphs = sorted(G.morphisms)
        if table == "compose":
            d = dict(G.compose)
            key = rng.choice(sorted(d))
            d[key] = rng.choice([m for m in morphs if m != d[key]])
            B = type(G)(objects=G.objects, source=G.source, target=G.target,
                        identity=G.identity, inverse=G.inverse, compose=d)
        elif table == "inverse":
            d = dict(G.inverse)
            key = rng.choice(sorted(d))
            d[key] = rng.choice([m for m in morphs if m != d[key]])
            B = type(G)(objects=G.objects, source=G.source, target=G.target,
                        identity=G.identity, inverse=d, compose=G.compose)
        else:
            d = dict(G.identity)
            key = rng.choice(sorted(d))
            d[key] = rng.choice([m for m in morphs if m != d[key]])
            B = type(G)(objects=G.objects, source=G.source, target=G.target,
                        identity=d, inverse=G.inverse, compose=G.compose)
        rep = validate_groupoid(B)
        assert rep
        for v in rep:
            assert replay_violation(B, v)


def test_generated_by_path_adjacency():
    G = pair_groupoid(["0", "1", "2", "3"])
    adj = {G.identity[x] for x in G.objects}
    for i in range(3):
        adj |= {f"({i},{i + 1})", f"({i + 1},{i})"}
    assert generated_by(G, adj)
    assert not generated_by(G, {G.identity[x] for x in G.objects})
    with pytest.raises(ValueError):
        generated_by(G, {"(0,1)"})  # identities missing


# a connected groupoid on 1-3 objects with a vertex group of order <= 8
lawful_groupoids = st.builds(product_groupoid, st.integers(1, 3),
                             st.sampled_from([t for _, t in all_groups_upto8()]))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_generated_by_matches_the_round_loop(data):
    """Semi-naive rounds reach the fixpoint of the loop that rescans closure
    x closure, on lawful tables and on tables that keep every composable
    key but drop some composites or name wrong ones."""
    G = data.draw(lawful_groupoids)
    morphs = sorted(G.morphisms)
    if data.draw(st.booleans()):
        compose = dict(G.compose)
        for key in data.draw(st.lists(st.sampled_from(sorted(compose)),
                                      max_size=6, unique=True)):
            wrong = data.draw(st.none() | st.sampled_from(morphs))
            if wrong is None:
                del compose[key]
            else:
                compose[key] = wrong
        G = with_tables(G, compose=compose)
    carrier = {G.identity[x] for x in G.objects}
    carrier |= set(data.draw(st.lists(st.sampled_from(morphs), max_size=4)))
    closure = closure_oracle(G, carrier)
    assert core._closure(G, carrier) == closure
    assert generated_by(G, carrier) == (closure == set(morphs))


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_normal_closure_matches_the_round_loop(data):
    G = data.draw(lawful_groupoids)
    endos = sorted(m for m in G.morphisms if G.source[m] == G.target[m])
    seeds = {G.identity[x] for x in G.objects}
    seeds |= set(data.draw(st.lists(st.sampled_from(endos), max_size=3)))
    expected = frozenset(normal_closure_oracle(G, seeds))
    assert normal_closure(G, seeds) == expected


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_wide_subgroupoid_check_matches_the_all_pairs_scan(data):
    """Looking composites up only for composable pairs, through the index by
    source, gives the problems, in order, that looking up every pair gives.
    The tables are lawful group, product and pair groupoids, or such tables
    with some composites and inverses replaced by other morphisms with the
    same endpoints, which still pass `validate_structure`.  Carriers are
    random, with or without the identities, sometimes closed by the round
    loop, and sometimes hold a name that is not a morphism."""
    G = data.draw(lawful_groupoids | st.builds(
        lambda n: pair_groupoid([f"p{i}" for i in range(n)]), st.integers(1, 5)))
    morphs = sorted(G.morphisms)

    def parallel(x, y):
        return [m for m in morphs if G.source[m] == x and G.target[m] == y]

    if data.draw(st.booleans()):
        compose, inverse = dict(G.compose), dict(G.inverse)
        for a, b in data.draw(st.lists(st.sampled_from(sorted(compose)),
                                       max_size=6, unique=True)):
            compose[(a, b)] = data.draw(st.sampled_from(parallel(G.source[a], G.target[b])))
        for m in data.draw(st.lists(st.sampled_from(morphs), max_size=2, unique=True)):
            inverse[m] = data.draw(st.sampled_from(parallel(G.target[m], G.source[m])))
        G = with_tables(G, compose=compose, inverse=inverse)
        assert not core.validate_structure(G)
    carrier = set(data.draw(st.lists(st.sampled_from(morphs), max_size=len(morphs))))
    if data.draw(st.booleans()):
        carrier |= set(G.identity.values())
    shape = data.draw(st.sampled_from(["random", "closed", "stranger"]))
    if shape == "closed":
        carrier = closure_oracle(G, carrier)
    elif shape == "stranger":
        carrier.add("not-a-morphism")
    assert core.check_wide_subgroupoid(G, carrier) == tuple(wide_subgroupoid_oracle(G, carrier))


def test_pair_groupoid_names_each_morphism_once():
    G = pair_groupoid(range(4))
    named = {id(m) for m in G.source}
    for names in (G.target, G.inverse, G.inverse.values(), G.compose.values(),
                  (m for key in G.compose for m in key)):
        assert {id(m) for m in names} == named
    assert {id(m) for m in G.identity.values()} <= named


def test_pair_groupoid_refuses_two_pairs_with_one_name():
    """("a", "b,c") and ("a,b", "c") would both be named "(a,b,c)"."""
    with pytest.raises(ValueError) as err:
        pair_groupoid(["a", "b,c", "a,b", "c"])
    assert str(err.value) == ("pairs ('a', 'b,c') and ('a,b', 'c') "
                              "are both named '(a,b,c)'")
    assert len(pair_groupoid(["a", "b,c", "c"]).source) == 9  # commas alone are fine


@pytest.mark.parametrize("points", [["0"], ["a", "b"], range(5), ["x", "y10", "y2", "z"]])
def test_pair_groupoid_computes_the_explicit_table(points):
    """The computed composition holds the entries of the explicit table, in
    its order, has its length, and refuses every other pair."""
    G = pair_groupoid(points)
    table = pair_compose_table(points)
    assert list(G.compose.items()) == list(table.items())
    assert list(G.compose) == list(table)
    assert len(G.compose) == len(table) == len(G.objects) ** 3
    morphs = sorted(G.morphisms)
    for a, b in itertools.product(morphs, morphs):
        assert G.compose.get((a, b)) == table.get((a, b))
    for key in [("(0,0)", "(9,9)"), ("nope", morphs[0]), (morphs[0],), "ab", None]:
        assert key not in G.compose
        with pytest.raises(KeyError):
            G.compose[key]
    with pytest.raises(TypeError):
        G.compose[(morphs[0], morphs[0])] = morphs[0]  # read-only


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_generated_by_on_pair_groupoids_matches_the_round_loop(data):
    """The closure decides generation on pair groupoids of 1-6 points as the
    round loop does, for carriers that hold the identities, whether or not
    they are closed under inversion."""
    n = data.draw(st.integers(1, 6))
    G = pair_groupoid([f"p{i}" for i in range(n)])
    others = sorted(m for m in G.morphisms if not G.is_identity(m))
    carrier = {G.identity[x] for x in G.objects}
    if others:
        carrier |= data.draw(st.sets(st.sampled_from(others), max_size=2 * n))
    expected = closure_oracle(G, carrier) == set(G.morphisms)
    assert generated_by(G, carrier) == expected


def test_generated_by_reads_every_table_of_a_rebuilt_pair_groupoid():
    """A table rebuilt around a pair groupoid's composition, with another
    inverse or identity, is closed as it stands: here a wrong inverse keeps
    (1,0) out of reach although {0, 1} is connected."""
    G = pair_groupoid(["0", "1"])
    carrier = {"(0,0)", "(1,1)", "(0,1)"}
    assert generated_by(G, carrier)
    B = with_tables(G, inverse={**G.inverse, "(0,1)": "(0,1)"})
    assert closure_oracle(B, carrier) == carrier
    assert not generated_by(B, carrier)
    C = with_tables(G, identity=dict(G.identity))
    assert generated_by(C, carrier)


def test_normal_closure_in_z6():
    G = group_groupoid(cyclic(6))
    N = normal_closure(G, {"2"})
    assert N == frozenset({"0", "2", "4"})


def test_normal_closure_transposition_in_s3():
    G = group_groupoid(sym3())
    # conjugates of one transposition generate everything
    swap = "102"  # the permutation exchanging 0 and 1
    N = normal_closure(G, {swap})
    assert len(N) == 6


def test_normal_closure_rejects_non_endomorphism():
    G = pair_groupoid(["0", "1"])
    with pytest.raises(ValueError):
        normal_closure(G, {"(0,1)"})


def test_quotient_z6_by_even():
    G = group_groupoid(cyclic(6))
    Q, proj = quotient(G, frozenset({"0", "2", "4"}))
    assert len(list(Q.morphisms)) == 2
    assert not validate_groupoid(Q)
    assert not validate_morphism(G, Q, proj)


def test_quotient_kernel_is_n():
    G = product_groupoid(2, sym3())
    seeds = {m for m in G.morphisms
             if G.source[m] == G.target[m] == "o0" and m.endswith(":021")}
    N = normal_closure(G, seeds)
    Q, proj = quotient(G, N)
    kernel = {m for m in G.morphisms
              if Q.is_identity(proj.mor_map[m])}
    assert kernel == set(N)


@given(st.integers(2, 4), st.sampled_from(["Z2", "Z4", "V4", "S3"]))
@settings(max_examples=30, deadline=None)
def test_quotient_counting_law(k, gname):
    table = dict(all_groups_upto8())[gname]
    G = product_groupoid(k, table)
    rng = random.Random(k * 31 + hash(gname) % 97)
    seed = rng.choice(sorted(m for m in G.morphisms
                             if G.source[m] == G.target[m] == "o0"))
    N = normal_closure(G, {seed})
    Q, _ = quotient(G, N)
    n_size = sum(1 for m in N if G.source[m] == "o0")
    for x, y in itertools.product(sorted(G.objects), repeat=2):
        g_xy = len(G.hom(x, y))
        q_xy = len(Q.hom(x, y))
        assert q_xy * n_size == g_xy  # coset counting


def test_components():
    G = pair_groupoid(["0", "1"])
    assert components(G) == [["0", "1"]]
