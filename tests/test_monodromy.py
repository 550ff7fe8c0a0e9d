"""Monodromy construction, evaluation map, globalization, star covers, graphs."""

import itertools
import random
import re
import sys
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import groupoids.monodromy as monodromy
from groupoids.core import (
    FiniteGroupoid,
    check_wide_subgroupoid,
    generated_by,
    pair_groupoid,
    validate_groupoid,
    validate_structure,
)
from groupoids.monodromy import (
    MonodromyGroupoid,
    build_monodromy,
    canonical_morphism,
    globalize,
    pi1_graph,
    star_covering_report,
)
from groupoids.dot import export_dot
from groupoids.words import (
    DEFAULT_BUDGET,
    Exhausted,
    TokenTrie,
    Word,
    build_engine,
    collapse_letters,
    collapse_presentation,
    coset_enumeration,
    simplify_presentation,
)
from helpers import (
    all_groups_upto8,
    class_search_oracle,
    closure_oracle,
    collapse_oracle,
    component_ranks,
    cyclic,
    group_groupoid,
    pi1_rank,
    pi1_renamed,
    product_groupoid,
    relabel,
    sym3,
    table_engine_oracle,
    translate_collisions_oracle,
    tree_links,
    triple_certificate_oracle,
    triple_collapse,
    with_tables,
    z2_breaking_the_identity_law,
)


def zmod(n, window=(0, 1, -1)):
    """Cyclic group groupoid with the subset {0, +1, -1} (by default)."""
    G = group_groupoid(cyclic(n))
    W = {str(k % n) for k in window}
    return G, W


# ---------------------------------------------------------------- building

def test_build_monodromy_rejects_bad_carriers():
    """A carrier that is not an inversion-closed set of morphisms holding
    every identity is refused, the first fault named in a fixed order: a
    stranger (the least), then the identity at the least object without
    one, then the least element whose inverse is missing."""
    G, P = group_groupoid(cyclic(5)), pair_groupoid(["a", "b", "c"])
    cases = [(G, {"1", "4"}, "carrier misses the identity at '*'"),
             (G, {"0", "1"}, "carrier not inversion-closed at '1'"),
             (G, ["0", "9", "9"], "not a morphism: '9'"),
             (G, {"2", "9", "8"}, "not a morphism: '8'"),
             (G, {"1", "2"}, "carrier misses the identity at '*'"),
             (G, {"0", "2", "1", "4"}, "carrier not inversion-closed at '2'"),
             (P, {"(a,a)", "(c,c)", "(a,b)"}, "carrier misses the identity at 'b'"),
             (P, {"(a,a)", "(b,b)", "(c,c)", "(b,c)", "(a,b)"},
              "carrier not inversion-closed at '(a,b)'")]
    for H, carrier, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_monodromy(H, carrier)


def test_relator_family_mod5():
    G, W = zmod(5)
    M = build_monodromy(G, W)
    assert set(M.relator_family) == {
        ("0", "0", "0"), ("0", "1", "1"), ("0", "4", "4"),
        ("1", "0", "1"), ("4", "0", "4"),
        ("1", "4", "0"), ("4", "1", "0"),
    }
    # identity letters erased: only the two backtracking relators survive
    assert sorted(r.letters for r in M.relators) == [
        (("1", 1), ("4", 1)), (("4", 1), ("1", 1))]


def test_window_subset_gives_free_rank_one():
    for n in (4, 5, 6, 7, 11):
        G, W = zmod(n)
        M = build_monodromy(G, W)
        assert M.engines[0].verdict == "free rank 1", n
        assert M.generates_ambient


def test_mod3_window_is_the_whole_group():
    # at n=3 the window {0,+1,-1} is all of Z/3, so the one-step products
    # 1+1=2 and 2+2=1 enter the relator family and kill freeness
    G, W = zmod(3)
    M = build_monodromy(G, W)
    assert ("1", "1", "2") in M.relator_family
    assert M.engines[0].verdict == "finite order 3"


def test_full_subset_recovers_the_group():
    table, _ = sym3(), None
    G = group_groupoid(sym3())
    M = build_monodromy(G, G.morphisms)
    assert M.engines[0].verdict == "finite order 6"


def test_non_generating_subset_is_recorded():
    G = group_groupoid(cyclic(6))
    W = {"0", "2", "4"}
    M = build_monodromy(G, W)
    assert not M.generates_ambient
    assert M.engines[0].verdict == "finite order 3"  # the even subgroup


def test_i_tilde():
    G, W = zmod(5)
    M = build_monodromy(G, W)
    assert M.i_tilde("0") == Word((), "*")
    assert M.i_tilde("1") == Word((("1", 1),), "*")
    with pytest.raises(ValueError):
        M.i_tilde("2")


# ------------------------------------------------------- equality of words

def test_word_equality_free_case():
    G, W = zmod(5)
    M = build_monodromy(G, W)
    w1 = Word((("1", 1),) * 3, "*")
    w2 = Word((("4", -1),) * 3, "*")  # relator [1][4] forces [1] = [4]^-1
    assert M.equal(w1, w2) is True
    assert M.equal(w1, Word((("1", 1),), "*")) is False
    (_, _, t1), exact = M.token(w1)
    (_, _, t2), _ = M.token(w2)
    assert exact and t1 == t2


def test_word_equality_uses_endpoints():
    M = pi1_graph(["a", "b"], [("a", "b")])
    step = Word(((f"(a,mid(a,b))", 1),), "a")
    assert M.equal(step, Word((), "a")) is False  # endpoints differ
    assert M.equal(Word((), "a"), Word((), "b")) is False


def test_undecided_engine_reports_none():
    G = group_groupoid(sym3())
    M = build_monodromy(G, G.morphisms, budget=3)
    engine = M.engines[0]
    assert (engine.verdict, engine.exact, M.budget) == ("undecided", False, 3)
    undecided = [M.equal(M.i_tilde(a), M.i_tilde(b))
                 for a in sorted(M.carrier)
                 for b in sorted(M.carrier) if a < b]
    assert None in undecided  # some pair the budget cannot separate
    assert True not in undecided  # p(i~(a)) = a keeps distinct elements apart
    _, exact = M.token(M.i_tilde("120"))
    assert exact is False


# ------------------------------------------------------------- evaluation

def test_canonical_morphism_splits_i_tilde():
    for n in (3, 5, 8):
        G, W = zmod(n)
        M = build_monodromy(G, W)
        p = canonical_morphism(M)
        for a in sorted(W):
            assert p.evaluate(M.i_tilde(a)) == a
    G = group_groupoid(sym3())
    M = build_monodromy(G, G.morphisms)
    p = canonical_morphism(M)
    assert all(p.evaluate(M.i_tilde(a)) == a for a in sorted(M.carrier))


def test_canonical_morphism_kills_relators():
    G, W = zmod(7)
    M = build_monodromy(G, W)
    p = canonical_morphism(M)
    for r in M.relators:
        assert p.evaluate(r) == "0"
    # equal words evaluate equal
    w1 = Word((("1", 1),) * 3, "*")
    w2 = Word((("6", -1),) * 3, "*")
    assert p.evaluate(w1) == p.evaluate(w2) == "3"


# ----------------------------------------------------------- globalization

def test_globalize_extends_a_compatible_map():
    G, W = zmod(7)
    M = build_monodromy(G, W)
    H = group_groupoid(sym3())
    f = {"0": "012", "1": "120", "6": "201"}  # send the step to a 3-cycle
    extension, obstruction = globalize(M, f, H)
    assert obstruction is None
    for a in sorted(W):  # the extension restricts back to f
        assert extension.evaluate(M.i_tilde(a)) == f[a]
    seven = Word((("1", 1),) * 7, "*")
    cube = Word((("1", 1),) * 3, "*")
    assert extension.evaluate(seven) == "120"  # 7 = 1 mod the cycle's order
    assert extension.evaluate(cube) == "012"


def test_globalize_reports_the_first_obstruction():
    G = group_groupoid(cyclic(7))
    W = {"0", "1", "2", "5", "6"}
    M = build_monodromy(G, W)
    H = group_groupoid(sym3())
    f = {"0": "012", "1": "120", "6": "201", "2": "012", "5": "012"}
    extension, obstruction = globalize(M, f, H)  # f(1)f(1) is a 3-cycle but f(2) is trivial
    assert obstruction is not None
    assert extension is None
    assert obstruction == ("1", "1", "2")


def test_globalize_precondition_errors():
    G, W = zmod(7)
    M = build_monodromy(G, W)
    H = group_groupoid(sym3())
    with pytest.raises(ValueError, match="not defined"):
        globalize(M, {"0": "012", "1": "120"}, H)
    with pytest.raises(ValueError, match="identity"):
        globalize(M, {"0": "120", "1": "120", "6": "201"}, H)
    with pytest.raises(ValueError, match="inversion"):
        globalize(M, {"0": "012", "1": "120", "6": "120"}, H)


def test_globalize_rejects_map_keys_off_the_carrier():
    """A value stated off W has nothing to be checked against: the extension
    lives on the presented groupoid, where 1.1.1 and 6.6.6.6 both evaluate
    to 3 in Z/7 but go to 012 and 201.  So any key off W, a morphism of G
    or not, is a precondition error naming it."""
    G, W = zmod(7)
    M = build_monodromy(G, W)
    H = group_groupoid(sym3())
    f = {"0": "012", "1": "120", "6": "201"}
    extension, _ = globalize(M, f, H)
    assert extension.evaluate(Word((("1", 1),) * 3, "*")) == "012"
    assert extension.evaluate(Word((("6", 1),) * 4, "*")) == "201"
    for key in ("3", "bogus"):
        with pytest.raises(ValueError, match=f"off the generating subset at '{key}'"):
            globalize(M, {**f, key: "120"}, H)


def test_globalize_builds_no_engine(monkeypatch):
    """`globalize` reads only the defining triples.  On the full carrier of
    Z/48 less {2, 46}, whose engine would take Tietze elimination and coset
    enumeration, neither `build_engine` nor `_table_engine` is called."""
    G = group_groupoid(cyclic(48))
    W = G.morphisms - {"2", "46"}
    calls = []
    for name in ("build_engine", "_table_engine"):
        original = getattr(monodromy, name)
        monkeypatch.setattr(monodromy, name,
                            lambda *a, _o=original, **k: calls.append(a) or _o(*a, **k))
    M = build_monodromy(G, W)
    assert globalize(M, {a: a for a in W}, G)[1] is None
    assert calls == [] and "engines" not in vars(M)


# ------------------------------------------------------------- star covers

def line_fibers(n, depth):
    """Independent model of the depth-limited fiber count: word classes over
    {0,+-1} in the free rank-one case are integers reached by +-1 steps."""
    return {str(g): sum(1 for k in range(-depth, depth + 1) if k % n == g)
            for g in range(n)}


def test_star_cover_matches_the_integer_line():
    for n, depth in ((4, 12), (5, 12), (6, 18), (7, 10)):
        G, W = zmod(n)
        M = build_monodromy(G, W)
        rep = star_covering_report(M, "*", depth)
        assert rep.reached == line_fibers(n, depth), (n, depth)
        assert rep.surjective_within_depth
        assert not rep.saturated          # free of rank one: always more words
        assert rep.fiber_counts_exact
        assert rep.undecided_depth == () and rep.capped_at is None
        assert translate_collisions_oracle(M, "*") == ((), ())


def test_star_cover_equal_fibers_in_a_balanced_window():
    G, W = zmod(5)
    M = build_monodromy(G, W)
    rep = star_covering_report(M, "*", 12)
    assert set(rep.reached.values()) == {5}  # 25 classes spread evenly


def test_star_cover_shallow_window_leaves_elements_undecided():
    G, W = zmod(5)
    M = build_monodromy(G, W)
    rep = star_covering_report(M, "*", 1)
    assert rep.reached == {"0": 1, "1": 1, "4": 1}
    assert rep.undecided_depth == ("2", "3")
    assert not rep.surjective_within_depth
    assert rep.unreachable == ()
    assert rep.undecided_depth  # undecided by the window alone
    assert translate_collisions_oracle(M, "*") == ((), ()) and rep.fiber_counts_exact
    assert rep.capped_at is None


def test_star_cover_refutes_unreachable_elements():
    G = group_groupoid(cyclic(6))
    W = {"0", "2", "4"}
    M = build_monodromy(G, W)
    assert not M.generates_ambient
    rep = star_covering_report(M, "*", 10)
    assert rep.unreachable == ("1", "3", "5")  # odd elements refuted outright
    assert rep.undecided_depth == ()
    assert rep.reached == {"0": 1, "2": 1, "4": 1}
    assert rep.saturated
    assert not rep.surjective_within_depth
    # a refutation is a definite answer
    assert rep.undecided_depth == ()
    assert translate_collisions_oracle(M, "*") == ((), ())
    assert rep.fiber_counts_exact and rep.capped_at is None


def test_star_cover_saturates_on_finite_classes():
    G, W = zmod(3)
    M = build_monodromy(G, W)
    rep = star_covering_report(M, "*", 12)
    assert rep.reached == {"0": 1, "1": 1, "2": 1}
    assert rep.saturated
    assert rep.surjective_within_depth
    assert rep.engine_kind == "finite"


def test_star_cover_undecided_engine_is_flagged():
    G = group_groupoid(sym3())
    M = build_monodromy(G, G.morphisms, budget=3)
    rep = star_covering_report(M, "*", 4)
    assert not rep.fiber_counts_exact
    assert rep.engine_kind == "undecided"
    # the engine leaves every pair of distinct one-letter words unseparated,
    # which the inexact fiber counts already say; evaluation separates them
    pairs = tuple(itertools.combinations(sorted(G.morphisms), 2))
    assert translate_collisions_oracle(M, "*") == ((), pairs) and len(pairs) == 15
    assert all(canonical_morphism(M).evaluate(M.i_tilde(a)) == a for a in G.morphisms)
    assert rep.undecided_depth == () and rep.capped_at is None


def assert_translates_stay_apart(M, x):
    """Evaluation separates distinct one-letter words, so the pair search
    `star_covering_report` once made finds no collision, and any pair the
    engine leaves unseparated comes with inexact fiber counts.  Returns
    how many pairs were left unseparated."""
    collisions, undecided = translate_collisions_oracle(M, x)
    assert collisions == ()
    if undecided:
        assert not star_covering_report(M, x, 1).fiber_counts_exact
    return len(undecided)


@pytest.mark.parametrize("budget, unseparated", [(2, 217), (3, 216), (DEFAULT_BUDGET, 0)])
def test_full_carriers_keep_translates_apart(budget, unseparated):
    """Every group of order <= 8 with its full carrier: a starved budget
    leaves the pairs of each group of order >= budget unseparated, which
    its fiber counts flag."""
    total = 0
    for _, table in all_groups_upto8():
        G = group_groupoid(table)
        M = build_monodromy(G, G.morphisms, budget=budget)
        total += assert_translates_stay_apart(M, "*")
    assert total == unseparated


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_random_carriers_keep_translates_apart(data):
    """Random inversion-closed carriers in a group or product groupoid on
    1-3 objects over a group of order <= 8, at budgets 2, 3 and the
    default, from every object."""
    _, table = data.draw(st.sampled_from(all_groups_upto8()), label="group")
    n = data.draw(st.integers(1, 3), label="objects")
    G = group_groupoid(table) if n == 1 else product_groupoid(n, table)
    moves = sorted(m for m in G.morphisms if not G.is_identity(m))
    picks = data.draw(st.lists(st.sampled_from(moves), max_size=5), label="picks") if moves else []
    W = {*G.identity.values(), *picks, *(G.inverse[m] for m in picks)}
    budget = data.draw(st.sampled_from([2, 3, DEFAULT_BUDGET]), label="budget")
    M = build_monodromy(G, W, budget=budget)
    for x in sorted(G.objects):
        assert_translates_stay_apart(M, x)


# ------------------------------------------------------------------ graphs

def test_tree_has_trivial_vertex_groups_and_a_bijective_cover():
    M = pi1_graph(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
    assert component_ranks(M) == (0,)
    assert pi1_rank(M) == 0
    rep = star_covering_report(M, "a", 20)
    assert rep.saturated and rep.surjective_within_depth
    assert set(rep.reached.values()) == {1}   # one word class per pair
    assert len(rep.reached) == len(M.ambient.objects)


def test_triangle_rank_one():
    r = pi1_graph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    assert pi1_rank(r) == 1  # 3 - 3 + 1; the chord survives splitting


def test_complete_graph_rank_three():
    vs = ["0", "1", "2", "3"]
    es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    r = pi1_graph(vs, es)
    assert pi1_rank(r) == 3  # 6 - 4 + 1


def test_two_components_add_ranks():
    vs = ["a", "b", "c", "p", "q", "r"]
    es = [("a", "b"), ("b", "c"), ("a", "c"), ("p", "q"), ("q", "r"), ("p", "r")]
    r = pi1_graph(vs, es)
    assert not r.generates_ambient  # pairs across components are unreachable
    assert sorted(component_ranks(r)) == [1, 1]
    assert pi1_rank(r) == 2  # |E| - |V| + #components


def test_pi1_rank_ignores_vertex_names():
    """Renaming K4's vertices in reverse moves the root and the edge-id
    order, so the spanning tree changes; the rank does not."""
    vs = ["0", "1", "2", "3"]
    es = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    base = pi1_graph(vs, es)
    alt, back = pi1_renamed(vs, es, dict(zip(vs, "dcba")))
    assert tree_links(alt, back) != tree_links(base)
    assert pi1_rank(alt) == pi1_rank(base) == 3


def test_pi1_input_validation():
    with pytest.raises(ValueError, match="loop"):
        pi1_graph(["a", "b"], [("a", "a")])
    with pytest.raises(ValueError, match="duplicate edge"):
        pi1_graph(["a", "b"], [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match="endpoint"):
        pi1_graph(["a", "b"], [("a", "c")])
    with pytest.raises(ValueError, match="collides"):
        pi1_graph(["a", "b", "mid(a,b)"], [("a", "b")])


def test_pi1_names_colliding_midpoints():
    """The edges ("a", "b,c") and ("a,b", "c") share the midpoint name
    "mid(a,b,c)", although no two vertices are the same."""
    with pytest.raises(ValueError, match="midpoint names collide") as err:
        pi1_graph(["a", "b,c", "a,b", "c"], [("a", "b,c"), ("a,b", "c")])
    assert "('a', 'b,c') and ('a,b', 'c')" in str(err.value)
    assert "duplicate" not in str(err.value)


@given(st.data())
@settings(max_examples=20, deadline=None)
def test_pi1_rank_formula_random(data):
    """rank = |E| - |V| + 1 on random connected graphs."""
    n = data.draw(st.integers(3, 6))
    vs = [f"v{i}" for i in range(n)]
    path = [(vs[i], vs[i + 1]) for i in range(n - 1)]
    extra = [(vs[i], vs[j]) for i in range(n) for j in range(i + 2, n)]
    chosen = data.draw(st.lists(st.sampled_from(extra), unique=True,
                                max_size=min(4, len(extra))))
    es = path + chosen
    r = pi1_graph(vs, es)
    assert component_ranks(r) == (len(es) - n + 1,)


def test_pi1_scales_to_thirty_vertices_and_sixty_edges():
    """A seeded connected graph with |V| = 30 and |E| = 60: rank
    |E| - |V| + 1 = 31.  Its pair groupoid has 90 points and 729,000
    composites."""
    rng = random.Random(30)
    vs = [f"v{i:02d}" for i in range(30)]
    es = {(vs[rng.randrange(i)], vs[i]) for i in range(1, 30)}  # a spanning tree
    while len(es) < 60:
        es.add(tuple(sorted(rng.sample(vs, 2))))
    start = time.perf_counter()
    r = pi1_graph(vs, sorted(es))
    assert pi1_rank(r) == 31
    assert time.perf_counter() - start < 15


def test_pi1_scales_to_two_hundred_vertices_and_four_hundred_edges():
    """A seeded connected graph with |V| = 200 and |E| = 400: rank
    |E| - |V| + 1 = 201, on a pair groupoid of 600 points."""
    rng = random.Random(200)
    vs = [f"v{i:03d}" for i in range(200)]
    es = {(vs[rng.randrange(i)], vs[i]) for i in range(1, 200)}  # a spanning tree
    while len(es) < 400:
        es.add(tuple(sorted(rng.sample(vs, 2))))
    start = time.perf_counter()
    r = pi1_graph(vs, sorted(es))
    assert pi1_rank(r) == 201
    assert time.perf_counter() - start < 15


# --------------------------------------------------------------- class cap

def test_class_search_stops_at_the_cap(monkeypatch):
    """The unit window of Z/5 x Z/5 presents a free group of rank 2, so its
    star holds 1, 4, 12, 36 new classes at depths 0-3.  A cap of 20 stops
    the search in the fourth level, with the first 20 classes kept."""
    import groupoids.monodromy as monodromy
    from helpers import direct

    G = group_groupoid(direct(cyclic(5), cyclic(5)))
    M = build_monodromy(G, {"0.0", "1.0", "4.0", "0.1", "0.4"})
    whole = monodromy.enumerate_classes(M, ["*"], 3)
    assert len(whole.classes) == 53 and whole.capped_at is None
    monkeypatch.setattr(monodromy, "MAX_CLASSES", 20)
    capped = monodromy.enumerate_classes(M, ["*"], 3)
    assert len(capped.classes) == 20 and capped.capped_at == 2
    assert not capped.saturated
    assert list(capped.classes.items()) == list(whole.classes.items())[:20]
    rep = star_covering_report(M, "*", 3)
    assert rep.capped_at == 2
    assert rep.fiber_counts_exact and translate_collisions_oracle(M, "*") == ((), ())
    assert len(rep.undecided_depth) == 25 - len(rep.reached)  # the cap cut them off
    assert sum(rep.reached.values()) == 20


# ------------------------------------------- closed carriers, read off W

def subgroup(table, seeds):
    """The subgroup of a raw group table generated by `seeds`."""
    names, mul, _, unit = table
    H = {unit, *seeds}
    while True:
        more = {mul[(a, b)] for a in H for b in H} - H
        if not more:
            return H
        H |= more


@st.composite
def closed_carriers(draw):
    """(G, W): a connected groupoid on 1-3 objects with a vertex group of
    order <= 8, and a composition-closed carrier in it.  The objects fall
    into blocks, and W holds every arrow x>y:h with x and y in one block and
    h in that block's subgroup, so it may be all of G or a subgroup like
    {0, 2, 4} in Z/6, on one component or several."""
    _, table = draw(st.sampled_from(all_groups_upto8()))
    G = product_groupoid(draw(st.integers(1, 3)), table)
    objs = sorted(G.objects)
    block = {x: draw(st.integers(0, len(objs) - 1)) for x in objs}
    full = draw(st.booleans())
    groups = {b: set(table[0]) if full else
              subgroup(table, draw(st.lists(st.sampled_from(table[0]), max_size=2)))
              for b in sorted(set(block.values()))}
    W = {m for m in G.morphisms
         if block[G.source[m]] == block[G.target[m]]
         and m.split(":")[1] in groups[block[G.source[m]]]}
    return G, W


def random_word(draw, G, W, base, length):
    """A chain of carrier letters from `base`, one random step at a time."""
    letters, at = [], base
    steps = sorted((a, s) for a in W if not G.is_identity(a) for s in (1, -1))
    for _ in range(length):
        options = [(a, s) for a, s in steps
                   if (G.source[a] if s > 0 else G.target[a]) == at]
        if not options:
            break
        a, s = draw(st.sampled_from(options))
        letters.append((a, s))
        at = G.target[a] if s > 0 else G.source[a]
    return Word(tuple(letters), base), at


def ambient_product(G, w):
    acc = G.identity[w.base]
    for a, s in w.letters:
        acc = G.compose[(acc, a if s > 0 else G.inverse[a])]
    return acc


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_closed_carriers_agree_with_coset_enumeration(data):
    """On a composition-closed carrier the vertex group at x is W(x,x).
    Wherever simplification and coset enumeration decide, the table read
    off W gives the same kind and order; elsewhere it is undecided or the
    true order |W(x,x)|, below the budget.  Word equality is equality of
    ambient products, which is exact for a closed carrier."""
    G, W = data.draw(closed_carriers())
    n_max = max(sum(1 for a in W if G.source[a] == x == G.target[a])
                for x in G.objects)
    budget = data.draw(st.integers(1, n_max + 40) | st.just(DEFAULT_BUDGET))
    M = build_monodromy(G, W, budget=budget)
    for i, (comp, vgp) in enumerate(zip(M.forest.components, M.vertex_groups)):
        old, new = build_engine(vgp, budget=budget), M.engines[i]
        n = sum(1 for a in W if G.source[a] == comp.base == G.target[a])
        if old.kind != "undecided":
            assert (new.kind, new.order, new.rank) == (old.kind, old.order, old.rank)
        else:
            assert M.budget == budget
            assert (new.verdict, new.exact) in {("undecided", False), (f"finite order {n}", True)}
            assert new.kind == "undecided" or n < budget
    for _ in range(4):
        base = data.draw(st.sampled_from(sorted(G.objects)))
        w1, end1 = random_word(data.draw, G, W, base, data.draw(st.integers(0, 6)))
        w2, end2 = random_word(data.draw, G, W, base, data.draw(st.integers(0, 6)))
        if end2 != end1:  # close w2 up to w1's end, within the block
            link = min(a for a in W if G.source[a] == end2 and G.target[a] == end1)
            w2 = Word(w2.letters + ((link, 1),), base)
        eq = M.equal(w1, w2)
        if M.engines[M.component_of(base)].kind != "undecided":
            assert eq is not None
        assert eq in (None, ambient_product(G, w1) == ambient_product(G, w2))


def one_object(rows, inverse):
    """A one-object table on "0".."n-1" with identity "0": rows[a][b] is
    a.b, and inverse[a] is the inverse of a.  Only `validate_structure`'s
    checks are sure to hold."""
    names = [str(i) for i in range(len(rows))]
    return FiniteGroupoid(
        objects=frozenset("*"), source=dict.fromkeys(names, "*"),
        target=dict.fromkeys(names, "*"), identity={"*": "0"},
        inverse=dict(zip(names, inverse)),
        compose={(a, b): rows[int(a)][int(b)] for a in names for b in names})


def table_engines(M, i):
    """(the triple certificate's engine, the relator certificate's) for
    component i of M, each None when it turns the table down."""
    G = M.ambient
    triples = [t for t in M.relator_family if M.component_of(G.source[t[0]]) == i]
    new = monodromy._table_engine(M, i, triples)
    old = table_engine_oracle(G, M.carrier, M.graph, M.forest.components[i],
                              M.vertex_groups[i], M.budget)
    return new, old


def certificate(G):
    """The table engine of the full carrier of a one-object G, or None; the
    relator certificate of `table_engine_oracle` must agree."""
    W = G.morphisms
    M = build_monodromy(G, W)
    new, old = table_engines(M, 0)
    assert (new is None) == (old is None)
    return M, new


def scrambled_z5():
    names, mul, inv, unit = cyclic(5)
    return group_groupoid((names, {**mul, ("2", "3"): "1"}, inv, unit))


@pytest.mark.parametrize("G", [
    scrambled_z5(),
    # a loop of order 5 (a Latin square with identity "0", every element its
    # own inverse) that is not a group: (1.1).2 = 2 but 1.(1.2) = 4
    one_object(["01234", "10342", "24013", "32401", "43120"], "01234"),
], ids=["scrambled-Z5", "loop-of-order-5"])
def test_certificate_rejects_non_associative_tables(G):
    """Tables that pass the linear checks but are not associative: the
    certificate turns the table down, and the verdict is coset
    enumeration's."""
    assert not validate_structure(G)
    assert "associativity" in {k for k, _ in validate_groupoid(G)}
    M, engine = certificate(G)
    assert engine is None
    old = build_engine(M.vertex_groups[0])
    assert (M.engines[0].kind, M.engines[0].order) == (old.kind, old.order)


def off_base_triple_broken():
    """P2 x Z/2 with o0>o1:1 . o1>o1:1 set to o0>o1:1: every generator's
    loop at o0 is o0>o0:1, whose column swaps the two rows, so the columns
    act regularly, but the triple (o0>o1:1, o1>o1:1, o0>o1:1) takes row 0
    to row 0 by its first two letters and to row 1 by the third."""
    G = product_groupoid(2, cyclic(2))
    return with_tables(G, compose={**G.compose, ("o0>o1:1", "o1>o1:1"): "o0>o1:1"})


@pytest.mark.parametrize("G, verdict", [
    # 0.2 = 1, so the rows {0, 1} miss 2; the group is Z/2 all the same
    (one_object(["011", "100", "200"], "011"), "finite order 2"),
    # 0.0 = 1: the inverse of 1 is 0, whose action does not undo 1's
    (one_object(["102", "010", "220"], "101"), "free rank 0"),
    # (1.1).2 = 2 but 1.(1.2) = 0: the columns (0 1) and (0 2) make S3, and
    # no map commuting with both takes row 0 to row 1
    (one_object(["012", "101", "220"], "012"), "free rank 0"),
    # the columns (0 1), (0 2)(1 3) and (0 3)(1 2) make the dihedral group of
    # order 8: the first pick, (0 1)(2 3), commutes with them, the second,
    # taking row 0 to row 2, does not
    (one_object(["0123", "1032", "2201", "3310"], "0123"), "finite order 2"),
    (off_base_triple_broken(), "free rank 0"),
], ids=["rows", "inverse-action", "relations", "semiregularity", "row-0-triples"])
def test_each_certificate_check_is_needed(G, verdict):
    """Each table passes the linear checks and fails exactly one of the
    certificate's: the rows, the inverse actions, the maps commuting with
    the columns (on the third table at the first pick, on the fourth at
    the second) or the triples at row 0.  The certificate turns it down,
    and the verdict is coset enumeration's.  Kept without its check, the
    second, third, fourth and fifth tables would claim order 3, 3, 4 and
    2 for groups of order 1, 1, 2 and 1."""
    assert not validate_structure(G)
    M, engine = certificate(G)
    assert engine is None
    assert M.engines[0].verdict == verdict
    old = build_engine(M.vertex_groups[0])
    assert (old.kind, old.order) == (M.engines[0].kind, M.engines[0].order)


def test_closed_carrier_certificate_gathers_no_row_per_triple(monkeypatch):
    """On the full carrier of Z/60 (30 generators, 3,600 triples) the
    certificate gathers whole rows only to check the inverse actions and
    the maps commuting with the columns, at most floor(log2 n) + 1 of
    them: no row is gathered per triple."""
    G = group_groupoid(cyclic(60))
    M = build_monodromy(G, G.morphisms)
    gathered, itemgetter = [], monodromy.itemgetter

    def counted(*items):
        get = itemgetter(*items)
        return lambda row: gathered.append(len(items)) or get(row)

    monkeypatch.setattr(monodromy, "itemgetter", counted)
    assert M.engines[0].verdict == "finite order 60"
    n, S = 60, len(M.forest.generators[0])
    assert (S, len(M.relator_family)) == (30, 3600)
    assert set(gathered) == {n}
    assert len(gathered) <= S + n.bit_length() * (S + 1)


@st.composite
def closed_tables(draw):
    """(G, W): a closed carrier in a table that passes `validate_structure`
    but need not obey any other law.  G is a one-object table on 2-6
    elements with the identity row and column fixed, its other entries and
    inverses drawn freely or as columns that their inverses' columns undo,
    or `product_groupoid(k, cyclic(n))` for k <= 3 and n <= 6 with a few
    composites and inverses replaced by others with the same endpoints.  W
    is every morphism, or the closure of a few and the identities under
    the table's own inverses and composites."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 6))
        if draw(st.booleans()):
            entries = st.integers(0, n - 1)
            columns = [list(range(n))] + [[a, *(draw(entries) for _ in range(n - 1))]
                                          for a in range(1, n)]
            inverse = [0, *(draw(entries) for _ in range(n - 1))]
        else:  # a column per element a taking 0 to a, its inverse's column undoing it
            inverse, columns = [0] * n, [list(range(n))] * n
            free = draw(st.permutations(range(1, n)))
            while free:
                a = free.pop()
                b = free.pop() if free and draw(st.booleans()) else a
                inverse[a], inverse[b] = b, a
                rest = [p for p in range(1, n) if p != b]  # points other than 0 and b
                images = [p for p in range(1, n) if p != a]
                col = {**dict(zip(rest, draw(st.permutations(images)))), 0: a, b: 0}
                if a == b:  # self-inverse: an involution
                    col = {p: col[p] if col[col[p]] == p else p for p in range(n)}
                columns[a] = [col[p] for p in range(n)]
                columns[b] = [columns[a].index(p) for p in range(n)]
        G = one_object(["".join(str(columns[b][g]) for b in range(n)) for g in range(n)],
                       "".join(map(str, inverse)))
    else:
        G = corrupted(draw, product_groupoid(draw(st.integers(1, 3)),
                                             cyclic(draw(st.integers(1, 6)))),
                      composites=4, inverses=1)
    if draw(st.booleans()):
        return G, G.morphisms
    picks = draw(st.lists(st.sampled_from(sorted(G.morphisms)), max_size=3))
    return G, closure_oracle(G, {*G.identity.values(), *picks})


@given(closed_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_table_engine_matches_the_row_scans_on_any_closed_table(GW, data):
    """Differential test of `_table_engine`, which checks the maps
    commuting with the columns and one row per triple, against
    `triple_certificate_oracle`, which checks every row for every triple,
    and `table_engine_oracle`, which follows every collapsed relation from
    every row, at budgets 2, 3, n and n + 1 for the order n of a drawn
    component and the default: all three turn a component down, or give
    the same kind, order and table."""
    G, W = GW
    forest = build_monodromy(G, W).forest
    n = data.draw(st.sampled_from([sum(1 for a in W if G.source[a] == c.base == G.target[a])
                                   for c in forest.components]))
    budget = data.draw(st.sampled_from([2, 3, n, n + 1, DEFAULT_BUDGET]))
    M = build_monodromy(G, W, budget=budget)
    assert M.closed

    def verdict(engine):
        return engine and (engine.kind, engine.order, getattr(engine, "table", None))

    for i, comp in enumerate(M.forest.components):
        triples = [t for t in M.relator_family if M.component_of(G.source[t[0]]) == i]
        new = monodromy._table_engine(M, i, triples)
        assert verdict(new) == verdict(triple_certificate_oracle(M, i, triples))
        assert verdict(new) == verdict(table_engine_oracle(G, W, M.graph, comp,
                                                           M.vertex_groups[i], budget))


def test_closed_carriers_decide_only_below_the_budget():
    """P2 x Z/2 with the full carrier has vertex groups of order n = 2.
    Coset enumeration needs more than n rows, so budget 2 stays undecided
    (as in corpus/monodromy-starved.json) and budget 3 decides.  A trivial
    vertex group keeps its "free rank 0"."""
    G = product_groupoid(2, cyclic(2))
    W = G.morphisms
    M = build_monodromy(G, W, budget=2)
    assert (M.engines[0].verdict, M.engines[0].exact, M.budget) == ("undecided", False, 2)
    assert build_monodromy(G, W, budget=3).engines[0].verdict == "finite order 2"
    P = pair_groupoid(["a", "b", "c"])
    M = build_monodromy(P, P.morphisms)
    assert M.engines[0].verdict == "free rank 0"


def stepped(engine, head, tail):
    """The token of head.tail, stepped on from head's token as
    `enumerate_classes` steps a class, by the engine's `stepper` for
    tail's normal letters: from head's row of a table, or from head's
    node in a `TokenTrie`."""
    tok, normal, trie = engine.token(head)[0], engine.normal_letters(tail), TokenTrie()
    if engine.kind == "finite":
        return engine.stepper(normal, trie)(tok)
    node = engine.stepper(normal, trie)(engine.stepper(tok, trie)(0))
    return trie.spelled()[node]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_closed_carriers_at_the_order_budget_match_build_engine(data):
    """Differential test of the table read off W against `build_engine` at
    budgets n - 1, n and n + 1 for the order n of a drawn component, 2 and
    the default.  Wherever a component's order n is 1 or at least the
    budget, its kind, order and rank are `build_engine`'s, and so are the
    normal letters, tokens and tokens stepped on (`stepped`) of random
    words; an undecided engine read off W simplifies only when a token is
    first asked for.  Below the budget the table decides "finite order n", where coset
    enumeration agrees or runs out (HLT can waste more than one row: V4 and
    S3 at budget n + 1), and where both decide, they agree on triviality."""
    G, W = data.draw(closed_carriers())
    forest = build_monodromy(G, W).forest
    orders = [sum(1 for a in W if G.source[a] == c.base == G.target[a])
              for c in forest.components]
    n = data.draw(st.sampled_from(orders))
    budget = data.draw(st.sampled_from([max(n - 1, 1), n, n + 1, 2, DEFAULT_BUDGET]))
    M = build_monodromy(G, W, budget=budget)
    old = [build_engine(vgp, budget=budget) for vgp in M.vertex_groups]
    for order, new, ref in zip(orders, M.engines, old):
        if order == 1 or order >= budget:
            assert (new.kind, new.order, new.rank) == (ref.kind, ref.order, ref.rank)
            if new.kind == "undecided":
                assert "simplified" not in vars(new)
        else:
            assert (new.kind, new.order) == ("finite", order)
            assert ref.kind == "undecided" or ref.order == order
    for _ in range(4):
        base = data.draw(st.sampled_from(sorted(G.objects)))
        w, _ = random_word(data.draw, G, W, base, data.draw(st.integers(0, 8)))
        cut = data.draw(st.integers(0, len(w.letters)))
        whole, head, tail = (collapse_letters(M.forest, letters) for letters in
                             (w.letters, w.letters[:cut], w.letters[cut:]))
        i = M.component_of(base)
        new, ref = M.engines[i], old[i]
        assert stepped(new, head, tail) == new.token(whole)[0]
        if new.kind != "finite":
            assert new.normal_letters(whole) == ref.normal_letters(whole)
            assert new.token(whole) == ref.token(whole)
            assert stepped(ref, head, tail) == new.token(whole)[0]
        elif ref.kind == "finite":
            assert new.is_trivial(whole) == ref.is_trivial(whole)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_triple_certificate_matches_the_relator_certificate(data):
    """Differential test of `_table_engine`, which checks P(a) P(b) = P(ab)
    on every row for each defining triple, against `table_engine_oracle`,
    which follows every collapsed relation of the component's presentation
    from every row, at budgets n - 1, n and n + 1 for the order n of a
    drawn component and the default.  Both accept or both turn the table
    down; then `M.engines` matches the oracle's engine, or `build_engine`'s
    where both turn it down, on kind, order, tokens and tokens stepped on
    (`stepped`) of random words."""
    G, W = data.draw(closed_carriers())
    forest = build_monodromy(G, W).forest
    orders = [sum(1 for a in W if G.source[a] == c.base == G.target[a])
              for c in forest.components]
    n = data.draw(st.sampled_from(orders))
    budget = data.draw(st.sampled_from([max(n - 1, 1), n, n + 1, DEFAULT_BUDGET]))
    M = build_monodromy(G, W, budget=budget)
    refs = []
    for i in range(len(M.forest.components)):
        new, old = table_engines(M, i)
        assert (new is None) == (old is None)
        refs.append(old or build_engine(M.vertex_groups[i], budget=budget))
    for new, ref in zip(M.engines, refs):
        assert (new.kind, new.order, new.rank) == (ref.kind, ref.order, ref.rank)
    for _ in range(4):
        base = data.draw(st.sampled_from(sorted(G.objects)))
        w, _ = random_word(data.draw, G, W, base, data.draw(st.integers(0, 8)))
        cut = data.draw(st.integers(0, len(w.letters)))
        whole, head, tail = (collapse_letters(M.forest, letters) for letters in
                             (w.letters, w.letters[:cut], w.letters[cut:]))
        new, ref = M.engines[M.component_of(base)], refs[M.component_of(base)]
        assert new.token(whole) == ref.token(whole)
        assert stepped(new, head, tail) == stepped(ref, head, tail) == ref.token(whole)[0]


def corrupted(draw, G, composites, inverses):
    """G with up to `composites` composites and `inverses` inverses replaced
    by other morphisms with the same endpoints, so that it still passes
    `validate_structure` but need not be associative."""
    morphs = sorted(G.morphisms)

    def parallel(x, y):
        return [m for m in morphs if G.source[m] == x and G.target[m] == y]

    compose, inverse = dict(G.compose), dict(G.inverse)
    for a, b in draw(st.lists(st.sampled_from(sorted(compose)), max_size=composites,
                              unique=True)):
        compose[(a, b)] = draw(st.sampled_from(parallel(G.source[a], G.target[b])))
    for m in draw(st.lists(st.sampled_from(morphs), max_size=inverses, unique=True)):
        inverse[m] = draw(st.sampled_from(parallel(G.target[m], G.source[m])))
    G = with_tables(G, inverse=inverse, compose=compose)
    assert not validate_structure(G)
    return G


@st.composite
def closed_carriers_in_any_table(draw):
    """(G, W): a `closed_carriers` groupoid, a pair groupoid on 1-5 points,
    or either with some composites and inverses replaced by other morphisms
    with the same endpoints, which still pass `validate_structure` but need
    not be associative; W is the closure of random arrows and the
    identities under the table's own inverses and composites."""
    G = (draw(closed_carriers())[0] if draw(st.booleans())
         else pair_groupoid([f"p{i}" for i in range(draw(st.integers(1, 5)))]))
    if draw(st.booleans()):
        G = corrupted(draw, G, composites=6, inverses=2)
    picks = draw(st.lists(st.sampled_from(sorted(G.morphisms)), max_size=3))
    return G, closure_oracle(G, {*G.identity.values(), *picks})


@given(closed_carriers_in_any_table())
@settings(max_examples=100, deadline=None)
def test_closed_carriers_generate_exactly_when_they_are_everything(GW):
    """A closed carrier is its own closure, so `build_monodromy` decides
    `generates_ambient` as W == G.morphisms without calling `generated_by`,
    and agrees with it, on lawful tables and on tables that only pass the
    linear checks."""
    G, W = GW
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monodromy, "generated_by", lambda *a: calls.append(a))
        M = build_monodromy(G, W, budget=20)
    assert M.closed and not calls
    assert M.generates_ambient == generated_by(G, W)


@pytest.mark.parametrize("name, table", [
    *((name, table) for name, table in all_groups_upto8() if len(table[0]) > 1),
    ("Z12", cyclic(12))])
def test_coset_enumeration_wastes_a_row_on_full_carriers(name, table):
    """The bound that settles closed carriers at budgets n and below without
    enumerating: the full carrier's presentation of a group of order n > 1,
    simplified, runs out of a budget of n rows, and completes with n rows
    at the default budget."""
    G = group_groupoid(table)
    vgp = build_monodromy(G, G.morphisms).vertex_groups[0]
    simp = simplify_presentation(vgp.generators, vgp.relations)
    n = len(table[0])
    assert coset_enumeration(simp, budget=n) == Exhausted(budget=n, rows_used=n)
    assert coset_enumeration(simp).size == n


@pytest.mark.parametrize("n", [80, 120])
def test_full_carrier_scales_to_cyclic_groups_of_order_120(n):
    """The monodromy groupoid of the whole groupoid is the groupoid: with
    the full carrier of Z/n the vertex group has order n, decided at the
    default budget."""
    G = group_groupoid(cyclic(n))
    start = time.perf_counter()
    M = build_monodromy(G, G.morphisms)
    assert M.engines[0].verdict == f"finite order {n}"
    assert M.equal(Word((("1", 1),) * n, "*"), Word((), "*")) is True
    assert M.equal(Word((("1", 1),) * (n - 1), "*"), Word((("1", -1),), "*")) is True
    assert M.equal(Word((("1", 1),) * 2, "*"), Word((("2", 1),), "*")) is True
    assert M.equal(Word((("1", 1),), "*"), Word((("2", 1),), "*")) is False
    assert time.perf_counter() - start < 15


# ------------------------------------------- class search against its oracle

def search_instance(G, carrier, budget, roots, depth):
    return build_monodromy(G, carrier, budget=budget), roots, depth


@st.composite
def search_instances(draw):
    """(M, roots, depth): a group or product groupoid on 1-3 objects; a
    carrier that is composition-closed (`closed_carriers`), such a carrier
    less up to two elements and their inverses, or random and
    inversion-closed; a budget; roots in any component; and a depth of at
    most 5 with at most 4096 words of full length."""
    shape = draw(st.sampled_from(["closed", "punctured", "random"]))
    if shape != "random":
        G, W = draw(closed_carriers())
        moves = sorted(a for a in W if not G.is_identity(a))
        drop = (draw(st.lists(st.sampled_from(moves), min_size=1, max_size=2))
                if shape == "punctured" and moves else [])
        W = W - {*drop, *(G.inverse[a] for a in drop)}
    else:
        _, table = draw(st.sampled_from(all_groups_upto8()))
        n = draw(st.integers(1, 3))
        G = group_groupoid(table) if n == 1 and draw(st.booleans()) else product_groupoid(n, table)
        moves = sorted(m for m in G.morphisms if not G.is_identity(m))
        picks = draw(st.lists(st.sampled_from(moves), max_size=4)) if moves else []
        W = {*G.identity.values(), *picks, *(G.inverse[m] for m in picks)}
    budget = draw(st.sampled_from([2, 3, 5, 8, 20, DEFAULT_BUDGET]))
    roots = draw(st.lists(st.sampled_from(sorted(G.objects)), min_size=1, max_size=3))
    steps = max(Counter(G.source[a] for a in W if not G.is_identity(a)).values(), default=0)
    depth = draw(st.integers(0, 5))
    while steps ** depth > 4096:
        depth -= 1
    return search_instance(G, W, budget, roots, depth)


def engine_label(M, component):
    """free, undecided, or finite split by where its table came from: read
    off a composition-closed carrier, or by coset enumeration."""
    engine, G, W = M.engines[component], M.ambient, M.carrier
    if engine.kind != "finite":
        return engine.kind
    closed = all(ab in W for a, b, ab in
                 ((a, b, G.compose[(a, b)]) for a in W for b in W
                  if G.target[a] == G.source[b]))
    return "table" if closed and engine.order > 1 else "coset"


def assert_same_search(new, old):
    assert list(new.classes.items()) == list(old.classes.items())
    assert (new.exact, new.saturated, new.capped_at) == (old.exact, old.saturated,
                                                         old.capped_at)


S3, Z6, Z7 = group_groupoid(sym3()), group_groupoid(cyclic(6)), group_groupoid(cyclic(7))
# free of rank 1, where the normal images of 2 and 5 have two letters each
TWO_LETTER_IMAGES = search_instance(Z7, {"0", "1", "6", "2", "5"}, DEFAULT_BUDGET, ["*"], 4)
Z5_ON_TWO = product_groupoid(2, cyclic(5))
# o0>o1:0 and o1>o0:0 pair, and the first is the tree edge between the objects
TREE_EDGE_PAIR = search_instance(
    Z5_ON_TWO, {*Z5_ON_TWO.identity.values(), "o0>o1:0", "o1>o0:0", "o0>o0:1", "o0>o0:4"},
    DEFAULT_BUDGET, ["o0", "o1"], 5)


def test_class_search_matches_the_whole_word_oracle():
    """Stepping each class's interned token on by a letter's image gives
    the classes, in the same order, and the flags that rebuilding every
    token from its whole word gives, on every engine kind.  The explicit
    examples are one of each kind: Z/6 over its unit window (free), all of
    Z/6 (read off W), S3 less a transposition (coset enumeration) and all
    of S3 at budget 3 (undecided); and Z/7 over {0, +-1, +-2}, free of
    rank 1, where an image of two letters starts with the inverse of a
    node's last letter, so the trie walks up before it walks down.  Three
    more pin which steps the search may skip, those by the partner of the
    letter that reached a class: Z/4 over {0, 1, 2} declaring 1 and 2 each
    other's inverse, which do not pair as 1.2 = 3, so 1^3 is reached only
    as 1.2 or 2.1 (coset enumeration); Z/2 breaking the identity law;
    and two objects of Z/5 joined by a pair whose lesser edge is a tree
    edge."""
    M = TWO_LETTER_IMAGES[0]
    z4_swapped = one_object(*LAW_BREAKING[-1])  # 1 and 2 each other's inverse, 1.2 = 3
    assert not build_monodromy(z4_swapped, z4_swapped.morphisms).forest.partner
    M2 = TREE_EDGE_PAIR[0]
    assert M2.forest.partner["o0>o1:0"] == "o1>o0:0" and "o0>o1:0" in M2.forest.tree_edges
    assert M.engines[0].verdict == "free rank 1"
    images = [M.engines[0].normal_letters(collapse_letters(M.forest, ((a, 1),)))
              for a in ("1", "2", "5", "6")]
    assert any(len(image) >= 2 and (image[0][0], -image[0][1]) == other[-1]
               for image in images for other in images)
    labels = Counter()

    @given(search_instances())
    @example(search_instance(Z6, {"0", "1", "5"}, DEFAULT_BUDGET, ["*"], 5))
    @example(search_instance(Z6, set(Z6.morphisms), DEFAULT_BUDGET, ["*"], 3))
    @example(search_instance(S3, set(S3.morphisms) - {"021"}, 20, ["*"], 4))
    @example(search_instance(S3, set(S3.morphisms), 3, ["*", "*"], 3))
    @example(TWO_LETTER_IMAGES)
    @example(search_instance(z4_swapped, {"0", "1", "2"}, DEFAULT_BUDGET, ["*"], 4))
    @example(search_instance(z2_breaking_the_identity_law(), {"0", "1"}, DEFAULT_BUDGET, ["*"], 3))
    @example(TREE_EDGE_PAIR)
    @settings(max_examples=150, deadline=None)
    def check(instance):
        M, roots, depth = instance
        new = monodromy.enumerate_classes(M, roots, depth)
        assert_same_search(new, class_search_oracle(M, roots, depth, monodromy.MAX_CLASSES))
        labels.update(engine_label(M, M.component_of(x)) for x in set(roots))

    check()
    assert set(labels) == {"free", "undecided", "table", "coset"}, labels


def test_class_search_runs_deeper_than_the_recursion_limit():
    """Z/5 over {0, 1, 4}, free of rank 1, at depth 2,000: the 4,001
    classes 1^k for |k| <= 2,000, whose view spells a deepest word of
    2,000 letters without recursing, and whose values count each residue
    as often as [-2,000, 2,000] holds it."""
    depth = 2000
    assert depth > sys.getrecursionlimit()
    M = build_monodromy(*zmod(5))
    assert M.engines[0].verdict == "free rank 1"
    search = monodromy.enumerate_classes(M, ["*"], depth)
    assert (len(search.keys), search.saturated, search.capped_at) == (2 * depth + 1, False, None)
    classes = search.classes
    assert len(classes) == 2 * depth + 1
    assert max(len(w.letters) for w, _ in classes.values()) == depth
    residues = Counter(str(k % 5) for k in range(-depth, depth + 1))
    assert Counter(val for _, val in classes.values()) == residues
    assert star_covering_report(M, "*", depth).reached == residues


def test_class_search_matches_the_oracle_when_capped_mid_level(monkeypatch):
    """Two components of Z/5 on two objects, each presenting a free group of
    rank 1 (1 + 1 and 2 + 2 leave the carrier), searched from both roots:
    2, 4 and 4 new classes at depths 0-2, so a cap of 7 stops level 2 after
    its first new class."""
    G = product_groupoid(2, cyclic(5))
    W = {*G.identity.values(), "o0>o0:1", "o0>o0:4", "o1>o1:2", "o1>o1:3"}
    M = build_monodromy(G, W)
    assert not M.generates_ambient  # W does not reach o0 -> o1
    assert [e.verdict for e in M.engines] == ["free rank 1"] * 2
    monkeypatch.setattr(monodromy, "MAX_CLASSES", 7)
    capped = monodromy.enumerate_classes(M, ["o0", "o1"], 3)
    assert len(capped.classes) == 7 and capped.capped_at == 1
    assert_same_search(capped, class_search_oracle(M, ["o0", "o1"], 3, 7))


# ------------------------------------ the relators and their collapse, by oracle

@st.composite
def presented_carriers(draw):
    """A monodromy groupoid over one of: a composition-closed carrier
    (`closed_carriers`); a random inversion-closed carrier that is not
    closed, in a group or product groupoid on 1-3 objects; a pair groupoid
    on 2-7 points whose carrier links points only within two or three
    blocks, the first point and the last in different ones, so it has
    several components; or `pi1` of a graph with two vertex blocks and no
    edge between them.  Morphism names, or the graph's vertex names, are
    a random permutation of the plain ones, which varies the spanning
    forest."""
    shape = draw(st.sampled_from(["closed", "random", "pairs", "pi1"]))
    if shape == "pi1":
        n = draw(st.integers(2, 7))
        vs = [f"v{i}" for i in range(n)]
        cut = draw(st.integers(1, n - 1))
        within = [(u, v) for u, v in itertools.combinations(vs, 2)
                  if (u in vs[:cut]) == (v in vs[:cut])]
        es = draw(st.lists(st.sampled_from(within), unique=True)) if within else []
        M, _ = pi1_renamed(vs, es, dict(zip(vs, draw(st.permutations(vs)))), budget=20)
        return M
    if shape == "closed":
        G, W = draw(closed_carriers())
    elif shape == "random":
        _, table = draw(st.sampled_from(all_groups_upto8()))
        n = draw(st.integers(1, 3))
        G = group_groupoid(table) if n == 1 and draw(st.booleans()) else product_groupoid(n, table)
        moves = sorted(m for m in G.morphisms if not G.is_identity(m))
        picks = draw(st.lists(st.sampled_from(moves), min_size=1, max_size=4)) if moves else []
        W = {*G.identity.values(), *picks, *(G.inverse[m] for m in picks)}
        assume(any(G.compose[(a, b)] not in W
                   for a in W for b in W if G.target[a] == G.source[b]))
    else:
        pts = [f"p{i}" for i in range(draw(st.integers(2, 7)))]
        G = pair_groupoid(pts)
        block = {pts[0]: 0, pts[-1]: 1} | {p: draw(st.integers(0, 2)) for p in pts[1:-1]}
        links = [(u, v) for u, v in itertools.combinations(pts, 2) if block[u] == block[v]]
        picks = draw(st.lists(st.sampled_from(links), unique=True)) if links else []
        W = {*G.identity.values(), *(f"({u},{v})" for u, v in picks),
             *(f"({v},{u})" for u, v in picks)}
    name = dict(zip(sorted(G.morphisms), draw(st.permutations(sorted(G.morphisms)))))
    return build_monodromy(relabel(G, name), {name[a] for a in W}, budget=20)


@given(presented_carriers())
@settings(max_examples=150, deadline=None)
def test_relators_and_collapse_match_the_word_pipeline(M):
    """Mapping each relator's letters once through the forest's images, into
    its base's component, gives the relators, the vertex-group
    presentations (base, generators, relations, in order) and the DOT label
    that re-walking every relator and collapsing it with the pairs it
    shows (`paired_collapse`) gives."""
    G, W = M.ambient, M.carrier
    relators, vertex_groups = collapse_oracle(G, W, M.forest)
    assert M.relators == relators
    assert M.vertex_groups == vertex_groups
    pairs = {frozenset({a, G.inverse[a]}) for a in W if not G.is_identity(a)}
    label = f'  label="{len(pairs)} generators, {len(relators)} relators";'
    assert export_dot(M).splitlines()[1] == label


def _punctured(n):
    return build_monodromy(group_groupoid(cyclic(n)),
                           {str(i) for i in range(n) if i not in (2, n - 2)})


# the carriers the machine-report gate enumerates, and one pi1
GATE_PRESENTATIONS = {
    "punctured-Z10": lambda: _punctured(10),
    "punctured-Z12": lambda: _punctured(12),
    "S3-transpositions": lambda: build_monodromy(group_groupoid(sym3()),
                                                 {"012", "021", "102", "210"}, budget=200),
    "pi1-K4": lambda: pi1_graph("abcd", list(itertools.combinations("abcd", 2))),
}


@pytest.mark.parametrize("name", GATE_PRESENTATIONS)
def test_vertex_groups_collapse_the_relator_words(name):
    """`vertex_groups` collapses each defining triple's letters, unreduced
    and with no Word built; collapsing the freely reduced relator Words
    instead gives the same presentations."""
    M = GATE_PRESENTATIONS[name]()
    assert M.relators
    via_words = collapse_presentation(((r.base, r.letters) for r in M.relators), M.forest)
    assert M.vertex_groups == via_words


@pytest.mark.parametrize("name", [*GATE_PRESENTATIONS, "Z2-breaking-the-identity-law"])
def test_vertex_groups_skip_only_triples_whose_letters_reduce_away(name):
    """`vertex_groups` skips the triples 1.b.b^-1, a.1.a^-1 and a.a' for an
    inverse pair, and equals the collapse of every triple's letters.  Z/2
    with g.e = e passes the linear checks; its triple (g, e, e) has the
    letters g, which a skip on "a or b is an identity" would drop, leaving
    <g | g^2> in place of the trivial group."""
    if name in GATE_PRESENTATIONS:
        M = GATE_PRESENTATIONS[name]()
    else:
        G = z2_breaking_the_identity_law()
        assert not validate_structure(G)
        M = build_monodromy(G, G.morphisms)
        assert M.engines[0].verdict == "free rank 0"
    assert M.vertex_groups == triple_collapse(M)


def test_generation_is_decided_on_first_read(monkeypatch):
    """`generates_ambient` is no field: `pi1_graph` never calls
    `generated_by`, a carrier that is not closed calls it once, on the first
    read, and a closed one never does."""
    calls, real = [], monodromy.generated_by
    monkeypatch.setattr(monodromy, "generated_by", lambda *a: calls.append(a) or real(*a))
    assert "generates_ambient" not in MonodromyGroupoid._fields
    M = pi1_graph("abcd", [("a", "b"), ("b", "c"), ("c", "a")])
    assert not calls
    assert not M.generates_ambient and not M.generates_ambient  # d is apart
    assert len(calls) == 1
    G, W = zmod(5)
    assert build_monodromy(G, W).generates_ambient and len(calls) == 2
    assert build_monodromy(G, G.morphisms).generates_ambient and len(calls) == 2


@given(presented_carriers())
@settings(max_examples=100, deadline=None)
def test_closed_flag_is_wide_subgroupoid_membership(M):
    assert M.closed == (not check_wide_subgroupoid(M.ambient, M.carrier))


def test_transpositions_keep_their_squares():
    """S3 over its transpositions presents Z2 * Z2 * Z2.  A transposition t
    is its own inverse, so it pairs with nothing: it keeps its generator
    and its relation t.t, and the group, infinite, stays undecided at
    budget 200.  A skip of every triple (a, inverse(a), 1) would drop the
    squares and leave a free group of rank 3."""
    M = GATE_PRESENTATIONS["S3-transpositions"]()
    (vgp,) = M.vertex_groups
    ts = ("021", "102", "210")
    assert not M.forest.partner and vgp.generators == ts
    squares = {((t, -1), (t, -1)) for t in ts}  # t.t, canonically written
    assert len(squares & set(vgp.relations)) == 3
    assert (M.engines[0].verdict, M.engines[0].exact, M.budget) == ("undecided", False, 200)


# one-object tables that pass only the linear checks: the certificate tests'
# and Z/4 with 1 and 2 called each other's inverses
LAW_BREAKING = [(["011", "100", "200"], "011"), (["102", "010", "220"], "101"),
                (["012", "101", "220"], "012"),
                (["01234", "10342", "24013", "32401", "43120"], "01234"),
                (["0123", "1230", "2301", "3012"], "0213")]


def test_inverses_whose_product_is_no_identity_do_not_pair():
    """In Z/4 with the inverses of 1 and 2 swapped, 1 and 2 are each other's
    inverse but 1.2 = 3, so no defining relator says 2 = 1^-1: they keep a
    generator each, and the vertex group is Z/4, as the table gives."""
    G = one_object(*LAW_BREAKING[-1])
    assert not validate_structure(G) and G.inverse["1"] == "2" and G.inverse["2"] == "1"
    M = build_monodromy(G, G.morphisms)
    assert not M.forest.partner and M.vertex_groups[0].generators == ("1", "2", "3")
    assert M.engines[0].verdict == "finite order 4"


@pytest.mark.parametrize("rows, inverse", LAW_BREAKING)
def test_dot_label_counts_the_generators_on_tables_that_break_laws(rows, inverse):
    """`test_relators_and_collapse_match_the_word_pipeline` pins the DOT
    label on lawful tables.  On one object there is no tree, so the label
    counts the vertex group's generators, however the table declares its
    inverses: Z/4 with 1 and 2 declared each other's inverse has three."""
    G = one_object(rows, inverse)
    M = build_monodromy(G, G.morphisms)
    label = f'  label="{len(M.vertex_groups[0].generators)} generators, {len(M.relators)} relators";'
    assert export_dot(M).splitlines()[1] == label
    if inverse == "0213":
        assert M.vertex_groups[0].generators == ("1", "2", "3") and "3 generators" in label


def carriers_in_any_table():
    """`presented_carriers`, the closed carriers of `closed_carriers_in_any_table`
    and the full carriers of the `LAW_BREAKING` tables, at budget 20."""
    return st.one_of(
        presented_carriers(),
        closed_carriers_in_any_table().map(lambda GW: build_monodromy(*GW, budget=20)),
        st.sampled_from(LAW_BREAKING).map(lambda t: one_object(*t))
        .map(lambda G: build_monodromy(G, G.morphisms, budget=20)))


@given(carriers_in_any_table())
@settings(max_examples=150, deadline=None)
def test_only_mutual_inverses_pair_and_tree_edges_lead_their_pairs(M):
    """Edges a != b pair only where each is the other's inverse, a.b and
    b.a are identities and b runs back along a, so the relator a.b is a
    defining one; the pairing is symmetric, and every tree edge is the
    lesser edge of its pair."""
    G, partner = M.ambient, M.forest.partner
    for a, b in partner.items():
        assert a != b and partner[b] == a and G.inverse[a] == b
        assert M.graph.edges[b] == M.graph.edges[a][::-1]
        assert G.compose[(a, b)] == G.identity[G.source[a]]
        assert (a, b, G.compose[(a, b)]) in M.relator_family
    assert all(e <= partner.get(e, e) for e in M.forest.tree_edges)


def trivial_z7_on_two_objects():
    """M over all of Z/7 on two objects, with o1>o0:0 declared the inverse
    of o0>o1:1 and o1>o1:3 . o1>o0:1 set to o1>o0:2.  The table passes
    `validate_structure`, and its vertex group is trivial: the unpaired
    collapse simplifies to no relation, and the paired one keeps relations
    that enumerate to one row."""
    G = product_groupoid(2, cyclic(7))
    G = with_tables(G, compose={**G.compose, ("o1>o1:3", "o1>o0:1"): "o1>o0:2"},
                    inverse={**G.inverse, "o0>o1:1": "o1>o0:0"})
    return build_monodromy(G, G.morphisms, budget=20)


@given(carriers_in_any_table())
@example(trivial_z7_on_two_objects())
@settings(max_examples=150, deadline=None)
def test_pairing_keeps_the_vertex_groups(M):
    """Differential test of the paired presentation against the unpaired
    collapse, one generator per non-tree edge with the relators a.a^-1:
    `build_engine` gives the same kind, order and rank on both wherever
    both decide.  A trivial group is free of rank 0 whether or not a
    relation survives simplification (the pinned example), on both and
    in M's own engines."""
    unpaired = triple_collapse(M, pair=False)
    assert len(unpaired) == len(M.vertex_groups)
    for old, new in zip(unpaired, M.vertex_groups):
        old, new = build_engine(old, budget=M.budget), build_engine(new, budget=M.budget)
        if "undecided" not in (old.kind, new.kind):
            assert (new.kind, new.order, new.rank) == (old.kind, old.order, old.rank)
    assert all(engine.order != 1 or engine.kind == "free" for engine in M.engines)
