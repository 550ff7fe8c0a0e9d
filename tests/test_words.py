import functools
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from groupoids.monodromy import build_monodromy, pi1_graph
from groupoids.words import (
    CosetTable,
    Exhausted,
    FreeEngine,
    GeneratingGraph,
    Presentation,
    TokenTrie,
    build_engine,
    collapse_letters,
    collapse_presentation,
    coset_enumeration,
    free_reduce,
    inv_letters,
    simplify_presentation,
    spanning_forest,
)
from helpers import (
    PairKeyedTrie,
    all_groups_upto8,
    group_groupoid,
    product_groupoid,
    simplify_oracle,
)


letters_strategy = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from([1, -1])),
    max_size=30).map(tuple)
FREE_ABC = FreeEngine(Presentation(("a", "b", "c"), ()))  # steps a trie by whole images


@given(letters_strategy)
@settings(max_examples=100)
def test_free_reduce_idempotent(ls):
    assert free_reduce(free_reduce(ls)) == free_reduce(ls)


@given(letters_strategy)
@settings(max_examples=100)
def test_reduction_kills_inverse(ls):
    assert free_reduce(ls + inv_letters(ls)) == ()


@given(st.lists(letters_strategy, max_size=6))
@settings(max_examples=100)
def test_token_trie_interns_reduced_words(pieces):
    """Stepping a word piece by piece (a free engine's `stepper` for each
    piece), each piece from the node the last one reached, gives the node
    of its free reduction: nodes spell as the reductions, and two prefixes
    share a node exactly when their reductions are equal."""
    trie, node, word, seen = TokenTrie(), 0, (), {(): 0}
    for piece in pieces:
        node, word = FREE_ABC.stepper(piece, trie)(node), word + piece
        assert seen.setdefault(free_reduce(word), node) == node
        assert trie.spelled()[node] == free_reduce(word)
    spelled = trie.spelled()
    assert len(set(spelled)) == len(spelled)


@given(st.lists(st.tuples(st.integers(0, 10), st.booleans(), letters_strategy), max_size=8))
@settings(max_examples=100)
def test_token_trie_steppers_number_nodes_as_the_pair_keyed_walk(steps):
    """Stepping letter by letter through `TokenTrie.stepper`, or a piece
    whole through a free engine's `stepper`, from any node reached so far
    numbers the nodes as the (node, letter)-keyed reference walk
    (`helpers.PairKeyedTrie`) does, cancellations included, and spells
    them the same."""
    trie, ref, reached = TokenTrie(), PairKeyedTrie(), [0]
    for back, whole, piece in steps:
        start = node = reached[-1 - back % len(reached)]
        if whole:
            node = FREE_ABC.stepper(piece, trie)(start)
        else:
            for letter in piece:
                node = trie.stepper(letter)(node)
        assert node == ref.walk(piece, start)
        reached.append(node)
    assert (trie.parent, trie.last, trie.spelled()) == (ref.parent, ref.last, ref.spelled())


def test_forest_deterministic_and_lexicographic():
    # diamond: two routes v0 -> v2; tree must take e0, e1 (lexicographic)
    g = GeneratingGraph(
        vertices=frozenset(["v0", "v1", "v2"]),
        edges={"e0": ("v0", "v1"), "e1": ("v0", "v2"), "e2": ("v1", "v2")})
    f = spanning_forest(g, {})
    assert len(f.components) == 1
    assert f.components[0].tree_edges == frozenset({"e0", "e1"})
    assert f.components[0].paths["v2"].letters == (("e1", 1),)


def test_forest_two_components():
    g = GeneratingGraph(vertices=frozenset(["a", "b", "c", "d"]),
                        edges={"e": ("a", "b"), "f": ("c", "d")})
    f = spanning_forest(g, {})
    assert len(f.components) == 2
    assert f.vertex_component["a"] == f.vertex_component["b"]
    assert f.vertex_component["a"] != f.vertex_component["c"]


def random_connected_graph(rng, nv, extra):
    vertices = [f"v{i}" for i in range(nv)]
    edges = {}
    for i in range(1, nv):
        j = rng.randrange(i)
        edges[f"t{i:02d}"] = (vertices[j], vertices[i])
    for k in range(extra):
        u, v = rng.choice(vertices), rng.choice(vertices)
        edges[f"x{k:02d}"] = (u, v)
    return GeneratingGraph(vertices=frozenset(vertices), edges=edges)


def with_inverse_edges(rng, g):
    """(g with a reversed twin e' of about half of its edges, the pairing of
    each such edge with its twin, both ways round)."""
    paired = [e for e in sorted(g.edges) if rng.random() < 0.5]
    edges = {**g.edges, **{f"{e}'": g.edges[e][::-1] for e in paired}}
    partner = {**{e: f"{e}'" for e in paired}, **{f"{e}'": e for e in paired}}
    return GeneratingGraph(vertices=g.vertices, edges=edges), partner


def test_collapse_rank_is_edges_minus_vertices_plus_one():
    """An inverse pair of edges is one generator, so the rank of a connected
    graph counts each pair once: edges less pairs, less vertices, plus one."""
    rng = random.Random(11)
    for _ in range(25):
        nv = rng.randint(2, 8)
        g, partner = with_inverse_edges(rng, random_connected_graph(rng, nv, rng.randint(0, 6)))
        f = spanning_forest(g, partner)
        (vgp,) = collapse_presentation((), f)
        assert len(vgp.generators) == len(g.edges) - len(partner) // 2 - nv + 1
        assert vgp.relations == ()


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_every_tree_edge_is_the_least_of_its_pair(data):
    """Under any edge names, every tree edge is the lesser edge of its pair,
    which is what keeps the forest the one an unpaired graph gets.  A tree
    edge's letters and its partner's collapse to nothing, the lesser edge
    of any other pair keeps its letters and the greater takes their
    inverses, and the generators are the kept lesser edges."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    nv = data.draw(st.integers(1, 7))
    g, partner = with_inverse_edges(rng, random_connected_graph(rng, nv, rng.randint(0, 8)))
    name = dict(zip(sorted(g.edges), data.draw(st.permutations(sorted(g.edges)))))
    g = GeneratingGraph(vertices=g.vertices, edges={name[e]: g.edges[e] for e in g.edges})
    partner = {name[a]: name[b] for a, b in partner.items()}
    f = spanning_forest(g, partner)
    assert f.tree_edges == spanning_forest(g, {}).tree_edges
    assert all(e <= partner.get(e, e) for e in f.tree_edges)
    kept = []
    for e in g.edges:
        r = min(e, partner.get(e, e))
        if {e, r} & f.tree_edges:
            assert f.images[e, 1] == f.images[e, -1] == ()
        else:
            assert collapse_letters(f, ((e, 1), (r, 1))) == (((r, 1),) * 2 if r == e else ())
            kept += [e] if r == e else []
    assert f.generators == (tuple(sorted(kept)),)


def test_collapse_independent_of_names():
    """Renaming the vertices and the edges so that both orders reverse
    moves the root and the exploration order: another spanning tree, and
    the same rank."""
    rng = random.Random(3)
    g = random_connected_graph(rng, 6, 4)
    ids = sorted(g.edges)
    name = {e: f"r{len(ids) - i:02d}" for i, e in enumerate(ids)}
    vname = {f"v{i}": f"u{5 - i}" for i in range(6)}
    g2 = GeneratingGraph(vertices=frozenset(vname.values()),
                         edges={name[e]: (vname[u], vname[v]) for e, (u, v) in g.edges.items()})
    f1, f2 = spanning_forest(g, {}), spanning_forest(g2, {})
    assert {name[e] for e in f1.tree_edges} != f2.tree_edges
    r1, r2 = collapse_presentation((), f1), collapse_presentation((), f2)
    assert len(r1[0].generators) == len(r2[0].generators)  # rank is name-invariant


def test_collapse_deletes_tree_letters():
    g = GeneratingGraph(
        vertices=frozenset(["v0", "v1", "v2"]),
        edges={"e0": ("v0", "v1"), "e1": ("v0", "v2"), "e2": ("v1", "v2")})
    f = spanning_forest(g, {})
    loop = (("e0", 1), ("e2", 1), ("e1", -1))  # v0 -> v1 -> v2 -> v0
    assert collapse_letters(f, loop) == (("e2", 1),)


def test_simplify_eliminates_inverse_pair_relation():
    simp = simplify_presentation(
        ("g1", "g4"),
        [(("g1", 1), ("g4", 1)), (("g4", 1), ("g1", 1))])
    assert simp.relations == ()
    assert len(simp.generators) == 1  # free of rank 1


def test_simplify_keeps_torsion():
    simp = simplify_presentation(("g",), [(("g", 1),) * 3])
    assert simp.generators == ("g",)
    (rel,) = simp.relations
    assert len(rel) == 3 and {l[0] for l in rel} == {"g"}


def test_simplify_substitution_is_sound():
    # a b, b b b: one generator gets substituted away, torsion survives
    simp = simplify_presentation(
        ("a", "b"), [(("a", 1), ("b", 1)), (("b", 1),) * 3])
    assert len(simp.generators) == 1
    (rel,) = simp.relations
    assert len(rel) == 3 and {l[0] for l in rel} == set(simp.generators)


@functools.cache
def collapsed_full_carriers():
    """The collapsed presentations of the monodromy over the whole groupoid,
    for every group of order <= 8 on one object and on two."""
    out = []
    for _, table in all_groups_upto8():
        for G in (group_groupoid(table), product_groupoid(2, table)):
            out.extend(build_monodromy(G, G.morphisms).vertex_groups)
    return out


@given(st.data())
@settings(max_examples=120, deadline=None)
def test_simplify_matches_the_all_relators_loop(data):
    """Rewriting only the relations that hold the eliminated generator picks
    the same generators, in the same order, with the same replacements and
    the same surviving relations as rewriting every relation every time."""
    source = data.draw(st.sampled_from(["full-carrier", "pi1", "random"]))
    if source == "full-carrier":
        presentations = [data.draw(st.sampled_from(collapsed_full_carriers()))]
    elif source == "pi1":
        n = data.draw(st.integers(2, 7))
        vs = [f"v{i}" for i in range(n)]
        es = data.draw(st.lists(st.sampled_from(list(itertools.combinations(vs, 2))),
                                unique=True, min_size=1))
        presentations = pi1_graph(vs, es).vertex_groups
    else:
        letters = st.tuples(st.sampled_from("abc"), st.sampled_from([1, -1]))
        rels = data.draw(st.lists(st.lists(letters, max_size=6).map(tuple), max_size=5))
        presentations = [vgp("abc", rels)]
    for v in presentations:
        simp = simplify_presentation(v.generators, v.relations)
        assert ((simp.generators, simp.relations, simp.eliminations)
                == simplify_oracle(v.generators, v.relations))


def vgp(gens, rels):
    return Presentation(generators=tuple(gens), relations=tuple(rels))


def replay_table(table: CosetTable, relations):
    """Independent check: the action is a permutation rep satisfying every
    relation and every g g^-1, and it is transitive from coset 0."""
    n = table.size
    for g in table.generators:
        assert sorted(table.action[g]) == list(range(n))
        for c in range(n):
            assert table.inverse_action[g][table.action[g][c]] == c
    for w in relations:
        for c in range(n):
            assert table.follow(w, c) == c
    seen, queue = {0}, [0]
    while queue:
        c = queue.pop()
        for g in table.generators:
            for d in (table.action[g][c], table.inverse_action[g][c]):
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
    assert seen == set(range(n))


def test_enumeration_cyclic():
    rels = [(("g", 1),) * 3]
    t = coset_enumeration(vgp(["g"], rels))
    assert t.size == 3
    replay_table(t, rels)


def test_enumeration_free_exhausts():
    t = coset_enumeration(vgp(["g"], []), budget=100)
    assert isinstance(t, Exhausted)
    assert t.rows_used >= 100


def test_enumeration_two_trivial_generators():
    t = coset_enumeration(vgp(["g", "h"], [(("g", 1),), (("h", 1),)]))
    assert t.size == 1


@pytest.mark.parametrize("rels,order", [
    ([(("a", 1),) * 2, (("b", 1),) * 2, (("a", 1), ("b", 1)) * 2], 4),   # V4
    ([(("a", 1),) * 2, (("b", 1),) * 3, (("a", 1), ("b", 1)) * 2], 6),   # S3
    ([(("a", 1),) * 2, (("b", 1),) * 4, (("a", 1), ("b", 1)) * 2], 8),   # D4
    ([(("a", 1),) * 4, (("a", 1), ("a", 1), ("b", -1), ("b", -1)),
      (("b", -1), ("a", 1), ("b", 1), ("a", 1))], 8),                    # Q8
])
def test_enumeration_known_orders(rels, order):
    t = coset_enumeration(vgp(["a", "b"], rels))
    assert t.size == order
    replay_table(t, rels)


def test_enumeration_with_unused_generator_does_not_lie():
    # <g, h | g^3>: infinite; the h column must keep the enumeration open
    t = coset_enumeration(vgp(["g", "h"], [(("g", 1),) * 3]), budget=200)
    assert isinstance(t, Exhausted)


def test_engine_free_tokens():
    e = build_engine(vgp(["g1", "g4"], [(("g1", 1), ("g4", 1)), (("g4", 1), ("g1", 1))]))
    assert e.kind == "free" and e.rank == 1
    assert (e.verdict, e.exact) == ("free rank 1", True)
    t1, exact = e.token((("g1", 1), ("g1", 1)))
    t2, _ = e.token((("g4", -1), ("g4", -1)))
    assert exact and t1 == t2  # g4 = g1^-1 was substituted away
    assert e.is_trivial((("g1", 1), ("g4", 1))) is True


def test_engine_finite_tokens():
    e = build_engine(vgp(["g"], [(("g", 1),) * 5]))
    assert e.kind == "finite" and e.order == 5
    assert (e.verdict, e.exact) == ("finite order 5", True)
    assert e.is_trivial((("g", 1),) * 5) is True
    assert e.is_trivial((("g", 1),) * 3) is False


def test_engine_undecided_is_honest():
    e = build_engine(vgp(["a", "b"], [(("a", 1), ("b", 1), ("a", -1), ("b", -1))]),
                     budget=50)
    assert e.kind == "undecided"
    assert (e.verdict, e.exact) == ("undecided", False)
    assert e.is_trivial((("a", 1), ("b", 1), ("a", -1), ("b", -1))) in (True, None)
    assert e.is_trivial((("a", 1),)) is None


@given(st.lists(st.sampled_from([("g", 1), ("g", -1), ("h", 1), ("h", -1)]),
                max_size=12))
@settings(max_examples=60, deadline=None)
def test_word_problem_agrees_with_z2xz2_oracle(ls):
    # relators make <g, h> the Klein four group; oracle = exponent parity
    e = build_engine(vgp(["g", "h"], [
        (("g", 1),) * 2, (("h", 1),) * 2, (("g", 1), ("h", 1), ("g", -1), ("h", -1))]))
    expect = (sum(s for g, s in ls if g == "g") % 2 == 0
              and sum(s for g, s in ls if g == "h") % 2 == 0)
    assert e.kind == "finite" and e.is_trivial(tuple(ls)) is expect
