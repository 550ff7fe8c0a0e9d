"""Release acceptance: nine criteria, one pass/fail line each under -v.

Every numeric claim is checked against an oracle computed independently in
this file or in tests/helpers.py (raw multiplication rules, integer-line
breadth-first search, edge counting, brute-force coset listings).  Tolerances
are exact unless a wall-clock bound is stated inline; wall-clock bounds are
asserted with time.perf_counter.

One sub-case is recorded as a strict expected failure rather than weakened:
for Z/3 the window {0, +1, -1} is the whole group, so its presented vertex
group is finite of order 3 and the blanket "free of rank 1" claim cannot
hold there.  The companion test pins the true behaviour.
"""

import itertools
import random
from functools import lru_cache
from time import perf_counter

import pytest

from groupoids.core import (
    normal_closure,
    pair_groupoid,
    quotient,
    validate_groupoid,
    validate_morphism,
)
from groupoids.loctriv import (
    check_w_open,
    generate_groupoid_topology,
    local_trivialization,
    sections_from_arrows,
    validate_clt,
)
from groupoids.monodromy import (
    build_monodromy,
    canonical_morphism,
    globalize,
    pi1_graph,
    star_covering_report,
)
from groupoids.topology import STRUCTURE_MAPS, discrete, indiscrete, is_topology, topology
from groupoids.words import Word

from helpers import (
    all_groups_upto8,
    component_ranks,
    cyclic,
    difference_equivalence,
    dihedral4,
    direct,
    group_groupoid,
    pi1_rank,
    pi1_renamed,
    product_groupoid,
    quaternion,
    relabel,
    replay_violation,
    sym3,
    translate_collisions_oracle,
    tree_links,
    w_open_witnesses,
    with_tables,
)


# --------------------------------------------------------------- criterion 1

def test_criterion_1_axiom_suite():
    """validate_groupoid accepts every stock instance and refutes every one
    of 50 random single-entry composition mutations with replayable
    witnesses.  Bound: < 5 s total."""
    t0 = perf_counter()
    suite = [pair_groupoid(range(n)) for n in range(1, 7)]
    suite += [group_groupoid(t) for _, t in all_groups_upto8()]
    for G in suite:
        assert not validate_groupoid(G)
    rng = random.Random(0xAC1)
    mutable = [G for G in suite if len(G.morphisms) >= 2]
    for _ in range(50):
        G = rng.choice(mutable)
        key = rng.choice(sorted(G.compose))
        wrong = rng.choice([m for m in sorted(G.morphisms) if m != G.compose[key]])
        mutant = with_tables(G, compose={**G.compose, key: wrong})
        report = validate_groupoid(mutant)
        assert report  # every mutation is caught
        for v in report:
            assert replay_violation(mutant, v)  # and each witness replays
    assert perf_counter() - t0 < 5.0


# --------------------------------------------------------------- criterion 2

def _line_fibers(n, depth):
    """Breadth-first search on the integer line from 0 with steps +-1,
    `depth` sweeps, classes counted per residue mod n."""
    seen, frontier = {0}, {0}
    for _ in range(depth):
        frontier = {j + s for j in frontier for s in (1, -1)} - seen
        seen |= frontier
    fibers = {}
    for j in seen:
        fibers[str(j % n)] = fibers.get(str(j % n), 0) + 1
    return fibers


def _unit_window(n):
    G = group_groupoid(cyclic(n))
    W = {"0", "1", str(n - 1)}
    return G, W, build_monodromy(G, W)


def _rank_one_covering_case(n):
    t0 = perf_counter()
    G, W, M = _unit_window(n)
    assert M.engines[M.component_of("*")].verdict == "free rank 1"
    report = star_covering_report(M, "*", depth=3 * n)
    assert report.surjective_within_depth
    assert not report.unreachable and not report.undecided_depth
    assert translate_collisions_oracle(M, "*") == ((), ())  # injective on translates
    assert report.fiber_counts_exact
    assert report.reached == _line_fibers(n, 3 * n)  # every star element
    assert perf_counter() - t0 < 2.0


def test_criterion_2_unit_window_covers_cyclic_groups():
    """For Z/n with window {0, +1, -1}: vertex group certified free of rank
    1; the star report at depth 3n is surjective with fiber counts matching
    an integer-line breadth-first search mod n.  Bound: < 2 s per n."""
    for n in (4, 5, 6, 7):
        _rank_one_covering_case(n)


@pytest.mark.xfail(strict=True, reason="the window {0, +1, -1} exhausts Z/3: "
                   "its vertex group is finite of order 3, not free of rank 1")
def test_criterion_2_smallest_cyclic_subcase():
    _rank_one_covering_case(3)


def test_criterion_2_smallest_cyclic_true_behaviour():
    """What actually happens at n = 3: the window is the whole group, the
    presented groupoid is Z/3 itself, and evaluation is bijective."""
    G, W, M = _unit_window(3)
    assert M.engines[M.component_of("*")].verdict == "finite order 3"
    report = star_covering_report(M, "*", depth=9)
    assert report.surjective_within_depth and report.saturated
    assert report.reached == {"0": 1, "1": 1, "2": 1}  # one class per element
    assert translate_collisions_oracle(M, "*") == ((), ())


# --------------------------------------------------------------- criterion 3

def test_criterion_3_full_window_recovers_the_group():
    """W = G for every group of order <= 8: the coset table closes at
    exactly |G| rows and evaluation is a vertex-group isomorphism, checked
    by order comparison and by round-tripping every element.  Exact."""
    for label, table in all_groups_upto8():
        names = table[0]
        G = group_groupoid(table)
        M = build_monodromy(G, G.morphisms)
        engine = M.engines[0]
        if len(names) == 1:
            # the trivial group presents with no generators: certified free
            # of rank 0, which is the order-1 answer with nothing to count
            assert engine.verdict == "free rank 0", label
        else:
            assert engine.kind == "finite", label
            assert engine.order == len(names), label  # exactly |G| cosets
            assert engine.verdict == f"finite order {len(names)}", label
        p = canonical_morphism(M)
        for a in sorted(G.morphisms):
            assert p.evaluate(M.i_tilde(a)) == a  # p inverts the embedding
        assert M.generates_ambient


# --------------------------------------------------------------- criterion 4

def _random_connected_graph(rng, n):
    verts = [f"v{i}" for i in range(n)]
    edges = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n)]
    taken = {tuple(sorted(e)) for e in edges}
    pool = [(u, v) for u, v in itertools.combinations(verts, 2)
            if (u, v) not in taken]
    rng.shuffle(pool)
    return verts, edges + pool[:rng.randint(0, min(5, len(pool)))]


def test_criterion_4_graph_rank_law():
    """For 30 random connected simple graphs with at most 8 vertices the
    certified free rank equals |E| - |V| + 1 and survives renaming the
    vertices in reverse order, which moves the root and the edge-id order
    of the spanning forest; on some of the graphs the tree changes with
    them.  Exact; < 5 s total."""
    t0 = perf_counter()
    rng = random.Random(0xAC4)
    moved = 0
    for _ in range(30):
        verts, edges = _random_connected_graph(rng, rng.randint(2, 8))
        M = pi1_graph(verts, edges)
        assert pi1_rank(M) == len(edges) - len(verts) + 1
        name = {v: f"w{len(verts) - i}" for i, v in enumerate(verts)}
        M2, back = pi1_renamed(verts, edges, name)
        assert pi1_rank(M2) == pi1_rank(M)
        moved += tree_links(M2, back) != tree_links(M)
    assert moved
    assert perf_counter() - t0 < 5.0


# --------------------------------------------------------------- criterion 5

def test_criterion_5_tree_collapse():
    """For 10 random trees the presented groupoid has trivial vertex groups
    and evaluation is bijective on every star within depth 2|V|, checked
    exhaustively (the search saturates inside the window).  Exact."""
    rng = random.Random(0xAC5)
    for _ in range(10):
        n = rng.randint(2, 8)
        verts = [f"v{i}" for i in range(n)]
        edges = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n)]
        M = pi1_graph(verts, edges)
        assert component_ranks(M) == (0,) and pi1_rank(M) == 0
        G = M.ambient
        for x in sorted(G.objects):
            rep = star_covering_report(M, x, depth=2 * n)
            assert rep.saturated and rep.fiber_counts_exact
            assert rep.surjective_within_depth and not rep.unreachable
            assert set(rep.reached) == set(G.star(x))
            assert all(count == 1 for count in rep.reached.values())
            assert translate_collisions_oracle(M, x) == ((), ())


# ------------------------------------------------------------ criteria 6 & 7

def _chain(pts):
    return topology(pts, [frozenset(pts[:i]) for i in range(len(pts) + 1)])


def _blocks(pts, blocks):
    fam = [frozenset(itertools.chain.from_iterable(chosen))
           for r in range(len(blocks) + 1)
           for chosen in itertools.combinations(blocks, r)]
    return topology(pts, fam)


def _point_plus_rest(pts):
    return topology(pts, [frozenset(), frozenset(pts[:1]), frozenset(pts)])


def _cover_of(T, rng):
    """A cover that is a base: all nonempty opens, or the minimal base."""
    if rng.random() < 0.5:
        family = frozenset(T.neighborhoods.values())
    else:
        family = [o for o in T.opens if o]
    members = sorted(family, key=lambda s: (len(s), sorted(map(str, s))))
    return tuple(enumerate(members))


@lru_cache(maxsize=1)
def _clt_instances():
    """25 seeded instances: (label, groupoid, trivialization, section arrow).

    Pair groupoids and connected groupoids with cyclic vertex groups, over
    2..5-point spaces with chain / block / pointed / discrete / indiscrete
    topologies; one instance (discrete 4-point pair groupoid) generates the
    largest representable morphism topology.
    """
    rng = random.Random(0xAC6)
    out = []

    def pair_instance(label, pts, T):
        G = pair_groupoid(pts)
        arrow = lambda x, u: f"({x},{u})"
        cover = _cover_of(T, rng)
        lt = local_trivialization(T, cover, sections_from_arrows(cover, arrow))
        out.append((label, G, lt))

    def product_instance(label, k, m, make_top):
        objs = [f"o{i}" for i in range(k)]
        G = product_groupoid(k, cyclic(m))
        arrow = lambda x, u: f"{x}>{u}:0"
        T = make_top(objs)
        cover = _cover_of(T, rng)
        lt = local_trivialization(T, cover, sections_from_arrows(cover, arrow))
        out.append((label, G, lt))

    p2, p3, p4, p5 = [list(range(k)) for k in (2, 3, 4, 5)]
    pair_instance("pair2-chain", p2, _chain(p2))
    pair_instance("pair2-discrete", p2, discrete(p2))
    pair_instance("pair3-chain", p3, _chain(p3))
    pair_instance("pair3-discrete", p3, discrete(p3))
    pair_instance("pair3-blocks", p3, _blocks(p3, [[0, 1], [2]]))
    pair_instance("pair3-pointed", p3, _point_plus_rest(p3))
    pair_instance("pair4-chain", p4, _chain(p4))
    pair_instance("pair4-blocks22", p4, _blocks(p4, [[0, 1], [2, 3]]))
    pair_instance("pair4-blocks13", p4, _blocks(p4, [[0], [1, 2, 3]]))
    pair_instance("pair4-pointed", p4, _point_plus_rest(p4))
    pair_instance("pair4-discrete-cap", p4, discrete(p4))
    pair_instance("pair5-chain", p5, _chain(p5))
    pair_instance("pair5-blocks23", p5, _blocks(p5, [[0, 1], [2, 3, 4]]))
    pair_instance("pair5-pointed", p5, _point_plus_rest(p5))
    pair_instance("pair5-indiscrete", p5, indiscrete(p5))
    product_instance("prod2xZ2-chain", 2, 2, _chain)
    product_instance("prod2xZ2-discrete", 2, 2, discrete)
    product_instance("prod2xZ3-discrete", 2, 3, discrete)
    product_instance("prod2xZ3-chain", 2, 3, _chain)
    product_instance("prod3xZ2-chain", 3, 2, _chain)
    product_instance("prod3xZ2-blocks", 3, 2,
                     lambda o: _blocks(o, [[o[0], o[1]], [o[2]]]))
    product_instance("prod3xZ3-pointed", 3, 3, _point_plus_rest)
    product_instance("prod4xZ2-blocks", 4, 2,
                     lambda o: _blocks(o, [[o[0], o[1]], [o[2], o[3]]]))
    product_instance("prod4xZ3-indiscrete", 4, 3, indiscrete)
    product_instance("prod5xZ2-indiscrete", 5, 2, indiscrete)
    assert len(out) == 25
    return tuple(out)


def _section_subgroupoid(G, LT):
    """Closure of all section values under composition and inversion."""
    vals = {G.identity[x] for x in G.objects}
    for tab in LT.sections.values():
        vals.update(tab.values())
    changed = True
    while changed:
        changed = False
        for a in list(vals):
            if G.inverse[a] not in vals:
                vals.add(G.inverse[a])
                changed = True
        for a, b in itertools.product(list(vals), list(vals)):
            c = G.compose.get((a, b))
            if c is not None and c not in vals:
                vals.add(c)
                changed = True
    return frozenset(vals)


def test_criterion_6_generated_topology_certificates():
    """On 25 randomized locally trivial instances over spaces with at most 5
    points: validation passes, the generated morphism topology satisfies the
    topology axioms, all six structure maps (source, target, identity,
    inversion, composition, difference) are certified continuous, and the
    composition+inversion <-> difference equivalence holds.  Any failure
    blocks release.  Bound: < 30 s total."""
    t0 = perf_counter()
    for label, G, lt in _clt_instances():
        assert not validate_clt(G, lt), label
        gen, problems = generate_groupoid_topology(G, lt)
        assert problems == () and gen.base_compatible, label
        assert not is_topology(gen.topology.points, gen.topology.opens), label
        assert STRUCTURE_MAPS == ("source", "target", "identity",
                                  "inversion", "composition", "difference")
        assert all(name not in dict(problems) for name in STRUCTURE_MAPS), label
        assert difference_equivalence(problems), label
    assert perf_counter() - t0 < 30.0


def test_criterion_7_section_subgroupoid_is_open():
    """On every criterion-6 instance, the subgroupoid generated by the
    section values (which the sections land in by construction) is open in
    the generated topology.  Exact."""
    for label, G, lt in _clt_instances():
        W = _section_subgroupoid(G, lt)
        for tab in lt.sections.values():
            assert set(tab.values()) <= W, label
        problems = check_w_open(G, lt, W)
        assert problems == (), label
        assert set(w_open_witnesses(G, lt, W)) == W, label  # every element witnessed


# --------------------------------------------------------------- criterion 8

_TARGET_GROUPS = [
    ("Z1", cyclic(1)), ("Z2", cyclic(2)), ("Z3", cyclic(3)),
    ("Z4", cyclic(4)), ("Z5", cyclic(5)), ("Z6", cyclic(6)),
    ("Z7", cyclic(7)), ("Z8", cyclic(8)), ("Z9", cyclic(9)),
    ("Z10", cyclic(10)), ("Z11", cyclic(11)), ("Z12", cyclic(12)),
    ("S3", sym3()), ("D4", dihedral4()), ("Q8", quaternion()),
    ("D6", direct(sym3(), cyclic(2))), ("Z6xZ2", direct(cyclic(6), cyclic(2))),
]


def _reduced_words(letters, depth, base):
    """All freely reduced letter sequences up to the given length."""
    out = [Word((), base)]
    layer = [()]
    for _ in range(depth):
        fresh = []
        for seq in layer:
            for e, s in letters:
                if seq and seq[-1] == (e, -s):
                    continue
                fresh.append(seq + ((e, s),))
        out.extend(Word(seq, base) for seq in fresh)
        layer = fresh
    return out


def test_criterion_8_globalization_principle():
    """For each Z/n unit-window instance and 20 random maps into groups of
    order <= 12: globalize succeeds iff an independent relator-compatibility
    scan predicts it; failures return a replayable obstruction; successes
    restrict back to the given map and agree, through the renaming, with
    the globalization over a copy of Z/n whose morphism ids run in reverse
    order, on all words up to depth 8.  Z/n has one object, so every edge
    is a loop and the spanning forest has no tree edge to vary: what this
    checks is independence from names.  Exact."""
    for n in (3, 4, 5, 6, 7):
        G, W, M = _unit_window(n)
        name = {m: f"g{n - 1 - i:02d}" for i, m in enumerate(sorted(G.morphisms))}
        M2 = build_monodromy(relabel(G, name), {name[w] for w in W})
        carrier_ints = {0, 1, n - 1}
        rng = random.Random(0xAC8 + n)
        cases = [("Z3", cyclic(3), "1")]  # always-compatible designated case
        for _ in range(20):
            label, table = rng.choice(_TARGET_GROUPS)
            cases.append((label, table, rng.choice(table[0])))
        for case_no, (label, table, h) in enumerate(cases):
            H = group_groupoid(table)
            _, hmul, hinv, hunit = table
            f = {"0": hunit, "1": h, str(n - 1): hinv[h]}
            predicted = all(
                hmul[(f[str(a)], f[str(b)])] == f[str((a + b) % n)]
                for a, b in itertools.product(sorted(carrier_ints), repeat=2)
                if (a + b) % n in carrier_ints)
            ev, obstruction = globalize(M, f, H)
            assert (obstruction is None) == predicted, (n, label, h)
            assert (ev is None) != (obstruction is None)  # exactly one of the two
            if obstruction is not None:
                a, b, ab = obstruction
                assert (a, b, ab) in M.relator_family
                assert H.compose[(f[a], f[b])] != f[ab]  # obstruction replays
                continue
            for w in sorted(W):
                assert ev.evaluate(M.i_tilde(w)) == f[w]  # restricts to f
            ev2, _ = globalize(M2, {name[a]: h for a, h in f.items()}, H)
            assert ev2.gen_map == {name[a]: h for a, h in ev.gen_map.items()}
            assert ev2.obj_map == ev.obj_map
            if case_no == 0:  # full word-by-word agreement, depth 8
                letters = [(e, s) for e in ("1", str(n - 1)) for s in (1, -1)]
                for word in _reduced_words(letters, 8, "*"):
                    renamed = Word(tuple((name[e], s) for e, s in word.letters), "*")
                    assert ev.evaluate(word) == ev2.evaluate(renamed)


# --------------------------------------------------------------- criterion 9

def _assert_normal_brute_force(G, carrier):
    for x in sorted(G.objects):
        assert G.identity[x] in carrier
    for n in carrier:
        assert G.source[n] == G.target[n]  # endomorphisms only
        assert G.inverse[n] in carrier
        for b in carrier:
            c = G.compose.get((n, b))
            assert c is None or c in carrier
        for g in sorted(G.morphisms):
            if G.target[g] == G.source[n]:
                assert G.mul(g, n, G.inverse[g]) in carrier


def _brute_force_cosets(G, carrier):
    """Left-coset partition straight from the definition: b ~ a iff they
    share endpoints and b . a^-1 lies in the carrier."""
    classes = {}
    for a in sorted(G.morphisms):
        classes[a] = frozenset(
            b for b in G.morphisms
            if G.source[b] == G.source[a] and G.target[b] == G.target[a]
            and G.compose[(b, G.inverse[a])] in carrier)
    return classes


def test_criterion_9_quotient_matches_brute_force_cosets():
    """For 20 random connected groupoids with at most 30 morphisms and
    random normal subgroupoids: the quotient's classes, class names, and
    composition table all coincide with an independent brute-force coset
    listing, and the projection is a validated surjective morphism.  Exact;
    < 10 s total."""
    t0 = perf_counter()
    rng = random.Random(0xAC9)
    shapes = ([(1, t) for _, t in all_groups_upto8()]
              + [(2, cyclic(k)) for k in range(1, 8)] + [(2, sym3())]
              + [(3, cyclic(k)) for k in (1, 2, 3)] + [(4, cyclic(1)), (5, cyclic(1))])
    for _ in range(20):
        k, table = rng.choice(shapes)
        G = product_groupoid(k, table)
        assert len(G.morphisms) <= 30
        endos = [m for m in sorted(G.morphisms)
                 if G.source[m] == G.target[m] and not G.is_identity(m)]
        seeds = rng.sample(endos, min(rng.randint(0, 2), len(endos)))
        N = normal_closure(G, seeds)
        _assert_normal_brute_force(G, N)

        Q, proj = quotient(G, N)
        oracle = _brute_force_cosets(G, N)
        for a in sorted(G.morphisms):
            assert proj.mor_map[a] == min(oracle[a])  # same class, same name
        assert set(Q.morphisms) == {min(c) for c in oracle.values()}
        for a, b in itertools.product(sorted(Q.morphisms), repeat=2):
            if G.target[a] != G.source[b]:
                continue
            expected = oracle[G.compose[(a, b)]]
            for a2, b2 in itertools.product(sorted(oracle[a]), sorted(oracle[b])):
                assert G.compose[(a2, b2)] in expected  # well-defined classes
            assert Q.compose[(a, b)] == min(expected)
        assert not validate_groupoid(Q)
        assert not validate_morphism(G, Q, proj)
        assert set(proj.mor_map.values()) == set(Q.morphisms)
    assert perf_counter() - t0 < 10.0
