"""Local trivializations: validation, basic neighborhoods, generated
topologies, openness of generating subgroupoids, and transport along the
one-letter embedding into a presented groupoid."""

import contextlib
import io
import itertools
import json
import os
import tempfile
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

import groupoids.cli as cli
from groupoids.core import pair_groupoid, validate_groupoid
from groupoids.interchange import serialize_groupoid, serialize_local_trivialization
from groupoids.loctriv import (
    basic_neighborhood,
    check_w_open,
    clt_on_monodromy,
    generate_groupoid_topology,
    local_trivialization,
    sections_from_arrows,
    validate_clt,
)
from groupoids.monodromy import (
    MonodromyGroupoid,
    build_monodromy,
    enumerate_classes,
    star_covering_report,
)
from groupoids.topology import (
    check_topological_groupoid,
    discrete,
    generate_from_base,
    indiscrete,
    is_topology,
    topology,
)
from groupoids.words import DEFAULT_BUDGET

from helpers import (
    closure_oracle,
    comp_witness,
    cyclic,
    difference_equivalence,
    generation_oracle,
    group_groupoid,
    monodromy_on_keys,
    product_groupoid,
    shrink_oracle,
    spelled_keys,
    transported_checks,
    transported_openness_oracle,
    w_open_witnesses,
    window_oracle,
)

F = frozenset


def pair_arrow(x, u):
    return f"({x},{u})"


def singleton_cover(points):
    return [(i, F({p})) for i, p in enumerate(sorted(points, key=str))]


def canonical_lt(base, cover):
    cov = [(i, F(u)) for i, u in cover]
    return local_trivialization(base, cov, sections_from_arrows(cov, pair_arrow))


# --------------------------------------------------------------- validation

def test_singleton_cover_is_valid():
    """Singleton members leave nothing for Comp to compare."""
    G = pair_groupoid(["a", "b", "c"])
    LT = canonical_lt(discrete(["a", "b", "c"]), singleton_cover(G.objects))
    assert not validate_clt(G, LT)


def test_base_space_must_be_the_object_space():
    """A base space whose points are not G's objects is refused by
    `validate_clt` and by every construction that needs a valid structure,
    the message naming the least point, by `str`, in one set and not the
    other: a base cut to two of four objects, renamed points, and an
    extra point, alone or with a member and a section over it."""
    four, two = pair_groupoid(["0", "1", "2", "3"]), pair_groupoid(["0", "1"])
    pts = ["0", "1", "zz"]
    extra = topology(pts, [F(), F({"0"}), F(pts)])
    cases = [
        (four, canonical_lt(topology(["0", "1"], [F(), F({"0", "1"})]), [(0, {"0", "1"})]), "2"),
        (two, canonical_lt(topology(["0X", "1X"], [F(), F({"0X"}), F({"0X", "1X"})]),
                           [(0, {"0X"}), (1, {"0X", "1X"})]), "0"),
        (two, canonical_lt(extra, [(0, {"0"}), (1, {"0", "1"})]), "zz"),
        (two, canonical_lt(extra, [(0, {"0"}), (1, {"0", "1"}), (2, pts)]), "zz"),
    ]
    for G, LT, point in cases:
        message = f"^base space points differ from the objects at '{point}'$"
        M = build_monodromy(G, G.morphisms)
        for check in (lambda: validate_clt(G, LT),
                      lambda: generate_groupoid_topology(G, LT),
                      lambda: check_w_open(G, LT, G.morphisms),
                      lambda: clt_on_monodromy(LT, M)):
            with pytest.raises(ValueError, match=message):
                check()


SUBS7 = [F({0}), F({1}), F({2}), F({0, 1}), F({0, 2}), F({1, 2}), F({0, 1, 2})]


def all_subsets_instance():
    return pair_groupoid([0, 1, 2]), canonical_lt(discrete([0, 1, 2]), list(enumerate(SUBS7)))


def test_all_subsets_cover_with_canonical_sections_is_valid():
    G, LT = all_subsets_instance()
    rep = validate_clt(G, LT)
    assert not rep, rep  # one global arrow choice agrees with itself
    assert comp_witness(LT, 0, 3, 4) == 0  # {0} is the least-index member in {0,1} n {0,2}
    assert comp_witness(LT, 1, 3, 5) == 1
    assert comp_witness(LT, 2, 6, 6) == 2  # self-pair settles on the singleton


def comp_violating_instance():
    """Two sections about o0 on the whole space that disagree at o1, with no
    smaller cover member around o0 to retreat to."""
    G = product_groupoid(2, cyclic(2))
    base = topology(["o0", "o1"], [F(), F({"o1"}), F({"o0", "o1"})])
    X = F({"o0", "o1"})
    cover = [(0, X), (1, X), (2, F({"o1"}))]
    sections = {
        ("o0", 0): {"o0": "o0>o0:0", "o1": "o0>o1:0"},
        ("o0", 1): {"o0": "o0>o0:0", "o1": "o0>o1:1"},
        ("o1", 0): {"o1": "o1>o1:0", "o0": "o1>o0:0"},
        ("o1", 1): {"o1": "o1>o1:0", "o0": "o1>o0:0"},
        ("o1", 2): {"o1": "o1>o1:0"},
    }
    return G, local_trivialization(base, cover, sections)


def test_comp_violation_carries_the_witness():
    G, LT = comp_violating_instance()
    rep = validate_clt(G, LT)
    assert rep == (("comp", ("o0", 0, 1)),)
    assert comp_witness(LT, "o0", 0, 1) is None
    assert comp_witness(LT, "o1", 0, 1) == 0  # the same pair is fine about o1


def test_comp_member_must_hold_the_point():
    """Sections about o0 that agree only on {o1}, a member that misses o0,
    violate Comp."""
    G = product_groupoid(3, cyclic(2))
    X = F({"o0", "o1", "o2"})
    cover = [(0, X), (1, X), (2, F({"o1"}))]
    sections = {(x, i): {u: f"{x}>{u}:0" for u in member}
                for i, member in cover for x in member}
    sections[("o0", 1)]["o2"] = "o0>o2:1"
    LT = local_trivialization(topology(sorted(X), [F(), F({"o1"}), X]), cover, sections)
    assert validate_clt(G, LT) == (("comp", ("o0", 0, 1)),)
    assert comp_witness(LT, "o0", 0, 1) is None


def test_validate_flags_cover_member_that_is_not_open():
    G = pair_groupoid([0, 1])
    base = topology([0, 1], [F(), F({0}), F({0, 1})])
    cover = [(0, F({1})), (1, F({0})), (2, F({0, 1}))]
    LT = local_trivialization(base, cover, sections_from_arrows(cover, pair_arrow))
    assert validate_clt(G, LT) == (("cover-not-open", 0),)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_base_check_lists_the_opens_the_full_scan_lists(data):
    """The pointwise base test (some member u with p in u inside U_p) lists
    exactly the not-a-base failures of a scan over every open, in order."""
    points = list(range(data.draw(st.integers(1, 4), label="points")))
    subs = st.frozensets(st.sampled_from(points), min_size=1)
    base = generate_from_base(points, data.draw(st.lists(subs, max_size=4)) + [F(points)])
    T = base.topology
    members = data.draw(st.lists(subs, min_size=1, max_size=5), label="cover")
    LT = canonical_lt(T, list(enumerate(members)))
    scan = []
    for o in sorted(T.opens, key=lambda s: (len(s), sorted(map(str, s)))):
        for p in sorted(o, key=str):
            if not any(p in u and u <= o for u in members):
                scan.append(("not-a-base", (o, p)))
                break
    problems = validate_clt(pair_groupoid(points), LT)
    assert [q for q in problems if q[0] == "not-a-base"] == scan


def test_validate_flags_broken_section_tables():
    G = pair_groupoid(["a", "b"])
    base = discrete(["a", "b"])
    cover = [(0, F({"a"})), (1, F({"b"}))]
    bad = local_trivialization(base, cover, {("a", 0): {"a": "(a,b)"},
                                             ("b", 1): {"b": "(b,b)"}})
    kinds = [k for k, _ in validate_clt(G, bad)]
    assert kinds == ["section-target", "section-identity"]
    missing = local_trivialization(base, cover, {("b", 1): {"b": "(b,b)"}})
    assert ("section-missing", ("a", 0)) in validate_clt(G, missing)


def test_duplicate_cover_index_rejected():
    with pytest.raises(ValueError, match="duplicate cover index"):
        local_trivialization(discrete([0]), [(0, {0}), (0, {0})], {})


# ------------------------------------------------------ basic neighborhoods

def test_identity_neighborhood_over_singletons_is_the_identity():
    G = pair_groupoid(["a", "b", "c"])
    LT = canonical_lt(discrete(["a", "b", "c"]), singleton_cover(G.objects))
    assert basic_neighborhood(G, LT, "(a,a)", 0, 0) == F({"(a,a)"})


def test_whole_space_neighborhood_sweeps_every_pair():
    G = pair_groupoid([0, 1])
    LT = canonical_lt(discrete([0, 1]), [(0, {0, 1})])
    assert basic_neighborhood(G, LT, "(0,1)", 0, 0) == F(G.morphisms)


def partition_instance():
    G = pair_groupoid([0, 1, 2, 3])
    base = topology([0, 1, 2, 3], [F(), F({0, 1}), F({2, 3}), F({0, 1, 2, 3})])
    LT = canonical_lt(base, [(0, {0, 1}), (1, {2, 3})])
    W = F({f"({u},{v})" for u in (0, 1) for v in (0, 1)}
          | {f"({u},{v})" for u in (2, 3) for v in (2, 3)})
    return G, LT, W


def test_neighborhood_stays_inside_block_subgroupoid():
    G, LT, W = partition_instance()
    assert basic_neighborhood(G, LT, "(0,1)", 0, 0) <= W


def test_neighborhood_precondition_errors():
    G, LT, _ = partition_instance()
    with pytest.raises(ValueError, match="unknown cover index"):
        basic_neighborhood(G, LT, "(0,1)", 9, 0)
    with pytest.raises(ValueError, match="not in cover member"):
        basic_neighborhood(G, LT, "(0,2)", 0, 0)  # target 2 sits in the other block


# --------------------------------------------------------------- generation

def test_discrete_base_singleton_cover_generates_discrete():
    G = pair_groupoid(["a", "b", "c"])
    LT = canonical_lt(discrete(["a", "b", "c"]), singleton_cover(G.objects))
    gen, problems = generate_groupoid_topology(G, LT)
    assert gen.topology.opens == discrete(G.morphisms).opens  # every {a} is a neighborhood
    assert problems == () and gen.base_compatible
    assert difference_equivalence(problems)


def test_sierpinski_pair_groupoid_generates_the_product_topology():
    G = pair_groupoid([0, 1])
    base = topology([0, 1], [F(), F({0}), F({0, 1})])
    LT = canonical_lt(base, [(0, {0}), (1, {0, 1})])
    gen, problems = generate_groupoid_topology(G, LT)
    assert gen.topology.opens == {  # open rectangles U x V in morphism-id dress
        F(), F({"(0,0)"}), F({"(0,0)", "(0,1)"}), F({"(0,0)", "(1,0)"}),
        F({"(0,0)", "(0,1)", "(1,0)"}),
        F({"(0,0)", "(0,1)", "(1,0)", "(1,1)"}),
    }
    assert problems == () and gen.base_compatible


def test_generation_refused_on_comp_violation():
    G, LT = comp_violating_instance()
    with pytest.raises(ValueError, match="comp"):
        generate_groupoid_topology(G, LT)


@settings(max_examples=25, deadline=None)
@given(extra=st.lists(st.sampled_from(SUBS7[3:]), unique=True, max_size=4))
def test_canonical_covers_always_generate_topological_groupoids(extra):
    """With one global arrow choice any cover of the discrete base works, and
    the generated structure passes every continuity certificate."""
    G = pair_groupoid([0, 1, 2])
    cover = list(enumerate(SUBS7[:3] + extra))
    LT = canonical_lt(discrete([0, 1, 2]), cover)
    gen, problems = generate_groupoid_topology(G, LT)
    assert problems == () and gen.base_compatible
    assert not is_topology(gen.topology.points, gen.topology.opens)
    for a in sorted(G.morphisms):  # each neighborhood contains its center
        for i, u in LT.cover:
            for j, v in LT.cover:
                if G.source[a] in u and G.target[a] in v:
                    assert a in basic_neighborhood(G, LT, a, i, j)


def sierpinski_non_base_instance():
    """A valid structure that is not a topological groupoid: over Sierpinski
    space the whole-space members 0 and 2 share a point, and s_{o0,0} alone
    sends o1 to the non-trivial arrow.  Its neighborhoods are no base, and
    the identity map is not continuous."""
    G = product_groupoid(2, cyclic(2))
    base = topology(["o0", "o1"], [F(), F({"o0"}), F({"o0", "o1"})])
    cover = [(0, F({"o0", "o1"})), (1, F({"o0"})), (2, F({"o0", "o1"}))]
    sections = {(x, i): {u: f"{x}>{u}:0" for u in member}
                for i, member in cover for x in member}
    sections[("o0", 0)]["o1"] = "o0>o1:1"
    return G, local_trivialization(base, cover, sections)


def test_sierpinski_non_base_is_refuted_by_the_identity_map():
    G, LT = sierpinski_non_base_instance()
    assert not validate_clt(G, LT)
    gen, problems = generate_groupoid_topology(G, LT)
    assert not gen.base_compatible
    assert problems == (("identity", (F({"o1>o1:0"}), F({"o1"}))),)
    assert shrink_oracle(G, LT) == []
    old_gen, old_problems = generation_oracle(G, LT)
    assert old_gen == gen
    assert old_problems[-1:] == problems  # 16 replay refutations came first
    assert len(old_problems) == 17


def discrete_refinement_instance():
    """A valid structure the shrinking replay with the witnesses' own
    sections refuted, though it is a topological groupoid: over the discrete
    space on {o0, o1}, s_{o1,0} alone sends o0 to the non-trivial arrow.
    The witness of (o0, 0, 9) is member 4, whose section differs from
    s_{o1,0} on {o0}; yet s_{o0,0} and s_{o0,9} agree there."""
    G = product_groupoid(2, cyclic(2))
    cover = [(4, F({"o0"})), (7, F({"o1"})), (9, F({"o0", "o1"})), (5, F({"o0"})),
             (0, F({"o0", "o1"}))]
    sections = {(x, i): {u: f"{x}>{u}:0" for u in member}
                for i, member in cover for x in member}
    sections[("o1", 0)]["o0"] = "o1>o0:1"
    return G, local_trivialization(discrete(["o0", "o1"]), cover, sections)


def test_true_topological_groupoid_is_not_refuted():
    G, LT = discrete_refinement_instance()
    assert not validate_clt(G, LT)
    gen, problems = generate_groupoid_topology(G, LT)
    assert problems == () and gen.base_compatible
    assert gen.topology.open_count == 2 ** len(G.morphisms) == 256  # discrete
    assert shrink_oracle(G, LT) == []
    _, old_problems = generation_oracle(G, LT)
    assert len(old_problems) == 36
    assert {kind for kind, _ in old_problems} == {"refinement"}


def _structures(data):
    """A valid or invalid local trivialization drawn from sorted lists only:
    a pair groupoid with its canonical sections, or a product groupoid over
    Z/2 or Z/3 with random section values, on up to three points whose
    topology is generated by random subsets.  The cover holds every minimal
    neighborhood, so it is a base, and up to three more opens."""
    group = data.draw(st.sampled_from(["pair", "Z/2", "Z/3"]), label="groupoid")
    points = ["o0", "o1", "o2"][:data.draw(st.integers(1, 3), label="points")]
    subsets = [F(s) for r in range(1, len(points) + 1)
               for s in itertools.combinations(points, r)]
    family = data.draw(st.lists(st.sampled_from(subsets), max_size=3), label="subbase")
    base = generate_from_base(points, family + [F(points)]).topology
    opens = sorted((o for o in base.opens if o), key=lambda o: (len(o), sorted(o)))
    minimal = [o for o in opens if o in base.neighborhoods.values()]
    members = minimal + data.draw(st.lists(st.sampled_from(opens), max_size=3),
                                  label="extra members")
    indices = data.draw(st.lists(st.integers(0, 9), unique=True, min_size=len(members),
                                 max_size=len(members)), label="indices")
    cover = list(zip(indices, members))
    if group == "pair":
        return pair_groupoid(points), canonical_lt(base, cover)
    n = int(group[2:])
    values = st.sampled_from([str(g) for g in range(n)])
    sections = {(x, i): {u: f"{x}>{u}:{'0' if u == x else data.draw(values)}"
                         for u in sorted(member)}
                for i, member in cover for x in sorted(member)}
    return (product_groupoid(len(points), cyclic(n)),
            local_trivialization(base, cover, sections))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_generation_matches_the_oracle(data):
    """On every valid structure the shrinking law, read with the sections
    Comp relates, holds (`shrink_oracle`), and generation gives the
    topology, base compatibility and structure-map report of the loops
    that built every neighborhood again (`generation_oracle`), its replay
    refutations aside."""
    G, LT = _structures(data)
    if validate_clt(G, LT):
        with pytest.raises(ValueError, match="local trivialization invalid"):
            generate_groupoid_topology(G, LT)
        return
    assert shrink_oracle(G, LT) == []
    gen, problems = generate_groupoid_topology(G, LT)
    gen_old, problems_old = generation_oracle(G, LT)
    assert gen.topology.neighborhoods == gen_old.topology.neighborhoods
    assert gen.base_compatible == gen_old.base_compatible
    assert problems == tuple(p for p in problems_old if p[0] != "refinement")


@pytest.mark.parametrize("instance", [sierpinski_non_base_instance, all_subsets_instance])
def test_generation_asks_each_neighborhood_once_and_no_comp_witness(instance, monkeypatch):
    """`basic_neighborhood` runs once per distinct (a, i, j), and with the
    `validate_clt` tuple given no Comp triple is visited."""
    import groupoids.loctriv as loctriv

    G, LT = instance()
    clt = validate_clt(G, LT)
    calls = {"basic_neighborhood": [], "_comp_triples": []}
    for name, log in calls.items():
        original = getattr(loctriv, name)
        monkeypatch.setattr(loctriv, name,
                            lambda *a, _o=original, _log=log: _log.append(a[-3:]) or _o(*a))
    generate_groupoid_topology(G, LT, clt=clt)
    nbhds = calls["basic_neighborhood"]
    assert len(nbhds) == len(set(nbhds)) == sum(
        len([i for i, u in LT.cover if G.source[a] in u])
        * len([j for j, v in LT.cover if G.target[a] in v]) for a in G.morphisms)
    assert calls["_comp_triples"] == [] and not hasattr(loctriv, "comp_witness")


# ----------------------------------------------------------------- openness

def test_whole_groupoid_is_open():
    G = pair_groupoid(["a", "b", "c"])
    LT = canonical_lt(discrete(["a", "b", "c"]), singleton_cover(G.objects))
    assert check_w_open(G, LT, G.morphisms) == ()
    assert set(w_open_witnesses(G, LT, G.morphisms)) == set(G.morphisms)


def test_partition_blocks_are_open():
    G, LT, W = partition_instance()
    assert check_w_open(G, LT, W) == ()
    assert w_open_witnesses(G, LT, W)["(0,1)"] == (0, 0)  # block member on both sides


def test_identities_only_subgroupoid_breaks_the_hypotheses():
    G, LT, _ = partition_instance()
    with pytest.raises(ValueError, match="leaves the subgroupoid"):
        check_w_open(G, LT, {G.identity[x] for x in G.objects})


# ------------------------------------------------- transport along i-tilde

def tree_instance():
    G = pair_groupoid(["a", "b", "c"])
    ids = {G.identity[x] for x in G.objects}
    W = ids | {"(a,b)", "(b,a)", "(b,c)", "(c,b)"}
    M = build_monodromy(G, W)
    cover = [(0, {"a"}), (1, {"b"}), (2, {"c"}), (3, {"a", "b"}), (4, {"b", "c"})]
    LT = canonical_lt(discrete(["a", "b", "c"]), cover)
    return G, LT, W, M


def test_tree_transport_matches_the_ambient_structure():
    """Over a tree the evaluation map is a bijection, so the windowed
    topology upstairs is carried onto the generated one downstairs."""
    G, LT, W, M = tree_instance()
    rep = clt_on_monodromy(LT, M)
    assert rep.comp_triples == 5  # a: (0, 3); b: (1, 3), (1, 4), (3, 4); c: (2, 4)
    assert rep.window.points == 9 and rep.window.tokens_exact
    gen, _ = generate_groupoid_topology(G, LT)
    image = {F(rep.window.values[t] for t in o) for o in rep.window.topology.opens}
    assert image == gen.topology.opens
    assert not M.closed  # adjacency composites escape, so no openness leg
    assert rep.window.w_tilde_open is None


def test_one_object_window_counts_classes_by_displacement():
    """Rank-one vertex group: the depth-6 window holds 13 word classes, one
    per displacement, and the whole-space cover transports to the discrete
    topology on them."""
    G = group_groupoid(cyclic(5))
    W = {"0", "1", "4"}
    M = build_monodromy(G, W)
    LT = local_trivialization(indiscrete(["*"]), [(0, {"*"})], {("*", 0): {"*": "0"}})
    rep = clt_on_monodromy(LT, M, depth=6)
    assert rep.window.points == 13 and rep.window.opens == 2 ** 13
    fibers = Counter(rep.window.values.values())
    assert fibers == Counter(str(k % 5) for k in range(-6, 7))
    assert not M.closed and rep.window.w_tilde_open is None


def test_discrete_window_over_the_listing_cap_is_counted():
    """At depth 8 the same window holds 17 classes, so its discrete topology
    has 2**17 opens, over the 2**16 cap on listing them; the count needs no
    list."""
    G = group_groupoid(cyclic(5))
    W = {"0", "1", "4"}
    LT = local_trivialization(indiscrete(["*"]), [(0, {"*"})], {("*", 0): {"*": "0"}})
    rep = clt_on_monodromy(LT, build_monodromy(G, W), depth=8)
    assert rep.window.points == 17 and rep.window.opens == 2 ** 17


def test_window_steps_class_keys_instead_of_reducing_words(monkeypatch):
    """Each transported neighborhood element is stepped from its class's
    key by the images the class search computed once per carrier element,
    so on an M whose engines are built the window makes as many free
    reductions at depth 8 (17 classes) as at depth 4 (9 classes), and asks
    M for no word's token."""
    import groupoids.words as words

    G = group_groupoid(cyclic(5))
    M = build_monodromy(G, {"0", "1", "4"})
    LT = local_trivialization(indiscrete(["*"]), [(0, {"*"})], {("*", 0): {"*": "0"}})
    assert M.engines[0].kind == "free"
    reduce = words.free_reduce

    def counted(letters):
        calls.append(letters)
        return reduce(letters)

    def token(self, w):
        raise AssertionError(f"token asked of {w!r}")

    monkeypatch.setattr(words, "free_reduce", counted)
    monkeypatch.setattr(MonodromyGroupoid, "token", token)
    counts, sizes = {}, {}
    for depth in (4, 8):
        calls = []
        rep = clt_on_monodromy(LT, M, depth=depth)
        counts[depth], sizes[depth] = len(calls), rep.window.points
    assert sizes == {4: 9, 8: 17}
    assert counts[8] == counts[4]


def test_triangle_adjacency_image_is_open_upstairs():
    """On the 3-cycle every pair is adjacent: the subset is the whole
    groupoid, its image generates everything, and it is open upstairs."""
    G = pair_groupoid(["a", "b", "c"])
    W = G.morphisms
    M = build_monodromy(G, W)
    cover = singleton_cover(G.objects) + [(3, {"a", "b"})]
    LT = canonical_lt(discrete(["a", "b", "c"]), cover)
    rep = clt_on_monodromy(LT, M)
    witnesses, undecided, failures = transported_openness_oracle(LT, M)
    assert failures == () and undecided == ()
    assert M.closed
    assert set(witnesses) == set(G.morphisms)
    assert rep.comp_triples == 2  # the two-point member overlaps the singletons
    assert rep.window.points == 9 and rep.window.w_tilde_open is True
    assert window_oracle(LT, M, 6)["w_tilde_open"] is True


def test_starved_budget_reports_undecided_not_false():
    G = product_groupoid(2, cyclic(2))
    W = G.morphisms
    cover = [(0, F({"o0", "o1"}))]
    sections = sections_from_arrows(cover, lambda x, u: f"{x}>{u}:0")
    LT = local_trivialization(indiscrete(["o0", "o1"]), cover, sections)
    M = build_monodromy(G, W, budget=2)
    starved = clt_on_monodromy(LT, M, depth=2)
    _, undecided, failures = transported_openness_oracle(LT, M)
    assert failures == ()
    assert set(undecided) == {"o0>o0:1", "o0>o1:1", "o1>o0:1", "o1>o1:1"}
    assert not starved.window.tokens_exact  # classes may be split, says so
    assert starved.window.w_tilde_open is None
    M = build_monodromy(G, W, budget=500)
    resolved = clt_on_monodromy(LT, M, depth=2)
    assert transported_openness_oracle(LT, M)[1:] == ((), ())
    assert resolved.window.points == 8
    assert resolved.window.w_tilde_open is True
    assert window_oracle(LT, M, 2)["w_tilde_open"] is True


def test_transport_preconditions():
    *_, M = tree_instance()
    leaky = canonical_lt(discrete(["a", "b", "c"]),
                         [(0, {"a"}), (1, {"b"}), (2, {"c"}), (3, {"a", "c"})])
    with pytest.raises(ValueError, match="leaves the generating subset"):
        clt_on_monodromy(leaky, M)  # (a,c) is not an adjacency arrow


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_transport_agrees_with_the_finite_checks(data):
    """With every morphism of a pair groupoid as the subset, the presented
    groupoid is that pair groupoid again, so the transported checks must
    repeat the finite ones: the word-level oracle finds no problems and the
    same Comp witnesses, the openness witnesses are the same, and star
    classes are the window classes based at the same point."""
    points = ["a", "b", "c"][:data.draw(st.integers(2, 3), label="points")]
    shapes = [F(s) for r in (1, 2, 3) for s in itertools.combinations(points, r)]
    members = [F({p}) for p in points] + data.draw(
        st.lists(st.sampled_from(shapes), max_size=3), label="extra members")
    indices = data.draw(st.lists(st.integers(0, 20), unique=True, min_size=len(members),
                                 max_size=len(members)), label="indices")
    cover = list(zip(indices, members))
    G = pair_groupoid(points)
    W = G.morphisms
    M = build_monodromy(G, W)
    LT = canonical_lt(discrete(points), cover)

    rep = clt_on_monodromy(LT, M, depth=3)
    witnesses, undecided, failures = transported_openness_oracle(LT, M)
    assert failures == () and undecided == () and M.closed
    assert rep.window.w_tilde_open is True and window_oracle(LT, M, 3)["w_tilde_open"] is True
    triples = [(x, i, j) for x in points
               for i, j in itertools.combinations(
                   sorted(k for k, u in cover if x in u), 2)]
    problems, satisfied, undecided, failed = transported_checks(LT, M)
    assert problems == () and undecided == () and failed == ()
    assert satisfied == tuple((x, i, j, comp_witness(LT, x, i, j)) for x, i, j in triples)
    assert rep.comp_triples == len(triples)
    assert check_w_open(G, LT, G.morphisms) == ()
    assert witnesses == w_open_witnesses(G, LT, G.morphisms)
    for x in points:
        star = star_covering_report(M, x, 3)
        based = Counter(v for t, v in rep.window.values.items() if t[0] == x)
        assert star.reached == based


def _transports(data):
    """(LT, M) for a valid structure drawn like `_structures`, over the full
    carrier, the closure of the section values and that closure with one
    more element and its inverse, each at starved and default budgets:
    finite, free and undecided engines."""
    G, LT = _structures(data)
    assume(not validate_clt(G, LT))
    values = {m for tab in LT.sections.values() for m in tab.values()}
    closure = closure_oracle(G, values | {G.identity[x] for x in G.objects})
    carriers = [G.morphisms, closure]
    outside = sorted(G.morphisms - closure)
    if outside:
        a = data.draw(st.sampled_from(outside), label="extra element")
        carriers.append(closure | {a, G.inverse[a]})
    for carrier in carriers:
        for budget in (2, 3, DEFAULT_BUDGET):
            yield LT, build_monodromy(G, carrier, budget=budget)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_transport_inherits_the_section_laws_and_comp(data):
    """On the drawn transports (`_transports`) the word-level oracle finds
    no section problem and no refuted or undecided Comp triple, and it
    counts the triples the report counts."""
    for LT, M in _transports(data):
        rep = clt_on_monodromy(LT, M, depth=1)
        problems, satisfied, undecided, failed = transported_checks(LT, M)
        assert problems == () and undecided == () and failed == ()
        assert len(satisfied) == rep.comp_triples


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_transport_refutes_exactly_when_generation_does(data):
    """`clt-generate` on a drawn transport (`_transports`), the carrier and
    budget given in the document and on the command line, refutes exactly
    when it refutes the structure alone: the window never refutes, and the
    finite generation runs either way."""
    runs = list(_transports(data))
    LT, G = runs[0][0], runs[0][1].ambient
    body = {"groupoid": serialize_groupoid(G), **serialize_local_trivialization(LT)}
    with tempfile.TemporaryDirectory() as tmp:
        def exit_code(doc, *flags):
            path = os.path.join(tmp, "clt.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(["clt-generate", path, "--window", "1", *flags])

        refuted = exit_code(body) == 1
        for _, M in runs:
            code = exit_code({**body, "carrier": sorted(M.carrier)},
                             "--budget", str(M.budget))
            assert code in (0, 1, 2) and (code == 1) == refuted


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_window_on_class_keys_is_the_word_paths(data):
    """On the drawn transports (`_transports`) the window stepped on class
    keys is the one that tokenizing every neighborhood word gives
    (`window_oracle`): the same classes and ambient values, open count,
    base compatibility and topology once each key is spelled as
    `ClassSearch.classes` spells it, and the same openness of i~(W) when
    the tokens are exact."""
    depth = 3
    for LT, M in _transports(data):
        win = clt_on_monodromy(LT, M, depth=depth).window
        search = enumerate_classes(M, sorted(M.ambient.objects, key=str), depth)
        assert list(win.values) == search.keys  # the keys, in order
        spell = spelled_keys(search)
        oracle = window_oracle(LT, M, depth)
        assert (win.points, win.opens, win.base_compatible) == (
            oracle["points"], oracle["opens"], oracle["base_compatible"])
        assert {spell[k]: val for k, val in win.values.items()} == oracle["values"]
        assert ({spell[p]: F(map(spell.get, u)) for p, u in win.topology.neighborhoods.items()}
                == oracle["topology"].neighborhoods)
        if win.tokens_exact:
            assert win.w_tilde_open == oracle["w_tilde_open"]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_monodromy_on_keys_is_topological_exactly_when_g_is(data):
    """The paper's theorem as an oracle.  On the drawn transports
    (`_transports`) whose class search closes with exact tokens, M built
    on the class keys (`monodromy_on_keys`) is a groupoid, and the window
    topology makes it a topological groupoid over the base space exactly
    when the structure's generated topology makes G one (the six maps
    continuous and the neighborhoods a base)."""
    depth = 3
    for LT, M in _transports(data):
        G = M.ambient
        search = enumerate_classes(M, sorted(G.objects, key=str), depth)
        if not (search.saturated and search.exact):
            continue
        MK = monodromy_on_keys(M, depth)
        assert validate_groupoid(MK) == ()
        window = clt_on_monodromy(LT, M, depth=depth).window
        gen, maps = generate_groupoid_topology(G, LT)
        upstairs = check_topological_groupoid(MK, window.topology, LT.base_space)
        assert (upstairs == ()) == (maps == () and gen.base_compatible)


def test_deep_cycle_window_counts_classes_by_winding():
    """The pair groupoid on a 4-cycle with the cycle's arrows as the carrier
    presents Z at each point, so the depth-d window holds one class per
    base point and winding t with |t| <= d: 4 (2d + 1), 1,604 at d = 200.
    The traces are the winding model's: i~(s)^-1 . w . i~(s') winds t less
    the displacement of s plus that of s'."""
    pts, depth = ["c0", "c1", "c2", "c3"], 200
    G = pair_groupoid(pts)
    carrier = {G.identity[x] for x in pts} | {
        pair_arrow(a, b) for j in range(4) for a, b in itertools.permutations(
            (pts[j], pts[(j + 1) % 4]))}
    M = build_monodromy(G, carrier)
    cover = [(0, F(pts[:2])), (1, F(pts[2:]))]
    LT = canonical_lt(topology(pts, [F(), *(u for _, u in cover), F(pts)]), cover)
    win = clt_on_monodromy(LT, M, depth=depth).window
    assert win.points == 4 * (2 * depth + 1) == 1604 and win.tokens_exact

    def shift(x, u):  # the displacement of the section arrow x -> u
        return {0: 0, 1: 1, 3: -1}[(pts.index(u) - pts.index(x)) % 4]

    classes = [(x, t) for x in pts for t in range(-depth, depth + 1)]
    traces = []
    for x, t in classes:
        y = pts[(pts.index(x) + t) % 4]
        for (_, ui), (_, uj) in itertools.product(cover, cover):
            if x in ui and y in uj:
                trace = {(u, t - shift(x, u) + shift(y, v)) for u in ui for v in uj}
                traces.append(F(c for c in trace if abs(c[1]) <= depth))
    model = generate_from_base(classes, traces)
    assert (win.opens, win.base_compatible) == (model.topology.open_count,
                                                model.base_compatible)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_transported_openness_needs_no_search(data):
    """On valid structures drawn like `_structures`, over the full carrier
    and the closure of the section values, both composition-closed, at
    starved and default budgets: the elementwise search the transport once
    made finds no failure, and each element it leaves undecided has every
    basic neighborhood inside W downstairs, which is where evaluation takes
    its transported ones.  The window's openness field is what the
    openness test on its classes gives when the tokens are exact, and
    None when they are not."""
    G, LT = _structures(data)
    assume(not validate_clt(G, LT))
    values = {m for tab in LT.sections.values() for m in tab.values()}
    closure = closure_oracle(G, values | {G.identity[x] for x in G.objects})
    for carrier in (G.morphisms, closure):
        for budget in (2, 3, DEFAULT_BUDGET):
            M = build_monodromy(G, carrier, budget=budget)
            assert M.closed
            rep = clt_on_monodromy(LT, M, depth=2)
            _, undecided, failures = transported_openness_oracle(LT, M)
            assert failures == ()
            for a in undecided:
                assert all(basic_neighborhood(G, LT, a, i, j) <= carrier
                           for i, u in LT.cover if G.source[a] in u
                           for j, v in LT.cover if G.target[a] in v)
            if rep.window.tokens_exact:
                assert rep.window.w_tilde_open == window_oracle(LT, M, 2)["w_tilde_open"]
            else:
                assert rep.window.w_tilde_open is None
