"""Locally trivial structures on a groupoid over a finite base space.

A local trivialization is an indexed open cover of the object space that is
also a base, together with one section table per (point, cover member)
incidence: s_{x,i} maps U_i into the star of x, hits u with an arrow x -> u,
and sends x itself to the identity.  The compatibility condition Comp asks
any two sections about the same point to agree on some cover member around
it.

Out of a valid structure, every morphism a: x -> y acquires basic
neighborhoods s_{x,i}(U_i)^-1 . a . s_{y,j}(U_j); these generate a topology
on the morphism set under which every structure map is continuous, and a
composition-closed generating subset with sections landing in it becomes an
open subset.

The section laws and Comp are checked on the finite tables only: sections
lifted along the one-letter embedding into a monodromy groupoid inherit
both, so `clt_on_monodromy` checks what transport adds.  Basic
neighborhoods and the openness search are written once, over product,
inverse and a membership test answering True, False or None.  On words the
per-component engines answer it, possibly "undecided" when a budget runs
out, which the reports here surface rather than hide.

`validate_clt` and `check_w_open` answer as every checker in the package
does, with a tuple of (kind, payload) pairs that is empty when the
structure is valid or the subgroupoid open, and `generate_groupoid_topology`
returns the generated topology with such a tuple of what failed.  The
constructions that need a valid structure take the `validate_clt` tuple as
`clt` when the caller already holds it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .core import FiniteGroupoid, check_wide_subgroupoid
from .monodromy import (
    MonodromyGroupoid,
    canonical_morphism,
    enumerate_classes,
)
from .topology import (
    FiniteTopology,
    _family_order,
    check_topological_groupoid,
    generate_from_base,
)
from .words import concat, invert_word, word_target


@dataclass(frozen=True)
class LocalTrivialization:
    base_space: FiniteTopology
    cover: tuple    # ((index, frozenset of points), ...)
    sections: dict  # (point, index) -> {point in the member: morphism id}


def local_trivialization(base_space, cover, sections) -> LocalTrivialization:
    cov = tuple((i, frozenset(u)) for i, u in cover)
    seen = set()
    for i, _ in cov:
        if i in seen:
            raise ValueError(f"duplicate cover index: {i!r}")
        seen.add(i)
    return LocalTrivialization(base_space=base_space, cover=cov,
                               sections={k: dict(v) for k, v in sections.items()})


def sections_from_arrows(cover, arrow) -> dict:
    """Section tables from one global choice of arrows: s_{x,i}(u) = arrow(x, u).

    A global choice agrees with itself on every overlap, so Comp holds by
    construction; the pair-groupoid case is arrow = lambda x, u: f"({x},{u})".
    """
    return {(x, i): {u: arrow(x, u) for u in member}
            for i, member in cover for x in member}


def _index_key(i):
    return (0, i) if isinstance(i, int) else (1, str(i))


def _members_at(LT, p):
    return [i for i, u in LT.cover if p in u]


def _all3(votes):
    """Three-valued conjunction: False beats None (undecided) beats True."""
    votes = list(votes)
    return False if False in votes else None if None in votes else True


def _first(candidates, test):
    """(True, c) for the first candidate whose three-valued test holds; else
    (None, None) if some test was undecided, or (False, None)."""
    outcome = False
    for c in candidates:
        v = test(c)
        if v is True:
            return True, c
        if v is None:
            outcome = None
    return outcome, None


def _section_problems(G, LT):
    """Laws of the section tables, in report order: one table per incidence,
    its domain the cover member, every value a morphism of G from x to its
    argument, and the identity at x itself."""
    cov, sections = dict(LT.cover), LT.sections
    expected = {(x, i) for i, u in LT.cover for x in u}
    problems = [("section-missing", key)
                for key in sorted(expected - set(sections), key=str)]
    problems += [("section-unexpected", key)
                 for key in sorted(set(sections) - expected, key=str)]
    for x, i in sorted(expected & set(sections), key=str):
        tab = sections[(x, i)]
        if set(tab) != cov[i]:
            problems.append(("section-domain", (x, i)))
        for u in sorted(set(tab) & cov[i], key=str):
            m = tab[u]
            if m not in G.morphisms:
                problems.append(("section-value", (x, i, u)))
                continue
            if G.source[m] != x:
                problems.append(("section-source", (x, i, u)))
            if G.target[m] != u:
                problems.append(("section-target", (x, i, u)))
        if tab.get(x) != G.identity[x]:
            problems.append(("section-identity", (x, i)))
    return problems


def _comp_triples(LT):
    """(x, i, j) for every point and pair of cover members around it."""
    for x in sorted(LT.base_space.points, key=str):
        around = sorted(_members_at(LT, x), key=_index_key)
        for i, j in itertools.combinations(around, 2):
            yield x, i, j


def _neighborhood(cov, sections, inverse, mul, a, x, y, i, j):
    """s_{x,i}(u)^-1 . a . s_{y,j}(v) for every u in U_i and v in U_j."""
    si, sj = sections[(x, i)], sections[(y, j)]
    return [mul(inverse(si[u]), a, sj[v]) for u in cov[i] for v in cov[j]]


def _open_search(G, LT, elements, inside):
    """For each element a, the first (i, j) around its endpoints whose basic
    neighborhood is inside the subset by `inside(a, i, j)`:
    (witnesses, undecided, failures)."""
    witnesses, unwitnessed = {}, {None: [], False: []}
    for a in elements:
        pairs = [(i, j) for i in _members_at(LT, G.source[a])
                 for j in _members_at(LT, G.target[a])]
        verdict, ij = _first(pairs, lambda ij: inside(a, *ij))
        if verdict:
            witnesses[a] = ij
        else:
            unwitnessed[verdict].append(a)
    return witnesses, unwitnessed[None], unwitnessed[False]


def _require_valid(G, LT, clt=None):
    """Raises on an invalid structure; `clt` is the `validate_clt` tuple
    when the caller already made it."""
    problems = validate_clt(G, LT) if clt is None else clt
    if problems:
        raise ValueError(f"local trivialization invalid: {problems[0]!r}")


def _require_sections_in(LT, carrier, what):
    for key in sorted(LT.sections, key=str):
        for u in sorted(LT.sections[key], key=str):
            if LT.sections[key][u] not in carrier:
                raise ValueError(f"section {key!r} leaves the {what} at {u!r}")


def comp_witness(LT: LocalTrivialization, x, i, j):
    """The cover index Comp provides for sections s_{x,i}, s_{x,j}: smallest
    index (then smallest serialized member) whose member contains x, sits in
    the intersection, and on which both section tables agree.  None if Comp
    fails for this triple."""
    cov = dict(LT.cover)
    si, sj = LT.sections.get((x, i), {}), LT.sections.get((x, j), {})
    around = sorted((k for k, uk in LT.cover if x in uk and uk <= cov[i] & cov[j]),
                    key=lambda k: (_index_key(k), sorted(map(str, cov[k]))))
    return next((k for k in around if all(si.get(u) == sj.get(u) for u in cov[k])),
                None)


def validate_clt(G: FiniteGroupoid, LT: LocalTrivialization) -> tuple:
    """Check every law of the structure: the (kind, payload) pairs of its
    failures, in a deterministic order, empty when it is valid.

    Legs: cover members open, cover a base of the space (some member u
    with p in u inside U_p at every point p; only a cover that is not a
    base lists the opens, to name each open it fails in), section tables
    present/total/lawful (target back to the argument, source pinned at x,
    identity at x itself), and Comp for every point and pair of members
    around it.
    """
    problems = []
    for i, u in LT.cover:
        if not LT.base_space.is_open(u):
            problems.append(("cover-not-open", i))
    nb = LT.base_space.neighborhoods
    if not all(any(p in u and u <= nb[p] for _, u in LT.cover) for p in nb):
        for o in sorted(LT.base_space.opens, key=_family_order):
            for p in sorted(o, key=str):
                if not any(p in u and u <= o for _, u in LT.cover):
                    problems.append(("not-a-base", (o, p)))
                    break

    problems += _section_problems(G, LT)

    for x, i, j in _comp_triples(LT):
        if comp_witness(LT, x, i, j) is None:
            problems.append(("comp", (x, i, j)))
    return tuple(problems)


def basic_neighborhood(G: FiniteGroupoid, LT: LocalTrivialization,
                       a, i, j) -> frozenset:
    """{ s_{x,i}(u)^-1 . a . s_{y,j}(v) } over the two cover members; always
    contains a because both sections hit identities at their centers."""
    cov = dict(LT.cover)
    if i not in cov or j not in cov:
        raise ValueError(f"unknown cover index: {(i if i not in cov else j)!r}")
    x, y = G.source[a], G.target[a]
    if x not in cov[i]:
        raise ValueError(f"source {x!r} not in cover member {i!r}")
    if y not in cov[j]:
        raise ValueError(f"target {y!r} not in cover member {j!r}")
    return frozenset(_neighborhood(cov, LT.sections, G.inverse.__getitem__, G.mul,
                                   a, x, y, i, j))


def generate_groupoid_topology(G: FiniteGroupoid, LT: LocalTrivialization,
                               clt: tuple = None):
    """(gen, problems): the `GeneratedTopology` of the basic neighborhoods,
    whose `.topology` is on the morphisms and whose `.base_compatible` says
    whether they form a true base, and the (kind, payload) pairs of what
    failed, empty when nothing did.  The pairs are
    ("refinement", (a, (i, j), (i2, j2), k, l)) where shrinking failed, then
    the `check_topological_groupoid` pairs of the six structure maps.

    Refuses to run on an invalid structure; `clt` is the `validate_clt`
    tuple of (G, LT) when the caller already has it.  Builds every basic
    neighborhood once, into a table keyed by (a, i, j), then replays the
    shrinking argument from that table: the Comp witnesses around both
    endpoints, each asked once, give a third neighborhood inside any two
    with the same center.  A witness contains its point, so the third is
    in the table too.
    """
    _require_valid(G, LT, clt)
    witness = functools.cache(functools.partial(comp_witness, LT))
    nbhds, pairs_of = {}, {}
    for a in sorted(G.morphisms):
        at = [(i, j) for i in _members_at(LT, G.source[a])
              for j in _members_at(LT, G.target[a])]
        pairs_of[a] = sorted(at, key=lambda ij: (_index_key(ij[0]), _index_key(ij[1])))
        for i, j in pairs_of[a]:
            nbhds[(a, i, j)] = basic_neighborhood(G, LT, a, i, j)

    problems = []
    for a in sorted(G.morphisms):
        x, y = G.source[a], G.target[a]
        for (i, j), (i2, j2) in itertools.combinations(pairs_of[a], 2):
            k, l = witness(x, i, i2), witness(y, j, j2)
            if not nbhds[(a, k, l)] <= nbhds[(a, i, j)] & nbhds[(a, i2, j2)]:
                problems.append(("refinement", (a, (i, j), (i2, j2), k, l)))

    gen = generate_from_base(sorted(G.morphisms), nbhds.values())
    return gen, (*problems, *check_topological_groupoid(G, gen.topology, LT.base_space))


def check_w_open(G: FiniteGroupoid, LT: LocalTrivialization, W) -> tuple:
    """Is the subgroupoid W open in the generated topology?  Equivalent, and
    checked literally: every element of W keeps some basic neighborhood
    inside W.  Returns (("no-neighborhood", a), ...) for the elements that
    keep none, empty when W is open; equality of finite tables always
    decides, so every other element is witnessed.  Under the preconditions
    (W a wide subgroupoid, sections landing in W) no failure is possible:
    a basic neighborhood of a in W holds products s^-1 . a . s' of
    elements of W, so it lies in W.  Broken preconditions raise ValueError."""
    W = frozenset(W)
    reasons = check_wide_subgroupoid(G, W)
    if reasons:
        raise ValueError(f"not a wide subgroupoid: {reasons[0]!r}")
    _require_valid(G, LT)
    _require_sections_in(LT, W, "subgroupoid")
    _, _, failures = _open_search(
        G, LT, sorted(W), lambda a, i, j: basic_neighborhood(G, LT, a, i, j) <= W)
    return tuple(("no-neighborhood", a) for a in failures)


# ---------------------------------------------------- transport to words

@dataclass(frozen=True)
class WindowTopologyReport:
    depth: int
    points: int                   # distinct word classes in the window
    base_compatible: bool
    tokens_exact: bool            # False if any engine was undecided
    opens: int                    # None when the count stopped at its bound
    w_tilde_open: bool = None     # None when the openness leg was skipped
    topology: FiniteTopology = None     # on the window's class tokens
    values: dict = field(default_factory=dict)  # token -> image morphism
    capped_at: int = None         # levels searched in full when the class cap hit


@dataclass(frozen=True)
class MonodromyCltReport:
    comp_triples: int             # (x, i, j) Comp asks about, all inherited
    w_tilde_failures: tuple       # elements with no neighborhood inside i~(W)
    w_tilde_undecided: tuple
    w_tilde_witnesses: dict       # a -> (i, j)
    window: WindowTopologyReport


def clt_on_monodromy(LT: LocalTrivialization, M: MonodromyGroupoid,
                     depth=6, clt: tuple = None) -> MonodromyCltReport:
    """Transport a local trivialization of M's ambient groupoid G along the
    one-letter embedding i~ into M; sections must land in M's generating
    subset W (hard error otherwise).

    The lifted sections u -> i~(s(u)) need no check.  i~(a) runs from the
    source of a to its target and i~ of an identity is the empty word, so
    the section laws hold because they hold downstairs; for each Comp
    triple the finite witness k gives both lifts the same one-letter words
    on U_k, which M's engines equal at any budget (w . w^-1 collapses to
    the empty word).  The report counts the triples.  What transport adds
    is checked: when W is composition-closed, some transported neighborhood
    of each i~(a) must stay inside i~(W), by engine-backed equality that
    may come back undecided; and the topology generated from transported
    neighborhoods on the window of word classes no longer than `depth` is
    reported, with i~(W) tested open in it.  `clt` is the `validate_clt`
    tuple of (G, LT) when the caller already has it.
    """
    G, carrier = M.ambient, M.subset.carrier
    _require_valid(G, LT, clt)
    _require_sections_in(LT, carrier, "generating subset")
    trans = {key: {u: M.i_tilde(tab[u]) for u in tab}
             for key, tab in LT.sections.items()}
    cov = dict(LT.cover)

    def neighborhood(w, i, j):
        return _neighborhood(cov, trans, functools.partial(invert_word, M.graph),
                             lambda s, a, t: concat(M.graph, concat(M.graph, s, a), t),
                             w, w.base, word_target(M.graph, w), i, j)

    p = canonical_morphism(M)

    def in_w_tilde(w):
        b = p.evaluate(w)
        return b in carrier and M.equal(w, M.i_tilde(b))

    w_wit, w_und, w_fail = {}, [], []
    if M.closed:
        w_wit, w_und, w_fail = _open_search(
            G, LT, sorted(carrier),
            lambda a, i, j: _all3(map(in_w_tilde, neighborhood(M.i_tilde(a), i, j))))

    return MonodromyCltReport(
        comp_triples=sum(1 for _ in _comp_triples(LT)),
        w_tilde_failures=tuple(w_fail), w_tilde_undecided=tuple(w_und),
        w_tilde_witnesses=w_wit,
        window=_window_topology(LT, M, depth, neighborhood))


def _window_topology(LT, M, depth, neighborhood) -> WindowTopologyReport:
    """Generate the transported-neighborhood topology on the word classes of
    length <= depth and test openness of i~(W) inside it.  A trace keeps the
    tokens of a neighborhood that are window classes, each looked up in
    the class table, so no trace walks the whole window."""
    search = enumerate_classes(M, sorted(M.ambient.objects, key=str), depth)
    classes = search.classes
    traces = set()
    for w, _ in classes.values():
        for i in _members_at(LT, w.base):
            for j in _members_at(LT, word_target(M.graph, w)):
                tokens = (M.token(v)[0] for v in neighborhood(w, i, j))
                traces.add(frozenset(t for t in tokens if t in classes))
    gen = generate_from_base(sorted(classes, key=str), traces)

    w_open = None
    if M.closed:
        image = frozenset(M.token(M.i_tilde(b))[0] for b in sorted(M.subset.carrier))
        w_open = gen.topology.is_open(image.intersection(classes))
    return WindowTopologyReport(depth=depth, points=len(classes),
                                base_compatible=gen.base_compatible,
                                tokens_exact=search.exact,
                                opens=gen.topology.open_count,
                                w_tilde_open=w_open,
                                topology=gen.topology,
                                values={t: val for t, (_, val) in classes.items()},
                                capped_at=search.capped_at)
