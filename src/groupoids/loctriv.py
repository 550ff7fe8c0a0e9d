"""Locally trivial structures on a groupoid over a finite base space.

A local trivialization is an indexed open cover of the object space that is
also a base, together with one section table per (point, cover member)
incidence: s_{x,i} maps U_i into the star of x, hits u with an arrow x -> u,
and sends x itself to the identity.  The compatibility condition Comp asks
any two sections about the same point to agree on some cover member around
it.

Out of a valid structure, every morphism a: x -> y acquires basic
neighborhoods s_{x,i}(U_i)^-1 . a . s_{y,j}(U_j); these generate a topology
on the morphism set, and a composition-closed generating subset with
sections landing in it becomes an open subset.  Whether the neighborhoods
form a base and the six structure maps are continuous is checked, not
assumed: a valid structure may fail either.  The shrinking law inside two
neighborhoods of a is never checked, because Comp proves it.

The section laws and Comp are checked on the finite tables only: sections
lifted along the one-letter embedding into a monodromy groupoid inherit
both.  Openness is never searched for, because it cannot fail: a basic
neighborhood of a in W is made of products s^-1 . a . s' of elements of
W, so it lies in W when W is closed under composition, and upstairs each
i~(s)^-1 . i~(a) . i~(s') is i~(s^-1 a s') by the defining relators.
What transport adds is the window topology, whose classes an "undecided"
engine may split, which its report says; its neighborhood elements are
stepped from their classes' keys, and no word is built.

`validate_clt` and `check_w_open` answer as every checker in the package
does, with a tuple of (kind, payload) pairs that is empty when the
structure is valid or the subgroupoid open, and `generate_groupoid_topology`
returns the generated topology with such a tuple of the structure maps
that are not continuous.  The
constructions that need a valid structure take the `validate_clt` tuple as
`clt` when the caller already holds it.
"""

from __future__ import annotations

import itertools

from .core import FiniteGroupoid, Record, check_wide_subgroupoid
from .monodromy import MonodromyGroupoid, enumerate_classes
from .topology import (
    FiniteTopology,
    _family_order,
    check_topological_groupoid,
    generate_from_base,
)
from .words import inv_letters


class LocalTrivialization(Record):
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


def validate_clt(G: FiniteGroupoid, LT: LocalTrivialization) -> tuple:
    """Check every law of the structure: the (kind, payload) pairs of its
    failures, in a deterministic order, empty when it is valid.

    Legs: cover members open, cover a base of the space (some member u
    with p in u inside U_p at every point p; only a cover that is not a
    base lists the opens, to name each open it fails in), section tables
    present/total/lawful (target back to the argument, source pinned at x,
    identity at x itself), and Comp for every point and pair of members
    around it.  Raises ValueError when the base space's points are not
    G's objects, naming the first point of the difference.
    """
    stray = sorted(set(LT.base_space.points) ^ set(G.objects), key=str)
    if stray:
        raise ValueError(f"base space points differ from the objects at {stray[0]!r}")
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

    cov, sections = dict(LT.cover), LT.sections
    for x, i, j in _comp_triples(LT):
        si, sj = sections.get((x, i), {}), sections.get((x, j), {})
        if not any(x in uk and uk <= cov[i] & cov[j]
                   and all(si.get(u) == sj.get(u) for u in uk) for _, uk in LT.cover):
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
    si, sj = LT.sections[(x, i)], LT.sections[(y, j)]
    compose, inverse = G.compose, G.inverse
    try:
        left = [compose[inverse[si[u]], a] for u in cov[i]]
        return frozenset([compose[c, sj[v]] for c in left for v in cov[j]])
    except KeyError:  # a gap in the table: `mul` names it
        return frozenset(G.mul(G.inverse[si[u]], a, sj[v]) for u in cov[i] for v in cov[j])


def generate_groupoid_topology(G: FiniteGroupoid, LT: LocalTrivialization,
                               clt: tuple = None):
    """(gen, problems): the `GeneratedTopology` of the basic neighborhoods,
    whose `.topology` is on the morphisms and whose `.base_compatible` says
    whether they form a true base, and the `check_topological_groupoid`
    pairs of the six structure maps, empty when all are continuous.

    Refuses to run on an invalid structure; `clt` is the `validate_clt`
    tuple of (G, LT) when the caller already has it.  Each basic
    neighborhood is built once, for every morphism and pair of members
    around its ends.  The shrinking law needs no replay: if Comp's member
    k makes s_{x,i} and s_{x,i2} agree on U_k, and l does the same for
    s_{y,j} and s_{y,j2}, then s_{x,i}|U_k^-1 . a . s_{y,j}|U_l lies in
    the neighborhoods of (i, j) and (i2, j2) alike.  Whether the
    neighborhoods form a base is what `base_compatible` decides.
    """
    _require_valid(G, LT, clt)
    nbhds = [basic_neighborhood(G, LT, a, i, j) for a in sorted(G.morphisms)
             for i in _members_at(LT, G.source[a]) for j in _members_at(LT, G.target[a])]
    gen = generate_from_base(sorted(G.morphisms), nbhds)
    return gen, check_topological_groupoid(G, gen.topology, LT.base_space)


def check_w_open(G: FiniteGroupoid, LT: LocalTrivialization, W) -> tuple:
    """Is the subgroupoid W open in the generated topology?  Always, once
    the preconditions hold, so the answer is the empty tuple of failures;
    broken preconditions (W not a wide subgroupoid, an invalid structure,
    a section leaving W) raise ValueError.

    W is open iff every a in W keeps a basic neighborhood inside W, and
    every basic neighborhood of a does: its elements s^-1 . a . s' are
    products of elements of W, the sections landing in W, and W is closed
    under inverses and composition."""
    W = frozenset(W)
    reasons = check_wide_subgroupoid(G, W)
    if reasons:
        raise ValueError(f"not a wide subgroupoid: {reasons[0]!r}")
    _require_valid(G, LT)
    _require_sections_in(LT, W, "subgroupoid")
    return ()


# ---------------------------------------------------- transport to words

class WindowTopologyReport(Record):
    depth: int
    points: int                   # distinct word classes in the window
    base_compatible: bool
    tokens_exact: bool            # False if any engine was undecided
    opens: int                    # None when the count stopped at its bound
    w_tilde_open: bool            # None unless W is closed and tokens exact
    topology: FiniteTopology      # on the window's class keys
    values: dict                  # class key -> image morphism
    capped_at: int                # levels searched in full when the class cap hit


class MonodromyCltReport(Record):
    comp_triples: int             # (x, i, j) Comp asks about, all inherited
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
    the empty word).  The report counts the triples.  Nor can i~(W) fail
    to be open when W is composition-closed: every defining triple
    (a, b, ab) is then a relator, so each transported neighborhood element
    i~(s)^-1 . i~(a) . i~(s') is i~(s^-1 a s'), which lies in i~(W).  What
    transport adds is the topology the transported neighborhoods generate
    on the window of word classes no longer than `depth`
    (`_window_topology`).  `clt` is the `validate_clt` tuple of (G, LT)
    when the caller already has it.
    """
    _require_valid(M.ambient, LT, clt)
    _require_sections_in(LT, M.carrier, "generating subset")
    return MonodromyCltReport(comp_triples=sum(1 for _ in _comp_triples(LT)),
                              window=_window_topology(LT, M, depth))


def _window_topology(LT, M, depth) -> WindowTopologyReport:
    """Generate the transported-neighborhood topology on the keys of the
    word classes of length <= depth, building no word.

    Classes come parents first, so the key of i~(s)^-1 . w, for each
    section value s at w's base, is its parent row's such key stepped by
    w's last letter, or at an empty word node 0 stepped by s's inverse.
    One more step, by s', gives the key of i~(s)^-1 . w . i~(s'), as tokens
    are homomorphic images of words (`enumerate_classes`); each (carrier
    element, sign) gets one stepper, made here.  A trace keeps the keys
    that are classes, so each class costs the same at every depth.

    i~(W) is open in the window whenever W is composition-closed and the
    tokens are exact: each class of i~(W) has a trace that contains the
    class (both sections send their centre to the identity) and lies in
    i~(W) (`clt_on_monodromy`), so i~(W) is the union of those traces.
    With inexact tokens one element may show as several classes, and
    openness is left undecided."""
    G = M.ambient
    search = enumerate_classes(M, sorted(G.objects, key=str), depth)
    index, sections = search.index, LT.sections
    stepper = {(a, sign): engine.stepper(image if sign > 0 else inv_letters(image), search.trie)
               for a, (image, engine) in search.moves.items() for sign in (1, -1)}
    left, traces = [], set()  # left: per class, {s: key of i~(s)^-1 . w}
    for (x, y, node), up, a in zip(search.keys, search.parents, search.letters):
        left.append({s: (G.target[s], x, stepper[s, -1](node))
                     for i in _members_at(LT, x) for s in sections[(x, i)].values()}
                    if up is None else  # the empty word at x
                    {s: (u, y, stepper[a, 1](n)) for s, (u, _, n) in left[up].items()})
        for i, j in itertools.product(_members_at(LT, x), _members_at(LT, y)):
            starts = [left[-1][s] for s in sections[(x, i)].values()]
            keys = ((u, v, stepper[s, 1](n)) for v, s in sections[(y, j)].items()
                    for u, _, n in starts)
            traces.add(frozenset(k for k in keys if k in index))
    gen = generate_from_base(index, traces)
    return WindowTopologyReport(depth=depth, points=len(index),
                                base_compatible=gen.base_compatible,
                                tokens_exact=search.exact,
                                opens=gen.topology.open_count,
                                w_tilde_open=True if M.closed and search.exact else None,
                                topology=gen.topology,
                                values=dict(zip(search.keys, search.values)),
                                capped_at=search.capped_at)
