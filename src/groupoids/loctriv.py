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
open subset.  The same data transports along the one-letter embedding into a
monodromy groupoid, where word equality (and hence every check) is answered
by the per-component engines — possibly as "undecided" when a budget runs
out, which the reports here surface rather than hide.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .core import FiniteGroupoid, WideSubgroupoid, check_wide_subgroupoid
from .monodromy import MonodromyGroupoid, PregroupoidSubset, canonical_morphism
from .topology import (
    FiniteTopology,
    TopologicalGroupoidReport,
    check_topological_groupoid,
    generate_from_base,
)
from .words import Word, concat, free_reduce, invert_word, word_target


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


@dataclass(frozen=True)
class CltReport:
    problems: tuple  # (kind, payload) pairs, deterministic order

    @property
    def ok(self):
        return not self.problems

    def of_kind(self, kind):
        return [p for p in self.problems if p[0] == kind]


def comp_witness(LT: LocalTrivialization, x, i, j):
    """The cover index Comp provides for sections s_{x,i}, s_{x,j}: smallest
    index (then smallest serialized member) whose member contains x, sits in
    the intersection, and on which both section tables agree.  None if Comp
    fails for this triple."""
    cov = dict(LT.cover)
    si = LT.sections.get((x, i), {})
    sj = LT.sections.get((x, j), {})
    best = None
    for k, uk in LT.cover:
        if x not in uk or not uk <= (cov[i] & cov[j]):
            continue
        if any(si.get(u) != sj.get(u) for u in uk):
            continue
        key = (_index_key(k), sorted(map(str, uk)))
        if best is None or key < best[0]:
            best = (key, k)
    return None if best is None else best[1]


def validate_clt(G: FiniteGroupoid, LT: LocalTrivialization) -> CltReport:
    """Check every law of the structure; failures are report content.

    Legs: cover members open, cover a base of the space, section tables
    present/total/lawful (target back to the argument, source pinned at x,
    identity at x itself), and Comp for every point and pair of members
    around it.
    """
    problems = []
    cov = dict(LT.cover)

    for i, u in LT.cover:
        if not LT.base_space.is_open(u):
            problems.append(("cover-not-open", i))
    for o in sorted(LT.base_space.opens, key=lambda s: (len(s), sorted(map(str, s)))):
        for p in sorted(o, key=str):
            if not any(p in u and u <= o for _, u in LT.cover):
                problems.append(("not-a-base", (o, p)))
                break

    expected = {(x, i) for i, u in LT.cover for x in u}
    for key in sorted(expected - set(LT.sections), key=str):
        problems.append(("section-missing", key))
    for key in sorted(set(LT.sections) - expected, key=str):
        problems.append(("section-unexpected", key))

    for x, i in sorted(expected & set(LT.sections), key=str):
        tab = LT.sections[(x, i)]
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

    for x in sorted(LT.base_space.points, key=str):
        around = sorted(_members_at(LT, x), key=_index_key)
        for i, j in itertools.combinations(around, 2):
            if comp_witness(LT, x, i, j) is None:
                problems.append(("comp", (x, i, j)))
    return CltReport(problems=tuple(problems))


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
    return frozenset(G.mul(G.inverse[si[u]], a, sj[v])
                     for u in cov[i] for v in cov[j])


@dataclass(frozen=True)
class GenerationReport:
    clt: CltReport
    base_compatible: bool         # did the neighborhoods form a true base
    refinement_failures: tuple    # (a, (i,j), (i2,j2), k, l) where shrinking failed
    groupoid: TopologicalGroupoidReport

    @property
    def ok(self):
        return (self.clt.ok and self.base_compatible
                and not self.refinement_failures and self.groupoid.ok)


def generate_groupoid_topology(G: FiniteGroupoid, LT: LocalTrivialization):
    """(topology on the morphisms, report).

    Refuses to run on an invalid structure.  Collects every basic
    neighborhood, replays the shrinking argument (the Comp witnesses around
    both endpoints give a third neighborhood inside any two with the same
    center), generates the topology, and certifies all six structure maps
    against it and the base space.
    """
    rep = validate_clt(G, LT)
    if not rep.ok:
        raise ValueError(f"local trivialization invalid: {rep.problems[0]!r}")

    nbhds = set()
    pairs_of = {}
    for a in sorted(G.morphisms):
        at = [(i, j) for i in _members_at(LT, G.source[a])
              for j in _members_at(LT, G.target[a])]
        pairs_of[a] = sorted(at, key=lambda ij: (_index_key(ij[0]), _index_key(ij[1])))
        for i, j in pairs_of[a]:
            nbhds.add(basic_neighborhood(G, LT, a, i, j))

    failures = []
    for a in sorted(G.morphisms):
        x, y = G.source[a], G.target[a]
        for (i, j), (i2, j2) in itertools.combinations(pairs_of[a], 2):
            k = comp_witness(LT, x, i, i2)
            l = comp_witness(LT, y, j, j2)
            inner = basic_neighborhood(G, LT, a, k, l)
            outer = (basic_neighborhood(G, LT, a, i, j)
                     & basic_neighborhood(G, LT, a, i2, j2))
            if not inner <= outer:
                failures.append((a, (i, j), (i2, j2), k, l))

    gen = generate_from_base(sorted(G.morphisms), nbhds)
    greport = check_topological_groupoid(G, gen.topology, LT.base_space)
    return gen.topology, GenerationReport(
        clt=rep, base_compatible=gen.base_compatible,
        refinement_failures=tuple(failures), groupoid=greport)


@dataclass(frozen=True)
class WOpenReport:
    is_open: bool
    witnesses: dict = field(default_factory=dict)  # a -> (i, j) with N(a,i,j) inside
    failures: tuple = ()


def check_w_open(G: FiniteGroupoid, LT: LocalTrivialization, W) -> WOpenReport:
    """Is the subgroupoid W open in the generated topology?  Equivalent, and
    checked literally: every element of W keeps some basic neighborhood
    inside W.  With the stated preconditions (W composition-closed, sections
    landing in W) a failure is impossible, so a False verdict means an
    upstream hypothesis was broken."""
    if isinstance(W, WideSubgroupoid):
        W = W.carrier
    W = frozenset(W)
    reasons = check_wide_subgroupoid(G, W)
    if reasons:
        raise ValueError(f"not a wide subgroupoid: {reasons[0]!r}")
    rep = validate_clt(G, LT)
    if not rep.ok:
        raise ValueError(f"local trivialization invalid: {rep.problems[0]!r}")
    for key in sorted(LT.sections, key=str):
        for u in sorted(LT.sections[key], key=str):
            if LT.sections[key][u] not in W:
                raise ValueError(
                    f"section {key!r} leaves the subgroupoid at {u!r}")

    witnesses, failures = {}, []
    for a in sorted(W):
        found = None
        for i in _members_at(LT, G.source[a]):
            for j in _members_at(LT, G.target[a]):
                if basic_neighborhood(G, LT, a, i, j) <= W:
                    found = (i, j)
                    break
            if found:
                break
        if found:
            witnesses[a] = found
        else:
            failures.append(a)
    return WOpenReport(is_open=not failures, witnesses=witnesses,
                       failures=tuple(failures))


# ---------------------------------------------------- transport to words

@dataclass(frozen=True)
class WindowTopologyReport:
    depth: int
    points: int                   # distinct word classes in the window
    base_compatible: bool
    tokens_exact: bool            # False if any engine was undecided
    opens: int
    w_tilde_open: bool = None     # None when the openness leg was skipped
    topology: FiniteTopology = None     # on the window's class tokens
    values: dict = field(default_factory=dict)  # token -> image morphism


@dataclass(frozen=True)
class MonodromyCltReport:
    sections: dict                # transported tables: (x, i) -> {u: Word}
    problems: tuple               # section-law failures at the word level
    comp_satisfied: tuple         # (x, i, j, k) with a working witness
    comp_undecided: tuple         # (x, i, j) the engines could not settle
    comp_failed: tuple            # (x, i, j) refuted
    subset_closed: bool           # was the generating subset composition-closed
    w_tilde_failures: tuple       # elements with no neighborhood inside i~(W)
    w_tilde_undecided: tuple
    w_tilde_witnesses: dict       # a -> (i, j)
    window: WindowTopologyReport

    @property
    def ok(self):
        return (not self.problems and not self.comp_failed
                and not self.comp_undecided and not self.w_tilde_failures
                and not self.w_tilde_undecided)


def clt_on_monodromy(G: FiniteGroupoid, LT: LocalTrivialization,
                     W: PregroupoidSubset, M: MonodromyGroupoid,
                     depth=6) -> MonodromyCltReport:
    """Transport a local trivialization along the one-letter embedding.

    Sections must land in the generating subset (hard error otherwise);
    transported tables send u to the one-letter word at s(u).  Laws and Comp
    are then re-checked inside the presented groupoid, where equality is
    engine-backed and may come back undecided.  When the subset is
    composition-closed, the openness of its image is checked two ways:
    elementwise (some transported neighborhood of each i~(a) stays inside
    i~(W)) and against the topology generated from transported neighborhoods
    on the finite window of word classes no longer than `depth`.
    """
    rep = validate_clt(G, LT)
    if not rep.ok:
        raise ValueError(f"local trivialization invalid: {rep.problems[0]!r}")
    if M.subset.carrier != W.carrier:
        raise ValueError("the monodromy groupoid was built over a different subset")
    for key in sorted(LT.sections, key=str):
        for u in sorted(LT.sections[key], key=str):
            if LT.sections[key][u] not in W.carrier:
                raise ValueError(
                    f"section {key!r} leaves the generating subset at {u!r}")

    trans = {key: {u: M.i_tilde(tab[u]) for u in tab}
             for key, tab in LT.sections.items()}

    problems = []
    for (x, i) in sorted(trans, key=str):
        for u in sorted(trans[(x, i)], key=str):
            w = trans[(x, i)][u]
            if w.base != x:
                problems.append(("section-source", (x, i, u)))
            if word_target(M.graph, w) != u:
                problems.append(("section-target", (x, i, u)))
        if trans[(x, i)][x].letters != ():
            problems.append(("section-identity", (x, i)))

    cov = dict(LT.cover)
    comp_sat, comp_und, comp_bad = [], [], []
    for x in sorted(LT.base_space.points, key=str):
        around = sorted(_members_at(LT, x), key=_index_key)
        for i, j in itertools.combinations(around, 2):
            si, sj = trans[(x, i)], trans[(x, j)]
            saw_undecided = False
            hit = None
            for k, uk in sorted(LT.cover, key=lambda kv: (_index_key(kv[0]),
                                                          sorted(map(str, kv[1])))):
                if x not in uk or not uk <= (cov[i] & cov[j]):
                    continue
                votes = [M.equal(si[u], sj[u]) for u in sorted(uk, key=str)]
                if all(v is True for v in votes):
                    hit = k
                    break
                if None in votes and False not in votes:
                    saw_undecided = True
            if hit is not None:
                comp_sat.append((x, i, j, hit))
            elif saw_undecided:
                comp_und.append((x, i, j))
            else:
                comp_bad.append((x, i, j))

    carrier = W.carrier
    closed = all(G.compose[(a, b)] in carrier
                 for a in carrier for b in carrier
                 if G.target[a] == G.source[b])
    p = canonical_morphism(M)

    def in_w_tilde(w):
        b = p.evaluate(w)
        if b not in carrier:
            return False
        return M.equal(w, M.i_tilde(b))

    def transported_neighborhood(w, i, j):
        x, y = w.base, word_target(M.graph, w)
        return [concat(M.graph, concat(M.graph, invert_word(M.graph, trans[(x, i)][u]), w),
                       trans[(y, j)][v])
                for u in sorted(cov[i], key=str) for v in sorted(cov[j], key=str)]

    w_fail, w_und, w_wit = [], [], {}
    if closed:
        for a in sorted(carrier):
            wa = M.i_tilde(a)
            found, saw_und = None, False
            for i in _members_at(LT, wa.base):
                for j in _members_at(LT, word_target(M.graph, wa)):
                    votes = [in_w_tilde(w) for w in transported_neighborhood(wa, i, j)]
                    if all(v is True for v in votes):
                        found = (i, j)
                        break
                    if None in votes and False not in votes:
                        saw_und = True
                if found:
                    break
            if found:
                w_wit[a] = found
            elif saw_und:
                w_und.append(a)
            else:
                w_fail.append(a)

    window = _window_topology(G, LT, W, M, trans, depth, closed=closed, p=p,
                              transported_neighborhood=transported_neighborhood)

    return MonodromyCltReport(
        sections=trans, problems=tuple(problems),
        comp_satisfied=tuple(comp_sat), comp_undecided=tuple(comp_und),
        comp_failed=tuple(comp_bad), subset_closed=closed,
        w_tilde_failures=tuple(w_fail), w_tilde_undecided=tuple(w_und),
        w_tilde_witnesses=w_wit, window=window)


def _window_topology(G, LT, W, M, trans, depth, closed, p,
                     transported_neighborhood) -> WindowTopologyReport:
    """Generate the transported-neighborhood topology on the word classes of
    length <= depth and test openness of i~(W) inside it."""
    gens = [a for a in sorted(W.carrier) if not G.is_identity(a)]
    reps = {}
    exact_all = True
    frontier = []
    for x in sorted(G.objects, key=str):
        w = Word((), x)
        t, exact = M.token(w)
        exact_all &= exact
        reps.setdefault(t, w)
        frontier.append(w)
    for _ in range(depth):
        fresh = []
        for w in frontier:
            at = word_target(M.graph, w)
            for a in gens:
                if G.source[a] != at:
                    continue
                w2 = Word(free_reduce(w.letters + ((a, 1),)), w.base)
                t2, exact = M.token(w2)
                exact_all &= exact
                if t2 not in reps:
                    reps[t2] = w2
                    fresh.append(w2)
        frontier = fresh

    traces = set()
    for t in sorted(reps, key=str):
        w = reps[t]
        for i in _members_at(LT, w.base):
            for j in _members_at(LT, word_target(M.graph, w)):
                trace = frozenset(M.token(v)[0]
                                  for v in transported_neighborhood(w, i, j))
                traces.add(trace & set(reps))
    gen = generate_from_base(sorted(reps, key=str), traces)

    w_open = None
    if closed:
        image = frozenset(M.token(M.i_tilde(b))[0] for b in sorted(W.carrier))
        w_open = gen.topology.is_open(image & set(reps))
    return WindowTopologyReport(depth=depth, points=len(reps),
                                base_compatible=gen.base_compatible,
                                tokens_exact=exact_all,
                                opens=len(gen.topology.opens),
                                w_tilde_open=w_open,
                                topology=gen.topology,
                                values={t: p.evaluate(reps[t]) for t in reps})
