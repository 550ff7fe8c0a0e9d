"""Finite topological spaces as minimal neighbourhoods.

A finite topology is determined by the smallest open set U_p around each
point p (Alexandroff 1937; Stong 1966), and `FiniteTopology` stores exactly
that: S is open iff U_p lies inside S for every p in S.  A pullback of
pairs takes (U_a x U_b) & pairs, and a base or subbase generates U_p = the
intersection of its members around p.  Continuity is one pointwise test,
f(U_p) inside V_f(p), on plain domains and on the pullbacks of a groupoid's
structure maps alike, so no certificate builds an open family, and neither
does a count: `FiniteTopology.open_count` counts the up-sets of the
specialisation preorder without listing them.  Counting them is #P-complete
in general (Provan-Ball 1983), so a count gives up, with None, once it has
memoised MAX_COUNT_STATES subproblems.  Explicit families remain at the
edges: `is_topology` and `topology` check documents that list their opens,
and `FiniteTopology.opens` enumerates them on demand for export, stopping
with `TopologySizeError` past 2**16 sets.  `is_topology` and
`check_topological_groupoid` answer as every checker in the package does,
with a tuple of (kind, witness) pairs that is empty when the family is a
topology, or when every structure map is continuous.  `is_topology` holds
at most the first failure; `check_topological_groupoid` holds one pair per
refuted map, the kind being the map's name from STRUCTURE_MAPS.
"""

from __future__ import annotations

import math
from functools import cached_property

from .core import Record

MAX_OPENS = 1 << 16
MAX_COUNT_STATES = 1 << 16  # subproblems one open count may memoise


class TopologySizeError(Exception):
    """An open family exceeded the 2**16 cap."""


def _family_order(s):
    """The order certificates and reports scan sets in: size, then names."""
    return (len(s), sorted(map(str, s)))


class FiniteTopology(Record):
    neighborhoods: dict  # point -> its minimal open set U_p

    @cached_property
    def points(self) -> tuple:
        return tuple(sorted(self.neighborhoods))

    def is_open(self, s) -> bool:
        s = frozenset(s)
        return all(p in self.neighborhoods and self.neighborhoods[p] <= s
                   for p in s)

    @cached_property
    def opens(self) -> frozenset:
        """Every open set, built class by class in order of neighbourhood
        size: a class joins a set once the rest of its neighbourhood is in,
        so each open comes out once and the count never shrinks on the way."""
        classes = {}
        for p, u in self.neighborhoods.items():
            classes.setdefault(u, set()).add(p)
        family = [frozenset()]
        for u in sorted(classes, key=len):
            below = u - classes[u]
            family += [s | u for s in family if below <= s]
            if len(family) > MAX_OPENS:
                raise TopologySizeError(
                    f"the topology on {len(self.points)} points has more than "
                    f"{MAX_OPENS} open sets, over the cap")
        return frozenset(family)

    @cached_property
    def open_count(self):
        """The number of open sets, or None when counting stops at
        MAX_COUNT_STATES memoised subproblems.  Points with one U_p form a
        class, and an open set is a set of classes holding, with each class,
        the classes inside its U_p.  Classes no other class touches count 2
        each; the components of the comparability graph count apart and
        multiply, over bit masks of their own (masks over all the classes
        would take n**2 bits for n lone classes)."""
        index = {}
        for p in self.points:
            index.setdefault(self.neighborhoods[p], len(index))
        inside = [{index[self.neighborhoods[q]] for q in u} for u in index]
        near = [set(below) for below in inside]
        for c, below in enumerate(inside):
            for d in below:
                near[d].add(c)
        count, budget, seen = 1, MAX_COUNT_STATES, set()
        for start in range(len(inside)):
            if start in seen:
                continue
            comp, todo = [], [start]
            seen.add(start)
            while todo:
                c = todo.pop()
                comp.append(c)
                todo += near[c] - seen
                seen |= near[c]
            if len(comp) == 1:
                count *= 2
                continue
            local = {c: i for i, c in enumerate(sorted(comp))}
            down, up = [0] * len(comp), [0] * len(comp)
            for c, i in local.items():
                for d in inside[c]:
                    down[i] |= 1 << local[d]
                    up[local[d]] |= 1 << i
            n, used = _count_down_sets(down, up, budget)
            if n is None:
                return None
            count, budget = count * n, budget - used
        return count


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _count_down_sets(down, up, budget):
    """(number of index sets S with down[i] inside S for every i in S,
    subproblems memoised), or (None, budget) once `budget` are.

    down[i] and up[i] are bit masks holding i and the indices below and
    above it.  One index is decided at a time, from an explicit stack rather
    than by recursion, and each undecided rest is memoised: putting i in
    removes down[i] from the rest, leaving it out removes up[i].  A rest
    first splits into the components of its comparability graph, whose
    counts multiply (a lone index counts 2); a connected rest branches as
    `_plan` says."""
    near = [d | u for d, u in zip(down, up)]
    full = (1 << len(down)) - 1
    memo, plans, stack = {0: 1}, {}, [full]
    while stack:
        rest = stack[-1]
        if rest in memo:
            stack.pop()
            continue
        if rest not in plans:
            plans[rest] = _plan(rest, down, up, near)
        singles, parts = plans[rest]
        todo = [s for s in parts if s not in memo]
        if todo:
            stack += todo
            continue
        if len(memo) > budget:
            return None, budget
        counts = [memo[s] for s in parts]
        memo[rest] = (counts[0] + counts[1] if singles is None
                      else math.prod(counts) << singles)
        del plans[rest]
        stack.pop()
    return memo[full], len(memo) - 1


def _plan(rest, down, up, near):
    """(lone indices, components) of a rest that splits, or (None, the two
    branches) of a connected one.  The pivot comes from the middle layer of
    a breadth-first search, so a path of comparable pairs splits in half,
    and within it has the largest smaller side, so a chain halves too."""
    singles, parts, left = 0, [], rest
    while left:
        layers = [left & -left]
        comp = layers[0]
        while layers[-1]:
            reach = 0
            for i in _bits(layers[-1]):
                reach |= near[i]
            layers.append(reach & left & ~comp)
            comp |= layers[-1]
        left &= ~comp
        if comp & (comp - 1):
            parts.append(comp)
        else:
            singles += 1
    if singles or len(parts) > 1:
        return singles, parts
    pivot = max(_bits(layers[(len(layers) - 1) // 2]), key=lambda i: (
        min((down[i] & rest).bit_count(), (up[i] & rest).bit_count()),
        (near[i] & rest).bit_count(), -i))
    return None, [rest & ~down[pivot], rest & ~up[pivot]]


def _meets(points, family) -> dict:
    """point -> the intersection of the family members containing it."""
    full = frozenset(points)
    meet = dict.fromkeys(points, full)
    for s in family:
        for p in s:
            meet[p] &= s
    return meet


def is_topology(points, family) -> tuple:
    """Decide the closure axioms: () or ((kind, witness),), the kind one of
    missing-empty, uncovered-point, missing-intersection and missing-union,
    and the witness a pair of family members or the offending point.

    Linear in |family| * |points|: it is enough that the empty set is
    present, every point has a smallest neighborhood inside the family, and
    the family is closed under union with smallest neighborhoods.  Closure
    under all unions and intersections follows, since every open is the
    union of the smallest neighborhoods of its points.
    """
    points = frozenset(points)
    fam = set()
    for s in family:
        s = frozenset(s)
        if not s <= points:
            raise ValueError(f"family member not a subset of the points: {sorted(s - points)[0]!r}")
        fam.add(s)

    if len(fam) == 1 << len(points):  # the whole powerset, nothing to check
        return ()
    if frozenset() not in fam:
        return (("missing-empty", (frozenset(),)),)

    mins = {}
    for p in sorted(points):
        around = sorted((o for o in fam if p in o), key=_family_order)
        if not around:
            return (("uncovered-point", (p,)),)
        acc = around[0]
        for o in around[1:]:
            nxt = acc & o
            if nxt not in fam:
                # fold step leaves the family: acc and o are a bad pair
                return (("missing-intersection", (acc, o)),)
            acc = nxt
        mins[p] = acc  # every fold step stayed inside, so this is in fam

    for a in sorted(fam, key=_family_order):
        for p in sorted(points):
            if a | mins[p] not in fam:
                return (("missing-union", (a, mins[p])),)
    return ()


def topology(points, opens, problems=None) -> FiniteTopology:
    """Validated constructor from an explicit family of open sets.  A caller
    that already holds the `is_topology` problems of this family passes them
    as `problems`, and the family is not checked again."""
    opens = frozenset(frozenset(o) for o in opens)
    if len(opens) > MAX_OPENS:
        raise TopologySizeError(f"{len(opens)} open sets exceeds the cap of {MAX_OPENS}")
    if problems is None:
        problems = is_topology(points, opens)
    if problems:
        kind, witness = problems[0]
        raise ValueError(f"not a topology ({kind}): witness {witness!r}")
    return FiniteTopology(_meets(points, opens))


def discrete(points) -> FiniteTopology:
    return FiniteTopology({p: frozenset([p]) for p in points})


def indiscrete(points) -> FiniteTopology:
    pts = frozenset(points)
    return FiniteTopology(dict.fromkeys(pts, pts))


class GeneratedTopology(Record):
    topology: FiniteTopology
    base_compatible: bool  # False: the family is only a subbase


def generate_from_base(points, base) -> GeneratedTopology:
    """The topology a base generates, U_p being the intersection of the
    members around p.  The same holds for a subbase, so a family that is not
    intersection-compatible still generates; `base_compatible` records
    whether every U_p is itself a member, which for a finite family is the
    same as every pairwise intersection being a union of members."""
    points = frozenset(points)
    base = {frozenset(b) for b in base}
    for b in base:
        if not b <= points:
            raise ValueError(f"base member not a subset of the points: {sorted(b)!r}")
    covered = frozenset().union(*base)
    if covered != points:
        raise ValueError(f"base fails to cover: {sorted(points - covered)[0]!r} missing")
    meets = _meets(points, base)
    return GeneratedTopology(topology=FiniteTopology(meets),
                             base_compatible=all(u in base for u in meets.values()))


def difference_pairs(G) -> tuple:
    """Pairs with a common source: the domain of (a, b) -> a^-1 b."""
    star = {}
    for m in G.morphisms:
        star.setdefault(G.source[m], []).append(m)
    return tuple(sorted((a, b) for ms in star.values() for a in ms for b in ms))


# ------------------------------------------------------------- continuity

# the structure maps `check_topological_groupoid` certifies, in report order
STRUCTURE_MAPS = ("source", "target", "identity", "inversion", "composition",
                  "difference")


def _first_bad(images, around):
    """The first codomain open in `_family_order` whose preimage is not open,
    or None.  `images` maps each class of domain points sharing a minimal
    neighbourhood to that neighbourhood's image, and `around` maps it to the
    neighbourhoods V_f(p) of its points' values.  Any bad open O holds some
    f(p) with f(U_p) not inside V_f(p); that V_f(p) is bad too and sorts no
    later than O."""
    return min((v for k, image in images.items() for v in around[k] if not image <= v),
               key=_family_order, default=None)


def continuity(dom: FiniteTopology, cod: FiniteTopology, fn):
    """None when f is continuous, which it is iff f(U_p) lies inside V_f(p)
    at every point p; else (the first bad open, its preimage)."""
    cod_nb, around = cod.neighborhoods, {}
    for p, u in dom.neighborhoods.items():
        around.setdefault(u, set()).add(cod_nb[fn(p)])
    o = _first_bad({u: {fn(q) for q in u} for u in around}, around)
    return None if o is None else (o, frozenset(p for p in dom.points if fn(p) in o))


def pullback_continuity(pairs, factor: FiniteTopology, cod: FiniteTopology, fn):
    """Continuity out of the subspace of factor x factor on `pairs`, whose
    minimal neighbourhoods are (U_a x U_b) & pairs: None when continuous,
    else (the first bad open, a pair (a, b) mapped into it with the first
    pair of its neighbourhood that is not).

    Pairs sharing (U_a, U_b) share a neighbourhood, whose image is read off
    a row per a of its partners b and their values, in the one pass
    `continuity` makes.  Only a map refuted there enumerates the pairs of a
    neighbourhood, from the same rows, to name its pair."""
    nb, cod_nb, rows, around = factor.neighborhoods, cod.neighborhoods, {}, {}
    for a, b in pairs:  # `pairs` may be an iterator, read once
        v = fn(a, b)
        rows.setdefault(a, {})[b] = v
        around.setdefault((nb[a], nb[b]), set()).add(cod_nb[v])
    o = _first_bad({(ua, ub): {v for a in ua if a in rows for b, v in rows[a].items() if b in ub}
                    for ua, ub in around}, around)
    if o is None:
        return None
    inside = {(a, b) for a, row in rows.items() for b, v in row.items() if v in o}
    return o, next((ab, q) for ab in sorted(inside)
                   for q in sorted((a, b) for a in nb[ab[0]] if a in rows
                                   for b in rows[a] if b in nb[ab[1]])
                   if q not in inside)


def check_topological_groupoid(G, T_G: FiniteTopology, T_X: FiniteTopology) -> tuple:
    """Certify or refute every structure map of (G, T_G, T_X): one
    (map name, witness) pair per map that is not continuous, in the order
    of STRUCTURE_MAPS, so the tuple is empty when all six are.  A witness
    is what `continuity` or `pullback_continuity` returns.

    Composition is checked on the target-source pullback and the difference
    map (a, b) -> a^-1 b independently on the source-source pullback, so
    both sides of "composition and inversion continuous iff the difference
    map is" are decided apart; the CLI reports whether this instance agrees.
    The composable pairs are the keys of `G.compose`, which they are
    exactly once `validate_structure` passes on G.
    """
    if set(T_G.points) != set(G.morphisms):
        raise ValueError("morphism topology points differ from the morphisms")
    if set(T_X.points) != set(G.objects):
        raise ValueError("object topology points differ from the objects")

    witnesses = (
        continuity(T_G, T_X, lambda m: G.source[m]),
        continuity(T_G, T_X, lambda m: G.target[m]),
        continuity(T_X, T_G, lambda x: G.identity[x]),
        continuity(T_G, T_G, lambda m: G.inverse[m]),
        pullback_continuity(G.compose.keys(), T_G, T_G,
                            lambda a, b: G.compose[(a, b)]),
        pullback_continuity(difference_pairs(G), T_G, T_G,
                            lambda a, b: G.compose[(G.inverse[a], b)]),
    )
    return tuple((name, w) for name, w in zip(STRUCTURE_MAPS, witnesses)
                 if w is not None)
