"""Finite groupoids as explicit lookup tables.

A groupoid here is plain data: objects, morphisms with source/target, one
identity morphism per object, a total inversion map, and a partial
composition table defined exactly on the pairs (a, b) with tgt(a) == src(b).
Composition is written in diagram order: a: x -> y composed with b: y -> z
gives ab: x -> z.

Nothing is validated on construction.  ``validate_groupoid`` checks every
axiom exhaustively and returns violations as data, each with a witness that
can be replayed against the table, so a corrupt candidate is something you
can inspect rather than an exception.  Every checker in the package answers
the same way: a tuple of (kind, payload) pairs, empty when the check passes.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping


class Record:
    """Base of the package's records: a subclass lists its fields as
    annotations, a class-attribute value giving a field its default.

    The one `__init__` takes fields by position or keyword, and raises
    TypeError as a written-out signature would.  Records compare and hash
    field by field, only within one class, and print as
    ``Name(field=value, ...)``.  Setting or deleting an attribute raises
    AttributeError; `cached_property` still works, because it writes
    `__dict__` directly.  The methods are written once, here, so importing
    the package generates and compiles none of them."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._names = frozenset(cls._fields)

    def __init__(self, *args, **kwargs):
        d, fields, cls = self.__dict__, self._fields, self.__class__
        d.update(zip(fields, args), **kwargs)
        if len(args) + len(kwargs) == len(d) == len(fields) and kwargs.keys() <= self._names:
            return
        name = cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        for k in kwargs:
            if k not in self._names:
                raise TypeError(f"{name}() got an unexpected keyword argument {k!r}")
            if fields.index(k) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {k!r}")
        for f in fields:
            if f not in d:
                if f not in cls.__dict__:
                    raise TypeError(f"{name}() missing required argument {f!r}")
                d[f] = cls.__dict__[f]

    def _values(self):
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        d = self.__dict__
        fields = ", ".join(f"{f}={d[f]!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteGroupoid(Record):
    """Lookup tables; `compose` is a dict, or for `pair_groupoid` a mapping
    that computes its entries.  Treated as immutable after construction."""

    objects: frozenset
    source: dict
    target: dict
    identity: dict       # object -> morphism id
    inverse: dict        # morphism id -> morphism id
    compose: dict        # (a, b) -> ab, for tgt(a) == src(b)

    @property
    def morphisms(self):
        return self.source.keys()

    def star(self, x):
        """All morphisms with source x, sorted."""
        if x not in self.objects:
            raise ValueError(f"unknown object: {x!r}")
        return [m for m in sorted(self.source) if self.source[m] == x]

    def costar(self, x):
        """All morphisms with target x, sorted."""
        if x not in self.objects:
            raise ValueError(f"unknown object: {x!r}")
        return [m for m in sorted(self.target) if self.target[m] == x]

    def hom(self, x, y):
        return [m for m in self.star(x) if self.target[m] == y]

    def is_identity(self, m):
        return self.identity.get(self.source[m]) == m

    def mul(self, *ms):
        """Compose a chain of morphisms, left to right.  Raises on a gap."""
        if not ms:
            raise ValueError("empty product")
        acc = ms[0]
        for m in ms[1:]:
            key = (acc, m)
            if key not in self.compose:
                raise ValueError(f"not composable: {acc!r} then {m!r}")
            acc = self.compose[key]
        return acc


class GroupoidMorphism(Record):
    """A functor between finite groupoids, stored as explicit maps."""

    obj_map: dict
    mor_map: dict


_REFERENCE_KINDS = ("dangling-reference", "identity-missing", "inverse-missing")


def _by_source(G: FiniteGroupoid) -> dict:
    by_src = {}
    for m in sorted(G.source):
        by_src.setdefault(G.source[m], []).append(m)
    return by_src


def validate_structure(G: FiniteGroupoid) -> tuple:
    """The linear part of `validate_groupoid`, which every table lookup
    relies on: reference integrity, identity and inverse endpoints, and
    composition totality, domain and endpoints, in the same order.  The
    tables are scanned again in sorted order only when something is wrong."""
    if not _linear_scan(G, iter):
        return ()
    return tuple(_linear_scan(G, sorted))


def _linear_scan(G: FiniteGroupoid, order) -> list:
    out = []
    objects = G.objects
    morphs = set(G.source)

    # reference integrity
    for m in order(morphs):
        if G.source[m] not in objects:
            out.append(("dangling-reference", ("src", m, G.source[m])))
        if m not in G.target:
            out.append(("dangling-reference", ("target-missing", m)))
        elif G.target[m] not in objects:
            out.append(("dangling-reference", ("tgt", m, G.target[m])))
    for m in order(set(G.target) - morphs):
        out.append(("dangling-reference", ("target-extra", m)))
    for x in order(objects):
        if x not in G.identity:
            out.append(("identity-missing", (x,)))
        elif G.identity[x] not in morphs:
            out.append(("dangling-reference", ("identity", x, G.identity[x])))
    for m in order(morphs):
        if m not in G.inverse:
            out.append(("inverse-missing", (m,)))
        elif G.inverse[m] not in morphs:
            out.append(("dangling-reference", ("inverse", m, G.inverse[m])))
    for (a, b), c in order(G.compose.items()):
        for m in (a, b, c):
            if m not in morphs:
                out.append(("dangling-reference", ("compose", a, b, m)))
    if out:
        return out  # too broken for the table scans below to mean anything

    src, tgt, comp = G.source, G.target, G.compose
    for x in order(objects):
        e = G.identity[x]
        if src[e] != x or tgt[e] != x:
            out.append(("identity-endpoint", (x, e)))

    by_src = _by_source(G)
    for a in order(morphs):
        for b in by_src.get(tgt[a], ()):
            if (a, b) not in comp:
                out.append(("compose-missing", (a, b)))
    for (a, b), c in order(comp.items()):
        if tgt[a] != src[b]:
            out.append(("compose-domain", (a, b)))
        elif src[c] != src[a] or tgt[c] != tgt[b]:
            out.append(("compose-endpoint", (a, b, c)))

    for a in order(morphs):
        ai = G.inverse[a]
        if src[ai] != tgt[a] or tgt[ai] != src[a]:
            out.append(("inverse-endpoint", (a, ai)))
    return out


def validate_groupoid(G: FiniteGroupoid) -> tuple:
    """Exhaustively check the groupoid axioms on a candidate table.

    Violations carry replayable witnesses.  Checks are guarded so that one
    corrupt entry is reported once at its root cause: a composition entry
    with bad endpoints is excluded from the associativity and inverse-law
    scans instead of cascading into derived failures.
    """
    found = validate_structure(G)
    if found and found[0][0] in _REFERENCE_KINDS:
        return found
    bad_inverse = {w[0]: (k, w) for k, w in found if k == "inverse-endpoint"}
    out = [(k, w) for k, w in found if k != "inverse-endpoint"]
    bad_identity_obj = {w[0] for k, w in out if k == "identity-endpoint"}
    poisoned = {w[:2] for k, w in out if k.startswith("compose-")}
    src, tgt, comp = G.source, G.target, G.compose
    morphs, by_src = set(G.source), _by_source(G)

    def product(a, b):
        if (a, b) in poisoned:
            return None
        return comp.get((a, b))

    # identity laws
    for m in sorted(morphs):
        x, y = src[m], tgt[m]
        if x not in bad_identity_obj:
            lm = product(G.identity[x], m)
            if lm is not None and lm != m:
                out.append(("left-identity", (m,)))
        if y not in bad_identity_obj:
            mr = product(m, G.identity[y])
            if mr is not None and mr != m:
                out.append(("right-identity", (m,)))

    # inverse endpoints and laws
    for a in sorted(morphs):
        if a in bad_inverse:
            out.append(bad_inverse[a])
            continue
        ai = G.inverse[a]
        left = product(a, ai)
        if left is not None and src[a] not in bad_identity_obj and left != G.identity[src[a]]:
            out.append(("inverse-law", (a, "left")))
        right = product(ai, a)
        if right is not None and tgt[a] not in bad_identity_obj and right != G.identity[tgt[a]]:
            out.append(("inverse-law", (a, "right")))

    # associativity on every composable triple with intact intermediates
    for a in sorted(morphs):
        for b in by_src.get(tgt[a], ()):
            ab = product(a, b)
            if ab is None:
                continue
            for c in by_src.get(tgt[b], ()):
                bc = product(b, c)
                if bc is None:
                    continue
                lhs = product(ab, c)
                rhs = product(a, bc)
                if lhs is not None and rhs is not None and lhs != rhs:
                    out.append(("associativity", (a, b, c)))

    return tuple(out)


class _PairCompose(Mapping):
    """The composition table of a pair groupoid, computed on lookup from
    the groupoid's source and target tables and its N x N name table:
    (x,y)·(y,z) = (x,z)."""

    def __init__(self, pts, names, source, target):
        self._index = {x: i for i, x in enumerate(pts)}
        self._names = names
        self.source, self.target = source, target

    def __getitem__(self, key):
        try:
            a, b = key
            x, y, y2, z = self.source[a], self.target[a], self.source[b], self.target[b]
        except (KeyError, TypeError, ValueError):  # not a pair of morphisms
            raise KeyError(key) from None
        if y != y2:
            raise KeyError(key)
        return self._names[self._index[x]][self._index[z]]

    def __len__(self):
        return len(self._names) ** 3

    def __iter__(self):
        names = self._names
        for row in names:
            for xy, from_y in zip(row, names):
                yield from zip(itertools.repeat(xy), from_y)


def pair_groupoid(points) -> FiniteGroupoid:
    """The groupoid with exactly one morphism "(x,y)" between any two points.

    Each name is built once, in an N x N table for N points, and that one
    string is the key or value wherever the morphism appears in `source`,
    `target`, `identity` and `inverse`.  `compose` is a read-only mapping
    that computes (x,y)·(y,z) = (x,z) on lookup and raises `KeyError` on
    any other key, so no N**3 table is built.  It still has N**3 entries:
    iterating it, like the morphism tables, yields them in the order of
    `itertools.product` over the sorted points (pairs for the morphism
    tables, triples for `compose`).  Points whose pairs would share a name,
    such as "a", "b,c" and "a,b", "c", are a `ValueError`.
    """
    pts = sorted(points)
    if not pts:
        raise ValueError("pair groupoid needs at least one point")
    if len(set(pts)) != len(pts):
        raise ValueError("duplicate points")
    n = len(pts)
    names = [[f"({x},{y})" for y in pts] for x in pts]
    flat = list(itertools.chain.from_iterable(names))
    source = dict(zip(flat, itertools.chain.from_iterable(itertools.repeat(x, n) for x in pts)))
    if len(source) != n * n:  # names with commas can spell one pair two ways
        first = {}
        for pair, name in zip(itertools.product(pts, pts), flat):
            if name in first:
                raise ValueError(f"pairs {first[name]!r} and {pair!r} "
                                 f"are both named {name!r}")
            first[name] = pair
    target = dict(zip(flat, itertools.chain.from_iterable(itertools.repeat(pts, n))))
    inverse = dict(zip(flat, itertools.chain.from_iterable(zip(*names))))
    identity = {x: names[i][i] for i, x in enumerate(pts)}
    return FiniteGroupoid(
        objects=frozenset(pts), source=source, target=target, identity=identity,
        inverse=inverse, compose=_PairCompose(pts, names, source, target),
    )


def components(G: FiniteGroupoid):
    """Connected components of the object set, as sorted lists, joined by
    the morphisms in either direction."""
    adj = {x: set() for x in G.objects}
    for m in G.morphisms:
        adj[G.source[m]].add(G.target[m])
        adj[G.target[m]].add(G.source[m])
    seen, comps = set(), []
    for x in sorted(G.objects):
        if x in seen:
            continue
        comp, queue = [], [x]
        seen.add(x)
        while queue:
            v = queue.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def _closure(G: FiniteGroupoid, members, step=None) -> set:
    """The least superset of `members` closed under inversion, composition
    and, when given, `step` (a function from one member to more members).

    Each round pairs only the members the last round added with the
    closure, indexed by source and target: a new member d as (d, c) with
    every member c, and as (c, d) with members of earlier rounds only, so
    each composable pair is looked up once.  Entries missing from `compose`
    are skipped.  Only pairs with tgt(a) == src(b) are looked up, and every
    member must have a source and a target; `validate_structure` rejects
    any table that breaks either.
    """
    src, tgt, inv, get = G.source, G.target, G.inverse, G.compose.get
    closure, by_src, by_tgt = set(), {}, {}
    new = set(members)
    while new:
        found = set()
        for d in new:
            found.add(inv[d])
            found.update(map(get, zip(by_tgt.get(src[d], ()), itertools.repeat(d))))
            if step is not None:
                found.update(step(d))
        closure |= new
        for d in new:
            by_src.setdefault(src[d], []).append(d)
            by_tgt.setdefault(tgt[d], []).append(d)
        for d in new:
            found.update(map(get, zip(itertools.repeat(d), by_src.get(tgt[d], ()))))
        found.discard(None)
        new = found - closure
    return closure


def generated_by(G: FiniteGroupoid, carrier) -> bool:
    """Does the closure of `carrier` under composition and inversion reach
    every morphism?  `carrier` must contain all identities.

    The closure is the least fixpoint of "add every inverse and every
    composite of two members", reached by semi-naive rounds (Bancilhon &
    Ramakrishnan 1986) that pair only the newest members with the rest.
    That uses the table as it is and assumes no associativity, so on an
    unlawful table it is still the closure under the entries present.
    """
    carrier = set(carrier)
    for x in sorted(G.objects):
        if G.identity[x] not in carrier:
            raise ValueError(f"carrier misses identity at {x!r}")
    unknown = [m for m in carrier if m not in G.source]
    if unknown:
        raise ValueError(f"carrier not a subset of morphisms: {min(unknown)!r}")
    return _closure(G, carrier) == set(G.morphisms)


def check_wide_subgroupoid(G: FiniteGroupoid, carrier) -> tuple:
    """Reasons `carrier` fails to be a wide subgroupoid (empty = fine).

    Composites are looked up only for pairs a, b with tgt(a) = src(b),
    through an index of the carrier by source; on a table that passes
    `validate_structure` no other pair has one, so the problems and their
    order are those of a scan over every pair."""
    carrier = set(carrier)
    problems = []
    if not carrier <= set(G.morphisms):
        return (("not-a-morphism", sorted(carrier - set(G.morphisms))[0]),)
    for x in sorted(G.objects):
        if G.identity[x] not in carrier:
            problems.append(("identity-missing", x))
    for a in sorted(carrier):
        if G.inverse[a] not in carrier:
            problems.append(("inverse-escapes", a))
    by_src = {}
    for b in sorted(carrier):
        by_src.setdefault(G.source[b], []).append(b)
    for a in sorted(carrier):
        for b in by_src.get(G.target[a], ()):
            c = G.compose.get((a, b))
            if c is not None and c not in carrier:
                problems.append(("composite-escapes", (a, b, c)))
    return tuple(problems)


def check_normal_subgroupoid(G: FiniteGroupoid, carrier) -> tuple:
    """Reasons `carrier` fails to be normal: wide, totally disconnected
    (endomorphisms only), and closed under conjugation by every morphism."""
    problems = check_wide_subgroupoid(G, carrier)
    if problems:
        return problems
    problems = [("not-totally-disconnected", n)
                for n in sorted(carrier) if G.source[n] != G.target[n]]
    if problems:
        return tuple(problems)
    for n in sorted(carrier):
        x = G.source[n]
        for g in G.costar(x):
            conj = G.mul(g, n, G.inverse[g])
            if conj not in carrier:
                problems.append(("conjugate-escapes", (g, n, conj)))
    return tuple(problems)


def normal_closure(G: FiniteGroupoid, seeds) -> frozenset:
    """The carrier of the smallest normal subgroupoid containing `seeds`
    (endomorphisms only).

    The same semi-naive rounds as `generated_by`, where each new member is
    also conjugated by every morphism into its object, once.
    """
    seeds = set(seeds)
    for s in sorted(seeds):
        if s not in G.morphisms:
            raise ValueError(f"unknown morphism: {s!r}")
        if G.source[s] != G.target[s]:
            raise ValueError(f"seed is not an endomorphism: {s!r}")
    costar = {}
    for g in sorted(G.target):
        costar.setdefault(G.target[g], []).append(g)

    def conjugates(n):
        return [G.mul(g, n, G.inverse[g]) for g in costar.get(G.source[n], ())]

    return frozenset(_closure(G, {G.identity[x] for x in G.objects} | seeds, conjugates))


def quotient(G: FiniteGroupoid, N: frozenset):
    """Object-preserving quotient by the normal subgroupoid with carrier N.

    Morphisms of the quotient are cosets; each coset is named by its
    lexicographically smallest member.  Returns (quotient, projection).
    """
    problems = check_normal_subgroupoid(G, N)
    if problems:
        raise ValueError(f"not a normal subgroupoid: {problems[0]!r}")
    n_at = {}
    for n in N:
        n_at.setdefault(G.source[n], []).append(n)

    def coset(a):
        return frozenset(G.compose[(n, a)] for n in n_at[G.source[a]])

    rep = {}
    for a in sorted(G.morphisms):
        rep[a] = min(coset(a))
    reps = sorted(set(rep.values()))
    source = {r: G.source[r] for r in reps}
    target = {r: G.target[r] for r in reps}
    identity = {x: rep[G.identity[x]] for x in G.objects}
    inverse = {r: rep[G.inverse[r]] for r in reps}
    compose = {}
    for a in reps:
        for b in reps:
            if G.target[a] == G.source[b]:
                compose[(a, b)] = rep[G.compose[(a, b)]]
    Q = FiniteGroupoid(objects=G.objects, source=source, target=target,
                       identity=identity, inverse=inverse, compose=compose)
    proj = GroupoidMorphism(obj_map={x: x for x in G.objects}, mor_map=dict(rep))
    return Q, proj


def validate_morphism(dom: FiniteGroupoid, cod: FiniteGroupoid,
                      f: GroupoidMorphism) -> tuple:
    """Exhaustive functor check: totality, endpoints, identities,
    composition, inversion."""
    out = []
    for x in sorted(dom.objects):
        if x not in f.obj_map:
            out.append(("object-unmapped", (x,)))
        elif f.obj_map[x] not in cod.objects:
            out.append(("object-image-unknown", (x, f.obj_map[x])))
    for m in sorted(dom.morphisms):
        if m not in f.mor_map:
            out.append(("morphism-unmapped", (m,)))
        elif f.mor_map[m] not in cod.morphisms:
            out.append(("morphism-image-unknown", (m, f.mor_map[m])))
    if out:
        return tuple(out)
    for m in sorted(dom.morphisms):
        fm = f.mor_map[m]
        if cod.source[fm] != f.obj_map[dom.source[m]]:
            out.append(("source-not-preserved", (m,)))
        if cod.target[fm] != f.obj_map[dom.target[m]]:
            out.append(("target-not-preserved", (m,)))
        if f.mor_map[dom.inverse[m]] != cod.inverse[fm]:
            out.append(("inverse-not-preserved", (m,)))
    for x in sorted(dom.objects):
        if f.mor_map[dom.identity[x]] != cod.identity[f.obj_map[x]]:
            out.append(("identity-not-preserved", (x,)))
    for (a, b), c in sorted(dom.compose.items()):
        img = cod.compose.get((f.mor_map[a], f.mor_map[b]))
        if img != f.mor_map[c]:
            out.append(("composition-not-preserved", (a, b)))
    return tuple(out)
