"""Builders shared across test modules.

Everything here is deliberately independent of the library internals: groups
are built from raw multiplication rules, so they double as oracles for the
axiom checker, the enumeration engine, and the quotient construction.
"""

import itertools
from collections import namedtuple

from groupoids.core import FiniteGroupoid
from groupoids.monodromy import WordEvaluator, enumerate_classes, pi1_graph
from groupoids.topology import FiniteTopology, difference_pairs
from groupoids.words import (
    CosetTable,
    FiniteEngine,
    Presentation,
    UndecidedEngine,
    Word,
    canonical_relator,
    cyclic_reduce,
    free_reduce,
    inv_letters,
    word_target,
)


# ---------------------------------------------------------------- group tables

def table_from_mul(elems, mul_fn, name_fn=str):
    """(names, mul dict, inv dict, unit name) from a raw multiplication rule."""
    names = [name_fn(e) for e in elems]
    assert len(set(names)) == len(names)
    by_name = dict(zip(names, elems))
    mul = {}
    for a, b in itertools.product(names, names):
        mul[(a, b)] = name_fn(mul_fn(by_name[a], by_name[b]))
    unit = next(e for e in names if all(mul[(e, a)] == a and mul[(a, e)] == a for a in names))
    inv = {}
    for a in names:
        inv[a] = next(b for b in names if mul[(a, b)] == unit)
    return names, mul, inv, unit


def cyclic(n):
    return table_from_mul(range(n), lambda a, b: (a + b) % n)


def direct(t1, t2):
    n1, m1, _, _ = t1
    n2, m2, _, _ = t2
    elems = list(itertools.product(n1, n2))
    return table_from_mul(
        elems, lambda a, b: (m1[(a[0], b[0])], m2[(a[1], b[1])]),
        name_fn=lambda e: f"{e[0]}.{e[1]}")


def sym3():
    perms = list(itertools.permutations(range(3)))
    return table_from_mul(
        perms, lambda p, q: tuple(q[p[i]] for i in range(3)),
        name_fn=lambda p: "".join(map(str, p)))


def dihedral4():
    # r^i s^j with s r = r^-1 s
    elems = list(itertools.product(range(4), range(2)))
    return table_from_mul(
        elems,
        lambda a, b: ((a[0] + (b[0] if a[1] == 0 else -b[0])) % 4, (a[1] + b[1]) % 2),
        name_fn=lambda e: f"r{e[0]}s{e[1]}")


def quaternion():
    units = {"1": (1, 0, 0, 0), "-1": (-1, 0, 0, 0),
             "i": (0, 1, 0, 0), "-i": (0, -1, 0, 0),
             "j": (0, 0, 1, 0), "-j": (0, 0, -1, 0),
             "k": (0, 0, 0, 1), "-k": (0, 0, 0, -1)}
    names = {v: k for k, v in units.items()}

    def qmul(p, q):
        w1, x1, y1, z1 = p
        w2, x2, y2, z2 = q
        return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)

    return table_from_mul(list(units.values()), qmul, name_fn=lambda q: names[q])


def all_groups_upto8():
    """Every group of order <= 8, up to isomorphism, as (name, table)."""
    c2, c4 = cyclic(2), cyclic(4)
    return [
        ("Z1", cyclic(1)), ("Z2", cyclic(2)), ("Z3", cyclic(3)),
        ("Z4", cyclic(4)), ("V4", direct(c2, c2)), ("Z5", cyclic(5)),
        ("Z6", cyclic(6)), ("S3", sym3()), ("Z7", cyclic(7)),
        ("Z8", cyclic(8)), ("Z4xZ2", direct(c4, c2)),
        ("Z2x3", direct(direct(c2, c2), c2)),
        ("D4", dihedral4()), ("Q8", quaternion()),
    ]


# ------------------------------------------------------------ groupoid builders

def group_groupoid(table, obj="*"):
    """A group as a one-object groupoid."""
    names, mul, inv, unit = table
    return FiniteGroupoid(
        objects=frozenset([obj]),
        source={a: obj for a in names},
        target={a: obj for a in names},
        identity={obj: unit},
        inverse=dict(inv),
        compose=dict(mul),
    )


def z2_breaking_the_identity_law():
    """Z/2 with g.e = e: it passes the linear checks of `validate_structure`,
    but e is no right identity for g."""
    G = group_groupoid(cyclic(2))
    return with_tables(G, compose={**G.compose, ("1", "0"): "0"})


def product_groupoid(n_objects, table):
    """Connected groupoid with n objects and vertex group from `table`.

    Every connected finite groupoid is isomorphic to one of these, so they
    make a fully general source of random connected instances.
    """
    names, mul, inv, unit = table
    objs = [f"o{i}" for i in range(n_objects)]
    mid = lambda x, y, g: f"{x}>{y}:{g}"
    source, target, inverse, compose = {}, {}, {}, {}
    for x, y, g in itertools.product(objs, objs, names):
        m = mid(x, y, g)
        source[m], target[m] = x, y
        inverse[m] = mid(y, x, inv[g])
    identity = {x: mid(x, x, unit) for x in objs}
    for x, y, z in itertools.product(objs, objs, objs):
        for g, h in itertools.product(names, names):
            compose[(mid(x, y, g), mid(y, z, h))] = mid(x, z, mul[(g, h)])
    return FiniteGroupoid(objects=frozenset(objs), source=source, target=target,
                          identity=identity, inverse=inverse, compose=compose)


def with_tables(G, **tables):
    """A new FiniteGroupoid with the named tables swapped in and the others
    shared with G, the same objects included."""
    return FiniteGroupoid(**{"objects": G.objects, "source": G.source, "target": G.target,
                             "identity": G.identity, "inverse": G.inverse,
                             "compose": G.compose, **tables})


def relabel(G, name):
    """The copy of G with each morphism m renamed name[m] (a one-to-one
    mapping); objects keep their names.  Renaming reorders the morphism
    ids, and with them the edges the spanning forest explores first."""
    return FiniteGroupoid(
        objects=G.objects,
        source={name[m]: x for m, x in G.source.items()},
        target={name[m]: y for m, y in G.target.items()},
        identity={x: name[m] for x, m in G.identity.items()},
        inverse={name[m]: name[i] for m, i in G.inverse.items()},
        compose={(name[a], name[b]): name[ab] for (a, b), ab in G.compose.items()},
    )


def pair_compose_table(points):
    """The composition table of the pair groupoid on `points` as a dict,
    ((x,y), (y,z)) -> (x,z), in the order of `itertools.product` over the
    sorted points."""
    pts = sorted(points)
    name = lambda x, y: f"({x},{y})"
    return {(name(x, y), name(y, z)): name(x, z)
            for x, y, z in itertools.product(pts, repeat=3)}


# ------------------------------------------------------------ closure oracles

def closure_oracle(G, carrier):
    """The closure of `carrier` under inversion and composition, by the
    round loop that rescans closure x closure every round."""
    closure = set(carrier)
    frontier = set(carrier)
    while frontier:
        fresh = set()
        for a in frontier:
            inv = G.inverse[a]
            if inv not in closure:
                fresh.add(inv)
        for a in list(closure):
            for b in list(closure):
                c = G.compose.get((a, b))
                if c is not None and c not in closure:
                    fresh.add(c)
        closure |= fresh
        frontier = fresh
    return closure


def normal_closure_oracle(G, seeds):
    """The carrier of the smallest normal subgroupoid containing `seeds`, by
    the round loop that rescans carrier x carrier and conjugates every
    member on every round."""
    carrier = {G.identity[x] for x in G.objects} | set(seeds)
    changed = True
    while changed:
        changed = False
        for n in sorted(carrier):
            inv = G.inverse[n]
            if inv not in carrier:
                carrier.add(inv)
                changed = True
        for a in sorted(carrier):
            for b in sorted(carrier):
                c = G.compose.get((a, b))
                if c is not None and c not in carrier:
                    carrier.add(c)
                    changed = True
        for n in sorted(carrier):
            x = G.source[n]
            for g in G.costar(x):
                conj = G.mul(g, n, G.inverse[g])
                if conj not in carrier:
                    carrier.add(conj)
                    changed = True
    return carrier


def wide_subgroupoid_oracle(G, carrier):
    """`check_wide_subgroupoid` by the scan that looks up the composite of
    every ordered pair of carrier elements, composable or not."""
    carrier = set(carrier)
    problems = []
    if not carrier <= set(G.morphisms):
        problems.append(("not-a-morphism", sorted(carrier - set(G.morphisms))[0]))
        return problems
    for x in sorted(G.objects):
        if G.identity[x] not in carrier:
            problems.append(("identity-missing", x))
    for a in sorted(carrier):
        if G.inverse[a] not in carrier:
            problems.append(("inverse-escapes", a))
    for a in sorted(carrier):
        for b in sorted(carrier):
            c = G.compose.get((a, b))
            if c is not None and c not in carrier:
                problems.append(("composite-escapes", (a, b, c)))
    return problems


# --------------------------------------------------------- simplification oracle

def simplify_oracle(generators, relations):
    """(generators, relations, eliminations) of Tietze elimination by the
    loop that sorts every relation on every round and rewrites all of them
    after each elimination."""
    def substitute(letters, gen, repl):
        out = []
        for e, s in letters:
            if e == gen:
                out.extend(repl if s > 0 else inv_letters(repl))
            else:
                out.append((e, s))
        return free_reduce(tuple(out))

    gens = list(generators)
    rels = {canonical_relator(cyclic_reduce(r)) for r in relations}
    rels.discard(())
    eliminations = []
    while True:
        pick = None
        for r in sorted(rels, key=lambda w: (len(w), w)):
            counts = {}
            for e, _ in r:
                counts[e] = counts.get(e, 0) + 1
            for i, (e, s) in enumerate(r):
                if counts[e] == 1:
                    pick = (r, i, e, s)
                    break
            if pick:
                break
        if not pick:
            break
        r, i, g, s = pick
        u, v = r[:i], r[i + 1:]
        repl = free_reduce((inv_letters(u) + inv_letters(v)) if s > 0 else (v + u))
        rels.remove(r)
        rels = {canonical_relator(cyclic_reduce(substitute(w, g, repl))) for w in rels}
        rels.discard(())
        gens.remove(g)
        eliminations.append((g, repl))
    return tuple(gens), tuple(sorted(rels)), tuple(eliminations)


# ------------------------------------------------------------ collapse oracle

def collapse_oracle(G, carrier, forest):
    """(relators, vertex-group presentations) of the monodromy over `carrier`
    by the Word pipeline that re-walks every relator to check that it chains
    and closes up, and then collapses it by `paired_collapse`."""
    ends = {a: (G.source[a], G.target[a]) for a in carrier if not G.is_identity(a)}

    def letters_of(a):
        return () if G.is_identity(a) else ((a, 1),)

    relators = []
    for a in sorted(carrier):
        for b in sorted(carrier):
            if G.target[a] != G.source[b] or G.compose[(a, b)] not in carrier:
                continue
            letters = free_reduce(letters_of(a) + letters_of(b)
                                  + inv_letters(letters_of(G.compose[(a, b)])))
            if letters:
                relators.append(Word(letters, G.source[a]))
    for r in relators:
        at = r.base
        for e, s in r.letters:
            u, v = ends[e] if s > 0 else ends[e][::-1]
            assert u == at, f"relator does not chain: {r.letters!r}"
            at = v
        assert at == r.base, f"relator not closed: {r.letters!r}"
    return tuple(relators), paired_collapse(G, carrier, forest,
                                            [(r.base, r.letters) for r in relators])


def inverse_pairs(G, relators):
    """edge -> its partner: a != b, each the other's inverse in G, with a.b
    and b.a both among the relators (base, letters).  A relator of two
    positive letters comes only from a triple (a, b, ab) with ab an
    identity, which lets b be replaced by a^-1."""
    two = {letters for _, letters in relators
           if len(letters) == 2 and letters[0][1] == letters[1][1] == 1}
    return {a: b for (a, _), (b, _) in two
            if a != b and ((b, 1), (a, 1)) in two and G.inverse[a] == b and G.inverse[b] == a}


def paired_collapse(G, carrier, forest, relators, pair=True):
    """Vertex-group presentations of the closed letter chains `relators`
    (base, letters), one generator per pair of `inverse_pairs` (the least
    edge) and one per other edge, less the spanning forest: every letter is
    rewritten on its own, a tree edge's or its partner's to nothing, a
    partner's to the inverse of its pair's least edge, and the rest kept;
    each relator goes to its base's component, cyclically reduced and
    deduplicated by `canonical_relator`.  With pair=False no edges pair:
    the presentation with a generator per edge and the relators a.a^-1,
    as collapsed before edges were paired."""
    relators = list(relators)
    partner = inverse_pairs(G, relators) if pair else {}
    tree = forest.tree_edges

    def image(e, s):
        b = partner.get(e, e)
        if e in tree or b in tree:
            return ()
        return ((min(e, b), s if e <= b else -s),)

    gens = [set() for _ in forest.components]
    for a in carrier:
        if not G.is_identity(a):
            for e, _ in image(a, 1):
                gens[forest.vertex_component[G.source[a]]].add(e)
    rels = [set() for _ in forest.components]
    for base, letters in relators:
        w = cyclic_reduce(free_reduce(tuple(x for e, s in letters for x in image(e, s))))
        if w:
            rels[forest.vertex_component[base]].add(canonical_relator(w))
    return tuple(Presentation(generators=tuple(sorted(g)), relations=tuple(sorted(r)))
                 for g, r in zip(gens, rels))


def triple_collapse(M, pair=True):
    """`paired_collapse` of the letters a.b.(ab)^-1 of every defining triple
    of M, none skipped: identity letters erased, unreduced."""
    G = M.ambient

    def letters_of(a):
        return () if G.is_identity(a) else ((a, 1),)

    return paired_collapse(
        G, M.carrier, M.forest,
        [(G.source[a], letters_of(a) + letters_of(b) + inv_letters(letters_of(ab)))
         for a, b, ab in M.relator_family], pair)


# -------------------------------------------- relator certificate oracle

def table_engine_oracle(G, carrier, graph, comp, vgp, budget):
    """The coset table of a closed carrier's vertex group at comp.base, read
    off the carrier and certified against the collapsed relations of the
    component's presentation `vgp`: the rows are W(x,x), each inverse
    action undoes its action, and following every relation from every row
    returns to it.  None when n < 2 or a check fails; an `UndecidedEngine`
    that simplifies `vgp` on first use when n >= budget."""
    x = comp.base
    members = {a for a in carrier if G.source[a] == x == G.target[a]}
    if len(members) < 2:
        return None
    p = WordEvaluator(target=G, obj_map={x: x}, gen_map=dict(zip(carrier, carrier)))
    try:
        steps = []  # (loop, its inverse) per generator
        for e in vgp.generators:
            u, v = graph.edges[e]
            loop = p.evaluate(Word(comp.paths[u].letters + ((e, 1),)
                                   + inv_letters(comp.paths[v].letters), x))
            steps.append((loop, G.inverse[loop]))
        rows, index = [G.identity[x]], {G.identity[x]: 0}
        columns = [([], []) for _ in steps]  # (action, inverse action)
        for g in rows:
            for step, cols in zip(steps, columns):
                for m, col in zip(step, cols):
                    h = G.compose[(g, m)]
                    if h not in index:
                        index[h] = len(rows)
                        rows.append(h)
                    col.append(index[h])
    except KeyError:
        return None
    if set(rows) != members:
        return None
    action = {e: tuple(f) for e, (f, _) in zip(vgp.generators, columns)}
    inverse_action = {e: tuple(b) for e, (_, b) in zip(vgp.generators, columns)}
    table = CosetTable(generators=vgp.generators, size=len(rows),
                       action=action, inverse_action=inverse_action)
    for e in vgp.generators:
        if any(table.follow(((e, 1), (e, -1)), r) != r for r in range(len(rows))):
            return None
    for r in vgp.relations:
        if any(table.follow(r, row) != row for row in range(len(rows))):
            return None
    if len(rows) >= budget:
        return UndecidedEngine(presentation=lambda: vgp)
    return FiniteEngine(simplified=vgp, table=table)


def triple_certificate_oracle(M, i, triples):
    """The engine `monodromy._table_engine` gives for component i of a
    closed carrier, certified by scanning every row for every defining
    triple: the rows are W(x,x), each inverse action undoes its action, and
    P(a) then P(b) is P(ab) on every row, P being a generator's action, its
    inverse action on its partner and the identity on every other letter.
    None when n < 2 or a check fails; an `UndecidedEngine` that simplifies
    `M.vertex_groups[i]` on first use when n >= M.budget."""
    G, comp = M.ambient, M.forest.components[i]
    x = comp.base
    members = {a for a in M.carrier if G.source[a] == x == G.target[a]}
    if len(members) < 2:
        return None
    generators = M.forest.generators[i]
    try:
        steps = []  # (loop, its inverse) per generator
        for e in generators:
            u, v = M.graph.edges[e]
            letters = comp.paths[u].letters + ((e, 1),) + inv_letters(comp.paths[v].letters)
            loop = G.mul(G.identity[x], *(f if s > 0 else G.inverse[f] for f, s in letters))
            steps.append((loop, G.inverse[loop]))
        rows, index = [G.identity[x]], {G.identity[x]: 0}
        columns = [([], []) for _ in steps]  # (action, inverse action)
        for g in rows:
            for step, cols in zip(steps, columns):
                for m, col in zip(step, cols):
                    h = G.compose[(g, m)]
                    if h not in index:
                        index[h] = len(rows)
                        rows.append(h)
                    col.append(index[h])
    except (KeyError, ValueError):
        return None
    if set(rows) != members:
        return None
    every = range(len(rows))
    action = {e: tuple(f) for e, (f, _) in zip(generators, columns)}
    inverse_action = {e: tuple(b) for e, (_, b) in zip(generators, columns)}
    perm = {a: tuple(every) for a in M.carrier}
    perm.update(action)
    perm.update((p, inverse_action[r]) for r, p in M.forest.partner.items() if r in action)
    if (any(inverse_action[e][action[e][r]] != r for e in generators for r in every)
            or any(perm[b][perm[a][r]] != perm[ab][r] for a, b, ab in triples for r in every)):
        return None
    if len(rows) >= M.budget:
        return UndecidedEngine(lambda: M.vertex_groups[i])
    table = CosetTable(generators=generators, size=len(rows),
                       action=action, inverse_action=inverse_action)
    return FiniteEngine(Presentation(generators, ()), table)


# ---------------------------------------------------------- token trie reference

class PairKeyedTrie:
    """Reduced words interned as ints, each child kept in one dict keyed
    by (node, letter) and every letter walked in one loop: the reference
    whose node numbers `words.TokenTrie`'s per-letter steppers must give."""

    def __init__(self):
        self.parent, self.last, self.child = [0], [None], {}

    def walk(self, letters, node):
        parent, last, child = self.parent, self.last, self.child
        for letter in letters:
            if last[node] == (letter[0], -letter[1]):
                node = parent[node]
                continue
            nxt = child.get((node, letter))
            if nxt is None:
                nxt = child[node, letter] = len(parent)
                parent.append(node)
                last.append(letter)
            node = nxt
        return node

    def spelled(self):
        out = [()]
        for up, letter in zip(self.parent[1:], self.last[1:]):
            out.append(out[up] + (letter,))
        return out


# --------------------------------------------------------- class search oracle

OracleSearch = namedtuple("OracleSearch", "classes exact saturated capped_at")


def class_search_oracle(M, roots, depth, max_classes):
    """`monodromy.enumerate_classes` by the loop that rebuilds every new
    word's token from all of its letters (`M.token`), with the fields of
    a `ClassSearch` that the tests compare."""
    G = M.ambient
    gens = [a for a in sorted(M.carrier) if not G.is_identity(a)]
    classes, frontier, exact = {}, [], True
    for x in roots:
        w = Word((), x)
        t, ok = M.token(w)
        exact &= ok
        classes.setdefault(t, (w, G.identity[x]))
        frontier.append((w, G.identity[x]))
    levels = 0
    while frontier and levels < depth:
        fresh = []
        for w, val in frontier:
            at = word_target(M.graph, w)
            for a in gens:
                if G.source[a] != at:
                    continue
                w2 = Word(free_reduce(w.letters + ((a, 1),)), w.base)
                t2, ok = M.token(w2)
                exact &= ok
                if t2 in classes:
                    continue
                if len(classes) >= max_classes:
                    return OracleSearch(classes, exact, False, levels)
                classes[t2] = (w2, G.compose[(val, a)])
                fresh.append(classes[t2])
        frontier = fresh
        levels += 1
    return OracleSearch(classes, exact, not frontier, None)


def _index_key(i):
    return (0, i) if isinstance(i, int) else (1, str(i))


def comp_witness(LT, x, i, j):
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


def _neighborhood_pairs(G, LT, a):
    """The (i, j) around the ends of a, in index order."""
    at = [(i, j) for i in _members_at(LT, G.source[a]) for j in _members_at(LT, G.target[a])]
    return sorted(at, key=lambda ij: (_index_key(ij[0]), _index_key(ij[1])))


def generation_oracle(G, LT):
    """`generate_groupoid_topology` on a valid structure as it was written
    before its neighborhood table: collect every basic neighborhood into a
    set, then replay the shrinking argument with the Comp witnesses' own
    sections, building the three neighborhoods of each pair of pairs again
    and searching Comp again.  Comp does not make s_{x,k} agree with
    s_{x,i}, so this replay can refute a true topological groupoid; its
    "refinement" entries come first in the problems, then the
    `check_topological_groupoid` pairs.  Returns (generated topology,
    problems)."""
    from groupoids.loctriv import basic_neighborhood
    from groupoids.topology import check_topological_groupoid, generate_from_base

    nbhds, failures = set(), []
    for a in sorted(G.morphisms):
        for i, j in _neighborhood_pairs(G, LT, a):
            nbhds.add(basic_neighborhood(G, LT, a, i, j))
    for a in sorted(G.morphisms):
        x, y = G.source[a], G.target[a]
        for (i, j), (i2, j2) in itertools.combinations(_neighborhood_pairs(G, LT, a), 2):
            k = comp_witness(LT, x, i, i2)
            l = comp_witness(LT, y, j, j2)
            inner = basic_neighborhood(G, LT, a, k, l)
            outer = (basic_neighborhood(G, LT, a, i, j)
                     & basic_neighborhood(G, LT, a, i2, j2))
            if not inner <= outer:
                failures.append(("refinement", (a, (i, j), (i2, j2), k, l)))

    gen = generate_from_base(sorted(G.morphisms), nbhds)
    return gen, (*failures, *check_topological_groupoid(G, gen.topology, LT.base_space))


def shrink_oracle(G, LT):
    """The shrinking law read with the sections Comp relates: for each a and
    two pairs (i, j), (i2, j2) around its ends, with k and l the Comp
    witnesses of (x, i, i2) and (y, j, j2), the set
    s_{x,i}(u)^-1 . a . s_{y,j}(v) over u in U_k and v in U_l lies in both
    basic neighborhoods.  Returns the (a, (i, j), (i2, j2), k, l) where it
    does not, which on a valid structure is never."""
    from groupoids.loctriv import basic_neighborhood

    cov, failures = dict(LT.cover), []
    for a in sorted(G.morphisms):
        x, y = G.source[a], G.target[a]
        for (i, j), (i2, j2) in itertools.combinations(_neighborhood_pairs(G, LT, a), 2):
            k = comp_witness(LT, x, i, i2)
            l = comp_witness(LT, y, j, j2)
            si, sj = LT.sections[(x, i)], LT.sections[(y, j)]
            inner = {G.mul(G.inverse[si[u]], a, sj[v]) for u in cov[k] for v in cov[l]}
            if not inner <= (basic_neighborhood(G, LT, a, i, j)
                             & basic_neighborhood(G, LT, a, i2, j2)):
                failures.append((a, (i, j), (i2, j2), k, l))
    return failures


def w_open_witnesses(G, LT, W):
    """a -> the first (i, j), source member then target member in cover
    order, whose basic neighborhood of a lies inside W, for every a in W
    that has one: the witnesses `check_w_open` searches for."""
    from groupoids.loctriv import basic_neighborhood

    found = {}
    for a in sorted(W):
        pairs = [(i, j) for i, u in LT.cover if G.source[a] in u
                 for j, v in LT.cover if G.target[a] in v]
        for i, j in pairs:
            if basic_neighborhood(G, LT, a, i, j) <= W:
                found[a] = (i, j)
                break
    return found


def transported_checks(LT, M):
    """The word-level checks `clt_on_monodromy` made before it relied on
    transport preserving them, on the tables u -> i~(s(u)): the section
    laws with endpoints read off the words, and the Comp search over the
    engines' three-valued equality.  Returns (problems, satisfied,
    undecided, failed): the section-law failures as (kind, payload) pairs,
    (x, i, j, k) for each Comp triple with a witness k, and (x, i, j) for
    each triple left undecided or refuted."""
    cov = dict(LT.cover)
    trans = {key: {u: M.i_tilde(m) for u, m in tab.items()}
             for key, tab in LT.sections.items()}
    expected = {(x, i) for i, u in LT.cover for x in u}
    problems = [("section-missing", key) for key in sorted(expected - set(trans), key=str)]
    problems += [("section-unexpected", key)
                 for key in sorted(set(trans) - expected, key=str)]
    for x, i in sorted(expected & set(trans), key=str):
        tab = trans[(x, i)]
        if set(tab) != cov[i]:
            problems.append(("section-domain", (x, i)))
        for u in sorted(set(tab) & cov[i], key=str):
            if tab[u].base != x:
                problems.append(("section-source", (x, i, u)))
            if word_target(M.graph, tab[u]) != u:
                problems.append(("section-target", (x, i, u)))
        if tab.get(x) != Word((), x):
            problems.append(("section-identity", (x, i)))

    satisfied, undecided, failed = [], [], []
    for x in sorted(LT.base_space.points, key=str):
        around = sorted((i for i, u in LT.cover if x in u), key=_index_key)
        for i, j in itertools.combinations(around, 2):
            si, sj = trans.get((x, i), {}), trans.get((x, j), {})
            inside = sorted((k for k, uk in LT.cover if x in uk and uk <= cov[i] & cov[j]),
                            key=lambda k: (_index_key(k), sorted(map(str, cov[k]))))
            outcome = failed
            for k in inside:
                votes = [M.equal(si.get(u), sj.get(u)) for u in cov[k]]
                if False in votes:
                    continue
                if None in votes:
                    outcome = undecided
                    continue
                satisfied.append((x, i, j, k))
                break
            else:
                outcome.append((x, i, j))
    return tuple(problems), tuple(satisfied), tuple(undecided), tuple(failed)


def _transported_neighborhood(LT, M):
    """(w, i, j) -> the words i~(s_{x,i}(u))^-1 . w . i~(s_{y,j}(v)) over
    u in U_i and v in U_j, x and y the ends of w, as `clt_on_monodromy`
    once built them."""
    cov = dict(LT.cover)
    trans = {key: {u: M.i_tilde(tab[u]) for u in tab}
             for key, tab in LT.sections.items()}

    def neighborhood(w, i, j):
        si, sj = trans[(w.base, i)], trans[(word_target(M.graph, w), j)]
        return [Word(free_reduce(inv_letters(si[u].letters) + w.letters + sj[v].letters), u)
                for u in cov[i] for v in cov[j]]
    return neighborhood


def _members_at(LT, p):
    return [i for i, u in LT.cover if p in u]


def translate_collisions_oracle(M, x):
    """The search `star_covering_report` made for failures of injectivity
    of evaluation on translates: (collisions, undecided), the pairs a < b
    of the carrier in x's component with the same endpoints whose
    one-letter words the engine equates, or cannot separate."""
    G = M.ambient
    collisions, inj_undecided = [], []
    comp = M.component_of(x)
    members = [a for a in sorted(M.carrier)
               if M.component_of(G.source[a]) == comp]
    for a, b in itertools.combinations(members, 2):
        if G.source[a] != G.source[b] or G.target[a] != G.target[b]:
            continue
        eq = M.equal(M.i_tilde(a), M.i_tilde(b))
        if eq is True:
            collisions.append((a, b))
        elif eq is None:
            inj_undecided.append((a, b))
    return tuple(collisions), tuple(inj_undecided)


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


def transported_openness_oracle(LT, M):
    """The elementwise search `clt_on_monodromy` made for a transported
    neighborhood of each i~(a) inside i~(W), W composition-closed, by the
    engines' three-valued equality: (witnesses, undecided, failures), the
    witnesses a -> the first (i, j) whose neighborhood is inside, the rest
    the elements with none, undecided when some vote was.  All empty when
    W is not closed."""
    from groupoids.monodromy import canonical_morphism

    G, carrier = M.ambient, M.carrier
    neighborhood = _transported_neighborhood(LT, M)
    p = canonical_morphism(M)

    def in_w_tilde(w):
        b = p.evaluate(w)
        return b in carrier and M.equal(w, M.i_tilde(b))

    w_wit, w_und, w_fail = {}, [], []
    if M.closed:
        w_wit, w_und, w_fail = _open_search(
            G, LT, sorted(carrier),
            lambda a, i, j: _all3(map(in_w_tilde, neighborhood(M.i_tilde(a), i, j))))
    return w_wit, tuple(w_und), tuple(w_fail)


def window_oracle(LT, M, depth):
    """The window `clt_on_monodromy` once built from words: every
    transported neighborhood element a word, each tokenized whole, on
    the spelled class tokens of `ClassSearch.classes`.  A dict of the
    report's fields (points, opens, base_compatible, topology, values)
    and w_tilde_open, the openness test of the classes of i~(W), None
    when W is not composition-closed."""
    from groupoids.monodromy import enumerate_classes
    from groupoids.topology import generate_from_base

    neighborhood = _transported_neighborhood(LT, M)
    classes = enumerate_classes(M, sorted(M.ambient.objects, key=str), depth).classes
    traces = set()
    for w, _ in classes.values():
        for i in _members_at(LT, w.base):
            for j in _members_at(LT, word_target(M.graph, w)):
                tokens = (M.token(v)[0] for v in neighborhood(w, i, j))
                traces.add(frozenset(t for t in tokens if t in classes))
    gen = generate_from_base(sorted(classes, key=str), traces)
    image = frozenset(M.token(M.i_tilde(b))[0] for b in sorted(M.carrier))
    w_open = gen.topology.is_open(image.intersection(classes)) if M.closed else None
    return {"points": len(classes), "opens": gen.topology.open_count,
            "base_compatible": gen.base_compatible, "topology": gen.topology,
            "values": {t: val for t, (_, val) in classes.items()}, "w_tilde_open": w_open}


def monodromy_on_keys(M, depth):
    """M as a `FiniteGroupoid` on the keys of a class search over every
    object to `depth`, which must close with exact tokens (so its keys are
    all of M, one per element).  The identity at x is (x, x, 0); k1 . k2
    steps k2's carrier path, read off the rows' parents, from k1's node by
    the search's steppers; the inverse of k steps k's path reversed and
    inverted from node 0 at k's target.  No word is built, so this is M as
    the window sees it."""
    search = enumerate_classes(M, sorted(M.ambient.objects, key=str), depth)
    if not (search.saturated and search.exact):
        raise ValueError("the class search must close with exact tokens")
    keys, parents, letters = search.keys, search.parents, search.letters

    def path(i):  # carrier letters from the empty word to class i
        out = []
        while parents[i] is not None:
            out.append(letters[i])
            i = parents[i]
        return out[::-1]

    def walk(node, path, sign=1):
        for a in path:
            image, engine = search.moves[a]
            node = engine.stepper(image if sign > 0 else inv_letters(image), search.trie)(node)
        return node

    paths = {k: path(i) for i, k in enumerate(keys)}
    by_src = {}
    for k in keys:
        by_src.setdefault(k[0], []).append(k)
    compose = {(k1, k2): (k1[0], k2[1], walk(k1[2], paths[k2]))
               for k1 in keys for k2 in by_src[k1[1]]}
    return FiniteGroupoid(
        objects=frozenset(M.ambient.objects),
        source={k: k[0] for k in keys}, target={k: k[1] for k in keys},
        identity={x: (x, x, 0) for x in M.ambient.objects},
        inverse={k: (k[1], k[0], walk(0, paths[k][::-1], -1)) for k in keys},
        compose=compose)


def spelled_keys(search):
    """class key -> its token as `ClassSearch.classes` spells it."""
    spelled = search.trie.spelled()
    return {k: (k[0], k[1], k[2] if k[0] in search.rows else spelled[k[2]])
            for k in search.keys}


def difference_equivalence(problems):
    """Whether `check_topological_groupoid` problems agree with
    "composition and inversion continuous iff the difference map is"."""
    refuted = dict(problems)
    return ("composition" in refuted or "inversion" in refuted) == ("difference" in refuted)


def component_ranks(M):
    """The free rank of each component of a presented groupoid, None where
    its vertex group is not certified free."""
    return tuple(e.rank for e in M.engines)


def pi1_rank(M):
    """The sum of `component_ranks`, or None when one of them is."""
    ranks = component_ranks(M)
    return None if None in ranks else sum(ranks)


def pi1_renamed(vertices, edges, name, **kw):
    """(M, back): `pi1_graph` of the graph with each vertex v renamed
    name[v], and the map taking M's objects, vertices and midpoints, back
    to the names of the graph as given."""
    M = pi1_graph([name[v] for v in vertices], [(name[u], name[v]) for u, v in edges], **kw)
    back, mid = {name[v]: v for v in vertices}, "mid({},{})".format
    for u, v in edges:
        back[mid(*sorted((name[u], name[v])))] = mid(*sorted((u, v)))
    return M, back


def tree_links(M, back=None):
    """The spanning forest's tree edges as unordered pairs of objects, each
    object taken through `back` when it is given."""
    back = back or {}
    return {frozenset(back.get(x, x) for x in M.graph.edges[e]) for e in M.forest.tree_edges}


# --------------------------------------------------------------- witness replay

def replay_violation(G, v):
    """Re-derive a reported violation directly from the tables."""
    k, w = v
    comp, src, tgt = G.compose, G.source, G.target
    if k == "identity-endpoint":
        x, e = w
        return src[e] != x or tgt[e] != x
    if k == "left-identity":
        (m,) = w
        return comp[(G.identity[src[m]], m)] != m
    if k == "right-identity":
        (m,) = w
        return comp[(m, G.identity[tgt[m]])] != m
    if k == "compose-missing":
        a, b = w
        return tgt[a] == src[b] and (a, b) not in comp
    if k == "compose-domain":
        a, b = w
        return (a, b) in comp and tgt[a] != src[b]
    if k == "compose-endpoint":
        a, b, c = w
        return comp[(a, b)] == c and (src[c] != src[a] or tgt[c] != tgt[b])
    if k == "associativity":
        a, b, c = w
        lhs = comp.get((comp[(a, b)], c))
        rhs = comp.get((a, comp[(b, c)]))
        return lhs is not None and rhs is not None and lhs != rhs
    if k == "inverse-endpoint":
        a, ai = w
        return G.inverse[a] == ai and (src[ai] != tgt[a] or tgt[ai] != src[a])
    if k == "inverse-law":
        a, side = w
        ai = G.inverse[a]
        if side == "left":
            return comp.get((a, ai)) != G.identity[src[a]]
        return comp.get((ai, a)) != G.identity[tgt[a]]
    if k in ("identity-missing", "inverse-missing", "dangling-reference"):
        return True  # structural; presence of the report is the fact
    raise AssertionError(f"unknown violation kind {k}")


# ------------------------------------------ product and subspace topologies

def product_topology(T1, T2):
    """Generated by open rectangles; U_(a, b) = U_a x U_b."""
    return FiniteTopology({(a, b): frozenset(itertools.product(ua, ub))
                           for a, ua in T1.neighborhoods.items()
                           for b, ub in T2.neighborhoods.items()})


def subspace_topology(T, subset):
    subset = frozenset(subset)
    if not subset <= set(T.points):
        raise ValueError(f"subset not contained in the points: {sorted(subset - set(T.points))[0]!r}")
    return FiniteTopology({p: T.neighborhoods[p] & subset for p in subset})


def composable_pairs(G) -> tuple:
    """Every pair (a, b) with target(a) = source(b), from the endpoint
    tables alone: the composition pullback's points."""
    return tuple(sorted((a, b) for a in G.morphisms for b in G.morphisms
                        if G.target[a] == G.source[b]))


def pullback_space(G, T_G, kind="composable"):
    """The pullback as a space: the subspace of T_G x T_G on the pairs."""
    if kind == "composable":
        pairs = composable_pairs(G)
    elif kind == "difference":
        pairs = difference_pairs(G)
    else:
        raise ValueError(f"unknown pullback kind: {kind!r}")
    if set(T_G.points) != set(G.morphisms):
        raise ValueError("topology points differ from the morphism set")
    return subspace_topology(product_topology(T_G, T_G), pairs)


# ------------------------------------------------- explicit-family reference

def _family_order(s):
    return (len(s), sorted(map(str, s)))


def explicit_topology(points, subbase):
    """Every open of the topology `subbase` generates on `points`, as an
    explicit family: closure under intersection, then under union."""
    seeds = {frozenset(s) for s in subbase} | {frozenset(points)}
    work = list(seeds)
    while work:
        cur = work.pop()
        for s in list(seeds):
            if cur & s not in seeds:
                seeds.add(cur & s)
                work.append(cur & s)
    fam = {frozenset()} | seeds
    work = list(fam)
    while work:
        cur = work.pop()
        for s in seeds:
            if cur | s not in fam:
                fam.add(cur | s)
                work.append(cur | s)
    return frozenset(fam)


def explicit_pullback(opens, pairs):
    """The subspace of the product topology on `pairs`, as an explicit
    family generated by the traces of the open rectangles."""
    return explicit_topology(pairs, {frozenset(ab for ab in pairs
                                               if ab[0] in o1 and ab[1] in o2)
                                     for o1 in opens for o2 in opens})


def scan_continuity(dom_points, dom_opens, cod_opens, fn):
    """Exhaustive preimage scan over explicit families: (open, preimage) for
    the first codomain open, in the order (size, sorted names), whose
    preimage is not open; None when every preimage is open."""
    dom_opens = set(dom_opens)
    for o in sorted(cod_opens, key=_family_order):
        pre = frozenset(p for p in dom_points if fn(p) in o)
        if pre not in dom_opens:
            return o, pre
    return None


def scan_pullback_continuity(pairs, pair_opens, cod_opens, fn):
    """The scan on a pullback: (open, ((a, b), (a2, b2))) where (a, b) is the
    first pair mapped into the open and (a2, b2) the first pair of its
    smallest open neighbourhood that is not; None when continuous."""
    found = scan_continuity(pairs, pair_opens, cod_opens, fn)
    if found is None:
        return None
    o, inside = found
    smallest = {ab: frozenset.intersection(*(s for s in pair_opens if ab in s))
                for ab in pairs}
    return o, next((ab, q) for ab in sorted(inside)
                   for q in sorted(smallest[ab]) if q not in inside)


def pullback_pointwise(pairs, factor, cod, fn):
    """`pullback_continuity` pair by pair, with no family listed: each pair
    gets its own neighbourhood (U_a x U_b) & pairs, and the first bad open
    is the least V_f(a, b) in (size, sorted names) that does not hold the
    image of its pair's neighbourhood.  (open, ((a, b), (a2, b2))) as the
    scan gives it, or None."""
    pairs, nb = frozenset(pairs), factor.neighborhoods
    around = {(a, b): frozenset(q for q in itertools.product(nb[a], nb[b]) if q in pairs)
              for a, b in pairs}
    values = {ab: cod.neighborhoods[fn(*ab)] for ab in pairs}
    bad = [values[ab] for ab, u in around.items() if any(fn(*q) not in values[ab] for q in u)]
    if not bad:
        return None
    o = min(bad, key=_family_order)
    inside = {ab for ab in pairs if fn(*ab) in o}
    return o, next((ab, q) for ab in sorted(inside)
                   for q in sorted(around[ab]) if q not in inside)
