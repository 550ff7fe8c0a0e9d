"""Monodromy presentations over a finite groupoid.

Given a groupoid G and an inversion-closed subset W containing every
identity, the monodromy groupoid here is presented by one letter per
non-identity element of W and one relator a.b.(ab)^-1 for every pair
a, b in W whose ambient product is defined and lands back in W (identity
letters are erased, and 1.b.b^-1 and a.1.a^-1 are skipped).  Elements are
words; equality is decided by the word-problem engine per component.  The
collapse has one generator per inverse pair {a, a'} with a.a' and a'.a both
identities: the relator a.a' replaces a' by a^-1 (a Tietze move) and is
skipped.  A self-inverse t keeps its generator and its relator t.t.

When no product of two composable carrier elements leaves the carrier (W is
a subgroupoid), the relators are W's own multiplication table and the vertex
group at a component's base x is W(x,x).  Such a component is decided from
its defining triples (a, b, ab) alone, by a coset table read off W and
certified by one row per triple and a few whole-row checks that the
columns act regularly (`_table_engine`): a `FiniteEngine` below the
budget, an `UndecidedEngine` at or above it.  The collapse, read off each
defining triple's letters, and any simplification are built only on demand:
for `build_engine` (a carrier that is not closed, a trivial group, a failed
certificate), and for the first token asked of an undecided engine.
Relator Words are built only for the DOT export.

Two distinguished maps come with the construction: the universal map i~
sending each element of W to its one-letter word, and the evaluation map p
sending a word to its product in G.  `globalize` extends a map defined only
on W to the whole presented groupoid exactly when the map is compatible
with every relator, and returns the extension or the first triple it
breaks.  `star_covering_report` measures how far p is from a bijection on
stars, depth window by depth window, by the word classes over each star
element; distinct one-letter words need no search, as p(i~(a)) = a.
`pi1_graph` answers with the monodromy groupoid of a subdivided graph,
whose engines carry the free ranks.  The star report and the transported
window in `loctriv` share one breadth-first class search,
`enumerate_classes`, which stops at MAX_CLASSES classes.  It interns each
token (a coset-table row, or a `TokenTrie` node for a reduced word) and
steps it by one function per carrier letter, made once per search, so a
candidate costs one call and one probe on a small key.  A class is one
row of parallel lists: its key, its parent's row, the letter that reached
it and its value; words and tokens are spelled from the rows when read.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from functools import cached_property
from operator import itemgetter

from .core import FiniteGroupoid, Record, generated_by, pair_groupoid
from .words import (
    DEFAULT_BUDGET,
    CosetTable,
    FiniteEngine,
    Forest,
    GeneratingGraph,
    Presentation,
    TokenTrie,
    UndecidedEngine,
    Word,
    build_engine,
    collapse_letters,
    collapse_presentation,
    free_reduce,
    inv_letters,
    spanning_forest,
    word_target,
)


class MonodromyGroupoid(Record):
    ambient: FiniteGroupoid
    carrier: frozenset         # W: inversion-closed, every identity in it
    graph: GeneratingGraph
    relator_family: tuple      # (a, b, ab) triples, the defining family
    forest: Forest
    closed: bool               # no product of composable carrier elements leaves W
    budget: int

    @cached_property
    def generates_ambient(self) -> bool:
        """Does W generate G?  Decided on first read, which `pi1_graph` never
        makes; a closed carrier is its own closure."""
        G = self.ambient
        return self.carrier == G.morphisms if self.closed else generated_by(G, self.carrier)

    def _relator_letters(self, partner):
        """(base, letters of a.b.(ab)^-1) per triple, identity letters erased,
        unreduced, less those that reduce away and so add no relation: b b^-1
        (a an identity, ab == b), a a^-1 (b an identity, ab == a) and, given
        `partner`, a a' (a' == partner[a]).  The test reads the table, so one
        breaking the identity law keeps its relator."""
        G = self.ambient
        one = {a: () if G.is_identity(a) else ((a, 1),) for a in self.carrier}
        return ((G.source[a], one[a] + one[b] + (((ab, -1),) if one[ab] else ()))
                for a, b, ab in self.relator_family
                if not (ab == b and not one[a] or ab == a and not one[b]
                        or partner.get(a) == b))

    @cached_property
    def relators(self) -> tuple:
        """Closed Words a.b.(ab)^-1 that do not reduce away, one per triple
        in order, a.a' included; built on first use, for the DOT export."""
        words = ((base, free_reduce(letters)) for base, letters in self._relator_letters({}))
        return tuple(Word(w, base) for base, w in words if w)

    @cached_property
    def vertex_groups(self) -> tuple:
        """Presentation per component, collapsed from `_relator_letters`."""
        return collapse_presentation(self._relator_letters(self.forest.partner), self.forest)

    @cached_property
    def engines(self) -> tuple:
        """Per component: `_table_engine` on a closed carrier, else `build_engine`."""
        G, forest = self.ambient, self.forest
        triples = [self.relator_family]  # one component takes every triple
        if self.closed and len(forest.components) > 1:
            triples = [[] for _ in forest.components]
            for t in self.relator_family:
                triples[forest.vertex_component[G.source[t[0]]]].append(t)
        return tuple((self.closed and _table_engine(self, i, triples[i]))
                     or build_engine(self.vertex_groups[i], budget=self.budget)
                     for i in range(len(forest.components)))

    def component_of(self, x):
        return self.forest.vertex_component[x]

    def i_tilde(self, a) -> Word:
        """Universal map: one-letter word for a, empty word for an identity."""
        if a not in self.carrier:
            raise ValueError(f"not in the generating subset: {a!r}")
        return Word(() if self.ambient.is_identity(a) else ((a, 1),), self.ambient.source[a])

    def token(self, w: Word):
        """((src, tgt, class token), exact) for the word's class."""
        engine = self.engines[self.component_of(w.base)]
        tok, exact = engine.token(collapse_letters(self.forest, w.letters))
        return (w.base, word_target(self.graph, w), tok), exact

    def equal(self, w1: Word, w2: Word):
        """True / False / None (undecided at this budget)."""
        if (w1.base != w2.base
                or word_target(self.graph, w1) != word_target(self.graph, w2)):
            return False
        engine = self.engines[self.component_of(w1.base)]
        return engine.is_trivial(
            collapse_letters(self.forest, w1.letters + inv_letters(w2.letters)))


def build_monodromy(G: FiniteGroupoid, carrier, budget=DEFAULT_BUDGET) -> MonodromyGroupoid:
    """M(G, W) for W the carrier, which must be a set of morphisms holding
    every identity and closed under inverses (hard errors otherwise)."""
    carrier = frozenset(carrier)
    unknown = [m for m in carrier if m not in G.source]
    if unknown:
        raise ValueError(f"not a morphism: {min(unknown)!r}")
    for x in sorted(G.objects):
        if G.identity[x] not in carrier:
            raise ValueError(f"carrier misses the identity at {x!r}")
    ordered = sorted(carrier)
    for a in ordered:
        if G.inverse[a] not in carrier:
            raise ValueError(f"carrier not inversion-closed at {a!r}")
    edges = {a: (G.source[a], G.target[a]) for a in ordered if not G.is_identity(a)}
    graph = GeneratingGraph(vertices=frozenset(G.objects), edges=edges)

    by_src = {}
    for b in ordered:
        by_src.setdefault(G.source[b], []).append(b)
    family, closed, inverse = [], True, {}  # inverse: edge a -> b = G.inverse[a], a.b = 1 at u
    for a in ordered:
        u, a_inv = G.source[a], G.inverse[a]
        for b in by_src.get(G.target[a], ()):
            ab = G.compose[(a, b)]
            if ab in carrier:
                family.append((a, b, ab))
                if b == a_inv != a and ab == G.identity[u] and a in edges:
                    inverse[a] = b
            else:
                closed = False
    partner = {a: b for a, b in inverse.items() if inverse.get(b) == a}
    return MonodromyGroupoid(ambient=G, carrier=carrier, graph=graph, relator_family=tuple(family),
                             forest=spanning_forest(graph, partner), closed=closed, budget=budget)


def _table_engine(M: MonodromyGroupoid, i, triples):
    """The vertex group of component i of a composition-closed carrier, read
    off the carrier's own table and certified by the component's defining
    triples (a, b, ab); None leaves the component to `build_engine`.

    A generator e (`Forest.generators`), an edge u -> v, stands for the
    loop path(u) e path(v)^-1 at the base x, evaluated in G.  Row 0 is the
    identity at x, and the rows are its breadth-first orbit under right
    multiplication by each loop and then its inverse, in generator order.
    The table is kept only when it is certified: (A) the rows are exactly
    W(x,x); (B) each inverse action undoes its action; (C1) for rows r
    picked in order outside the orbit of row 0 under the maps picked so
    far, until that orbit is every row, the map c_r with c_r(0) = r and
    c_r(t) = col(c_r(s)), for the row s and column col that first reached
    t, commutes with every column; (C2) P(b)(P(a)(0)) = P(ab)(0) for every
    triple, P being a generator's action, its inverse action on the
    generator's partner, and the identity on identity arrows, tree edges
    and their partners.

    These decide the triple certificate (C), P(a) then P(b) is P(ab) on
    every row for every triple, without scanning a row per triple.  By (A)
    and (B) the columns are permutations, generating a group Q whose orbit
    of row 0 is every row.  A map commuting with each column commutes with
    Q, and any such map taking 0 to r is c_r; it is a bijection, as the
    stabilizer of s lies in that of c(s), which is no larger.  The
    centralizer of a transitive group is semiregular, since an element
    fixing one row fixes every q(row), so a pick outside the orbit of the
    group H of earlier picks at least doubles |H| = |H 0| <= n: there are
    at most floor(log2 n) + 1 picks, the last perhaps refused.  When (C1)
    passes the centralizer is transitive, so Q is regular (an element
    fixing 0 fixes c(0) for each c), a member of Q is fixed by its image
    of row 0, and each P(a) lies in Q: (C2) gives (C).  Conversely (C)
    makes Q regular (below), its centralizer is then regular, and each c_r
    is the element taking 0 to r, so (C1) and (C2) pass.  Beyond the
    breadth-first search that builds the table this costs O(|triples| +
    n |S| log n) for |S| generators, where (C) costs O(n |triples|).

    Under (C), once inverse actions are certified P is a homomorphism on
    free words, and reduction, rotation and inversion keep "fixes every
    row", so every collapsed relator fixes every row.  Then the rows carry
    a transitive action of the vertex group, with Q its image, which has
    at least n = |W(x,x)| elements.  It has at most n: a product of two
    composable letters is one letter, so the one-letter words from u to u
    with the empty word are a finite set closed under products, hence a
    subgroup, and each formal inverse a^-1 = inv(a) (a inv(a))^-1 is then
    a positive word, as is every word.  So the action is regular and the
    table is exact.  The argument uses only the checks of
    `validate_structure`, not associativity.  None is returned, too, when
    n is 1, which keeps the `FreeEngine` of rank 0 for a trivial group.

    A certified n >= budget gives an `UndecidedEngine`, which is the
    verdict `build_engine` reaches, because Haselgrove-Leech-Trotter
    enumeration (`coset_enumeration`) always wastes a row.  It allocates at
    most `budget` rows and frees none.  The group is finite and nontrivial,
    so some relation survives simplification, and every simplified
    relation is a rotation of a cyclically reduced word, hence freely
    reduced.  Tracing the first relation from row 0 of the empty table
    defines a new row at every letter, the last included: a fresh row has
    only the column back to the row before it, and the next letter, not
    being the inverse of the last, needs another.  The last new row is then
    merged into row 0.  A completed table of n rows has thus allocated
    n + 1 or more, which is more than the budget.  The engine simplifies
    `M.vertex_groups[i]` as `build_engine` does, so tokens and equality
    are unchanged, but only when a token is first asked for.
    """
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
        via = []  # per row after row 0: (its parent row, the column that first reached it)
        for r, g in enumerate(rows):  # grows while it is read: a breadth-first search
            for step, cols in zip(steps, columns):
                for m, col in zip(step, cols):
                    h = G.compose[(g, m)]
                    if h not in index:
                        index[h] = len(rows)
                        rows.append(h)
                        via.append((r, col))
                    col.append(index[h])
    except (KeyError, ValueError):  # a missing composite
        return None
    if set(rows) != members:  # (A)
        return None
    n, fixed = len(rows), tuple(range(len(rows)))  # two or more, so itemgetter gives tuples
    action = {e: tuple(f) for e, (f, _) in zip(generators, columns)}
    inverse_action = {e: tuple(b) for e, (_, b) in zip(generators, columns)}
    gathers = [itemgetter(*f) for f in action.values()]  # gathers[k](c): t -> c(f_k(t))
    if any(get(inverse_action[e]) != fixed for get, e in zip(gathers, generators)):  # (B)
        return None
    seen, orbit, picks = {0}, [0], []  # orbit: row 0's under the picks
    for r in range(1, n):  # (C1)
        if r in seen:
            continue
        c = [r]  # c_r: what a map commuting with the columns and taking 0 to r must be
        for up, col in via:
            c.append(col[c[up]])
        after = itemgetter(*c)  # after(f): t -> f(c(t))
        if any(get(c) != after(f) for get, f in zip(gathers, action.values())):
            return None
        picks.append(c)
        for g in orbit:  # grows while it is read
            for h in {q[g] for q in picks} - seen:
                seen.add(h)
                orbit.append(h)
    perm = defaultdict(lambda: fixed, action)  # P, as `Forest.images` reads the letters
    perm.update((p, inverse_action[r]) for r, p in M.forest.partner.items() if r in action)
    if any(perm[b][perm[a][0]] != perm[ab][0] for a, b, ab in triples):  # (C2)
        return None
    if len(rows) >= M.budget:
        return UndecidedEngine(lambda: M.vertex_groups[i])
    table = CosetTable(generators=generators, size=len(rows),
                       action=action, inverse_action=inverse_action)
    return FiniteEngine(Presentation(generators, ()), table)


class WordEvaluator(Record):
    """A morphism out of the presented groupoid, tabulated on generators."""

    target: FiniteGroupoid
    obj_map: dict
    gen_map: dict  # carrier element -> target morphism

    def evaluate(self, w: Word):
        H = self.target
        acc = H.identity[self.obj_map[w.base]]
        for e, s in w.letters:
            m = self.gen_map[e] if s > 0 else H.inverse[self.gen_map[e]]
            acc = H.compose[(acc, m)]
        return acc


def canonical_morphism(M: MonodromyGroupoid) -> WordEvaluator:
    """Evaluation in the ambient groupoid: a word maps to the product of its
    letters, so i~(a) goes back to a."""
    G = M.ambient
    return WordEvaluator(target=G, obj_map={x: x for x in G.objects},
                         gen_map={a: a for a in M.carrier})


def globalize(M: MonodromyGroupoid, f: dict, H: FiniteGroupoid) -> tuple:
    """Extend f: W -> H to the whole presented groupoid: (extension, None),
    the extension a `WordEvaluator`, or (None, obstruction).

    f must be given on W and nowhere else, and must respect sources,
    targets, identities and inversion there (hard errors otherwise).  A key
    off W has no value to check, even a morphism of G: the extension lives
    on the presented groupoid, where words with the same product in G may
    go to different images.  The extension exists iff f(a)f(b) = f(ab) for
    every defining triple; the first failing triple (a, b, ab), in sorted
    order, is the obstruction.  When it exists it is unique, being
    determined on the one-letter words.
    """
    G = M.ambient
    carrier = M.carrier
    missing = sorted(a for a in carrier if a not in f)
    if missing:
        raise ValueError(f"map not defined on {missing[0]!r}")
    extra = sorted((k for k in f if k not in carrier), key=str)
    if extra:
        raise ValueError(f"map given off the generating subset at {extra[0]!r}")
    obj_map = {}
    for x in sorted(G.objects):
        fe = f[G.identity[x]]
        if fe not in H.morphisms:
            raise ValueError(f"image not a morphism: {fe!r}")
        y = H.source[fe]
        if H.identity[y] != fe:
            raise ValueError(f"identity at {x!r} not sent to an identity")
        obj_map[x] = y
    for a in sorted(carrier):
        fa = f[a]
        if fa not in H.morphisms:
            raise ValueError(f"image not a morphism: {fa!r}")
        if H.source[fa] != obj_map[G.source[a]] or H.target[fa] != obj_map[G.target[a]]:
            raise ValueError(f"endpoints not preserved at {a!r}")
        if f[G.inverse[a]] != H.inverse[fa]:
            raise ValueError(f"inversion not preserved at {a!r}")
    for a, b, ab in M.relator_family:
        if H.compose[(f[a], f[b])] != f[ab]:
            return None, (a, b, ab)
    return WordEvaluator(target=H, obj_map=obj_map,
                         gen_map={a: f[a] for a in carrier}), None


MAX_CLASSES = 1 << 16  # word classes one breadth-first search may collect


class ClassSearch(Record):
    keys: list        # per class, in the order found: (base, target, node)
    parents: list     # per class: its parent's index, None at a root
    letters: list     # per class: the carrier letter that reached it, a root's identity
    values: list      # per class: its product in the ambient groupoid
    index: dict       # key -> its class's index
    moves: dict       # carrier element -> (its normal image, its engine)
    trie: TokenTrie   # spells the nodes of bases outside `rows`
    rows: frozenset   # bases whose node is a coset-table row
    exact: bool       # every token computed was decided
    saturated: bool   # the search closed before the window ended
    capped_at: int    # levels searched in full when MAX_CLASSES stopped it, else None

    @cached_property
    def classes(self) -> dict:
        """class token -> (first word found, its ambient value), in the
        order found; each word is its parent class's word and one letter."""
        spelled, words, out = self.trie.spelled(), [], {}
        for (base, y, node), up, a, val in zip(self.keys, self.parents, self.letters, self.values):
            words.append(Word(() if up is None else words[up].letters + ((a, 1),), base))
            out[base, y, node if base in self.rows else spelled[node]] = words[-1], val
        return out


def enumerate_classes(M: MonodromyGroupoid, roots, depth) -> ClassSearch:
    """Breadth-first search of the word classes within `depth` one-letter
    steps along the subset from the empty words at `roots`.

    A class is keyed by (base, target, node), its token interned: on a
    `FiniteEngine` the node is the token, a coset-table row, and on the
    others a `TokenTrie` node standing for the token, a reduced word.  Each
    carrier element's normal image is computed once, kept in `moves` with
    its engine, and each letter given one `stepper`, so a candidate is its
    parent's node stepped and no token is rebuilt from a word.  Tokens are
    homomorphic images of words, which is why that step is sound, here and
    in the transported window: a free or undecided token is the reduced
    image under the recorded eliminations, a substitution followed by free
    reduction is a homomorphism of free groups, and the trie reduces as it
    steps; a finite table's inverse columns undo its columns (a completed
    enumeration traces g g^-1 from every row, and a table read off the
    carrier is certified to), so following a word from a row gives the row
    its free reduction gives.  So no class is stepped by the partner
    (`Forest.partner`) of the letter that reached it, whose image is that
    letter's inverted: the step lands on the parent.  Classes are rows of
    parallel lists, from which `ClassSearch.classes` spells words and tokens
    when read.  The search stops, capped, when a new class turns up once
    MAX_CLASSES are known.
    """
    G, partner = M.ambient, M.forest.partner
    comps = {M.component_of(x) for x in roots}
    trie, moves, out = TokenTrie(), {}, {}  # out: object -> (a, its target, a's stepper)
    for a in sorted(a for a in M.carrier if M.component_of(G.source[a]) in comps):
        engine, identity = M.engines[M.component_of(G.source[a])], G.is_identity(a)
        image = () if identity else engine.normal_letters(collapse_letters(M.forest, ((a, 1),)))
        moves[a] = image, engine
        if not identity:
            out.setdefault(G.source[a], []).append((a, G.target[a], engine.stepper(image, trie)))
    engines = [M.engines[M.component_of(x)] for x in roots]
    # a node is its own token where the empty word's token is 0, the node a search starts at
    rows = frozenset(x for x, engine in zip(roots, engines) if engine.unit == 0)
    exact = all(engine.exact for engine in engines)
    keys = list(dict.fromkeys((x, x, 0) for x in roots))  # node 0: row 0, or the trie's root
    letters = [G.identity[x] for x, _, _ in keys]  # the empty word at x is i~(1_x)
    parents, values, index = [None] * len(keys), letters[:], {k: i for i, k in enumerate(keys)}
    found = (keys, parents, letters, values, index, moves, trie, rows, exact)
    compose, steps, start, levels = G.compose, {}, 0, 0  # steps: letter -> the steps after it
    while start < len(keys) and levels < depth:
        end = len(keys)
        for i in range(start, end):
            (base, _, node), reach, val = keys[i], letters[i], values[i]
            todo = steps.get(reach)
            if todo is None:  # reach's first use: the steps from its target, less its partner's
                back = partner.get(reach)
                todo = steps[reach] = [t for t in out.get(G.target[reach], ()) if t[0] != back]
            for a, y, step in todo:
                k = (base, y, step(node))
                if k in index:
                    continue
                if len(keys) >= MAX_CLASSES:
                    return ClassSearch(*found, False, levels)
                index[k] = len(keys)
                keys.append(k)
                parents.append(i)
                letters.append(a)
                values.append(compose[(val, a)])
        start, levels = end, levels + 1
    return ClassSearch(*found, start == len(keys), None)


class StarCoverReport(Record):
    object: str
    depth: int
    reached: dict             # ambient star element -> distinct classes over it
    surjective_within_depth: bool
    undecided_depth: tuple    # reachable, but not within the window
    unreachable: tuple        # not a product of subset elements at all
    saturated: bool           # breadth-first search closed before the window ended
    fiber_counts_exact: bool  # False when the engine is undecided
    engine_kind: str
    capped_at: int = None     # levels searched in full when the class cap hit


def star_covering_report(M: MonodromyGroupoid, x, depth) -> StarCoverReport:
    """How close the evaluation map p (`canonical_morphism`) is to a covering
    over the star at x, within a depth window.

    Counts distinct word classes over every reached star element, and
    separates "not reached yet" (deeper window needed, undecided) from
    "never reachable" (refutation).  Injectivity of p on translates needs no
    search: distinct a, b in W stay distinct as one-letter words because
    p(i~(a)) = a differs from p(i~(b)) = b, whatever the engine decides.
    """
    G = M.ambient
    if x not in G.objects:
        raise ValueError(f"unknown object: {x!r}")
    carrier = M.carrier
    engine = M.engines[M.component_of(x)]
    search = enumerate_classes(M, [x], depth)

    reached = dict(Counter(search.values))

    star = set(G.star(x))
    closure, frontier = set(), {G.identity[x]}
    while frontier:  # products of subset elements, grown one factor at a time
        closure |= frontier
        frontier = {G.compose[(g, a)] for g in frontier for a in carrier
                    if G.target[g] == G.source[a]} - closure
    unreachable = tuple(sorted(star - closure))
    undecided_depth = tuple(sorted((star & closure) - set(reached)))

    return StarCoverReport(
        object=x, depth=depth, reached=reached,
        surjective_within_depth=not undecided_depth and not unreachable,
        undecided_depth=undecided_depth, unreachable=unreachable,
        saturated=search.saturated,
        fiber_counts_exact=engine.exact,
        engine_kind=engine.kind, capped_at=search.capped_at)


def pi1_graph(vertices, edges, budget=DEFAULT_BUDGET) -> MonodromyGroupoid:
    """Fundamental-group data of a simple graph, as the monodromy groupoid
    of its subdivision: its objects are the vertices with the midpoints, and
    the rank of each component's engine is that component's free rank.

    Each edge is split at a midpoint before the pair groupoid and its
    adjacency subset are formed; splitting keeps |E| - |V| + #components
    intact and guarantees that no two-step product of adjacency pairs lands
    back in the subset: the relators are the backtracking ones, which only
    pair arrows with their inverses, so the vertex groups are free, decided here.
    """
    vertices = sorted(vertices)
    if len(set(vertices)) != len(vertices):
        raise ValueError("duplicate vertices")
    vset = set(vertices)
    seen = set()
    for e in edges:
        u, v = e
        if u not in vset or v not in vset:
            raise ValueError(f"edge endpoint not a vertex: {e!r}")
        if u == v:
            raise ValueError(f"loop edge not allowed: {e!r}")
        k = (min(u, v), max(u, v))
        if k in seen:
            raise ValueError(f"duplicate edge: {e!r}")
        seen.add(k)
    norm = sorted(seen)

    mids = {}  # midpoint name -> its edge
    for u, v in norm:
        m = f"mid({u},{v})"
        if m in vset:
            raise ValueError(f"vertex name collides with a midpoint: {m!r}")
        if m in mids:
            raise ValueError(f"midpoint names collide: edges {mids[m]!r} "
                             f"and {(u, v)!r} both give {m!r}")
        mids[m] = (u, v)
    allv = vertices + sorted(mids)
    G = pair_groupoid(allv)
    carrier = {G.identity[x] for x in allv}
    for m, (u, v) in mids.items():
        for a, b in ((u, m), (m, u), (v, m), (m, v)):
            carrier.add(f"({a},{b})")
    M = build_monodromy(G, carrier, budget=budget)
    M.engines  # decide every vertex group before returning
    return M
