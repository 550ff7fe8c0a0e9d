"""Words over a generating graph and the machinery that decides them.

A generating graph has named vertices and directed edges; a letter is a pair
(edge id, sign) and stands for the edge or its formal inverse.  A word is a
composable chain of letters anchored at a base vertex (so the empty word at a
vertex is representable).

The word-problem pipeline is:

  spanning forest (deterministic breadth-first, lexicographic edge order)
    -> collapse every relator into its base's component letter by letter,
       one generator per inverse pair of edges: a tree edge's letters and
       its partner's vanish, and an edge paired with a lesser one takes
       that one's inverse letters (each edge lies in exactly one component)
    -> eliminate generators that occur exactly once in some relator
       (records substitutions, so words can be canonicalized later); an
       index from each generator to the relators holding it means each
       elimination rewrites only the relators that contain its generator
    -> free normal forms if no relations survive, otherwise coset
       enumeration under an explicit row budget.

One record, `Presentation`, carries a presentation through every stage:
the collapse gives it with no eliminations, and simplification fills them
in.

Outcomes are three-valued: trivial, nontrivial with a certificate, or
undecided when the budget runs out and no free fallback applies.  Each
verdict is its own engine class, `FreeEngine`, `FiniteEngine` or
`UndecidedEngine`, with the same methods.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from collections.abc import Callable
from functools import cached_property, partial, reduce

from .core import Record

DEFAULT_BUDGET = 10000

Letter = tuple  # (edge id, +1 | -1)


class GeneratingGraph(Record):
    vertices: frozenset
    edges: dict  # edge id -> (src, tgt)


class Word(Record):
    letters: tuple
    base: str  # source vertex


def inv_letters(letters):
    return tuple((e, -s) for e, s in reversed(letters))


def free_reduce(letters):
    out = []
    for e, s in letters:
        if out and out[-1] == (e, -s):
            out.pop()
        else:
            out.append((e, s))
    return tuple(out)


def word_target(graph: GeneratingGraph, w: Word):
    if not w.letters:
        return w.base
    e, s = w.letters[-1]
    return graph.edges[e][s > 0]  # the edge's tgt, or its src for the inverse letter


class ForestComponent(Record):
    base: str
    vertices: frozenset
    tree_edges: frozenset
    paths: dict  # vertex -> Word from base


class Forest(Record):
    components: tuple
    vertex_component: dict
    tree_edges: frozenset  # union of the components' tree edges
    partner: dict          # edge -> the inverse edge it shares a generator with
    generators: tuple      # per component: the least edge of each pair off the tree, sorted
    images: dict           # letter -> its letters once the forest is contracted


def spanning_forest(graph: GeneratingGraph, partner: dict) -> Forest:
    """Breadth-first spanning forest.

    Deterministic: components rooted at their smallest vertex, neighbors
    explored in edge-id order, forward before backward, from one edge sort.

    `partner` pairs formal inverse edges both ways round.  A pair or lone
    edge is one generator, its least edge r: r's letters are their own
    images, a partner's are r's inverse letters, all are () if r is a tree
    edge.  Every tree edge is such an r, the least edge between its ends.
    """
    edges = sorted(graph.edges.items())
    incidence = {v: [] for v in graph.vertices}  # v -> (edge, sign, the far end)
    for e, (u, v) in edges:
        incidence[u].append((e, 1, v))
        incidence[v].append((e, -1, u))

    comps, vertex_component = [], {}
    for root in sorted(graph.vertices):
        if root in vertex_component:
            continue
        idx = len(comps)
        paths = {root: Word((), root)}
        tree = set()
        vertex_component[root] = idx
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for e, s, v in incidence[u]:
                if v in paths:
                    continue
                paths[v] = Word(paths[u].letters + ((e, s),), root)
                tree.add(e)
                vertex_component[v] = idx
                queue.append(v)
        comps.append(ForestComponent(base=root, vertices=frozenset(paths),
                                     tree_edges=frozenset(tree), paths=paths))
    tree_edges = frozenset().union(*(c.tree_edges for c in comps))
    gens, images = [[] for _ in comps], {}
    for e, (u, _) in edges:
        r = min(e, partner.get(e, e))
        s = 0 if e in tree_edges or r in tree_edges else 1 if r == e else -1  # 0: contracted
        images[e, 1], images[e, -1] = (((r, s),), ((r, -s),)) if s else ((), ())
        if s > 0:
            gens[vertex_component[u]].append(e)
    return Forest(components=tuple(comps), vertex_component=vertex_component, tree_edges=tree_edges,
                  partner=partner, generators=tuple(map(tuple, gens)), images=images)


class Presentation(Record):
    generators: tuple
    relations: tuple          # letter tuples over the generators
    eliminations: tuple = ()  # (gen, replacement letters), in order of application


def collapse_letters(forest: Forest, letters):
    """Image of a chain of letters after contracting the forest, letter by
    letter through `Forest.images`.  Freely reduced."""
    images = forest.images
    return free_reduce([x for letter in letters for x in images[letter]])


def cyclic_reduce(letters):
    letters = free_reduce(letters)
    while len(letters) >= 2 and letters[0] == (letters[-1][0], -letters[-1][1]):
        letters = free_reduce(letters[1:-1])
    return letters


def canonical_relator(letters):
    """Least rotation of the word or its inverse; used to dedupe relators."""
    candidates = []
    for w in (letters, inv_letters(letters)):
        for i in range(len(w) or 1):
            candidates.append(w[i:] + w[:i])
    return min(candidates) if candidates else ()


def collapse_presentation(relators, forest: Forest):
    """One `Presentation` per forest component, with no eliminations: its
    `Forest.generators` and the canonical collapses of the closed relators
    (base, letters) based in it, freely reduced or not."""
    rels = [set() for _ in forest.components]
    for base, letters in relators:
        w = cyclic_reduce(collapse_letters(forest, letters))
        if w:
            rels[forest.vertex_component[base]].add(canonical_relator(w))
    return tuple(Presentation(generators=g, relations=tuple(sorted(r)))
                 for g, r in zip(forest.generators, rels))


# ------------------------------------------------------------- simplification

def _substitute(letters, gen, repl):
    out = []
    for e, s in letters:
        if e == gen:
            out.extend(repl if s > 0 else inv_letters(repl))
        else:
            out.append((e, s))
    return free_reduce(tuple(out))


def _generator_counts(letters) -> dict:
    counts = {}
    for e, _ in letters:
        counts[e] = counts.get(e, 0) + 1
    return counts


def _lone_letter(r):
    """Index of the first letter of r whose generator occurs once in r, or None."""
    counts = _generator_counts(r)
    return next((i for i, (e, _) in enumerate(r) if counts[e] == 1), None)


def simplify_presentation(generators, relations) -> Presentation:
    """Eliminate generators that occur exactly once in some relation.

    Solving such a relation for its lone generator is a substitution that
    preserves the presented group; repeating it shrinks presentations like
    <g1, g4 | g1 g4, g4 g1> down to a free one, which is what lets a free
    rank be certified instead of guessed.  Relations are kept canonical
    (`canonical_relator` of a cyclically reduced word).  Each step solves
    the least relation, by (length, letters), that has a lone generator,
    at its first lone letter.  An index from each generator to the
    relations containing it, and a heap of the relations with a lone
    generator, confine the substitution and re-canonicalisation to the
    relations that contain the eliminated generator, as in Havas, Kenne,
    Richardson and Robertson (1984); every other relation is left as it is,
    which is what rewriting it would give.
    """
    gens = list(generators)
    rels, containing, lone = {}, {}, []  # word -> serial; gen -> {serial: word}
    serials = itertools.count()

    def add(w):
        if w and w not in rels:
            k = rels[w] = next(serials)
            counts = _generator_counts(w)
            for e in counts:
                containing.setdefault(e, {})[k] = w
            if 1 in counts.values():
                heapq.heappush(lone, (len(w), w))

    for r in relations:
        add(canonical_relator(cyclic_reduce(r)))
    eliminations = []
    while lone:
        _, r = heapq.heappop(lone)
        if r not in rels:
            continue  # replaced since it was pushed
        i = _lone_letter(r)
        g, s = r[i]
        u, v = r[:i], r[i + 1:]
        repl = (inv_letters(u) + inv_letters(v)) if s > 0 else (v + u)
        repl = free_reduce(repl)
        affected = containing.pop(g)
        for k, w in affected.items():
            del rels[w]
            for e in {e for e, _ in w} - {g}:
                del containing[e][k]
        for w in affected.values():
            if w != r:
                add(canonical_relator(cyclic_reduce(_substitute(w, g, repl))))
        gens.remove(g)
        eliminations.append((g, repl))
    return Presentation(generators=tuple(gens), relations=tuple(sorted(rels)),
                        eliminations=tuple(eliminations))


def rewrite_through(eliminations, letters):
    letters = free_reduce(letters)
    for g, repl in eliminations:
        letters = _substitute(letters, g, repl)
    return letters


# ---------------------------------------------------------- coset enumeration

class Exhausted(Record):
    budget: int
    rows_used: int


class CosetTable(Record):
    generators: tuple
    size: int
    action: dict          # gen -> tuple of images, the right action
    inverse_action: dict

    def follow(self, letters, start=0):
        c = start
        for e, s in letters:
            c = (self.action if s > 0 else self.inverse_action)[e][c]
        return c


class TokenTrie:
    """Freely reduced words interned as ints, for one search.

    Node 0 is the empty word, and every other node is a reduced word, kept
    as its parent (the word less its last letter) and that last letter.
    A letter's `stepper` either cancels a node's last letter, moving to
    the parent, or moves to the child in the letter's own dict keyed by
    node, made on first use, so a step builds no tuple.  Nodes and reduced
    words correspond one to one, and a node is one int to hash where its
    word is a tuple as long as itself."""

    def __init__(self):
        self.parent, self.last, self.steppers = [0], [None], {}

    def stepper(self, letter):
        """node -> the node of node's word and letter, reduced; one per letter."""
        step = self.steppers.get(letter)
        if step is None:
            parent, last, child, back = self.parent, self.last, {}, (letter[0], -letter[1])

            def step(node):
                if last[node] == back:
                    return parent[node]
                nxt = child.get(node)
                if nxt is None:
                    nxt = child[node] = len(parent)
                    parent.append(node)
                    last.append(letter)
                return nxt
            self.steppers[letter] = step
        return step

    def spelled(self) -> list:
        """Every node's reduced word, by node."""
        out = [()]
        for up, letter in zip(self.parent[1:], self.last[1:]):  # parents come first
            out.append(out[up] + (letter,))
        return out


class _Budget(Exception):
    pass


def coset_enumeration(gp, budget=DEFAULT_BUDGET):
    """Enumerate cosets of the trivial subgroup.

    Returns a CosetTable (the regular action; its size is the group order)
    or Exhausted once more than `budget` rows have been allocated.  Every
    generator is additionally traced against g g^-1, which forces the table
    to be total whenever the enumeration completes, so a completed table
    really is a permutation representation satisfying every relation.
    """
    gens = tuple(gp.generators)
    rel_words = list(gp.relations)
    ncols = 2 * len(gens)
    col = {}
    for i, g in enumerate(gens):
        col[(g, 1)] = 2 * i
        col[(g, -1)] = 2 * i + 1
    rels = [tuple(col[l] for l in w) for w in rel_words]
    for i in range(len(gens)):
        rels.append((2 * i, 2 * i + 1))  # g g^-1

    labels = []     # union-find
    neighbors = []  # per vertex: list of ncols ints, -1 for undefined

    def new_vertex():
        if len(labels) >= budget:
            raise _Budget
        labels.append(len(labels))
        neighbors.append([-1] * ncols)
        return len(labels) - 1

    def find(c):
        while labels[c] != c:
            labels[c] = labels[labels[c]]
            c = labels[c]
        return c

    def unify(a, b):
        stack = [(a, b)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            labels[b] = a
            na, nb = neighbors[a], neighbors[b]
            for k in range(ncols):
                if nb[k] == -1:
                    continue
                if na[k] == -1:
                    na[k] = nb[k]
                else:
                    stack.append((na[k], nb[k]))

    def step(c, k):
        c = find(c)
        d = neighbors[c][k]
        if d == -1:
            d = new_vertex()
            neighbors[c][k] = d
            neighbors[d][k ^ 1] = c
        return find(d)

    try:
        new_vertex()
        idx = 0
        while idx < len(labels):
            c = find(idx)
            if c == idx:
                for rel in rels:
                    d = c
                    for k in rel:
                        d = step(d, k)
                    unify(d, c)
            idx += 1
    except _Budget:
        return Exhausted(budget=budget, rows_used=len(labels))

    live = sorted({find(i) for i in range(len(labels))})
    index = {c: i for i, c in enumerate(live)}
    action, inverse_action = {}, {}
    for gi, g in enumerate(gens):
        fwd, bwd = [], []
        for c in live:
            d = neighbors[c][2 * gi]
            e = neighbors[c][2 * gi + 1]
            assert d != -1 and e != -1  # totality from the g g^-1 traces
            fwd.append(index[find(d)])
            bwd.append(index[find(e)])
        action[g] = tuple(fwd)
        inverse_action[g] = tuple(bwd)
    return CosetTable(generators=gens, size=len(live),
                      action=action, inverse_action=inverse_action)


# ------------------------------------------------------------------- verdicts

def _unmoved(node):
    """The one stepper of every empty image (an identity, a tree edge, a
    letter eliminated to the empty word)."""
    return node


class _Engine:
    """Normal forms for one collapsed vertex group, one class per verdict:
    `FreeEngine` (no relations survived simplification, or they enumerate
    to one row; tokens are free normal forms), `FiniteEngine` (two or more
    rows; tokens are coset indices) or `UndecidedEngine` (budget ran out,
    or a table read off a closed carrier shows that it would; tokens are
    still sound for equality but cannot certify inequality).  `kind` names
    the class in the star-cover report, and `verdict` is the text the
    monodromy report prints."""

    rank = order = None
    unit = ()     # the token of the empty word
    exact = True  # distinct tokens prove distinct elements

    def normal_letters(self, letters):
        return rewrite_through(self.simplified.eliminations, letters)

    def token(self, letters):
        """(token, exact).  Equal tokens always mean equal elements; when
        exact is False, distinct tokens prove nothing.  A token is the
        normal letters, or on a table the row they reach from row 0."""
        return self.normal_letters(letters), self.exact

    def stepper(self, image, trie):
        """node -> node stepped by normal letters: a `trie` node, or a table row."""
        if not image:
            return _unmoved
        steps = list(map(trie.stepper, image))  # a longer image steps letter by letter
        return steps[0] if len(steps) == 1 else partial(reduce, lambda n, step: step(n), steps)

    def is_trivial(self, letters):
        tok, exact = self.token(letters)
        if tok == self.unit:
            return True
        return False if exact else None


class FreeEngine(_Engine, Record):
    simplified: Presentation
    kind = "free"
    rank = property(lambda self: len(self.simplified.generators))
    order = property(lambda self: None if self.simplified.generators else 1)
    verdict = property(lambda self: f"free rank {self.rank}")


class FiniteEngine(_Engine, Record):
    simplified: Presentation  # a table read off a closed carrier keeps no relations
    table: CosetTable
    kind, unit = "finite", 0
    order = property(lambda self: self.table.size)
    verdict = property(lambda self: f"finite order {self.order}")

    def token(self, letters):
        return self.table.follow(self.normal_letters(letters)), True

    def stepper(self, image, trie):
        if not image:
            return _unmoved
        cols = [(self.table.action if s > 0 else self.table.inverse_action)[e] for e, s in image]
        return cols[0].__getitem__ if len(cols) == 1 else partial(self.table.follow, image)


class UndecidedEngine(_Engine, Record):
    # the simplified Presentation, or a function giving the collapsed one
    presentation: Presentation | Callable[[], Presentation]
    kind = verdict = "undecided"
    exact = False

    @cached_property
    def simplified(self) -> Presentation:
        """`presentation`, or what it gives simplified, on first use, so a verdict
        asked for no token never simplifies; a presentation is not callable."""
        p = self.presentation
        if not callable(p):
            return p
        vgp = p()
        return simplify_presentation(vgp.generators, vgp.relations)


def build_engine(vgp: Presentation, budget=DEFAULT_BUDGET) -> _Engine:
    simp = simplify_presentation(vgp.generators, vgp.relations)
    if not simp.relations:
        return FreeEngine(simp)
    table = coset_enumeration(simp, budget=budget)
    if isinstance(table, Exhausted):
        return UndecidedEngine(simp)
    if table.size == 1:  # a trivial group: every generator is the empty word
        return FreeEngine(Presentation((), (), (*simp.eliminations,
                                                *((g, ()) for g in simp.generators))))
    return FiniteEngine(simp, table)
