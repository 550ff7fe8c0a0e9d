"""Seeded documents for the four workloads.

`build(workload, seed, root)` returns the documents one pass checks, each
with the command and flags it runs under and the raw facts its oracle
needs.  The same seed always gives the same documents.  The seed picks
names, section gauges, point orders, random topologies, group labellings,
edge orders, moduli and maps; the shapes (structures, covers, graphs and
sizes, the 2^16-open instance, Z/60, the depth-8 rank-2 window) are fixed,
so one pass costs about the same on every seed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

from . import spaces
from .tables import (
    Group,
    cyclic,
    dihedral,
    direct,
    group_groupoid,
    groupoid_doc,
    lt_doc,
    pair_groupoid,
    product_groupoid,
    quaternion,
    relabel,
    sym3,
    topology_doc,
)

WORKLOADS = ("clt-topology", "pi1-graphs", "monodromy-words", "corpus-cli")


@dataclass
class Doc:
    name: str          # unique within a workload; also the file stem
    command: str
    flags: tuple
    body: dict         # the JSON document, or None for a corpus file
    kind: str          # which oracle checks it
    facts: dict = field(default_factory=dict)
    known_fault: bool = False
    path: str = None   # set once the document is on disk

    def argv(self):
        return [self.command, self.path, *self.flags, "--format", "machine"]


def _names(rng, k, prefix):
    return [f"{prefix}{i}" for i in sorted(rng.sample(range(10, 100), k))]


# ----------------------------------------------------------- clt-topology

def _section_closure(G, sections):
    """Wide subgroupoid generated by the section values."""
    vals = set(G.identity.values())
    for tab in sections.values():
        vals.update(tab.values())
    frontier = list(vals)
    while frontier:
        fresh = set()
        for a in frontier:
            if G.inverse[a] not in vals:
                fresh.add(G.inverse[a])
            for b in list(vals):
                for c in (G.compose.get((a, b)), G.compose.get((b, a))):
                    if c is not None and c not in vals:
                        fresh.add(c)
        vals |= fresh
        frontier = list(fresh)
    return frozenset(vals)


def _shuffled(rng, items):
    items = list(items)
    rng.shuffle(items)
    return items


def _clt_pair(rng, label, k, make_top, cover):
    pts = _names(rng, k, "p")
    G = pair_groupoid(pts)
    return _clt(label, G, pts, make_top(_shuffled(rng, pts)),
                lambda x, u: f"({x},{u})", cover)


def _clt_product(rng, label, k, m, make_top, cover):
    objs = _names(rng, k, "o")
    G = product_groupoid(objs, cyclic(m))
    gauge = {x: rng.randrange(m) for x in objs}
    arrow = lambda x, u: f"{x}>{u}:{(gauge[u] - gauge[x]) % m}"
    return _clt(label, G, objs, make_top(_shuffled(rng, objs)), arrow, cover)


def _clt(label, G, pts, opens, arrow, cover):
    """cover: "minimal" (the minimal neighbourhoods) or "opens" (every
    nonempty open); either is a base, and Comp holds because the sections
    come from one global choice of arrows."""
    if cover == "minimal":
        family = set(spaces.minimal_nbhds(pts, opens).values())
    else:
        family = {o for o in opens if o}
    members = sorted(family, key=lambda s: (len(s), sorted(s)))
    cover = list(enumerate(members))
    sections = {(x, i): {u: arrow(x, u) for u in u_i}
                for i, u_i in cover for x in u_i}
    body = lt_doc(G, pts, opens, cover, sections)
    facts = {"G": G, "points": pts, "opens": opens, "cover": cover,
             "sections": sections}
    W = _section_closure(G, sections)
    wbody = dict(body, carrier=sorted(W))
    return [Doc(f"clt-{label}", "clt-generate", (), body, "clt-generate", facts),
            Doc(f"wopen-{label}", "w-open", (), wbody, "w-open", dict(facts, W=W))]


def _random_opens(rng, points, kind):
    if kind == "discrete":
        return spaces.discrete(points)
    if kind == "indiscrete":
        return spaces.indiscrete(points)
    subbase = [frozenset(p for p in points if rng.random() < 0.5)
               for _ in range(rng.randint(1, 3))]
    return spaces.list_opens(points, spaces.minimal_nbhds(points, subbase))


TC_SHAPES = ("pair2", "pair3", "prod2xZ2", "groupZ4", "groupS3", "prod2xZ3")


def _topology_check(rng, i):
    shape = TC_SHAPES[i % len(TC_SHAPES)]
    if shape.startswith("pair"):
        G = pair_groupoid(_names(rng, int(shape[-1]), "p"))
    elif shape == "prod2xZ2":
        G = product_groupoid(_names(rng, 2, "o"), cyclic(2))
    elif shape == "prod2xZ3":
        G = product_groupoid(_names(rng, 2, "o"), cyclic(3))
    elif shape == "groupZ4":
        G = group_groupoid(relabel(cyclic(4), rng))
    else:
        G = group_groupoid(relabel(sym3(), rng))
    objs = list(G.objects)
    mor = sorted(G.morphisms)
    top_x = _random_opens(rng, objs, rng.choice(["random", "random", "discrete", "indiscrete"]))
    kind = rng.choice(["random", "random", "random", "source", "indiscrete"])
    if kind == "source":  # the coarsest topology making the source map continuous
        top_g = sorted({frozenset(m for m in mor if G.source[m] in o) for o in top_x},
                       key=lambda s: (len(s), sorted(s)))
    else:
        top_g = _random_opens(rng, mor, kind)
    body = {"groupoid": groupoid_doc(G),
            "morphism_topology": topology_doc(mor, top_g),
            "object_topology": topology_doc(objs, top_x)}
    return Doc(f"tc-{i:02d}-{shape}", "topology-check", (), body, "topology-check",
               {"G": G, "top_g": top_g, "top_x": top_x})


def cycle_transport(rng, k=4, depth=4):
    """Pair groupoid on a k-cycle of points with the cycle's arrows as the
    generating subset (so the presented groupoid is infinite: Z per vertex),
    over a base space partitioned into adjacent pairs."""
    pts = _names(rng, k, "c")
    shift = rng.randrange(2)
    ring = pts[shift:] + pts[:shift]
    parts = [frozenset(ring[j:j + 2]) for j in range(0, k, 2)]
    G = pair_groupoid(pts)
    carrier = set(G.identity.values())
    for j in range(k):
        a, b = pts[j], pts[(j + 1) % k]
        carrier |= {f"({a},{b})", f"({b},{a})"}
    cover = list(enumerate(sorted(parts, key=sorted)))
    sections = {(x, i): {u: f"({x},{u})" for u in u_i}
                for i, u_i in cover for x in u_i}
    body = lt_doc(G, pts, spaces.blocks(pts, parts), cover, sections)
    body["carrier"] = sorted(carrier)
    return Doc(f"transport-cycle{k}-w{depth}", "clt-generate", ("--window", str(depth)),
               body, "clt-transported",
               {"points": pts, "cover": cover, "depth": depth})


def clt_topology(seed):
    rng = random.Random(f"clt-topology/{seed}")
    chain, blk, pointed = spaces.chain, spaces.blocks, spaces.pointed
    disc, indisc = spaces.discrete, spaces.indiscrete
    # the criterion-6 family; the cover of each instance is fixed, so that
    # a pass costs the same on every seed
    two_blocks = lambda p: blk(p, [p[:2], p[2:]])
    pair_shapes = (("pair2-chain", 2, chain, "minimal"), ("pair2-discrete", 2, disc, "opens"),
                   ("pair3-chain", 3, chain, "minimal"), ("pair3-discrete", 3, disc, "opens"),
                   ("pair3-blocks", 3, two_blocks, "minimal"),
                   ("pair3-pointed", 3, pointed, "opens"), ("pair4-chain", 4, chain, "minimal"),
                   ("pair4-blocks22", 4, two_blocks, "opens"),
                   ("pair4-blocks13", 4, lambda p: blk(p, [p[:1], p[1:]]), "minimal"),
                   ("pair4-pointed", 4, pointed, "opens"),
                   ("pair4-discrete-cap", 4, disc, "minimal"),  # the 2^16-open instance
                   ("pair5-chain", 5, chain, "opens"), ("pair5-blocks23", 5, two_blocks, "minimal"),
                   ("pair5-pointed", 5, pointed, "opens"),
                   ("pair5-indiscrete", 5, indisc, "minimal"))
    product_shapes = (("prod2xZ2-chain", 2, 2, chain, "opens"),
                      ("prod2xZ2-discrete", 2, 2, disc, "minimal"),
                      ("prod2xZ3-discrete", 2, 3, disc, "opens"),
                      ("prod2xZ3-chain", 2, 3, chain, "minimal"),
                      ("prod3xZ2-chain", 3, 2, chain, "opens"),
                      ("prod3xZ2-blocks", 3, 2, two_blocks, "minimal"),
                      ("prod3xZ3-pointed", 3, 3, pointed, "opens"),
                      ("prod4xZ2-blocks", 4, 2, two_blocks, "minimal"),
                      ("prod4xZ3-indiscrete", 4, 3, indisc, "opens"),
                      ("prod5xZ2-indiscrete", 5, 2, indisc, "minimal"))
    docs = []
    for label, k, top, cover in pair_shapes:
        docs += _clt_pair(rng, label, k, top, cover)
    for label, k, m, top, cover in product_shapes:
        docs += _clt_product(rng, label, k, m, top, cover)
    docs += [_topology_check(rng, i) for i in range(12)]
    docs.append(cycle_transport(rng))
    # the 2^16-open instance takes most of a pass: put it in the middle, so
    # the short documents are timed both before and after it
    cap = next(d for d in docs if d.name == "clt-pair4-discrete-cap")
    docs.remove(cap)
    docs.insert(len(docs) // 2, cap)
    return docs


# ------------------------------------------------------------- pi1-graphs

# (|V|, |E|, components): trees, forests with isolated vertices, sparse,
# dense and disconnected graphs, with |V| + |E| <= 33.  Each shape's graph
# is fixed, because its cost depends on its structure (the closure's
# diameter); the seed picks the vertex names and the order and orientation
# of the edges.
GRAPH_SHAPES = ((5, 4, 1), (8, 7, 1), (12, 11, 1), (16, 15, 1), (7, 3, 4),
                (13, 11, 3), (6, 9, 1), (8, 12, 1), (9, 24, 1), (10, 18, 2),
                (11, 16, 1), (12, 20, 1), (14, 18, 1), (15, 17, 1), (16, 16, 2))


def shape_graph(n, m, comps):
    """The fixed graph of a shape, on vertices 0..n-1."""
    rng = random.Random(f"pi1-graphs/shape/{n}-{m}-{comps}")
    verts = list(range(n))
    rng.shuffle(verts)
    parts = [verts[i::comps] for i in range(comps)]
    edges = []
    for part in parts:
        edges += [(part[rng.randrange(i)], part[i]) for i in range(1, len(part))]
    taken = {frozenset(e) for e in edges}
    pool = [(u, v) for part in parts for u, v in itertools.combinations(part, 2)
            if frozenset((u, v)) not in taken]
    rng.shuffle(pool)
    edges += pool[:m - len(edges)]
    if len(edges) != m:
        raise ValueError(f"graph shape {(n, m, comps)} has too few vertex pairs")
    return edges


def pi1_graphs(seed):
    rng = random.Random(f"pi1-graphs/{seed}")
    docs = []
    for n, m, c in GRAPH_SHAPES:
        names = _names(rng, n, "v")
        rng.shuffle(names)
        edges = [[names[u], names[v]] if rng.random() < 0.5 else [names[v], names[u]]
                 for u, v in shape_graph(n, m, c)]
        rng.shuffle(edges)
        verts = sorted(names)
        docs.append(Doc(f"graph-v{n}-e{m}-c{c}", "pi1", (),
                        {"vertices": verts, "edges": edges}, "pi1",
                        {"vertices": verts, "edges": edges}))
    return docs


# -------------------------------------------------------- monodromy-words

def _full_carrier(name, G, flags=(), order=None, may_exhaust=False):
    body = {"groupoid": groupoid_doc(G), "carrier": sorted(G.morphisms)}
    return Doc(name, "monodromy", tuple(flags), body, "monodromy",
               {"G": G, "order": order, "may_exhaust": may_exhaust})


def monodromy_words(seed):
    rng = random.Random(f"monodromy-words/{seed}")
    docs = []
    # fixed heavy instances: Z/60 decides, Z/48 at budget 40 runs out
    docs.append(_full_carrier("full-Z60", group_groupoid(cyclic(60)), order=60))
    docs.append(_full_carrier("full-Z48-budget40", group_groupoid(cyclic(48)),
                              ("--budget", "40"), order=48, may_exhaust=True))
    shapes = [("Z12", cyclic(12), 1), ("Z2xZ6", direct(cyclic(2), cyclic(6)), 1),
              ("D6", dihedral(6), 1), ("D4", dihedral(4), 1), ("Q8", quaternion(), 1),
              ("Z4xZ5", direct(cyclic(4), cyclic(5)), 1), ("Z24", cyclic(24), 1),
              ("P3xZ4", cyclic(4), 3), ("P2xS3", sym3(), 2)]
    for label, group, k in shapes:
        group = relabel(group, rng)
        G = group_groupoid(group) if k == 1 else product_groupoid(_names(rng, k, "o"), group)
        docs.append(_full_carrier(f"full-{label}", G, order=group.order))

    # rank-1 star covers: Z/n with the window {0, +1, -1}, depths around
    # the surjectivity threshold and well past it
    for n in sorted(rng.sample(range(4, 14), 6)):
        window = ["0", "1", str(n - 1)]
        body = {"groupoid": groupoid_doc(group_groupoid(cyclic(n))),
                "carrier": window, "object": "*"}
        for depth in sorted({max(1, n // 2 - 1), n // 2, n, 3 * n}):
            docs.append(Doc(f"star1-Z{n}-d{depth}", "star-cover", ("--depth", str(depth)),
                            body, "star-cover",
                            {"moduli": (n,), "depth": depth}))
    # rank-2 star covers: Z/m x Z/n with the unit window, up to depth 8
    m, n = rng.randint(4, 7), rng.randint(4, 7)
    group = direct(cyclic(m), cyclic(n))
    window = ["0.0", "1.0", f"{m - 1}.0", "0.1", f"0.{n - 1}"]
    body = {"groupoid": groupoid_doc(group_groupoid(group)),
            "carrier": window, "object": "*"}
    for depth in (2, 4, 6, 8):
        docs.append(Doc(f"star2-Z{m}xZ{n}-d{depth}", "star-cover", ("--depth", str(depth)),
                        body, "star-cover", {"moduli": (m, n), "depth": depth}))

    # globalize: Z/n windows {0, +-1} and {0, +-1, +-2} into small groups
    targets = [cyclic(k) for k in range(1, 13)] + [sym3(), dihedral(4), quaternion(),
                                                   dihedral(6), direct(cyclic(6), cyclic(2))]
    for i in range(10):
        wide = i % 2 == 1
        n = rng.randint(5, 9) if wide else rng.randint(3, 9)
        steps = (1, 2) if wide else (1,)
        H = rng.choice(targets)
        f = {"0": H.unit}
        for s in steps:
            h = rng.choice(H.names)
            f[str(s)], f[str(n - s)] = h, H.inv[h]
        if not wide and i == 0:  # one case compatible by construction
            f["1"], f[str(n - 1)] = H.unit, H.unit
        body = {"groupoid": groupoid_doc(group_groupoid(cyclic(n))),
                "carrier": sorted(f), "target": groupoid_doc(group_groupoid(H)),
                "map": f}
        docs.append(Doc(f"globalize-{i}-Z{n}-H{H.order}", "globalize", (), body,
                        "globalize", {"n": n, "H": H, "map": f}))
    return docs


# ------------------------------------------------------------- corpus-cli

def fault_documents():
    """Two fixed documents the program mishandles today (see README)."""
    G = pair_groupoid(["a", "b", "c"])
    missing = groupoid_doc(G)
    missing["compose"] = [t for t in missing["compose"]
                          if t[:2] != ["(a,b)", "(b,c)"]]
    d1 = Doc("fault-missing-compose", "monodromy", (),
             {"groupoid": missing, "carrier": sorted(G.morphisms)},
             "fault-missing-compose", known_fault=True)
    Z2 = Group(("e", "t"), {("e", "e"): "e", ("e", "t"): "t", ("t", "e"): "t",
                            ("t", "t"): "e"}, {"e": "e", "t": "t"}, "e")
    H = group_groupoid(Z2)
    top_g = [frozenset(), frozenset({"e"}), frozenset({"e", "t"})]
    top_x = [frozenset(), frozenset({"*"})]
    d2 = Doc("fault-composition-witness", "topology-check", (),
             {"groupoid": groupoid_doc(H),
              "morphism_topology": topology_doc(H.morphisms, top_g),
              "object_topology": topology_doc(H.objects, top_x)},
             "fault-composition-witness", {"G": H, "top_g": top_g, "top_x": top_x},
             known_fault=True)
    return [d1, d2]


def corpus_cli(seed, root):
    rng = random.Random(f"corpus-cli/{seed}")
    docs = []
    for path in sorted((root / "corpus").glob("*.json")):
        expect = json.loads(path.read_text(encoding="utf-8"))["_expect"]
        doc = Doc(f"corpus-{path.stem}", expect["command"], tuple(expect["flags"]),
                  None, "corpus", {"exit": expect["exit"]})
        doc.path = str(path)
        docs.append(doc)
    if not docs:
        raise FileNotFoundError(f"no corpus documents under {root / 'corpus'}")
    docs += fault_documents()
    rng.shuffle(docs)
    return docs


def build(workload, seed, root):
    if workload == "clt-topology":
        return clt_topology(seed)
    if workload == "pi1-graphs":
        return pi1_graphs(seed)
    if workload == "monodromy-words":
        return monodromy_words(seed)
    if workload == "corpus-cli":
        return corpus_cli(seed, root)
    raise ValueError(f"unknown workload {workload!r}")


def write_documents(docs, directory):
    """Write every generated document; corpus files are used in place."""
    directory.mkdir(parents=True, exist_ok=True)
    for doc in docs:
        if doc.body is None:
            continue
        path = directory / f"{doc.name}.json"
        path.write_text(json.dumps(doc.body, sort_keys=True), encoding="utf-8")
        doc.path = str(path)
