"""Raw group and groupoid tables, and the JSON documents built from them.

Nothing here imports the program under test.  Groups come from explicit
multiplication rules and groupoids are plain dictionaries, so the same
tables serve the document generators and the oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


# ---------------------------------------------------------------- groups

@dataclass(frozen=True)
class Group:
    names: tuple   # element names, in construction order
    mul: dict      # (a, b) -> ab
    inv: dict      # a -> a^-1
    unit: str

    @property
    def order(self):
        return len(self.names)


def table_from_mul(elems, mul_fn, name_fn=str) -> Group:
    names = [name_fn(e) for e in elems]
    if len(set(names)) != len(names):
        raise ValueError("element names collide")
    by_name = dict(zip(names, elems))
    mul = {(a, b): name_fn(mul_fn(by_name[a], by_name[b]))
           for a, b in itertools.product(names, names)}
    unit = next(e for e in names
                if all(mul[(e, a)] == a and mul[(a, e)] == a for a in names))
    inv = {a: next(b for b in names if mul[(a, b)] == unit) for a in names}
    return Group(tuple(names), mul, inv, unit)


def cyclic(n) -> Group:
    return table_from_mul(range(n), lambda a, b: (a + b) % n)


def direct(g1: Group, g2: Group) -> Group:
    elems = list(itertools.product(g1.names, g2.names))
    return table_from_mul(
        elems, lambda a, b: (g1.mul[(a[0], b[0])], g2.mul[(a[1], b[1])]),
        name_fn=lambda e: f"{e[0]}.{e[1]}")


def sym3() -> Group:
    perms = list(itertools.permutations(range(3)))
    return table_from_mul(perms, lambda p, q: tuple(q[p[i]] for i in range(3)),
                          name_fn=lambda p: "".join(map(str, p)))


def dihedral(n) -> Group:
    """Order 2n: r^i s^j with s r = r^-1 s."""
    elems = list(itertools.product(range(n), range(2)))
    return table_from_mul(
        elems,
        lambda a, b: ((a[0] + (b[0] if a[1] == 0 else -b[0])) % n, (a[1] + b[1]) % 2),
        name_fn=lambda e: f"r{e[0]}s{e[1]}")


def quaternion() -> Group:
    units = {"1": (1, 0, 0, 0), "-1": (-1, 0, 0, 0), "i": (0, 1, 0, 0),
             "-i": (0, -1, 0, 0), "j": (0, 0, 1, 0), "-j": (0, 0, -1, 0),
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


def relabel(group: Group, rng, prefix="g") -> Group:
    """The same group under fresh, randomly assigned element names."""
    order = list(group.names)
    rng.shuffle(order)
    new = {a: f"{prefix}{i}" for i, a in enumerate(order)}
    return Group(tuple(new[a] for a in group.names),
                 {(new[a], new[b]): new[c] for (a, b), c in group.mul.items()},
                 {new[a]: new[b] for a, b in group.inv.items()},
                 new[group.unit])


# -------------------------------------------------------------- groupoids

@dataclass(frozen=True)
class Groupoid:
    objects: tuple
    source: dict
    target: dict
    identity: dict
    inverse: dict
    compose: dict   # (a, b) -> ab for every composable pair

    @property
    def morphisms(self):
        return tuple(self.source)


def group_groupoid(group: Group, obj="*") -> Groupoid:
    return Groupoid(objects=(obj,),
                    source={a: obj for a in group.names},
                    target={a: obj for a in group.names},
                    identity={obj: group.unit},
                    inverse=dict(group.inv),
                    compose=dict(group.mul))


def product_groupoid(objects, group: Group) -> Groupoid:
    """Connected groupoid on `objects` with vertex group `group`: arrows
    x>y:g compose as x>y:g . y>z:h = x>z:gh."""
    name = lambda x, y, g: f"{x}>{y}:{g}"
    source, target, inverse, compose = {}, {}, {}, {}
    for x, y, g in itertools.product(objects, objects, group.names):
        m = name(x, y, g)
        source[m], target[m] = x, y
        inverse[m] = name(y, x, group.inv[g])
    for x, y, z in itertools.product(objects, objects, objects):
        for g, h in itertools.product(group.names, group.names):
            compose[(name(x, y, g), name(y, z, h))] = name(x, z, group.mul[(g, h)])
    return Groupoid(objects=tuple(objects), source=source, target=target,
                    identity={x: name(x, x, group.unit) for x in objects},
                    inverse=inverse, compose=compose)


def pair_groupoid(points) -> Groupoid:
    """One arrow (x,y) between any two points."""
    name = lambda x, y: f"({x},{y})"
    pts = list(points)
    source, target, inverse = {}, {}, {}
    for x, y in itertools.product(pts, pts):
        source[name(x, y)], target[name(x, y)] = x, y
        inverse[name(x, y)] = name(y, x)
    compose = {(name(x, y), name(y, z)): name(x, z)
               for x, y, z in itertools.product(pts, pts, pts)}
    return Groupoid(objects=tuple(pts), source=source, target=target,
                    identity={x: name(x, x) for x in pts},
                    inverse=inverse, compose=compose)


# ------------------------------------------------------------- documents

def groupoid_doc(G: Groupoid) -> dict:
    return {
        "objects": list(G.objects),
        "morphisms": [{"id": m, "src": G.source[m], "tgt": G.target[m]}
                      for m in G.morphisms],
        "identities": dict(G.identity),
        "inverses": dict(G.inverse),
        "compose": [[a, b, ab] for (a, b), ab in G.compose.items()],
    }


def topology_doc(points, opens) -> dict:
    return {"points": list(points),
            "opens": [sorted(o) for o in sorted(opens, key=lambda s: (len(s), sorted(s)))]}


def lt_doc(G: Groupoid, base_points, base_opens, cover, sections) -> dict:
    """A local-trivialization document; `cover` is [(index, members)] and
    `sections` maps (x, index) to {u: arrow x -> u}."""
    return {
        "groupoid": groupoid_doc(G),
        "base_space": topology_doc(base_points, base_opens),
        "cover": [[i, sorted(u)] for i, u in cover],
        "sections": [[x, i, [[u, tab[u]] for u in sorted(tab)]]
                     for (x, i), tab in sorted(sections.items())],
    }
