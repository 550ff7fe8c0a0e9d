"""DOT export of presented and plain groupoids.

Nodes are objects, one drawn edge per generator/inverse pair (the
lexicographically smaller id is the representative), spanning-tree edges
dashed, one cluster per connected component, and the graph label counts
generators and relators.  Ordering is fully deterministic so the text is
diffable and hashable.
"""

from __future__ import annotations

from .core import FiniteGroupoid, components
from .monodromy import MonodromyGroupoid


def _quote(s):
    escaped = str(s).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _render(label, clusters):
    """clusters: list of (vertices, edges) with edges (src, tgt, edge label,
    dashed); everything already sorted."""
    lines = ["digraph groupoid {", f"  label={_quote(label)};",
             "  node [shape=circle];"]
    for n, (vertices, edges) in enumerate(clusters):
        lines.append(f"  subgraph cluster_{n} {{")
        for v in vertices:
            lines.append(f"    {_quote(v)};")
        for src, tgt, name, dashed in edges:
            style = ", style=dashed" if dashed else ""
            lines.append(f"    {_quote(src)} -> {_quote(tgt)} "
                         f"[label={_quote(name)}, dir=none{style}];")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _paired_edges(edge_ends, pairs, tree):
    """One representative per pair of `pairs` (an edge -> its inverse edge),
    smaller id first; an edge paired with none represents itself."""
    out, seen = [], set()
    for e in sorted(edge_ends):
        partner = pairs.get(e, e)
        if partner in seen:
            continue
        seen.add(e)
        src, tgt = edge_ends[e]
        out.append((src, tgt, e, e in tree or partner in tree))
    return out


def export_dot(obj) -> str:
    """DOT text for a groupoid or a presented groupoid."""
    if isinstance(obj, MonodromyGroupoid):
        edges = _paired_edges(obj.graph.edges, obj.forest.partner, obj.forest.tree_edges)
        label = f"{len(edges)} generators, {len(obj.relators)} relators"
        comps = [sorted(c.vertices) for c in obj.forest.components]
        comps.sort(key=lambda vs: vs[0])
    elif isinstance(obj, FiniteGroupoid):
        ends = {m: (obj.source[m], obj.target[m])
                for m in obj.morphisms if not obj.is_identity(m)}
        edges = _paired_edges(ends, obj.inverse, frozenset())
        label = f"{len(obj.objects)} objects, {len(obj.morphisms)} morphisms"
        comps = components(obj)
    else:
        raise TypeError(f"cannot export {type(obj).__name__} as DOT")

    clusters = []
    for vs in comps:
        inside = set(vs)
        cluster_edges = sorted((e for e in edges if e[0] in inside),
                               key=lambda e: (str(e[0]), str(e[1]), str(e[2])))
        clusters.append((vs, cluster_edges))
    return _render(label, clusters)
