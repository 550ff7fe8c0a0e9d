"""Independent oracles for every document kind.

Each check recomputes what the report must say from the document's raw
tables (never from the program and never from a stored copy of an earlier
output) and raises `Mismatch` on the first disagreement:

- finite clt-generate: opens counted from independently built basic
  neighbourhoods; every structure map tested pointwise on minimal
  neighbourhoods (f(U_p) inside V_f(p)), which is not how the program
  tests continuity;
- w-open: some basic neighbourhood of each element stays inside W;
- topology-check: the same pointwise continuity test per map, and each
  witness open replayed against the preimage it names;
- transported clt-generate: word classes and window opens counted on the
  integer-line model of the cycle's universal cover;
- pi1: rank |E| - |V| + 1 per connected component (union-find);
- monodromy: relator count from the raw table, vertex-group order |G|;
- star-cover: fibers from a breadth-first count of reduced words in the
  free group on the window, evaluated in Z/n or Z/m x Z/n;
- globalize: a relator-compatibility scan, and the obstruction replayed;
- corpus: the exit status recorded in the document's `_expect`.

`self_test` shows that every check rejects a deliberately wrong answer.
"""

from __future__ import annotations

import itertools
import re

from . import spaces

_VERDICT = {0: "pass", 1: "refuted", 2: "undecided"}
_MAPS = ("source", "target", "identity", "inversion", "composition", "difference")


class Mismatch(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


def _verdicts(report, code):
    expect(report is not None, f"exit {code} without a machine report")
    expect(report.get("verdict") == _VERDICT.get(code),
           f"verdict {report.get('verdict')!r} does not match exit {code}")
    return report["verdicts"]


def _same(verdicts, key, value):
    expect(verdicts.get(key) == value,
           f"{key}: report says {verdicts.get(key)!r}, oracle says {value!r}")


# ------------------------------------------------------------ groupoid maps

def _compose(G, a, b):
    return G.compose[(a, b)]


def basic_neighborhoods(G, cover, sections):
    """Every s_{x,i}(u)^-1 . a . s_{y,j}(v) set, keyed by (a, i, j)."""
    out = {}
    for a in G.morphisms:
        x, y = G.source[a], G.target[a]
        for (i, ui), (j, uj) in itertools.product(cover, cover):
            if x in ui and y in uj:
                si, sj = sections[(x, i)], sections[(y, j)]
                out[(a, i, j)] = frozenset(
                    _compose(G, _compose(G, G.inverse[si[u]], a), sj[v])
                    for u in ui for v in uj)
    return out


def continuity(G, nb_g, nb_x):
    """map name -> continuous?, by f(U_p) <= V_f(p) at every point."""
    def pointwise(points, nb_dom, nb_cod, f):
        return all(f(q) in nb_cod[f(p)] for p in points for q in nb_dom[p])

    def pullback(pairs_ok, f):
        mor = G.morphisms
        for a, b in itertools.product(mor, mor):
            if not pairs_ok(a, b):
                continue
            around = nb_g[f(a, b)]
            for a2 in nb_g[a]:
                for b2 in nb_g[b]:
                    if pairs_ok(a2, b2) and f(a2, b2) not in around:
                        return False
        return True

    composable = lambda a, b: G.target[a] == G.source[b]
    co_source = lambda a, b: G.source[a] == G.source[b]
    return {
        "source": pointwise(G.morphisms, nb_g, nb_x, G.source.__getitem__),
        "target": pointwise(G.morphisms, nb_g, nb_x, G.target.__getitem__),
        "identity": pointwise(G.objects, nb_x, nb_g, G.identity.__getitem__),
        "inversion": pointwise(G.morphisms, nb_g, nb_g, G.inverse.__getitem__),
        "composition": pullback(composable, lambda a, b: _compose(G, a, b)),
        "difference": pullback(co_source, lambda a, b: _compose(G, G.inverse[a], b)),
    }


def _check_maps(verdicts, cont):
    for name in _MAPS:
        _same(verdicts, f"{name}-continuous", cont[name])
    _same(verdicts, "difference-equivalence",
          (cont["composition"] and cont["inversion"]) == cont["difference"])


def _structure_is_valid(G, opens, cover, sections):
    """The generators build lawful structures; confirm it from the tables."""
    opens = set(opens)
    expect(all(u in opens for _, u in cover), "generator: cover member not open")
    for o in opens:
        for p in o:
            expect(any(p in u and u <= o for _, u in cover), "generator: cover not a base")
    for (x, i), tab in sections.items():
        expect(tab[x] == G.identity[x], "generator: section misses the identity")
        for u, m in tab.items():
            expect(G.source[m] == x and G.target[m] == u, "generator: section endpoints")


# ------------------------------------------------------------------ checks

def check_clt_generate(doc, code, report, err):
    f = doc.facts
    G = f["G"]
    _structure_is_valid(G, f["opens"], f["cover"], f["sections"])
    nbhds = basic_neighborhoods(G, f["cover"], f["sections"]).values()
    nb_g = spaces.minimal_nbhds(G.morphisms, nbhds)
    cont = continuity(G, nb_g, spaces.minimal_nbhds(f["points"], f["opens"]))
    expect(code == (0 if all(cont.values()) else 1), f"exit {code}")
    v = _verdicts(report, code)
    _same(v, "clt-valid", True)
    _same(v, "opens", spaces.count_opens(list(G.morphisms), nb_g))
    _check_maps(v, cont)
    _same(v, "all-maps-continuous", all(cont.values()))
    # the method's own guarantees for a valid structure
    _same(v, "base-compatible", True)
    _same(v, "refinement-law", True)


def check_w_open(doc, code, report, err):
    f = doc.facts
    W = f["W"]
    nbhds = basic_neighborhoods(f["G"], f["cover"], f["sections"])
    inside = {a for (a, _, _), n in nbhds.items() if a in W and n <= W}
    expect(code == (0 if inside == W else 1), f"exit {code}")
    v = _verdicts(report, code)
    _same(v, "w-open", inside == W)
    _same(v, "carrier-size", len(W))
    _same(v, "witnessed", len(inside))


def _parse_set(text):
    text = text.strip()
    expect(text.startswith("{") and text.endswith("}"), f"not a set: {text!r}")
    inner = text[1:-1]
    return frozenset(inner.split(", ")) if inner else frozenset()


_WITNESS = re.compile(r"^open (\{.*?\}) pulls back to (\{.*\}|None)$")


def _replay_witness(G, name, text, top_g, top_x, nb_g):
    """A witness open of the codomain whose preimage is not open."""
    m = _WITNESS.match(text)
    expect(m is not None, f"{name}: unreadable witness {text!r}")
    o = _parse_set(m.group(1))
    plain = {"source": (G.morphisms, top_g, top_x, G.source.__getitem__),
             "target": (G.morphisms, top_g, top_x, G.target.__getitem__),
             "identity": (G.objects, top_x, top_g, G.identity.__getitem__),
             "inversion": (G.morphisms, top_g, top_g, G.inverse.__getitem__)}
    if name in plain:
        points, dom, cod, f = plain[name]
        expect(o in set(cod), f"{name}: witness {set(o)} is not an open")
        pre = frozenset(p for p in points if f(p) in o)
        expect(m.group(2) != "None" and _parse_set(m.group(2)) == pre,
               f"{name}: witness preimage is not the preimage of {set(o)}")
        expect(pre not in set(dom), f"{name}: witness preimage is open")
        return
    expect(o in set(top_g), f"{name}: witness {set(o)} is not an open")
    if name == "composition":
        ok = lambda a, b: G.target[a] == G.source[b]
        f = lambda a, b: _compose(G, a, b)
    else:
        ok = lambda a, b: G.source[a] == G.source[b]
        f = lambda a, b: _compose(G, G.inverse[a], b)
    pairs = [(a, b) for a, b in itertools.product(G.morphisms, G.morphisms) if ok(a, b)]
    pre = {(a, b) for a, b in pairs if f(a, b) in o}
    expect(any(ok(a2, b2) and (a2, b2) not in pre
               for a, b in pre for a2 in nb_g[a] for b2 in nb_g[b]),
           f"{name}: preimage of the witness open {set(o)} is open")


def check_topology_check(doc, code, report, err):
    f = doc.facts
    G = f["G"]
    nb_g = spaces.minimal_nbhds(G.morphisms, f["top_g"])
    nb_x = spaces.minimal_nbhds(G.objects, f["top_x"])
    cont = continuity(G, nb_g, nb_x)
    expect(code == (0 if all(cont.values()) else 1), f"exit {code}")
    v = _verdicts(report, code)
    _same(v, "morphism_topology-valid", True)
    _same(v, "object_topology-valid", True)
    _check_maps(v, cont)
    witnesses = report["witnesses"]
    expect(set(witnesses) == {n for n in _MAPS if not cont[n]},
           f"witnesses for {sorted(witnesses)}")
    for name, text in witnesses.items():
        _replay_witness(G, name, text, f["top_g"], f["top_x"], nb_g)


def check_clt_transported(doc, code, report, err):
    """Word classes of the cycle's fundamental groupoid are (x, t): a base
    point and a winding displacement; the window keeps |t| <= depth."""
    f = doc.facts
    pts, cover, d = f["points"], f["cover"], f["depth"]
    k = len(pts)
    pos = {p: i for i, p in enumerate(pts)}

    def step(x, u):  # displacement of the section arrow x -> u
        delta = (pos[u] - pos[x]) % k
        return {0: 0, 1: 1, k - 1: -1}[delta]

    classes = [(x, t) for x in pts for t in range(-d, d + 1)]
    traces = []
    for x, t in classes:
        y = pts[(pos[x] + t) % k]
        for (_, ui), (_, uj) in itertools.product(cover, cover):
            if x in ui and y in uj:
                trace = {(u, t - step(x, u) + step(y, v)) for u in ui for v in uj}
                traces.append(frozenset(c for c in trace if abs(c[1]) <= d))
    nb = spaces.minimal_nbhds(classes, traces)
    around = [sum(1 for _, u in cover if x in u) for x in pts]
    comps = sum(n * (n - 1) // 2 for n in around)  # pairs of members about x
    expect(code == 0, f"exit {code}")
    v = _verdicts(report, code)
    for key, value in (("clt-valid", True), ("transported-sections-valid", True),
                       ("comp-satisfied", comps), ("comp-failed", 0),
                       ("subset-composition-closed", False), ("window-depth", d),
                       ("window-classes", len(classes)),
                       ("window-opens", spaces.count_opens(classes, nb)),
                       ("window-tokens-exact", True)):
        _same(v, key, value)


def check_pi1(doc, code, report, err):
    verts, edges = doc.facts["vertices"], doc.facts["edges"]
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, w in edges:
        parent[find(u)] = find(w)
    comp_v, comp_e = {}, {}
    for v in verts:
        comp_v[find(v)] = comp_v.get(find(v), 0) + 1
    for u, _ in edges:
        comp_e[find(u)] = comp_e.get(find(u), 0) + 1
    expect(code == 0, f"exit {code}")
    v = _verdicts(report, code)
    _same(v, "rank", len(edges) - len(verts) + len(comp_v))
    _same(v, "components", len(comp_v))
    seen = []
    for key in v:
        if not key.startswith("rank["):
            continue
        base = key[5:-1]
        mid = re.fullmatch(r"mid\((.+),(.+)\)", base)
        vertex = mid.group(1) if mid else base
        expect(vertex in parent, f"{key}: not a vertex or edge midpoint")
        root = find(vertex)
        seen.append(root)
        _same(v, key, comp_e.get(root, 0) - comp_v[root] + 1)
    expect(sorted(seen) == sorted(comp_v), "rank[...] entries do not match the components")


def check_monodromy(doc, code, report, err):
    f = doc.facts
    G = f["G"]
    relators = sum(1 for a, b in itertools.product(G.morphisms, G.morphisms)
                   if G.target[a] == G.source[b])
    expect(code in ((0, 2) if f["may_exhaust"] else (0,)), f"exit {code}")
    v = _verdicts(report, code)
    _same(v, "relators", relators)
    _same(v, "generates-ambient", True)
    groups = {k: x for k, x in v.items() if k.startswith("vertex-group[")}
    expect(len(groups) == 1, f"{len(groups)} vertex groups for a connected groupoid")
    (key, value), = groups.items()
    allowed = {f"finite order {f['order']}"} | ({"undecided"} if f["may_exhaust"] else set())
    expect(value in allowed, f"{key}: {value!r}, oracle allows {sorted(allowed)}")
    expect((value == "undecided") == (code == 2), f"exit {code} with {value!r}")


def star_fibers(moduli, depth):
    """Reduced words of length <= depth in the free group on the unit steps
    of Z/m (x Z/n), counted by the element they evaluate to."""
    letters = []
    for axis, _ in enumerate(moduli):
        for sign in (1, -1):
            letters.append((axis, sign))

    def name(elem):
        return ".".join(map(str, elem))

    zero = tuple(0 for _ in moduli)
    layer = {(zero, None): 1}
    fibers = {name(zero): 1}
    for _ in range(depth):
        nxt = {}
        for (elem, last), count in layer.items():
            for axis, sign in letters:
                if last == (axis, -sign):
                    continue
                e2 = list(elem)
                e2[axis] = (e2[axis] + sign) % moduli[axis]
                key = (tuple(e2), (axis, sign))
                nxt[key] = nxt.get(key, 0) + count
        for (elem, _), count in nxt.items():
            fibers[name(elem)] = fibers.get(name(elem), 0) + count
        layer = nxt
    return fibers


def check_star_cover(doc, code, report, err):
    moduli, d = doc.facts["moduli"], doc.facts["depth"]
    fibers = star_fibers(moduli, d)
    order = 1
    for m in moduli:
        order *= m
    surjective = len(fibers) == order
    expect(code == (0 if surjective else 2), f"exit {code}")
    v = _verdicts(report, code)
    got = {k[6:-1]: x for k, x in v.items() if k.startswith("fiber[")}
    expect(got == fibers, f"fibers differ from the free-group count at depth {d}")
    for key, value in (("reached", len(fibers)), ("surjective-within-depth", surjective),
                       ("depth", d), ("engine", "free"), ("fiber-counts-exact", True),
                       ("saturated", False)):
        _same(v, key, value)


def check_globalize(doc, code, report, err):
    n, H, fmap = doc.facts["n"], doc.facts["H"], doc.facts["map"]
    carrier = {int(a) for a in fmap}

    def bad(a, b):
        ab = (a + b) % n
        return ab in carrier and H.mul[(fmap[str(a)], fmap[str(b)])] != fmap[str(ab)]

    extends = not any(bad(a, b) for a, b in itertools.product(carrier, carrier))
    expect(code == (0 if extends else 1), f"exit {code}")
    v = _verdicts(report, code)
    _same(v, "extends", extends)
    if not extends:
        text = report["witnesses"].get("obstruction", "")
        m = re.fullmatch(r"\((\d+), (\d+), (\d+)\)", text)
        expect(m is not None, f"unreadable obstruction {text!r}")
        a, b, ab = map(int, m.groups())
        expect((a + b) % n == ab and bad(a, b), f"obstruction {text} does not replay")


def check_corpus(doc, code, report, err):
    expect(code == doc.facts["exit"], f"exit {code}, _expect says {doc.facts['exit']}")
    if code != 3:
        _verdicts(report, code)


def check_fault_missing_compose(doc, code, report, err):
    expect(code == 3, f"exit {code} on a groupoid with a missing composite (want 3)")
    expect("Traceback" not in err, "traceback on a missing composite")


def check_fault_composition_witness(doc, code, report, err):
    """The composition witness must name a pair (a, b) and a pair (a2, b2)
    in its neighbourhood whose product leaves the neighbourhood of ab."""
    G = doc.facts["G"]
    nb_g = spaces.minimal_nbhds(G.morphisms, doc.facts["top_g"])
    expect(code == 1, f"exit {code}")
    _verdicts(report, code)
    text = report["witnesses"].get("composition", "")
    names = re.findall("|".join(sorted(map(re.escape, G.morphisms), key=len, reverse=True)),
                       text)

    def offending(a, b, a2, b2):
        return (G.target[a] == G.source[b] and G.target[a2] == G.source[b2]
                and a2 in nb_g[a] and b2 in nb_g[b]
                and _compose(G, a2, b2) not in nb_g[_compose(G, a, b)])

    expect(any(offending(*names[i:i + 4]) for i in range(len(names) - 3)),
           f"composition witness {text!r} names no offending pair")


CHECKS = {
    "clt-generate": check_clt_generate,
    "w-open": check_w_open,
    "topology-check": check_topology_check,
    "clt-transported": check_clt_transported,
    "pi1": check_pi1,
    "monodromy": check_monodromy,
    "star-cover": check_star_cover,
    "globalize": check_globalize,
    "corpus": check_corpus,
    "fault-missing-compose": check_fault_missing_compose,
    "fault-composition-witness": check_fault_composition_witness,
}


def check(doc, code, report, err):
    """None when the output agrees with the oracle, else the disagreement."""
    try:
        CHECKS[doc.kind](doc, code, report, err)
    except Mismatch as e:
        return str(e)
    except (KeyError, TypeError, ValueError) as e:  # a malformed report
        return f"unexpected report shape: {type(e).__name__}: {e}"
    return None


# --------------------------------------------------------------- self-test

def _bump(key, delta=1):
    def mutate(code, report):
        report["verdicts"][key] += delta
        return code, report
    return mutate


def _flip(key):
    def mutate(code, report):
        report["verdicts"][key] = not report["verdicts"][key]
        return code, report
    return mutate


def _first_fiber(code, report):
    key = min(k for k in report["verdicts"] if k.startswith("fiber["))
    report["verdicts"][key] += 1
    return code, report


def _vertex_group(code, report):
    key = min(k for k in report["verdicts"] if k.startswith("vertex-group["))
    report["verdicts"][key] = "finite order 1"
    return code, report


def _other_exit(code, report):
    return (code + 1) % 4, report


# one deliberately wrong answer per kind, derived from a report that passed
WRONG_ANSWERS = {
    "clt-generate": _bump("opens"),
    "w-open": _bump("witnessed", -1),
    "topology-check": _flip("composition-continuous"),
    "clt-transported": _bump("window-opens"),
    "pi1": _bump("rank"),
    "monodromy": _vertex_group,
    "star-cover": _first_fiber,
    "globalize": _flip("extends"),
    "corpus": _other_exit,
}


def _unit_self_test():
    pts = ["a", "b", "c"]
    for opens, count in ((spaces.chain(pts), 4), (spaces.discrete(pts), 8),
                         (spaces.indiscrete(pts), 2), (spaces.pointed(pts), 3)):
        nb = spaces.minimal_nbhds(pts, opens)
        expect(spaces.count_opens(pts, nb) == count == len(spaces.list_opens(pts, nb)),
               "count_opens disagrees with a known topology")
    expect(star_fibers((5,), 2) == {"0": 1, "1": 1, "4": 1, "2": 1, "3": 1},
           "star_fibers disagrees with the integer line")
    expect(sum(star_fibers((5, 5), 8).values()) == 13121,
           "star_fibers disagrees with the free group of rank 2")


def self_test(samples):
    """samples: (doc, code, report, err) for outputs that passed their check.
    Returns a list of failures; empty means every oracle rejected its wrong
    answer."""
    import copy

    failures = []
    try:
        _unit_self_test()
    except Mismatch as e:
        failures.append(f"unit: {e}")
    for doc, code, report, err in samples:
        wrong = WRONG_ANSWERS.get(doc.kind)
        if wrong is None:
            continue
        code2, report2 = wrong(code, copy.deepcopy(report))
        if check(doc, code2, report2, err) is None:
            failures.append(f"{doc.kind}: accepted a wrong answer for {doc.name}")
    return failures
