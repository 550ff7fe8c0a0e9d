"""JSON interchange: parse and serialize the document families the CLI
consumes, with a canonical rendering for reproducible fingerprints.

Parsing enforces document *shape* and referential integrity (every name a
document mentions must be declared inside it) and raises DocumentError with
a field path.  Semantic laws — composition tables being total, families
being topologies, section tables being compatible — are left to the
checkers, so a well-shaped document describing a broken structure parses
fine and fails its check with a witness instead.

Each parser decides a well-formed document in bulk: comprehensions build
its tables, and type-set and set-containment tests stand for the checks of
every entry.  Only when a bulk test fails does the per-entry loop run, and
it raises on the first fault with its field path, so the messages are the
loop's.  A document the bulk tests are unsure of (a subclass of str, say)
goes the loop's way too, and comes out the same.

Keys beginning with an underscore are reserved for annotations and ignored
(corpus files use "_expect" to pin their exit status).

Canonical form: JSON with sorted keys, no insignificant whitespace, and all
set-like collections sorted; fingerprints are the SHA-256 of that text.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain

from .core import FiniteGroupoid
from .loctriv import LocalTrivialization, local_trivialization
from .topology import FiniteTopology, topology


class DocumentError(Exception):
    """A document failed to parse; the message names the field at fault."""


def load_document(path) -> dict:
    def unique(pairs):  # JSON would keep the last of a repeated key, unnoticed
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise DocumentError(f"{path}: repeated key {key!r}")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=unique)
    except RecursionError as e:
        raise DocumentError(f"{path}: nested too deeply") from e
    except OSError as e:
        raise DocumentError(f"{path}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise DocumentError(f"{path}: not UTF-8 at byte {e.start}") from e
    except json.JSONDecodeError as e:
        raise DocumentError(
            f"{path}: line {e.lineno}, column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: top level must be an object")
    return doc


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def fingerprint(doc) -> str:
    return hashlib.sha256(canonical(doc).encode("utf-8")).hexdigest()


def _require(doc, field, kind, where):
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected object")
    if field not in doc:
        raise DocumentError(f"{where}: missing field {field!r}")
    value = doc[field]
    if not isinstance(value, kind):
        raise DocumentError(f"{where}.{field}: expected {kind.__name__}")
    return value


def _strings(items, where):
    out = []
    for i, s in enumerate(items):
        if not isinstance(s, str):
            raise DocumentError(f"{where}[{i}]: expected string")
        out.append(s)
    return out


def _distinct(items, where, what):
    """The strings of `items` as a set; a repeated one is named."""
    seen = set()
    for i, s in enumerate(_strings(items, where)):
        if s in seen:
            raise DocumentError(f"{where}[{i}]: duplicate {what} {s!r}")
        seen.add(s)
    return seen


def _all_are(items, kind) -> bool:
    """Is every item of exactly this type?  One C-level pass."""
    return set(map(type, items)) <= {kind}


def _name_set(items):
    """`items` as a set when it is a list of distinct strings, else None."""
    if type(items) is list and _all_are(items, str):
        names = frozenset(items)
        if len(names) == len(items):
            return names
    return None


# ------------------------------------------------------------- groupoids

def parse_groupoid(doc, where="groupoid") -> FiniteGroupoid:
    G = _groupoid_in_bulk(doc)
    return G if G is not None else _groupoid_by_entry(doc, where)


def _groupoid_in_bulk(doc):
    """The groupoid of a well-formed document, or None when a bulk test
    fails.  A list of compose triples must be lists of length 3 before
    they are unpacked, or the string "abc" would pass as one."""
    if type(doc) is not dict:
        return None
    objects = _name_set(doc.get("objects"))
    morphisms, identities, inverses, triples = (
        doc.get(k) for k in ("morphisms", "identities", "inverses", "compose"))
    if not (objects is not None and type(morphisms) is list and type(identities) is dict
            and type(inverses) is dict and type(triples) is list
            and _all_are(morphisms, dict) and _all_are(triples, list)
            and set(map(len, triples)) <= {3}):
        return None
    try:
        source = {m["id"]: m["src"] for m in morphisms}
        target = {m["id"]: m["tgt"] for m in morphisms}
        compose = {(a, b): ab for a, b, ab in triples}
        known = source.keys()
        if not (len(source) == len(morphisms) and _all_are(source, str)
                and objects.issuperset(source.values())
                and objects.issuperset(target.values())
                and identities.keys() <= objects and known >= set(identities.values())
                and known >= inverses.keys() and known >= set(inverses.values())
                and len(compose) == len(triples)
                and known >= set(chain.from_iterable(triples))):
            return None
    except (KeyError, TypeError):  # a missing field, or an unhashable name
        return None
    return FiniteGroupoid(objects=objects, source=source, target=target,
                          identity=dict(identities), inverse=dict(inverses),
                          compose=compose)


def _groupoid_by_entry(doc, where):
    """The groupoid, checking one entry at a time; raises on the first
    fault with its field path."""
    objects = _distinct(_require(doc, "objects", list, where), f"{where}.objects", "object")
    morphisms = _require(doc, "morphisms", list, where)
    source, target = {}, {}
    for i, m in enumerate(morphisms):
        spot = f"{where}.morphisms[{i}]"
        if not isinstance(m, dict):
            raise DocumentError(f"{spot}: expected object")
        mid = _require(m, "id", str, spot)
        if mid in source:
            raise DocumentError(f"{spot}: duplicate morphism id {mid!r}")
        src, tgt = _require(m, "src", str, spot), _require(m, "tgt", str, spot)
        if src not in objects:
            raise DocumentError(f"{spot}: src {src!r} is not a declared object")
        if tgt not in objects:
            raise DocumentError(f"{spot}: tgt {tgt!r} is not a declared object")
        source[mid], target[mid] = src, tgt

    def known(mid, spot):
        if not isinstance(mid, str):
            raise DocumentError(f"{spot}: expected string")
        if mid not in source:
            raise DocumentError(f"{spot}: unknown morphism {mid!r}")
        return mid

    identity = {}
    for x, m in _require(doc, "identities", dict, where).items():
        if x not in objects:
            raise DocumentError(f"{where}.identities: unknown object {x!r}")
        identity[x] = known(m, f"{where}.identities[{x!r}]")
    inverse = {}
    for a, b in _require(doc, "inverses", dict, where).items():
        inverse[known(a, f"{where}.inverses")] = known(b, f"{where}.inverses[{a!r}]")
    compose = {}
    for i, triple in enumerate(_require(doc, "compose", list, where)):
        spot = f"{where}.compose[{i}]"
        if not (isinstance(triple, list) and len(triple) == 3):
            raise DocumentError(f"{spot}: expected [a, b, ab]")
        a, b, ab = (known(m, spot) for m in triple)
        if (a, b) in compose:
            raise DocumentError(f"{spot}: duplicate pair ({a!r}, {b!r})")
        compose[(a, b)] = ab
    return FiniteGroupoid(objects=frozenset(objects), source=source,
                          target=target, identity=identity, inverse=inverse,
                          compose=compose)


def serialize_groupoid(G: FiniteGroupoid) -> dict:
    return {
        "objects": sorted(G.objects),
        "morphisms": [{"id": m, "src": G.source[m], "tgt": G.target[m]}
                      for m in sorted(G.morphisms)],
        "identities": {x: G.identity[x] for x in sorted(G.objects)},
        "inverses": {a: G.inverse[a] for a in sorted(G.inverse)},
        "compose": [[a, b, ab] for (a, b), ab in sorted(G.compose.items())],
    }


def parse_carrier(doc, G: FiniteGroupoid, where="document") -> frozenset:
    names = _strings(_require(doc, "carrier", list, where), f"{where}.carrier")
    for i, m in enumerate(names):
        if m not in G.morphisms:
            raise DocumentError(f"{where}.carrier[{i}]: unknown morphism {m!r}")
    return frozenset(names)


# ------------------------------------------------------------- topologies

def parse_topology_family(doc, where="topology"):
    """(points, family) without deciding whether the family is a topology."""
    family = _family_in_bulk(doc)
    return family if family is not None else _family_by_entry(doc, where)


def _family_in_bulk(doc):
    """(points, family) of a well-formed document, or None when a bulk test
    fails.  An open must be a list, or the string "01" would pass as one."""
    if type(doc) is not dict:
        return None
    known, opens = _name_set(doc.get("points")), doc.get("opens")
    if not (known is not None and type(opens) is list and _all_are(opens, list)
            and _all_are(chain.from_iterable(opens), str)
            and known.issuperset(chain.from_iterable(opens))):
        return None
    return list(doc["points"]), [frozenset(o) for o in opens]


def _family_by_entry(doc, where):
    """(points, family), checking one entry at a time; raises on the first
    fault with its field path."""
    points = _require(doc, "points", list, where)
    known = _distinct(points, f"{where}.points", "point")
    opens = []
    for i, o in enumerate(_require(doc, "opens", list, where)):
        spot = f"{where}.opens[{i}]"
        if not isinstance(o, list):
            raise DocumentError(f"{spot}: expected list of points")
        for p in _strings(o, spot):
            if p not in known:
                raise DocumentError(f"{spot}: unknown point {p!r}")
        opens.append(frozenset(o))
    return list(points), opens


def parse_topology(doc, where="topology") -> FiniteTopology:
    points, opens = parse_topology_family(doc, where)
    try:
        return topology(points, opens)
    except ValueError as e:
        raise DocumentError(f"{where}: {e}") from e


def serialize_topology(T: FiniteTopology) -> dict:
    return {"points": sorted(map(str, T.points)),
            "opens": sorted((sorted(map(str, o)) for o in T.opens),
                            key=lambda o: (len(o), o))}


# ----------------------------------------------------------------- graphs

def parse_graph(doc, where="graph"):
    """(vertices, edges) for a fundamental-groupoid run: a simple graph."""
    vertices = _distinct(_require(doc, "vertices", list, where), f"{where}.vertices", "vertex")
    if not vertices:
        raise DocumentError(f"{where}.vertices: expected at least one vertex")
    edges = {}  # {u, v} -> (u, v)
    for i, e in enumerate(_require(doc, "edges", list, where)):
        spot = f"{where}.edges[{i}]"
        if not (isinstance(e, list) and len(e) == 2):
            raise DocumentError(f"{spot}: expected [u, v]")
        for j, p in enumerate(_strings(e, spot)):
            if p not in vertices:
                raise DocumentError(f"{spot}[{j}]: unknown vertex {p!r}")
        if e[0] == e[1] or frozenset(e) in edges:
            raise DocumentError(f"{spot}: {'loop' if e[0] == e[1] else 'duplicate'} edge {e!r}")
        edges[frozenset(e)] = tuple(e)
    return vertices, list(edges.values())


# ----------------------------------------------------- local trivializations

def parse_local_trivialization(doc, where="lt") -> LocalTrivialization:
    base = parse_topology(_require(doc, "base_space", dict, where),
                          f"{where}.base_space")
    points = set(map(str, base.points))
    tables = _trivialization_in_bulk(doc, points)
    cover, sections = (tables if tables is not None
                       else _trivialization_by_entry(doc, points, where))
    try:
        return local_trivialization(base, cover, sections)
    except ValueError as e:
        raise DocumentError(f"{where}: {e}") from e


def _trivialization_in_bulk(doc, points):
    """(cover, sections) of a well-formed document, or None when a bulk test
    fails.  A cover index is an int and never a bool, which would equal 0
    or 1 in a set test, so its type is tested first."""
    cover, sections = doc.get("cover"), doc.get("sections")
    if not (type(cover) is list and _all_are(cover, list) and set(map(len, cover)) <= {2}
            and type(sections) is list and _all_are(sections, list)
            and set(map(len, sections)) <= {3}):
        return None
    indices, members = [i for i, _ in cover], [u for _, u in cover]
    tables = [t for _, _, t in sections]
    if not (_all_are(indices, int) and _all_are(members, list)
            and _all_are(chain.from_iterable(members), str)
            and points.issuperset(chain.from_iterable(members))
            and _all_are([x for x, _, _ in sections], str)
            and _all_are([i for _, i, _ in sections], int) and _all_are(tables, list)):
        return None
    rows = list(chain.from_iterable(tables))
    if not (_all_are(rows, list) and set(map(len, rows)) <= {2}
            and _all_are(chain.from_iterable(rows), str)):
        return None
    by_key = {(x, i): dict(t) for x, i, t in sections}
    if not (len(by_key) == len(sections) and points.issuperset(x for x, _ in by_key)
            and set(indices).issuperset(i for _, i in by_key)
            and all(len(table) == len(t) and points.issuperset(table)
                    for table, t in zip(by_key.values(), tables))):
        return None
    return [(i, frozenset(u)) for i, u in cover], by_key


def _trivialization_by_entry(doc, points, where):
    """(cover, sections), checking one entry at a time; raises on the first
    fault with its field path."""
    cover = []
    for i, entry in enumerate(_require(doc, "cover", list, where)):
        spot = f"{where}.cover[{i}]"
        if not (isinstance(entry, list) and len(entry) == 2
                and type(entry[0]) is int and isinstance(entry[1], list)):
            raise DocumentError(f"{spot}: expected [index, [points]]")
        member = _strings(entry[1], spot)
        for p in member:
            if p not in points:
                raise DocumentError(f"{spot}: unknown point {p!r}")
        cover.append((entry[0], frozenset(member)))
    indices = {i for i, _ in cover}
    sections = {}
    for i, entry in enumerate(_require(doc, "sections", list, where)):
        spot = f"{where}.sections[{i}]"
        if not (isinstance(entry, list) and len(entry) == 3
                and isinstance(entry[0], str) and type(entry[1]) is int
                and isinstance(entry[2], list)):
            raise DocumentError(f"{spot}: expected [x, index, [[u, morphism]]]")
        x, idx, rows = entry
        if x not in points:
            raise DocumentError(f"{spot}: unknown point {x!r}")
        if idx not in indices:
            raise DocumentError(f"{spot}: unknown cover index {idx}")
        if (x, idx) in sections:
            raise DocumentError(f"{spot}: duplicate section ({x!r}, {idx})")
        table = {}
        for j, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == 2
                    and all(isinstance(s, str) for s in row)):
                raise DocumentError(f"{spot}[{j}]: expected [u, morphism id]")
            u = row[0]
            if u not in points:
                raise DocumentError(f"{spot}[{j}]: unknown point {u!r}")
            if u in table:
                raise DocumentError(f"{spot}[{j}]: duplicate point {u!r}")
            table[u] = row[1]
        sections[(x, idx)] = table
    return cover, sections


def serialize_local_trivialization(LT: LocalTrivialization) -> dict:
    return {
        "base_space": serialize_topology(LT.base_space),
        "cover": [[i, sorted(map(str, u))] for i, u in sorted(LT.cover)],
        "sections": [[x, i, [[u, LT.sections[(x, i)][u]]
                             for u in sorted(LT.sections[(x, i)], key=str)]]
                     for x, i in sorted(LT.sections, key=lambda k: (str(k[0]), k[1]))],
    }
