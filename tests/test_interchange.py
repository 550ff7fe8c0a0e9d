"""Document round-trips, canonical fingerprints, parse diagnostics, and the
DOT rendering."""

import copy
import json
import pathlib

import pytest

import groupoids.interchange as interchange
from groupoids.core import pair_groupoid
from groupoids.dot import export_dot
from groupoids.interchange import (
    DocumentError,
    canonical,
    fingerprint,
    load_document,
    parse_groupoid,
    parse_local_trivialization,
    parse_topology,
    parse_topology_family,
    serialize_groupoid,
    serialize_local_trivialization,
    serialize_topology,
)
from groupoids.loctriv import local_trivialization, sections_from_arrows
from groupoids.monodromy import build_monodromy, pi1_graph
from groupoids.topology import discrete, topology

from helpers import cyclic, group_groupoid, sym3

F = frozenset
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


# --------------------------------------------------------------- round-trips

def test_groupoid_round_trip():
    for G in (pair_groupoid(["a", "b", "c"]), group_groupoid(sym3())):
        assert parse_groupoid(serialize_groupoid(G)) == G


def test_groupoid_document_round_trip_is_identity_on_canonical_docs():
    doc = serialize_groupoid(pair_groupoid(["x", "y"]))
    assert serialize_groupoid(parse_groupoid(doc)) == doc
    assert canonical(doc) == canonical(json.loads(canonical(doc)))


def test_topology_round_trip():
    T = topology(["0", "1", "2"], [F(), F({"0"}), F({"0", "1"}), F({"0", "1", "2"})])
    assert parse_topology(serialize_topology(T)) == T
    doc = serialize_topology(T)
    assert serialize_topology(parse_topology(doc)) == doc


def test_local_trivialization_round_trip():
    base = topology(["0", "1"], [F(), F({"0"}), F({"0", "1"})])
    cover = [(0, F({"0"})), (1, F({"0", "1"}))]
    LT = local_trivialization(base, cover,
                              sections_from_arrows(cover, lambda x, u: f"({x},{u})"))
    doc = serialize_local_trivialization(LT)
    assert parse_local_trivialization(doc) == LT
    assert serialize_local_trivialization(parse_local_trivialization(doc)) == doc


# -------------------------------------------------------------- fingerprints

def test_fingerprint_ignores_key_order_but_not_content():
    a = {"objects": ["x"], "morphisms": []}
    b = {"morphisms": [], "objects": ["x"]}
    assert fingerprint(a) == fingerprint(b)
    assert fingerprint(a) != fingerprint({"objects": ["y"], "morphisms": []})


def test_canonical_text_is_stable():
    doc = serialize_topology(discrete(["a", "b"]))
    assert canonical(doc) == canonical(json.loads(canonical(doc)))


# ------------------------------------------------------------- parse errors

def test_parse_errors_carry_field_paths():
    good = serialize_groupoid(pair_groupoid(["a", "b"]))
    cases = [
        ({}, "missing field 'objects'"),
        ({**good, "morphisms": [{"id": "m", "src": "a", "tgt": "zzz"}]},
         "tgt 'zzz' is not a declared object"),
        ({**good, "morphisms": [{"id": "m", "src": "yyy", "tgt": "zzz"}]},
         "^groupoid.morphisms\\[0\\]: src 'yyy' is not a declared object$"),
        ({**good, "identities": {"a": "(a,a)", "c": "(b,b)"}},
         "^groupoid.identities: unknown object 'c'$"),
        ({**good, "compose": [["(a,a)", "(a,b)"]]}, "expected \\[a, b, ab\\]"),
        ({**good, "identities": {"a": "nope", "b": "(b,b)"}}, "unknown morphism"),
    ]
    for doc, message in cases:
        with pytest.raises(DocumentError, match=message):
            parse_groupoid(doc)
    with pytest.raises(DocumentError, match="unknown point"):
        parse_topology({"points": ["0"], "opens": [[], ["1"]]})
    with pytest.raises(DocumentError, match="base_space"):
        parse_local_trivialization({"base_space": {"points": ["0"],
                                                   "opens": [["0"]]},
                                    "cover": [], "sections": []})


def test_duplicate_morphism_id_rejected():
    doc = serialize_groupoid(pair_groupoid(["a"]))
    doc["morphisms"] = doc["morphisms"] * 2
    with pytest.raises(DocumentError, match="duplicate morphism id"):
        parse_groupoid(doc)


def test_repeated_compose_pair_rejected():
    """A compose list states one product per pair: a later triple may not
    replace an earlier one, whatever its product."""
    doc = serialize_groupoid(group_groupoid(cyclic(2)))
    at = doc["compose"].index(["1", "1", "0"])
    doc["compose"].insert(at, ["1", "1", "1"])
    with pytest.raises(DocumentError,
                       match=rf"^groupoid.compose\[{at + 1}\]: duplicate pair \('1', '1'\)$"):
        parse_groupoid(doc)
    doc["compose"][at] = ["1", "1", "0"]  # the same product twice is a repeat too
    with pytest.raises(DocumentError, match="duplicate pair"):
        parse_groupoid(doc)


@pytest.mark.parametrize("row, at, message", [
    (["0", "NOPE"], 1, "duplicate point '0'"),  # the real row would replace it
    (["2", "(0,1)"], 0, "unknown point '2'"),
])
def test_section_rows_name_declared_points_once(row, at, message):
    """A section row must name a point of the base space, and no point
    twice in one section."""
    base = topology(["0", "1"], [F(), F({"0"}), F({"0", "1"})])
    cover = [(0, F({"0", "1"}))]
    LT = local_trivialization(base, cover,
                              sections_from_arrows(cover, lambda x, u: f"({x},{u})"))
    doc = serialize_local_trivialization(LT)
    doc["sections"][0][2].insert(0, row)
    with pytest.raises(DocumentError, match=rf"^lt.sections\[0\]\[{at}\]: {message}$"):
        parse_local_trivialization(doc)


def test_deeply_nested_document_is_a_document_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text('{"objects": ' + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(DocumentError) as caught:
        load_document(path)
    assert str(caught.value) == f"{path}: nested too deeply"


# ------------------------------------- bulk decisions against the entry loop

BULK = ("_groupoid_in_bulk", "_family_in_bulk", "_trivialization_in_bulk")


def _outcome(parse, doc):
    """The error text, or the result with the order of every table."""
    try:
        result = parse(doc)
    except DocumentError as e:
        return str(e)
    if isinstance(result, tuple):  # (points, family)
        return result
    tables = {k: v for k, v in vars(result).items() if isinstance(v, dict)}
    orders = {k: [(key, list(v.items()) if isinstance(v, dict) else v)
                  for key, v in t.items()] for k, t in tables.items()}
    return result, orders


def _both_ways(parse, doc, monkeypatch):
    """(bulk outcome, entry-loop outcome) of one document."""
    bulk = _outcome(parse, copy.deepcopy(doc))
    with monkeypatch.context() as m:
        for name in BULK:
            m.setattr(interchange, name, lambda *args: None)
        by_entry = _outcome(parse, copy.deepcopy(doc))
    return bulk, by_entry


def _corpus(name):
    doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
    doc.pop("_expect")
    return doc


def _set(path, value):
    """A corruption that puts `value` at `path` (keys and indices)."""
    def corrupt(doc):
        *head, last = path
        for step in head:
            doc = doc[step]
        doc[last] = value
    return corrupt


def _append(path, value):
    def corrupt(doc):
        for step in path:
            doc = doc[step]
        doc.append(value)
    return corrupt


GROUPOID_CASES = [  # (name, corruption, a fragment of the error, None if valid)
    ("valid", lambda doc: None, None),
    ("extra-key", _set(["note"], "ignored"), None),
    ("non-object-document", None, "expected object"),
    ("repeated-object", _append(["objects"], "a"), "objects[3]: duplicate object 'a'"),
    ("non-string-object", _set(["objects", 1], 2), "expected string"),
    ("non-object-morphism", _set(["morphisms", 1], ["(a,b)"]), "expected object"),
    ("non-string-id", _set(["morphisms", 1, "id"], 7), "expected str"),
    ("list-id", _set(["morphisms", 1, "id"], ["(a,b)"]), "expected str"),
    ("missing-src", lambda doc: doc["morphisms"][0].pop("src"), "missing field 'src'"),
    ("unknown-src", _set(["morphisms", 2, "src"], "zz"), "src 'zz' is not a declared"),
    ("unknown-tgt", _set(["morphisms", 2, "tgt"], "zz"), "tgt 'zz' is not a declared"),
    ("repeated-id", _append(["morphisms"], {"id": "(a,a)", "src": "a", "tgt": "a"}),
     "duplicate morphism id"),
    ("triple-of-2", _set(["compose", 3], ["(a,b)", "(b,a)"]), "expected [a, b, ab]"),
    ("triple-of-4", _set(["compose", 3], ["(a,b)", "(b,a)", "(a,a)", "(a,a)"]),
     "expected [a, b, ab]"),
    ("compose-string", _set(["compose", 5], "abc"), "expected [a, b, ab]"),
    ("unknown-id-in-triple", _set(["compose", 4, 2], "nope"), "unknown morphism 'nope'"),
    ("list-in-triple", _set(["compose", 4, 0], ["(a,a)"]), "expected string"),
    ("repeated-pair", _append(["compose"], ["(a,a)", "(a,a)", "(a,a)"]), "duplicate pair"),
    ("identity-unknown-object", _set(["identities", "zz"], "(a,a)"), "unknown object 'zz'"),
    ("identity-unknown-morphism", _set(["identities", "a"], "nope"), "unknown morphism"),
    ("non-string-inverse", _set(["inverses", "(a,b)"], ["(b,a)"]), "expected string"),
    ("unknown-inverse-key", _set(["inverses", "nope"], "(a,a)"), "unknown morphism"),
    ("inverses-a-list", _set(["inverses"], []), "expected dict"),
    ("missing-compose", lambda doc: doc.pop("compose"), "missing field 'compose'"),
]


@pytest.mark.parametrize("name, corrupt, message", GROUPOID_CASES,
                         ids=[c[0] for c in GROUPOID_CASES])
def test_bulk_groupoid_parse_is_the_entry_loop(name, corrupt, message, monkeypatch):
    doc = _corpus("pair-groupoid-3.json")
    if corrupt is None:
        doc = ["not", "an", "object"]
    else:
        corrupt(doc)
    bulk, by_entry = _both_ways(parse_groupoid, doc, monkeypatch)
    assert bulk == by_entry
    if message is None:
        assert not isinstance(bulk, str)
    else:
        assert message in bulk


TOPOLOGY_CASES = [
    ("valid", lambda doc: None, None),
    ("non-object-document", None, "expected object"),
    ("repeated-point", _append(["points"], "0"), "points[2]: duplicate point '0'"),
    ("non-string-point", _set(["points", 0], 0), "expected string"),
    ("open-a-string", _set(["opens", 1], "01"), "expected list of points"),
    ("unknown-point", _set(["opens", 1], ["0", "2"]), "unknown point '2'"),
    ("list-in-open", _set(["opens", 1], [["0"]]), "expected string"),
]


@pytest.mark.parametrize("name, corrupt, message", TOPOLOGY_CASES,
                         ids=[c[0] for c in TOPOLOGY_CASES])
def test_bulk_family_parse_is_the_entry_loop(name, corrupt, message, monkeypatch):
    doc = _corpus("sierpinski.json")
    if corrupt is None:
        doc = "points"
    else:
        corrupt(doc)
    bulk, by_entry = _both_ways(parse_topology_family, doc, monkeypatch)
    assert bulk == by_entry
    assert (not isinstance(bulk, str)) if message is None else message in bulk


CLT_CASES = [
    ("valid", lambda doc: None, None),
    ("repeated-base-point", _append(["base_space", "points"], "1"), "duplicate point '1'"),
    ("cover-entry-of-3", _set(["cover", 0], [0, ["0"], 1]), "expected [index, [points]]"),
    ("cover-index-bool", _set(["cover", 0, 0], False), "expected [index, [points]]"),
    ("cover-index-list", _set(["cover", 0, 0], [0]), "expected [index, [points]]"),
    ("cover-member-string", _set(["cover", 1, 1], "01"), "expected [index, [points]]"),
    ("cover-unknown-point", _set(["cover", 1, 1], ["0", "9"]), "unknown point '9'"),
    ("cover-repeated-index", _append(["cover"], [0, ["0"]]), "duplicate cover index"),
    ("section-a-string", _set(["sections", 1], "abc"), "expected [x, index"),
    ("section-index-bool", _set(["sections", 0, 1], False), "expected [x, index"),
    ("section-unknown-point", _set(["sections", 0, 0], "9"), "unknown point '9'"),
    ("section-unknown-index", _set(["sections", 0, 1], 5), "unknown cover index 5"),
    ("repeated-section", _append(["sections"], ["0", 0, [["0", "(0,0)"]]]),
     "duplicate section ('0', 0)"),
    ("row-of-3", _set(["sections", 1, 2, 0], ["0", "(0,0)", "x"]), "expected [u, morphism id]"),
    ("row-a-string", _set(["sections", 1, 2, 0], "ab"), "expected [u, morphism id]"),
    ("row-non-string-morphism", _set(["sections", 1, 2, 1, 1], 4), "expected [u, morphism id]"),
    ("row-unknown-point", _set(["sections", 1, 2, 1, 0], "9"), "unknown point '9'"),
    ("row-repeated-point", _append(["sections", 1, 2], ["0", "(0,0)"]), "duplicate point '0'"),
]


@pytest.mark.parametrize("name, corrupt, message", CLT_CASES, ids=[c[0] for c in CLT_CASES])
def test_bulk_trivialization_parse_is_the_entry_loop(name, corrupt, message, monkeypatch):
    doc = _corpus("clt-sierpinski.json")
    corrupt(doc)
    bulk, by_entry = _both_ways(parse_local_trivialization, doc, monkeypatch)
    assert bulk == by_entry
    assert (not isinstance(bulk, str)) if message is None else message in bulk


# ---------------------------------------------------------------------- DOT

def test_triangle_presentation_dot_shape():
    """Spanning tree of the 3-cycle: three drawn generator pairs, two dashed."""
    G = pair_groupoid(["a", "b", "c"])
    M = build_monodromy(G, G.morphisms)
    dot = export_dot(M)
    assert dot.count("->") == 3 and dot.count("style=dashed") == 2
    assert '"3 generators, 12 relators"' in dot  # label carries the relator count
    assert dot.count("subgraph cluster_") == 1


def test_single_object_no_generators():
    G = group_groupoid(cyclic(1))
    dot = export_dot(build_monodromy(G, {"0"}))
    assert dot.count("->") == 0 and '"*"' in dot
    assert "0 generators, 0 relators" in dot


def test_two_components_become_two_clusters():
    res = pi1_graph(["a", "b", "c", "x", "y", "z"],
                    [("a", "b"), ("b", "c"), ("c", "a"),
                     ("x", "y"), ("y", "z"), ("z", "x")])
    assert not res.generates_ambient
    dot = export_dot(res)
    assert dot.count("subgraph cluster_") == 2
    assert export_dot(res) == dot  # stable ordering, byte for byte


def test_plain_groupoid_export():
    G = pair_groupoid(["a", "b"])
    dot = export_dot(G)
    assert dot.count("->") == 1 and "style=dashed" not in dot
    assert "2 objects, 4 morphisms" in dot
    with pytest.raises(TypeError, match="cannot export"):
        export_dot(42)


@pytest.mark.parametrize("field", ["identities", "inverses"])
def test_non_string_morphism_names_are_document_errors(field):
    doc = serialize_groupoid(group_groupoid(cyclic(2)))
    doc[field]["*" if field == "identities" else "1"] = ["0"]
    with pytest.raises(DocumentError, match="expected string"):
        parse_groupoid(doc)


@pytest.mark.parametrize("value", [7, "objects", ["objects"], None])
def test_non_object_sections_are_document_errors(value):
    with pytest.raises(DocumentError, match="groupoid: expected object"):
        parse_groupoid(value)
    with pytest.raises(DocumentError, match="topology: expected object"):
        parse_topology(value)
