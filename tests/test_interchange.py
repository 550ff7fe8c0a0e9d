"""Document round-trips, canonical fingerprints, parse diagnostics, and the
DOT rendering."""

import json

import pytest

from groupoids.core import pair_groupoid
from groupoids.dot import export_dot
from groupoids.interchange import (
    DocumentError,
    canonical,
    fingerprint,
    parse_groupoid,
    parse_local_trivialization,
    parse_topology,
    serialize_groupoid,
    serialize_local_trivialization,
    serialize_topology,
)
from groupoids.loctriv import local_trivialization, sections_from_arrows
from groupoids.monodromy import build_monodromy, pi1_graph
from groupoids.topology import discrete, topology

from helpers import cyclic, group_groupoid, sym3

F = frozenset


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
