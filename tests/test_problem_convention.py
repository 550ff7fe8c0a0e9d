"""Every problem checker answers the same way: a tuple of (kind, payload)
pairs, kind a string, empty exactly when the input is valid.  Each checker
runs here on valid and broken fixtures from `helpers.py` and `corpus/`."""

import json
import pathlib

import pytest

from groupoids.core import (
    GroupoidMorphism,
    check_normal_subgroupoid,
    check_wide_subgroupoid,
    normal_closure,
    pair_groupoid,
    validate_groupoid,
    validate_morphism,
    validate_structure,
)
from groupoids.interchange import (
    parse_carrier,
    parse_groupoid,
    parse_local_trivialization,
    parse_topology_family,
)
from groupoids.loctriv import check_w_open, generate_groupoid_topology, validate_clt
from groupoids.topology import (
    STRUCTURE_MAPS,
    check_topological_groupoid,
    discrete,
    indiscrete,
    is_topology,
)
from helpers import cyclic, group_groupoid, sym3, with_tables
from test_loctriv import discrete_refinement_instance, sierpinski_non_base_instance

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def _doc(name):
    return json.loads((CORPUS / f"{name}.json").read_text())


def _corpus_groupoid(name):
    doc = _doc(name)
    return parse_groupoid(doc.get("groupoid", doc))


def _corpus_clt(name):
    doc = _doc(name)
    return parse_groupoid(doc["groupoid"]), parse_local_trivialization(doc, where="document")


def _corpus_w_open(name):
    doc = _doc(name)
    G, LT = _corpus_clt(name)
    return G, LT, parse_carrier(doc, G)


def _topologized(G, morphism_topology):
    """G with the given topology on its morphisms and the discrete one on
    its objects."""
    return G, morphism_topology(G.morphisms), discrete(G.objects)


def _missing_composite():
    """Z/3 with the entry 1.1 taken out of its composition table."""
    G = group_groupoid(cyclic(3))
    compose = {k: v for k, v in G.compose.items() if k != ("1", "1")}
    return (with_tables(G, compose=compose),)


def _relabelled_z4(swap):
    """Z/4 into itself, as the identity or with 1 and 2 swapped (which
    preserves no composite 1.1 = 2)."""
    G = group_groupoid(cyclic(4))
    image = {"1": "2", "2": "1"} if swap else {}
    return G, G, GroupoidMorphism(obj_map={"*": "*"},
                                  mor_map={m: image.get(m, m) for m in G.morphisms})


def _s3_transposition(normal):
    """S3 with the normal closure of the transposition 102, all of S3, or
    with the subgroup of order 2 it generates, which is not normal."""
    G = group_groupoid(sym3())
    swap = "102"
    return G, (normal_closure(G, {swap}) if normal else frozenset({G.identity["*"], swap}))


# (checker, fixture, valid): each fixture builds the checker's arguments
CASES = [
    (validate_structure, lambda: (pair_groupoid(["0", "1", "2"]),), True),
    (validate_structure, lambda: (_corpus_groupoid("pair-groupoid-3"),), True),
    (validate_structure, _missing_composite, False),
    (validate_groupoid, lambda: (group_groupoid(sym3()),), True),
    (validate_groupoid, lambda: (_corpus_groupoid("pair-groupoid-3"),), True),
    (validate_groupoid, lambda: (_corpus_groupoid("broken-composition"),), False),
    (validate_morphism, lambda: _relabelled_z4(swap=False), True),
    (validate_morphism, lambda: _relabelled_z4(swap=True), False),
    (validate_clt, lambda: _corpus_clt("clt-sierpinski"), True),
    (validate_clt, lambda: _corpus_clt("clt-monodromy-triangle"), True),
    (validate_clt, lambda: _corpus_clt("clt-comp-violation"), False),
    (is_topology, lambda: parse_topology_family(_doc("sierpinski")), True),
    (is_topology, lambda: parse_topology_family(_doc("missing-union")), False),
    (check_wide_subgroupoid, lambda: (pair_groupoid("ab"), pair_groupoid("ab").morphisms), True),
    (check_wide_subgroupoid, lambda: (pair_groupoid("ab"), {"(a,b)"}), False),
    (check_normal_subgroupoid, lambda: _s3_transposition(normal=True), True),
    (check_normal_subgroupoid, lambda: _s3_transposition(normal=False), False),
    (check_normal_subgroupoid,
     lambda: (group_groupoid(cyclic(6)), normal_closure(group_groupoid(cyclic(6)), {"2"})),
     True),
    (check_topological_groupoid, lambda: _topologized(group_groupoid(cyclic(3)), discrete),
     True),
    (check_topological_groupoid, lambda: _topologized(pair_groupoid([0, 1]), indiscrete),
     False),
    (check_w_open, lambda: _corpus_w_open("w-open-partition"), True),
]

# Checkers with no refuted fixture.  `check_w_open`'s docstring proves that
# under its preconditions (W a wide subgroupoid holding every section value,
# on a valid structure) no element can lack a neighborhood inside W, and it
# raises ValueError when they are broken, so no input makes it return a
# problem.
NEVER_REFUTED = {"check_w_open"}


@pytest.mark.parametrize(
    "checker, fixture, valid", CASES,
    ids=[f"{c.__name__}-{'valid' if v else 'broken'}-{i}" for i, (c, _, v) in enumerate(CASES)])
def test_checker_returns_a_tuple_of_kind_payload_pairs(checker, fixture, valid):
    problems = checker(*fixture())
    assert type(problems) is tuple
    assert all(type(p) is tuple and len(p) == 2 and isinstance(p[0], str)
               for p in problems)
    assert (problems == ()) == valid


def test_every_checker_is_covered_both_ways():
    covered = {(c.__name__, v) for c, _, v in CASES}
    names = {c.__name__ for c, _, _ in CASES}
    assert names == {"validate_structure", "validate_groupoid", "validate_morphism",
                     "validate_clt", "is_topology", "check_wide_subgroupoid",
                     "check_normal_subgroupoid", "check_topological_groupoid",
                     "check_w_open"}
    assert covered == {(n, v) for n in names for v in (True, False)
                       if v or n not in NEVER_REFUTED}


# (fixture, continuous): valid structures, with whether all six maps pass
GENERATION_CASES = [
    (lambda: _corpus_clt("clt-sierpinski"), True),
    (lambda: _corpus_clt("clt-monodromy-triangle"), True),
    (lambda: _corpus_clt("w-open-partition"), True),
    (discrete_refinement_instance, True),
    (sierpinski_non_base_instance, False),
]


@pytest.mark.parametrize("fixture, continuous", GENERATION_CASES,
                         ids=[str(i) for i in range(len(GENERATION_CASES))])
def test_generation_reports_only_structure_maps(fixture, continuous):
    """`generate_groupoid_topology` answers with `check_topological_groupoid`
    pairs only: every kind it returns names a structure map."""
    _, problems = generate_groupoid_topology(*fixture())
    assert type(problems) is tuple and (problems == ()) == continuous
    assert all(kind in STRUCTURE_MAPS for kind, _ in problems)
