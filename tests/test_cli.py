"""Command-line contract: corpus exit statuses, report formats, flags, and
file outputs."""

import importlib
import json
import pathlib
import subprocess
import sys

import pytest

from groupoids.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
DOCS = sorted(CORPUS.glob("*.json"))


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_corpus_is_present():
    assert len(DOCS) >= 15  # the bundle ships with the repository


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.stem)
def test_corpus_exit_contract(path, capsys):
    """Every bundled document runs to its annotated exit status."""
    expect = json.loads(path.read_text())["_expect"]
    code, _, _ = run([expect["command"], str(path), *expect["flags"]], capsys)
    assert code == expect["exit"]


def test_monodromy_report_names_the_free_rank(capsys):
    code, out, _ = run(["monodromy", str(CORPUS / "z5-window.json"),
                        "--budget", "100"], capsys)
    assert code == 0 and "free rank 1" in out
    assert "budget=100" in out  # parameters echoed


def test_shallow_star_cover_reports_the_exhausted_depth(capsys):
    code, out, _ = run(["star-cover", str(CORPUS / "z11-shallow-star.json"),
                        "--depth", "2"], capsys)
    assert code == 2 and "not reached at depth 2" in out


def test_machine_format_is_canonical_json(capsys):
    path = str(CORPUS / "pair-groupoid-3.json")
    code, out, _ = run(["validate", path, "--format", "machine"], capsys)
    report = json.loads(out)
    assert code == 0 and report["verdict"] == "pass"
    assert report["command"] == "validate" and len(report["fingerprint"]) == 64
    assert report["parameters"] == {"budget": 10000, "depth": 8, "window": 6}
    code2, out2, _ = run(["validate", path, "--format", "machine"], capsys)
    a, b = json.loads(out), json.loads(out2)
    a.pop("timing"), b.pop("timing")
    assert a == b  # deterministic for fixed input and parameters


def test_fingerprint_ignores_annotations_but_tracks_content(capsys):
    reports = {}
    for name in ("z5-window.json", "z5-star.json", "z11-shallow-star.json"):
        doc = json.loads((CORPUS / name).read_text())
        run([doc["_expect"]["command"], str(CORPUS / name), "--format", "machine",
             *doc["_expect"]["flags"]], capsys)
        code, out, _ = run(["monodromy", str(CORPUS / name),
                            "--format", "machine"], capsys)
        reports[name] = json.loads(out)["fingerprint"]
    assert reports["z5-window.json"] == reports["z5-star.json"]  # same content
    assert reports["z5-window.json"] != reports["z11-shallow-star.json"]


def test_out_flag_writes_atomically_and_silences_stdout(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(["validate", str(CORPUS / "pair-groupoid-3.json"),
                        "--format", "machine", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["verdict"] == "pass"
    assert list(tmp_path.iterdir()) == [target]  # no stray temp files


def test_dot_flag_writes_a_graph(tmp_path, capsys):
    target = tmp_path / "triangle.dot"
    code, _, _ = run(["pi1", str(CORPUS / "triangle-graph.json"),
                      "--dot", str(target)], capsys)
    assert code == 0
    text = target.read_text()
    assert text.startswith("digraph") and text.count("->") == 6
    assert text.count("style=dashed") == 5  # spanning tree of the subdivision


@pytest.mark.parametrize("flag", ["--out", "--dot"])
def test_unwritable_output_names_the_path_not_a_temp_file(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "report.txt"
    code, out, err = run(["validate", str(CORPUS / "pair-groupoid-3.json"),
                          flag, str(target)], capsys)
    assert code == 3
    assert err == f"error: cannot write {str(target)!r}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_refuted_validate_carries_the_violation_witness(capsys):
    code, out, _ = run(["validate", str(CORPUS / "broken-composition.json")],
                       capsys)
    assert code == 1 and "verdict: refuted" in out and "witness" in out


def test_globalize_obstruction_witness(capsys):
    code, out, _ = run(["globalize", str(CORPUS / "globalize-obstruction.json")],
                       capsys)
    assert code == 1 and "witness obstruction: (1, 1, 2)" in out


def test_input_errors_exit_three(tmp_path, capsys):
    code, _, err = run(["validate", str(tmp_path / "absent.json")], capsys)
    assert code == 3 and "error:" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(["validate", str(bad)], capsys)
    assert code == 3 and "line 1" in err  # line/field diagnostics
    code, _, err = run(["monodromy", str(CORPUS / "pair-groupoid-3.json")], capsys)
    assert code == 3  # groupoid-only document lacks the carrier field
    code, _, _ = run(["validate", str(CORPUS / "pair-groupoid-3.json"),
                      "--no-such-flag"], capsys)
    assert code == 3  # unknown flags rejected before any computation
    code, _, _ = run(["star-cover", str(CORPUS / "z5-star.json"),
                      "--depth", "-1"], capsys)
    assert code == 3


def test_bad_carrier_is_a_precondition_error(tmp_path, capsys):
    doc = json.loads((CORPUS / "z5-window.json").read_text())
    doc["carrier"] = ["0", "1"]  # inverse of 1 missing: not inversion-closed
    path = tmp_path / "open-carrier.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["monodromy", str(path)], capsys)
    assert code == 3 and "precondition" in err


def test_unknown_carrier_morphism_names_its_entry(tmp_path, capsys):
    doc = json.loads((CORPUS / "z5-window.json").read_text())
    doc["carrier"] = ["0", "1", "x", "4"]
    path = tmp_path / "unknown-carrier.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["monodromy", str(path)], capsys)
    assert code == 3
    assert "document.carrier[2]: unknown morphism 'x'" in err


def test_clt_generate_reports_window_results(capsys):
    code, out, _ = run(["clt-generate", str(CORPUS / "clt-monodromy-triangle.json"),
                        "--window", "4"], capsys)
    assert code == 0
    assert "w-tilde-open-in-window: True" in out
    assert "window-classes: 9" in out


def test_clt_generate_without_carrier_certifies_the_topology(capsys):
    code, out, _ = run(["clt-generate", str(CORPUS / "clt-sierpinski.json")],
                       capsys)
    assert code == 0 and "opens: 6" in out and "all-maps-continuous: True" in out


def test_comp_violation_is_refuted_with_witness(capsys):
    code, out, _ = run(["clt-generate", str(CORPUS / "clt-comp-violation.json")],
                       capsys)
    assert code == 1 and "comp" in out and "o0" in out


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _clt_report(tmp_path, capsys, instance):
    from groupoids.interchange import serialize_groupoid, serialize_local_trivialization

    G, LT = instance()
    doc = {"groupoid": serialize_groupoid(G), **serialize_local_trivialization(LT)}
    code, out, _ = run(["clt-generate", _write(tmp_path, "clt.json", doc),
                        "--format", "machine"], capsys)
    return code, json.loads(out)


def test_valid_structure_that_is_no_base_is_refuted(tmp_path, capsys):
    """A valid structure whose neighborhoods are no base exits 1 through the
    identity map, and the shrinking law is no part of the refutation."""
    from test_loctriv import sierpinski_non_base_instance

    code, report = _clt_report(tmp_path, capsys, sierpinski_non_base_instance)
    verdicts = report["verdicts"]
    assert code == 1 and verdicts["clt-valid"] is True
    assert verdicts["identity-continuous"] is False
    assert verdicts["base-compatible"] is False
    assert verdicts["refinement-law"] is True
    assert not any(key.startswith("refinement") for key in report["witnesses"])


def test_transported_structure_that_is_no_base_is_refuted(tmp_path, capsys):
    """The same structure with a carrier of every morphism is refuted by the
    same generation, witness included; the window is reported beside it,
    and its own base compatibility is a verdict, never the refutation."""
    from groupoids.interchange import serialize_groupoid, serialize_local_trivialization
    from test_loctriv import sierpinski_non_base_instance

    G, LT = sierpinski_non_base_instance()
    doc = {"groupoid": serialize_groupoid(G), **serialize_local_trivialization(LT),
           "carrier": sorted(G.morphisms)}
    code, out, _ = run(["clt-generate", _write(tmp_path, "clt.json", doc),
                        "--window", "4", "--format", "machine"], capsys)
    report = json.loads(out)
    verdicts = report["verdicts"]
    assert code == 1 and verdicts["clt-valid"] is True
    assert verdicts["identity-continuous"] is False and verdicts["base-compatible"] is False
    assert report["witnesses"] == {"identity": "open {o1>o1:0} pulls back to {o1}"}
    assert verdicts["window-classes"] == 8 and verdicts["window-opens"] == 256
    assert verdicts["window-base-compatible"] is False


def test_true_topological_groupoid_passes(tmp_path, capsys):
    """A valid structure the old shrinking replay refuted generates the
    discrete topology with every structure map continuous: exit 0."""
    from test_loctriv import discrete_refinement_instance

    code, report = _clt_report(tmp_path, capsys, discrete_refinement_instance)
    verdicts = report["verdicts"]
    assert code == 0 and verdicts["clt-valid"] is True
    assert verdicts["refinement-law"] is True and verdicts["base-compatible"] is True
    assert verdicts["all-maps-continuous"] is True and verdicts["opens"] == 256
    assert report["witnesses"] == {}


def test_unlawful_tables_are_precondition_errors(tmp_path, capsys):
    """A missing composite in the groupoid, or in globalize's target, is an
    input fault: exit 3 with a message, never a traceback or a refutation."""
    doc = json.loads((CORPUS / "z5-window.json").read_text())
    doc["groupoid"]["compose"] = doc["groupoid"]["compose"][1:]
    code, out, err = run(["monodromy", _write(tmp_path, "g.json", doc)], capsys)
    assert code == 3 and out == "" and "Traceback" not in err
    assert "precondition violated: document.groupoid: compose-missing at" in err
    doc = json.loads((CORPUS / "globalize-z7-s3.json").read_text())
    doc["target"]["compose"] = doc["target"]["compose"][1:]
    code, _, err = run(["globalize", _write(tmp_path, "h.json", doc)], capsys)
    assert code == 3 and "document.target: compose-missing at" in err


def test_unexpected_errors_exit_three_without_a_traceback(monkeypatch, capsys):
    import groupoids.cli as cli

    def broken(doc, args):
        raise KeyError("boom")

    monkeypatch.setitem(cli._COMMANDS, "validate", broken)
    code, out, err = run(["validate", str(CORPUS / "pair-groupoid-3.json")], capsys)
    assert code == 3 and out == ""
    assert err == "error: internal error: KeyError: 'boom'\n"


@pytest.mark.parametrize("name, checker, calls", [
    ("clt-sierpinski", "validate_clt", 1),
    ("clt-monodromy-triangle", "validate_clt", 1),
    ("discrete-pair-topology", "is_topology", 2),  # one per family
])
def test_each_document_is_validated_once(name, checker, calls, monkeypatch, capsys):
    """The CLI hands its `validate_clt` or `is_topology` report on, so the
    construction behind it does not check the same input again."""
    seen = []
    for module_name in ("groupoids.cli", "groupoids.loctriv", "groupoids.topology"):
        module = importlib.import_module(module_name)
        if hasattr(module, checker):
            original = getattr(module, checker)
            monkeypatch.setattr(module, checker,
                                lambda *a, _f=original, **k: seen.append(1) or _f(*a, **k))
    doc = json.loads((CORPUS / f"{name}.json").read_text())
    code, _, _ = run([doc["_expect"]["command"], str(CORPUS / f"{name}.json"),
                      *doc["_expect"]["flags"]], capsys)
    assert code == doc["_expect"]["exit"]
    assert len(seen) == calls


def test_pullback_witness_names_the_offending_pair(tmp_path, capsys):
    """Z/2 with {e} open: t then t composes into {e}, but (e, t), which lies
    in every neighbourhood of (t, t), composes to t; the witness names both
    pairs."""
    doc = {"groupoid": {"objects": ["*"],
                        "morphisms": [{"id": m, "src": "*", "tgt": "*"} for m in "et"],
                        "identities": {"*": "e"}, "inverses": {"e": "e", "t": "t"},
                        "compose": [["e", "e", "e"], ["e", "t", "t"],
                                    ["t", "e", "t"], ["t", "t", "e"]]},
           "morphism_topology": {"points": ["e", "t"], "opens": [[], ["e"], ["e", "t"]]},
           "object_topology": {"points": ["*"], "opens": [[], ["*"]]}}
    code, out, _ = run(["topology-check", _write(tmp_path, "z2.json", doc),
                        "--format", "machine"], capsys)
    witnesses = json.loads(out)["witnesses"]
    assert code == 1
    assert witnesses["composition"] == "open {e} pulls back to {((t, t), (e, t))}"


def _unit_window_doc(**extra):
    """Z/5 x Z/5 over the unit window {0, +-e1, +-e2}: a free vertex group
    of rank 2, so the class search triples at every level."""
    from groupoids.interchange import serialize_groupoid
    from helpers import cyclic, direct, group_groupoid

    G = group_groupoid(direct(cyclic(5), cyclic(5)))
    return {"groupoid": serialize_groupoid(G),
            "carrier": ["0.0", "1.0", "4.0", "0.1", "0.4"], **extra}


def test_star_cover_names_the_class_cap(tmp_path, monkeypatch, capsys):
    """Depth 4 holds 161 classes and reaches all 25 star elements; with the
    cap at 100 the search stops in the fourth level and the report says so,
    with the same verdict keys as an uncapped run."""
    import groupoids.monodromy as monodromy

    path = _write(tmp_path, "z5z5.json", _unit_window_doc(object="*"))
    argv = ["star-cover", path, "--depth", "4", "--format", "machine"]
    code, out, _ = run(argv, capsys)
    whole = json.loads(out)
    assert code == 0 and whole["undecided"] == []
    monkeypatch.setattr(monodromy, "MAX_CLASSES", 100)
    code, out, _ = run(argv, capsys)
    capped = json.loads(out)
    assert code == 2 and capped["verdict"] == "undecided"
    assert capped["undecided"][0] == "class search capped at 100 classes after depth 3 of 4"
    assert capped["verdicts"].keys() == whole["verdicts"].keys()


def test_star_cover_stops_at_the_real_class_cap(tmp_path, capsys):
    """At depth 12 the star holds 1,062,881 classes; the search keeps the
    first 65,536, which it finds in level 10, and says so."""
    path = _write(tmp_path, "z5z5.json", _unit_window_doc(object="*"))
    code, out, _ = run(["star-cover", path, "--depth", "12", "--format", "machine"], capsys)
    assert code == 2
    assert json.loads(out)["undecided"] == [
        "class search capped at 65536 classes after depth 9 of 12"]


def test_transported_window_names_the_class_cap(tmp_path, monkeypatch, capsys):
    """The whole-space cover of the one-point base transports to the
    discrete topology on the window; a cap of 3 stops the depth-1 window
    (5 classes) in its first level."""
    import groupoids.monodromy as monodromy

    lt = {"base_space": {"points": ["*"], "opens": [[], ["*"]]},
          "cover": [[0, ["*"]]], "sections": [["*", 0, [["*", "0.0"]]]]}
    path = _write(tmp_path, "z5z5-clt.json", _unit_window_doc(**lt))
    argv = ["clt-generate", path, "--window", "1", "--format", "machine"]
    code, out, _ = run(argv, capsys)
    whole = json.loads(out)
    assert code == 0 and whole["verdicts"]["window-classes"] == 5
    monkeypatch.setattr(monodromy, "MAX_CLASSES", 3)
    code, out, _ = run(argv, capsys)
    capped = json.loads(out)
    assert code == 2 and capped["verdicts"]["window-classes"] == 3
    assert capped["undecided"] == ["class search capped at 3 classes after depth 0 of 1"]
    assert capped["verdicts"].keys() == whole["verdicts"].keys()


def test_globalize_map_values_must_be_morphism_ids(tmp_path, capsys):
    doc = json.loads((CORPUS / "globalize-z7-s3.json").read_text())
    doc["map"]["0"] = []
    code, out, err = run(["globalize", _write(tmp_path, "bad-map.json", doc)], capsys)
    assert code == 3 and out == ""
    assert err == "error: document.map: expected object of morphism ids\n"


@pytest.mark.parametrize("key, value", [("3", "120"), ("bogus", "012")])
def test_globalize_map_keys_off_the_carrier_are_input_errors(key, value, tmp_path, capsys):
    """A morphism off the carrier, or a key that is no morphism, is named
    and refused, not ignored."""
    doc = json.loads((CORPUS / "globalize-z7-s3.json").read_text())
    doc["map"][key] = value
    code, out, err = run(["globalize", _write(tmp_path, "off-carrier.json", doc)], capsys)
    assert code == 3 and out == ""
    assert err == ("error: precondition violated: "
                   f"map given off the generating subset at '{key}'\n")


def _starved_transport_document(tmp_path):
    """Two whole-space members over the indiscrete two-point base of the
    product groupoid over Z/2, every morphism in the carrier."""
    from groupoids.interchange import serialize_groupoid, serialize_local_trivialization
    from groupoids.loctriv import local_trivialization, sections_from_arrows
    from groupoids.topology import indiscrete
    from helpers import cyclic, product_groupoid

    G = product_groupoid(2, cyclic(2))
    cover = [(0, frozenset({"o0", "o1"})), (1, frozenset({"o0", "o1"}))]
    LT = local_trivialization(indiscrete(["o0", "o1"]), cover,
                              sections_from_arrows(cover, lambda x, u: f"{x}>{u}:0"))
    doc = {"groupoid": serialize_groupoid(G), "carrier": sorted(G.morphisms),
           **serialize_local_trivialization(LT)}
    return _write(tmp_path, "starved.json", doc)


def test_starved_transport_keeps_the_inherited_verdicts(tmp_path, capsys):
    """At budget 2 the engines are starved and the run is undecided, yet the
    transported section laws and both Comp triples are inherited, so no
    Comp marker appears."""
    code, out, _ = run(["clt-generate", _starved_transport_document(tmp_path),
                        "--budget", "2", "--format", "machine"], capsys)
    report = json.loads(out)
    assert code == 2 and report["verdict"] == "undecided"
    assert report["verdicts"]["transported-sections-valid"] is True
    assert report["verdicts"]["comp-failed"] == 0
    assert report["verdicts"]["comp-satisfied"] == 2  # (o0, 0, 1) and (o1, 0, 1)
    assert report["undecided"]
    assert not [m for m in report["undecided"] if m.startswith("comp undecided")]


@pytest.mark.parametrize("budget, code, w_open, undecided", [
    (2, 2, None, ["window classes inexact at budget 2"]),
    (500, 0, True, []),
])
def test_starved_window_leaves_openness_undecided(tmp_path, capsys, budget, code,
                                                  w_open, undecided):
    """A starved engine splits the window's classes, so openness of i~(W)
    in the window is undecided there, not refuted; the one marker says
    why.  A budget that decides the engine makes it true."""
    got, out, _ = run(["clt-generate", _starved_transport_document(tmp_path),
                       "--window", "2", "--budget", str(budget), "--format", "machine"],
                      capsys)
    report = json.loads(out)
    assert got == code
    assert report["verdicts"]["w-tilde-open-in-window"] is w_open
    assert report["undecided"] == undecided


def test_boolean_cover_index_is_an_input_error(tmp_path, capsys):
    """JSON true is not the cover index 1, though Python's bool is an int."""
    doc = json.loads((CORPUS / "clt-sierpinski.json").read_text())
    doc["cover"][1][0] = True
    for entry in doc["sections"]:
        if entry[1] == 1:
            entry[1] = True
    code, out, err = run(["clt-generate", _write(tmp_path, "true-cover.json", doc)], capsys)
    assert code == 3 and out == ""
    assert err == "error: document.cover[1]: expected [index, [points]]\n"


def test_boolean_section_index_is_an_input_error(tmp_path, capsys):
    doc = json.loads((CORPUS / "clt-sierpinski.json").read_text())
    assert doc["sections"][1][1] == 1
    doc["sections"][1][1] = True
    code, out, err = run(["clt-generate", _write(tmp_path, "true-section.json", doc)], capsys)
    assert code == 3 and out == ""
    assert err == "error: document.sections[1]: expected [x, index, [[u, morphism]]]\n"


def test_repeated_compose_pair_is_an_input_error(tmp_path, capsys):
    """Z/2 stating 1 . 1 twice, wrongly first: the later triple no longer
    overwrites the earlier one, so the document does not parse."""
    from groupoids.interchange import serialize_groupoid
    from helpers import cyclic, group_groupoid

    doc = serialize_groupoid(group_groupoid(cyclic(2)))
    at = doc["compose"].index(["1", "1", "0"])
    doc["compose"].insert(at, ["1", "1", "1"])
    code, out, err = run(["validate", _write(tmp_path, "z2.json", doc)], capsys)
    assert code == 3 and out == ""
    assert err == f"error: groupoid.compose[{at + 1}]: duplicate pair ('1', '1')\n"


@pytest.mark.parametrize("where", ["inverses", "top level"])
def test_repeated_json_key_is_an_input_error(tmp_path, capsys, where):
    """JSON keeps the last of a repeated key: Z/2 stating the inverse of 1
    as 0 and then as 1 would pass.  A key repeated in any object, the
    document's own included, does not parse."""
    from groupoids.interchange import serialize_groupoid
    from helpers import cyclic, group_groupoid

    text = json.dumps(serialize_groupoid(group_groupoid(cyclic(2))))
    if where == "inverses":
        old, new, key = '"1": "1"}', '"1": "0", "1": "1"}', "1"
    else:
        old, new, key = '{"objects"', '{"objects": ["*"], "objects"', "objects"
    assert text.count(old) == 1
    path = tmp_path / "z2.json"
    path.write_text(text.replace(old, new))
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 3 and out == ""
    assert err == f"error: {path}: repeated key {key!r}\n"


@pytest.mark.parametrize("row, at, bad, message", [
    (["0", "NOPE"], 0, 1, "duplicate point '0'"),  # once overwritten by the real row
    (["7", "(0,1)"], 2, 2, "unknown point '7'"),   # once refuted as section-domain
])
def test_section_row_faults_are_input_errors(tmp_path, capsys, row, at, bad, message):
    """Rows the parser let through: a point repeated, the later row winning
    (exit 0), and a point the base space does not declare (exit 1)."""
    doc = json.loads((CORPUS / "clt-sierpinski.json").read_text())
    doc["sections"][1][2].insert(at, row)
    code, out, err = run(["clt-generate", _write(tmp_path, "rows.json", doc)], capsys)
    assert code == 3 and out == ""
    assert err == f"error: document.sections[1][{bad}]: {message}\n"


def test_pi1_names_colliding_midpoints(tmp_path, capsys):
    doc = {"vertices": ["a", "b,c", "a,b", "c"], "edges": [["a", "b,c"], ["a,b", "c"]]}
    code, out, err = run(["pi1", _write(tmp_path, "commas.json", doc)], capsys)
    assert code == 3 and out == ""
    assert err == ("error: precondition violated: midpoint names collide: edges "
                   "('a', 'b,c') and ('a,b', 'c') both give 'mid(a,b,c)'\n")


def test_pi1_repeated_vertex_is_named_by_its_field(tmp_path, capsys):
    """The parser names the repeated vertex; `pi1_graph` keeps its own check
    for callers that bypass the document."""
    from groupoids.monodromy import pi1_graph

    doc = {"vertices": ["a", "a", "b"], "edges": [["a", "b"]]}
    code, out, err = run(["pi1", _write(tmp_path, "twice.json", doc)], capsys)
    assert code == 3 and out == ""
    assert err == "error: graph.vertices[1]: duplicate vertex 'a'\n"
    with pytest.raises(ValueError, match="duplicate vertices"):
        pi1_graph(["a", "a", "b"], [("a", "b")])


@pytest.mark.parametrize("doc, message", [
    ({"vertices": [], "edges": []}, "graph.vertices: expected at least one vertex"),
    ({"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]},
     "graph.edges[1]: duplicate edge ['b', 'a']"),
    ({"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]},
     "graph.edges[1]: duplicate edge ['a', 'b']"),
    ({"vertices": ["a", "b"], "edges": [["a", "a"]]}, "graph.edges[0]: loop edge ['a', 'a']"),
    ({"vertices": ["a", "b"], "edges": [["a", "z"]]}, "graph.edges[0][1]: unknown vertex 'z'"),
], ids=["no-vertex", "reversed-edge", "repeated-edge", "loop", "unknown-vertex"])
def test_pi1_graph_faults_are_named_by_their_field(doc, message, tmp_path, capsys):
    code, out, err = run(["pi1", _write(tmp_path, "graph.json", doc)], capsys)
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_pi1_never_decides_generation(monkeypatch, capsys):
    """`generates_ambient` is decided on first read, and a pi1 run reads it
    nowhere."""
    import groupoids.monodromy as monodromy

    calls = []
    monkeypatch.setattr(monodromy, "generated_by", lambda *a: calls.append(a))
    code, out, _ = run(["pi1", str(CORPUS / "triangle-graph.json"), "--format", "machine"],
                       capsys)
    assert code == 0 and json.loads(out)["verdicts"]["rank"] == 1
    assert not calls


def test_monodromy_keeps_the_relator_of_a_broken_identity_law(tmp_path, capsys):
    """Z/2 with g.e = e passes the linear checks; its triple (g, e, e) has
    the letter g for relator, so the vertex group is trivial, not Z/2."""
    from helpers import z2_breaking_the_identity_law

    G = z2_breaking_the_identity_law()
    path = _write(tmp_path, "z2.json", _closed_carrier_doc(G, G.morphisms))
    code, out, _ = run(["monodromy", path, "--format", "machine"], capsys)
    assert code == 0
    assert json.loads(out)["verdicts"] == {"generates-ambient": True, "relators": 4,
                                           "vertex-group[*]": "free rank 0"}


def test_document_not_in_utf8_names_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"objects": ["\xff"]}')
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 3 and out == ""
    assert err == f"error: {path}: not UTF-8 at byte 14\n"


def _closed_carrier_doc(G, carrier, **extra):
    from groupoids.interchange import serialize_groupoid

    return {"groupoid": serialize_groupoid(G), "carrier": sorted(carrier), **extra}


def _runs_through_build_engine(argv, monkeypatch, capsys):
    """Exit, machine report without `timing` and stderr of `argv`, and the
    same with every component sent to `build_engine`, which simplifies and
    enumerates; each with the number of `simplify_presentation` calls in
    its run."""
    import groupoids.monodromy as monodromy
    import groupoids.words as words

    calls = []
    original = words.simplify_presentation
    monkeypatch.setattr(words, "simplify_presentation",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    runs = []
    for table_engine in (monodromy._table_engine, lambda *a: None):
        monkeypatch.setattr(monodromy, "_table_engine", table_engine)
        before = len(calls)
        code, out, err = run(argv, capsys)
        report = json.loads(out)
        report.pop("timing")
        runs.append(((code, report, err), len(calls) - before))
    return runs


def test_monodromy_at_the_order_budget_runs_no_elimination(tmp_path, monkeypatch, capsys):
    """The full carrier of Z/48 at budget 40: the certified order 48 reaches
    the budget, so the verdict is undecided without Tietze elimination, and
    the report is the one elimination and coset enumeration give."""
    from helpers import cyclic, group_groupoid

    G = group_groupoid(cyclic(48))
    path = _write(tmp_path, "z48.json", _closed_carrier_doc(G, G.morphisms))
    (shortcut, calls), (enumerated, old_calls) = _runs_through_build_engine(
        ["monodromy", path, "--budget", "40", "--format", "machine"], monkeypatch, capsys)
    assert calls == 0 and old_calls == 1
    assert shortcut == enumerated
    assert shortcut[0] == 2 and shortcut[1]["verdicts"]["vertex-group[*]"] == "undecided"


def test_transpositions_stay_undecided(tmp_path, capsys):
    """S3 over its transpositions presents the infinite Z2 * Z2 * Z2: each
    transposition keeps its square as a relation, so `--budget 200` runs out
    (exit 2) instead of certifying a free group of rank 3."""
    from helpers import group_groupoid, sym3

    G = group_groupoid(sym3())
    path = _write(tmp_path, "s3.json", _closed_carrier_doc(G, {"012", "021", "102", "210"}))
    code, out, _ = run(["monodromy", path, "--budget", "200", "--format", "machine"], capsys)
    assert code == 2
    assert json.loads(out)["verdicts"] == {"generates-ambient": True, "relators": 10,
                                           "vertex-group[*]": "undecided"}


def test_star_cover_at_the_order_budget_simplifies_once_per_component(
        tmp_path, monkeypatch, capsys):
    """P2 x Z/6 with the carrier of every endomorphism has two components,
    each a vertex group of order 6, here at budget 6.  The star cover at o0
    asks for tokens of its component only, whose engine simplifies once for
    all of them; the report is the one `build_engine` gives."""
    from helpers import cyclic, product_groupoid

    G = product_groupoid(2, cyclic(6))
    carrier = {m for m in G.morphisms if G.source[m] == G.target[m]}
    path = _write(tmp_path, "p2z6.json", _closed_carrier_doc(G, carrier, object="o0"))
    (shortcut, calls), (enumerated, old_calls) = _runs_through_build_engine(
        ["star-cover", path, "--depth", "4", "--budget", "6", "--format", "machine"],
        monkeypatch, capsys)
    assert calls == 1 and old_calls == 2
    assert shortcut == enumerated
    assert shortcut[1]["verdicts"]["engine"] == "undecided"
    assert shortcut[0] == 1  # o0 -> o1 is never reached


@pytest.mark.parametrize("n, budget, verdict", [(12, [], "finite order 12"),
                                                (48, ["--budget", "40"], "undecided")])
def test_monodromy_on_full_carriers_builds_no_words(n, budget, verdict, tmp_path,
                                                    monkeypatch, capsys):
    """The full carrier of Z/n is decided from its defining triples: no
    relator Word is built and `collapse_presentation` is never called.
    With --dot the relators are built for the label, which is the one the
    word pipeline of `collapse_oracle` gives."""
    import groupoids.cli as cli
    import groupoids.monodromy as monodromy
    from helpers import collapse_oracle, cyclic, group_groupoid

    G = group_groupoid(cyclic(n))
    path = _write(tmp_path, "zn.json", _closed_carrier_doc(G, G.morphisms))
    built, words, collapses = [], [], []
    build, word, collapse = (cli.build_monodromy, monodromy.Word,
                             monodromy.collapse_presentation)
    monkeypatch.setattr(cli, "build_monodromy",
                        lambda *a, **k: built.append(build(*a, **k)) or built[-1])
    monkeypatch.setattr(monodromy, "Word", lambda *a: words.append(a) or word(*a))
    monkeypatch.setattr(monodromy, "collapse_presentation",
                        lambda *a: collapses.append(a) or collapse(*a))
    argv = ["monodromy", path, *budget, "--format", "machine"]
    code, out, _ = run(argv, capsys)
    assert json.loads(out)["verdicts"]["vertex-group[*]"] == verdict
    assert not words and not collapses and "relators" not in vars(built[0])

    dot = tmp_path / "zn.dot"
    assert run([*argv, "--dot", str(dot)], capsys)[0] == code
    M = built[1]
    relators, _ = collapse_oracle(G, M.carrier, M.forest)
    pairs = {frozenset({a, G.inverse[a]}) for a in G.morphisms if not G.is_identity(a)}
    assert (dot.read_text().splitlines()[1]
            == f'  label="{len(pairs)} generators, {len(relators)} relators";')


def test_window_over_the_listing_cap_is_counted(tmp_path, capsys):
    """Z/5 with the carrier {0, 1, 4} and the whole-space cover of one point:
    the depth-8 window has 17 classes and a discrete topology of 2**17 opens,
    one more class than listing allows, and is decided."""
    from groupoids.interchange import serialize_groupoid
    from helpers import cyclic, group_groupoid

    doc = {"groupoid": serialize_groupoid(group_groupoid(cyclic(5))),
           "carrier": ["0", "1", "4"],
           "base_space": {"points": ["*"], "opens": [[], ["*"]]},
           "cover": [[0, ["*"]]], "sections": [["*", 0, [["*", "0"]]]]}
    code, out, err = run(["clt-generate", _write(tmp_path, "z5-clt.json", doc),
                          "--window", "8", "--format", "machine"], capsys)
    report = json.loads(out)
    assert code == 0 and err == "" and report["undecided"] == []
    assert report["verdicts"]["window-classes"] == 17
    assert report["verdicts"]["window-opens"] == 2 ** 17


def _discrete_pair4_doc():
    """The pair groupoid on four points over the discrete space with the
    singleton cover: its morphism topology is discrete, 2**16 opens."""
    from groupoids.core import pair_groupoid
    from groupoids.interchange import serialize_groupoid, serialize_local_trivialization
    from groupoids.loctriv import local_trivialization, sections_from_arrows
    from groupoids.topology import discrete

    points = ["a", "b", "c", "d"]
    cover = [(i, frozenset({p})) for i, p in enumerate(points)]
    LT = local_trivialization(discrete(points), cover,
                              sections_from_arrows(cover, lambda x, u: f"({x},{u})"))
    return {"groupoid": serialize_groupoid(pair_groupoid(points)),
            **serialize_local_trivialization(LT)}


@pytest.mark.parametrize("name, flags, key, count", [
    ("pair4-discrete", [], "opens", 2 ** 16),
    ("clt-monodromy-triangle", ["--window", "4"], "window-opens", 512),
])
def test_clt_generate_lists_no_opens(name, flags, key, count, tmp_path, monkeypatch,
                                     capsys):
    """`clt-generate` counts opens and tests the base pointwise, so its
    report is the same when listing an open family fails."""
    from groupoids.topology import FiniteTopology

    path = (_write(tmp_path, "pair4.json", _discrete_pair4_doc())
            if name == "pair4-discrete" else str(CORPUS / f"{name}.json"))
    argv = ["clt-generate", path, *flags, "--format", "machine"]
    reports = []
    for _ in range(2):
        code, out, err = run(argv, capsys)
        report = json.loads(out)
        report.pop("timing")
        reports.append((code, report, err))

        def refuse(self):
            raise RuntimeError("an open family was listed")

        monkeypatch.setattr(FiniteTopology, "opens", property(refuse))
    assert reports[0] == reports[1]
    assert reports[0][0] == 0 and reports[0][1]["verdicts"][key] == count


def test_a_count_past_the_digit_limit_is_rendered_whole(monkeypatch, capsys):
    """An exact count can pass the interpreter's 4,300-digit limit on
    int-to-str conversion (2**65536 has 19,729 digits).  Both renderings
    carry it whole, and the limit is back in place afterwards."""
    import sys

    import groupoids.cli as cli
    from groupoids.topology import FiniteTopology

    huge = 2 ** 65536
    with cli._all_digits():
        digits = str(huge)
    limit = sys.get_int_max_str_digits()
    monkeypatch.setattr(FiniteTopology, "open_count", huge)
    path = str(CORPUS / "clt-sierpinski.json")
    code, out, err = run(["clt-generate", path, "--format", "machine"], capsys)
    assert code == 0 and err == "" and f'"opens":{digits},' in out
    code, out, err = run(["clt-generate", path], capsys)
    assert code == 0 and err == "" and f"\nopens: {digits}\n" in out
    assert sys.get_int_max_str_digits() == limit


def test_package_root_loads_no_module_and_cli_loads_every_module():
    """`import groupoids` loads none of its modules: the package root
    exports nothing.  `import groupoids.cli` loads all of them, so every
    name the CLI calls is bound before the first command runs."""
    package = pathlib.Path(sys.modules[main.__module__].__file__).resolve().parent
    probe = ("import json, sys\n"
             "loaded = lambda: sorted(m for m in sys.modules if m.startswith('groupoids.'))\n"
             "import groupoids\n"
             "root = loaded()\n"
             "import groupoids.cli\n"
             "print(json.dumps([root, loaded()]))\n")
    done = subprocess.run([sys.executable, "-c", probe], cwd=package.parent,
                          capture_output=True, text=True, check=True)
    root, cli = json.loads(done.stdout)
    assert root == []
    assert cli == sorted(f"groupoids.{p.stem}" for p in package.glob("*.py")
                         if p.stem != "__init__")
