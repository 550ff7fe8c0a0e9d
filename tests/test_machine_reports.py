"""The byte-identity harness (`scripts/machine_reports.py`) still runs
against the CLI: one row per corpus document, command and format, no
timing in any row, each document's own command exiting as its `_expect`
says, and the same rows on a second run."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def _harness():
    spec = importlib.util.spec_from_file_location(
        "machine_reports", ROOT / "scripts" / "machine_reports.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return harness


def test_corpus_rows_are_complete_untimed_and_stable():
    harness = _harness()
    rows = list(harness.corpus_records())
    docs = sorted(CORPUS.glob("*.json"))
    assert len(rows) == len(docs) * len(harness.cli._COMMANDS) * len(harness.FORMATS)
    for r in rows:
        if isinstance(r["report"], dict):
            assert "timing" not in r["report"]
        elif r["report"] is not None:
            assert not [line for line in r["report"] if line.startswith("time:")]
    assert not [r for r in rows if str(ROOT) in json.dumps(r)]
    for path in docs:
        expect = json.loads(path.read_text())["_expect"]
        own = [r for r in rows
               if r["name"] == f"corpus/{path.stem}" and r["argv"][0] == expect["command"]]
        assert [r["exit"] for r in own] == [expect["exit"]] * 2, path.stem
    assert list(harness.corpus_records()) == rows


def test_enumeration_rows_reach_their_verdicts():
    """The carriers that are not composition-closed: Z/10 and Z/12 without
    {2, n - 2} are decided, S3 over its transpositions stays undecided."""
    harness = _harness()
    rows = list(harness.enumeration_records())
    assert [(r["name"], r["argv"][0], r["exit"]) for r in rows] == [
        ("enumeration/punctured-Z10", "monodromy", 0),
        ("enumeration/punctured-Z10", "star-cover", 0),
        ("enumeration/punctured-Z12", "monodromy", 0),
        ("enumeration/punctured-Z12", "star-cover", 0),
        ("enumeration/S3-transpositions", "monodromy", 2)]
    assert rows[4]["report"]["undecided"] == ["vertex-group[*]: budget 200 exhausted"]
    assert not [r for r in rows if str(ROOT) in json.dumps(r)]


def test_closed_carrier_rows_keep_their_exit_codes():
    """The composition-closed carriers: Z/96 and D6 on three objects are
    certified at size, and the three one-object tables that break the
    group laws are turned down by the certificate and decided by coset
    enumeration; every run exits 0."""
    harness = _harness()
    rows = list(harness.closed_carrier_records())
    assert [(r["name"], r["argv"][0], r["exit"]) for r in rows] == [
        ("closed-carrier/full-Z96", "monodromy", 0),
        ("closed-carrier/full-D6-on-3", "monodromy", 0),
        ("closed-carrier/full-D6-on-3", "star-cover", 0),
        ("closed-carrier/scrambled-Z5", "monodromy", 0),
        ("closed-carrier/loop-of-order-5", "monodromy", 0),
        ("closed-carrier/relations", "monodromy", 0)]
    assert rows[0]["report"]["verdicts"]["vertex-group[*]"] == "finite order 96"
    assert rows[1]["report"]["verdicts"]["vertex-group[o0]"] == "finite order 12"
    assert [r["report"]["verdicts"]["vertex-group[*]"] for r in rows[3:]] == ["free rank 0"] * 3
    assert not [r for r in rows if str(ROOT) in json.dumps(r)]


def test_mismatched_base_rows_are_precondition_errors():
    """A structure whose base points are not the groupoid's objects exits 3
    under `clt-generate` and `w-open` alike, naming the first point, by
    `str`, of the difference, and never as an internal error."""
    harness = _harness()
    rows = list(harness.mismatched_base_records())
    points = {"cut-partition": "2", "renamed-partition": "0", "renamed-sierpinski": "0",
              "extra-point-sierpinski": "zz", "extra-covered-sierpinski": "zz"}
    assert [(r["name"], r["argv"][0]) for r in rows] == [
        (f"mismatched-base/{name}", command)
        for name in points for command in ("clt-generate", "w-open")]
    for r in rows:
        point = points[r["name"].split("/")[1]]
        assert (r["exit"], r["report"]) == (3, None)
        assert r["stderr"] == ("error: precondition violated: base space points differ "
                               f"from the objects at '{point}'\n")
