"""The byte-identity harness (`scripts/machine_reports.py`) still runs
against the CLI: one row per corpus document, command and format, no
timing in any row, each document's own command exiting as its `_expect`
says, and the same rows on a second run."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def test_corpus_rows_are_complete_untimed_and_stable():
    spec = importlib.util.spec_from_file_location(
        "machine_reports", ROOT / "scripts" / "machine_reports.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
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
    spec = importlib.util.spec_from_file_location(
        "machine_reports", ROOT / "scripts" / "machine_reports.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    rows = list(harness.enumeration_records())
    assert [(r["name"], r["argv"][0], r["exit"]) for r in rows] == [
        ("enumeration/punctured-Z10", "monodromy", 0),
        ("enumeration/punctured-Z10", "star-cover", 0),
        ("enumeration/punctured-Z12", "monodromy", 0),
        ("enumeration/punctured-Z12", "star-cover", 0),
        ("enumeration/S3-transpositions", "monodromy", 2)]
    assert rows[4]["report"]["undecided"] == ["vertex-group[*]: budget 200 exhausted"]
    assert not [r for r in rows if str(ROOT) in json.dumps(r)]
