"""Golden machine reports: every corpus document, run with its `_expect`
command and flags in `--format machine`, must reproduce the stored report
byte for byte apart from `timing`.

The snapshots live in `golden_reports.json` next to this file.  After a
deliberate report change, rewrite them with

    PYTHONPATH=src python tests/test_golden_reports.py

and review the diff.
"""

import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

from groupoids.cli import main

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
DOCS = sorted(CORPUS.glob("*.json"))
SNAPSHOTS = HERE / "golden_reports.json"


def machine_report(path):
    """(exit status, machine report without `timing`, or None if no report)."""
    expect = json.loads(path.read_text())["_expect"]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main([expect["command"], str(path), *expect["flags"],
                     "--format", "machine"])
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        report.pop("timing")
    return {"exit": code, "report": report}


def test_every_corpus_document_has_a_snapshot():
    assert sorted(json.loads(SNAPSHOTS.read_text())) == [p.stem for p in DOCS]


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.stem)
def test_corpus_report_matches_snapshot(path):
    stored = json.loads(SNAPSHOTS.read_text())[path.stem]
    assert machine_report(path) == stored


if __name__ == "__main__":
    SNAPSHOTS.write_text(json.dumps({p.stem: machine_report(p) for p in DOCS},
                                    indent=1, sort_keys=True) + "\n")
