"""CLI fuzzing over mutated corpus documents.

Each example takes one corpus document, changes one value somewhere inside
it (replaced by a value of another JSON type, deleted, or repeated), and
runs the document's own command twice in machine format.  Whatever the
document now holds, the CLI must exit 0-3, print no traceback and report no
internal error, and give the same report and messages on the rerun apart
from `timing`.
"""

import io
import json
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from groupoids.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
DOCS = {p.stem: json.loads(p.read_text()) for p in sorted(CORPUS.glob("*.json"))}

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 12), st.text(max_size=3),
                 st.sampled_from(["*", "0", "1", "a", "o0"]),
                 st.lists(st.one_of(st.integers(0, 3), st.text(max_size=2)), max_size=3),
                 st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2))


def _paths(node, path=()):
    """Every path from the root to a value inside the document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        if key == "_expect":
            continue
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(doc, path, how, junk):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if how == "delete":
        del parent[key]
    elif how == "repeat" and isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[key] = junk
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    report = json.loads(out.getvalue()) if out.getvalue() else None
    if report is not None:
        report.pop("timing")
    return code, report, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_corpus_documents_keep_the_exit_contract(data):
    name = data.draw(st.sampled_from(sorted(DOCS)), label="document")
    doc = DOCS[name]
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    how = data.draw(st.sampled_from(["replace", "delete", "repeat"]), label="how")
    mutant = _mutate(doc, path, how, data.draw(JUNK, label="junk"))
    expect = doc["_expect"]
    with tempfile.TemporaryDirectory() as tmp:
        file = pathlib.Path(tmp) / f"{name}.json"
        file.write_text(json.dumps(mutant))
        argv = [expect["command"], str(file), *expect["flags"], "--format", "machine"]
        first = _run(argv)
        code, _, err = first
        assert code in (0, 1, 2, 3), err
        assert "Traceback" not in err and "internal error" not in err, err
        assert _run(argv) == first
