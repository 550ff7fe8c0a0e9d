"""The benchmark's tracer (`perfbench/trace.py`) installed around `cli.main`
on one corpus document per command.  It counts what it reads off results
(`relator_family`, `reached`, `window.points`, `topology.opens`, ...), so a
result attribute renamed or removed shows here as a command that no longer
runs or a counter that stays at zero, not first in a traced benchmark run."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import groupoids.cli as cli
from groupoids.interchange import serialize_groupoid
from helpers import cyclic, group_groupoid

ROOT = Path(__file__).resolve().parents[1]
TRACE = ROOT / "perfbench" / "trace.py"
CORPUS = ROOT / "corpus"

_PRESENTED = {"core.compose_entries", "monodromy.relators"}

# (command, corpus document, counters the command feeds)
RUNS = [
    ("validate", "pair-groupoid-3", {"core.compose_entries"}),
    ("monodromy", "z5-window", _PRESENTED),
    ("pi1", "triangle-graph", _PRESENTED),
    ("star-cover", "z5-star", _PRESENTED | {"monodromy.star_classes"}),
    ("globalize", "globalize-z7-s3", _PRESENTED),
    ("topology-check", "discrete-pair-topology", {"core.compose_entries"}),
    ("w-open", "w-open-partition", {"core.compose_entries"}),
    ("clt-generate", "clt-sierpinski",
     {"core.compose_entries", "loctriv.neighborhoods", "topology.opens"}),
    ("clt-generate", "clt-monodromy-triangle",
     _PRESENTED | {"words.eliminations", "loctriv.neighborhoods", "topology.opens",
                   "loctriv.window_classes"}),
]


def _load_trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace


def _traced(trace, argv):
    """(exit status, stderr, counts) of one traced `cli.main` call."""
    tracer = trace.Tracer()
    tracer.install()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tracer.wrap(cli.main, "cli.main")([*argv, "--format", "machine"])
    finally:
        tracer.uninstall()
    return code, err.getvalue(), tracer.counts


@pytest.mark.parametrize("command, name, fed", RUNS, ids=[f"{c}-{n}" for c, n, _ in RUNS])
def test_traced_command_feeds_its_counters(command, name, fed):
    trace = _load_trace()
    path = CORPUS / f"{name}.json"
    expect = json.loads(path.read_text())["_expect"]
    assert expect["command"] == command
    code, err, counts = _traced(trace, [command, str(path), *expect["flags"]])
    assert (code, err) == (expect["exit"], "")
    assert {key for key, n in counts.items() if n > 0} == fed


def test_simplification_that_keeps_relations_feeds_its_counter(tmp_path):
    """No corpus document keeps a relation after simplification.  The full
    carrier of Z/10 without 2 and 8 is not closed, so it is simplified, and
    its vertex group, finite of order 10, keeps some."""
    G = group_groupoid(cyclic(10))
    path = tmp_path / "punctured-z10.json"
    path.write_text(json.dumps({"groupoid": serialize_groupoid(G),
                                "carrier": [str(i) for i in range(10) if i not in (2, 8)]}))
    code, err, counts = _traced(_load_trace(), ["monodromy", str(path)])
    assert (code, err) == (0, "")
    assert counts["words.relations_after_simplify"] > 0


def test_lazy_simplification_of_an_undecided_table_feeds_its_counter(tmp_path):
    """The full carrier of Z/5 is closed, and at budget 3 its table engine
    is undecided without simplifying.  The star search asks it for tokens,
    which simplify the presentation then, through the traced name."""
    G = group_groupoid(cyclic(5))
    path = tmp_path / "z5-full-star.json"
    path.write_text(json.dumps({"groupoid": serialize_groupoid(G), "object": "*",
                                "carrier": sorted(G.morphisms)}))
    code, err, counts = _traced(_load_trace(), ["star-cover", str(path), "--budget", "3"])
    assert (code, err) == (2, "")
    assert counts["words.relations_after_simplify"] > 0


def test_every_counter_is_fed_somewhere():
    fed = set().union(*(f for _, _, f in RUNS), {"words.relations_after_simplify"})
    assert fed == set(_load_trace().COUNT_METRICS)
