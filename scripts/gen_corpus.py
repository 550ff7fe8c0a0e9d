#!/usr/bin/env python3
"""Regenerate the bundled corpus (corpus/*.json).

Every corpus document carries a top-level "_expect" annotation naming the
subcommand, extra flags, and the exit status the CLI must produce for it;
tests/test_cli.py replays the whole directory against that contract.
Annotations are stripped before fingerprinting, so two documents with the
same content and different annotations share a fingerprint.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from groupoids.core import pair_groupoid  # noqa: E402
from groupoids.interchange import (  # noqa: E402
    serialize_groupoid,
    serialize_local_trivialization,
    serialize_topology,
)
from groupoids.loctriv import local_trivialization, sections_from_arrows  # noqa: E402
from groupoids.topology import discrete, topology  # noqa: E402

from helpers import cyclic, group_groupoid, product_groupoid, sym3  # noqa: E402

F = frozenset
OUT = ROOT / "corpus"


def write(name, doc, command, flags, exit_code):
    doc = dict(doc)
    doc["_expect"] = {"command": command, "flags": list(flags), "exit": exit_code}
    (OUT / name).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"  {name}: {command} {' '.join(flags)} -> exit {exit_code}")


def canonical_lt_doc(G, base, cover):
    cov = [(i, F(u)) for i, u in cover]
    LT = local_trivialization(base, cov,
                              sections_from_arrows(cov, lambda x, u: f"({x},{u})"))
    return serialize_local_trivialization(LT)


def main():
    OUT.mkdir(exist_ok=True)

    pair3 = pair_groupoid(["a", "b", "c"])
    write("pair-groupoid-3.json", serialize_groupoid(pair3), "validate", [], 0)

    broken = serialize_groupoid(pair3)
    broken["compose"] = [triple if triple != ["(a,b)", "(b,c)", "(a,c)"]
                         else ["(a,b)", "(b,c)", "(a,a)"]
                         for triple in broken["compose"]]
    write("broken-composition.json", broken, "validate", [], 1)

    write("dangling-target.json",
          {"objects": ["a"],
           "morphisms": [{"id": "m", "src": "a", "tgt": "zzz"}],
           "identities": {"a": "m"}, "inverses": {"m": "m"}, "compose": []},
          "validate", [], 3)

    z5 = {"groupoid": serialize_groupoid(group_groupoid(cyclic(5))),
          "carrier": ["0", "1", "4"], "object": "*"}
    write("z5-window.json", z5, "monodromy", ["--budget", "100"], 0)
    write("z5-star.json", z5, "star-cover", ["--depth", "12"], 0)

    z11 = {"groupoid": serialize_groupoid(group_groupoid(cyclic(11))),
           "carrier": ["0", "1", "10"], "object": "*"}
    write("z11-shallow-star.json", z11, "star-cover", ["--depth", "2"], 2)

    z6 = {"groupoid": serialize_groupoid(group_groupoid(cyclic(6))),
          "carrier": ["0", "2", "4"], "object": "*"}
    write("z6-even-star.json", z6, "star-cover", [], 1)

    write("triangle-graph.json",
          {"vertices": ["a", "b", "c"],
           "edges": [["a", "b"], ["b", "c"], ["c", "a"]]},
          "pi1", [], 0)

    write("sierpinski.json",
          {"points": ["0", "1"], "opens": [[], ["0"], ["0", "1"]]},
          "topology-check", [], 0)
    write("missing-union.json",
          {"points": ["0", "1"], "opens": [[], ["0"], ["1"]]},
          "topology-check", [], 1)

    pair2 = pair_groupoid(["0", "1"])
    write("discrete-pair-topology.json",
          {"groupoid": serialize_groupoid(pair2),
           "morphism_topology": serialize_topology(discrete(sorted(pair2.morphisms))),
           "object_topology": serialize_topology(discrete(["0", "1"]))},
          "topology-check", [], 0)

    sier = topology(["0", "1"], [F(), F({"0"}), F({"0", "1"})])
    clt = {"groupoid": serialize_groupoid(pair2)}
    clt.update(canonical_lt_doc(pair2, sier, [(0, {"0"}), (1, {"0", "1"})]))
    write("clt-sierpinski.json", clt, "clt-generate", [], 0)

    G2 = product_groupoid(2, cyclic(2))
    comp_base = topology(["o0", "o1"], [F(), F({"o1"}), F({"o0", "o1"})])
    comp_lt = serialize_local_trivialization(local_trivialization(
        comp_base,
        [(0, F({"o0", "o1"})), (1, F({"o0", "o1"})), (2, F({"o1"}))],
        {("o0", 0): {"o0": "o0>o0:0", "o1": "o0>o1:0"},
         ("o0", 1): {"o0": "o0>o0:0", "o1": "o0>o1:1"},
         ("o1", 0): {"o1": "o1>o1:0", "o0": "o1>o0:0"},
         ("o1", 1): {"o1": "o1>o1:0", "o0": "o1>o0:0"},
         ("o1", 2): {"o1": "o1>o1:0"}}))
    comp_doc = {"groupoid": serialize_groupoid(G2)}
    comp_doc.update(comp_lt)
    write("clt-comp-violation.json", comp_doc, "clt-generate", [], 1)

    pair4 = pair_groupoid(["0", "1", "2", "3"])
    part_base = topology(["0", "1", "2", "3"],
                         [F(), F({"0", "1"}), F({"2", "3"}),
                          F({"0", "1", "2", "3"})])
    blocks = canonical_lt_doc(pair4, part_base,
                              [(0, {"0", "1"}), (1, {"2", "3"})])
    w_doc = {"groupoid": serialize_groupoid(pair4),
             "carrier": sorted({f"({u},{v})" for u in "01" for v in "01"}
                               | {f"({u},{v})" for u in "23" for v in "23"})}
    w_doc.update(blocks)
    write("w-open-partition.json", w_doc, "w-open", [], 0)

    s3 = serialize_groupoid(group_groupoid(sym3()))
    z7 = serialize_groupoid(group_groupoid(cyclic(7)))
    write("globalize-z7-s3.json",
          {"groupoid": z7, "carrier": ["0", "1", "6"], "target": s3,
           "map": {"0": "012", "1": "120", "6": "201"}},
          "globalize", [], 0)
    write("globalize-obstruction.json",
          {"groupoid": z7, "carrier": ["0", "1", "2", "5", "6"], "target": s3,
           "map": {"0": "012", "1": "120", "6": "201", "2": "012", "5": "012"}},
          "globalize", [], 1)

    tri = {"groupoid": serialize_groupoid(pair3),
           "carrier": sorted(pair3.morphisms)}
    tri.update(canonical_lt_doc(
        pair3, discrete(["a", "b", "c"]),
        [(0, {"a"}), (1, {"b"}), (2, {"c"}), (3, {"a", "b"})]))
    write("clt-monodromy-triangle.json", tri,
          "clt-generate", ["--window", "4"], 0)

    starved = {"groupoid": serialize_groupoid(G2),
               "carrier": sorted(G2.morphisms)}
    write("monodromy-starved.json", starved, "monodromy", ["--budget", "2"], 2)
    print(f"{len(list(OUT.glob('*.json')))} corpus documents in {OUT}")


if __name__ == "__main__":
    main()
