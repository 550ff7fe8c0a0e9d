#!/usr/bin/env python3
"""Record what the CLI answers, without its timings, for a byte-for-byte diff.

Runs `groupoids.cli.main` in this process on

  - every corpus document under each of the eight commands, with the
    document's own flags, in both the human and the machine format, and
    `--dot` for the commands that export DOT;
  - three carriers that are not composition-closed, so their vertex groups
    go through simplification and coset enumeration (no corpus document
    reaches that path): the full carriers of Z/10 and Z/12 without
    {2, n - 2}, under `monodromy` and `star-cover --depth 4`, and S3 over
    its transpositions and the identity, under `monodromy --budget 200`,
    where it stays undecided;
  - composition-closed carriers, whose vertex groups are certified off the
    table: the full carrier of Z/96 under `monodromy`, that of D6 on three
    objects under `monodromy` and `star-cover --depth 3`, and under
    `monodromy` three one-object tables that break the group laws (Z/5
    with 2.3 = 1, a non-associative loop of order 5, and a table whose
    columns (0 1) and (0 2) generate S3);
  - five structures whose base space is not the groupoid's object space,
    cut from corpus documents (`mismatched_base_documents`), under
    `clt-generate` and `w-open`;
  - every perfbench document of the four workloads at each `--seed`, under
    its own command and flags.

Each run gives one line of canonical JSON: the run's name and argv, the
exit code, the report without its `timing` (the parsed object for the
machine format, the lines without `time:` for the human one), stderr, and
the DOT text where one was asked for.  Two source trees answer alike
exactly when their outputs are the same file, so a change that should not
alter any answer is checked with

    python3 scripts/machine_reports.py --seed 1 --seed 2 --out before.jsonl  # parent
    python3 scripts/machine_reports.py --seed 1 --seed 2 --out after.jsonl   # change
    diff before.jsonl after.jsonl

The program is imported from this tree's `src`; perfbench is only read,
and its documents are written to a temporary directory that is removed.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from groupoids import cli  # noqa: E402
from groupoids.interchange import canonical  # noqa: E402

FORMATS = ("human", "machine")


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def untimed(text, fmt):
    """The report without its wall-clock field."""
    if not text:
        return None
    if fmt == "machine":
        report = json.loads(text)
        report.pop("timing", None)
        return report
    return [line for line in text.splitlines() if not line.startswith("time: ")]


def record(name, argv, fmt, hidden):
    """One run; each directory of `hidden` shows as its alias."""
    code, out, err = run(argv)

    def show(text):
        for where, alias in hidden:
            text = text.replace(where, alias)
        return text

    return {"name": name, "argv": [show(a) for a in argv], "exit": code,
            "report": untimed(out, fmt), "stderr": show(err)}


def corpus_records():
    with tempfile.TemporaryDirectory() as tmp:
        hidden = [(tmp, "<tmp>"), (str(ROOT), "<root>")]
        dot = Path(tmp) / "out.dot"
        for path in sorted((ROOT / "corpus").glob("*.json")):
            flags = json.loads(path.read_text(encoding="utf-8"))["_expect"]["flags"]
            for command in cli._COMMANDS:
                extra = ["--dot", str(dot)] if command in cli._DOT_COMMANDS else []
                for fmt in FORMATS:
                    dot.unlink(missing_ok=True)
                    row = record(f"corpus/{path.stem}",
                                 [command, str(path), *flags, *extra, "--format", fmt],
                                 fmt, hidden)
                    if extra:
                        row["dot"] = dot.read_text(encoding="utf-8") if dot.exists() else None
                    yield row


def enumeration_records():
    """The carriers that are not composition-closed, each under its runs."""
    from perfbench.tables import cyclic, group_groupoid, groupoid_doc, sym3

    docs = [(f"punctured-Z{n}",
             {"groupoid": groupoid_doc(group_groupoid(cyclic(n))), "object": "*",
              "carrier": [str(i) for i in range(n) if i not in (2, n - 2)]},
             [("monodromy",), ("star-cover", "--depth", "4")]) for n in (10, 12)]
    docs.append(("S3-transpositions",
                 {"groupoid": groupoid_doc(group_groupoid(sym3())),
                  "carrier": ["012", "021", "102", "210"]},
                 [("monodromy", "--budget", "200")]))
    with tempfile.TemporaryDirectory() as tmp:
        hidden = [(tmp, "<docs>"), (str(ROOT), "<root>")]
        for name, body, runs in docs:
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(body), encoding="utf-8")
            for command, *flags in runs:
                yield record(f"enumeration/{name}",
                             [command, str(path), *flags, "--format", "machine"],
                             "machine", hidden)


def closed_carrier_records():
    """Composition-closed carriers, whose vertex groups are read off the
    table and certified (`monodromy._table_engine`), at size and on tables
    that break the laws: the full carriers of Z/96 and of D6 on three
    objects, and three one-object tables the certificate turns down."""
    from perfbench.tables import (Group, cyclic, dihedral, group_groupoid, groupoid_doc,
                                  product_groupoid)

    def one_object(rows, inverse):
        names = tuple(map(str, range(len(rows))))
        return group_groupoid(Group(names, {(a, b): rows[int(a)][int(b)]
                                            for a in names for b in names},
                                    dict(zip(names, inverse)), "0"))

    z5 = cyclic(5)
    docs = [("full-Z96", group_groupoid(cyclic(96)), "*", [("monodromy",)]),
            ("full-D6-on-3", product_groupoid(["o0", "o1", "o2"], dihedral(6)), "o0",
             [("monodromy",), ("star-cover", "--depth", "3")]),
            ("scrambled-Z5",
             group_groupoid(Group(z5.names, {**z5.mul, ("2", "3"): "1"}, z5.inv, z5.unit)),
             "*", [("monodromy",)]),
            ("loop-of-order-5",
             one_object(["01234", "10342", "24013", "32401", "43120"], "01234"), "*",
             [("monodromy",)]),
            ("relations", one_object(["012", "101", "220"], "012"), "*", [("monodromy",)])]
    with tempfile.TemporaryDirectory() as tmp:
        hidden = [(tmp, "<docs>"), (str(ROOT), "<root>")]
        for name, G, x, runs in docs:
            path = Path(tmp) / f"{name}.json"
            body = {"groupoid": groupoid_doc(G), "object": x, "carrier": list(G.morphisms)}
            path.write_text(json.dumps(body), encoding="utf-8")
            for command, *flags in runs:
                yield record(f"closed-carrier/{name}",
                             [command, str(path), *flags, "--format", "machine"],
                             "machine", hidden)


def mismatched_base_documents():
    """(name, body) of structures whose base points are not the objects:
    w-open-partition with its base cut to the points {0, 1}, one cover
    member and the sections over it; w-open-partition and clt-sierpinski
    with every point p renamed pX; and clt-sierpinski with a point zz added
    to the whole-space open, once alone and once with a cover member over
    all three points and a section at zz.  The Sierpinski documents carry
    the full carrier, so that `w-open` reaches the structure too."""
    def load(stem):
        body = json.loads((ROOT / "corpus" / f"{stem}.json").read_text(encoding="utf-8"))
        body.pop("_expect")
        body.setdefault("carrier", [m["id"] for m in body["groupoid"]["morphisms"]])
        return body

    def renamed(body):
        def x(p):
            return p + "X"

        space = body["base_space"]
        return {**body,
                "base_space": {"points": [x(p) for p in space["points"]],
                               "opens": [[x(p) for p in o] for o in space["opens"]]},
                "cover": [[i, [x(p) for p in u]] for i, u in body["cover"]],
                "sections": [[x(p), i, [[x(u), m] for u, m in rows]]
                             for p, i, rows in body["sections"]]}

    cut = load("w-open-partition")
    cut.update(base_space={"points": ["0", "1"], "opens": [[], ["0", "1"]]},
               cover=cut["cover"][:1], sections=cut["sections"][:2])
    extra = load("clt-sierpinski")
    extra["base_space"] = {"points": ["0", "1", "zz"], "opens": [[], ["0"], ["0", "1", "zz"]]}
    covered = {**extra, "cover": [*extra["cover"], [2, ["0", "1", "zz"]]],
               "sections": [*extra["sections"],
                            ["zz", 2, [["0", "(0,0)"], ["1", "(0,1)"], ["zz", "(0,0)"]]]]}
    return [("cut-partition", cut),
            ("renamed-partition", renamed(load("w-open-partition"))),
            ("renamed-sierpinski", renamed(load("clt-sierpinski"))),
            ("extra-point-sierpinski", extra),
            ("extra-covered-sierpinski", covered)]


def mismatched_base_records():
    with tempfile.TemporaryDirectory() as tmp:
        hidden = [(tmp, "<docs>"), (str(ROOT), "<root>")]
        for name, body in mismatched_base_documents():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(body), encoding="utf-8")
            for command in ("clt-generate", "w-open"):
                yield record(f"mismatched-base/{name}",
                             [command, str(path), "--format", "machine"], "machine", hidden)


def perfbench_records(seed):
    from perfbench import workloads

    with tempfile.TemporaryDirectory() as tmp:
        hidden = [(tmp, "<docs>"), (str(ROOT), "<root>")]
        for workload in workloads.WORKLOADS:
            docs = workloads.build(workload, seed, ROOT)
            workloads.write_documents(docs, Path(tmp) / workload)
            for doc in sorted(docs, key=lambda d: d.name):
                yield record(f"{workload}/seed{seed}/{doc.name}", doc.argv(), "machine",
                             hidden)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, action="append", default=[],
                   help="also run the perfbench documents of this seed (repeatable)")
    p.add_argument("--out", help="write here instead of standard output")
    args = p.parse_args(argv)
    lines = [canonical(r) for r in (*corpus_records(), *enumeration_records(),
                                    *closed_carrier_records(), *mismatched_base_records())]
    for seed in args.seed:
        lines += [canonical(r) for r in perfbench_records(seed)]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
