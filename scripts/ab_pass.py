#!/usr/bin/env python3
"""Time two source trees against each other, whole passes in one process.

    python3 scripts/ab_pass.py PARENT_TREE CHANGE_TREE --workload clt-topology --seed 3

The timing runs twice, each time in a fresh worker process started with
multiprocessing's "spawn" context: one worker imports the parent first and
the other the change first, and the script prints change/parent for each
import order, since the tree imported first could be favoured.  In a
worker, each tree's `src/groupoids` is copied into a temporary directory
under a package name of its own (`groupoids_parent`, `groupoids_change`),
so both import side by side; the package's own imports are relative.  One
pass of documents comes from this tree's `perfbench.workloads` and is
written to the same temporary directory.  Every document is first run once
on each side, in import order, and the outputs must agree apart from
`timing`; then each side runs one more untimed pass, in the reverse order,
so neither side is always warmed second.  Then whole passes of the two
sides alternate, the side that goes first swapping every pair, and the
script prints each side's median pass time and median per-document time,
with the quartiles of the pass times and the pairs each side won, the
change/parent ratio apart for the pairs the parent led and those the
change led, and the five documents whose median time moved most, so a
gain shows where it landed.  Each pass starts with a full garbage
collection: without it the cyclic collector fell mostly in the first pass
of a pair, and on monodromy-words a tree timed against itself read about
10 % faster when it ran second.  Timing both sides in one process keeps
the machine's drift between processes out of each comparison.  perfbench
is only read.
"""

import argparse
import gc
import importlib
import multiprocessing
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.measure import call_main  # noqa: E402
from perfbench.workloads import WORKLOADS, build, write_documents  # noqa: E402

SIDES = ("parent", "change")


def load_side(tree, name, into):
    """`groupoids.cli.main` of `tree`, imported as `groupoids_<name>`."""
    package = f"groupoids_{name}"
    shutil.copytree(Path(tree) / "src" / "groupoids", into / package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{package}.cli").main


def one_pass(main, docs):
    """(pass seconds, seconds per document, outcomes), after a full
    collection, so that no pass pays for the garbage of the one before."""
    gc.collect()
    outcomes = [call_main(main, doc.argv()) for doc in docs]
    return sum(o.seconds for o in outcomes), [o.seconds for o in outcomes], outcomes


def time_pairs(order, trees, workload, seed, pairs):
    """In a fresh process: import the sides in `order`, check that they
    agree, and time `pairs` alternating pass pairs.  (document names, pass
    times, per-document times), the times by side, or an error message."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sys.path.insert(0, str(tmp))
        mains = {side: load_side(trees[side], side, tmp) for side in order}
        docs = build(workload, seed, ROOT)
        write_documents(docs, tmp / "docs")

        first = {side: one_pass(mains[side], docs)[2] for side in order}
        differ = [doc.name for doc, a, b in zip(docs, first["parent"], first["change"])
                  if a.stable_text() != b.stable_text() or a.err != b.err]
        if differ:
            return (f"the sides answer {len(differ)} of {len(docs)} documents "
                    f"differently, first {differ[0]}")
        for side in order[::-1]:
            one_pass(mains[side], docs)

        pass_s = {side: [] for side in SIDES}
        doc_s = {side: [] for side in SIDES}
        for k in range(pairs):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                seconds, per_doc, _ = one_pass(mains[side], docs)
                pass_s[side].append(seconds)
                doc_s[side].append(per_doc)
    return [doc.name for doc in docs], pass_s, doc_s


def report(names, pass_s, doc_s, pairs):
    """Print one worker's medians, quartiles, wins and ratios, and the five
    documents whose median time moved most, by milliseconds."""
    for side in SIDES:
        q1, med, q3 = statistics.quantiles(pass_s[side], n=4)
        per_doc = statistics.median(statistics.median(times)
                                    for times in zip(*doc_s[side]))
        print(f"    {side:6s} pass median {med * 1e3:9.3f} ms "
              f"(quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f}), "
              f"per-document median {per_doc * 1e3:.4f} ms")
    wins = sum(new < old for old, new in zip(pass_s["parent"], pass_s["change"]))
    base, new = (statistics.median(pass_s[side]) for side in SIDES)
    ratio = new / base
    print(f"    change/parent {ratio:.3f}; change faster in {wins} of {pairs} pairs")
    for lead, start in zip(SIDES, (0, 1)):  # pair k ran the parent first when k is even
        old, new = (pass_s[side][start::2] for side in SIDES)
        print(f"      {lead} first: change/parent "
              f"{statistics.median(new) / statistics.median(old):.3f}; change faster in "
              f"{sum(n < o for o, n in zip(old, new))} of {len(old)} pairs")
    old, new = ([statistics.median(times) for times in zip(*doc_s[side])] for side in SIDES)
    moved = sorted(zip(names, old, new), key=lambda t: -abs(t[2] - t[1]))[:5]
    print("    documents that moved most: " + ", ".join(
        f"{name} {(n - o) * 1e3:+.3f} ms ({n / o:.3f})" for name, o, n in moved))
    return ratio


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="source tree of the parent commit")
    p.add_argument("change", help="source tree of the change")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10, help="timed pass pairs (default 10)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")

    trees = dict(zip(SIDES, (args.parent, args.change)))
    orders = (SIDES, SIDES[::-1])
    # one task per worker, so each import order gets a process of its own
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
        results = [pool.apply(time_pairs, (order, trees, args.workload, args.seed, args.pairs))
                   for order in orders]
    for result in results:
        if isinstance(result, str):
            print(f"error: {result}", file=sys.stderr)
            return 1

    print(f"{args.workload} seed {args.seed}: {len(results[0][0])} documents, "
          f"{args.pairs} alternating pass pairs per import order, outputs agree")
    ratios = []
    for order, (names, pass_s, doc_s) in zip(orders, results):
        print(f"  {order[0]} imported first:")
        ratios.append(report(names, pass_s, doc_s, args.pairs))
    print("  change/parent by import order: " + ", ".join(
        f"{order[0]} first {ratio:.3f}" for order, ratio in zip(orders, ratios)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
