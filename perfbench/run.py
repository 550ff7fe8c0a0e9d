#!/usr/bin/env python3
"""Benchmark of the groupoids checker, run from the root of a source tree.

    python3 perfbench/run.py --workload clt-topology --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

Workloads: clt-topology, pi1-graphs, monodromy-words, corpus-cli (see
perfbench/README.md).  The program is imported from ./src; nothing needs
installing.  With --trace 0 the run reports the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run.  Every output is
checked against the oracles in perfbench/oracles.py.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs every workload untraced and then traced, one
process at a time, and prints a table.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import measure  # noqa: E402
from perfbench.workloads import WORKLOADS, build, write_documents  # noqa: E402

SETUP_PROBES = 7
IMPORT_PROBES = 7
# corpus-cli runs every document in a process of its own; three passes at
# least give each document a median of three
CORPUS_MIN_ROUNDS = 3

END_TO_END_UNITS = {"batch_s": "s", "verdict_s_p50": "s", "peak_rss_mb": "MiB",
                    "setup_s": "s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR",
                   help=argparse.SUPPRESS)  # internal: one fresh-process set-up
    return p.parse_args(argv)


def setup_probe(workload, seed, directory):
    """What a workload does before its first timed call, in a fresh process."""
    import groupoids.cli  # noqa: F401
    write_documents(build(workload, seed, ROOT), Path(directory))


def _probe_cmd(workload, seed, directory):
    return [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--setup-probe", str(directory)]


# ------------------------------------------------------------------ checks

def _report(outcome):
    try:
        return json.loads(outcome.out) if outcome.out.strip() else None
    except json.JSONDecodeError:
        return None


def check_rounds(docs, done):
    """(attempted, failed, unexpected failures).  Known faults count as
    failed but not as unexpected; the oracles' self-test runs on one passing
    output of each kind."""
    from perfbench import oracles

    cache, unexpected, samples, failed = {}, [], {}, 0
    for rnd in done:
        for i, (doc, outcome) in enumerate(zip(docs, rnd.outcomes)):
            key = (i, outcome.stable_text(), outcome.err)
            if key not in cache:
                cache[key] = oracles.check(doc, outcome.code, _report(outcome), outcome.err)
            problem = cache[key]
            if problem is None and i in rnd.drifted:
                problem = "repeated calls gave different outputs"
            if problem is None:
                samples.setdefault(doc.kind, (doc, outcome.code, _report(outcome), outcome.err))
                continue
            failed += 1
            if not doc.known_fault:
                unexpected.append(f"{doc.name}: {problem}")
    attempted = len(docs) * len(done)
    unexpected += oracles.self_test(samples.values())
    return attempted, failed, unexpected


# ------------------------------------------------------------------- runs

def in_process_call(doc):
    from groupoids.cli import main
    return measure.call_main(main, doc.argv())


def run_untraced(workload, seed, seconds, work):
    env = measure.child_env(SRC)
    probe_dir = work / "probe"
    (setup_times,) = measure.fresh_interpreters(
        [_probe_cmd(workload, seed, probe_dir)], env, ROOT, work, SETUP_PROBES)
    docs = build(workload, seed, ROOT)
    write_documents(docs, work / "docs")
    if workload == "corpus-cli":
        def call(doc):
            cmd = [sys.executable, "-m", "groupoids.cli", *doc.argv()]
            return measure.spawn(cmd, env, ROOT, work)
        done = measure.rounds(docs, seconds, call, CORPUS_MIN_ROUNDS, repeat=False)
        peak = max(o.peak_rss_kib for r in done for o in r.outcomes) / 1024
    else:
        import groupoids.cli  # noqa: F401
        done = measure.rounds(docs, seconds, in_process_call)
        # after the first pass: later passes can find earlier results still
        # held by the program's caches, which one process per document never does
        peak = done[0].peak_rss_mib
    values = {
        "batch_s": statistics.median(r.pass_s for r in done),
        "verdict_s_p50": statistics.median(measure.median_doc_s(done)),
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setup_times),
    }
    details = {"rounds": len(done), "setup_runs_s": setup_times,
               "pass_s": [r.pass_s for r in done],
               "call_s": [[o.seconds for o in r.outcomes] for r in done],
               "doc_s": dict(zip((d.name for d in docs), measure.median_doc_s(done)))}
    return docs, done, values, details


def run_traced(workload, seed, seconds, work):
    from perfbench.trace import COUNT_METRICS, SPAN_METRICS, Tracer, layer_times

    env = measure.child_env(SRC)
    bare, loaded = measure.fresh_interpreters(
        [[sys.executable, "-c", "pass"], [sys.executable, "-c", "import groupoids.cli"]],
        env, ROOT, work, IMPORT_PROBES)
    import groupoids.cli
    docs = build(workload, seed, ROOT)
    write_documents(docs, work / "docs")
    tracer = Tracer()
    plain, traced, layers, counts, first_spans = [], [], [], [], None

    traced_main = tracer.wrap(groupoids.cli.main, "cli.main")

    def traced_call(doc):
        return measure.call_main(traced_main, doc.argv())

    def traced_pass():
        tracer.reset()
        tracer.install()
        try:
            (traced_round,) = measure.rounds(docs, 0, traced_call, repeat=False)
        finally:
            tracer.uninstall()
        layers.append(layer_times(tracer.spans))
        counts.append(dict(tracer.counts))
        traced.append(traced_round.pass_s)
        return traced_round

    # untraced and traced passes alternate, the order flipping every round;
    # two rounds at least, unless one round already took twice the seconds
    done = []
    started = perf_counter()
    while True:
        elapsed = perf_counter() - started
        if done and (elapsed >= 2 * seconds or (len(done) >= 4 and elapsed >= seconds)):
            break
        if len(done) % 4 == 0:
            (plain_round,) = measure.rounds(docs, 0, in_process_call, repeat=False)
            done += [plain_round, traced_pass()]
        else:
            traced_round = traced_pass()
            (plain_round,) = measure.rounds(docs, 0, in_process_call, repeat=False)
            done += [traced_round, plain_round]
        plain.append(plain_round.pass_s)
        if first_spans is None:
            first_spans = tracer.spans
    values = {m: statistics.median(layer[m] for layer in layers) for m in SPAN_METRICS}
    values.update({m: statistics.median(c[m] for c in counts) for m in COUNT_METRICS})
    values["cli.import_s"] = statistics.median(loaded) - statistics.median(bare)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    units = {m: ("count" if m in COUNT_METRICS else "s") for m in values}
    details = {"rounds": len(plain), "untraced_pass_s": plain, "traced_pass_s": traced,
               "counts_per_round": counts}
    spans_file = OUT / f"{workload}-seed{seed}-spans.json"
    spans_file.write_text(json.dumps({"workload": workload, "seed": seed,
                                      "docs": [d.name for d in docs],
                                      "spans": first_spans}), encoding="utf-8")
    return docs, done, values, units, details


def run_one(args):
    if not (SRC / "groupoids" / "cli.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'groupoids'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    calibration = [measure.calibration_s()]
    try:
        if args.trace:
            docs, done, values, units, details = run_traced(
                args.workload, args.seed, args.seconds, work)
        else:
            docs, done, values, details = run_untraced(
                args.workload, args.seed, args.seconds, work)
            units = END_TO_END_UNITS
        calibration.append(measure.calibration_s())
        details["calibration_s"] = calibration
        attempted, failed, unexpected = check_rounds(docs, done)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in unexpected[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": values[m], "unit": units[m]} for m in sorted(values)}}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(dict(result, details=details, unexpected=unexpected), indent=1),
        encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args):
    """Every workload untraced, then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            if proc.returncode != 0 or not proc.stdout.strip():
                print(f"error: {workload} trace={trace} exited {proc.returncode}",
                      file=sys.stderr)
                return 2
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} (trace {trace}): correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for name, m in result["metrics"].items():
                print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
