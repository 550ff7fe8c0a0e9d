"""Timing loops: in-process calls into `groupoids.cli.main`, one-at-a-time
CLI processes, fresh-interpreter probes, and whole-batch rounds.

A round is one pass over every document of a workload.  A document whose
single call was shorter than MIN_DOC_S is called again until its calls
cover MIN_DOC_S, so that each document's time to verdict covers enough work
to be steady.  Rounds repeat until the run's seconds are spent.
"""

from __future__ import annotations

import io
import os
import re
import resource
import signal
import statistics
import subprocess
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter

MIN_DOC_S = 0.05      # each document's time to verdict covers at least this
MAX_REPEATS = 400
CHILD_TIMEOUT_S = 60  # a CLI process running longer is killed and fails

_TIMING = re.compile(r'"timing":\{"seconds":[^}]*\}')


@dataclass
class Outcome:
    code: int
    out: str
    err: str
    seconds: float
    peak_rss_kib: int = 0

    def stable_text(self):
        """The output without its wall-clock field."""
        return self.code, _TIMING.sub("", self.out)


@dataclass
class Round:
    pass_s: float
    outcomes: list                                 # first call of each document
    doc_s: list                                    # steadied time per document
    drifted: list = field(default_factory=list)    # docs whose repeats disagreed
    peak_rss_mib: float = 0.0                      # this process, at the pass's end


def child_env(src):
    """Environment of every child process: the program from `src`, and
    bytecode caches in use whatever the caller's environment says, so that
    fresh interpreters start the way an installed program does."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def call_main(main, argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except Exception:  # an uncaught error is exit 1 with a traceback, as in a process
            traceback.print_exc()
            code = 1
        seconds = perf_counter() - start
    return Outcome(code, out.getvalue(), err.getvalue(), seconds)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spawn(cmd, env, cwd, scratch) -> Outcome:
    """Run one process to completion; wall time and its own peak RSS (wait4)."""
    out_path, err_path = scratch / "child.out", scratch / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=cwd)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"),
                   err_path.read_text(encoding="utf-8", errors="replace"),
                   seconds, usage.ru_maxrss)


def rounds(docs, seconds, call, min_rounds=1, repeat=True) -> list:
    """Whole passes over `docs` until `seconds` have passed (at least
    `min_rounds`).  `call(doc)` returns an Outcome.  A short document is
    called again right after its first call, so that the extra calls of
    different documents spread over the whole pass; the pass time sums the
    first calls only."""
    done = []
    started = perf_counter()
    while len(done) < min_rounds or perf_counter() - started < seconds:
        outcomes, doc_s, drifted = [], [], []
        for i, doc in enumerate(docs):
            first = call(doc)
            times = [first.seconds]
            while repeat and sum(times) < MIN_DOC_S and len(times) < MAX_REPEATS:
                again = call(doc)
                times.append(again.seconds)
                if again.stable_text() != first.stable_text():
                    drifted.append(i)
            outcomes.append(first)
            doc_s.append(sum(times) / len(times))
        pass_s = sum(o.seconds for o in outcomes)
        done.append(Round(pass_s, outcomes, doc_s, sorted(set(drifted)),
                          resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024))
    return done


def median_doc_s(done) -> list:
    """Per document, the median over rounds of its steadied time."""
    return [statistics.median(r.doc_s[i] for r in done) for i in range(len(done[0].doc_s))]


def calibration_s():
    """Seconds for a fixed pure-Python loop: a yardstick of the machine's
    speed during a run, kept with the run's details and not a metric."""
    start = perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return perf_counter() - start


def fresh_interpreters(cmds, env, cwd, scratch, repeats) -> list:
    """Wall time of each command in a fresh process, `repeats` times, the
    commands interleaved; one untimed warm-up of each first (bytecode
    caches).  Returns one list of times per command."""
    for cmd in cmds:
        spawn(cmd, env, cwd, scratch)
    times = [[] for _ in cmds]
    for _ in range(repeats):
        for i, cmd in enumerate(cmds):
            result = spawn(cmd, env, cwd, scratch)
            if result.code != 0:
                raise RuntimeError(f"{' '.join(cmd)} exited {result.code}: "
                                   f"{result.err.strip()[-400:]}")
            times[i].append(result.seconds)
    return times
