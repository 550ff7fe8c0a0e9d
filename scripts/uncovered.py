#!/usr/bin/env python3
"""List the lines of `src/groupoids` that a pytest run never executes.

    python3 scripts/uncovered.py                    # the whole suite
    python3 scripts/uncovered.py -x tests/test_cli.py

The arguments go to pytest unchanged.  pytest runs in this process under a
`sys.settrace` line tracer that follows only frames whose code lies in
`src/groupoids`, so the rest of the run goes at near full speed (the whole
suite takes a few times its untraced time).  Afterwards the script prints,
per module, the executable lines that never ran, with the count of each
module and the total, and exits with pytest's status.  A line is
executable when some code object compiled from the module reports it in
`co_lines()`; the line of a `def` or `class` header counts as run when its
body is entered.  Code that runs only in another thread or in a child
process, such as a CLI subprocess a test starts, is not seen and shows as
not run.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "groupoids"
sys.path.insert(0, str(ROOT / "src"))


def executable_lines(path):
    """The line numbers some code object of the module at `path` runs."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trace(ran):
    """A global trace function that records into `ran` the (file, line)
    pairs run by frames in the package, and ignores every other frame."""
    prefix, ours = str(PACKAGE), {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in ours:
            ours[code] = code.co_filename.startswith(prefix)
        if not ours[code]:
            return None
        ran.add((code.co_filename, code.co_firstlineno))
        return local

    return on_call


def ranges(numbers):
    """"3-5, 9" for [3, 4, 5, 9]."""
    out, numbers = [], sorted(numbers)
    for n in numbers:
        if out and out[-1][1] == n - 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main(argv):
    import pytest

    ran = set()
    sys.settrace(trace(ran))
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
    total = 0
    print()
    for path in sorted(PACKAGE.glob("*.py")):
        missed = {line for line in executable_lines(path)
                  if (str(path), line) not in ran}
        total += len(missed)
        listing = f": {ranges(missed)}" if missed else ""
        print(f"{path.relative_to(ROOT)}: {len(missed)} never ran{listing}")
    print(f"total: {total} lines never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
