"""Command-line front end.

Eight subcommands over the JSON interchange documents:

  validate        groupoid laws, or a bare topology family
  monodromy       present the cover of a groupoid by a generating subset
  pi1             fundamental groupoid of an undirected graph
  star-cover      depth-windowed covering report over one object's star
  globalize       extend a generator map through the presented cover
  topology-check  is_topology, or continuity of the six structure maps
  clt-generate    validate a local trivialization and generate its topology,
                  with a carrier also the transported window
  w-open          openness of a generating subgroupoid in that topology

Exit status: 0 every check passed; 1 a check was refuted (report carries the
witness); 2 at least one verdict is undecided at the given budget/depth/
window (the report names the exhausted parameter); 3 the input did not parse
or violated a documented precondition, including a groupoid table that
fails the linear checks of `validate_structure`, or an output file could
not be written; an unexpected internal error also exits 3, with a one-line
message and no traceback.

Reports echo the command, the input's canonical fingerprint, and the
parameters used; --format picks the human or machine rendering and --out
writes atomically to a path instead of standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import tempfile
import time

from .core import validate_groupoid, validate_structure
from .dot import export_dot
from .interchange import (
    DocumentError,
    canonical,
    fingerprint,
    load_document,
    parse_carrier,
    parse_graph,
    parse_groupoid,
    parse_local_trivialization,
    parse_topology_family,
)
from .loctriv import (
    check_w_open,
    clt_on_monodromy,
    generate_groupoid_topology,
    validate_clt,
)
from .monodromy import (
    build_monodromy,
    globalize,
    pi1_graph,
    star_covering_report,
)
from . import topology as finite_topology
from .topology import (
    STRUCTURE_MAPS,
    TopologySizeError,
    check_topological_groupoid,
    is_topology,
    topology,
)
from .words import DEFAULT_BUDGET

PASS, REFUTED, UNDECIDED, INPUT_ERROR = 0, 1, 2, 3
_VERDICT = {PASS: "pass", REFUTED: "refuted", UNDECIDED: "undecided"}


def _public(doc):
    return {k: v for k, v in doc.items() if not k.startswith("_")}


# ---------------------------------------------------------------- commands

def _cmd_validate(doc, args):
    if "groupoid" in doc or ("objects" in doc and "morphisms" in doc):
        G = parse_groupoid(doc.get("groupoid", doc))
        violations = validate_groupoid(G)
        verdicts = {"groupoid-valid": not violations, "violations": len(violations)}
        witnesses = {f"violation[{i}]": f"{kind}: {witness!r}"
                     for i, (kind, witness) in enumerate(violations)}
        if args.dot:
            _write_atomic(args.dot, export_dot(G))
        return (REFUTED if violations else PASS), verdicts, witnesses, [], []
    if "points" in doc:
        return _check_family(doc)
    raise DocumentError("document: expected a groupoid or a topology document")


def _check_family(doc):
    """The closure axioms on a bare topology document's family."""
    points, fam = parse_topology_family(doc)
    problems = is_topology(points, fam)
    verdicts, witnesses = {"topology-valid": not problems}, {}
    for kind, witness in problems:
        verdicts["failure"] = kind
        witnesses["witness"] = _render_value(witness)
    return (REFUTED if problems else PASS), verdicts, witnesses, [], []


def _lawful_groupoid(doc, field):
    """Parse a groupoid field whose table must pass the linear checks."""
    G = parse_groupoid(_need(doc, field), where=field)
    problems = validate_structure(G)
    if problems:
        kind, witness = problems[0]
        raise ValueError(f"document.{field}: {kind} at {witness!r}")
    return G


def _monodromy_of(G, doc, budget):
    """(M, notes): the presentation over the document's carrier, and a note
    when the carrier does not generate G."""
    M = build_monodromy(G, parse_carrier(doc, G), budget=budget)
    return M, [] if M.generates_ambient else [
        "generating subset does not reach every morphism; "
        "the evaluation map cannot be star-surjective"]


def _cmd_monodromy(doc, args):
    M, notes = _monodromy_of(_lawful_groupoid(doc, "groupoid"), doc, args.budget)
    verdicts = {"relators": len(M.relator_family),
                "generates-ambient": M.generates_ambient}
    for comp, engine in zip(M.forest.components, M.engines):
        verdicts[f"vertex-group[{comp.base}]"] = engine.verdict
    undecided = [f"vertex-group[{comp.base}]: budget {M.budget} exhausted"
                 for comp, engine in zip(M.forest.components, M.engines) if not engine.exact]
    if args.dot:
        _write_atomic(args.dot, export_dot(M))
    return (UNDECIDED if undecided else PASS), verdicts, {}, undecided, notes


def _cmd_pi1(doc, args):
    vertices, edges = parse_graph(doc)
    M = pi1_graph(vertices, edges, budget=args.budget)
    ranks = [e.rank for e in M.engines]  # None for a component not certified free
    verdicts = {"rank": None if None in ranks else sum(ranks),
                "components": len(ranks)}
    for comp, r in zip(M.forest.components, ranks):
        verdicts[f"rank[{comp.base}]"] = r
    if args.dot:
        _write_atomic(args.dot, export_dot(M))
    return PASS, verdicts, {}, [], []


def _cmd_star_cover(doc, args):
    M, notes = _monodromy_of(_lawful_groupoid(doc, "groupoid"), doc, args.budget)
    x = _need(doc, "object")
    if not isinstance(x, str):
        raise DocumentError("document.object: expected string")
    rep = star_covering_report(M, x, depth=args.depth)
    verdicts = {"object": x, "depth": rep.depth,
                "reached": len(rep.reached),
                "surjective-within-depth": rep.surjective_within_depth,
                "saturated": rep.saturated,
                "fiber-counts-exact": rep.fiber_counts_exact,
                "engine": rep.engine_kind}
    for a in sorted(rep.reached):
        verdicts[f"fiber[{a}]"] = rep.reached[a]
    witnesses, undecided = {}, []
    if rep.unreachable:
        witnesses["unreachable"] = ", ".join(sorted(rep.unreachable))
        return REFUTED, verdicts, witnesses, undecided, notes
    if rep.capped_at is not None:
        undecided.append(_cap_marker(sum(rep.reached.values()), rep.capped_at, rep.depth))
    for a in rep.undecided_depth:
        undecided.append(f"star element {a!r} not reached at depth {rep.depth}")
    if not rep.fiber_counts_exact:
        undecided.append(f"fiber counts inexact at budget {M.budget}")
    return (UNDECIDED if undecided else PASS), verdicts, witnesses, undecided, notes


def _cmd_globalize(doc, args):
    M, notes = _monodromy_of(_lawful_groupoid(doc, "groupoid"), doc, args.budget)
    H = _lawful_groupoid(doc, "target")
    table = _need(doc, "map")
    if not (isinstance(table, dict) and all(isinstance(v, str) for v in table.values())):
        raise DocumentError("document.map: expected object of morphism ids")
    _, obstruction = globalize(M, dict(table), H)
    if obstruction is None:
        return PASS, {"extends": True}, {}, [], notes
    return (REFUTED, {"extends": False},
            {"obstruction": _render_value(obstruction)}, [], notes)


def _cmd_topology_check(doc, args):
    if "groupoid" in doc:
        G = _lawful_groupoid(doc, "groupoid")
        verdicts, witnesses = {}, {}
        tops = {}
        for field in ("morphism_topology", "object_topology"):
            family = parse_topology_family(_need(doc, field), where=field)
            problems = is_topology(*family)
            tops[field] = (*family, problems)
            verdicts[f"{field}-valid"] = not problems
            for kind, witness in problems:
                verdicts[f"{field}-failure"] = kind
                witnesses[field] = _render_value(witness)
        if witnesses:
            return REFUTED, verdicts, witnesses, [], []
        problems = check_topological_groupoid(G, topology(*tops["morphism_topology"]),
                                              topology(*tops["object_topology"]))
        _record_certificates(problems, verdicts, witnesses)
        return (REFUTED if problems else PASS), verdicts, witnesses, [], []
    outcome = _check_family(doc)
    outcome[1]["opens"] = len(doc["opens"])  # entries as listed, repeats too
    return outcome


def _record_certificates(problems, verdicts, witnesses):
    """One verdict per structure map, and for each refuted map its witness
    open with the preimage, or the offending pair on a pullback; then
    whether "composition and inversion continuous iff the difference map
    is" holds.  `problems` are `check_topological_groupoid` pairs."""
    refuted = dict(problems)
    for name in STRUCTURE_MAPS:
        verdicts[f"{name}-continuous"] = name not in refuted
        if name in refuted:
            open_, back = refuted[name]
            back = (_render_value(back) if isinstance(back, frozenset)
                    else "{" + _render_value(back) + "}")
            witnesses[name] = f"open {_render_value(open_)} pulls back to {back}"
    verdicts["difference-equivalence"] = (
        ("composition" in refuted or "inversion" in refuted) == ("difference" in refuted))


def _cmd_clt_generate(doc, args):
    G = _lawful_groupoid(doc, "groupoid")
    LT = parse_local_trivialization(doc, where="document")
    problems = validate_clt(G, LT)
    verdicts = {"clt-valid": not problems}
    witnesses = {f"problem[{i}]": f"{kind}: {_render_value(payload)}"
                 for i, (kind, payload) in enumerate(problems)}
    if problems:
        return REFUTED, verdicts, witnesses, [], []
    gen, maps = generate_groupoid_topology(G, LT, clt=problems)
    verdicts.update({
        "opens": gen.topology.open_count,
        "base-compatible": gen.base_compatible,
        "refinement-law": True,  # Comp proves it; kept for readers of the key
        "all-maps-continuous": not maps,
    })
    _record_certificates(maps, verdicts, witnesses)
    undecided, notes = [], []
    if gen.topology.open_count is None:
        undecided.append(_count_marker("opens"))
    if "carrier" in doc:  # the same structure, transported into M(G, W)
        M, notes = _monodromy_of(G, doc, args.budget)
        mrep = clt_on_monodromy(LT, M, depth=args.window, clt=problems)
        window = mrep.window
        verdicts.update({  # the transported laws and Comp are inherited
            "transported-sections-valid": True,
            "comp-satisfied": mrep.comp_triples,
            "comp-failed": 0,
            "subset-composition-closed": M.closed,
            "window-depth": window.depth,
            "window-classes": window.points,
            "window-opens": window.opens,
            "window-tokens-exact": window.tokens_exact,
            # inexact tokens can split a class, so this is never a refutation
            "window-base-compatible": window.base_compatible,
        })
        if M.closed:
            verdicts["w-tilde-open-in-window"] = window.w_tilde_open
        if not window.tokens_exact:
            undecided.append(f"window classes inexact at budget {M.budget}")
        if window.capped_at is not None:
            undecided.append(_cap_marker(window.points, window.capped_at, window.depth))
        if window.opens is None:
            undecided.append(_count_marker("window-opens"))
    if maps or not gen.base_compatible:
        return REFUTED, verdicts, witnesses, [], notes
    return (UNDECIDED if undecided else PASS), verdicts, witnesses, undecided, notes


def _cmd_w_open(doc, args):
    G = _lawful_groupoid(doc, "groupoid")
    LT = parse_local_trivialization(doc, where="document")
    carrier = parse_carrier(doc, G)
    check_w_open(G, LT, carrier)  # raises on a broken precondition, else passes
    verdicts = {"w-open": True, "carrier-size": len(carrier),
                "witnessed": len(carrier)}
    return PASS, verdicts, {}, [], []


_COMMANDS = {
    "validate": _cmd_validate,
    "monodromy": _cmd_monodromy,
    "pi1": _cmd_pi1,
    "star-cover": _cmd_star_cover,
    "globalize": _cmd_globalize,
    "topology-check": _cmd_topology_check,
    "clt-generate": _cmd_clt_generate,
    "w-open": _cmd_w_open,
}
_DOT_COMMANDS = {"validate", "monodromy", "pi1"}


def _cap_marker(classes, levels, depth):
    return (f"class search capped at {classes} classes "
            f"after depth {levels} of {depth}")


def _count_marker(key):
    return (f"{key} not counted: the count stopped at MAX_COUNT_STATES = "
            f"{finite_topology.MAX_COUNT_STATES} memoised subproblems")


def _need(doc, field):
    if field not in doc:
        raise DocumentError(f"document: missing field {field!r}")
    return doc[field]


def _render_value(v):
    if isinstance(v, frozenset):
        return "{" + ", ".join(sorted(map(str, v))) + "}"
    if isinstance(v, tuple):
        return "(" + ", ".join(_render_value(x) for x in v) + ")"
    return str(v)


class OutputError(Exception):
    """An output file could not be written; the message names it."""


def _write_atomic(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as e:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(e, OSError):
            raise OutputError(f"cannot write {path!r}: {e.strerror or e}") from e
        raise


def _render_report(report, fmt):
    if fmt == "machine":
        return canonical(report) + "\n"
    lines = [f"command: {report['command']}",
             f"fingerprint: {report['fingerprint']}",
             "parameters: " + " ".join(f"{k}={v}" for k, v
                                       in sorted(report["parameters"].items())),
             f"verdict: {report['verdict']}"]
    for k in sorted(report["verdicts"]):
        lines.append(f"{k}: {_render_value(report['verdicts'][k])}")
    for k in sorted(report["witnesses"]):
        lines.append(f"witness {k}: {report['witnesses'][k]}")
    for marker in report["undecided"]:
        lines.append(f"undecided: {marker}")
    for note in report.get("notes", []):
        lines.append(f"note: {note}")
    lines.append(f"time: {report['timing']['seconds']}s")
    return "\n".join(lines) + "\n"


@contextlib.contextmanager
def _all_digits():
    """Lift the interpreter's cap on int-to-str digits (4,300 by default):
    an exact open count can pass it, 2**65536 for a discrete window at the
    class cap."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: construction costs far more than parsing."""
    parser = argparse.ArgumentParser(
        prog="groupoids",
        description="Finite groupoid constructions and checks over JSON documents.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", help="path to a JSON interchange document")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="word-problem budget in coset rows; a finite vertex "
                            "group of order n is decided only above n, on a "
                            "composition-closed carrier too, where it is read "
                            "off the table (default %(default)s)")
        p.add_argument("--depth", type=int, default=8,
                       help="star-cover search depth (default %(default)s)")
        p.add_argument("--window", type=int, default=6,
                       help="normal-form window for transported topologies "
                            "(default %(default)s)")
        p.add_argument("--format", choices=("human", "machine"), default="human")
        p.add_argument("--out", help="write the report here instead of stdout")
        if name in _DOT_COMMANDS:
            p.add_argument("--dot", help="also write a DOT rendering here")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return INPUT_ERROR if e.code not in (0, None) else 0
    if args.budget <= 0 or args.depth < 0 or args.window < 0:
        print("error: budget must be positive; depth and window nonnegative",
              file=sys.stderr)
        return INPUT_ERROR

    started = time.perf_counter()
    try:
        doc = load_document(args.input)
        status, verdicts, witnesses, undecided, notes = _COMMANDS[args.command](
            _public(doc), args)
        report = {
            "command": args.command,
            "fingerprint": fingerprint(_public(doc)),
            "parameters": {"budget": args.budget, "depth": args.depth,
                           "window": args.window},
            "verdict": _VERDICT[status],
            "verdicts": verdicts,
            "witnesses": witnesses,
            "undecided": list(undecided),
            "notes": list(notes),
            "timing": {"seconds": round(time.perf_counter() - started, 6)},
        }
        with _all_digits():
            rendered = _render_report(report, args.format)
        if args.out:
            _write_atomic(args.out, rendered)
        else:
            sys.stdout.write(rendered)
    except (DocumentError, OutputError) as e:
        print(f"error: {e}", file=sys.stderr)
        return INPUT_ERROR
    except (ValueError, TopologySizeError) as e:
        print(f"error: precondition violated: {e}", file=sys.stderr)
        return INPUT_ERROR
    except Exception as e:  # exit 1 means refuted, so nothing else may reach it
        print(f"error: internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INPUT_ERROR
    return status


if __name__ == "__main__":
    sys.exit(main())
