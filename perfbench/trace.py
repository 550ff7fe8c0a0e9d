"""Spans around the program's public functions, recorded from outside.

`Tracer.install()` replaces each traced function with a wrapper under the
name its caller looks it up by (for example `groupoids.cli.build_monodromy`
and `groupoids.loctriv.generate_from_base`), so the program's files stay
untouched.  A span is [name, start, end, parent index]; spans stay in
memory until the benchmark writes them out.  `uninstall()` restores the
originals.

`groupoids.topology` is reached through `sys.modules`, because the package
binds the name `topology` to the constructor function of that module.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _len(attr):
    return lambda result: len(getattr(result, attr))


# (module, attribute, span name, count name, count of the result)
LAYERS = (
    ("groupoids.cli", "load_document", "interchange.parse", None, None),
    ("groupoids.cli", "parse_groupoid", "interchange.parse", "core.compose_entries",
     lambda G: len(G.compose)),
    ("groupoids.cli", "parse_carrier", "interchange.parse", None, None),
    ("groupoids.cli", "parse_graph", "interchange.parse", None, None),
    ("groupoids.cli", "parse_local_trivialization", "interchange.parse", None, None),
    ("groupoids.cli", "parse_topology_family", "interchange.parse", None, None),
    ("groupoids.cli", "fingerprint", "interchange.fingerprint", None, None),
    ("groupoids.cli", "validate_groupoid", "core.validate", None, None),
    ("groupoids.cli", "build_monodromy", "monodromy.build", "monodromy.relators",
     _len("relator_family")),
    ("groupoids.cli", "pi1_graph", "monodromy.pi1", None, None),
    ("groupoids.cli", "star_covering_report", "monodromy.star_cover", "monodromy.star_classes",
     lambda rep: sum(rep.reached.values())),
    ("groupoids.cli", "globalize", "monodromy.globalize", None, None),
    ("groupoids.cli", "is_topology", "topology.is_topology", None, None),
    ("groupoids.cli", "topology", "topology.construct", None, None),
    ("groupoids.cli", "check_topological_groupoid", "topology.check_groupoid", None, None),
    ("groupoids.cli", "validate_clt", "loctriv.validate_clt", None, None),
    ("groupoids.cli", "generate_groupoid_topology", "loctriv.generate", None, None),
    ("groupoids.cli", "check_w_open", "loctriv.w_open", None, None),
    ("groupoids.cli", "clt_on_monodromy", "loctriv.transport", "loctriv.window_classes",
     lambda rep: rep.window.points),
    ("groupoids.interchange", "topology", "topology.construct", None, None),
    ("groupoids.interchange", "parse_topology", "interchange.parse", None, None),
    ("groupoids.monodromy", "build_monodromy", "monodromy.build", "monodromy.relators",
     _len("relator_family")),
    ("groupoids.monodromy", "pair_groupoid", "core.pair_groupoid", "core.compose_entries",
     lambda G: len(G.compose)),
    ("groupoids.monodromy", "generated_by", "core.generated_by", None, None),
    ("groupoids.monodromy", "spanning_forest", "words.forest_collapse", None, None),
    ("groupoids.monodromy", "collapse_presentation", "words.forest_collapse", None, None),
    ("groupoids.monodromy", "build_engine", "words.engine", None, None),
    ("groupoids.words", "simplify_presentation", "words.simplify", None, None),
    ("groupoids.words", "coset_enumeration", "words.coset", None, None),
    ("groupoids.loctriv", "validate_clt", "loctriv.validate_clt", None, None),
    ("groupoids.loctriv", "basic_neighborhood", "loctriv.neighborhood", "loctriv.neighborhoods",
     lambda _: 1),
    ("groupoids.loctriv", "generate_from_base", "topology.generate", "topology.opens",
     lambda gen: len(gen.topology.opens)),
    ("groupoids.loctriv", "check_topological_groupoid", "topology.check_groupoid", None, None),
    ("groupoids.topology", "is_topology", "topology.is_topology", None, None),
    ("groupoids.topology", "topology", "topology.construct", None, None),
    ("groupoids.topology", "continuity", "topology.continuity", None, None),
    ("groupoids.topology", "pullback_continuity", "topology.pullback", None, None),
)

# counts taken from results of a function that also has a second counter
EXTRA_COUNTS = {
    "words.simplify": (("words.relations_after_simplify", _len("relations")),
                       ("words.eliminations", _len("eliminations"))),
}

# reported metric -> (span name, "inclusive" | "self")
SPAN_METRICS = {
    "cli.main_self_s": ("cli.main", "self"),
    "interchange.parse_s": ("interchange.parse", "inclusive"),
    "interchange.fingerprint_s": ("interchange.fingerprint", "inclusive"),
    "core.generated_by_s": ("core.generated_by", "inclusive"),
    "core.pair_groupoid_s": ("core.pair_groupoid", "inclusive"),
    "core.validate_s": ("core.validate", "inclusive"),
    "words.forest_collapse_s": ("words.forest_collapse", "inclusive"),
    "words.simplify_s": ("words.simplify", "inclusive"),
    "words.coset_s": ("words.coset", "inclusive"),
    "monodromy.build_self_s": ("monodromy.build", "self"),
    "monodromy.star_cover_s": ("monodromy.star_cover", "inclusive"),
    "monodromy.globalize_s": ("monodromy.globalize", "inclusive"),
    "topology.pullback_s": ("topology.pullback", "inclusive"),
    "topology.continuity_s": ("topology.continuity", "inclusive"),
    "topology.generate_s": ("topology.generate", "inclusive"),
    "topology.is_topology_s": ("topology.is_topology", "inclusive"),
    "loctriv.validate_clt_s": ("loctriv.validate_clt", "inclusive"),
    "loctriv.neighborhoods_s": ("loctriv.neighborhood", "inclusive"),
    "loctriv.w_open_s": ("loctriv.w_open", "inclusive"),
    "loctriv.transport_self_s": ("loctriv.transport", "self"),
}

COUNT_METRICS = ("core.compose_entries", "words.relations_after_simplify",
                 "words.eliminations", "monodromy.relators", "monodromy.star_classes",
                 "topology.opens", "loctriv.neighborhoods", "loctriv.window_classes")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self._stack = []
        self._saved = []

    def reset(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNT_METRICS, 0)

    def wrap(self, fn, name, counters=()):
        tracer, stack = self, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            for key, measure in counters:
                tracer.counts[key] += measure(result)
            return result

        return traced

    def install(self):
        for module, attr, name, count, measure in LAYERS:
            mod = sys.modules[module]
            original = getattr(mod, attr)
            counters = ((count, measure),) if count else ()
            counters += EXTRA_COUNTS.get(name, ())
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(original, name, counters))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)


def layer_times(spans) -> dict:
    """Per-metric seconds from one pass's spans: inclusive time counts only
    the outermost span of a name; self time subtracts direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive, own = {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        own[name] = own.get(name, 0.0) + (end - start) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            inclusive[name] = inclusive.get(name, 0.0) + (end - start)
    return {metric: (own if how == "self" else inclusive).get(name, 0.0)
            for metric, (name, how) in SPAN_METRICS.items()}
