"""The package's records are plain classes: immutable after construction,
compared and hashed field by field within one class.  Importing the CLI
loads neither `dataclasses` nor the `inspect` module it pulls in."""

import os
import pathlib
import subprocess
import sys

import pytest

from groupoids.core import Record, normal_closure, pair_groupoid, quotient
from groupoids.loctriv import (
    clt_on_monodromy,
    local_trivialization,
    sections_from_arrows,
)
from groupoids.monodromy import (
    build_monodromy,
    canonical_morphism,
    enumerate_classes,
    star_covering_report,
)
from groupoids.topology import generate_from_base, indiscrete
from groupoids.words import Presentation, build_engine, coset_enumeration

from helpers import cyclic, group_groupoid

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_cli_import_loads_no_dataclasses():
    """A fresh interpreter, without site packages, so only the package's
    own imports count."""
    probe = ("import sys, groupoids.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


def _z4():
    return build_monodromy(group_groupoid(cyclic(4)), {"0", "1", "2", "3"})


def _z3_presentation():
    return Presentation(generators=("a",), relations=((("a", 1),) * 3,))


def _pair_clt():
    G = pair_groupoid(["0", "1"])
    cover = ((0, frozenset(G.objects)),)
    LT = local_trivialization(indiscrete(G.objects), cover,
                              sections_from_arrows(cover, lambda x, u: f"({x},{u})"))
    return LT, build_monodromy(G, G.morphisms)


def _quotient_morphism():
    G = group_groupoid(cyclic(4))
    return quotient(G, normal_closure(G, {"2"}))[1]


BUILDERS = {
    "FiniteGroupoid": lambda: group_groupoid(cyclic(3)),
    "GroupoidMorphism": _quotient_morphism,
    "GeneratingGraph": lambda: _z4().graph,
    "Word": lambda: _z4().i_tilde("1"),
    "ForestComponent": lambda: _z4().forest.components[0],
    "Forest": lambda: _z4().forest,
    "Presentation": _z3_presentation,
    "Exhausted": lambda: coset_enumeration(_z3_presentation(), budget=2),
    "CosetTable": lambda: coset_enumeration(_z3_presentation()),
    "FreeEngine": lambda: build_engine(Presentation(("a", "b"), ((("a", 1), ("b", 1)),))),
    "FiniteEngine": lambda: build_engine(_z3_presentation()),
    "UndecidedEngine": lambda: build_engine(_z3_presentation(), budget=2),
    "MonodromyGroupoid": _z4,
    "WordEvaluator": lambda: canonical_morphism(_z4()),
    "ClassSearch": lambda: enumerate_classes(_z4(), ["*"], 2),
    "StarCoverReport": lambda: star_covering_report(_z4(), "*", 2),
    "FiniteTopology": lambda: indiscrete(["a", "b"]),
    "GeneratedTopology": lambda: generate_from_base(["a", "b"], [{"a"}, {"a", "b"}]),
    "LocalTrivialization": lambda: _pair_clt()[0],
    "WindowTopologyReport": lambda: clt_on_monodromy(*_pair_clt(), depth=2).window,
    "MonodromyCltReport": lambda: clt_on_monodromy(*_pair_clt(), depth=2),
}
RECORDS = {name: build() for name, build in BUILDERS.items()}


def _fields(r):
    cls = r if isinstance(r, type) else type(r)
    return list(vars(cls)["__annotations__"])


def _hash(r):
    try:
        return hash(r)
    except TypeError:
        return TypeError


def test_every_record_class_is_covered():
    assert sorted(type(r).__name__ for r in RECORDS.values()) == sorted(BUILDERS)
    assert len(BUILDERS) == 21


@pytest.mark.parametrize("name", BUILDERS)
def test_fields_cannot_be_assigned_or_deleted(name):
    r = RECORDS[name]
    for f in _fields(r):
        before = getattr(r, f)
        with pytest.raises(AttributeError):
            setattr(r, f, None)
        with pytest.raises(AttributeError):
            delattr(r, f)
        assert getattr(r, f) is before
    with pytest.raises(AttributeError):
        r.unlisted = 1


@pytest.mark.parametrize("name", BUILDERS)
def test_rebuilt_records_compare_and_hash_equal(name):
    r = RECORDS[name]
    values = {f: getattr(r, f) for f in _fields(r)}
    again = type(r)(**values)  # every field is a keyword of __init__
    assert again is not r and again == r and not again != r
    assert _hash(again) == _hash(r)
    hashable = all(_hash(v) is not TypeError for v in values.values())
    assert (_hash(r) is not TypeError) == hashable  # a dict field makes hash raise
    if name != "ClassSearch":  # its TokenTrie compares by identity
        assert BUILDERS[name]() == r


@pytest.mark.parametrize("name", BUILDERS)
def test_records_of_different_classes_never_compare_equal(name):
    r = RECORDS[name]
    values = [getattr(r, f) for f in _fields(r)]
    for other in RECORDS.values():
        if type(other) is type(r):
            continue
        assert r != other and other != r
        if len(_fields(other)) == len(values):  # the same values, another class
            twin = type(other)(*values)
            assert r != twin and twin != r


def test_repr_names_the_class_and_its_fields():
    assert repr(RECORDS["Exhausted"]) == "Exhausted(budget=2, rows_used=2)"


@pytest.mark.parametrize("args, kwargs, message", [
    ((("a",),), {}, "missing required argument 'relations'"),
    ((("a",), ()), {"extra": 1}, "unexpected keyword argument 'extra'"),
    ((("a",), ()), {"generators": ("b",)}, "multiple values for argument 'generators'"),
    ((("a",), (), (), 4), {}, "takes 3 arguments but 4 were given"),
])
def test_constructor_rejects_what_a_signature_would(args, kwargs, message):
    with pytest.raises(TypeError, match=f"^Presentation\\(\\) .*{message}"):
        Presentation(*args, **kwargs)


def test_omitted_fields_take_their_defaults():
    p = Presentation(("a",), ())
    assert p.eliminations == () and p == Presentation(("a",), (), ())


def test_record_is_the_only_constructor():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(BUILDERS)
    for cls in Record.__subclasses__():
        assert "__init__" not in vars(cls), cls.__name__


def test_no_default_is_a_shared_mutable():
    for cls in Record.__subclasses__():
        for f in _fields(cls):
            assert not isinstance(vars(cls).get(f), (dict, list, set)), (cls.__name__, f)
