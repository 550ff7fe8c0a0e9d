"""Finite topologies as minimal neighbourhoods, independent of the program.

A finite topology is determined by the smallest open set U_p around each
point; its opens are exactly the sets S with U_p <= S for every p in S.
The generators use these helpers to write topology documents, and the
oracles use them to count opens and to test continuity pointwise.
"""

from __future__ import annotations

import itertools


def minimal_nbhds(points, sets) -> dict:
    """U_p: the intersection of the given sets that contain p (the whole
    space when none does).  For the opens of a topology these are its
    minimal neighbourhoods; for a subbase, those of the topology it
    generates."""
    full = frozenset(points)
    nb = {p: full for p in points}
    for o in sets:
        for p in o:
            nb[p] = nb[p] & o
    return nb


def list_opens(points, nb) -> list:
    """Every open set, by brute force over subsets.  Small spaces only."""
    pts = list(points)
    out = []
    for r in range(len(pts) + 1):
        for combo in itertools.combinations(pts, r):
            s = frozenset(combo)
            if all(nb[p] <= s for p in s):
                out.append(s)
    return out


def count_opens(points, nb) -> int:
    """Number of open sets, by deciding one point at a time with memo on the
    undecided remainder: leaving p out forces out every q with p in U_q,
    putting p in forces in U_p."""
    index = {p: i for i, p in enumerate(points)}
    up = [0] * len(index)      # bits of U_p
    down = [0] * len(index)    # bits of {q : p in U_q}
    for p, i in index.items():
        for q in nb[p]:
            up[i] |= 1 << index[q]
            down[index[q]] |= 1 << i
    memo = {0: 1}

    def count(rest):
        hit = memo.get(rest)
        if hit is not None:
            return hit
        i = (rest & -rest).bit_length() - 1
        n = count(rest & ~down[i]) + count(rest & ~up[i])
        memo[rest] = n
        return n

    return count((1 << len(index)) - 1)


# ------------------------------------------------------- stock topologies

def chain(points):
    pts = list(points)
    return [frozenset(pts[:i]) for i in range(len(pts) + 1)]


def blocks(points, parts):
    parts = [frozenset(b) for b in parts]
    return [frozenset().union(*chosen) for r in range(len(parts) + 1)
            for chosen in itertools.combinations(parts, r)]


def pointed(points):
    pts = list(points)
    return [frozenset(), frozenset(pts[:1]), frozenset(pts)]


def discrete(points):
    pts = list(points)
    return [frozenset(c) for r in range(len(pts) + 1)
            for c in itertools.combinations(pts, r)]


def indiscrete(points):
    return [frozenset(), frozenset(points)]
