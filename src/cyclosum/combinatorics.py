"""Signed permutation streams: derangements, full cycles, and set partitions
with minimum block size 2.

All generators yield lazily in lexicographic order of the mapping vector
(partitions in lexicographic order of their block-assignment sequence), so
enumeration order is deterministic.  Signs are tracked incrementally while
backtracking: placing the idx-th smallest unused image adds idx inversions,
and the parity of the inversion count is the parity of the permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class SignedPerm:
    """A permutation of {1..l} given by its image vector (1-based), with its
    sign cached."""

    mapping: tuple[int, ...]
    sign: int


@dataclass(frozen=True)
class SetPartition:
    """Disjoint nonempty blocks covering {1..l}; blocks are ascending and
    ordered by their smallest element."""

    blocks: tuple[tuple[int, ...], ...]


def perm_sign(mapping: Sequence[int]) -> int:
    """Sign (-1)^(l - cycle count); rejects non-bijective input."""
    l = len(mapping)
    if sorted(mapping) != list(range(1, l + 1)):
        raise ValueError(f"not a bijection on 1..{l}: {mapping!r}")
    seen = [False] * (l + 1)
    cycles = 0
    for start in range(1, l + 1):
        if not seen[start]:
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = mapping[j - 1]
    return 1 if (l - cycles) % 2 == 0 else -1


def derangements(l: int) -> Iterator[SignedPerm]:
    """All fixed-point-free permutations of {1..l}.

    l = 0 yields the empty permutation; l = 1 yields nothing.
    """
    if l < 0:
        raise ValueError("l must be nonnegative")
    if l == 0:
        yield SignedPerm((), 1)
        return

    mapping = [0] * (l + 1)

    def rec(pos: int, remaining: tuple[int, ...], parity: int) -> Iterator[SignedPerm]:
        if pos > l:
            yield SignedPerm(tuple(mapping[1:]), 1 - 2 * parity)
            return
        for idx, v in enumerate(remaining):
            if v == pos:
                continue
            mapping[pos] = v
            yield from rec(
                pos + 1, remaining[:idx] + remaining[idx + 1 :], parity ^ (idx & 1)
            )

    yield from rec(1, tuple(range(1, l + 1)), 0)


def full_cycles(l: int) -> Iterator[SignedPerm]:
    """All l-cycles on {1..l}, as mappings in lexicographic order.

    A partial assignment is a disjoint union of chains; the edge pos -> v is
    pruned when v is the start of the chain ending at pos (it would close a
    short cycle) unless it is the last edge, which always closes the full
    cycle.  Count is (l-1)!.
    """
    if l < 2:
        raise ValueError("full cycles need l >= 2")

    mapping = [0] * (l + 1)
    # start_of[e] = first node of the chain ending at e; end_of[s] = last
    # node of the chain starting at s.  Unassigned nodes are trivial chains.
    start_of = list(range(l + 1))
    end_of = list(range(l + 1))

    def rec(pos: int, remaining: tuple[int, ...], parity: int) -> Iterator[SignedPerm]:
        if pos > l:
            yield SignedPerm(tuple(mapping[1:]), 1 - 2 * parity)
            return
        s1 = start_of[pos]
        for idx, v in enumerate(remaining):
            if v == s1 and pos < l:
                continue
            mapping[pos] = v
            e2 = end_of[v]
            start_of[e2] = s1
            end_of[s1] = e2
            yield from rec(
                pos + 1, remaining[:idx] + remaining[idx + 1 :], parity ^ (idx & 1)
            )
            start_of[e2] = v
            end_of[s1] = pos

    yield from rec(1, tuple(range(1, l + 1)), 0)


def partitions_min2(l: int, parity_filter: str | None = None) -> Iterator[SetPartition]:
    """All partitions of {1..l} whose blocks each have at least 2 elements.

    parity_filter of "odd" or "even" keeps only partitions whose block count
    has that parity.  Elements are assigned in order, so blocks come out
    keyed by their smallest member.
    """
    if parity_filter not in (None, "odd", "even"):
        raise ValueError("parity_filter must be 'odd', 'even', or None")
    if l < 0:
        raise ValueError("l must be nonnegative")
    want = {None: None, "odd": 1, "even": 0}[parity_filter]

    blocks: list[list[int]] = []

    def rec(x: int, singletons: int) -> Iterator[SetPartition]:
        if x > l:
            if singletons == 0 and (want is None or len(blocks) % 2 == want):
                yield SetPartition(tuple(tuple(b) for b in blocks))
            return
        if singletons > l - x + 1:
            return
        for b in blocks:
            grew_singleton = len(b) == 1
            b.append(x)
            yield from rec(x + 1, singletons - (1 if grew_singleton else 0))
            b.pop()
        blocks.append([x])
        yield from rec(x + 1, singletons + 1)
        blocks.pop()

    yield from rec(1, 0)
