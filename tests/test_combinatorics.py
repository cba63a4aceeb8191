"""Tests for derangement, full-cycle, and partition enumeration."""

from __future__ import annotations

import math
from itertools import permutations
from random import Random

import pytest

from cyclosum.combinatorics import (
    SignedPerm,
    derangements,
    full_cycles,
    partitions_min2,
    perm_sign,
)


def derangement_count(l: int) -> int:
    # D_l = (l-1)(D_{l-1} + D_{l-2})
    if l == 0:
        return 1
    if l == 1:
        return 0
    prev2, prev1 = 1, 0
    for k in range(2, l + 1):
        prev2, prev1 = prev1, (k - 1) * (prev1 + prev2)
    return prev1


def cycle_lengths(mapping: tuple[int, ...]) -> list[int]:
    seen = [False] * len(mapping)
    lengths = []
    for start in range(len(mapping)):
        if seen[start]:
            continue
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            length += 1
            j = mapping[j] - 1
        lengths.append(length)
    return sorted(lengths)


# --- perm_sign ----------------------------------------------------------------


def test_sign_of_identity():
    assert perm_sign((1, 2, 3, 4, 5)) == 1


def test_sign_of_transposition():
    assert perm_sign((2, 1)) == -1


def test_sign_of_mixed_cycle_type():
    # (1 2 3)(4 5): two transpositions for the 3-cycle plus one more.
    assert perm_sign((2, 3, 1, 5, 4)) == -1


def test_sign_rejects_non_bijections():
    with pytest.raises(ValueError):
        perm_sign((1, 1, 3))
    with pytest.raises(ValueError):
        perm_sign((0, 1))


def test_sign_multiplicativity():
    rng = Random(31)
    for _ in range(50):
        l = rng.randrange(2, 8)
        p = tuple(rng.sample(range(1, l + 1), l))
        q = tuple(rng.sample(range(1, l + 1), l))
        composed = tuple(p[q[j] - 1] for j in range(l))
        assert perm_sign(composed) == perm_sign(p) * perm_sign(q)


# --- derangements ---------------------------------------------------------------


def test_derangements_order_two():
    assert list(derangements(2)) == [SignedPerm((2, 1), -1)]


def test_derangements_order_three_are_positive_cycles():
    got = list(derangements(3))
    assert [d.mapping for d in got] == [(2, 3, 1), (3, 1, 2)]
    assert all(d.sign == 1 for d in got)


def test_derangement_count_order_six():
    assert sum(1 for _ in derangements(6)) == 265


def test_derangement_counts_match_recurrence():
    for l in range(0, 10):
        assert sum(1 for _ in derangements(l)) == derangement_count(l)


def test_degenerate_orders():
    assert [d.mapping for d in derangements(0)] == [()]
    assert list(derangements(1)) == []


def test_derangements_have_no_fixed_points_and_true_signs():
    for l in range(2, 8):
        seen = set()
        previous = None
        for d in derangements(l):
            assert all(d.mapping[j - 1] != j for j in range(1, l + 1))
            assert d.sign == perm_sign(d.mapping)
            assert d.mapping not in seen
            seen.add(d.mapping)
            if previous is not None:
                assert previous < d.mapping
            previous = d.mapping


def test_signed_derangement_sum():
    # The signed sum over derangements is det(J - I) = (-1)^(l-1) (l-1).
    for l in range(2, 9):
        total = sum(d.sign for d in derangements(l))
        assert total == (-1) ** (l - 1) * (l - 1)


# --- full cycles -----------------------------------------------------------------


def test_full_cycle_counts():
    assert sum(1 for _ in full_cycles(3)) == 2
    assert sum(1 for _ in full_cycles(5)) == 24
    for l in range(2, 9):
        assert sum(1 for _ in full_cycles(l)) == math.factorial(l - 1)


def test_four_cycles_are_odd():
    assert all(c.sign == -1 for c in full_cycles(4))


def test_full_cycles_are_single_cycles_in_lex_order():
    for l in range(2, 8):
        mappings = [c.mapping for c in full_cycles(l)]
        assert mappings == sorted(mappings)
        for c in full_cycles(l):
            assert cycle_lengths(c.mapping) == [l]
            assert c.sign == perm_sign(c.mapping)
            assert all(v != j for j, v in enumerate(c.mapping, start=1))


def test_full_cycles_subset_of_derangements():
    for l in range(2, 8):
        all_derangements = {d.mapping for d in derangements(l)}
        cycles = {c.mapping for c in full_cycles(l)}
        assert cycles <= all_derangements


def test_full_cycles_reject_tiny_orders():
    with pytest.raises(ValueError):
        next(full_cycles(1))


# --- partitions with block size >= 2 ----------------------------------------------


def all_partitions(l: int):
    """Brute-force oracle: every set partition of {1..l} via block assignment."""
    if l == 0:
        yield []
        return
    for smaller in all_partitions(l - 1):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [l]] + smaller[i + 1 :]
        yield smaller + [[l]]


def oracle_min2(l: int, parity: str | None = None) -> set:
    out = set()
    for part in all_partitions(l):
        if any(len(block) < 2 for block in part):
            continue
        if parity == "odd" and len(part) % 2 == 0:
            continue
        if parity == "even" and len(part) % 2 == 1:
            continue
        out.add(frozenset(frozenset(b) for b in part))
    return out


def test_partitions_of_four():
    got = {frozenset(frozenset(b) for b in p.blocks) for p in partitions_min2(4)}
    expected = {
        frozenset({frozenset({1, 2, 3, 4})}),
        frozenset({frozenset({1, 2}), frozenset({3, 4})}),
        frozenset({frozenset({1, 3}), frozenset({2, 4})}),
        frozenset({frozenset({1, 4}), frozenset({2, 3})}),
    }
    assert got == expected


def test_partitions_of_five_odd_filter():
    got = list(partitions_min2(5, parity_filter="odd"))
    assert len(got) == 1
    assert got[0].blocks == ((1, 2, 3, 4, 5),)


def test_partitions_of_two():
    assert [p.blocks for p in partitions_min2(2)] == [((1, 2),)]


def test_partitions_match_brute_force():
    for l in range(2, 8):
        for parity in (None, "odd", "even"):
            got = {
                frozenset(frozenset(b) for b in p.blocks)
                for p in partitions_min2(l, parity_filter=parity)
            }
            assert got == oracle_min2(l, parity)


def test_partition_blocks_are_normalized():
    for p in partitions_min2(6):
        flat = [x for block in p.blocks for x in block]
        assert sorted(flat) == list(range(1, 7))
        for block in p.blocks:
            assert list(block) == sorted(block)
        assert [b[0] for b in p.blocks] == sorted(b[0] for b in p.blocks)


def test_partitions_edge_cases():
    assert list(partitions_min2(1)) == []
    with pytest.raises(ValueError):
        list(partitions_min2(4, parity_filter="prime"))


# --- structural relation between the three enumerators -----------------------------


def test_derangements_decompose_into_cycle_blocks():
    # Every derangement factors uniquely into full cycles on the blocks of a
    # partition with all blocks of size >= 2, so the counts must agree.
    for l in range(2, 8):
        total = 0
        for p in partitions_min2(l):
            product = 1
            for block in p.blocks:
                product *= math.factorial(len(block) - 1)
            total += product
        assert total == derangement_count(l)


def test_derangement_signs_split_by_cycle_parity():
    for l in range(2, 8):
        evens = sum(1 for d in derangements(l) if d.sign == 1)
        odds = sum(1 for d in derangements(l) if d.sign == -1)
        oracle_evens = sum(
            1
            for p in permutations(range(1, l + 1))
            if all(p[j - 1] != j for j in range(1, l + 1)) and perm_sign(p) == 1
        )
        assert evens == oracle_evens
        assert evens + odds == derangement_count(l)
