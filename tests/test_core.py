from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from permlip.core import (
    MaxSplit,
    avoids_132,
    in_class,
    max_adjacent_jump,
    prefix_extension_ok,
    satisfies_adjacency,
    split_at_max,
)
from conftest import permutations_upto


def test_pattern_examples():
    assert avoids_132((1,))
    assert avoids_132((2, 3, 1))
    assert not avoids_132((1, 3, 2))
    assert not avoids_132((2, 4, 1, 3))  # the 2,4,3 triple embeds the pattern
    assert avoids_132((3, 1, 2))
    assert avoids_132((5, 3, 1, 2, 4))


def test_jump_examples():
    assert max_adjacent_jump((1,)) == 0
    assert max_adjacent_jump((2, 3, 1)) == 2
    assert max_adjacent_jump((1, 4, 2, 3)) == 3
    assert satisfies_adjacency((2, 3, 1), 2)
    assert not satisfies_adjacency((1, 4, 2, 3), 2)
    assert in_class((2, 3, 1), 2)
    assert not in_class((1, 3, 2), 5)
    with pytest.raises(ValueError):
        satisfies_adjacency((1, 2), 0)


def test_split_examples():
    assert split_at_max((2, 3, 1)) == MaxSplit((2,), 2, (1,))
    assert split_at_max((3, 1, 2)) == MaxSplit((), 1, (1, 2))
    assert split_at_max((1, 2, 3)) == MaxSplit((1, 2), 3, ())
    assert split_at_max((1,)) == MaxSplit((), 1, ())
    # defined even off the class
    assert split_at_max((1, 3, 2)) == MaxSplit((1,), 2, (2,))
    with pytest.raises(ValueError):
        split_at_max(())


def test_max_split_is_an_immutable_named_triple():
    piece = split_at_max((2, 3, 1))
    assert repr(piece) == "MaxSplit(left=(2,), position=2, right=(1,))"
    assert (piece.left, piece.position, piece.right) == ((2,), 2, (1,))
    with pytest.raises(AttributeError):
        piece.position = 1
    with pytest.raises(AttributeError):
        piece.extra = 1
    # a namedtuple: unlike the frozen dataclass it replaced, equal to its plain triple
    assert piece == ((2,), 2, (1,))


@given(permutations_upto(8))
def test_split_reconstructs(word):
    piece = split_at_max(word)
    n = len(word)
    assert piece.left + (n,) + piece.right == word
    assert word[piece.position - 1] == n


@given(permutations_upto(8))
def test_split_separation_iff_avoiding_is_one_sided(word):
    # on the class, everything left of the max dominates everything right of it
    if avoids_132(word):
        piece = split_at_max(word)
        if piece.left and piece.right:
            assert min(piece.left) > max(piece.right)


@given(permutations_upto(7), st.integers(1, 7))
def test_adjacency_monotone_in_bound(word, m):
    if satisfies_adjacency(word, m):
        assert satisfies_adjacency(word, m + 1)


@given(permutations_upto(7))
def test_prepending_new_max_preserves_avoidance(word):
    if avoids_132(word):
        extended = (len(word) + 1,) + word
        assert avoids_132(extended)


def test_incremental_matches_full_predicate_exhaustively():
    # the incremental filter accepts exactly the class, for every word up to n=8
    for n in range(1, 9):
        for word in permutations(range(1, n + 1)):
            m = 2
            accepted = all(
                prefix_extension_ok(word[:i], word[i], m) for i in range(n)
            )
            assert accepted == in_class(word, m), word


@given(permutations_upto(6), st.integers(1, 6))
def test_incremental_matches_full_predicate_random_bound(word, m):
    accepted = all(prefix_extension_ok(word[:i], word[i], m) for i in range(len(word)))
    assert accepted == in_class(word, m)


def test_prefix_extension_spot_checks():
    assert not prefix_extension_ok((2, 4), 3, 9)  # completes 2,4,3
    assert prefix_extension_ok((2, 4), 5, 9)
    assert prefix_extension_ok((), 3, 1)
    assert not prefix_extension_ok((3,), 1, 1)  # jump of 2 over bound 1
