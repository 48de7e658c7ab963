"""Tests for priority/permutation handling."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.orderings import (
    identity_priorities,
    permutation_from_ranks,
    random_priorities,
    ranks_from_permutation,
    validate_priorities,
)
from repro.errors import InvalidOrderingError


class TestRandomPriorities:
    def test_is_permutation(self):
        r = random_priorities(100, seed=0)
        assert np.array_equal(np.sort(r), np.arange(100))

    def test_reproducible(self):
        assert np.array_equal(random_priorities(50, seed=1), random_priorities(50, seed=1))

    def test_zero_items(self):
        assert random_priorities(0, seed=0).size == 0

    def test_negative_rejected(self):
        with pytest.raises(InvalidOrderingError):
            random_priorities(-1)


class TestIdentity:
    def test_values(self):
        assert identity_priorities(4).tolist() == [0, 1, 2, 3]

    def test_negative_rejected(self):
        with pytest.raises(InvalidOrderingError):
            identity_priorities(-2)


class TestInversion:
    def test_docstring_example(self):
        assert ranks_from_permutation(np.array([2, 0, 1])).tolist() == [1, 2, 0]

    @given(st.permutations(range(12)))
    def test_involution(self, perm):
        p = np.asarray(perm, dtype=np.int64)
        ranks = ranks_from_permutation(p)
        assert np.array_equal(permutation_from_ranks(ranks), p)

    @given(st.permutations(range(12)))
    def test_rank_semantics(self, perm):
        # ranks[perm[i]] == i: the i-th processed item has rank i.
        p = np.asarray(perm, dtype=np.int64)
        ranks = ranks_from_permutation(p)
        for i, item in enumerate(perm):
            assert ranks[item] == i

    def test_rejects_2d(self):
        with pytest.raises(InvalidOrderingError, match="1-D"):
            ranks_from_permutation(np.zeros((2, 2), dtype=np.int64))


class TestValidatePriorities:
    def test_valid_passthrough(self):
        r = validate_priorities(np.array([1, 0, 2]), 3)
        assert r.dtype == np.int64

    def test_wrong_length(self):
        with pytest.raises(InvalidOrderingError, match="length 4"):
            validate_priorities(np.array([0, 1, 2]), 4)

    def test_duplicate_rank(self):
        with pytest.raises(InvalidOrderingError, match="not a permutation"):
            validate_priorities(np.array([0, 0, 2]), 3)

    def test_out_of_range(self):
        with pytest.raises(InvalidOrderingError, match=r"\[0, 3\)"):
            validate_priorities(np.array([0, 1, 3]), 3)

    def test_float_rejected(self):
        with pytest.raises(InvalidOrderingError, match="integers"):
            validate_priorities(np.array([0.0, 1.0]), 2)

    def test_empty_ok(self):
        assert validate_priorities(np.empty(0, dtype=np.int64), 0).size == 0

    def test_smallest_duplicate_is_named(self):
        with pytest.raises(InvalidOrderingError, match="rank 1 appears 2 times"):
            validate_priorities(np.array([3, 1, 3, 1, 0]), 5)

    def test_nan_named(self):
        with pytest.raises(InvalidOrderingError, match="NaN"):
            validate_priorities(np.array([0.0, np.nan, 1.0]), 3)

    def test_front_door_check_is_the_same_function(self):
        from repro.robustness.validate import check_ranks

        assert check_ranks is validate_priorities

    def test_linear_without_sorting(self, monkeypatch):
        # The check must stay O(n): no sort-based helper on any path.
        def banned(*args, **kwargs):
            raise AssertionError("the rank check sorted its input")

        for name in ("unique", "sort", "argsort"):
            monkeypatch.setattr(np, name, banned)
        validate_priorities(np.array([2, 0, 1]), 3)
        with pytest.raises(InvalidOrderingError, match="rank 2"):
            validate_priorities(np.array([2, 2, 1]), 3)
