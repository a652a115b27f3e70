"""Unit tests for the segment-reduction primitives."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.utils.segments import (
    gather_reduce,
    indptr_to_row_ids,
    lengths_to_indptr,
    row_lengths,
    segment_count,
    segment_max,
    segment_min,
    segment_sum,
)


class TestSegmentSum:
    def test_basic(self):
        vals = np.array([1.0, 2.0, 3.0, 4.0])
        indptr = np.array([0, 2, 4])
        assert segment_sum(vals, indptr).tolist() == [3.0, 7.0]

    def test_empty_segments_are_zero(self):
        vals = np.array([1.0, 2.0])
        indptr = np.array([0, 0, 2, 2])
        assert segment_sum(vals, indptr).tolist() == [0.0, 3.0, 0.0]

    def test_trailing_empty_does_not_truncate_previous(self):
        # regression: reduceat start-index clamping used to drop the last
        # element of the final non-empty segment
        vals = np.array([1.0, 2.0, 3.0])
        indptr = np.array([0, 1, 3, 3, 3])
        assert segment_sum(vals, indptr).tolist() == [1.0, 5.0, 0.0, 0.0]

    def test_all_empty(self):
        out = segment_sum(np.empty(0), np.array([0, 0, 0]))
        assert out.tolist() == [0.0, 0.0]

    def test_single_segment(self):
        vals = np.arange(5.0)
        assert segment_sum(vals, np.array([0, 5])).tolist() == [10.0]

    def test_2d_values(self):
        vals = np.arange(8.0).reshape(4, 2)
        indptr = np.array([0, 1, 1, 4])
        out = segment_sum(vals, indptr)
        assert out.shape == (3, 2)
        assert out[0].tolist() == [0.0, 1.0]
        assert out[1].tolist() == [0.0, 0.0]
        assert out[2].tolist() == [12.0, 15.0]

    def test_matches_bincount(self):
        rng = np.random.default_rng(1)
        n_seg, nnz = 50, 500
        rows = np.sort(rng.integers(0, n_seg, nnz))
        vals = rng.random(nnz)
        counts = np.bincount(rows, minlength=n_seg)
        indptr = lengths_to_indptr(counts)
        expected = np.bincount(rows, weights=vals, minlength=n_seg)
        assert np.allclose(segment_sum(vals, indptr), expected)

    def test_rejects_bad_indptr(self):
        vals = np.ones(3)
        with pytest.raises(ValidationError):
            segment_sum(vals, np.array([1, 3]))  # does not start at 0
        with pytest.raises(ValidationError):
            segment_sum(vals, np.array([0, 2]))  # does not end at nnz
        with pytest.raises(ValidationError):
            segment_sum(vals, np.array([0, 2, 1, 3]))  # decreasing
        with pytest.raises(ValidationError):
            segment_sum(vals, np.array([], dtype=np.int64))


class TestGatherReduce:
    """The pull kernels' gather→mask→weight→ordered-reduce step against a
    literal per-edge loop (sequential accumulation, so bitwise)."""

    @staticmethod
    def _literal(w, col, rows, n, mask=None, weights=None):
        y = np.zeros((n,) + w.shape[1:], dtype=np.float64)
        for e in range(col.size):
            v = w[col[e]].copy()
            if mask is not None:
                v = v * mask[e]
            if weights is not None:
                v = v * weights[e]
            y[rows[e]] += v
        return y

    @staticmethod
    def _edges(seed, n=30, m=200):
        rng = np.random.default_rng(seed)
        rows = np.sort(rng.integers(0, n, m)).astype(np.int64)
        col = rng.integers(0, n, m).astype(np.int64)
        return rng, n, m, col, rows

    def test_matches_literal_loop(self):
        rng, n, m, col, rows = self._edges(7)
        w = rng.random(n)
        mask = rng.random(m) < 0.6
        weights = rng.integers(1, 5, m).astype(np.float64)
        for kw in ({}, {"mask": mask}, {"weights": weights},
                   {"mask": mask, "weights": weights}):
            expected = self._literal(w, col, rows, n, **kw)
            assert np.array_equal(
                gather_reduce(w, col, rows, n, **kw), expected
            ), kw
            out = np.full(n, np.nan)
            contrib = np.full(m, np.nan)
            got = gather_reduce(
                w, col, rows, n, out=out, contrib=contrib, **kw
            )
            assert got is out
            assert np.array_equal(out, expected), kw

    def test_batched_matches_literal_loop(self):
        rng, n, m, col, rows = self._edges(11)
        W = rng.random((n, 3))
        active = rng.random((m, 3)) < 0.6
        expected = self._literal(W, col, rows, n, mask=active)
        assert np.array_equal(
            gather_reduce(W, col, rows, n, mask=active), expected
        )
        out = np.full((n, 3), np.nan)
        got = gather_reduce(
            W, col, rows, n, mask=active, out=out,
            contrib=np.full((m, 3), np.nan), scratch=np.full(m, np.nan),
        )
        assert got is out
        assert np.array_equal(out, expected)

    def test_empty_edge_list(self):
        empty = np.zeros(0, dtype=np.int64)
        out = gather_reduce(np.ones(6), empty, empty, 6)
        assert np.array_equal(out, np.zeros(6, dtype=np.float64))


class TestSegmentCount:
    def test_counts_true(self):
        mask = np.array([True, False, True, True])
        indptr = np.array([0, 2, 4])
        assert segment_count(mask, indptr).tolist() == [1, 2]

    def test_rejects_non_bool(self):
        with pytest.raises(ValidationError):
            segment_count(np.array([1, 0]), np.array([0, 2]))


class TestSegmentMaxMin:
    def test_max(self):
        vals = np.array([5, 1, 7, 3])
        indptr = np.array([0, 2, 2, 4])
        assert segment_max(vals, indptr, -1).tolist() == [5, -1, 7]

    def test_min(self):
        vals = np.array([5, 1, 7, 3])
        indptr = np.array([0, 2, 2, 4])
        assert segment_min(vals, indptr, 99).tolist() == [1, 99, 3]

    def test_trailing_empty(self):
        vals = np.array([2, 9])
        indptr = np.array([0, 2, 2])
        assert segment_max(vals, indptr, 0).tolist() == [9, 0]
        assert segment_min(vals, indptr, 0).tolist() == [2, 0]

    def test_empty_values(self):
        out = segment_max(np.empty(0, dtype=np.int64), np.array([0, 0]), 7)
        assert out.tolist() == [7]


class TestIndptrHelpers:
    def test_row_lengths(self):
        assert row_lengths(np.array([0, 3, 3, 7])).tolist() == [3, 0, 4]

    def test_lengths_roundtrip(self):
        lengths = np.array([2, 0, 5, 1])
        indptr = lengths_to_indptr(lengths)
        assert indptr.tolist() == [0, 2, 2, 7, 8]
        assert row_lengths(indptr).tolist() == lengths.tolist()

    def test_lengths_rejects_negative(self):
        with pytest.raises(ValidationError):
            lengths_to_indptr(np.array([1, -1]))

    def test_indptr_to_row_ids(self):
        indptr = np.array([0, 2, 2, 5])
        assert indptr_to_row_ids(indptr).tolist() == [0, 0, 2, 2, 2]

    def test_row_ids_empty(self):
        assert indptr_to_row_ids(np.array([0, 0])).tolist() == []
