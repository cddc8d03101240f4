"""DTW distance: worked examples, oracle agreement, kernel parity."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualq.stats import dtw
from dualq.stats import _dtw_np, _dtw_py

from _oracles import dtw_oracle


class TestWorkedExamples:
    def test_warp_absorbs_repeat(self):
        # [0,1,2] vs [0,1,1,2]: perfect alignment through a repeat
        raw, plen, norm = dtw.dtw_alignment([0, 1, 2], [0, 1, 1, 2])
        assert raw == 0.0
        assert plen == 4
        assert norm == 0.0

    def test_constant_offset(self):
        raw, plen, norm = dtw.dtw_alignment([1, 1], [2, 2])
        assert raw == 2.0
        assert plen == 2
        assert norm == 1.0

    def test_identical_series_zero(self):
        xs = [3.0, 1.0, 4.0, 1.0, 5.0]
        assert dtw.dtw_norm(xs, xs) == 0.0

    def test_symmetry(self):
        x = [0.0, 2.0, 4.0, 1.0]
        y = [1.0, 3.0, 0.0]
        assert dtw.dtw_alignment(x, y)[0] == dtw.dtw_alignment(y, x)[0]

    def test_single_elements(self):
        raw, plen, norm = dtw.dtw_alignment([5.0], [2.0])
        assert raw == 3.0
        assert plen == 1
        assert norm == 3.0


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dtw.dtw_norm([], [1.0])

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            dtw.dtw_norm([[1.0, 2.0]], [1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dtw.dtw_norm([float("nan"), 1.0], [1.0])
        with pytest.raises(ValueError):
            dtw.dtw_norm([1.0], [float("inf")])

    def test_rejects_infeasible_band(self):
        with pytest.raises(ValueError):
            dtw.dtw_norm([1.0, 2.0, 3.0, 4.0], [1.0], band=1)


class TestOracleAgreement:
    """The DP must match exhaustive path enumeration exactly.

    Integer-valued series keep every sum exact in float64, so
    equality here is bitwise, not approximate.
    """

    def test_exhaustive_short_grid(self):
        for n, m in itertools.product((1, 2, 3), repeat=2):
            for x in itertools.product((0, 1, 2), repeat=n):
                for y in itertools.product((0, 1, 2), repeat=m):
                    raw, plen, norm = dtw.dtw_alignment(x, y)
                    oraw, oplen, onorm = dtw_oracle(x, y)
                    assert raw == oraw, (x, y)
                    assert plen == oplen, (x, y)
                    assert norm == onorm, (x, y)

    def test_random_mid_lengths(self):
        rng = random.Random(404)
        for _ in range(300):
            n = rng.randint(1, 8)
            m = rng.randint(1, 8)
            x = [rng.randint(0, 5) for _ in range(n)]
            y = [rng.randint(0, 5) for _ in range(m)]
            raw, plen, norm = dtw.dtw_alignment(x, y)
            oraw, oplen, onorm = dtw_oracle(x, y)
            assert raw == oraw, (x, y)
            assert plen == oplen, (x, y)


@st.composite
def batches(draw):
    """P >= 2 pairs of one (n, m), integer-with-ties or float values, and
    a band of none, |n - m|, |n - m| + 2 or at least max(n, m)."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 40))
    p = draw(st.integers(2, 5))
    values = draw(st.sampled_from([
        st.integers(0, 3).map(float),
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
    ]))
    xs = [draw(st.lists(values, min_size=n, max_size=n)) for _ in range(p)]
    ys = [draw(st.lists(values, min_size=m, max_size=m)) for _ in range(p)]
    gap = abs(n - m)
    band = draw(st.sampled_from([-1, gap, gap + 2, max(n, m), max(n, m) + 3]))
    return np.array(xs), np.array(ys), band


def assert_matches_oracle(xs, ys, band):
    expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
    raw, plen = _dtw_np.dtw_many(xs, ys, band)
    assert [(float(r), int(k)) for r, k in zip(raw, plen)] == expected, band


class TestKernelParity:
    """The batched kernel equals the scalar _dtw_py oracle bit for bit,
    raw cost and path length, on whole batches of pairs."""

    @given(batch=batches())
    @settings(max_examples=200, deadline=None)
    def test_same_results(self, batch):
        assert_matches_oracle(*batch)

    def test_banded_parity(self):
        rng = np.random.default_rng(7)
        xs = rng.normal(size=(4, 60))
        ys = rng.normal(size=(4, 50))
        for band in (-1, 10, 20, 59):
            assert_matches_oracle(xs, ys, band)

    @pytest.mark.parametrize("n, m", [(9, 9), (16, 16), (17, 11), (11, 17),
                                      (30, 24)])
    def test_tie_heavy_path_choice(self, n, m):
        # 0/1 values make most cells tie between two or three predecessors,
        # so any change to the diagonal > vertical > horizontal choice, or to
        # the predecessor a tie is tested against, changes a path length.
        # The band of gap + 3 is narrower than the matrix mid-way, so the
        # diagonals there start and end next to cells left from earlier ones.
        rng = np.random.default_rng(1000 * n + m)
        xs = rng.integers(0, 2, (6, n)).astype(np.float64)
        ys = rng.integers(0, 2, (6, m)).astype(np.float64)
        xs[0] = 0.0  # one pair of constant, equal series: every cell ties
        ys[0] = 0.0
        xs[1] = np.arange(n) % 2  # alternating against constant
        ys[1] = 1.0
        gap = abs(n - m)
        for band in (-1, gap, gap + 1, gap + 3):
            raw, plen = _dtw_np.dtw_many(xs, ys, band)
            assert raw.dtype == np.float64 and plen.dtype == np.int64
            expected = [_dtw_py.dtw_pair(x, y, band) for x, y in zip(xs, ys)]
            assert list(zip(raw.tolist(), plen.tolist())) == expected, band


class TestBand:
    def test_wide_band_equals_unconstrained(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert dtw.dtw_alignment(x, y, band=29) == dtw.dtw_alignment(x, y)

    def test_band_zero_is_lockstep(self):
        x = [1.0, 2.0, 3.0]
        y = [2.0, 2.0, 5.0]
        raw, plen, norm = dtw.dtw_alignment(x, y, band=0)
        assert raw == 1.0 + 0.0 + 2.0
        assert plen == 3

    def test_narrow_band_cannot_beat_full(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.normal(size=25)
            y = rng.normal(size=25)
            assert (dtw.dtw_alignment(x, y, band=3)[0]
                    >= dtw.dtw_alignment(x, y)[0] - 1e-12)


class TestNormalization:
    @given(
        x=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
        y=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_path_length_bounds(self, x, y):
        n, m = len(x), len(y)
        raw, plen, norm = dtw.dtw_alignment(x, y)
        assert max(n, m) <= plen <= n + m - 1
        assert norm == raw / plen

    def test_length_invariance_of_scale(self):
        # same shape at different sampling densities scores near zero
        base = np.sin(np.linspace(0, 3.0, 50))
        dense = np.sin(np.linspace(0, 3.0, 100))
        assert dtw.dtw_norm(base, dense) < 0.01
