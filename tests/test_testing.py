"""Exceedance test, quantiles, bootstrap CIs, improvement decisions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dualq.stats import testing
from dualq.stats.testing import (
    REPLICATE_BYTES,
    DistanceSets,
    DegenerateGroupsError,
    METRICS,
    bootstrap_exceedance,
    build_distances,
    ci_width_curve,
    cross_matrix,
    exceedance_test,
    extract_observations,
    improvement_check,
    percentile_ci,
    quantile,
    within_matrix,
)
from dualq.stats import _dtw_np, _dtw_py, dtw

from _oracles import bootstrap_replicates_oracle, quantile_oracle


class TestQuantile:
    def test_worked_example(self):
        # rank (n-1)*q = 2.85 -> 3 + 0.85 * (4 - 3)
        assert quantile([1, 2, 3, 4], 0.95) == pytest.approx(3.85)

    def test_extremes(self):
        assert quantile([5, 1, 9], 0.0) == 1.0
        assert quantile([5, 1, 9], 1.0) == 9.0

    def test_single_value(self):
        assert quantile([2.5], 0.95) == 2.5

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            quantile([1.0, bad, 2.0], 0.5)

    def test_leaves_its_input_unchanged(self):
        # _quantile_last partitions in place; quantile() must hand it a copy,
        # also where np.asarray and ravel return the caller's own memory
        arr = np.random.default_rng(3).permutation(40).astype(np.float64)
        before = arr.copy()
        for q in (0.0, 0.5, 0.95, 1.0):
            quantile(arr, q)
            assert np.array_equal(arr, before)
        grid = before.reshape(5, 8).copy()
        quantile(grid, 0.95)
        assert np.array_equal(grid, before.reshape(5, 8))

    @given(
        vals=st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=60),
        q=st.floats(0, 1),
    )
    @settings(max_examples=200)
    def test_matches_oracle(self, vals, q):
        assert quantile(vals, q) == pytest.approx(
            quantile_oracle(vals, q), rel=1e-9, abs=1e-9
        )


class TestOneRankQuantile:
    """The one-partition quantile equals
    ``np.quantile(x, q, axis=-1, method="linear")`` element for element."""

    LEVELS = (testing.QUANTILE_LEVEL, 0.0, 0.025, 0.975, 1.0)

    @staticmethod
    def check(x, q):
        got = testing._quantile_last(x, q)
        want = np.quantile(x, q, axis=-1, method="linear")
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want), (x.shape, q)

    def test_every_width_to_500(self):
        gen = np.random.default_rng(17)
        levels = self.LEVELS + tuple(gen.random(3))
        branches = set()
        for k in range(1, 501):
            x = gen.exponential(1.0, (3, k))
            for q in levels:
                self.check(x, q)
                self.check(x[1], q)
                assert quantile(x[1], q) == float(np.quantile(x[1], q))
            v = (k - 1) * testing.QUANTILE_LEVEL
            branches.add("exact" if v == int(v) else v - int(v) >= 0.5)
        # both interpolation branches, and a rank with no fraction: at
        # k = 21 the rank is 19.0 and the lower order statistic is the result
        assert branches == {"exact", True, False}
        assert 20 * testing.QUANTILE_LEVEL == 19.0

    @pytest.mark.parametrize("k", [2, 5, 21, 45, 435, 500])
    def test_tied_values(self, k):
        gen = np.random.default_rng(k)
        x = gen.integers(0, 3, (8, k)).astype(np.float64)
        x[0] = 1.0  # every value tied
        for q in self.LEVELS:
            self.check(x, q)

    @pytest.mark.parametrize("size", [2, 3, 8, 29])
    def test_non_contiguous_slices(self, size):
        gen = np.random.default_rng(size)
        ds = build_distances(gen.normal(size=30), gen.normal(size=30))
        for view in (ds.matrix_mm[:size, :size], ds.matrix_mk[:size, :size].T):
            assert not view.flags.c_contiguous
            for q in self.LEVELS:
                self.check(view, q)


class TestDistances:
    def test_within_matrix_scalar(self):
        D = within_matrix([1.0, 3.0, 6.0])
        assert D[0, 1] == 2.0
        assert D[1, 2] == 3.0
        assert D[0, 2] == 5.0
        assert np.allclose(D, D.T)
        assert np.all(np.diag(D) == 0)

    def test_cross_matrix_scalar(self):
        D = cross_matrix([1.0, 2.0], [2.0, 4.0, 0.0])
        assert D.shape == (2, 3)
        assert D[0, 1] == 3.0

    def test_timeseries_uses_dtw(self):
        obs = [np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0, 2.0])]
        D = within_matrix(obs)
        assert D[0, 1] == 0.0

    def test_build_distances_shapes(self):
        m = [1.0, 2.0, 3.0, 4.0]
        k = [1.5, 2.5, 3.5]
        ds = build_distances(m, k)
        assert ds.within_m.shape == (6,)
        assert ds.within_k.shape == (3,)
        assert ds.cross.shape == (12,)
        assert ds.matrix_mk.shape == (4, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scalar_observations_raise(self, bad):
        # a NaN throughput gave eps = nan and p_hat = 0: "equivalent"
        with pytest.raises(ValueError, match="finite"):
            build_distances(np.array([bad, 10.0, 10.1, 10.2]),
                            np.array([50.0, 51.0, 52.0, 53.0]))
        with pytest.raises(ValueError, match="finite"):
            cross_matrix([1.0, 2.0], [bad, 3.0])

    def test_degenerate_groups_raise(self):
        with pytest.raises(DegenerateGroupsError):
            build_distances([1.0], [1.0, 2.0])
        with pytest.raises(DegenerateGroupsError):
            build_distances([1.0, 2.0], [])


def _oracle_norm(x, y, band):
    raw, plen = _dtw_py.dtw_pair(x, y, -1 if band is None else band)
    return raw / plen


class TestBatchedMatrices:
    """build_distances equals a per-pair loop over the _dtw_py oracle bit
    for bit on time series, and the broadcast |a_i - b_j| on scalars.
    Lengths are mixed so that several (n, m) groups run, and the 24
    length-6 series of corpus M give one group of more than CHUNK_PAIRS
    pairs, which runs in more than one chunk."""

    @staticmethod
    def corpora():
        rng = np.random.default_rng(12)
        obs_m = [rng.poisson(2.0, 9 if i in (4, 17) else 6).astype(np.float64)
                 for i in range(26)]
        obs_k = [rng.poisson(2.0, 6 + i % 2).astype(np.float64) for i in range(12)]
        return obs_m, obs_k

    @pytest.mark.parametrize("band", [None, 3])
    def test_within_matrix_equals_oracle_loop(self, band):
        obs_m, obs_k = self.corpora()
        six = sum(x.size == 6 for x in obs_m)
        assert six * (six - 1) // 2 > dtw.CHUNK_PAIRS
        ds = build_distances(obs_m, obs_k, band)
        for D, obs in ((ds.matrix_mm, obs_m), (ds.matrix_kk, obs_k)):
            assert D.shape == (len(obs), len(obs))
            for i in range(len(obs)):
                assert D[i, i] == 0.0
                for j in range(i + 1, len(obs)):
                    expected = _oracle_norm(obs[i], obs[j], band)
                    assert D[i, j] == expected and D[j, i] == expected, (i, j)

    @pytest.mark.parametrize("band", [None, 3])
    def test_cross_matrix_equals_oracle_loop(self, band):
        obs_m, obs_k = self.corpora()
        D = build_distances(obs_m, obs_k, band).matrix_mk
        assert D.shape == (len(obs_m), len(obs_k))
        for i, x in enumerate(obs_m):
            for j, y in enumerate(obs_k):
                assert D[i, j] == _oracle_norm(x, y, band), (i, j)

    @pytest.mark.parametrize("band", [None, 3])
    def test_build_distances_equals_matrices(self, band, monkeypatch):
        # one dtw_norm_pairs call for all three matrices; within_matrix and
        # cross_matrix, which perfbench wraps by name, give the same bits
        obs_m, obs_k = self.corpora()
        calls = []
        real = dtw.dtw_norm_pairs

        def counted(xs, ys, b=None):
            calls.append(len(xs))
            return real(xs, ys, b)

        monkeypatch.setattr(testing, "dtw_norm_pairs", counted)
        ds = build_distances(obs_m, obs_k, band)
        n, m = len(obs_m), len(obs_k)
        assert calls == [n * (n - 1) // 2 + m * (m - 1) // 2 + n * m]
        for got, expected in [
            (ds.matrix_mm, within_matrix(obs_m, band)),
            (ds.matrix_kk, within_matrix(obs_k, band)),
            (ds.matrix_mk, cross_matrix(obs_m, obs_k, band)),
        ]:
            assert got.dtype == np.float64 and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("integers", [False, True])
    def test_scalar_matrices_equal_broadcast(self, integers, monkeypatch):
        # scalar observations never reach the DTW kernel
        def no_dtw(*args):
            raise AssertionError("DTW on scalar observations")

        monkeypatch.setattr(testing, "dtw_norm_pairs", no_dtw)
        gen = np.random.default_rng(5)
        if integers:
            # tied observations: zero distances off the diagonal
            a = gen.integers(0, 4, 9).astype(np.float64)
            b = np.array([1.0, 3.0, 3.0])
        else:
            a, b = gen.normal(10.0, 1.0, 9), gen.normal(10.5, 1.0, 7)
        ds = build_distances(a, b)
        for got, expected in [
            (ds.matrix_mm, np.abs(a[:, None] - a[None, :])),
            (ds.matrix_kk, np.abs(b[:, None] - b[None, :])),
            (ds.matrix_mk, np.abs(a[:, None] - b[None, :])),
        ]:
            assert got.dtype == np.float64 and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()
        assert within_matrix(a).tobytes() == ds.matrix_mm.tobytes()
        assert cross_matrix(a, b).tobytes() == ds.matrix_mk.tobytes()

    @pytest.mark.parametrize("kind", ["scalar", "unequal lengths"])
    def test_pooled_is_within_matrix_of_both(self, kind):
        # the one stored form of a comparison: the M runs, then the K runs
        gen = np.random.default_rng(9)
        if kind == "scalar":
            obs_m, obs_k = gen.normal(10.0, 1.0, 5), gen.normal(10.5, 1.0, 4)
        else:
            obs_m = [gen.poisson(2.0, 6).astype(np.float64) for _ in range(5)]
            obs_k = [gen.poisson(2.0, 8).astype(np.float64) for _ in range(4)]
        ds = build_distances(obs_m, obs_k)
        P = ds.pooled
        assert ds.n_m == 5 and P.shape == (9, 9) and P.dtype == np.float64
        assert (P == P.T).all() and not np.diag(P).any()
        assert P.tobytes() == within_matrix([*obs_m, *obs_k]).tobytes()

    @pytest.mark.parametrize("bad, band", [
        (np.array([1.0, np.nan, 2.0]), None),
        (np.array([]), None),
        (np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]), 1),
    ])
    def test_bad_input_raises_through_matrices(self, bad, band):
        good = [np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 1.0])]
        with pytest.raises(ValueError):
            within_matrix(good + [bad], band)
        with pytest.raises(ValueError):
            cross_matrix(good, [bad, good[0]], band)


class TestChunks:
    """dtw_norm_pairs runs a group larger than one chunk of about
    CHUNK_BYTES per diagonal block in equal chunks, with the results of a
    single kernel call."""

    @pytest.mark.parametrize("n, dtype", [(200, np.float64), (400, np.int32)])
    def test_group_splits_into_equal_chunks(self, n, dtype, dtw_kernel_calls):
        # integers in [0, 8] run packed, one int32 key a cell; one value
        # off the integers sends the group to dtw_many in float64 costs
        rng = np.random.default_rng(n)
        xs = rng.integers(0, 9, (170, n)).astype(np.float64)
        ys = rng.integers(0, 9, (170, n)).astype(np.float64)
        if dtype == np.float64:
            xs[5, 7] += 0.25
        itemsize = np.dtype(dtype).itemsize
        per_call = dtw.CHUNK_BYTES // (n * itemsize)
        assert 85 <= per_call < 170 and per_call < dtw.CHUNK_PAIRS
        got = dtw.dtw_norm_pairs(list(xs), list(ys))
        # two chunks of 85, not one of per_call and a remainder
        kernel = ("dtw_packed", 85, (1, 8)) if dtype == np.int32 else ("dtw_many", 85)
        assert dtw_kernel_calls == [kernel] * 2
        raw, plen = _dtw_np.dtw_many(xs, ys)
        assert got.tobytes() == (raw / plen).tobytes()


class TestExceedance:
    def test_identical_groups_accept(self):
        rng = np.random.default_rng(1)
        pool = rng.normal(10, 0.5, size=60)
        ds = build_distances(pool[:30], pool[30:])
        res = exceedance_test(ds, metric="throughput", kind="scalar")
        assert res.p_hat_max < 0.05
        assert res.reject_h0 is True

    def test_shifted_groups_reject(self):
        rng = np.random.default_rng(2)
        a = rng.normal(10, 0.1, size=30)
        b = rng.normal(20, 0.1, size=30)
        ds = build_distances(a, b)
        res = exceedance_test(ds)
        assert res.p_hat_max > 0.9
        assert res.reject_h0 is False

    def test_eps_is_max_of_group_quantiles(self):
        a = [0.0, 1.0, 2.0, 3.0]
        b = [0.0, 10.0, 20.0, 30.0]
        ds = build_distances(a, b)
        res = exceedance_test(ds)
        assert res.eps_max == max(res.eps_within_m, res.eps_within_k)
        assert res.eps_within_k > res.eps_within_m

    def test_boundary_is_fail_to_reject(self):
        # craft distances so p_hat lands exactly on 0.05
        class FakeDS:
            within_m = np.array([1.0, 1.0, 1.0])
            within_k = np.array([1.0, 1.0, 1.0])
            cross = np.array([2.0] + [0.0] * 19)  # exactly 1/20 above eps=1
            matrix_mm = np.zeros((3, 3))
            matrix_kk = np.zeros((3, 3))
            matrix_mk = np.zeros((4, 5))

        res = exceedance_test(FakeDS())
        assert res.p_hat_max == 0.05
        assert res.reject_h0 is False

    def test_strictly_greater_only(self):
        class FakeDS:
            within_m = np.array([1.0, 1.0])
            within_k = np.array([1.0, 1.0])
            cross = np.array([1.0, 1.0, 1.0, 1.0])  # equal, never above
            matrix_mm = np.zeros((2, 2))
            matrix_kk = np.zeros((2, 2))
            matrix_mk = np.zeros((2, 2))

        res = exceedance_test(FakeDS())
        assert res.p_hat_max == 0.0
        assert res.reject_h0 is True

    def test_self_equivalence_monte_carlo(self):
        # two corpora from one distribution, 10 repetitions:
        # the median p_hat must accept equivalence
        rng = np.random.default_rng(99)
        p_hats = []
        for _ in range(10):
            a = rng.normal(0, 1, size=30)
            b = rng.normal(0, 1, size=30)
            ds = build_distances(a, b)
            p_hats.append(exceedance_test(ds).p_hat_max)
        assert float(np.median(p_hats)) < 0.05


class TestPercentileCi:
    def test_b2000_uses_ranks_50_and_1950(self):
        reps = np.arange(1, 2001, dtype=float)  # values == 1-indexed ranks
        lo, hi = percentile_ci(reps)
        assert lo == 50.0
        assert hi == 1950.0

    def test_short_run_ranks(self):
        reps = np.arange(1, 101, dtype=float)
        lo, hi = percentile_ci(reps)
        # ceil(2.5) = 3, floor(97.5) = 97
        assert lo == 3.0
        assert hi == 97.0

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        reps = rng.normal(size=500)
        shuffled = reps.copy()
        rng.shuffle(shuffled)
        assert percentile_ci(reps) == percentile_ci(shuffled)


class TestBootstrap:
    def make_ds(self, rng, n=20, shift=0.0):
        a = rng.normal(0, 1, size=n)
        b = rng.normal(shift, 1, size=n)
        return build_distances(a, b)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(0)
        ds = self.make_ds(rng)
        r1 = bootstrap_exceedance(ds, B=200, seed=42)
        r2 = bootstrap_exceedance(ds, B=200, seed=42)
        assert (r1.ci_lo, r1.ci_hi) == (r2.ci_lo, r2.ci_hi)

    def test_seed_changes_replicates(self):
        rng = np.random.default_rng(0)
        ds = self.make_ds(rng, n=25, shift=1.0)
        r1 = bootstrap_exceedance(ds, B=200, seed=1)
        r2 = bootstrap_exceedance(ds, B=200, seed=2)
        assert (r1.ci_lo, r1.ci_hi) != (r2.ci_lo, r2.ci_hi)

    def test_identical_corpora_ci_is_degenerate_zero(self):
        # every distance 0 -> every replicate p_hat 0 -> CI [0, 0]
        obs = [5.0] * 10
        ds = build_distances(obs, obs)
        res = bootstrap_exceedance(ds, B=200, seed=3)
        assert (res.ci_lo, res.ci_hi) == (0.0, 0.0)
        assert res.significant is True

    def test_far_corpora_ci_near_one(self):
        rng = np.random.default_rng(8)
        ds = self.make_ds(rng, n=20, shift=50.0)
        res = bootstrap_exceedance(ds, B=200, seed=3)
        assert res.ci_lo > 0.5
        assert res.significant is False

    def test_metadata_recorded(self):
        rng = np.random.default_rng(0)
        ds = self.make_ds(rng)
        res = bootstrap_exceedance(ds, B=100, seed=9, metric="throughput")
        assert res.B == 100
        assert res.seed == 9
        assert res.algorithm == "pcg64"
        assert res.metric == "throughput"

    def test_ci_contains_point_estimate_usually(self):
        rng = np.random.default_rng(10)
        ds = self.make_ds(rng, n=30, shift=2.0)
        res = bootstrap_exceedance(ds, B=400, seed=0)
        assert res.ci_lo - 0.1 <= res.p_hat_point <= res.ci_hi + 0.1


def _pcg(seed):
    return np.random.Generator(np.random.PCG64(seed))


# the most replicates one example runs through the one-at-a-time oracle,
# about 0.15 s of it
ORACLE_MAX_B = 1000


def _chunk_edges(n, m):
    """One short chunk, a chunk less one, an exact chunk, a chunk plus one
    and a short last chunk at the chunk size _replicates uses for n and m
    runs, each capped at ORACLE_MAX_B."""
    c = testing._replicates_per_chunk(n, m)
    return sorted({min(B, ORACLE_MAX_B) for B in (2, c - 1, c, c + 1, 2 * c + 2)})


@st.composite
def sizes_at_chunk_edges(draw, lo, hi):
    n = draw(st.integers(lo, hi))
    m = draw(st.integers(lo, hi))
    return n, m, draw(st.sampled_from(_chunk_edges(n, m)))


def _short_last_chunk(n, m):
    return n, m, _chunk_edges(n, m)[-1]


class TestChunkedReplicates:
    """The chunked replicates equal the one-at-a-time oracle bit for bit,
    and leave the generator where the oracle leaves it."""

    @staticmethod
    def check(ds, B, seed):
        rng, oracle_rng = _pcg(seed), _pcg(seed)
        got = testing._replicates(ds, B, rng)
        assert np.array_equal(got, bootstrap_replicates_oracle(ds, B, oracle_rng))
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_examples_reach_every_edge(self):
        # the @examples below run all five edges; at n = 12, m = 40 the
        # within-K second pass (one weight for each of 780 pairs), not the
        # cross mask (480 cells), sets the chunk, as it does at n = 40, m = 2
        assert len(_chunk_edges(30, 30)) == len(_chunk_edges(12, 40)) == 5
        assert (testing._replicates_per_chunk(12, 40)
                == testing._replicates_per_chunk(40, 2)
                < testing._replicates_per_chunk(12, 39))

    @given(
        sizes=sizes_at_chunk_edges(2, 40),
        kind=st.sampled_from(["normal", "integers", "constant"]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    # both draw bounds on every run: the scalar bound of n == m (the
    # perfbench and ci_width_curve case) and the repeated bounds of n != m
    @example(sizes=_short_last_chunk(30, 30), kind="normal", data_seed=0, seed=0)
    @example(sizes=_short_last_chunk(12, 40), kind="normal", data_seed=0, seed=0)
    # eps on a distance that some cross distances equal, which are not above
    # it, at n == m and n != m; then every within distance 0, so eps = 0,
    # with every cross distance 0 and with every one 1 (criterion 12's shape)
    @example(sizes=_short_last_chunk(30, 30), kind="integers", data_seed=0, seed=0)
    @example(sizes=_short_last_chunk(12, 40), kind="integers", data_seed=0, seed=0)
    @example(sizes=(9, 5, 7), kind="constant", data_seed=1, seed=0)
    @example(sizes=(9, 5, 7), kind="constant", data_seed=2, seed=0)
    @settings(max_examples=60, deadline=None)
    def test_scalar_matches_oracle(self, sizes, kind, data_seed, seed):
        n, m, B = sizes
        gen = np.random.default_rng(data_seed)
        if kind == "integers":
            # few distinct values: tied observations and tied distances
            a = gen.integers(0, 4, n).astype(np.float64)
            b = gen.integers(1, 5, m).astype(np.float64)
        elif kind == "constant":
            # no spread in either corpus; the corpora equal or 1 apart
            a = np.zeros(n)
            b = np.full(m, float(gen.integers(0, 2)))
        else:
            a = gen.normal(0, 1, n)
            b = gen.normal(0.5, 1, m)
        self.check(build_distances(a, b), B, seed)

    @pytest.mark.parametrize("n, m, outliers", [(30, 24, "m"), (12, 40, "k")])
    def test_outlier_pairs_reach_the_second_pass(self, monkeypatch, n, m, outliers):
        # two runs 20 sigma out: their 2 (runs - 2) + 1 pairs top the list,
        # so a replicate that draws neither weighs none of them, and the
        # prefix can end below rank P - lo
        gen = np.random.default_rng(5)
        a, b = gen.normal(0, 1, n), gen.normal(0.5, 1, m)
        x = a if outliers == "m" else b
        x[:2] = 20.0, -20.0
        runs = len(x)
        P = runs * (runs - 1) // 2
        prefix = testing.WITHIN_PREFIX * (P - int((P - 1) * testing.QUANTILE_LEVEL))
        c = testing._replicates_per_chunk(n, m)
        B = _chunk_edges(n, m)[-1]
        calls = []
        inner = testing._reaching

        def spy(counts, iu, ju, ranks):
            if counts.shape[0] == runs:
                calls.append((len(iu), counts.shape[1]))
            return inner(counts, iu, ju, ranks)

        monkeypatch.setattr(testing, "_reaching", spy)
        self.check(build_distances(a, b), B, 0)
        # the first pass weighs the prefix for every replicate of a chunk,
        # the second the whole list for some of them
        assert prefix < P
        assert [k for L, k in calls if L == prefix] == [c, c, B - 2 * c]
        second = [k for L, k in calls if L == P]
        assert second and all(0 < k < c for k in second)
        assert len(calls) == 3 + len(second)

    @pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 3), (3, 2)])
    def test_two_and_three_runs_match_oracle(self, monkeypatch, n, m):
        # P = 1 and P = 3: the prefix is the whole list, and a replicate
        # that draws one run too often finds a rank only at the 0.0
        # appended for the same-run slot pairs
        at_zero = []
        inner = testing._reaching

        def spy(counts, iu, ju, ranks):
            found = inner(counts, iu, ju, ranks)
            at_zero.append((found[0] == len(iu)).any())
            return found

        monkeypatch.setattr(testing, "_reaching", spy)
        gen = np.random.default_rng(n * 10 + m)
        self.check(build_distances(gen.normal(0, 1, n), gen.normal(0.5, 1, m)),
                   _chunk_edges(n, m)[-1], n + m)
        assert len(at_zero) == 2 and all(at_zero)

    @pytest.mark.parametrize("n, m", [(10, 10), (30, 30), (12, 40)])
    def test_identical_runs_but_one_match_oracle(self, n, m):
        # the n - 1 pairs of the odd run, at distance 1, top M's list, and
        # every other pair ties with the appended 0.0: a replicate that
        # draws the odd run reaches P - lo among them, one that does not
        # weighs none of them and may need the second pass to reach 0.0
        gen = np.random.default_rng(n + m)
        self.check(build_distances(np.r_[np.zeros(n - 1), 1.0], gen.integers(0, 3, m) / 2),
                   _chunk_edges(n, m)[-1], n)

    def test_int32_codes_match_oracle(self):
        # 258 runs give C(258, 2) + 1 = 33154 distinct distances, too many
        # codes for int16; B spans two chunks
        gen = np.random.default_rng(0)
        ds = build_distances(gen.normal(0, 1, 129), gen.normal(0.5, 1, 129))
        values, codes_mk = testing._rank_codes(ds)
        assert len(values) == 33154 and codes_mk.dtype == np.int32
        self.check(ds, testing._replicates_per_chunk(129, 129) + 1, 0)

    @given(
        sizes=sizes_at_chunk_edges(2, 20),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_timeseries_matches_oracle(self, sizes, data_seed, seed):
        n, m, B = sizes
        gen = np.random.default_rng(data_seed)
        obs_m = [gen.poisson(2.0, gen.integers(3, 8)).astype(np.float64)
                 for _ in range(n)]
        obs_k = [gen.poisson(2.0, gen.integers(3, 8)).astype(np.float64)
                 for _ in range(m)]
        self.check(build_distances(obs_m, obs_k), B, seed)

    def test_peak_memory_stays_near_the_budget(self):
        # chunks of a fixed 32 replicates peak at 7.9 MB here
        gen = np.random.default_rng(100)
        ds = build_distances(gen.normal(10.0, 1.0, 100), gen.normal(10.5, 1.0, 100))
        tracemalloc.start()
        try:
            testing._replicates(ds, 2000, _pcg(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * REPLICATE_BYTES

    def test_ci_width_curve_consumes_oracle_draws(self, monkeypatch):
        gen = np.random.default_rng(31)
        ds = build_distances(gen.integers(0, 6, 30).astype(np.float64),
                             gen.integers(1, 7, 24).astype(np.float64))
        sizes, B, seed = [3, 10, 24], testing._replicates_per_chunk(24, 24) + 1, 5
        used = []
        inner = testing._replicates

        def spy(ds, B, rng):
            used.append(rng)
            return inner(ds, B, rng)

        # ci_width_curve resolves _replicates through the module
        monkeypatch.setattr(testing, "_replicates", spy)
        rows = ci_width_curve(ds, sizes, B=B, seed=seed)
        assert len(used) == len(sizes) and all(r is used[0] for r in used)

        oracle_rng = _pcg(seed)
        expected = []
        P, n = ds.pooled, ds.n_m
        for size in sizes:
            sub = DistanceSets(np.block([[P[:size, :size], P[:size, n:n + size]],
                                         [P[n:n + size, :size], P[n:n + size, n:n + size]]]),
                               size)
            lo, hi = percentile_ci(bootstrap_replicates_oracle(sub, B, oracle_rng))
            expected.append((size, lo, hi, hi - lo))
        assert [(r["n"], r["ci_lo"], r["ci_hi"], r["width"]) for r in rows] == expected
        assert used[0].bit_generator.state == oracle_rng.bit_generator.state


class TestPinnedOutputs:
    """Exact bootstrap and ci-width figures on fixed-seed scalar corpora.

    Any change to the exceedance rule, the resampling order or the
    slicing of the matrices changes these floats."""

    @pytest.fixture()
    def ds(self):
        rng = np.random.default_rng(2024)
        a = rng.normal(0, 1, size=12)
        b = rng.normal(2.0, 1, size=15)
        return build_distances(a, b)

    def test_bootstrap_b500(self, ds):
        res = bootstrap_exceedance(ds, B=500, seed=7, metric="throughput")
        assert res.p_hat_point == 0.16666666666666666
        assert res.ci_lo == 0.05
        assert res.ci_hi == 0.34444444444444444
        assert res.replicates_mean == 0.15635555555555555

    def test_ci_width_curve(self, ds):
        rows = ci_width_curve(ds, [4, 8, 12], B=200, seed=3, metric="throughput")
        assert [(r["n"], r["ci_lo"], r["ci_hi"], r["width"]) for r in rows] == [
            (4, 0.0, 1.0, 1.0),
            (8, 0.015625, 0.375, 0.359375),
            (12, 0.041666666666666664, 0.3611111111111111, 0.3194444444444444),
        ]
        assert all(r["B"] == 200 and r["metric"] == "throughput" for r in rows)


class TestImprovement:
    def test_table_decisions(self):
        # (default CI) vs (optimized CI): improved iff opt_hi < def_lo
        assert improvement_check((0.050, 0.169), (0.222, 0.470)) is True
        assert improvement_check((0.000, 0.115), (0.338, 0.779)) is True
        assert improvement_check((0.000, 0.280), (0.000, 0.018)) is False

    def test_touching_intervals_not_improved(self):
        assert improvement_check((0.0, 0.2), (0.2, 0.4)) is False


class TestCiWidth:
    def test_width_shrinks_with_corpus_size(self):
        rng = np.random.default_rng(21)
        a = rng.normal(0, 1, size=100)
        b = rng.normal(0.5, 1, size=100)
        ds = build_distances(a, b)
        rows = ci_width_curve(ds, [20, 100], B=300, seed=4)
        assert rows[0]["n"] == 20
        assert rows[1]["n"] == 100
        assert rows[1]["width"] <= rows[0]["width"]

    def test_rejects_oversized_slice(self):
        ds = build_distances([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            ci_width_curve(ds, [5], B=50)


class TestMetricExtraction:
    def test_registry_names(self):
        assert set(METRICS) == {
            "throughput",
            "queue_occupancy",
            "queue_bytes",
            "ecn_marks",
            "drops",
        }

    def test_extract_scalar_and_series(self):
        from dualq.metrics import FlowSummary, RunRecord

        rec = RunRecord(
            run_id="r",
            seed=0,
            rng_algorithm="mt19937",
            fingerprint="f",
            duration_ns=1_000_000_000,
            config={},
            flows=[FlowSummary("a", "cubic", 1_250_000)],
            counters={},
            samples=np.array([[16_000_000, 3, 4500, 2, 1]], dtype=np.int64),
        )
        tput = extract_observations([rec], "throughput")
        assert tput.shape == (1,)
        assert tput[0] == pytest.approx(10.0)
        occ = extract_observations([rec], "queue_occupancy")
        assert occ[0].tolist() == [3.0]
        with pytest.raises(ValueError):
            extract_observations([rec], "nonsense")
