"""Exceedance test, quantiles, bootstrap CIs, improvement decisions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dualq.stats.testing import (
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
    scalar_distance,
    within_matrix,
)
from dualq.stats import _dtw_py, dtw

from _oracles import quantile_oracle


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

    @given(
        vals=st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=60),
        q=st.floats(0, 1),
    )
    @settings(max_examples=200)
    def test_matches_oracle(self, vals, q):
        assert quantile(vals, q) == pytest.approx(
            quantile_oracle(vals, q), rel=1e-9, abs=1e-9
        )


class TestDistances:
    def test_scalar_distance(self):
        assert scalar_distance(3.0, 5.5) == 2.5
        assert scalar_distance(5.5, 3.0) == 2.5

    def test_within_matrix_scalar(self):
        D = within_matrix([1.0, 3.0, 6.0], "scalar")
        assert D[0, 1] == 2.0
        assert D[1, 2] == 3.0
        assert D[0, 2] == 5.0
        assert np.allclose(D, D.T)
        assert np.all(np.diag(D) == 0)

    def test_cross_matrix_scalar(self):
        D = cross_matrix([1.0, 2.0], [2.0, 4.0, 0.0], "scalar")
        assert D.shape == (2, 3)
        assert D[0, 1] == 3.0

    def test_timeseries_uses_dtw(self):
        obs = [np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 1.0, 2.0])]
        D = within_matrix(obs, "timeseries")
        assert D[0, 1] == 0.0

    def test_build_distances_shapes(self):
        m = [1.0, 2.0, 3.0, 4.0]
        k = [1.5, 2.5, 3.5]
        ds = build_distances(m, k, "scalar")
        assert ds.within_m.shape == (6,)
        assert ds.within_k.shape == (3,)
        assert ds.cross.shape == (12,)
        assert ds.matrix_mk.shape == (4, 3)

    def test_degenerate_groups_raise(self):
        with pytest.raises(DegenerateGroupsError):
            build_distances([1.0], [1.0, 2.0], "scalar")
        with pytest.raises(DegenerateGroupsError):
            build_distances([1.0, 2.0], [], "scalar")


def _oracle_norm(x, y, band):
    raw, plen = _dtw_py.dtw_pair(x, y, -1 if band is None else band)
    return raw / plen


class TestBatchedMatrices:
    """Time-series matrices equal a per-pair loop over the _dtw_py oracle
    bit for bit. Lengths are mixed so that several (n, m) groups run, and
    the 24 length-6 series of corpus M give one group of more than
    CHUNK_PAIRS pairs, which runs in more than one chunk."""

    @staticmethod
    def corpora():
        rng = np.random.default_rng(12)
        obs_m = [rng.poisson(2.0, 9 if i in (4, 17) else 6).astype(np.float64)
                 for i in range(26)]
        obs_k = [rng.poisson(2.0, 6 + i % 2).astype(np.float64) for i in range(12)]
        return obs_m, obs_k

    @pytest.mark.parametrize("band", [None, 3])
    def test_within_matrix_equals_oracle_loop(self, band):
        obs_m, _ = self.corpora()
        n = len(obs_m)
        six = sum(x.size == 6 for x in obs_m)
        assert six * (six - 1) // 2 > dtw.CHUNK_PAIRS
        D = within_matrix(obs_m, "timeseries", band)
        for i in range(n):
            assert D[i, i] == 0.0
            for j in range(i + 1, n):
                expected = _oracle_norm(obs_m[i], obs_m[j], band)
                assert D[i, j] == expected and D[j, i] == expected, (i, j)

    @pytest.mark.parametrize("band", [None, 3])
    def test_cross_matrix_equals_oracle_loop(self, band):
        obs_m, obs_k = self.corpora()
        D = cross_matrix(obs_m, obs_k, "timeseries", band)
        assert D.shape == (len(obs_m), len(obs_k))
        for i, x in enumerate(obs_m):
            for j, y in enumerate(obs_k):
                assert D[i, j] == _oracle_norm(x, y, band), (i, j)

    @pytest.mark.parametrize("bad, band", [
        (np.array([1.0, np.nan, 2.0]), None),
        (np.array([]), None),
        (np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]), 1),
    ])
    def test_bad_input_raises_through_matrices(self, bad, band):
        good = [np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 1.0])]
        with pytest.raises(ValueError):
            within_matrix(good + [bad], "timeseries", band)
        with pytest.raises(ValueError):
            cross_matrix(good, [bad, good[0]], "timeseries", band)


class TestExceedance:
    def test_identical_groups_accept(self):
        rng = np.random.default_rng(1)
        pool = rng.normal(10, 0.5, size=60)
        ds = build_distances(pool[:30], pool[30:], "scalar")
        res = exceedance_test(ds, metric="throughput", kind="scalar")
        assert res.p_hat_max < 0.05
        assert res.reject_h0 is True

    def test_shifted_groups_reject(self):
        rng = np.random.default_rng(2)
        a = rng.normal(10, 0.1, size=30)
        b = rng.normal(20, 0.1, size=30)
        ds = build_distances(a, b, "scalar")
        res = exceedance_test(ds)
        assert res.p_hat_max > 0.9
        assert res.reject_h0 is False

    def test_eps_is_max_of_group_quantiles(self):
        a = [0.0, 1.0, 2.0, 3.0]
        b = [0.0, 10.0, 20.0, 30.0]
        ds = build_distances(a, b, "scalar")
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
            ds = build_distances(a, b, "scalar")
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
        return build_distances(a, b, "scalar")

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
        ds = build_distances(obs, obs, "scalar")
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
        ds = build_distances(a, b, "scalar")
        rows = ci_width_curve(ds, [20, 100], B=300, seed=4)
        assert rows[0]["n"] == 20
        assert rows[1]["n"] == 100
        assert rows[1]["width"] <= rows[0]["width"]

    def test_rejects_oversized_slice(self):
        ds = build_distances([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "scalar")
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
        from dualq.metrics import FlowSummary, RunRecord, TraceSample

        rec = RunRecord(
            run_id="r",
            seed=0,
            rng_algorithm="mt19937",
            fingerprint="f",
            duration_ns=1_000_000_000,
            config={},
            flows=[FlowSummary("a", "cubic", 1_250_000, 10.0)],
            counters={},
            samples=[TraceSample(16_000_000, 3, 4500, 2, 1)],
        )
        tput = extract_observations([rec], "throughput")
        assert tput.shape == (1,)
        assert tput[0] == pytest.approx(10.0)
        occ = extract_observations([rec], "queue_occupancy")
        assert occ[0].tolist() == [3.0]
        with pytest.raises(ValueError):
            extract_observations([rec], "nonsense")
