from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import special
from scipy import stats as sps

from coi_rag import stats
from coi_rag.stats import (
    EXACT_MAX_N,
    PairedSample,
    TestResult as StatsTestResult,
    benjamini_hochberg,
    bh_adjusted_pvalues,
    bootstrap_ci,
    cohens_dz,
    mann_whitney_u,
    paired_t,
    required_pairs,
    select_paired_test,
    shapiro_wilk,
    wilcoxon_signed_rank,
)


def paired(a, b):
    return PairedSample.from_lists([f"q{i}" for i in range(len(a))], a, b)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def wilcoxon_enumeration_oracle(diffs, alternative):
    """Exact signed-rank p by enumerating every sign assignment."""
    d = np.asarray([x for x in diffs if x != 0], dtype=float)
    ranks = sps.rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    n = len(d)
    ge = le = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for r, s in zip(ranks, signs) if s)
        if w >= w_obs - 1e-12:
            ge += 1
        if w <= w_obs + 1e-12:
            le += 1
    total = 2**n
    pg, pl = ge / total, le / total
    if alternative == "greater":
        return pg
    if alternative == "less":
        return pl
    return min(1.0, 2 * min(pg, pl))


def mwu_enumeration_oracle(x, y, alternative):
    """Exact U-test p by enumerating every label assignment."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1 = len(x)
    combined = np.concatenate([x, y])
    ranks = sps.rankdata(combined)
    u_obs = ranks[:n1].sum() - n1 * (n1 + 1) / 2
    ge = le = total = 0
    for pos in itertools.combinations(range(len(combined)), n1):
        u = sum(ranks[i] for i in pos) - n1 * (n1 + 1) / 2
        total += 1
        if u >= u_obs - 1e-12:
            ge += 1
        if u <= u_obs + 1e-12:
            le += 1
    pg, pl = ge / total, le / total
    if alternative == "greater":
        return pg
    if alternative == "less":
        return pl
    return min(1.0, 2 * min(pg, pl))


class TestShapiroWilk:
    def test_equally_spaced_five_points(self):
        w, p = shapiro_wilk([-1.0, -0.5, 0.0, 0.5, 1.0])
        assert w == pytest.approx(0.987, abs=5e-4)

    def test_bimodal_sample_rejected(self):
        x = np.concatenate([np.full(25, -3.0), np.full(25, 3.0)])
        x = x + np.linspace(-0.01, 0.01, 50)  # break exact ties
        _, p = shapiro_wilk(x)
        assert p < 0.05

    def test_n_below_three_rejected(self):
        with pytest.raises(ValueError):
            shapiro_wilk([1.0, 2.0])

    def test_constant_sample_rejected(self):
        with pytest.raises(ValueError):
            shapiro_wilk([2.0] * 10)

    def test_range_below_r94_floor_rejected(self):
        with pytest.raises(ValueError):
            shapiro_wilk([0.0, 1e-20, 2e-20, 5e-20])

    def test_sample_shaped_like_its_weights_fits_perfectly(self):
        # W rounds to 1 or just above it, where R94's log(1 - W) is undefined
        assert shapiro_wilk([1.0, 2.0, 3.0]) == (1.0, 1.0)
        for n in range(4, 30):
            w, p = shapiro_wilk(stats._sw_weights(n))
            assert w == pytest.approx(1.0, abs=1e-12) and p == 1.0

    def test_ignores_input_order(self):
        rng = np.random.default_rng(47)
        x = rng.exponential(size=24)
        assert shapiro_wilk(x) == shapiro_wilk(rng.permutation(x))

    def test_matches_scipy(self):
        """The AS R94 port against scipy.stats.shapiro, which runs the same algorithm."""
        rng = np.random.default_rng(53)
        draws = (
            lambda n: rng.normal(size=n),
            lambda n: rng.exponential(size=n),
            lambda n: np.round(rng.normal(size=n), 1),  # some ties
            lambda n: rng.integers(0, 3, size=n).astype(float),  # mostly ties
            lambda n: 1e6 + rng.normal(size=n),  # a large offset, which the middle-value shift removes
        )
        sizes = [n for n in range(3, 40) for _ in range(5)] + [50, 64, 100, 257, 1000, 2500, 5000]
        checked = 0
        for n in sizes:
            for draw in draws:
                x = draw(n)
                if np.ptp(x) == 0:
                    continue
                w, p = shapiro_wilk(x)
                want_w, want_p = sps.shapiro(x)
                assert abs(w - want_w) <= 1e-12, (n, x)
                # 2e-15 absorbs last-bit W differences at n = 3, where p = 1 - 6/pi*acos(sqrt(W)) nears 0
                assert abs(p - want_p) <= 1e-8 * want_p + 2e-15, (n, x)
                assert (p < 0.05) == (want_p < 0.05), (n, x)
                checked += 1
        assert checked > 900


class TestScipyEquivalence:
    """The numpy and math paths against the scipy calls they replace.

    Ranks equal ``scipy.stats.rankdata`` bit for bit. The t and normal
    tails and the t quantile are held within 1e-13 relative: scipy itself
    is about 3e-14 off the exact t tail at df near 200, so no
    implementation equals it bit for bit, and at that tolerance no p-value
    crosses 0.05 and no BH decision flips. Where scipy is no oracle, the
    t tail is held against mpmath at 40 digits.
    """

    def test_average_ranks_equal_rankdata(self):
        rng = np.random.default_rng(59)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            tied = rng.integers(0, int(rng.integers(1, 8)), size=n).astype(float)
            np.testing.assert_array_equal(stats._average_ranks(tied), sps.rankdata(tied))
            untied = rng.normal(size=n)
            np.testing.assert_array_equal(stats._average_ranks(untied), sps.rankdata(untied))

    def test_paired_t_tails_and_interval_equal_scipy_t(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            n = int(rng.integers(2, 80))
            s = paired(rng.normal(loc=rng.uniform(-1, 1), size=n), rng.normal(size=n))
            greater = paired_t(s, "greater")
            t_stat, df = greater.statistic, n - 1
            want_greater, want_less = float(sps.t.sf(t_stat, df)), float(sps.t.cdf(t_stat, df))
            assert greater.p_one_sided == pytest.approx(want_greater, rel=1e-13, abs=0)
            assert paired_t(s, "less").p_one_sided == pytest.approx(want_less, rel=1e-13, abs=0)
            d = s.differences()
            half = float(sps.t.ppf(0.975, df)) * d.std(ddof=1) / math.sqrt(n)
            want_ci = (float(d.mean()) - half, float(d.mean()) + half)
            assert greater.ci95 == pytest.approx(want_ci, rel=1e-13, abs=1e-13 * half)

    def test_t975_equals_scipy_ppf(self):
        for dof in range(1, 401):
            assert stats._t975(dof) == pytest.approx(float(sps.t.ppf(0.975, dof)), rel=1e-13, abs=0)

    def test_normal_tails_equal_scipy_norm(self):
        rng = np.random.default_rng(67)
        for _ in range(2000):
            stat, mu = rng.uniform(0, 400, size=2)
            var = float(rng.uniform(0.5, 3000))
            sigma = math.sqrt(var)
            want = (
                float(sps.norm.sf((stat - mu - 0.5) / sigma)),
                float(sps.norm.cdf((stat - mu + 0.5) / sigma)),
            )
            # erfc keeps subnormal tails that scipy flushes to 0; neither has relative accuracy there
            assert stats._normal_tails(float(stat), float(mu), var) == pytest.approx(
                want, rel=1e-13, abs=np.finfo(float).tiny
            )

    def test_stdtr_within_1e13_of_scipy_special(self):
        """Integer df 1-200 and |t| <= 40, far tails included."""
        ts = np.concatenate([np.linspace(-40, 40, 161), np.linspace(-2.5, 2.5, 51), [-math.sqrt(3), math.sqrt(3)]])
        for df in range(1, 201):
            got = np.array([stats._stdtr(df, float(t)) for t in ts])
            np.testing.assert_allclose(got, special.stdtr(df, ts), rtol=1e-13, atol=0, err_msg=f"df={df}")

    @pytest.mark.parametrize("df, bound", [(89, 4e-14), (200, 4e-14), (1000, 1.5e-13), (2000, 3e-13)])
    def test_t_tail_within_stated_bound_of_mpmath(self, df, bound):
        """The ``_t_upper_tail`` docstring's bounds, where its continued fractions converge slowest."""
        import mpmath

        with mpmath.workdps(40):
            a, b = mpmath.mpf(df) / 2, mpmath.mpf(1) / 2
            for t in np.linspace(1.5, 2.5, 401):
                x = df / (df + mpmath.mpf(float(t)) ** 2)
                exact = mpmath.betainc(a, b, 0, x, regularized=True) / 2
                rel = abs((stats._t_upper_tail(df, float(t)) - exact) / exact)
                assert rel <= bound, f"t={t}: {float(rel):.3g}"

    def test_ndtr_within_1e13_of_scipy_special(self):
        xs = np.linspace(-20, 20, 4001)
        got = np.array([stats._ndtr(float(x)) for x in xs])
        np.testing.assert_allclose(got, special.ndtr(xs), rtol=1e-13, atol=0)

    def test_no_flipped_decision_at_005_or_in_bh(self):
        """Families of paired-t p-values decide as scipy's do, at 0.05 and under BH."""
        rng = np.random.default_rng(71)
        for _ in range(200):
            ours, theirs = [], []
            for _ in range(int(rng.integers(2, 12))):
                n = int(rng.integers(3, 60))
                s = paired(rng.normal(loc=0.3, size=n), rng.normal(size=n))
                result = paired_t(s, "greater")
                ours.append(result.p_one_sided)
                theirs.append(float(sps.t.sf(result.statistic, n - 1)))
            assert [p < 0.05 for p in ours] == [p < 0.05 for p in theirs]
            assert benjamini_hochberg(ours, q=0.05) == benjamini_hochberg(theirs, q=0.05)


class TestWilcoxon:
    def test_six_positive_differences_exact(self):
        s = paired([2, 3, 4, 5, 6, 7], [1, 1, 1, 1, 1, 1])
        result = wilcoxon_signed_rank(s, "greater")
        assert result.exact
        assert result.p_one_sided == pytest.approx(1 / 64)
        assert result.statistic == 21.0

    def test_two_symmetric_differences_two_sided(self):
        s = paired([1.0, -1.0], [0.0, 0.0])
        result = wilcoxon_signed_rank(s, "two_sided")
        assert result.p_two_sided == 1.0

    def test_all_zero_differences_error(self):
        with pytest.raises(ValueError):
            wilcoxon_signed_rank(paired([1, 2, 3], [1, 2, 3]), "greater")

    def test_zeros_dropped_before_ranking(self):
        s = paired([2, 3, 4, 5, 1], [1, 1, 1, 1, 1])  # one zero difference
        result = wilcoxon_signed_rank(s, "greater")
        assert result.p_one_sided == pytest.approx(1 / 16)

    def test_matches_enumeration_oracle_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(3, 11))
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            if np.all(a - b == 0):
                continue
            s = paired(a, b)
            for alt in ("greater", "less", "two_sided"):
                got = wilcoxon_signed_rank(s, alt)
                want = wilcoxon_enumeration_oracle(a - b, alt)
                field = got.p_two_sided if alt == "two_sided" else got.p_one_sided
                assert field == pytest.approx(want, abs=1e-12)

    def test_matches_scipy_untied(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            d = rng.normal(size=15)
            s = paired(d, np.zeros(15))
            got = wilcoxon_signed_rank(s, "greater")
            want = sps.wilcoxon(d, alternative="greater", method="exact")
            assert got.p_one_sided == pytest.approx(want.pvalue, abs=1e-12)

    def test_exact_and_approx_agree_at_boundary(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            d = rng.normal(size=25)
            s = paired(d, np.zeros(25))
            exact = wilcoxon_signed_rank(s, "greater", method="exact")
            approx = wilcoxon_signed_rank(s, "greater", method="approx")
            assert exact.exact and not approx.exact
            assert abs(exact.p_one_sided - approx.p_one_sided) <= 0.01

    def test_alternative_coherence(self):
        rng = np.random.default_rng(31)
        d = rng.normal(size=12)
        s = paired(d, np.zeros(12))
        pg = wilcoxon_signed_rank(s, "greater").p_one_sided
        pl = wilcoxon_signed_rank(s, "less").p_one_sided
        assert pg + pl >= 1.0

    def test_effect_size_is_dz(self):
        a, b = [3.0, 5.0, 4.0], [1.0, 2.0, 1.0]
        result = wilcoxon_signed_rank(paired(a, b), "greater")
        assert result.effect_size == pytest.approx(cohens_dz(np.array(a) - np.array(b)))


class TestPairedT:
    def test_zero_variance_error(self):
        with pytest.raises(ValueError):
            paired_t(paired([2, 3, 4, 5], [1, 2, 3, 4]), "greater")

    def test_identical_samples_error(self):
        with pytest.raises(ValueError):
            paired_t(paired([1, 2], [1, 2]), "greater")

    def test_dz_two_four(self):
        result = paired_t(paired([2, 4], [0, 0]), "greater")
        assert result.effect_size == pytest.approx(3 / math.sqrt(2), abs=1e-9)

    def test_matches_scipy(self):
        rng = np.random.default_rng(37)
        a = rng.normal(size=20)
        b = rng.normal(size=20)
        got = paired_t(paired(a, b), "greater")
        want = sps.ttest_rel(a, b, alternative="greater")
        assert got.p_one_sided == pytest.approx(want.pvalue, abs=1e-12)
        assert got.statistic == pytest.approx(want.statistic, abs=1e-12)

    def test_ci_contains_mean_difference(self):
        rng = np.random.default_rng(41)
        a = rng.normal(loc=1.0, size=30)
        b = rng.normal(size=30)
        result = paired_t(paired(a, b), "greater")
        md = float(np.mean(a) - np.mean(b))
        assert result.ci95[0] <= md <= result.ci95[1]


class TestMannWhitney:
    def test_complete_separation_three_vs_three(self):
        result = mann_whitney_u([4, 5, 6], [1, 2, 3], "greater")
        assert result.exact
        assert result.statistic == 9.0
        assert result.p_one_sided == pytest.approx(1 / 20)

    def test_identical_multisets_two_sided_one(self):
        result = mann_whitney_u([1, 2, 3], [1, 2, 3], "two_sided")
        assert result.p_two_sided == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0], "greater")

    def test_matches_enumeration_oracle_random(self):
        rng = np.random.default_rng(43)
        sizes = [(int(rng.integers(2, 6)), int(rng.integers(2, 6)), "auto") for _ in range(20)]
        # One-element samples, and forced-exact sizes past the auto rule up
        # to 20 combined; few of them, as the oracle grows as C(n, n1).
        sizes += [(1, 1, "auto"), (1, 6, "auto"), (8, 1, "exact"), (1, 19, "exact"),
                  (5, 9, "exact"), (6, 14, "exact"), (16, 4, "exact")]
        for n1, n2, method in sizes:
            x = rng.integers(0, 6, size=n1).astype(float)  # ties likely
            y = rng.integers(0, 6, size=n2).astype(float)
            for alt in ("greater", "less", "two_sided"):
                got = mann_whitney_u(x, y, alt, method)
                assert got.exact
                want = mwu_enumeration_oracle(x, y, alt)
                field = got.p_two_sided if alt == "two_sided" else got.p_one_sided
                assert field == pytest.approx(want, abs=1e-12)

    def test_matches_scipy_large(self):
        rng = np.random.default_rng(47)
        x = rng.normal(size=30)
        y = rng.normal(size=25)
        got = mann_whitney_u(x, y, "greater")
        want = sps.mannwhitneyu(x, y, alternative="greater", method="asymptotic")
        assert got.p_one_sided == pytest.approx(want.pvalue, rel=1e-9)

    def test_exact_and_approx_agree_at_boundary(self):
        rng = np.random.default_rng(53)
        for size in [6] * 30 + [15] * 10:  # 15+15 is past enumeration's old limit of 20
            x = rng.normal(size=size)
            y = rng.normal(size=size)
            exact = mann_whitney_u(x, y, "greater", method="exact")
            approx = mann_whitney_u(x, y, "greater", method="approx")
            assert exact.exact and not approx.exact
            assert abs(exact.p_one_sided - approx.p_one_sided) <= 0.01
            want = sps.mannwhitneyu(x, y, alternative="greater", method="exact").pvalue
            assert exact.p_one_sided == pytest.approx(want, abs=1e-12)

    def test_effect_size_independent_d(self):
        x = np.array([4.0, 5.0, 6.0])
        y = np.array([1.0, 2.0, 3.0])
        result = mann_whitney_u(x, y, "greater")
        pooled = math.sqrt((x.var(ddof=1) + y.var(ddof=1)) / 2)
        assert result.effect_size == pytest.approx((x.mean() - y.mean()) / pooled)


class TestExactNull:
    def test_counts_are_binomial_by_size(self):
        for ranks in ((2, 4, 6, 8, 10), (3, 3, 6, 9, 9, 12), (2,) * 7):
            null = stats._rank_sum_null(ranks)
            n = len(ranks)
            assert null.shape == (n + 1, sum(ranks) + 1)
            assert [row.sum() for row in null] == [math.comb(n, k) for k in range(n + 1)]
            assert null.sum() == 2**n

    def test_forced_exact_limit_is_52(self):
        assert EXACT_MAX_N == 52
        top = wilcoxon_signed_rank(paired(np.arange(1.0, 53.0), np.zeros(52)), "greater", "exact")
        assert top.exact and top.p_one_sided == 2.0**-52  # the counts are still exact
        d = np.arange(1.0, 54.0)
        with pytest.raises(ValueError, match="52"):
            wilcoxon_signed_rank(paired(d, np.zeros(53)), "greater", "exact")
        with pytest.raises(ValueError, match="52"):
            mann_whitney_u(d[:26], d[26:], "greater", "exact")
        assert not mann_whitney_u(d[:26], d[26:], "greater").exact
        split = mann_whitney_u(d[:26], d[26:52], "greater", "exact")
        assert split.exact and split.p_two_sided == 2 / math.comb(52, 26)


class TestBenjaminiHochberg:
    def test_all_small_all_rejected(self):
        assert benjamini_hochberg([0.01, 0.02, 0.03, 0.04], 0.05) == [True] * 4

    def test_large_pvalues_none_rejected(self):
        assert benjamini_hochberg([0.9, 0.8], 0.05) == [False, False]

    def test_permutation_maps_back(self):
        base = benjamini_hochberg([0.01, 0.02, 0.03, 0.04], 0.05)
        shuffled = benjamini_hochberg([0.01, 0.04, 0.03, 0.02], 0.05)
        assert sorted(base) == sorted(shuffled)
        assert shuffled == [True, True, True, True]

    def test_hand_derived_step_up(self):
        # p = [0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205,
        #      0.212, 0.216, 0.222, 0.251, 0.269, 0.275, 0.34, 0.341,
        #      0.384, 0.569, 0.594, 0.696] at q=0.05: the largest i with
        # p_(i) <= i/20*0.05 is i=3 (0.039 > 3*0.0025 fails... check i=2:
        # 0.008 <= 0.005 fails; i=1: 0.001 <= 0.0025 holds) -> reject {0.001}.
        pvals = [0.001, 0.008, 0.039, 0.041, 0.042, 0.06, 0.074, 0.205,
                 0.212, 0.216, 0.222, 0.251, 0.269, 0.275, 0.34, 0.341,
                 0.384, 0.569, 0.594, 0.696]
        got = benjamini_hochberg(pvals, 0.05)
        assert got == [True] + [False] * 19

    def test_empty(self):
        assert benjamini_hochberg([], 0.05) == []

    def test_monotone_in_q(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            pvals = rng.uniform(size=12).tolist()
            r1 = benjamini_hochberg(pvals, 0.01)
            r2 = benjamini_hochberg(pvals, 0.10)
            assert all(not a or b for a, b in zip(r1, r2))  # r1 subset of r2

    def test_adjusted_pvalues_consistent_with_flags(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            pvals = rng.uniform(size=10).tolist()
            for q in (0.01, 0.05, 0.2):
                flags = benjamini_hochberg(pvals, q)
                adjusted = bh_adjusted_pvalues(pvals)
                assert flags == [a <= q for a in adjusted]

    def test_out_of_range_p_rejected(self):
        with pytest.raises(ValueError):
            benjamini_hochberg([0.5, 1.2], 0.05)


class TestCohensDz:
    def test_two_four(self):
        assert cohens_dz([2, 4]) == pytest.approx(2.1213, abs=1e-4)

    def test_zero_mean(self):
        assert cohens_dz([-1, 1]) == 0.0

    def test_zero_sd_error(self):
        with pytest.raises(ValueError):
            cohens_dz([3, 3, 3])

    def test_single_value_error(self):
        with pytest.raises(ValueError):
            cohens_dz([1])


class TestRequiredPairs:
    def test_normal_approximation_small_effect(self):
        assert required_pairs(0.3, 0.05, 0.8, "one", method="normal") == 69

    def test_noncentral_t_brackets_74(self):
        n = required_pairs(0.3, 0.05, 0.8, "one", method="noncentral_t")
        assert 69 <= n <= 75

    def test_large_effect_single_digit(self):
        assert required_pairs(1.0, 0.05, 0.8, "one") <= 9

    def test_monotone_in_dz(self):
        ns = [required_pairs(dz, 0.05, 0.8, "one") for dz in (0.2, 0.3, 0.5, 0.8)]
        assert ns == sorted(ns, reverse=True)

    def test_monotone_in_alpha(self):
        ns = [required_pairs(0.3, a, 0.8, "one") for a in (0.01, 0.05, 0.1)]
        assert ns == sorted(ns, reverse=True)

    def test_monotone_in_power(self):
        ns = [required_pairs(0.3, 0.05, p, "one") for p in (0.5, 0.8, 0.9, 0.95)]
        assert ns == sorted(ns)

    def test_two_tailed_needs_more(self):
        one = required_pairs(0.3, 0.05, 0.8, "one")
        two = required_pairs(0.3, 0.05, 0.8, "two")
        assert two > one

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            required_pairs(0.0, 0.05, 0.8, "one")
        with pytest.raises(ValueError):
            required_pairs(0.3, 0.05, 0.8, "three")


def frozen_bootstrap_ci(x, statistic, n_boot, seed):
    """``bootstrap_ci`` as it was before calls shared their draws: one generator per call."""
    x = np.asarray(x, dtype=float)
    idx = np.random.default_rng(seed).integers(0, x.size, size=(n_boot, x.size))
    values = {"mean": np.mean, "median": np.median}[statistic](x[idx], axis=1)
    lo, hi = np.percentile(values, [2.5, 97.5])
    return float(lo), float(hi)


class TestBootstrap:
    def test_constant_sample_degenerate_interval(self):
        assert bootstrap_ci([5.0] * 10, "mean", seed=1) == (5.0, 5.0)

    def test_same_seed_same_interval(self):
        x = list(np.random.default_rng(67).normal(size=40))
        assert bootstrap_ci(x, "median", seed=9) == bootstrap_ci(x, "median", seed=9)

    def test_interval_contains_mean_for_symmetric_samples(self):
        rng = np.random.default_rng(71)
        for seed in range(5):
            x = rng.normal(size=50)
            lo, hi = bootstrap_ci(list(x), "mean", seed=seed)
            assert lo <= float(np.mean(x)) <= hi

    def test_too_few_observations(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], "mean")

    def test_shared_draws_equal_one_generator_per_call(self):
        """Bit-equal to drawing afresh on every call, across interleaved keys that evict the memo."""
        triples = [(size, n_boot, seed) for size in (2, 7, 24) for n_boot in (1, 50) for seed in (0, 3)]
        assert len(triples) > stats._resample_indices.cache_info().maxsize + 1
        rng = np.random.default_rng(89)
        order = [triples[i] for i in rng.permutation(3 * len(triples)) % len(triples)]
        for size, n_boot, seed in order + order[::-1]:
            x = rng.normal(size=size)
            for statistic in ("mean", "median"):
                want = frozen_bootstrap_ci(x, statistic, n_boot, seed)
                assert bootstrap_ci(list(x), statistic, n_boot=n_boot, seed=seed) == want
                assert bootstrap_ci(x, statistic, n_boot=n_boot, seed=seed) == want  # a memo hit

    def test_cached_draws_refuse_writes(self):
        idx = stats._resample_indices(10, 20, 5)
        with pytest.raises(ValueError, match="read-only"):
            idx[0, 0] = 1
        assert stats._resample_indices(10, 20, 5) is idx


class TestSelectPairedTest:
    def test_non_normal_goes_to_wilcoxon(self):
        rng = np.random.default_rng(73)
        b = rng.normal(size=40)
        heavy = np.where(rng.uniform(size=40) < 0.15, 40.0, 0.05)  # spiked diffs
        result = select_paired_test(paired(b + heavy, b), "greater")
        assert result.test_name == "wilcoxon_signed_rank"

    def test_normal_goes_to_paired_t(self):
        rng = np.random.default_rng(79)
        b = rng.normal(size=60)
        result = select_paired_test(paired(b + rng.normal(0.3, 1.0, size=60), b))
        assert result.test_name == "paired_t"

    def test_gate_is_at_005(self):
        d = [0.87, 0.65, 1.14, 1.98, 0.35, 1.13, 1.12, 0.53, 0.07, 0.13,
             0.06, 0.68, 0.25, 1.07, 0.2, 1.28, 0.01, 0.04, 1.24, 0.09]
        assert 0.01 < shapiro_wilk(d)[1] < 0.05
        assert select_paired_test(paired(d, [0.0] * len(d))).test_name == "wilcoxon_signed_rank"

    def test_tiny_sample_falls_back_to_wilcoxon(self):
        result = select_paired_test(paired([2, 1], [1, 2]), "two_sided")
        assert result.test_name == "wilcoxon_signed_rank"

    def test_all_zero_differences_degenerate(self):
        for n in (2, 3, 40):
            a = np.linspace(0.0, 1.0, n)
            result = select_paired_test(paired(a, a), "greater")
            assert result == StatsTestResult(
                "degenerate", 0.0, 1.0, 1.0, 0.0, (0.0, 0.0), n, True, "greater"
            )


class TestPermutationInvariance:
    def test_paired_tests_ignore_pair_order(self):
        rng = np.random.default_rng(89)
        a = rng.normal(0.2, 1.0, size=15)
        b = rng.normal(size=15)
        perm = rng.permutation(15)
        for fn in (wilcoxon_signed_rank, paired_t):
            base = fn(paired(a, b), "greater")
            shuffled = fn(paired(a[perm], b[perm]), "greater")
            assert shuffled.p_one_sided == pytest.approx(base.p_one_sided, abs=1e-12)
            assert shuffled.statistic == pytest.approx(base.statistic, abs=1e-9)

    def test_mwu_ignores_within_sample_order(self):
        rng = np.random.default_rng(97)
        x = rng.normal(size=9)
        y = rng.normal(size=7)
        base = mann_whitney_u(x, y, "greater")
        shuffled = mann_whitney_u(rng.permutation(x), rng.permutation(y), "greater")
        assert shuffled.p_one_sided == pytest.approx(base.p_one_sided, abs=1e-12)


class TestTypeIError:
    def test_exact_wilcoxon_level_near_nominal(self):
        # 10,000 H0 simulations at n=20: one-sided rejection at 0.05 must
        # land within +/-0.02 of nominal despite the discrete null.
        rng = np.random.default_rng(83)
        n_sims, n = 10_000, 20
        rejections = 0
        for _ in range(n_sims):
            d = rng.normal(size=n)
            result = wilcoxon_signed_rank(paired(d, np.zeros(n)), "greater")
            if result.p_one_sided <= 0.05:
                rejections += 1
        rate = rejections / n_sims
        assert 0.03 <= rate <= 0.07

    def test_result_validation(self):
        with pytest.raises(ValueError):
            StatsTestResult("t", 0.0, 1.5, 0.5, 0.0, (0.0, 1.0), 3, True, "greater")
        with pytest.raises(ValueError):
            StatsTestResult("t", 0.0, 0.5, 0.5, 0.0, (1.0, 0.0), 3, True, "greater")
