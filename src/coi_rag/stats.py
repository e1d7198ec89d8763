"""Paired and independent nonparametric tests, FDR control, and power.

The experiment protocol gates each paired comparison on a Shapiro-Wilk
normality check of the differences: non-normal differences go to the
Wilcoxon signed-rank test, normal ones to the paired t-test. Independent
group comparisons use the Mann-Whitney U test. One-sided p-values are the
primary output; two-sided values are reported alongside. Small samples use
exact null distributions (one subset-sum table over the doubled ranks
serves both rank tests), larger ones a normal approximation with
continuity and tie corrections.

Everything an experiment run calls needs only ``math`` and numpy. The
normal tail comes from ``math.erf``/``erfc``; the Student t tail at
integer df from the continued fraction of the incomplete beta, taken
directly in the far tails; the 97.5% t quantile by Newton's method on
that tail; ranks from a numpy midrank helper; and Shapiro-Wilk
from a port of Royston's AS R94, the algorithm ``scipy.stats.shapiro``
runs. Importing ``scipy.special`` costs about 0.2 s and 13 MB per
process, and ``scipy.stats`` a second and 40 MB, so only
``required_pairs`` (power analysis, never on the run path) imports scipy,
inside the function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

WILCOXON_EXACT_MAX_N = 25
MWU_EXACT_MAX_TOTAL = 12
EXACT_MAX_N = 52  # 2**n and every C(n, k) stay below 2**53: float64 counts are exact

ALTERNATIVES = ("greater", "less", "two_sided")


@dataclass(frozen=True)
class PairedSample:
    """Two measurements per label; differences are taken as a - b."""

    labels: tuple[str, ...]
    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (len(self.a) == len(self.b) == len(self.labels)):
            raise ValueError("labels, a, and b must have equal lengths")
        if len(self.a) < 2:
            raise ValueError("paired sample needs at least 2 pairs")

    @classmethod
    def from_lists(cls, labels, a, b) -> "PairedSample":
        return cls(tuple(labels), tuple(float(v) for v in a), tuple(float(v) for v in b))

    def differences(self) -> np.ndarray:
        return np.asarray(self.a) - np.asarray(self.b)


@dataclass(frozen=True)
class TestResult:
    test_name: str
    statistic: float
    p_one_sided: float
    p_two_sided: float
    effect_size: float
    ci95: tuple[float, float]
    n: int
    exact: bool
    alternative: str

    def __post_init__(self) -> None:
        for p in (self.p_one_sided, self.p_two_sided):
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"p-value out of range: {p}")
        if self.ci95[0] > self.ci95[1]:
            raise ValueError("ci95 low bound exceeds high bound")


def _check_alternative(alternative: str) -> None:
    if alternative not in ALTERNATIVES:
        raise ValueError(f"alternative must be one of {ALTERNATIVES}")


def _use_exact(method: str, n: int, auto_max_n: int) -> bool:
    """Whether n observations get the exact null under ``method``."""
    if method not in ("auto", "exact", "approx"):
        raise ValueError("method must be 'auto', 'exact', or 'approx'")
    if method == "exact" and n > EXACT_MAX_N:
        raise ValueError(f"the exact null is limited to {EXACT_MAX_N} observations")
    return method == "exact" or (method == "auto" and n <= auto_max_n)


def _pick(p_greater: float, p_less: float, alternative: str) -> tuple[float, float]:
    """One-sided p for the requested direction, plus the symmetric two-sided p."""
    p_two = min(1.0, 2.0 * min(p_greater, p_less))
    if alternative == "greater":
        return p_greater, p_two
    if alternative == "less":
        return p_less, p_two
    return min(p_greater, p_less), p_two


# ---------------------------------------------------------------------------
# Effect sizes
# ---------------------------------------------------------------------------


def _dz_or_nan(d: np.ndarray) -> float:
    """Mean of differences over their sample sd; NaN when the sd is 0."""
    sd = d.std(ddof=1)
    if sd == 0:
        return float("nan")
    return float(d.mean() / sd)


def cohens_dz(d) -> float:
    """Paired effect size: mean of differences over their sample sd."""
    d = np.asarray(d, dtype=float)
    if d.size < 2:
        raise ValueError("cohens_dz needs at least 2 differences")
    if d.std(ddof=1) == 0:
        raise ValueError("cohens_dz is undefined for zero-variance differences")
    return _dz_or_nan(d)


# ---------------------------------------------------------------------------
# Normal and Student t distributions
# ---------------------------------------------------------------------------


_SQRT1_2 = math.sqrt(0.5)
_Z975 = 1.959963984540054  # upper 2.5% point of the standard normal


def _ndtr(x: float) -> float:
    """Standard normal CDF, as Cephes ``ndtr``: erf near 0, erfc in the tails."""
    z = x * _SQRT1_2
    if abs(z) < _SQRT1_2:
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0 else tail


@lru_cache(maxsize=256)
def _inv_beta_half(df: int) -> float:
    """1 / B(df/2, 1/2), the Student t density at 0 times sqrt(df).

    Up to df = 200 it is a ratio of integer products rounded once (times
    1/pi at odd df). Above, Gamma(a + 1/2) / Gamma(a) at a = df/2 comes
    from its asymptotic series, which is within 1e-17 there; ``lgamma``
    differences would lose about 1e-13 to the size of the two terms.
    """
    if df > 200:
        a = 0.5 * df
        u = 1.0 / a
        series = 1.0 + u * (-1 / 8 + u * (1 / 128 + u * (5 / 1024 + u * (
            -21 / 32768 + u * (-399 / 262144 + u * 869 / 4194304)))))
        return math.sqrt(a / math.pi) * series
    m = df // 2
    if df % 2 == 0:  # a = m: (1/2) * prod over j < m of (j + 1/2) / j
        return math.prod(range(3, 2 * m, 2)) / (2 * math.prod(range(2, 2 * m, 2)))
    # a = m + 1/2: (1/pi) * prod over j < m of (j + 1) / (j + 1/2)
    return math.prod(range(2, 2 * m + 1, 2)) / math.prod(range(1, 2 * m, 2)) / math.pi


def _beta_cf(a: float, b: float, x: float) -> float:
    """I_x(a, b) * a * B(a, b) / (x^a (1 - x)^b), by its continued fraction.

    Evaluated by the modified Lentz method; it converges fast for
    x < (a + 1) / (a + b + 2).
    """
    c = 1.0
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 10_000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 / (1.0 + num * d)
            c = 1.0 + num / c
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge at a={a}, b={b}, x={x}")


def _t_upper_tail(df: int, t: float) -> float:
    """P(T > |t|) for Student's t with integer df.

    That is I_x(df/2, 1/2) / 2 at x = df / (df + t^2), taken from the
    continued fraction directly, so a far tail keeps its relative
    accuracy; it is never formed as 1/2 minus something. Only for
    t^2 < 3 df / (df + 2), where the tail is above 0.04, the symmetric
    form 1/2 - I_{1-x}(1/2, df/2) / 2 converges faster and is used. x and
    1 - x are ratios of integers rounded once, and x^a is corrected to
    first order for x's rounding, which the power multiplies by a.

    Accuracy is worst near |t| = 1.7-2, where both continued fractions
    converge slowest, and falls about linearly with df. Against mpmath's
    incomplete beta at 40 digits over |t| in 1.5-2.5, the relative error
    is within 4e-14 up to df 200, 1.5e-13 up to df 1,000 and 3e-13 up to
    df 2,000 (about 1e-10 at df 10^6). A run's df is its pair count
    minus one: at most 89 at the paper's 90 questions.
    """
    num, den = abs(t).as_integer_ratio()
    x_num, y_num = df * den * den, num * num
    total = x_num + y_num
    x, y = x_num / total, y_num / total
    xn, xd = x.as_integer_ratio()
    a = 0.5 * df
    x_rel_error = (x_num * xd - xn * total) / (xn * total)
    front = x**a * (1.0 + a * x_rel_error) * math.sqrt(y) * _inv_beta_half(df)
    if x * (a + 2.5) < a + 1.0:
        return 0.5 * front / a * _beta_cf(a, 0.5, x)
    return 0.5 - front * _beta_cf(0.5, a, y)


def _stdtr(df: int, t: float) -> float:
    """P(T <= t) for Student's t with integer df."""
    if t == 0:
        return 0.5
    tail = _t_upper_tail(df, t)
    return tail if t < 0 else 1.0 - tail


@lru_cache(maxsize=256)
def _t975(dof: int) -> float:
    """Upper 97.5% quantile of Student's t, the half-width factor of a 95% CI.

    Newton's method on the upper tail, from the normal quantile's first
    Cornish-Fisher correction, which lies below the root. The tail is
    convex for t > 0, so the iterates rise to the root. Once the steps are
    below 1e-6 relative they shrink quadratically until they reach the
    tail's rounding noise; the first step that does not shrink is not taken.
    """
    t = _Z975 + (_Z975**3 + _Z975) / (4 * dof)
    density_at_0 = _inv_beta_half(dof) / math.sqrt(dof)
    step = math.inf
    for _ in range(100):
        density = density_at_0 * (1.0 + t * t / dof) ** (-0.5 * (dof + 1))
        new_step = (_t_upper_tail(dof, t) - 0.025) / density
        if abs(new_step) < 1e-6 * t and abs(new_step) >= abs(step):
            return t
        step = new_step
        t += step
    raise ArithmeticError(f"t quantile did not converge at df={dof}")


def _t_ci_mean(d: np.ndarray) -> tuple[float, float]:
    """Two-sided 95% t-interval on the mean of d."""
    n = len(d)
    sd = d.std(ddof=1)
    if n < 2 or sd == 0:
        m = float(d.mean())
        return (m, m)
    half = _t975(n - 1) * sd / math.sqrt(n)
    m = float(d.mean())
    return (m - half, m + half)


# ---------------------------------------------------------------------------
# Normality gate
# ---------------------------------------------------------------------------


# Royston's AS R94 (Appl. Statist. 44(4), 1995): polynomial coefficients,
# lowest order first, for the weights (C1, C2) and for the normalising
# transform of log(1 - W) at n <= 11 (G, C3, C4) and at n >= 12 (C5, C6).
_SW_C1 = (0.0, 0.221157, -0.147981, -2.07119, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)
_SW_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_C6 = (-0.4803, -0.082676, 0.0030302)
_SW_G = (-2.273, 0.459)
_SW_SMALL = 1e-19  # R94's smallest usable range, and its p floor at n <= 11


def _poly(cc: tuple[float, ...], x: float) -> float:
    """cc[0] + cc[1]*x + ... in AS 181.2's evaluation order."""
    p = x * cc[-1]
    for c in cc[-2:0:-1]:
        p = (p + c) * x
    return cc[0] + p


def _ppnd(p: np.ndarray) -> np.ndarray:
    """Normal quantiles by AS 111 (Beasley and Springer), as R94 uses them."""
    q = p - 0.5
    r = q * q
    central = q * (((-25.44106049637 * r + 41.39119773534) * r - 18.61500062529) * r + 2.50662823884) / (
        (((3.13082909833 * r - 21.06224101826) * r + 23.08336743743) * r - 8.47351093090) * r + 1.0
    )
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    tail = (((2.32121276858 * r + 4.85014127135) * r - 2.29796479134) * r - 2.78718931138) / (
        (1.63706781897 * r + 3.54388924762) * r + 1.0
    )
    return np.where(np.abs(q) <= 0.42, central, np.where(q < 0, -tail, tail))


def _alnorm_upper(z: float) -> float:
    """Upper standard-normal tail P(Z >= z) by AS 66 (Hill), as R94 uses it."""
    upper = z >= 0
    z = abs(z)
    if z > 7.0 and (not upper or z > 18.66):
        tail = 0.0
    elif z > 1.28:
        tail = 0.398942280385 * math.exp(-0.5 * z * z) / (
            z - 3.8052e-8 + 1.00000615302 / (
                z + 3.98064794e-4 + 1.98615381364 / (
                    z - 0.151679116635 + 5.29330324926 / (
                        z + 4.8385912808 - 15.1508972451 / (
                            z + 0.742380924027 + 30.789933034 / (z + 3.99019417011))))))
    else:
        y = 0.5 * z * z
        tail = 0.5 - z * (0.398942280444 - 0.399903438504 * y / (
            y + 5.75885480458 - 29.8213557807 / (y + 2.62433121679 + 48.6959930692 / (y + 5.92885724438))))
    return tail if upper else 1.0 - tail


@lru_cache(maxsize=64)
def _sw_weights(n: int) -> np.ndarray:
    """R94's weights for n sorted observations, less their mean.

    Antisymmetric: -a for the lower half, +a mirrored for the upper half,
    0 for the middle of an odd sample. a comes from AS 111 quantiles of
    (i - 3/8) / (n + 1/4), with the two (one for n <= 5) outermost
    weights replaced by R94's polynomials in 1/sqrt(n) and the rest
    rescaled so the weights keep unit norm.
    """
    half = n // 2
    if n == 3:
        a = np.array([math.sqrt(0.5)])
    else:
        m = _ppnd((np.arange(1, half + 1) - 0.375) / (n + 0.25))
        summ2 = 2.0 * float(m @ m)
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_SW_C1, rsn) - m[0] / ssumm2
        if n > 5:
            a2 = -m[1] / ssumm2 + _poly(_SW_C2, rsn)
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2) / (1.0 - 2.0 * a1**2 - 2.0 * a2**2))
            a = -m / fac
            a[1] = a2
        else:
            fac = math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1**2))
            a = -m / fac
        a[0] = a1
    weights = np.zeros(n)
    weights[:half] = -a
    weights[n - half:] = a[::-1]
    weights -= weights.sum() / n
    weights.setflags(write=False)  # shared by every caller of the memo
    return weights


def _sw_pvalue(w1: float, n: int) -> float:
    """R94's p-value for 1 - W = w1 from n observations."""
    if w1 <= 0:  # W rounds to 1 or above: no evidence against normality
        return 1.0
    if n == 3:  # exact: R94's 6/pi * (asin(sqrt(W)) - pi/3), free of its cancellation
        return max(0.0, 1.0 - 6.0 / math.pi * math.acos(math.sqrt(1.0 - w1)))
    y = math.log(w1)
    if n <= 11:
        gamma = _poly(_SW_G, n)
        if y >= gamma:  # R94's guard for the log below
            return _SW_SMALL
        y = -math.log(gamma - y)
        m = _poly(_SW_C3, n)
        s = math.exp(_poly(_SW_C4, n))
    else:
        m = _poly(_SW_C5, math.log(n))
        s = math.exp(_poly(_SW_C6, math.log(n)))
    return _alnorm_upper((y - m) / s)


def shapiro_wilk(x) -> tuple[float, float]:
    """Shapiro-Wilk W and p-value by Royston's AS R94.

    A port of the algorithm ``scipy.stats.shapiro`` runs. The sample is
    sorted and shifted by its middle order statistic, then scaled by its
    range. W is the squared correlation of the sample with R94's weights,
    formed as 1 - W so its digits survive W near 1. p is R94's normal
    approximation of the transformed 1 - W through AS 66's upper tail,
    and exact at n = 3. Against scipy 1.17 it agrees to about 6e-14 in W
    and 3e-10 relative in p. A range below 1e-19 counts as zero variance.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if not 3 <= n <= 5000:
        raise ValueError("shapiro_wilk requires 3 <= n <= 5000")
    y = np.sort(x)
    y -= y[n // 2]
    spread = y[-1] - y[0]
    if spread < _SW_SMALL:
        raise ValueError("shapiro_wilk is undefined for a zero-variance sample")
    weights = _sw_weights(n)
    xs = y / spread
    xs -= xs.sum() / n
    ssa = float(weights @ weights)
    ssx = float(xs @ xs)
    sax = float(weights @ xs)
    ssassx = math.sqrt(ssa * ssx)
    w1 = (ssassx - sax) * (ssassx + sax) / (ssa * ssx)
    return 1.0 - w1, _sw_pvalue(w1, n)


# ---------------------------------------------------------------------------
# Rank-test nulls
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _rank_sum_null(scaled_ranks: tuple[int, ...]) -> np.ndarray:
    """Subset counts of a rank multiset by subset size and sum.

    Entry [k, s] is the number of k-element subsets of ``scaled_ranks``
    whose sum is s. Built by the subset-sum recurrence, one rank at a
    time; midranks are doubled beforehand so sums stay integral. The
    memo holds 16 tables, about 2.2 MB at Wilcoxon's largest auto size.
    """
    counts = np.zeros((len(scaled_ranks) + 1, sum(scaled_ranks) + 1))
    counts[0, 0] = 1.0
    for r in scaled_ranks:
        # numpy buffers the overlapping operand: rows k-1 are read before any row k is written
        counts[1:, r:] += counts[:-1, : counts.shape[1] - r]
    counts.setflags(write=False)  # shared by every caller of the memo
    return counts


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties at their midrank, as ``scipy.stats.rankdata``."""
    order = np.argsort(x, kind="stable")
    sorted_x = x[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_x[1:] != sorted_x[:-1])))
    ends = np.append(starts[1:], x.size)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _doubled(ranks: np.ndarray) -> tuple[int, ...]:
    """Midranks times two, sorted: the memo key of their null table."""
    return tuple(sorted(int(round(2 * r)) for r in ranks))


def _exact_tails(null: np.ndarray, observed: int) -> tuple[float, float]:
    """P(S >= observed) and P(S <= observed) from null counts indexed by sum."""
    total = null.sum()
    return float(null[observed:].sum() / total), float(null[: observed + 1].sum() / total)


def _normal_tails(stat: float, mu: float, var: float) -> tuple[float, float]:
    """Continuity-corrected normal (P >= stat, P <= stat); both 1 when var is 0."""
    if var <= 0:  # every observation tied: the statistic is degenerate
        return 1.0, 1.0
    sigma = math.sqrt(var)
    return _ndtr(-(stat - mu - 0.5) / sigma), _ndtr((stat - mu + 0.5) / sigma)


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank
# ---------------------------------------------------------------------------


def wilcoxon_signed_rank(
    s: PairedSample, alternative: str = "greater", method: str = "auto"
) -> TestResult:
    """Signed-rank test on paired differences.

    Zero differences are dropped (Wilcoxon's procedure); ties in |d| get
    midranks. The null is exact up to n=25 nonzero differences, beyond
    that a normal approximation with continuity and tie corrections is
    used; ``method`` ("auto", "exact", "approx") overrides the size rule,
    and "exact" refuses more than 52. The effect size is Cohen's dz of the
    raw differences (NaN when they have zero spread).
    """
    _check_alternative(alternative)
    d_all = s.differences()
    d = d_all[d_all != 0]
    n = d.size
    exact = _use_exact(method, n, WILCOXON_EXACT_MAX_N)
    if n == 0:
        raise ValueError("wilcoxon requires at least one nonzero difference")

    ranks = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if exact:
        null = _rank_sum_null(_doubled(ranks)).sum(axis=0)
        p_greater, p_less = _exact_tails(null, int(round(2 * w_plus)))
    else:
        tie_sizes = np.unique(ranks, return_counts=True)[1]
        var = n * (n + 1) * (2 * n + 1) / 24.0 - float(((tie_sizes**3 - tie_sizes).sum()) / 48.0)
        p_greater, p_less = _normal_tails(w_plus, n * (n + 1) / 4.0, var)

    p_one, p_two = _pick(p_greater, p_less, alternative)
    return TestResult(
        test_name="wilcoxon_signed_rank",
        statistic=w_plus,
        p_one_sided=p_one,
        p_two_sided=p_two,
        effect_size=_dz_or_nan(d_all),
        ci95=_t_ci_mean(d_all),
        n=int(d_all.size),
        exact=exact,
        alternative=alternative,
    )


# ---------------------------------------------------------------------------
# Paired t
# ---------------------------------------------------------------------------


def paired_t(s: PairedSample, alternative: str = "greater") -> TestResult:
    _check_alternative(alternative)
    d = s.differences()
    n = d.size
    sd = d.std(ddof=1)
    if sd == 0:
        raise ValueError("paired t-test is undefined for zero-variance differences")
    t_stat = float(d.mean() / (sd / math.sqrt(n)))
    df = n - 1
    p_greater = _stdtr(df, -t_stat)
    p_less = _stdtr(df, t_stat)
    p_one, p_two = _pick(p_greater, p_less, alternative)
    return TestResult(
        test_name="paired_t",
        statistic=t_stat,
        p_one_sided=p_one,
        p_two_sided=p_two,
        effect_size=_dz_or_nan(d),
        ci95=_t_ci_mean(d),
        n=int(n),
        exact=False,
        alternative=alternative,
    )


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------


def mann_whitney_u(x, y, alternative: str = "greater", method: str = "auto") -> TestResult:
    """Rank-sum test for two independent samples.

    U counts how often x-values beat y-values (ties at half weight). The
    null is exact over all label assignments when the combined size is at
    most 12, otherwise approximated normally with tie correction;
    ``method`` ("auto", "exact", "approx") overrides the size rule, and
    "exact" refuses more than 52 combined observations.
    ``greater`` asks whether x tends to exceed y. The effect size is the
    independent-samples Cohen's d (NaN when it is undefined).
    """
    _check_alternative(alternative)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n1, n2 = x.size, y.size
    total_n = n1 + n2
    exact = _use_exact(method, total_n, MWU_EXACT_MAX_TOTAL)
    if n1 < 1 or n2 < 1:
        raise ValueError("both samples must be non-empty")

    combined = np.concatenate([x, y])
    ranks = _average_ranks(combined)
    u_obs = float(ranks[:n1].sum() - n1 * (n1 + 1) / 2.0)

    if exact:
        # U is x's rank sum less a constant: its null is the n1-subset row.
        null = _rank_sum_null(_doubled(ranks))[n1]
        p_greater, p_less = _exact_tails(null, int(round(2 * ranks[:n1].sum())))
    else:
        tie_sizes = np.unique(combined, return_counts=True)[1]
        tie_term = float((tie_sizes**3 - tie_sizes).sum()) / (total_n * (total_n - 1))
        var = n1 * n2 / 12.0 * ((total_n + 1) - tie_term)
        p_greater, p_less = _normal_tails(u_obs, n1 * n2 / 2.0, var)

    p_one, p_two = _pick(p_greater, p_less, alternative)
    # The CI and Cohen's d share the pooled variance; both need 2+ per group.
    ci = (float("-inf"), float("inf"))
    effect = float("nan")
    if n1 >= 2 and n2 >= 2:
        dof = n1 + n2 - 2
        pooled_var = ((n1 - 1) * x.var(ddof=1) + (n2 - 1) * y.var(ddof=1)) / dof
        md = float(x.mean() - y.mean())
        ci = (md, md)
        if pooled_var > 0:
            half = _t975(dof) * math.sqrt(pooled_var * (1 / n1 + 1 / n2))
            ci = (md - half, md + half)
            effect = md / math.sqrt(pooled_var)
    return TestResult(
        test_name="mann_whitney_u",
        statistic=u_obs,
        p_one_sided=p_one,
        p_two_sided=p_two,
        effect_size=effect,
        ci95=ci,
        n=int(total_n),
        exact=exact,
        alternative=alternative,
    )


# ---------------------------------------------------------------------------
# Multiple testing
# ---------------------------------------------------------------------------


def benjamini_hochberg(pvals, q: float = 0.05) -> list[bool]:
    """Step-up FDR control; rejection flags in the input order."""
    pvals = [float(p) for p in pvals]
    if not pvals:
        return []
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    for p in pvals:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-value out of range: {p}")
    m = len(pvals)
    order = sorted(range(m), key=lambda i: pvals[i])
    threshold = -1.0
    for rank, idx in enumerate(order, start=1):
        if pvals[idx] <= rank * q / m:
            threshold = pvals[idx]
    return [p <= threshold for p in pvals]


def bh_adjusted_pvalues(pvals) -> list[float]:
    """BH-adjusted p-values; rejecting adjusted <= q matches the step-up rule."""
    pvals = [float(p) for p in pvals]
    m = len(pvals)
    if m == 0:
        return []
    order = sorted(range(m), key=lambda i: pvals[i])
    adjusted = [0.0] * m
    running = 1.0
    for rank in range(m, 0, -1):
        idx = order[rank - 1]
        running = min(running, pvals[idx] * m / rank)
        adjusted[idx] = running
    return adjusted


# ---------------------------------------------------------------------------
# Power analysis and intervals
# ---------------------------------------------------------------------------


def required_pairs(
    dz: float,
    alpha: float = 0.05,
    power: float = 0.8,
    tails: str = "one",
    method: str = "noncentral_t",
) -> int:
    """Smallest paired-sample size reaching the target power.

    ``noncentral_t`` iterates n upward through the exact paired-t power
    function with noncentrality dz*sqrt(n). ``normal`` is the closed-form
    ceil((z_alpha + z_power)^2 / dz^2) approximation, documented as a
    fallback; it runs a little low for small n. Not on the run path, so
    ``scipy.stats`` (for the noncentral t) is imported here rather than at
    module level.
    """
    from scipy import stats as sps

    if dz <= 0:
        raise ValueError("dz must be positive")
    if not (0 < alpha < 1 and 0 < power < 1):
        raise ValueError("alpha and power must lie in (0, 1)")
    if tails not in ("one", "two"):
        raise ValueError("tails must be 'one' or 'two'")

    a = alpha if tails == "one" else alpha / 2

    if method == "normal":
        z_a = sps.norm.ppf(1 - a)
        z_b = sps.norm.ppf(power)
        return max(2, math.ceil((z_a + z_b) ** 2 / dz**2))

    if method != "noncentral_t":
        raise ValueError("method must be 'noncentral_t' or 'normal'")
    n = 2
    while n < 1_000_000:
        df = n - 1
        tcrit = sps.t.ppf(1 - a, df)
        ncp = dz * math.sqrt(n)
        attained = float(sps.nct.sf(tcrit, df, ncp))
        if tails == "two":
            attained += float(sps.nct.cdf(-tcrit, df, ncp))
        if attained >= power:
            return n
        n += 1
    raise RuntimeError("power target not reachable")


@lru_cache(maxsize=2)
def _resample_indices(size: int, n_boot: int, seed: int) -> np.ndarray:
    """The (n_boot, size) indices ``default_rng(seed)`` draws, read-only.

    Two entries: a report's groups mostly share one size, and at 90
    questions and 10,000 draws one entry is 7.2 MB.
    """
    idx = np.random.default_rng(seed).integers(0, size, size=(n_boot, size))
    idx.setflags(write=False)
    return idx


def bootstrap_ci(
    x,
    statistic: str = "mean",
    n_boot: int = 10000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile-bootstrap 95% interval; deterministic for a given seed.

    The resample indices depend only on the sample size, ``n_boot`` and
    ``seed``, so calls that share all three, such as every (model, mode,
    metric) group of a report, share one draw (``_resample_indices``).
    """
    x = np.asarray(x, dtype=float)
    if x.size < 2:
        raise ValueError("bootstrap_ci needs at least 2 observations")
    fns = {"mean": np.mean, "median": np.median}
    if statistic not in fns:
        raise ValueError("statistic must be 'mean' or 'median'")
    values = fns[statistic](x[_resample_indices(x.size, n_boot, seed)], axis=1)
    lo, hi = np.percentile(values, [2.5, 97.5])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# Test selection
# ---------------------------------------------------------------------------


# Level of the Shapiro-Wilk gate in select_paired_test; analysis.json records it.
NORMALITY_ALPHA = 0.05


def select_paired_test(s: PairedSample, alternative: str = "greater") -> TestResult:
    """Normality-gated paired comparison.

    Shapiro-Wilk on the differences decides the test: p < ``NORMALITY_ALPHA``
    (or an undecidable gate: fewer than 3 pairs, zero-variance differences)
    means Wilcoxon signed-rank, anything else the paired t-test. All-zero
    differences fit neither: that is the exact ``degenerate`` test, p = 1.
    """
    _check_alternative(alternative)
    d = s.differences()
    if not d.any():
        return TestResult("degenerate", 0.0, 1.0, 1.0, 0.0, (0.0, 0.0), int(d.size), True, alternative)
    try:
        _, p_normal = shapiro_wilk(d)
    except ValueError:
        return wilcoxon_signed_rank(s, alternative)
    if p_normal < NORMALITY_ALPHA:
        return wilcoxon_signed_rank(s, alternative)
    return paired_t(s, alternative)
