import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from ehcr import fading
from ehcr.fading import FadingParams
from ehcr.numerics import integrate_adaptive

# mpmath references (40 digits) for K=7, mu=1, m=20
PDF_AT_1 = 0.7434319984178851
CDF_AT_1 = 0.5556171037599381  # quadrature of the pdf on [0, 1]
LOG_MOMENT_MU1 = -0.15831501478279391
LOG_MOMENT_MU16 = -0.026742120986334267

DEFAULT_LINK = FadingParams(rician_k=7.0, mu=1, m=20)

# laws beyond the paper's two: few and many components, a unit exponential
OTHER_LAWS = [(0.5, 2, 11), (15.0, 1, 1), (3.3, 4, 30), (1e-3, 1, 30)]


@st.composite
def laws(draw):
    m = draw(st.integers(1, 30))
    return FadingParams(draw(st.floats(1e-3, 1e3)), draw(st.integers(1, m)), m)


class TestConstruction:
    @pytest.mark.parametrize("k", [0.5, 7.0, 15.0])
    @pytest.mark.parametrize("mu", [1, 2, 16])
    @pytest.mark.parametrize("m", [16, 18, 20])
    def test_mixture_identities(self, k, mu, m):
        p = FadingParams(k, mu, m)
        assert p.n_mix == m - mu
        assert math.fsum(p.weights) == pytest.approx(1.0, abs=1e-12)
        mean = math.fsum(w * s * p.omega for w, s in zip(p.weights, p.shapes))
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert all(s >= 1 for s in p.shapes)
        assert all(a > b for a, b in zip(p.shapes, p.shapes[1:]))

    def test_rejects_mu_above_m(self):
        with pytest.raises(ValueError):
            FadingParams(7.0, 16, 5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            FadingParams(-1.0, 1, 2)
        with pytest.raises(ValueError):
            FadingParams(7.0, 0, 2)
        with pytest.raises(ValueError):
            FadingParams(7.0, 1.5, 2)


class TestPdf:
    def test_zero_at_origin_when_multiple_clusters(self):
        assert fading.pdf(FadingParams(7.0, 2, 20), 0.0) == 0.0

    def test_unit_exponential_special_case(self):
        p = FadingParams(3.3, 1, 1)
        for x in [0.0, 0.2, 1.0, 4.5]:
            assert fading.pdf(p, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_reference_value(self):
        assert fading.pdf(DEFAULT_LINK, 1.0) == pytest.approx(PDF_AT_1, rel=1e-12)

    @pytest.mark.parametrize("k", [0.5, 7.0, 15.0])
    @pytest.mark.parametrize("mu,m", [(1, 1), (1, 20), (2, 11), (16, 20)])
    def test_normalization(self, k, mu, m):
        p = FadingParams(k, mu, m)
        mass = integrate_adaptive(lambda x: fading.pdf(p, x), 0.0, 50.0)
        assert mass == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            fading.pdf(DEFAULT_LINK, -0.1)


# the smallest positive normal float; below it a float keeps fewer digits
TINY = np.finfo(float).tiny


def reference_pdf(p, x):
    """The mixture density summed component by component with math.lgamma."""
    if x == 0.0:
        return p.weights[-1] / p.omega if p.shapes[-1] == 1 else 0.0
    return math.fsum(
        cj * math.exp((mj - 1) * math.log(x) - x / p.omega - mj * math.log(p.omega) - math.lgamma(mj))
        for cj, mj in zip(p.weights, p.shapes)
    )


def assert_matches_reference_pdf(p, xs, values):
    for x, value in zip(xs, values):
        ref = reference_pdf(p, x)
        if ref < TINY:
            # a subnormal reference has lost its relative precision
            assert value < TINY, (x, value, ref)
        else:
            assert value == pytest.approx(ref, rel=1e-12), x


class TestPdfAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        p=laws(),
        xs=st.lists(
            st.one_of(st.floats(0.0, 60.0), st.floats(0.0, 1e3), st.sampled_from([0.0, 5e-324, 1e-300])),
            min_size=1, max_size=40,
        ),
    )
    def test_per_component_lgamma_reference(self, p, xs):
        assert_matches_reference_pdf(p, xs, [fading.pdf(p, x) for x in xs])
        assert_matches_reference_pdf(p, xs, fading.pdf(p, np.array(xs)))

    def test_array_across_chunks(self):
        # a chunk edge, and a lone point after it that needs its own handling
        xs = np.linspace(0.0, 30.0, 2 * fading._SUM_CHUNK + 1)
        for p in (DEFAULT_LINK, FadingParams(7.0, 16, 20), FadingParams(3.0, 2, 5)):
            values = fading.pdf(p, xs)
            assert_matches_reference_pdf(p, xs, values)
            assert np.array_equal(fading.pdf(p, xs.reshape(-1, 1)).ravel(), values)


def frozen_survival(p, x):
    """``survival``'s one-pass formula before the chunked kernel, point for point.

    Kept as it was, except that it flattens a 2-D argument first (the
    one-pass form broadcast a 2-D argument against its rows and failed).
    """
    arr = np.asarray(x, dtype=float)
    flat = np.atleast_1d(arr).ravel()
    t = flat / p.omega
    r = np.arange(p.m, dtype=float)
    log_fact = special.gammaln(r + 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = r[:, None] * np.log(t[None, :]) - log_fact[:, None] - t[None, :]
    terms = np.where(
        t[None, :] == 0.0, (r[:, None] == 0.0).astype(float), np.exp(log_terms)
    )
    sf = (p._tail_weights[:, None] * terms).sum(axis=0)
    sf[t == 0.0] = 1.0
    sf[t == math.inf] = 0.0
    sf = np.clip(sf, 0.0, 1.0).reshape(arr.shape)
    return sf if np.ndim(x) else float(sf)


def frozen_pdf(p, x):
    """``pdf``'s Poisson sum in one pass over every point, in ``frozen_survival``'s form."""
    arr = np.asarray(x, dtype=float)
    t = np.atleast_1d(arr).ravel() / p.omega
    r = np.arange(p.mu - 1, p.m, dtype=float)
    log_fact = special.gammaln(r + 1.0)
    weights = np.asarray(p.weights[::-1]) / p.omega
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = r[:, None] * np.log(t[None, :]) - log_fact[:, None] - t[None, :]
        density = (np.exp(log_terms) * weights[:, None]).sum(axis=0)
    density[t == 0.0] = p.weights[-1] / p.omega if p.shapes[-1] == 1 else 0.0
    density[t == math.inf] = 0.0
    density = density.reshape(arr.shape)
    return density if np.ndim(x) else float(density)


BIT_IDENTITY_LAWS = [(7.0, 1, 20), (7.0, 16, 20), (1.0, 1, 1), (3.0, 2, 5), (7.0, 20, 20), (0.5, 1, 40)]
EXTREME_POINTS = [0.0, 5e-324, 1e-300, 700.0, 800.0, 1e308, math.inf]


class TestSurvivalBitIdentity:
    """The chunked kernel gives the one-pass formula's survival and cdf bit for bit."""

    @pytest.fixture(params=BIT_IDENTITY_LAWS, ids=lambda law: "k{}-mu{}-m{}".format(*law))
    def p(self, request):
        return FadingParams(*request.param)

    @staticmethod
    def assert_identical(p, x):
        with np.errstate(over="ignore"):  # the frozen copy's 1e308 / omega overflows to inf
            expected = frozen_survival(p, x)
        assert np.array_equal(fading.survival(p, x), expected)
        assert np.array_equal(fading.cdf(p, x), 1.0 - expected)

    def test_scalars(self, p):
        for x in [*EXTREME_POINTS, 0.1, 1.0, 3.7, 25.0]:
            self.assert_identical(p, x)
            self.assert_identical(p, np.float64(x))

    @pytest.mark.parametrize("size", [1, fading._SUM_CHUNK - 1, fading._SUM_CHUNK,
                                      fading._SUM_CHUNK + 1, 3 * fading._SUM_CHUNK + 5])
    def test_arrays_around_the_chunk_size(self, p, size):
        xs = np.random.default_rng(size).exponential(2.0, size)
        if size >= len(EXTREME_POINTS):
            xs[:: size // len(EXTREME_POINTS)][: len(EXTREME_POINTS)] = EXTREME_POINTS
        self.assert_identical(p, xs)

    def test_zero_and_two_dimensional(self, p):
        xs = np.array([*EXTREME_POINTS, 0.1, 1.0, 3.7, 25.0, 0.6])
        self.assert_identical(p, np.array(1.0))
        self.assert_identical(p, xs.reshape(3, 4))
        self.assert_identical(p, xs.reshape(12, 1))
        self.assert_identical(p, xs[-1:].reshape(1, 1))


class TestOnePointPath:
    """A scalar ``x > 0`` gives a Python float equal to the array path's and to
    the frozen copies' bit for bit."""

    @staticmethod
    def assert_one_point(p, x):
        with np.errstate(over="ignore"):  # the frozen copies' 1e308 / omega overflows to inf
            sf = frozen_survival(p, x)
            expected = [frozen_pdf(p, x), sf, 1.0 - sf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, ref in zip((fading.pdf, fading.survival, fading.cdf), expected):
                value = f(p, x)
                assert type(value) is float, (f.__name__, x)
                assert value.hex() == float(ref).hex() == f(p, np.array([x]))[0].hex(), (f.__name__, x)

    @pytest.mark.parametrize("law", BIT_IDENTITY_LAWS, ids=lambda law: "k{}-mu{}-m{}".format(*law))
    def test_fixed_points(self, law):
        p = FadingParams(*law)
        for x in [*EXTREME_POINTS, np.finfo(float).max, 0.1, 1.0, 3.7, 25.0]:
            self.assert_one_point(p, x)
            self.assert_one_point(p, np.float64(x))

    @pytest.mark.parametrize("law", BIT_IDENTITY_LAWS, ids=lambda law: "k{}-mu{}-m{}".format(*law))
    def test_many_points(self, law):
        # math.log differs from np.log in the last bit at about 0.2 % of these
        # points, and a scalar path that took it would show at some of them
        p = FadingParams(*law)
        for x in np.random.default_rng(25).exponential(2.0, 1000).tolist():
            self.assert_one_point(p, x)

    @settings(max_examples=300, deadline=None)
    @given(
        law=st.sampled_from(BIT_IDENTITY_LAWS),
        x=st.floats(0.0, np.finfo(float).max, exclude_min=True),
    )
    def test_any_positive_float(self, law, x):
        self.assert_one_point(FadingParams(*law), x)


class TestCdf:
    def test_zero_at_origin(self):
        for p in (DEFAULT_LINK, FadingParams(0.5, 2, 7)):
            assert fading.cdf(p, 0.0) == 0.0

    def test_reference_value(self):
        assert fading.cdf(DEFAULT_LINK, 1.0) == pytest.approx(CDF_AT_1, rel=1e-10)

    def test_tail_mass(self):
        assert fading.cdf(DEFAULT_LINK, 50.0) >= 1.0 - 1e-9

    def test_nondecreasing(self):
        xs = np.linspace(0.0, 10.0, 300)
        vals = fading.cdf(DEFAULT_LINK, xs)
        assert np.all(np.diff(vals) >= 0.0)

    def test_derivative_matches_pdf(self):
        # differentiate the survival function: same derivative (up to sign)
        # without the cancellation of cdf values near 1 in the far tail
        h = 1e-6
        for x in np.linspace(0.3, 5.0, 20):
            deriv = (fading.survival(DEFAULT_LINK, x - h) - fading.survival(DEFAULT_LINK, x + h)) / (2 * h)
            assert deriv == pytest.approx(fading.pdf(DEFAULT_LINK, x), rel=1e-6)

    def test_stochastic_ordering_in_mu(self):
        low = fading.cdf(FadingParams(7.0, 1, 20), 0.5)
        high = fading.cdf(FadingParams(7.0, 16, 20), 0.5)
        assert high < low

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            fading.cdf(DEFAULT_LINK, -1.0)


class TestSurvivalEnd:
    @given(laws())
    @settings(max_examples=60, deadline=None)
    def test_survival_is_zero_from_the_end_on(self, p):
        end = fading.survival_end(p)
        beyond = end * (1.0 + np.logspace(-16, 3, 40))
        assert fading.survival(p, end) == 0.0
        assert all(fading.survival(p, float(x)) == 0.0 for x in beyond)
        assert np.all(fading.survival(p, beyond) == 0.0)
        # the r = 0 Poisson term e^-t alone is positive below t = 745
        assert fading.survival(p, 0.5 * end) > 0.0

    def test_unit_exponential(self):
        # survival e^-t, which underflows to 0.0 past t = 745.13
        assert fading.survival_end(FadingParams(15.0, 1, 1)) == 746.0 * FadingParams(15.0, 1, 1).omega


class TestNonFiniteArgument:
    @pytest.mark.parametrize("f", [fading.pdf, fading.survival, fading.cdf])
    def test_nan_is_refused(self, f):
        with pytest.raises(ValueError):
            f(DEFAULT_LINK, math.nan)
        with pytest.raises(ValueError):
            f(DEFAULT_LINK, np.array([0.5, math.nan]))

    @pytest.mark.parametrize("f", [fading.pdf, fading.survival, fading.cdf])
    @pytest.mark.parametrize("x", [-5e-324, np.float64(-1.0), np.array(-1.0), np.array([0.5, -1.0]),
                                   np.array([[0.5], [-0.5]])], ids=["scalar", "float64", "0-d", "1-d", "2-d"])
    def test_negative_is_refused(self, f, x):
        with pytest.raises(ValueError):
            f(DEFAULT_LINK, x)

    @pytest.mark.parametrize("f, limit", [(fading.pdf, 0.0), (fading.survival, 0.0), (fading.cdf, 1.0)])
    @pytest.mark.parametrize("p", [DEFAULT_LINK, FadingParams(7.0, 16, 20), FadingParams(3.3, 1, 1)],
                             ids=["k7-mu1-m20", "k7-mu16-m20", "k3.3-mu1-m1"])
    def test_exact_limit_at_infinity(self, f, limit, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f(p, math.inf) == limit
            values = f(p, np.array([0.0, 1.0, math.inf]))
        assert values[2] == limit
        assert values[:2] == pytest.approx([f(p, 0.0), f(p, 1.0)], rel=1e-12)

    @pytest.mark.parametrize("f, limit", [(fading.pdf, 0.0), (fading.survival, 0.0), (fading.cdf, 1.0)])
    @pytest.mark.parametrize("p", [DEFAULT_LINK, FadingParams(7.0, 16, 20), FadingParams(3.3, 1, 1)],
                             ids=["k7-mu1-m20", "k7-mu16-m20", "k3.3-mu1-m1"])
    @pytest.mark.parametrize("x", [1e308, np.finfo(float).max], ids=["1e308", "max"])
    def test_huge_finite_argument_without_warning(self, f, limit, p, x):
        # x / omega overflows to inf for omega < 1; the limit there is exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert f(p, x) == limit
            values = f(p, np.array([x, 1.0, x]))
        assert values[0] == values[2] == limit
        assert values[1] == pytest.approx(f(p, 1.0), rel=1e-12)


class TestComponentIndex:
    @settings(max_examples=60, deadline=None)
    @given(p=laws(), drawn=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50))
    def test_equals_searchsorted_on_every_float(self, p, drawn):
        cdf = p._weight_cdf
        edges = np.arange(fading._TABLE_SIZE + 1) / fading._TABLE_SIZE
        probes = np.concatenate([
            edges, np.nextafter(edges, 0.0),
            cdf, np.nextafter(cdf, -1.0), np.nextafter(cdf, 2.0),
            [-0.0, 5e-324], drawn,
        ])
        in_range = (probes >= 0.0) & (probes < 1.0)
        inside = probes[in_range]
        outside = np.concatenate([
            probes[~in_range],
            [1.0, 1.5, 1e300, -5e-324, -0.5, -1e300, math.inf, -math.inf, math.nan],
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            j = fading.component_index(p, inside)
            square = inside[: len(inside) // 2 * 2].reshape(2, -1)
            j_square = fading.component_index(p, square)
        assert np.array_equal(j, cdf.searchsorted(inside, side="right"))
        assert np.array_equal(j_square, cdf.searchsorted(square, side="right"))
        with np.errstate(invalid="ignore"):
            j = fading.component_index(p, outside)
        assert np.array_equal(j, cdf.searchsorted(outside, side="right"))
        for u in [*outside, *cdf, *np.nextafter(cdf, -1.0), *np.nextafter(cdf, 2.0), -0.0, 5e-324]:
            assert fading.component_index(p, u) == cdf.searchsorted(u, side="right")
        # each CDF value below 1 spoils at most one bucket, besides the two ends
        assert np.count_nonzero(p._component_table < 0) <= p.n_mix + 2


class TestLogMoment:
    def test_unit_exponential(self):
        assert fading.log_moment(FadingParams(9.9, 1, 1)) == pytest.approx(
            -0.5772156649015329, abs=1e-13
        )

    def test_reference_values(self):
        assert fading.log_moment(DEFAULT_LINK) == pytest.approx(LOG_MOMENT_MU1, rel=1e-12)
        assert fading.log_moment(FadingParams(7.0, 16, 20)) == pytest.approx(
            LOG_MOMENT_MU16, rel=1e-12
        )

    def test_less_fluctuation_brings_log_moment_toward_zero(self):
        assert fading.log_moment(FadingParams(7.0, 16, 20)) > fading.log_moment(DEFAULT_LINK)

    def test_always_negative(self):
        for k in (0.5, 7.0):
            for mu, m in ((1, 1), (2, 5), (16, 20)):
                assert fading.log_moment(FadingParams(k, mu, m)) < 0.0

    def test_monte_carlo_agreement(self):
        gen = np.random.default_rng(42)
        draws = fading.sample(DEFAULT_LINK, gen, size=1_000_000)
        logs = np.log(draws)
        se = logs.std() / math.sqrt(logs.size)
        assert abs(logs.mean() - LOG_MOMENT_MU1) < 3.5 * se


class TestSample:
    def test_deterministic_for_fixed_seed(self):
        a = fading.sample(DEFAULT_LINK, np.random.default_rng(11), size=1000)
        b = fading.sample(DEFAULT_LINK, np.random.default_rng(11), size=1000)
        assert np.array_equal(a, b)

    def test_unit_mean(self):
        gen = np.random.default_rng(5)
        draws = fading.sample(DEFAULT_LINK, gen, size=1_000_000)
        se = draws.std() / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) < 3.0 * se

    def test_kolmogorov_smirnov(self):
        gen = np.random.default_rng(8)
        draws = fading.sample(DEFAULT_LINK, gen, size=100_000)
        result = stats.kstest(draws, lambda x: fading.cdf(DEFAULT_LINK, x))
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("p", [
        pytest.param(FadingParams(7.0, 1, 20), id="1"),
        pytest.param(FadingParams(7.0, 16, 20), id="16"),
        *(pytest.param(FadingParams(*law), id="k{}-mu{}-m{}".format(*law)) for law in OTHER_LAWS),
    ])
    @pytest.mark.parametrize("size", [None, 1, 5_000, (40, 30)])
    def test_same_stream_as_choice_then_gamma(self, p, size):
        # the component rule is Generator.choice's: a stream read through
        # component_index gives what choice(p=weights) + gamma gave
        gen = np.random.default_rng(19)
        j = gen.choice(p.n_mix + 1, p=np.asarray(p.weights), size=size)
        expected = gen.gamma(shape=np.asarray(p.shapes)[j], scale=p.omega, size=size)
        drawn = fading.sample(p, np.random.default_rng(19), size=size)
        assert np.array_equal(drawn, expected)

    def test_scalar_draw(self):
        value = fading.sample(DEFAULT_LINK, np.random.default_rng(0))
        assert isinstance(value, float) and value > 0.0


class TestSumParams:
    def test_identity_for_single_term(self):
        p = FadingParams(7.0, 1, 20)
        assert fading.sum_params(p, 1) == p

    def test_two_fold_combination(self):
        q = fading.sum_params(FadingParams(7.0, 1, 20), 2)
        assert q.mu == 2
        assert q.m == 20
        assert q.n_mix == 18

    def test_returned_law_stays_unit_mean(self):
        q = fading.sum_params(FadingParams(7.0, 1, 20), 5)
        mean = math.fsum(w * s * q.omega for w, s in zip(q.weights, q.shapes))
        assert mean == pytest.approx(1.0, abs=1e-12)

    def test_domain_error(self):
        p = FadingParams(7.0, 1, 20)
        with pytest.raises(ValueError):
            fading.sum_params(p, 21)
        with pytest.raises(ValueError):
            fading.sum_params(p, 0)
