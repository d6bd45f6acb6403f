import pytest

from mdpvol import (DomainError, RealizedVarLdp, curvature,
                    heston_large_time_params, largetime_call_exponent,
                    largetime_put_quote, make_heston, make_power_family,
                    make_stein_stein, rv_lambda_star, rv_option_quotes,
                    share_large_time_params, smalltime_call_exponent,
                    tail_probability_exponent)

REF = dict(kappa=2.0, theta=0.1, xi=0.5, rho=-0.5, x0=0.0, y0=0.1)


@pytest.fixture(scope="module")
def heston():
    return make_heston(**REF)


class TestSmalltimeCallExponent:
    def test_reference_value(self, heston):
        assert smalltime_call_exponent(heston, 0.2) == pytest.approx(-0.2, rel=1e-12)

    def test_continuity_at_zero(self, heston):
        assert smalltime_call_exponent(heston, 1e-9) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive_strike(self, heston):
        with pytest.raises(DomainError):
            smalltime_call_exponent(heston, 0.0)

    def test_moment_flag_guard(self):
        model = make_heston(**REF, moment_flag=False)
        with pytest.raises(DomainError, match="moment"):
            smalltime_call_exponent(model, 0.2)


class TestLargetimePut:
    def test_nonnegative_strike_has_no_correction(self, heston):
        lt = heston_large_time_params(heston)
        assert largetime_put_quote(lt, 0.3, 0.25, 100.0) == (0.3, 0.0)
        assert largetime_put_quote(lt, 0.0, 0.25, 100.0) == (0.0, 0.0)

    def test_reference_correction(self, heston):
        lt = heston_large_time_params(heston)
        leading, correction = largetime_put_quote(lt, -0.1, 0.25, 100.0)
        assert leading == -0.1
        expected = -100.0 ** -0.25 * 0.01 / (2 * lt.q)
        assert correction == pytest.approx(expected, rel=1e-12)
        assert correction == pytest.approx(-0.0138620, abs=1e-6)

    def test_correction_vanishes_for_large_t(self, heston):
        lt = heston_large_time_params(heston)
        _, c1 = largetime_put_quote(lt, -0.1, 0.25, 1e2)
        _, c2 = largetime_put_quote(lt, -0.1, 0.25, 1e12)
        assert abs(c2) < abs(c1)
        assert c2 == pytest.approx(0.0, abs=1e-4)

    def test_correction_sign(self, heston):
        lt = heston_large_time_params(heston)
        for x in (-0.3, -0.05, -0.01):
            _, correction = largetime_put_quote(lt, x, 0.25, 50.0)
            assert correction <= 0


class TestLargetimeCall:
    def test_nonpositive_strike_zero(self, heston):
        q_share = share_large_time_params(heston).q
        assert largetime_call_exponent(0.0, q_share) == 0.0
        assert largetime_call_exponent(-0.4, q_share) == 0.0

    def test_share_route_value(self, heston):
        lt_q = share_large_time_params(heston)
        assert largetime_call_exponent(0.1, lt_q.q) == \
            pytest.approx(-0.01 / (2 * lt_q.q), rel=1e-9)
        # tilted-factor closed form, cross term sign flipped by the tilt
        kq = 2.0 - (-0.5) * 0.5
        tq = 2.0 * 0.1 / kq
        closed = tq * (1 + 0.25 / (4 * kq ** 2) + (-0.5) * 0.5 / kq)
        assert lt_q.q == pytest.approx(closed, rel=1e-6)

    def test_uncorrelated_duality(self):
        model = make_heston(2, 0.1, 0.5, 0.0, 0.0, 0.1)
        lt = heston_large_time_params(model)
        lt_q = share_large_time_params(model)
        assert lt_q.q == pytest.approx(lt.q, rel=1e-10)
        for x in (0.05, 0.1, 0.3):
            call = largetime_call_exponent(x, lt_q.q)
            _, put_correction = largetime_put_quote(lt, -x, 0.25, 1.0)
            assert call == pytest.approx(put_correction, rel=1e-10)

    def test_sign_structure(self, heston):
        q_share = share_large_time_params(heston).q
        for x in (0.01, 0.2, 1.0):
            assert largetime_call_exponent(x, q_share) < 0


@pytest.fixture(scope="module")
def params():
    return RealizedVarLdp(2.0, 0.1, 0.5, 0.1)


class TestRvOptionQuotes:
    def test_at_ergodic_mean(self, params):
        ldp_quote, _ = rv_option_quotes(params, 0.1)
        assert ldp_quote == pytest.approx(0.1, rel=1e-12)

    def test_reference_values(self, params):
        ldp_quote, mdp_quote = rv_option_quotes(params, 0.2)
        assert ldp_quote == pytest.approx(-0.2, rel=1e-12)
        ldp_small, mdp_small = rv_option_quotes(params, 0.05)
        assert mdp_small == pytest.approx(-0.2, rel=1e-12)

    def test_positive_strike_required(self, params):
        with pytest.raises(DomainError):
            rv_option_quotes(params, 0.0)

    def test_curvature_consistency_identity(self, params):
        # J_V(x) equals the second-order expansion of the rate at its minimum:
        # both sides are kappa^2 x^2 / (2 xi^2 theta)
        curv = curvature(lambda z: rv_lambda_star(params, z), params.theta)
        for x in (0.01, 0.05, 0.12):
            _, mdp_quote = rv_option_quotes(params, x)
            taylor = rv_lambda_star(params, params.theta) + 0.5 * curv * x ** 2
            assert -mdp_quote == pytest.approx(taylor, rel=1e-9)


class TestTailProbabilityExponent:
    def test_heston_parameters(self, heston):
        assert tail_probability_exponent(heston, 0.3, 1.0) == \
            pytest.approx(-0.45, rel=1e-12)

    def test_stein_stein_parameters(self):
        model = make_stein_stein(0.1, -1.0, 0.3, 0.0, 0.0, 0.2)
        assert tail_probability_exponent(model, 0.1, 1.0) == \
            pytest.approx(-0.125, rel=1e-12)

    def test_vanishes_for_large_t(self, heston):
        assert tail_probability_exponent(heston, 0.3, 1e9) == \
            pytest.approx(0.0, abs=1e-9)

    def test_requires_exceeding_start(self, heston):
        with pytest.raises(DomainError):
            tail_probability_exponent(heston, -0.1, 1.0)

    def test_power_family_exponent_region(self):
        model = make_power_family(0.2, -2.0, 0.5, 1.0, 0.25, 0.5, 0.0, 0.0, 0.1)
        value = tail_probability_exponent(model, 0.3, 2.0)
        sigma_y0 = 1.0 * 0.1 ** 0.5
        assert value == pytest.approx(-0.09 / (2 * sigma_y0 ** 2 * 2.0), rel=1e-12)
