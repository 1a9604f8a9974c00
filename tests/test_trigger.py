import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etclab import (
    ConfigError,
    TriggerConfig,
    ZetaParams,
    event_function,
    masp,
    zeta_time,
)
from etclab import trigger
from etclab.trigger import zeta_solution
from oracles import (
    masp_arctan_reference,
    masp_arctanh_reference,
    zeta_arctanh_reference,
    zeta_arctanh_value_reference,
    zeta_rk4_step,
    zeta_transit_time_reference,
)


class TestMasp:
    def test_equal_gains_branch(self):
        for L in (0.5, 2.0, 4.1231):
            assert masp(L, L) == 1.0 / L

    def test_planar_benchmark_value(self):
        assert masp(17.3495, 4.1231) == pytest.approx(0.0790, abs=5e-4)

    def test_zero_growth_limit(self):
        # L = 0 limit is pi / (2 gamma); cross-checked by the transit-time oracle.
        gamma = 18.2574
        value = masp(gamma, 0.0)
        assert value == pytest.approx(math.pi / (2 * gamma), rel=1e-12)
        assert value == pytest.approx(0.08603, abs=1e-4)
        oracle = zeta_transit_time_reference(gamma, 0.0, theta=1e-5, eta=1e-8)
        assert value == pytest.approx(oracle, abs=1e-4)

    def test_negligible_growth_gives_the_zero_growth_limit(self):
        # gamma/L past ~1e154 overflows r in the arctan branch.
        for L in (3e-149, 3e-151, 4.4e-286):
            assert masp(3.0, L) == pytest.approx(math.pi / 6.0, rel=1e-15)

    @pytest.mark.parametrize("gamma", [9e307, 1.7e308])
    @pytest.mark.parametrize("L", [0.0, 1.0])
    def test_zero_growth_limit_near_the_largest_double(self, gamma, L):
        # pi / (2 gamma) read 0.0 here: 2 gamma overflows to inf.
        value = masp(gamma, L)
        assert value == math.pi / 2 / gamma
        assert value > 0.0

    def test_arctanh_branch(self):
        value = masp(1.0, 2.0)
        assert value == pytest.approx(0.7603, abs=1e-4)
        oracle = zeta_transit_time_reference(1.0, 2.0, theta=1e-5, eta=1e-8)
        assert value == pytest.approx(oracle, abs=1e-4)

    @pytest.mark.parametrize("ratio", [0.5, 1e-4, 1e-8, 1e-9, 1e-12, 1e-149, 1e-151, 1e-200, 5e-324])
    def test_arctanh_branch_small_ratio(self, ratio):
        # atanh(r) with r = sqrt(1 - ratio^2) cancels as ratio -> 0: taken
        # literally it is 3.6% off near 7.5e-9 and raises below 1.05e-8.
        for L in (1.0, 4.1231):
            value = masp(ratio * L, L)
            assert value == pytest.approx(masp_arctanh_reference(ratio * L, L), rel=1e-15)

    def test_zero_gamma_diverges(self):
        assert masp(0.0, 2.0) == math.inf

    def test_degenerate_error(self):
        with pytest.raises(ConfigError):
            masp(0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            masp(-1.0, 1.0)

    def test_continuity_across_seam(self):
        for L in (0.5, 1.0, 4.1231):
            for side in (1.0 - 1e-6, 1.0 + 1e-6):
                assert abs(masp(L * side, L) - 1.0 / L) <= 1e-4

    def test_nonincreasing_in_both_gains(self):
        grid = [0.3, 0.7, 1.1, 2.5, 6.0, 15.0]
        for L in grid:
            values = [masp(g, L) for g in grid]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
        for g in grid:
            values = [masp(g, L) for L in grid]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# (gamma, eta, zeta_time at L = 1, theta = 0.5) with gamma^2 past the largest double.
_SQUARE_OVERFLOWS = [(1e160, 1.0, 6.4350110879328435e-161), (1e308, 1e300, 6.435011087932844e-309)]


class TestZetaTime:
    def test_theta_near_one_gives_tiny_transit(self):
        assert zeta_time(2.0, 1.0, ZetaParams(theta=0.999, eta=0.01)) < 1e-3

    def test_below_masp(self):
        zp = ZetaParams(theta=0.01, eta=0.01)
        assert zeta_time(17.3495, 4.1231, zp) < masp(17.3495, 4.1231)

    def test_monotone_decreasing_in_theta_and_eta(self):
        grid = (0.01, 0.1, 0.5)
        table = {
            (th, eta): zeta_time(17.3495, 4.1231, ZetaParams(th, eta))
            for th in grid
            for eta in grid
        }
        for eta in grid:
            col = [table[(th, eta)] for th in grid]
            assert col[0] > col[1] > col[2]
        for th in grid:
            row = [table[(th, eta)] for eta in grid]
            assert row[0] > row[1] > row[2]

    def test_converges_to_masp(self):
        zp = ZetaParams(theta=1e-4, eta=1e-6)
        assert zeta_time(17.3495, 4.1231, zp) == pytest.approx(
            masp(17.3495, 4.1231), abs=1e-3
        )

    @pytest.mark.parametrize(
        "gamma, L, theta, eta",
        [
            (2.0, 1.0, 1e-4, 1e-6),  # criterion 2: gamma > L, = L, < L
            (2.0, 2.0, 1e-4, 1e-6),
            (1.0, 2.0, 1e-4, 1e-6),
            (3.0, 1.5, 0.05, 0.02),  # tan branch
            (3.0, 5.0, 0.05, 16.0),  # a = 1 exactly
            (157.01379981814762, 0.0, 1e-4, 1e-6),  # Lorenz gains
            (2.0, 1.0, 0.999, 0.01),  # theta near 1: a transit of 3.3e-4
        ],
        ids=["gamma>L", "gamma=L", "gamma<L", "tan", "a=1", "lorenz", "theta-0.999"],
    )
    def test_matches_quadrature_oracle(self, gamma, L, theta, eta):
        oracle = zeta_transit_time_reference(gamma, L, theta=theta, eta=eta)
        assert zeta_time(gamma, L, ZetaParams(theta, eta)) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("gamma, eta, transit", _SQUARE_OVERFLOWS)
    def test_gamma_whose_square_overflows(self, gamma, eta, transit):
        # lam is hypot(gamma, sqrt(eta)) where gamma^2 overflows; lam = inf gave 0.0.
        # At theta = 0.5 and a = 1/lam, about 0, the transit is atan(0.75) / gamma.
        assert zeta_time(gamma, 1.0, ZetaParams(0.5, eta)) == transit
        assert 0.0 < transit < masp(gamma, 1.0)


@settings(max_examples=300, deadline=None)
@given(ratio=st.floats(1e-12, 1.0, exclude_max=True), L=st.floats(1e-3, 1e3))
def test_arctanh_branch_matches_decimal_reference(ratio, L):
    gamma = ratio * L
    assume(0.0 < gamma < L)
    assert masp(gamma, L) == pytest.approx(masp_arctanh_reference(gamma, L), rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(ratio=st.floats(1.0, 1e12, exclude_min=True), L=st.floats(1e-3, 1e3))
def test_arctan_branch_matches_decimal_reference(ratio, L):
    gamma = ratio * L
    assume(gamma > L)
    assert masp(gamma, L) == pytest.approx(masp_arctan_reference(gamma, L), rel=1e-15)


# (gamma, L, theta, eta) with L > sqrt(gamma^2 + eta), where zeta_solution's
# parameter reaches 1 - r s of about 1e-6, 1e-12 and 2e-16 at the transit.
# The last two have a = L/lam near 1e155 and 1e160, past the 1.34e154 where
# a^2 overflows; there 1 - r s needs 400 digits (at 60 it rounds to 0 at the
# zero crossing), and the references use 400 digits at every point.
_ARCTANH_POINTS = [
    (1e-3, 1.0, 1e-4, 1e-6),
    (1e-6, 1.0, 1e-8, 1e-12),
    (1e-9, 1e3, 1e-8, 1e-12),
    (0.0, 1e5, 0.5, 1e-300),
    (1.0, 1e160, 1e-4, 1e-6),
]


class TestZetaArctanhBranch:
    """zeta_time, zeta_solution's zero crossing and its values against decimal references.

    At these points atanh(r s) taken as is loses up to 1.9e-4 (zeta_time)
    and 5.9e-2 (the zero crossing) relative, to the cancellation in 1 - r s.
    """

    @pytest.mark.parametrize("gamma, L, theta, eta", _ARCTANH_POINTS)
    def test_transit_time(self, gamma, L, theta, eta):
        ref = zeta_arctanh_reference(gamma, L, theta, eta, end=theta, digits=400)
        assert zeta_time(gamma, L, ZetaParams(theta, eta)) == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("gamma, L, theta, eta", _ARCTANH_POINTS)
    def test_zero_crossing(self, gamma, L, theta, eta):
        # The time after which zeta_solution returns 0.
        ode = trigger._comparison_ode(gamma, L, ZetaParams(theta, eta), "test")
        ref = zeta_arctanh_reference(gamma, L, theta, eta, end=0.0, digits=400)
        assert trigger._fall_time(*ode, 0.0) == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("fraction", [0.5, 0.9, 0.97, 0.999])
    @pytest.mark.parametrize("gamma, L, theta, eta", _ARCTANH_POINTS)
    def test_value_up_to_the_zero_crossing(self, gamma, L, theta, eta, fraction):
        # At (1e-9, 1e3, 1e-8, 1e-12) tanh saturates from 0.9 of tau_zero on:
        # s taken as tanh(lam r tau) / r read 2.13e-8 (for 2.62e-8) there and
        # 0.0 at 0.97 and 0.999.  Near the crossing zeta's own condition number
        # grows like 1 / (1 - fraction); seen: at most 6.1e-14 at 0.999.
        ode = trigger._comparison_ode(gamma, L, ZetaParams(theta, eta), "test")
        tau = fraction * trigger._fall_time(*ode, 0.0)
        ref = zeta_arctanh_value_reference(gamma, L, theta, eta, tau, digits=400)
        zeta = zeta_solution(gamma, L, ZetaParams(theta, eta))
        assert zeta(0.0) == 1.0 / theta
        assert zeta(tau) == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(1e-9, 1000.0),
        L=st.floats(1e-3, 1000.0),
        theta=st.floats(1e-8, 0.9),  # nearer 1, z0 - theta cancels on every branch
        eta=st.floats(1e-12, 10.0),
    )
    def test_matches_decimal_reference(self, gamma, L, theta, eta):
        assume(L > math.sqrt(gamma * gamma + eta))
        ref = zeta_arctanh_reference(gamma, L, theta, eta, end=theta)
        assert zeta_time(gamma, L, ZetaParams(theta, eta)) == pytest.approx(ref, rel=2e-15)


@settings(max_examples=300, deadline=None)
@given(
    gamma=st.floats(1e-9, 1000.0),  # gamma/L down to 1e-12
    L=st.floats(0.0, 1000.0),
    theta=st.floats(1e-4, 0.99),
    eta=st.floats(1e-6, 10.0),
)
def test_transit_time_properties(gamma, L, theta, eta):
    zp = ZetaParams(theta, eta)
    transit = zeta_time(gamma, L, zp)
    assert 0.0 < transit < masp(gamma, L)
    assert zeta_solution(gamma, L, zp)(transit) == pytest.approx(theta, rel=1e-6)
    assert zeta_time(gamma, L, ZetaParams(theta * 1.01, eta)) < transit


class TestNonFiniteGains:
    @pytest.mark.parametrize("gamma, L", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_rejected_naming_the_function(self, tabuada, gamma, L):
        zp = ZetaParams(theta=0.05, eta=0.02)
        with pytest.raises(ValueError, match="^masp:"):
            masp(gamma, L)
        with pytest.raises(ValueError, match="^zeta_time:"):
            zeta_time(gamma, L, zp)
        with pytest.raises(ValueError, match="^zeta_solution:"):
            zeta_solution(gamma, L, zp)
        _, cert = tabuada
        with pytest.raises(ValueError, match="^Certificate:"):
            dataclasses.replace(cert, gamma=gamma, L=L)


class TestZetaParams:
    @pytest.mark.parametrize("eta", [0.0, math.nan, math.inf])
    def test_rejects_an_eta_outside_the_open_half_line(self, eta):
        # With eta = inf, zeta_time was 0 and every R-monitor sample NaN (inf * 0).
        with pytest.raises(ValueError, match="^eta must be positive and finite$"):
            ZetaParams(theta=0.01, eta=eta)


class TestZetaSolution:
    # (gamma, L, eta) with a = L / sqrt(gamma^2 + eta) below, at and above 1;
    # 3^2 + 16 = 5^2 makes a = 1 exact.
    BRANCHES = {"tan": (17.3495, 4.1231, 0.01), "a=1": (3.0, 5.0, 16.0), "coth": (2.0, 5.0, 0.1)}

    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    def test_branch_matches_numerical_transit(self, branch):
        gamma, L, eta = self.BRANCHES[branch]
        zp = ZetaParams(theta=0.05, eta=eta)
        zeta = zeta_solution(gamma, L, zp)
        transit = zeta_transit_time_reference(gamma, L, theta=zp.theta, eta=eta)
        assert zeta(0.0) == 1.0 / zp.theta
        assert zeta(transit) == pytest.approx(zp.theta, rel=1e-3)
        # Past the zero crossing zeta stays at 0, however long the segment.
        assert zeta(2.0 * transit) == 0.0
        assert zeta(1e3 * transit) == 0.0

    @pytest.mark.parametrize("gamma, eta, transit", _SQUARE_OVERFLOWS)
    def test_gamma_whose_square_overflows(self, gamma, eta, transit):
        # lam = inf made zeta(0) 0.0, not 1/theta.
        zeta = zeta_solution(gamma, 1.0, ZetaParams(0.5, eta))
        assert zeta(0.0) == 2.0
        assert zeta(0.5 * transit) > zeta(transit) == pytest.approx(0.5, rel=1e-9)

    def test_continuous_across_a_equal_one(self):
        zp = ZetaParams(theta=0.05, eta=16.0)
        tau = 0.5 * zeta_time(3.0, 5.0, zp)
        at_one = zeta_solution(3.0, 5.0, zp)(tau)
        for L in (5.0 - 1e-9, 5.0 + 1e-9):
            assert zeta_solution(3.0, L, zp)(tau) == pytest.approx(at_one, rel=1e-8)

    def test_matches_fine_rk4(self):
        zp = ZetaParams(theta=0.01, eta=0.01)
        zeta = zeta_solution(17.3495, 4.1231, zp)
        lam, h, z = zp.lam(17.3495), 1e-6, 1.0 / zp.theta
        for k in range(1, 50_001):
            z = zeta_rk4_step(z, h, 4.1231, lam)
            if k % 10_000 == 0:
                assert zeta(k * h) == pytest.approx(z, rel=1e-9)


class TestTriggerConfig:
    def test_pure_event_requires_zero_dwell(self):
        with pytest.raises(ConfigError):
            TriggerConfig(mode="pure-event", T=0.1, sigma=0.5)

    def test_state_feedback_requires_sigma(self):
        with pytest.raises(ConfigError):
            TriggerConfig(mode="state-feedback", T=0.05)

    @pytest.mark.parametrize(
        "mode, sigma", [("periodic", 5.0), ("output-feedback", -3.0), ("output-feedback", 0.7)]
    )
    def test_modes_that_never_read_sigma_reject_it(self, mode, sigma):
        with pytest.raises(ConfigError, match=f"^{mode} mode takes no sigma, got {sigma}$"):
            TriggerConfig(mode=mode, T=0.01, sigma=sigma)

    def test_unknown_mode(self):
        with pytest.raises(ConfigError):
            TriggerConfig(mode="self-triggered", T=0.1)

    def test_dwell_must_stay_below_ceiling(self, tabuada):
        _, cert = tabuada
        cfg = TriggerConfig(mode="state-feedback", T=0.1, sigma=0.5)
        with pytest.raises(ConfigError, match="dwell time exceeds MASP"):
            cfg.validate_against(cert)
        TriggerConfig(mode="state-feedback", T=0.075, sigma=0.5).validate_against(cert)


def _sets(cert, cfg, x, e, tau, tol=0.0):
    """(in C, in D) of the state (x, e, tau), through the event excess."""
    h = event_function(cert, cfg)
    return cfg.membership(None if h is None else h(np.asarray(x, float), np.asarray(e, float)),
                          tau, tol)


class TestFlowJumpSets:
    def test_zero_clock_always_flows(self, tabuada, rng):
        _, cert = tabuada
        cfg = TriggerConfig(mode="state-feedback", T=0.075, sigma=0.5)
        for _ in range(20):
            in_c, _in_d = _sets(cert, cfg, rng.standard_normal(2), rng.standard_normal(2), 0.0)
            assert in_c

    def test_boundary_belongs_to_both_sets(self, tabuada):
        _, cert = tabuada
        cfg = TriggerConfig(mode="output-feedback", T=0.075)
        # Construct gamma^2 W(e)^2 == delta(y) exactly: both are zero at x = 0
        # with e = 0; use the equality case with tau > T.
        assert _sets(cert, cfg, np.zeros(2), np.zeros(2), 0.2) == (True, True)

    def test_pure_event_flows_with_zero_error(self, tabuada):
        _, cert = tabuada
        cfg = TriggerConfig(mode="pure-event", T=0.0, sigma=0.5)
        assert _sets(cert, cfg, [1.0, -2.0], np.zeros(2), 0.0) == (True, False)

    def test_jump_set_examples(self, tabuada):
        _, cert = tabuada
        cfg = TriggerConfig(mode="state-feedback", T=0.075, sigma=0.5)
        x = np.array([0.1, 0.0])
        big_e = np.array([5.0, 5.0])
        # tau = T with the excess positive: in D.
        assert _sets(cert, cfg, x, big_e, 0.075)[1]
        # tau < T: never in D.
        assert not _sets(cert, cfg, x, big_e, 0.05)[1]
        # origin with tau = T: equality case drives periodic sampling.
        assert _sets(cert, cfg, np.zeros(2), np.zeros(2), 0.075)[1]

    def test_periodic_mode(self, tabuada):
        _, cert = tabuada
        cfg = TriggerConfig(mode="periodic", T=0.05)
        assert _sets(cert, cfg, np.ones(2), np.ones(2), 0.02) == (True, False)
        assert _sets(cert, cfg, np.ones(2), np.ones(2), 0.05)[1]

    TOL = 1e-4

    @pytest.mark.parametrize(
        "mode, T, h, dtau, exact, relaxed",
        [
            # Within tol of an equality, D takes the state; C never widens.
            ("state-feedback", 0.075, TOL / 2, -TOL / 2, (True, False), (True, True)),
            ("state-feedback", 0.075, -TOL / 2, TOL / 2, (True, False), (True, True)),
            ("state-feedback", 0.075, TOL / 2, TOL / 2, (False, False), (False, True)),
            ("state-feedback", 0.075, 2 * TOL, 2 * TOL, (False, False), (False, False)),
            ("output-feedback", 0.075, -TOL / 2, TOL / 2, (True, False), (True, True)),
            ("output-feedback", 0.075, TOL / 2, TOL / 2, (False, False), (False, True)),
            ("pure-event", 0.0, -TOL / 2, 0.0, (True, False), (True, True)),
            ("pure-event", 0.0, TOL / 2, 0.0, (False, True), (False, True)),
            ("pure-event", 0.0, -2 * TOL, 0.0, (True, False), (True, False)),
            ("periodic", 0.05, None, -TOL / 2, (True, False), (True, True)),
            ("periodic", 0.05, None, TOL / 2, (False, False), (False, True)),
            ("periodic", 0.05, None, 2 * TOL, (False, False), (False, False)),
        ],
    )
    def test_tolerance_relaxes_only_jump_equalities(self, mode, T, h, dtau, exact, relaxed):
        cfg = TriggerConfig(mode=mode, T=T, sigma=None if mode in ("periodic", "output-feedback")
                            else 0.5)
        assert cfg.membership(h, T + dtau) == exact
        assert cfg.membership(h, T + dtau, tol=self.TOL) == relaxed

    def test_mode_certificate_mismatch(self, lorenz):
        _, cert = lorenz  # output certificate: n_y = 1 < n_x = 3
        cfg = TriggerConfig(mode="state-feedback", T=0.005, sigma=0.5)
        with pytest.raises(ConfigError, match="full-state output"):
            event_function(cert, cfg)


class TestEventExcess:
    _X = np.array([1.0, -1.0])

    @staticmethod
    def _cfg(mode):
        return TriggerConfig(mode=mode, T=0.075, sigma=0.7 if mode == "state-feedback" else None)

    def test_keeps_gamma_squared_where_it_is_finite(self, tabuada):
        _, cert = tabuada
        h = event_function(cert, self._cfg("output-feedback"))
        rng = np.random.default_rng(3)
        for _ in range(100):
            x, e = rng.standard_normal(2), rng.standard_normal(2) * 10.0 ** rng.uniform(-5, 5)
            w = cert.W(e)
            assert h(x, e) == (cert.gamma * cert.gamma) * w * w - cert.delta(x)

    @pytest.mark.parametrize("mode", ["output-feedback", "state-feedback"])
    def test_gamma_whose_square_overflows(self, tabuada, mode):
        # Where gamma^2 is inf the excess takes (gamma W)^2: 0 at e = 0, not inf * 0 = NaN.
        _, cert = tabuada
        cfg = self._cfg(mode)
        big = dataclasses.replace(cert, gamma=1e160)
        h, h_big = event_function(cert, cfg), event_function(big, cfg)
        zero = np.zeros(2)
        assert h_big(self._X, zero) == h(self._X, zero) <= 0.0  # eps1 = 0: delta = 0
        e = np.array([3e-161, 4e-161])  # W(e) = 5e-161, gamma W = 0.5
        assert h_big(self._X, e) == (1e160 * cert.W(e)) ** 2 + h(self._X, zero)
        assert h_big(self._X, np.array([1e-3, 0.0])) == math.inf

    @pytest.mark.parametrize("mode", ["output-feedback", "state-feedback"])
    def test_form_with_an_overflowing_gamma_gives_no_screen(self, tabuada, mode):
        _, cert = tabuada
        big = dataclasses.replace(cert, gamma=1e160)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q = trigger.event_form(big, self._cfg(mode))
            assert trigger.event_screen(big, self._cfg(mode)) is None
        assert (np.diag(Q)[2:] == math.inf).all()
        assert not Q[2:, 2:][~np.eye(2, dtype=bool)].any()  # zeros, not inf * 0 = NaN
