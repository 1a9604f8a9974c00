"""Acceptance gate: every criterion runs at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s or -rA to see
them).  Two clauses are marked as strict expected failures: the
published Lorenz gains do not satisfy the V-decay inequality (the
budget at x = (0, 1, 0), e = 0 is -60 against a required -110, and no
valid H exists for p1 = 2, p2 = 30), which breaks both the sampled
certification of that benchmark and the monotonicity guarantee of the
R envelope along its runs.  The checks themselves are implemented
faithfully and the violations are real, localized and reproducible.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
import scipy.linalg

from etclab import (
    BatchSpec,
    HybridState,
    LmiCertificate,
    LtiController,
    LtiPlant,
    SimSettings,
    TriggerConfig,
    ZetaParams,
    assemble,
    check_assumption_sampled,
    design_certificate,
    lmi_residual,
    lorenz_loop,
    masp,
    r_monitor,
    run_batch,
    simulate,
    solve_lyapunov,
    spectral_norm,
    tabuada_loop,
    zeta_time,
)
from etclab.cli import dispatch
from etclab.montecarlo import sample_initial
from oracles import lmi_schur_residual, lyapunov_kronecker, power_iteration_norm


def _report(criterion, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{tail}")


# --------------------------------------------------------------------------
# 1. MASP formula


def test_criterion_1_masp_formula():
    t0 = time.perf_counter()
    v_planar = masp(17.3495, 4.1231)
    equal_gain_values = [masp(L, L) for L in (0.5, 2.0, 4.1231)]
    seam = [abs(masp(L * s, L) - 1.0 / L) for L in (0.5, 2.0, 4.1231) for s in (1 - 1e-6, 1 + 1e-6)]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(v_planar - 0.0790) <= 5e-4
        and equal_gain_values == [1.0 / 0.5, 1.0 / 2.0, 1.0 / 4.1231]
        and max(seam) <= 1e-4
        and elapsed < 1e-3
    )
    _report("1 (MASP formula)", ok, f"masp(17.3495, 4.1231) = {v_planar:.6f}, {elapsed * 1e3:.3f} ms")
    assert abs(v_planar - 0.0790) <= 5e-4
    assert equal_gain_values == [1.0 / 0.5, 1.0 / 2.0, 1.0 / 4.1231]
    assert max(seam) <= 1e-4
    assert elapsed < 1e-3


# --------------------------------------------------------------------------
# 2. Comparison-ODE consistency


def test_criterion_2_zeta_consistency():
    t0 = time.perf_counter()
    zp = ZetaParams(theta=1e-4, eta=1e-6)
    branch_cases = [(2.0, 1.0), (2.0, 2.0), (1.0, 2.0)]  # gamma >, =, < L
    diffs = [abs(zeta_time(g, L, zp) - masp(g, L)) for g, L in branch_cases]

    grid = (0.01, 0.1, 0.5)
    table = {
        (th, eta): zeta_time(17.3495, 4.1231, ZetaParams(th, eta))
        for th in grid
        for eta in grid
    }
    monotone = all(
        table[(grid[i], eta)] > table[(grid[i + 1], eta)]
        for i in range(2)
        for eta in grid
    ) and all(
        table[(th, grid[i])] > table[(th, grid[i + 1])]
        for i in range(2)
        for th in grid
    )
    elapsed = time.perf_counter() - t0
    ok = max(diffs) <= 1e-3 and monotone and elapsed < 1.0
    _report("2 (zeta-ODE consistency)", ok, f"max |T~ - masp| = {max(diffs):.2e}, {elapsed:.2f} s")
    assert max(diffs) <= 1e-3
    assert monotone
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 3. Planar LTI reproduction


def test_criterion_3_lti_reproduction():
    t0 = time.perf_counter()
    plant = LtiPlant(A=[[0.0, 1.0], [-2.0, 3.0]], B=[[0.0], [1.0]], C=np.eye(2))
    ctrl = LtiController(D=[[1.0, -4.0]])
    clm = assemble(plant, ctrl)
    a1_ok = np.allclose(clm.A1, [[0.0, 1.0], [-1.0, -1.0]])
    b1_ok = np.allclose(clm.B1, [[0.0, 0.0], [1.0, -4.0]])
    L = spectral_norm(clm.B2)
    cand = design_certificate(clm, eps1=0.0, eps2=0.68)
    scale = max(1.0, spectral_norm(clm.A2.T @ clm.A2) + 0.68, cand.mu)
    feasible = lmi_residual(clm, cand) <= 1e-7 * scale
    ceiling = masp(cand.gamma, L)
    elapsed = time.perf_counter() - t0
    ok = (
        a1_ok
        and b1_ok
        and abs(L - 4.1231) <= 1e-3
        and feasible
        and math.isfinite(cand.gamma)
        and ceiling > 0
        and elapsed < 1.0
    )
    _report(
        "3 (planar LTI reproduction)",
        ok,
        f"L = {L:.4f}, gamma = {cand.gamma:.4f}, masp = {ceiling:.4f}, {elapsed:.2f} s",
    )
    assert a1_ok and b1_ok
    assert abs(L - 4.1231) <= 1e-3
    assert feasible and math.isfinite(cand.gamma) and ceiling > 0
    assert elapsed < 1.0


# --------------------------------------------------------------------------
# 4. Dwell-enforced vs pure-event batch statistics


def test_criterion_4_batch_statistics():
    t0 = time.perf_counter()
    sys6, cert6 = tabuada_loop()
    sim = SimSettings(step=1e-3, horizon_t=10.0, event_tol=1e-6, record_states=False)
    dwell = run_batch(
        sys6,
        cert6,
        BatchSpec(
            n_runs=200,
            radius=100.0,
            horizon_t=10.0,
            seed=0,
            trigger=TriggerConfig(mode="state-feedback", T=0.075, sigma=0.7),
            sim=sim,
        ),
    )
    baseline = run_batch(
        sys6,
        cert6,
        BatchSpec(
            n_runs=200,
            radius=100.0,
            horizon_t=10.0,
            seed=0,
            trigger=TriggerConfig(mode="pure-event", T=0.0, sigma=0.7),
            sim=sim,
        ),
    )
    elapsed = time.perf_counter() - t0
    ok = (
        abs(dwell.tau_min - 0.075) <= 1e-4
        and 0.075 <= dwell.tau_avg <= 0.095
        and baseline.tau_avg < dwell.tau_avg
        and baseline.tau_min < 0.075
        and not dwell.failures
        and not baseline.failures
        and elapsed < 300.0
    )
    _report(
        "4 (batch statistics)",
        ok,
        f"dwell {dwell.tau_min:.4f}/{dwell.tau_avg:.4f}, "
        f"baseline {baseline.tau_min:.4f}/{baseline.tau_avg:.4f}, {elapsed:.0f} s",
    )
    assert abs(dwell.tau_min - 0.075) <= 1e-4
    assert 0.075 <= dwell.tau_avg <= 0.095
    assert baseline.tau_avg < dwell.tau_avg
    assert baseline.tau_min < 0.075
    assert not dwell.failures and not baseline.failures
    assert elapsed < 300.0


# --------------------------------------------------------------------------
# 5. Lorenz stability, dwell enforcement and the R envelope


@pytest.fixture(scope="module")
def lorenz_runs():
    sys_l, cert_l = lorenz_loop()
    zp = ZetaParams(theta=1e-4, eta=1e-6)
    assert zeta_time(cert_l.gamma, cert_l.L, zp) > 0.01
    cfg = TriggerConfig(mode="output-feedback", T=0.01)
    settings = SimSettings(step=1e-3, horizon_t=20.0, event_tol=1e-6)
    spec = BatchSpec(
        n_runs=50, radius=10.0, horizon_t=20.0, seed=2026, trigger=cfg, sim=settings
    )
    stats = []
    t0 = time.perf_counter()
    for k in range(50):
        q0 = sample_initial(spec, k, 3, 1)
        x0 = float(np.linalg.norm(q0.x))
        sol = simulate(sys_l, cert_l, cfg, q0, settings)
        r = np.array([v[2] for v in r_monitor(sol, cert_l, zp)])
        stats.append(
            {
                "min_gap": min(sol.inter_event_gaps),
                "decay": float(np.linalg.norm(sol.final_state().x)) / x0 if x0 else 0.0,
                "r_increase": float(np.diff(r).max()) if r.size > 1 else 0.0,
                "r_tol": 1e-6 * float(r[0]),
            }
        )
    return stats, time.perf_counter() - t0


def test_criterion_5_gaps_and_stability(lorenz_runs):
    stats, elapsed = lorenz_runs
    min_gap = min(s["min_gap"] for s in stats)
    worst_decay = max(s["decay"] for s in stats)
    ok = min_gap >= 0.01 - 1e-6 and worst_decay <= 1e-2 and elapsed < 120.0
    _report(
        "5a/5b (Lorenz dwell and decay)",
        ok,
        f"min gap {min_gap:.6f}, worst |x(20)|/|x(0)| = {worst_decay:.2e}, {elapsed:.0f} s",
    )
    assert min_gap >= 0.01 - 1e-6
    assert worst_decay <= 1e-2
    assert elapsed < 120.0


@pytest.mark.xfail(
    strict=True,
    reason="The published Lorenz gains violate the V-decay inequality "
    "(no valid H exists for p1 = 2, p2 = 30), so the decrease of the R "
    "envelope is not guaranteed; seeded run 21 shows a genuine increase "
    "of 13.0 against a tolerance of 0.62, robust to 100x finer zeta "
    "integration.",
)
def test_criterion_5_r_monitor_nonincreasing(lorenz_runs):
    stats, _ = lorenz_runs
    violators = [
        (k, s["r_increase"], s["r_tol"])
        for k, s in enumerate(stats)
        if s["r_increase"] > s["r_tol"]
    ]
    _report(
        "5c (Lorenz R envelope nonincreasing)",
        not violators,
        f"{len(violators)} of 50 runs show a real increase" if violators else "",
    )
    assert not violators, violators


# --------------------------------------------------------------------------
# 6. Sampled certification


@pytest.fixture(scope="module")
def lorenz_check():
    sys_l, cert_l = lorenz_loop()
    return check_assumption_sampled(sys_l, cert_l, n_samples=10_000, radius=50.0, seed=0)


def test_criterion_6_sampled_certification(lorenz_check):
    t0 = time.perf_counter()
    sys6, cert6 = tabuada_loop()
    report6 = check_assumption_sampled(sys6, cert6, n_samples=10_000, radius=50.0, seed=0)
    falsified6 = check_assumption_sampled(
        sys6, dataclasses.replace(cert6, gamma=cert6.gamma / 10.0),
        n_samples=10_000, radius=50.0, seed=0,
    )
    sys_l, cert_l = lorenz_loop()
    falsified_l = check_assumption_sampled(
        sys_l, dataclasses.replace(cert_l, gamma=cert_l.gamma / 10.0),
        n_samples=10_000, radius=50.0, seed=0,
    )
    elapsed = time.perf_counter() - t0
    ok = report6.passed and not falsified6.passed and not falsified_l.passed and elapsed < 10.0
    _report(
        "6 (sampled certification; Lorenz clause reported separately)",
        ok,
        f"planar pass = {report6.passed}, corrupted-gamma fails = "
        f"{not falsified6.passed}, {elapsed:.1f} s",
    )
    assert report6.passed, report6.summary()
    assert not falsified6.passed
    assert falsified_l.violation_excess("v-decay") > 0
    assert elapsed < 10.0


@pytest.mark.xfail(
    strict=True,
    reason="The published Lorenz gains fail the V-decay inequality at "
    "e = 0 (violation +50 at x = (0, 1, 0), growing quadratically with "
    "radius); the sampled checker reports it, as it should.",
)
def test_criterion_6_lorenz_certificate_clause(lorenz_check):
    _report(
        "6 (Lorenz certificate passes sampled check)",
        lorenz_check.passed,
        f"max v-decay violation {lorenz_check.max_violation['v-decay']:.3g}",
    )
    assert lorenz_check.passed, lorenz_check.summary()


# --------------------------------------------------------------------------
# 7. Oracle suites


def test_criterion_7_oracle_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)

    # Lyapunov solve vs Kronecker vectorization on 20 random stable systems.
    lyap_err = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.standard_normal((n, n))
        a -= (np.linalg.eigvals(a).real.max() + rng.uniform(0.2, 1.5)) * np.eye(n)
        m = rng.standard_normal((n, n))
        q = m @ m.T + 0.1 * np.eye(n)
        p = solve_lyapunov(a, q)
        p_oracle = lyapunov_kronecker(a, q)
        lyap_err = max(lyap_err, float(np.abs(p - p_oracle).max() / max(1.0, np.abs(p_oracle).max())))

    # Linear flow vs matrix exponential over one inter-event interval.
    sys6, cert6 = tabuada_loop()
    q0 = HybridState(np.array([3.0, -2.0]), np.zeros(2), 0.0)
    sol = simulate(
        sys6,
        cert6,
        TriggerConfig(mode="state-feedback", T=0.075, sigma=0.7),
        q0,
        SimSettings(step=1e-3, horizon_t=0.2, event_tol=1e-6),
    )
    seg = sol.segments[0]
    z_exact = scipy.linalg.expm(sys6.stacked_matrix * sol.jump_times[0]) @ np.concatenate((q0.x, q0.e))
    flow_err = float(
        np.linalg.norm(np.concatenate((seg.x[-1], seg.e[-1])) - z_exact)
        / np.linalg.norm(z_exact)
    )

    # Spectral norm vs power iteration.
    norm_err = 0.0
    for _ in range(10):
        m = rng.standard_normal((int(rng.integers(2, 5)), int(rng.integers(2, 6))))
        norm_err = max(norm_err, abs(spectral_norm(m) - power_iteration_norm(m)))

    # Schur-complement sign equivalence on 100 random candidates.
    from etclab import ClosedLoopMatrices

    sign_mismatch = 0
    checked = 0
    for _ in range(100):
        clm = ClosedLoopMatrices(
            A1=rng.standard_normal((3, 3)),
            B1=rng.standard_normal((3, 2)),
            A2=rng.standard_normal((2, 3)),
            B2=rng.standard_normal((2, 2)),
            Cbar=rng.standard_normal((1, 3)),
        )
        m = rng.standard_normal((3, 3))
        cand = LmiCertificate(
            P=m @ m.T + 0.2 * np.eye(3),
            eps1=float(rng.uniform(0, 1)),
            eps2=float(rng.uniform(0.01, 1)),
            mu=float(rng.uniform(0.1, 50)),
        )
        block = lmi_residual(clm, cand)
        schur = lmi_schur_residual(clm, cand)
        if min(abs(block), abs(schur)) <= 1e-9 * max(1.0, abs(block), abs(schur)):
            continue
        checked += 1
        if np.sign(block) != np.sign(schur):
            sign_mismatch += 1

    elapsed = time.perf_counter() - t0
    ok = (
        lyap_err <= 1e-9
        and flow_err <= 1e-6
        and norm_err <= 1e-9
        and sign_mismatch == 0
        and checked >= 90
        and elapsed < 30.0
    )
    _report(
        "7 (oracle suites)",
        ok,
        f"lyap {lyap_err:.1e}, flow {flow_err:.1e}, norm {norm_err:.1e}, "
        f"schur {checked} checked, {elapsed:.1f} s",
    )
    assert lyap_err <= 1e-9
    assert flow_err <= 1e-6
    assert norm_err <= 1e-9
    assert sign_mismatch == 0 and checked >= 90
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# 8. Externally supplied gains through the pipeline


def test_criterion_8_external_gains_bound(capsys):
    rc = dispatch(["masp", "--gamma", "89.9666", "--L", "4"])
    out = capsys.readouterr().out.strip()
    printed = float(out)
    ok = rc == 0 and abs(printed - 0.017) <= 5e-4
    with capsys.disabled():
        _report("8 (external gains, guaranteed bound)", ok, f"printed {out}")
    assert rc == 0
    assert abs(printed - 0.017) <= 5e-4
