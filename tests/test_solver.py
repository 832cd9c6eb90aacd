"""Split-step integrator tests: exactness limits, convergence order, grid
invariance, conservation/growth rates, and the health monitors."""

import math
from dataclasses import replace

import numpy as np
import pytest

from ptnls.catalog import CaseId
from ptnls.jetexpr import JetCoord, ParamValues
from ptnls.solver import (BlowUpError, BoundaryContaminationError, FieldState,
                          Gaussian, Grid, GroundState, SolverConfig, Stepper,
                          initial_condition, integrate, jet_values, resample,
                          run, run_members, write_trajectory_csv)


def _linear_cfg(**kw):
    # eps = mu = 0 with the quadratic trap: the ground state is stationary
    base = dict(case_id=CaseId.CASE1A, params=ParamValues(eps=0.0, mu=0.0),
                dt=1e-3, T_final=1.0, grid=Grid(N=256), initial=GroundState())
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# grids and configs


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError, match="power of two"):
        Grid(N=100)
    with pytest.raises(ValueError, match="power of two"):
        Grid(N=32)
    with pytest.raises(ValueError, match="L"):
        Grid(L=0.0)


def test_grid_nodes_straddle_the_origin():
    g = Grid(L=20.0, N=128)
    assert g.dx == pytest.approx(40.0 / 128)
    assert np.min(np.abs(g.x)) == pytest.approx(g.dx / 2)
    # cell-centred nodes come in +/- pairs, none at x = 0
    assert np.allclose(np.sort(g.x) + np.sort(g.x)[::-1], 0.0)


def test_config_validation():
    with pytest.raises(ValueError, match="dt"):
        SolverConfig(dt=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        SolverConfig(T_final=-1.0)
    with pytest.raises(ValueError, match="integer multiple"):
        SolverConfig(dt=1e-3, T_final=0.00250001)
    assert SolverConfig(dt=1e-3, T_final=2.0).steps == 2000


def test_initial_conditions():
    cfg = _linear_cfg()
    state = initial_condition(cfg)
    assert state.t == 0.0
    assert integrate(cfg.grid, np.abs(state.q) ** 2) == pytest.approx(1.0, abs=1e-12)
    gauss = initial_condition(_linear_cfg(initial=Gaussian(2.0, 0.5, 1.0)))
    peak = np.argmax(np.abs(gauss.q))
    assert abs(cfg.grid.x[peak] - 1.0) < cfg.grid.dx
    with pytest.raises(TypeError):
        initial_condition(_linear_cfg(initial="gaussian"))  # type: ignore[arg-type]


def test_zero_time_run_returns_initial_state_only():
    traj = run(_linear_cfg(T_final=0.0))
    assert len(traj) == 1 and traj.snapshots[0].t == 0.0


# ---------------------------------------------------------------------------
# exactness and accuracy


def test_free_plane_wave_is_exact():
    # with a = b = nl = 0 the scheme is exact: the kinetic halves telescope
    grid = Grid(L=10.0, N=128)
    stepper = Stepper(grid, 1e-2, 0.0, 0.0, 0.0, 0.0)
    k = grid.k[5]
    state = FieldState(0.0, np.exp(1j * k * grid.x), grid)
    for _ in range(100):
        state = stepper.step(state)
    exact = np.exp(1j * (k * grid.x - 0.5 * k ** 2 * 1.0))
    assert np.max(np.abs(state.q - exact)) < 1e-12


def test_uniform_field_follows_the_exact_pointwise_flow():
    # only k = 0 is present, so the kinetic factor is 1 and each step is the
    # exact flow of i q_t = (a + i g) q + nl |q|^2 q: rho0 e^{2 g t} and its phase
    grid, dt, steps = Grid(L=10.0, N=64), 0.05, 40
    a, b, nl, eps = 0.7, 0.3, -1.5, np.array([0.0, 0.1, -0.2])  # eps = 0: phi(0)
    q0 = 0.8 - 0.6j
    stepper = Stepper(grid, dt, a, b, nl, eps)
    state = FieldState(0.0, np.full((eps.size, grid.N), q0), grid)
    for _ in range(steps):
        state = stepper.step(state)
    t, g, rho0 = steps * dt, eps * b, abs(q0) ** 2
    growth = np.array([t if gi == 0 else math.expm1(2 * gi * t) / (2 * gi) for gi in g])
    rho = rho0 * np.exp(2 * g * t)
    phase = np.angle(q0) - a * t - nl * rho0 * growth
    exact = np.sqrt(rho) * np.exp(1j * phase)
    assert np.max(np.abs(state.q / exact[:, None] - 1.0)) < 1e-12


def test_norm_is_conserved_without_gain():
    # at eps = 0 the nonlinear flow and the kinetic steps are both unitary, so
    # only rounding moves the norm: at most about one ulp per FFT, 4 per step
    # (5000 bare FFT round trips at N = 512 already drift it by ~3e-13).
    # RK4 on the pointwise flow drifted 2.7e-9 on this run.
    cfg = SolverConfig(case_id=CaseId.CASE2, params=ParamValues(eps=0.0), dt=4e-3,
                       T_final=20.0, grid=Grid(N=512), initial=Gaussian(1.0, 1.0, 0.5))
    norms = [integrate(cfg.grid, np.abs(s.q) ** 2) for s in run(cfg, sample_every=500)]
    assert len(norms) == 11 and cfg.steps == 5000
    assert max(abs(n / norms[0] - 1.0) for n in norms) < 4 * cfg.steps * np.finfo(float).eps


def test_ground_state_is_stationary():
    cfg = _linear_cfg(T_final=1.0)
    traj = run(cfg)
    final = traj.snapshots[-1]
    exact = initial_condition(cfg).q * np.exp(-0.5j * final.t)
    assert np.max(np.abs(final.q - exact)) < 1e-6


def test_second_order_in_time():
    # Richardson: halving dt cuts the error by ~4 on a nonlinear run
    def final_q(dt):
        cfg = SolverConfig(params=ParamValues(eps=0.0), dt=dt, T_final=0.5,
                           grid=Grid(N=256))
        return run(cfg, sample_every=10 ** 9).snapshots[-1].q

    ref = final_q(2.5e-4)
    e1 = np.max(np.abs(final_q(2e-3) - ref))
    e2 = np.max(np.abs(final_q(1e-3) - ref))
    assert 3.3 < e1 / e2 < 4.7


def test_resolution_doubling_changes_nothing():
    # half-cell offset grids share no nodes, so compare via the interpolant
    def final(N):
        cfg = SolverConfig(params=ParamValues(eps=0.0), dt=1e-3, T_final=0.5,
                           grid=Grid(N=N))
        return run(cfg, sample_every=10 ** 9).snapshots[-1]

    coarse, fine = final(256), final(512)
    moved = resample(fine, coarse.grid)
    assert np.max(np.abs(moved.q - coarse.q)) < 1e-10


def test_resample_is_exact_on_band_limited_data():
    src = Grid(L=10.0, N=128)
    q = np.exp(1j * src.k[3] * src.x) + 0.5 * np.exp(1j * src.k[-7] * src.x)
    state = FieldState(0.0, q, src)
    for N in (64, 256):
        dst = Grid(L=10.0, N=N)
        out = resample(state, dst)
        exact = np.exp(1j * src.k[3] * dst.x) + 0.5 * np.exp(1j * src.k[-7] * dst.x)
        assert np.max(np.abs(out.q - exact)) < 1e-12
    with pytest.raises(ValueError, match="half-width"):
        resample(state, Grid(L=12.0, N=128))


def test_norm_growth_rate_matches_gain_profile():
    # d/dt int |q|^2 = 2 eps int b |q|^2 at leading order
    cfg = SolverConfig(params=ParamValues(eps=0.01), dt=1e-4, T_final=0.01,
                       grid=Grid(N=256), initial=Gaussian(1.0, 1.0, 0.5))
    traj = run(cfg, sample_every=50)
    q0, q1 = traj.snapshots[0], traj.snapshots[-1]
    rate = (integrate(cfg.grid, np.abs(q1.q) ** 2)
            - integrate(cfg.grid, np.abs(q0.q) ** 2)) / cfg.T_final
    mid = traj.snapshots[1]  # t = 0.005
    b = cfg.grid.x  # case1a gain profile
    pred = 2.0 * cfg.params.eps * integrate(cfg.grid, b * np.abs(mid.q) ** 2)
    assert rate == pytest.approx(pred, rel=1e-3)


def test_runs_are_deterministic():
    cfg = SolverConfig(dt=1e-3, T_final=0.2, grid=Grid(N=256))
    a = run(cfg).snapshots[-1].q
    b = run(cfg).snapshots[-1].q
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# health monitors


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_gain_blow_up_is_caught():
    cfg = SolverConfig(case_id=CaseId.CASE2, params=ParamValues(eps=500.0),
                       dt=1e-2, T_final=20.0, grid=Grid(N=256))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError):
            run(cfg, sample_every=1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_blow_up_time_is_the_step_not_the_snapshot():
    # |q|^2 overflows in the first step, three steps before the next snapshot
    cfg = SolverConfig(params=ParamValues(eps=0.0), dt=1e-3, T_final=0.01,
                       grid=Grid(N=256), initial=Gaussian(1e160, 1.0, 0.5))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as exc:
            run(cfg, sample_every=4)
    assert exc.value.t == cfg.dt


def test_boundary_contamination_is_an_error():
    cfg = _linear_cfg(T_final=0.0, initial=Gaussian(1.0, 1.0, 18.0))
    with pytest.raises(BoundaryContaminationError):
        run(cfg)


@pytest.mark.filterwarnings("ignore:boundary amplitude at:RuntimeWarning")
def test_failed_member_leaves_the_others_bit_identical():
    # in a small box the largest gain reaches the boundary bound; its row sits
    # between two members that finish, so the rows left behind must realign
    cfg = SolverConfig(dt=1e-3, T_final=1.0, grid=Grid(L=6.0, N=128),
                       initial=Gaussian(1.0, 1.0, 0.5))
    eps = [0.01, 1.0, 0.0]
    results = run_members(cfg, eps)
    with pytest.raises(BoundaryContaminationError) as exc:
        run(replace(cfg, params=cfg.params.replace(eps=1.0)))
    assert isinstance(results[1], BoundaryContaminationError)
    assert (results[1].t, str(results[1])) == (exc.value.t, str(exc.value))
    for e, traj in zip(eps[::2], results[::2]):
        alone = run(replace(cfg, params=cfg.params.replace(eps=e)))
        assert traj.cfg == alone.cfg
        assert [s.t for s in traj] == [s.t for s in alone]
        assert all(np.array_equal(a.q, b.q) for a, b in zip(traj, alone))


def test_boundary_proximity_warns_once():
    cfg = _linear_cfg(dt=1e-3, T_final=0.01, initial=Gaussian(1.0, 1.0, 14.0))
    with pytest.warns(RuntimeWarning, match="boundary amplitude") as rec:
        run(cfg, sample_every=1)
    assert len([w for w in rec if "boundary" in str(w.message)]) == 1


# ---------------------------------------------------------------------------
# jets on the grid


def test_jet_values_ground_state_analytic():
    cfg = _linear_cfg()
    state = initial_condition(cfg)
    jets = jet_values(state, cfg)
    x = cfg.grid.x
    phi = math.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    assert np.max(np.abs(jets[JetCoord("u", 0, 2)] - (x ** 2 - 1.0) * phi)) < 1e-10
    assert np.max(np.abs(jets[JetCoord("u", 1, 0)])) < 1e-10
    assert np.max(np.abs(jets[JetCoord("v", 1, 0)] + 0.5 * phi)) < 1e-10


def test_jet_time_derivatives_match_finite_differences():
    cfg = SolverConfig(params=ParamValues(eps=0.03), dt=1e-4, T_final=2e-4,
                       grid=Grid(N=256))
    traj = run(cfg, sample_every=1)
    before, middle, after = traj.snapshots
    jets = jet_values(middle, cfg)
    fd = (after.q - before.q) / (2.0 * cfg.dt)
    assert np.max(np.abs(jets[JetCoord("u", 1, 0)] - fd.real)) < 1e-6
    assert np.max(np.abs(jets[JetCoord("v", 1, 0)] - fd.imag)) < 1e-6


def test_trajectory_csv_round_trips(tmp_path):
    cfg = _linear_cfg(grid=Grid(N=64), dt=1e-3, T_final=2e-3)
    traj = run(cfg, sample_every=1)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path, header_lines=["seed=0"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# seed=0"
    assert "case=case1a" in lines[1] and "N=64" in lines[1]
    assert lines[3] == "t,x,re_q,im_q"
    rows = [line.split(",") for line in lines[4:]]
    assert len(rows) == 3 * 64
    state = traj.snapshots[2]
    for (t, x, re, im), xj, qj in zip(rows[2 * 64:], state.grid.x, state.q):
        assert float(t) == state.t and float(x) == xj
        assert float(re) == qj.real and float(im) == qj.imag


def _reference_trajectory_csv(traj, header_lines):
    """The row-by-row writer, one format call per value."""
    cfg, p, f = traj.cfg, traj.cfg.params, (lambda v: format(v, ".17g"))
    out = [f"# {line}\n" for line in header_lines]
    out.append(f"# case={cfg.case_id.value} N={cfg.grid.N} L={f(cfg.grid.L)}"
               f" dt={f(cfg.dt)} T_final={f(cfg.T_final)}\n")
    out.append(f"# eps={f(p.eps)} mu={f(p.mu)} sigma={f(p.sigma)}"
               f" alpha={f(p.alpha)} g={f(p.g)}\n")
    out.append("t,x,re_q,im_q\n")
    for state in traj.snapshots:
        for xj, qj in zip(state.grid.x, state.q):
            out.append(f"{f(state.t)},{f(xj)},{f(qj.real)},{f(qj.imag)}\n")
    return "".join(out)


def test_trajectory_csv_matches_the_row_by_row_writer(tmp_path):
    cfg = _linear_cfg(grid=Grid(L=7.5, N=64), params=ParamValues(eps=0.1 + 0.2),
                      dt=1e-3, T_final=3e-3)
    traj = run(cfg, sample_every=1)
    odd = traj.snapshots[1].q.copy()
    odd[:6] = [-0.0, complex(5e-324, -0.0), complex(1e300, -1e300),
               complex(-2.2250738585072014e-308, 1 / 3), 1e-5j, complex(123456789.0, -1e22)]
    traj.snapshots[1] = FieldState(0.1 + 0.2, odd, cfg.grid)
    path = tmp_path / "traj.csv"
    header = ["seed=0", "note=x,y 100%"]
    write_trajectory_csv(traj, path, header_lines=header)
    assert path.read_bytes() == _reference_trajectory_csv(traj, header).encode()
