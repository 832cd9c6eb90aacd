"""Split-step integrator tests: exactness limits, convergence order, grid
invariance, conservation/growth rates, and the health monitors."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptnls import solver
from ptnls.analysis import default_scan_config, density_timeseries, drift_from_timeseries
from ptnls.catalog import CaseId, Kind, load_catalog
from ptnls.jetexpr import (JetBatch, ParamValues, Sym, eval_expr, expr_equiv, jet,
                           parse_expr)
from ptnls.solver import (SCHEMES, BlowUpError, BoundaryContaminationError, Gaussian,
                          Grid, SolverConfig, Stepper, fmt17, fmt17_array, initial_condition,
                          integrate, jet_values, make_stepper, resample, run,
                          stream_members, write_trajectory_csv)


def _linear_cfg(**kw):
    # eps = mu = 0 with the quadratic trap: the ground state is stationary
    base = dict(case_id=CaseId.CASE1A, params=ParamValues(eps=0.0, mu=0.0),
                dt=1e-3, T_final=1.0, grid=Grid(N=256),
                initial=Gaussian(math.pi ** -0.25, 1.0, 0.0))
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
    with pytest.raises(ValueError, match="integer multiple") as exc:
        SolverConfig(dt=1e-3, T_final=0.00250001)
    assert "T_final=0.00250001" in str(exc.value) and "dt=0.001" in str(exc.value)
    assert SolverConfig(dt=1e-3, T_final=2.0).steps == 2000
    with pytest.raises(ValueError, match="^scheme must be one of 'strang', 'suzuki4', "
                                         "got 'rk4'$"):
        SolverConfig(scheme="rk4")


def test_scheme_weights_are_consistent_and_symmetric():
    # a composition of Strang steps is consistent when its weights sum to 1
    # and symmetric when they read the same backwards; Suzuki's is fourth
    # order when, besides, the cubes of its weights sum to 0
    for name, weights in SCHEMES.items():
        assert weights == weights[::-1], name
        assert abs(math.fsum(weights) - 1.0) <= 1e-15, name
    assert abs(math.fsum(w ** 3 for w in SCHEMES["suzuki4"])) <= 1e-15


def test_initial_conditions():
    cfg = _linear_cfg()
    q = initial_condition(cfg)
    first = next(stream_members(cfg, [0.0], 1, [None]))
    assert first.t == 0.0 and np.array_equal(first.q[0], q)
    assert integrate(cfg.grid, np.abs(q) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert SolverConfig().initial == cfg.initial  # the default is the ground state
    gauss = initial_condition(_linear_cfg(initial=Gaussian(2.0, 0.5, 1.0)))
    peak = np.argmax(np.abs(gauss))
    assert abs(cfg.grid.x[peak] - 1.0) < cfg.grid.dx
    with pytest.raises(TypeError):
        initial_condition(_linear_cfg(initial="gaussian"))  # type: ignore[arg-type]


def test_zero_time_run_returns_initial_state_only():
    traj = run(_linear_cfg(T_final=0.0))
    assert len(traj.snapshots) == 1 and traj.snapshots[0].t == 0.0


# ---------------------------------------------------------------------------
# exactness and accuracy


def test_free_plane_wave_is_exact():
    # with a = b = nl = 0 every scheme is exact: the kinetic flows telescope
    grid = Grid(L=10.0, N=128)
    k = grid.k[5]
    exact = np.exp(1j * (k * grid.x - 0.5 * k ** 2 * 1.0))
    for weights in SCHEMES.values():
        stepper = Stepper(grid, 1e-2, 0.0, 0.0, 0.0, 0.0, weights)
        qhat = np.fft.fft(np.exp(1j * k * grid.x))
        for _ in range(100):
            qhat = stepper.step(qhat)
        assert np.max(np.abs(np.fft.ifft(qhat) - exact)) < 1e-12


def _fourth_order_configs(case_id, **kw):
    """The case's config at a fine fourth-order step on the default grid,
    then at the drift scans' own scheme, dt and grid."""
    scan = default_scan_config(case_id)
    return [SolverConfig(case_id=case_id, scheme="suzuki4", dt=5e-3, **kw),
            SolverConfig(case_id=case_id, scheme=scan.scheme, dt=scan.dt, grid=scan.grid, **kw)]


def test_linear_pt_mode_of_case1a_is_exact():
    # at mu = 0, x^2/2 + i eps x = (x + i eps)^2/2 + eps^2/2, so the ground
    # state shifted to x + i eps is a stationary mode with gain and loss:
    # q = pi^{-1/4} e^{-(x + i eps)^2/2} e^{-i (1/2 + eps^2/2) t}
    eps = np.array([0.0, 0.1, 0.3])
    for cfg in _fourth_order_configs(CaseId.CASE1A, params=ParamValues(mu=0.0), T_final=1.0):
        x = cfg.grid.x
        mode = math.pi ** -0.25 * np.exp(-(x + 1j * eps[:, None]) ** 2 / 2.0)
        stepper = make_stepper(cfg, eps)
        qhat = np.fft.fft(mode)
        for _ in range(cfg.steps):
            qhat = stepper.step(qhat)
        q = np.fft.ifft(qhat)
        exact = mode * np.exp(-1j * (0.5 + eps[:, None] ** 2 / 2.0) * cfg.T_final)
        assert np.max(np.abs(q - exact)) < 1e-10, cfg
        # the frequency without the eps^2/2 shift misses wherever there is gain
        unshifted = mode * np.exp(-0.5j * cfg.T_final)
        assert np.all(np.max(np.abs(q - unshifted), axis=-1)[1:] > 1e-3), cfg


def _nonlinear_pt_mode(case_id, x, eps, mu, sigma, alpha):
    """(q at t = 0, lambda) of the stationary mode rho e^{i theta} e^{-i lambda t}
    of case1b (n = 0) or case1c (n = 2), one row per eps: rho = c h_n(x)
    e^{-x^2/2} with h_0 = 1, h_2 = 2x^2 - 1, and theta' = 2 eps k h_n(x)
    e^{-(alpha+1) x^2/2}.  With sigma mu^2 c^2 = eps^2 k^2 the phase term
    cancels the nonlinear one, lambda = n + 1/2, and the continuity equation
    (rho^2 theta')' = 2 eps b rho^2 gives the case's b for k = 1 and k = 2."""
    beta = alpha + 1.0
    e = eps[:, None]
    # int_0^x e^{-beta s^2/2} ds
    gauss = (np.vectorize(math.erf)(x * math.sqrt(beta / 2.0))
             * math.sqrt(math.pi / (2.0 * beta)))
    amp = e / (mu * math.sqrt(sigma))
    if case_id is CaseId.CASE1B:
        return amp * np.exp(-x ** 2 / 2.0) * np.exp(2j * e * gauss), 0.5
    # (2x^2 - 1) e^{-beta x^2/2} = (2/beta - 1) e^{-beta x^2/2} - (2/beta) (x e^{-beta x^2/2})'
    theta = 4.0 * e * ((2.0 / beta - 1.0) * gauss - (2.0 / beta) * x * np.exp(-beta * x ** 2 / 2.0))
    return 2.0 * amp * (2.0 * x ** 2 - 1.0) * np.exp(-x ** 2 / 2.0) * np.exp(1j * theta), 2.5


def _mode_error(cfg, eps, mode, lam):
    """Each row of `mode` stepped to cfg.T_final, its largest distance from
    mode e^{-i lam T_final} over its largest amplitude."""
    stepper = make_stepper(cfg, eps)
    qhat = np.fft.fft(mode)
    for _ in range(cfg.steps):
        qhat = stepper.step(qhat)
    exact = mode * np.exp(-1j * lam * cfg.T_final)
    return np.max(np.abs(np.fft.ifft(qhat) - exact), axis=-1) / np.max(np.abs(exact), axis=-1)


@pytest.mark.parametrize("mu,sigma,alpha", [(1.0, 1.0, 0.5), (2.0, 1.0, 0.0)])
@pytest.mark.parametrize("case_id,gate", [(CaseId.CASE1B, 1e-9), (CaseId.CASE1C, 1e-7)])
def test_nonlinear_pt_modes_of_case1b_and_case1c_are_exact(case_id, gate, mu, sigma, alpha):
    eps = np.array([0.05, 0.1, 0.3])
    params = ParamValues(mu=mu, sigma=sigma, alpha=alpha)
    for cfg in _fourth_order_configs(case_id, params=params, T_final=1.0):
        mode, lam = _nonlinear_pt_mode(case_id, cfg.grid.x, eps, mu, sigma, alpha)
        assert np.all(_mode_error(cfg, eps, mode, lam) <= gate), cfg
        # the amplitude is fixed by eps: a larger one is not a stationary mode
        assert np.all(_mode_error(cfg, eps, 1.1 * mode, lam) > 5e-4), cfg


def test_uniform_field_follows_the_exact_pointwise_flow():
    # only k = 0 is present, so the kinetic factor is 1 and each step is the
    # exact flow of i q_t = (a + i g) q + nl |q|^2 q: rho0 e^{2 g t} and its
    # phase, whatever the substeps (Suzuki's middle one runs backwards)
    grid, dt, steps = Grid(L=10.0, N=64), 0.05, 40
    a, b, nl, eps = 0.7, 0.3, -1.5, np.array([0.0, 0.1, -0.2])  # eps = 0: phi(0)
    q0 = 0.8 - 0.6j
    t, g, rho0 = steps * dt, eps * b, abs(q0) ** 2
    growth = np.array([t if gi == 0 else math.expm1(2 * gi * t) / (2 * gi) for gi in g])
    rho = rho0 * np.exp(2 * g * t)
    phase = np.angle(q0) - a * t - nl * rho0 * growth
    exact = np.sqrt(rho) * np.exp(1j * phase)
    for weights in SCHEMES.values():
        stepper = Stepper(grid, dt, a, b, nl, eps, weights)
        qhat = np.fft.fft(np.full((eps.size, grid.N), q0))
        for _ in range(steps):
            qhat = stepper.step(qhat)
        assert np.max(np.abs(np.fft.ifft(qhat) / exact[:, None] - 1.0)) < 1e-12


def _count_ffts(monkeypatch) -> list:
    """Every later np.fft.fft and np.fft.ifft call, which the benchmark's
    tracer counts, appended to the returned list."""
    calls = []
    for name in ("fft", "ifft"):
        def counted(*args, _f=getattr(np.fft, name), **kwargs):
            calls.append(_f)
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.mark.parametrize("scheme,ffts", [("strang", 2), ("suzuki4", 10)])
def test_a_step_makes_two_ffts_per_substep(scheme, ffts, monkeypatch):
    cfg = SolverConfig(case_id=CaseId.CASE2, initial=Gaussian(1.0, 1.0, 0.5), scheme=scheme)
    stepper = make_stepper(cfg, [0.0, 0.01, 0.1, 1.0])
    qhat = np.fft.fft(np.tile(initial_condition(cfg), (4, 1)))
    calls = _count_ffts(monkeypatch)
    stepper.step(qhat)
    assert len(calls) == ffts == 2 * len(SCHEMES[scheme])


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_stream_steps_the_spectrum_and_transforms_each_sample_once(scheme, monkeypatch):
    # 10 steps sampled at t = 0, 4, 8 and 10 steps: one FFT of the initial
    # data, 2 per substep of each step, one inverse FFT per later sample
    cfg = SolverConfig(case_id=CaseId.CASE2, dt=1e-3, T_final=0.01, grid=Grid(N=256),
                       initial=Gaussian(1.0, 1.0, 0.5), scheme=scheme)
    eps, sample_every = [0.0, 0.1], 4
    q0 = np.tile(initial_condition(cfg), (len(eps), 1))
    stepper, qhat, by_hand = make_stepper(cfg, eps), np.fft.fft(q0), {}
    for n in range(1, cfg.steps + 1):
        qhat = stepper.step(qhat)
        if n % sample_every == 0 or n == cfg.steps:
            by_hand[n] = np.fft.ifft(qhat)
    calls = _count_ffts(monkeypatch)
    errors = [None] * len(eps)
    samples = list(stream_members(cfg, eps, sample_every, errors))
    assert errors == [None, None]
    assert len(calls) == 1 + 2 * len(SCHEMES[scheme]) * cfg.steps + (len(samples) - 1)
    assert [s.t for s in samples] == [n * cfg.dt for n in (0, 4, 8, 10)]
    assert np.array_equal(samples[0].q, q0)
    for sample, n in zip(samples[1:], (4, 8, 10)):
        assert list(sample.members) == [0, 1]
        assert np.array_equal(sample.q, by_hand[n])


def _reference_step(stepper, qhat):
    """Stepper.step as plain expressions: cos and sin of the whole phase,
    then out-of-place products in the order lin q rot and kinetic qhat."""
    for kinetic, lin, cub in zip(stepper.kinetic, stepper.lin, stepper.cub):
        q = np.fft.ifft(kinetic * qhat)
        phase = cub * (q.real ** 2 + q.imag ** 2)
        rot = np.empty_like(q)
        np.cos(phase, out=rot.real)
        np.sin(-phase, out=rot.imag)
        qhat = np.fft.fft(lin * q * rot)
    return stepper.kinetic[-1] * qhat


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_step_is_the_reference_step_bit_for_bit(scheme):
    # four Gaussian members, whose tails carry phases below 2^-27, then the
    # same stack with a member on a background, whose phase exceeds 2^-27 at
    # every node, and one with a NaN node
    grid, dt = Grid(N=256), 5e-3
    x = grid.x
    a, b, nl = x ** 2 / 2.0, x * np.exp(-x ** 2 / 2.0), -1.0 - np.exp(-0.5 * x ** 2)
    eps = np.array([0.0, 0.01, 0.1, 1.0, 0.1, 0.1])
    q0 = np.tile(np.exp(-(x - 0.5) ** 2 / 2.0).astype(complex), (len(eps), 1))
    q0[4] += 0.5
    q0[5, 100] = np.nan
    for rows in ([0, 1, 2, 3], [0, 1, 2, 3, 4, 5]):
        stepper = Stepper(grid, dt, a, b, nl, eps[rows], SCHEMES[scheme])
        phase = np.abs(stepper.cub[0] * np.abs(q0[rows]) ** 2)
        if len(rows) == 4:
            assert np.mean(phase < 2.0 ** -27) > 0.5  # most nodes take (1, -phase)
        else:
            assert np.all(phase[4] >= 2.0 ** -27) and np.isnan(phase[5]).any()
        qhat = ref = np.fft.fft(q0[rows])
        for _ in range(300):
            arg, before = qhat, qhat.copy()
            qhat, ref = stepper.step(arg), _reference_step(stepper, ref)
            assert np.array_equal(_bits(qhat), _bits(ref))
            assert np.array_equal(_bits(arg), _bits(before))  # the argument is not written
        assert np.isfinite(qhat[:5]).all() and np.isnan(qhat[5:]).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_stream_is_the_reference_stream_bit_for_bit(scheme, monkeypatch):
    # the last member's gain overflows |q|^2 mid-run: an inf phase makes a
    # NaN node, and the member must fail at the same step either way
    cfg = SolverConfig(case_id=CaseId.CASE2, dt=5e-3, T_final=1.5, grid=Grid(N=256),
                       initial=Gaussian(1.0, 1.0, 0.5), scheme=scheme)
    eps = [0.0, 0.01, 0.1, 1.0, 500.0]
    runs = []
    for step in (Stepper.step, _reference_step):
        monkeypatch.setattr(Stepper, "step", step)
        errors = [None] * len(eps)
        with np.errstate(over="ignore", invalid="ignore"):
            samples = list(stream_members(cfg, eps, 10, errors))
        runs.append((samples, errors))
    (new, new_errors), (ref, ref_errors) = runs
    assert cfg.steps >= 300
    assert new_errors[:4] == [None] * 4 and isinstance(new_errors[4], BlowUpError)
    assert type(ref_errors[4]) is BlowUpError and ref_errors[4].t == new_errors[4].t
    assert 0.5 < new_errors[4].t < cfg.T_final
    assert [(s.t, list(s.members)) for s in new] == [(s.t, list(s.members)) for s in ref]
    assert all(np.array_equal(_bits(a.q), _bits(b.q)) for a, b in zip(new, ref))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_a_yielded_sample_is_never_written(scheme):
    # every sample of a stream, one member failing on the way, kept to the end
    cfg = SolverConfig(case_id=CaseId.CASE2, dt=5e-3, T_final=1.5, grid=Grid(N=256),
                       initial=Gaussian(1.0, 1.0, 0.5), scheme=scheme)
    eps = [0.0, 0.1, 500.0, 1.0]
    errors = [None] * len(eps)
    kept = []
    with np.errstate(over="ignore", invalid="ignore"):
        for sample in stream_members(cfg, eps, 1, errors):
            kept.append((sample, sample.q.copy()))
    assert isinstance(errors[2], BlowUpError) and len(kept) == cfg.steps + 1
    assert all(np.array_equal(_bits(s.q), _bits(copy)) for s, copy in kept)


def test_norm_is_conserved_without_gain():
    # at eps = 0 the nonlinear flow and the kinetic steps are both unitary, so
    # only rounding moves the norm: at most about one ulp per FFT, 2 per
    # Strang step on the held spectrum (5000 bare FFT round trips at N = 512
    # already drift it by ~3e-13; this run drifts 3.1e-13, 0.28 ulp per step).
    # RK4 on the pointwise flow drifted 2.7e-9 on this run.
    cfg = SolverConfig(case_id=CaseId.CASE2, params=ParamValues(eps=0.0), dt=4e-3,
                       T_final=20.0, grid=Grid(N=512), initial=Gaussian(1.0, 1.0, 0.5))
    norms = [integrate(cfg.grid, np.abs(s.q[0]) ** 2)
             for s in run(cfg, sample_every=500).snapshots]
    assert len(norms) == 11 and cfg.steps == 5000
    assert max(abs(n / norms[0] - 1.0) for n in norms) < 2 * cfg.steps * np.finfo(float).eps


def test_ground_state_is_stationary():
    cfg = _linear_cfg(T_final=1.0)
    traj = run(cfg)
    final = traj.snapshots[-1]
    exact = initial_condition(cfg) * np.exp(-0.5j * final.t)
    assert np.max(np.abs(final.q[0] - exact)) < 1e-6


def test_second_order_in_time():
    # Richardson: halving dt cuts the error by ~4 on a nonlinear run
    def final_q(dt):
        cfg = SolverConfig(params=ParamValues(eps=0.0), dt=dt, T_final=0.5,
                           grid=Grid(N=256))
        return run(cfg, sample_every=10 ** 9).snapshots[-1].q[0]

    ref = final_q(2.5e-4)
    e1 = np.max(np.abs(final_q(2e-3) - ref))
    e2 = np.max(np.abs(final_q(1e-3) - ref))
    assert 3.3 < e1 / e2 < 4.7


@pytest.mark.parametrize("scheme,ratio", [("strang", 4.0), ("suzuki4", 16.0)])
def test_energy_floor_falls_with_the_order_of_the_scheme(scheme, ratio):
    # at eps = 0 the energy drift is pure splitting error, O(dt^2) for Strang
    # and O(dt^4) for Suzuki: halving dt divides it by about 2^order
    def floor(dt):
        cfg = SolverConfig(case_id=CaseId.CASE2, params=ParamValues(eps=0.0), dt=dt,
                           T_final=1.0, grid=Grid(N=256), initial=Gaussian(1.0, 1.0, 0.5),
                           scheme=scheme)
        traj = run(cfg, sample_every=int(round(0.05 / dt)))  # the same 21 times
        return drift_from_timeseries(density_timeseries(traj, CaseId.CASE2, Kind.ENERGY))[1]

    assert floor(5e-3) / floor(2.5e-3) == pytest.approx(ratio, rel=0.15)


def _pt(q):
    """PT on the cell-centred grid: x -> -x reverses the nodes, t -> -t conjugates."""
    return np.conj(q[..., ::-1])


def _pt_round_trip(stepper, q0, steps):
    """PT S^n PT S^n q0, which is q0 when PT S PT = S^{-1}; the stepper
    steps spectra, and PT acts on the field between the legs."""
    q = q0
    for _ in range(2):
        qhat = np.fft.fft(q)
        for _ in range(steps):
            qhat = stepper.step(qhat)
        q = _pt(np.fft.ifft(qhat))
    return q


PT_EPS = [0.0, 0.05, 0.3]


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("case_id", list(CaseId), ids=lambda c: c.value)
def test_pt_round_trip_returns_the_initial_data(case_id, scheme):
    # every a(x) is even, every b(x) odd and e^{-alpha x^2} even, so PT maps
    # solutions to solutions; each exact substep flow F_h obeys PT F_h PT =
    # F_{-h}, so a symmetric composition S obeys PT S PT = S^{-1} to rounding
    # (at N = 512 the eps = 0.3 case1c run is under-resolved: its max |q| at
    # T = 1 swings from 14 to 56 with dt, and the backward leg amplifies
    # rounding up to O(1); at N = 2048 it is 7.8 to 9.8 for every dt)
    cfg = SolverConfig(case_id=case_id, dt=5e-3, T_final=1.0, grid=Grid(N=2048),
                       initial=Gaussian(1.0, 1.0, 0.5), scheme=scheme)
    q0 = np.tile(initial_condition(cfg), (len(PT_EPS), 1))
    back = _pt_round_trip(make_stepper(cfg, PT_EPS), q0, cfg.steps)
    rel = np.max(np.abs(back - q0), axis=-1) / np.max(np.abs(q0), axis=-1)
    assert np.all(rel < 1e-10), rel


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_pt_round_trip_sees_an_even_gain(scheme):
    # with b even PT is no symmetry, and the round trip misses by O(eps)
    grid, dt = Grid(), 5e-3
    x = grid.x
    q0 = np.tile(np.exp(-(x - 0.5) ** 2 / 2.0).astype(complex), (len(PT_EPS), 1))
    rel = []
    for b in (x * np.exp(-x ** 2 / 2.0), np.abs(x) * np.exp(-x ** 2 / 2.0)):
        stepper = Stepper(grid, dt, x ** 2 / 2.0, b, -np.exp(-0.5 * x ** 2), PT_EPS,
                          SCHEMES[scheme])
        back = _pt_round_trip(stepper, q0, 200)
        rel.append(np.max(np.abs(back - q0), axis=-1))
    odd, even = rel
    assert np.all(odd < 1e-10)
    assert even[0] < 1e-10 and np.all(even[1:] > 1e-3)


def test_resolution_doubling_changes_nothing():
    # half-cell offset grids share no nodes, so compare via the interpolant
    def final(N):
        cfg = SolverConfig(params=ParamValues(eps=0.0), dt=1e-3, T_final=0.5,
                           grid=Grid(N=N))
        return run(cfg, sample_every=10 ** 9).snapshots[-1].q[0]

    coarse, fine = final(256), final(512)
    moved = resample(fine, Grid(N=512), Grid(N=256))
    assert np.max(np.abs(moved - coarse)) < 1e-10


def _resample_dense(q, src, grid):
    """The trigonometric interpolant summed at every node of `grid`, a
    (src.N, grid.N) matrix: the reference for the FFT resampling."""
    c = np.fft.fft(q) / src.N
    return c @ np.exp(1j * np.outer(src.k, grid.x - src.x[0]))


@pytest.mark.parametrize("n_src,n_dst", [(512, 1024), (1024, 512), (256, 2048),
                                         (2048, 256), (128, 128), (64, 4096)])
def test_resample_is_the_dense_interpolant(n_src, n_dst):
    src, dst = Grid(N=n_src), Grid(N=n_dst)
    rng = np.random.default_rng(n_src + n_dst)
    noise = 1e-3 * (rng.standard_normal((2, n_src)) + 1j * rng.standard_normal((2, n_src)))
    x = src.x
    q = np.stack([np.exp(-x ** 2 / 2.0) * (1.0 + 0.3j * np.sin(x)),
                  (2.0 - 1j) * x * np.exp(-(x - 1.0) ** 2)]) + noise
    for field in (q[0], q):
        out = resample(field, src, dst)
        assert out.shape == field.shape[:-1] + (n_dst,)
        assert np.max(np.abs(out - _resample_dense(field, src, dst))) <= 1e-13 * np.max(np.abs(field))


def test_resample_is_exact_on_band_limited_data():
    src = Grid(L=10.0, N=128)
    q = np.exp(1j * src.k[3] * src.x) + 0.5 * np.exp(1j * src.k[-7] * src.x)
    for N in (64, 256):
        dst = Grid(L=10.0, N=N)
        out = resample(q, src, dst)
        exact = np.exp(1j * src.k[3] * dst.x) + 0.5 * np.exp(1j * src.k[-7] * dst.x)
        assert np.max(np.abs(out - exact)) < 1e-12
        # each row of a stack is resampled on its own
        rows = resample(np.stack([q, -2j * q]), src, dst)
        assert rows.shape == (2, N)
        assert np.max(np.abs(rows - [exact, -2j * exact])) < 1e-12
    with pytest.raises(ValueError, match="half-width"):
        resample(q, src, Grid(L=12.0, N=128))


def test_norm_growth_rate_matches_gain_profile():
    # d/dt int |q|^2 = 2 eps int b |q|^2 at leading order
    cfg = SolverConfig(params=ParamValues(eps=0.01), dt=1e-4, T_final=0.01,
                       grid=Grid(N=256), initial=Gaussian(1.0, 1.0, 0.5))
    traj = run(cfg, sample_every=50)
    q0, q1 = traj.snapshots[0], traj.snapshots[-1]
    rate = (integrate(cfg.grid, np.abs(q1.q[0]) ** 2)
            - integrate(cfg.grid, np.abs(q0.q[0]) ** 2)) / cfg.T_final
    mid = traj.snapshots[1]  # t = 0.005
    b = cfg.grid.x  # case1a gain profile
    pred = 2.0 * cfg.params.eps * integrate(cfg.grid, b * np.abs(mid.q[0]) ** 2)
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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_sample_whose_inverse_fft_overflows_is_a_blow_up(monkeypatch):
    # a finite spectrum can still give a non-finite field: 1e306 in each of
    # the 256 modes sums past the largest float at node 0
    class Focusing:
        def step(self, qhat):
            return np.full_like(qhat, 1e306)

    monkeypatch.setattr(solver, "make_stepper", lambda cfg, eps: Focusing())
    cfg = _linear_cfg(dt=1e-3, T_final=0.004)
    errors = [None]
    with np.errstate(over="ignore", invalid="ignore"):
        samples = list(stream_members(cfg, [0.0], 2, errors))
    assert [s.t for s in samples] == [0.0]
    assert isinstance(errors[0], BlowUpError) and errors[0].t == 2 * cfg.dt


def test_boundary_contamination_is_an_error():
    cfg = _linear_cfg(T_final=0.0, initial=Gaussian(1.0, 1.0, 18.0))
    with pytest.raises(BoundaryContaminationError):
        run(cfg)


@pytest.mark.filterwarnings("ignore:boundary amplitude at:RuntimeWarning")
def test_failed_member_leaves_the_others_bit_identical():
    # in a small box the largest gain reaches the boundary bound; its row sits
    # between two members that finish, so the rows left behind must realign
    # in every substep's arrays
    for scheme in SCHEMES:
        cfg = SolverConfig(dt=1e-3, T_final=1.0, grid=Grid(L=6.0, N=128),
                           initial=Gaussian(1.0, 1.0, 0.5), scheme=scheme)
        eps = [0.01, 1.0, 0.0]
        errors = [None] * len(eps)
        kept = [[] for _ in eps]  # (t, q) of each member's samples
        for sample in stream_members(cfg, eps, 50, errors):
            for row, m in enumerate(sample.members):
                kept[m].append((sample.t, sample.q[row]))
        with pytest.raises(BoundaryContaminationError) as exc:
            run(replace(cfg, params=cfg.params.replace(eps=1.0)))
        assert isinstance(errors[1], BoundaryContaminationError)
        assert (errors[1].t, str(errors[1])) == (exc.value.t, str(exc.value))
        for m in (0, 2):
            alone = run(replace(cfg, params=cfg.params.replace(eps=eps[m])))
            assert errors[m] is None
            assert [t for t, _ in kept[m]] == [s.t for s in alone.snapshots]
            assert all(np.array_equal(q, s.q[0])
                       for (_, q), s in zip(kept[m], alone.snapshots))


def test_boundary_proximity_warns_once():
    cfg = _linear_cfg(dt=1e-3, T_final=0.01, initial=Gaussian(1.0, 1.0, 14.0))
    with pytest.warns(RuntimeWarning, match="boundary amplitude") as rec:
        run(cfg, sample_every=1)
    [w] = [w for w in rec if "boundary" in str(w.message)]
    assert w.filename == __file__  # the caller of run, not a frame of the stream


# ---------------------------------------------------------------------------
# jets on the grid


def _on_shell_rates(t, q, cfg):
    """u_t and v_t of the field q at time t from the catalog's E1/E2, put on shell."""
    system = load_catalog().build_system(cfg.case_id)
    batch = JetBatch(np.full(cfg.grid.N, t), cfg.grid.x, jet_values(q, cfg.grid))
    return [eval_expr(system.on_shell(jet(dep, 1, 0)), batch, cfg.params) for dep in "uv"]


def test_jet_values_ground_state_analytic():
    cfg = _linear_cfg()
    q = initial_condition(cfg)
    jets = jet_values(q, cfg.grid)
    assert set(jets) == {jet(dep, 0, k) for dep in "uv" for k in range(3)}
    x = cfg.grid.x
    phi = math.pi ** -0.25 * np.exp(-x ** 2 / 2.0)
    assert np.max(np.abs(jets[jet("u", 0, 1)] + x * phi)) < 1e-10
    assert np.max(np.abs(jets[jet("u", 0, 2)] - (x ** 2 - 1.0) * phi)) < 1e-10
    # q = phi e^{-it/2}: u_t = 0 and v_t = -phi/2
    u_t, v_t = _on_shell_rates(0.0, q, cfg)
    assert np.max(np.abs(u_t)) < 1e-10
    assert np.max(np.abs(v_t + 0.5 * phi)) < 1e-10


@pytest.mark.parametrize("orders", [(0,), (2,), (0, 2), (1, 2)])
def test_jet_values_takes_only_the_asked_orders(orders):
    # each order asked for is the full call's array, bit for bit
    cfg = _linear_cfg()
    q = np.stack([initial_condition(cfg), 1j * initial_condition(cfg)])
    full, some = jet_values(q, cfg.grid), jet_values(q, cfg.grid, orders)
    assert set(some) == {jet(dep, 0, k) for dep in "uv" for k in orders}
    for c, a in some.items():
        assert np.array_equal(a.view(np.uint64), full[c].view(np.uint64))
    with pytest.raises(ValueError, match="jet orders"):
        jet_values(q, cfg.grid, (0, 3))


@pytest.mark.parametrize("case_id", list(CaseId), ids=lambda c: c.value)
def test_jet_time_derivatives_match_finite_differences(case_id):
    # the stepper's trajectory against u_t and v_t from the catalog's E1/E2
    cfg = SolverConfig(case_id=case_id, params=ParamValues(eps=0.03, mu=0.8),
                       dt=1e-4, T_final=2e-4, grid=Grid(N=256))
    before, middle, after = run(cfg, sample_every=1).snapshots
    fd = (after.q[0] - before.q[0]) / (2.0 * cfg.dt)
    u_t, v_t = _on_shell_rates(middle.t, middle.q[0], cfg)
    assert np.max(np.abs(u_t - fd.real)) < 1e-6
    assert np.max(np.abs(v_t - fd.imag)) < 1e-6


@pytest.mark.parametrize("case_id", list(CaseId), ids=lambda c: c.value)
def test_catalog_system_is_what_the_stepper_integrates(case_id):
    # q_t = (eps b - i (a + nl |q|^2)) q + i/2 q_xx, nl = -mu^2 * coeff,
    # split into real parts from the case's a, b and coefficient records
    case = load_catalog().case(case_id)
    u, v, u_t, v_t = jet("u"), jet("v"), jet("u", 1, 0), jet("v", 1, 0)
    gain = Sym("eps") * case.b
    phase = case.a - Sym("mu") ** 2 * case.nonlinearity_coeff * (u ** 2 + v ** 2)
    rate_u = gain * u + phase * v - parse_expr("1/2*v_xx")
    rate_v = gain * v - phase * u + parse_expr("1/2*u_xx")
    system = load_catalog().build_system(case_id)
    params = ParamValues(eps=0.3, mu=0.7, sigma=1.3, alpha=0.4, g=0.9)
    assert expr_equiv(system.E1, u_t - rate_u, params=params)
    assert expr_equiv(system.E2, rate_v - v_t, params=params)


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
    for (t, x, re, im), xj, qj in zip(rows[2 * 64:], cfg.grid.x, state.q[0]):
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
        for xj, qj in zip(cfg.grid.x, state.q[0]):
            out.append(f"{f(state.t)},{f(xj)},{f(qj.real)},{f(qj.imag)}\n")
    return "".join(out)


# values where a 17-digit conversion is easy to get wrong: an exact tie
# (1 + 2^-17 ends in ...3125 at the 18th digit), the decade edges next to
# 1e16, 1e17 and 1e-4 (where %g switches notation), the smallest subnormal,
# the largest double and both zeros; then three near-ties that a longdouble
# product gets wrong (the first lands on an exact .5) and two doubles just
# below 10^k whose log10 rounds up to k
FMT17_EDGES = [1 + 2.0 ** -17, 0.5, 1e16, 99999999999999999.0, 9.9999999999999999e-5,
               1e-5, 5e-324, np.finfo(float).max, 0.0, -0.0,
               8.894385665401405, 6.756210886489721e-276, 4.68264621554586e+47,
               1e-298, 9.999999999999999e-294]


def test_trajectory_csv_matches_the_row_by_row_writer(tmp_path):
    cfg = _linear_cfg(grid=Grid(L=7.5, N=64), params=ParamValues(eps=0.1 + 0.2),
                      dt=1e-3, T_final=3e-3)
    traj = run(cfg, sample_every=1)
    odd = traj.snapshots[1].q[0].copy()
    edges = np.array(FMT17_EDGES)
    odd[:6] = [-0.0, complex(5e-324, -0.0), complex(1e300, -1e300),
               complex(-2.2250738585072014e-308, 1 / 3), 1e-5j, complex(123456789.0, -1e22)]
    odd[6:6 + len(edges)] = edges - 1j * edges[::-1]
    traj.snapshots[1] = replace(traj.snapshots[1], t=0.1 + 0.2, q=odd[None])
    path = tmp_path / "traj.csv"
    header = ["seed=0", "note=x,y 100%"]
    write_trajectory_csv(traj, path, header_lines=header)
    assert path.read_bytes() == _reference_trajectory_csv(traj, header).encode()


def _format17(values) -> list[str]:
    return [format(v, ".17g") for v in np.asarray(values, float).tolist()]


def _fmt17_array(values) -> list[str]:
    return [b.decode() for b in fmt17_array(np.asarray(values, float)).tolist()]


def test_fmt17_array_matches_format_on_the_edges():
    edges = FMT17_EDGES + [-v for v in FMT17_EDGES]
    assert _fmt17_array(edges) == _format17(edges)
    assert _fmt17_array([]) == []
    # a stack is formatted in its flat order
    assert _fmt17_array(np.reshape(edges, (2, -1))) == _format17(edges)


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="longdouble is a double here")
def test_fmt17_array_formats_most_values_without_format():
    # only values near a rounding boundary (the tie among them), zeros and
    # non-finite values are left to the one formatting call that ends
    # fmt17_array
    values = np.random.default_rng(3).standard_normal(1000)
    assert _fmt17_array(values) == _format17(values)
    assert np.count_nonzero(~solver._fmt17_digits(values)[1]) < 50
    odd = [1 + 2.0 ** -17, 0.0, np.nan, 0.3]
    assert _fmt17_array(odd) == ["1.0000076293945312", "0", "nan", "0.29999999999999999"]
    assert solver._fmt17_digits(np.array(odd))[1].tolist() == [False, False, False, True]


def test_fmt17_array_formats_a_mixed_array_as_fmt17_each():
    # the batched fallback keeps every element in its place: signed zeros
    # and infinities, nan, subnormals, decade edges and exact ties among
    # ordinary values
    mixed = ([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320,
              np.nextafter(2.2250738585072014e-308, 0.0)]
             + FMT17_EDGES + [1e22, 1e23, -1e-5, 1e-4, 0.5, -8.894385665401405, 2.0 ** 60]
             + np.random.default_rng(5).standard_normal(40).tolist())
    values = np.array(mixed)
    values = np.concatenate([values, -values[::-1]])
    assert _fmt17_array(values) == [fmt17(float(v)) for v in values]
    assert np.count_nonzero(~solver._fmt17_digits(values)[1]) >= 16


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_fmt17_array_is_format_17g_on_floats(values):
    assert _fmt17_array(values) == _format17(values)


# raw float64 bit patterns: the sign, an exponent field that hits the
# subnormals (0) and the infinities and nans (2047) often, and any mantissa
_BIT_PATTERNS = st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
                          st.integers(0, 1),
                          st.one_of(st.sampled_from([0, 1, 2046, 2047]), st.integers(0, 2047)),
                          st.integers(0, 2 ** 52 - 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_BIT_PATTERNS, min_size=1, max_size=40))
@example([0x7FF8000000000000, 0xFFF0000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF])
def test_fmt17_array_is_format_17g_on_bit_patterns(bits):
    values = np.array(bits, np.uint64).view(float)
    assert _fmt17_array(values) == _format17(values)
