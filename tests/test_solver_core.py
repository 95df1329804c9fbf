import collections
import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from swarmpde import diagnostics, solver_core
from swarmpde.age_discretization import (
    RegularizedModel,
    build_age_grid,
    regularize,
    theta_cutoff,
)
from swarmpde.diagnostics import DiagnosticsRecorder
from swarmpde.errors import StepBudgetExceeded, UnstableStep
from swarmpde.model_spec import exponential_family
from swarmpde.solver_core import (
    MAX_STEPS,
    RunSetup,
    SimState,
    StepResult,
    boundary_inflow,
    check_budget,
    initial_state,
    run,
    stable_dt,
    step,
    step_coefficients,
    step_plan,
)
from swarmpde.spatial_grid import (
    SpatialGrid,
    div_flux,
    drift_diffusion_div,
    drift_faces,
    face_diff,
    face_mean,
    flux_weights,
    harmonic_mean,
    laplacian,
)

from conftest import (
    face_term_scale,
    make_spec,
    steep_switch,
    strided_div,
    strided_faces,
    strided_harmonic_mean,
    whole_box_Xi,
)


def _setup(spec, alpha, a_max, cells, u0=None, v0=None, **kw):
    grid = build_age_grid(spec, alpha=alpha, a_max=a_max)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(1.0,), cells=(cells,))
    if u0 is None:
        u0 = np.zeros((grid.I,) + sgrid.shape)
    if v0 is None:
        v0 = np.zeros(sgrid.shape)
    return RunSetup(spec=spec, agegrid=grid, reg=reg, sgrid=sgrid,
                    u0=u0, v0=v0, **kw)


def test_boundary_inflow_negative_swimmers():
    reg = regularize(make_spec(xi=steep_switch(0.5)), 0.5)
    v = np.full(4, -1.0)
    assert np.all(boundary_inflow(v, reg) == 0.0)


def test_boundary_inflow_plateau():
    reg = regularize(make_spec(xi=steep_switch(0.5)), 0.5)
    v = np.full(4, 2.0)
    assert np.allclose(boundary_inflow(v, reg), 1.0, atol=1e-15)
    assert np.all(boundary_inflow(np.zeros(4), reg) == 0.0)


def _const(value):
    return lambda r, *rest: np.full(np.broadcast(np.asarray(r), *rest).shape, value)


def test_stable_dt_formula():
    # coarse mesh, D_a = alpha: the age-transport term alpha/2 binds
    spec = make_spec(D=_const(0.0))
    alpha = 0.5
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(8.0,), cells=(4,))
    state = initial_state(np.zeros((grid.I, 4)), np.zeros(4), grid)
    dx = 2.0
    assert 1.0 / (1.0 / alpha + 0.3 + 2.0 * alpha / dx**2) > alpha / 2.0
    assert stable_dt(state, grid, reg, sgrid) == pytest.approx(0.9 * alpha / 2.0, rel=1e-12)


def test_stable_dt_quadruples_with_dx():
    # constant drift coefficient E = 1 on a homogeneous biomass: no face
    # velocity, but the shadow's effective diffusivity D_a + biomass*E
    # binds, so the bound scales with dx^2
    spec = make_spec(D=_const(0.5), E=_const(1.0))
    alpha = 0.5
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    reg = regularize(spec, alpha)
    dts = []
    for cells in (10, 5):
        sgrid = SpatialGrid(extents=(1.0,), cells=(cells,))
        state = initial_state(np.ones((grid.I, cells)), np.zeros(cells), grid)
        lam = float(state.lambda_rec[0])
        dx = 1.0 / cells
        dt = stable_dt(state, grid, reg, sgrid)
        assert dt == pytest.approx(0.9 * dx**2 / (2.0 * (1.0 + lam)), rel=1e-12)
        dts.append(dt)
    assert dts[1] / dts[0] == pytest.approx(4.0, rel=1e-12)


def test_stable_dt_zero_state():
    # D_a = alpha at zero biomass, no drift: the strict convex-combination
    # rate 1/alpha + M + 2 D_a/dx^2 binds
    spec = make_spec(D=lambda r: np.maximum(r, 0.0))
    alpha = 0.5
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(1.0,), cells=(10,))
    state = initial_state(np.zeros((grid.I, 10)), np.zeros(10), grid)
    dx = 0.1
    expected = 0.9 / (1.0 / alpha + 0.3 + 2.0 * alpha / dx**2)
    assert stable_dt(state, grid, reg, sgrid) == pytest.approx(expected, rel=1e-12)


def test_stable_dt_anisotropic_2d():
    # dx0 = 0.1, dx1 = 1: the per-axis diffusion term of the fine axis binds
    spec = make_spec(D=_const(0.5))
    alpha = 0.5
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(1.0, 4.0), cells=(10, 4))
    state = initial_state(np.zeros((grid.I, 10, 4)), np.zeros((10, 4)), grid)
    dx0 = 0.1
    expected = 0.9 * dx0**2 / (2.0 * 2 * 1.0)
    assert 1.0 / (1.0 / alpha + 0.3 + 2.0 / dx0**2 + 2.0 / 1.0) > dx0**2 / 4.0
    assert stable_dt(state, grid, reg, sgrid) == pytest.approx(expected, rel=1e-12)


def _old_bounds(state, grid, reg, sgrid):
    """The two bounds the solver used to intersect, written out."""
    lam, v, dim = state.lambda_rec, state.v, sgrid.dim
    Da, E_cell = reg.D_alpha(lam), reg.E_alpha(lam, v)
    d_max = [float(np.max(face_mean(Da, sgrid, ax))) for ax in range(dim)]
    w_max = [float(np.max(np.abs(face_mean(E_cell, sgrid, ax) * face_diff(lam, sgrid, ax)),
                          initial=0.0)) for ax in range(dim)]
    published = [reg.alpha / 2.0]
    rate = 1.0 / reg.alpha + grid.M
    rate_shadow = 0.0
    eff_max = float(np.max(Da + np.maximum(lam, 0.0) * E_cell))
    for ax, dx in enumerate(sgrid.dx):
        published.append(dx * dx / (2.0 * dim * max(d_max[ax], 1e-300)))
        published.append(dx / w_max[ax] if w_max[ax] > 0.0 else math.inf)
        published.append(dx * dx / (2.0 * dim * reg.alpha))
        rate += 2.0 * d_max[ax] / (dx * dx) + 2.0 * w_max[ax] / dx
        rate_shadow += 2.0 * eff_max / (dx * dx)
    return 0.9 * min(published), 0.9 / max(rate, rate_shadow)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    alpha=st.sampled_from([0.5, 0.25, 0.125]),
    dim=st.integers(1, 2),
    cells=st.integers(8, 20),
    amp=st.floats(0.0, 1.0),
    v_amp=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**16),
)
def test_stable_dt_is_old_minimum_and_keeps_positivity(alpha, dim, cells, amp, v_amp, seed):
    # rough cellwise data with empty cells is the worst case for the
    # convex-combination condition; amplitudes reach the initial cap
    spec = exponential_family(tau=2.0, D0=0.1, theta=2.0)
    grid = build_age_grid(spec, alpha=alpha, a_max=2.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(4.0,) * dim, cells=(cells,) + (cells + 3,) * (dim - 1))
    rng = np.random.default_rng(seed)
    shape = (grid.I,) + sgrid.shape
    u0 = amp / (4.0 * alpha**2) * rng.random(shape) * (rng.random(shape) > 0.3)
    state = initial_state(u0, v_amp * rng.random(sgrid.shape), grid)
    coeffs = step_coefficients(state, grid, reg, sgrid)
    dt = coeffs.dt_max
    assert dt == stable_dt(state, grid, reg, sgrid)
    assert dt == min(_old_bounds(state, grid, reg, sgrid))
    _, res = step(state, dt, grid, reg, sgrid, coeffs, step_plan(grid, sgrid))
    assert res.min_u >= -1e-12 and res.min_v >= -1e-12


def _with_own_u(state):
    # step consumes its input's bins: the copy it steps leaves ``state``
    # as it was, for the reference
    return dataclasses.replace(state, u=state.u.copy())


def _reference_step(state, dt, grid, reg, sgrid):
    """One explicit step written out from the public operators in the
    solver's operation order: the bin flux rebuilds its weights, merged
    when every bin lies on the cutoff plateau and split with an
    always-evaluated cutoff otherwise; the Euler update in its fused form
    f (1 - dt/alpha - dt mu_i) + dt div + (dt/alpha) u_prev."""
    I, alpha = grid.I, grid.alpha
    u, v, lam, lam_ev = state.u, state.v, state.lambda_rec, state.lambda_ev
    plateau = alpha**2 * u.max() <= 0.5
    weights = drift_faces(reg.D_alpha(lam), reg.E_alpha(lam, v), lam, sgrid, merged=plateau)
    q = u if plateau else u * theta_cutoff(alpha**2 * u)
    div_u = drift_diffusion_div(u, q, weights, sgrid)
    assert np.array_equal(div_flux(u, lam, v, reg, sgrid), div_u)
    inflow = boundary_inflow(v, reg)
    u_prev = np.concatenate([inflow[None], u[:-1]], axis=0)
    mu_i = grid.mu[:I].reshape((I,) + (1,) * sgrid.dim)
    new_u = u * (1.0 - dt / alpha - dt * mu_i) + dt * div_u + (dt / alpha) * u_prev
    lap_v = laplacian(v, sgrid)
    source_v = (np.asarray(reg.spec.g(v), dtype=float) - reg.xi_alpha(v)) * v
    source_v += alpha * np.tensordot(grid.b[:I] * grid.mu[:I], u, axes=(0, 0))
    new_v = v + dt * (alpha * lap_v + source_v)
    D_ev, E_ev = reg.D_alpha(lam_ev), reg.E_alpha(lam_ev, v)
    ev_weights = flux_weights([(harmonic_mean(D_ev, sgrid, ax),
                                face_mean(E_ev, sgrid, ax) * face_diff(lam_ev, sgrid, ax))
                               for ax in range(sgrid.dim)], sgrid, merged=False)
    div_ev = drift_diffusion_div(lam_ev, lam, ev_weights, sgrid)
    source_ev = grid.lam[0] * inflow
    source_ev += alpha * np.tensordot(grid.lam_star - grid.mu[:I] * grid.lam[:I], u,
                                      axes=(0, 0))
    source_ev -= grid.lam[I] * u[I - 1]
    new_ev = lam_ev + dt * (div_ev + source_ev)
    min_u, min_v, max_v = float(new_u.min()), float(new_v.min()), float(new_v.max())
    new_u, new_v = np.maximum(new_u, 0.0), np.maximum(new_v, 0.0)
    new_rec = alpha * np.tensordot(grid.lam[:I], new_u, axes=(0, 0))
    vol = sgrid.cell_volume
    cons = max(float(np.max(np.abs(div_u.reshape(I, -1).sum(axis=1)))),
               abs(float(lap_v.sum())), abs(float(div_ev.sum()))) * vol
    abs_div = 0.0
    for total in np.abs(div_u).reshape(I, -1).sum(axis=1).tolist():
        abs_div += total  # bin by bin, in order
    cons_scale = max(abs_div * vol, float(np.sum(np.abs(lap_v))) * vol, 1e-300)
    activations = int(np.count_nonzero(alpha * alpha * new_u > 0.5))
    result = StepResult(min_u=min_u, min_v=min_v, max_v=max_v,
                        conservation_residual=cons / cons_scale)
    return new_u, new_v, new_rec, new_ev, activations, result


@pytest.mark.parametrize("cells", [(16,), (10, 7)], ids=["1d", "2d"])
@pytest.mark.parametrize("top", [0.3, 0.8], ids=["plateau", "cutoff"])
def test_step_matches_former_formula_within_roundoff(cells, top):
    # the step against the formula it replaced (the strided kernel with
    # a donor mask, u + dt (div - (u - u_prev)/alpha - mu u)): v is
    # bitwise the same, u and the shadow biomass agree within a few ulp
    # of each cell's summed absolute terms
    spec = exponential_family(tau=2.0, D0=0.1, theta=2.0)
    alpha = 0.25
    grid = build_age_grid(spec, alpha=alpha, a_max=2.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(4.0,) * len(cells), cells=cells)
    rng = np.random.default_rng(19)
    shape = (grid.I,) + cells
    u0 = top / alpha**2 * rng.random(shape) * (rng.random(shape) > 0.2)
    seed = initial_state(u0, 0.5 * rng.random(cells), grid)
    state = SimState(u=seed.u, v=seed.v,
                     biomass=np.stack([seed.lambda_rec,
                                       seed.lambda_rec * (1.0 + 0.01 * rng.random(cells))]),
                     max_u=seed.max_u)
    coeffs = step_coefficients(state, grid, reg, sgrid)
    dt = coeffs.dt_max
    new_state, _ = step(_with_own_u(state), dt, grid, reg, sgrid, coeffs,
                        step_plan(grid, sgrid))
    I, u, v, lam, lam_ev = grid.I, state.u, state.v, state.lambda_rec, state.lambda_ev
    eps = np.finfo(float).eps

    faces = strided_faces(reg.D_alpha(lam), reg.E_alpha(lam, v), lam, sgrid)
    q = u * theta_cutoff(alpha**2 * u)
    u_prev = np.concatenate([boundary_inflow(v, reg)[None], u[:-1]], axis=0)
    mu_i = grid.mu[:I].reshape((I,) + (1,) * sgrid.dim)
    former = u + dt * (strided_div(u, q, faces, sgrid) - (u - u_prev) / alpha - mu_i * u)
    scale = (np.abs(u) * (1.0 + dt / alpha + dt * mu_i) + dt * face_term_scale(u, q, faces, sgrid)
             + dt / alpha * np.abs(u_prev))
    assert np.all(np.abs(new_state.u - np.maximum(former, 0.0)) <= 4 * eps * scale)
    assert not np.array_equal(new_state.u, np.maximum(former, 0.0))

    ev_faces = strided_faces(reg.D_alpha(lam_ev), reg.E_alpha(lam_ev, v), lam_ev, sgrid,
                             mean=strided_harmonic_mean)
    source_ev = grid.lam[0] * boundary_inflow(v, reg)
    source_ev += alpha * np.tensordot(grid.lam_star - grid.mu[:I] * grid.lam[:I], u,
                                      axes=(0, 0))
    source_ev -= grid.lam[I] * u[I - 1]
    former_ev = lam_ev + dt * (strided_div(lam_ev, lam, ev_faces, sgrid) + source_ev)
    ev_scale = (np.abs(lam_ev) + dt * face_term_scale(lam_ev, lam, ev_faces, sgrid)
                + dt * np.abs(source_ev))
    assert np.all(np.abs(new_state.lambda_ev - former_ev) <= 4 * eps * ev_scale)
    assert np.array_equal(new_state.v, _reference_step(state, dt, grid, reg, sgrid)[1])


@pytest.mark.parametrize("cells", [(16,), (10, 7)], ids=["1d", "2d"])
@pytest.mark.parametrize("top", [0.3, 0.5, 0.8], ids=["plateau", "edge", "cutoff"])
def test_step_with_record_matches_reference_bitwise(cells, top):
    # top is alpha^2 max(u): below, exactly at and above the cutoff plateau
    spec = exponential_family(tau=2.0, D0=0.1, theta=2.0)
    alpha = 0.25
    grid = build_age_grid(spec, alpha=alpha, a_max=2.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(4.0,) * len(cells), cells=cells)
    rng = np.random.default_rng(7)
    shape = (grid.I,) + cells
    u0 = top / alpha**2 * rng.random(shape) * (rng.random(shape) > 0.2)
    u0.reshape(-1)[3] = top / alpha**2
    assert alpha**2 * u0.max() == top
    seed = initial_state(u0, 0.5 * rng.random(cells), grid)
    state = SimState(u=seed.u, v=seed.v,
                     biomass=np.stack([seed.lambda_rec,
                                       seed.lambda_rec * (1.0 + 0.01 * rng.random(cells))]),
                     max_u=seed.max_u,
                     theta_activations=5)
    coeffs = step_coefficients(state, grid, reg, sgrid)
    dt = coeffs.dt_max
    new_state, res = step(_with_own_u(state), dt, grid, reg, sgrid, coeffs,
                          step_plan(grid, sgrid))
    new_u, new_v, new_rec, new_ev, activations, ref = _reference_step(
        state, dt, grid, reg, sgrid)
    assert np.array_equal(new_state.u, new_u)
    assert np.array_equal(new_state.v, new_v)
    assert np.array_equal(new_state.lambda_rec, new_rec)
    assert np.array_equal(new_state.lambda_ev, new_ev)
    # the state carries its largest bin density for the next plateau test
    assert new_state.max_u == new_u.max() and seed.max_u == u0.max()
    assert new_state.theta_activations == 5 + activations
    assert np.all(theta_cutoff(alpha**2 * state.u) == 1.0) == (top <= 0.5)
    assert res == ref


@pytest.mark.parametrize("cells", [(16,), (10, 7)], ids=["1d", "2d"])
@pytest.mark.parametrize("hot_bins", [0, 3], ids=["plateau", "cutoff_in_some_blocks"])
@pytest.mark.parametrize("per_block", [8, 3, 1], ids=["one_block", "remainder", "one_bin"])
def test_bin_blocks_match_whole_array_bitwise(monkeypatch, cells, hot_bins, per_block):
    # the block size decides only how the bins are grouped: 8 bins in one
    # block, blocks of 3 bins with a remainder of 2, or one bin per block.
    # mu grows with age so that every bin has its own decay rate
    spec = dataclasses.replace(exponential_family(tau=2.0, D0=0.1, theta=2.0),
                               mu=lambda a: 0.1 + 0.2 * np.asarray(a, dtype=float))
    alpha = 0.25
    grid = build_age_grid(spec, alpha=alpha, a_max=2.0)
    assert grid.I == 8
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(4.0,) * len(cells), cells=cells)
    rng = np.random.default_rng(11)
    shape = (grid.I,) + cells
    u0 = 0.3 / alpha**2 * rng.random(shape) * (rng.random(shape) > 0.2)
    u0[:hot_bins] *= 0.8 / 0.3  # alpha^2 u up to 0.8 in the youngest bins only
    hot = [alpha**2 * u0[k0:k0 + per_block].max() > 0.5 for k0 in range(0, 8, per_block)]
    assert any(hot) == (hot_bins > 0)
    if hot_bins and per_block < 8:
        assert not all(hot)
    seed = initial_state(u0, 0.5 * rng.random(cells), grid)
    state = SimState(u=seed.u, v=seed.v,
                     biomass=np.stack([seed.lambda_rec,
                                       seed.lambda_rec * (1.0 + 0.01 * rng.random(cells))]),
                     max_u=seed.max_u)
    coeffs = step_coefficients(state, grid, reg, sgrid)
    dt = coeffs.dt_max
    blocks = []

    def counting_div_flux(u, *args, **kwargs):
        blocks.append(len(u))
        return div_flux(u, *args, **kwargs)

    monkeypatch.setattr(solver_core, "BIN_BLOCK_BYTES", per_block * state.u[0].nbytes)
    monkeypatch.setattr(solver_core, "div_flux", counting_div_flux)
    plan = step_plan(grid, sgrid)  # the layout is frozen when the plan is built
    assert plan.blocks == tuple((k0, min(k0 + per_block, 8)) for k0 in range(0, 8, per_block))
    assert all(len(buf) == per_block * sgrid.ncells for buf in plan.work)
    new_state, res = step(_with_own_u(state), dt, grid, reg, sgrid, coeffs, plan)
    # the last block first: each block's feed reads the old last bin of the one before
    assert blocks == [min(per_block, 8 - k0) for k0 in range(0, 8, per_block)][::-1]
    new_u, new_v, new_rec, new_ev, activations, ref = _reference_step(
        state, dt, grid, reg, sgrid)
    assert np.array_equal(new_state.u, new_u)
    assert np.array_equal(new_state.v, new_v)
    assert np.array_equal(new_state.lambda_rec, new_rec)
    assert np.array_equal(new_state.lambda_ev, new_ev)
    assert new_state.theta_activations == activations
    assert (activations > 0) == (hot_bins > 0)
    assert res == ref


def _rough_state(cells, top, seed):
    # alpha = 1/4, 8 bins whose largest alpha^2 u is ``top``; the shadow
    # biomass is off the reconstructed one
    spec = exponential_family(tau=2.0, D0=0.1, theta=2.0)
    alpha = 0.25
    grid = build_age_grid(spec, alpha=alpha, a_max=2.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(4.0,) * len(cells), cells=cells)
    rng = np.random.default_rng(seed)
    shape = (grid.I,) + cells
    u0 = top / alpha**2 * rng.random(shape) * (rng.random(shape) > 0.2)
    seed_state = initial_state(u0, 0.5 * rng.random(cells), grid)
    state = SimState(u=seed_state.u, v=seed_state.v,
                     biomass=np.stack([seed_state.lambda_rec, seed_state.lambda_rec
                                       * (1.0 + 0.01 * rng.random(cells))]),
                     max_u=seed_state.max_u)
    return state, grid, reg, sgrid


@pytest.mark.parametrize("cells", [(16,), (10, 7)], ids=["1d", "2d"])
@pytest.mark.parametrize("per_block", [8, 3], ids=["one_block", "remainder"])
def test_plan_reused_over_two_steps_matches_reference(monkeypatch, cells, per_block):
    # one plan serves consecutive steps: its scratch carries nothing over
    state, grid, reg, sgrid = _rough_state(cells, top=0.8, seed=13)
    monkeypatch.setattr(solver_core, "BIN_BLOCK_BYTES", per_block * state.u[0].nbytes)
    plan = step_plan(grid, sgrid)
    ref = _with_own_u(state)
    for _ in range(2):
        coeffs = step_coefficients(state, grid, reg, sgrid)
        state, res = step(state, coeffs.dt_max, grid, reg, sgrid, coeffs, plan)
        new_u, new_v, new_rec, new_ev, activations, ref_res = _reference_step(
            ref, coeffs.dt_max, grid, reg, sgrid)
        ref = SimState(u=new_u, v=new_v, biomass=np.stack([new_rec, new_ev]),
                       max_u=float(new_u.max()),
                       theta_activations=ref.theta_activations + activations)
        assert res == ref_res
        for name in ("u", "v", "lambda_rec", "lambda_ev"):
            assert np.array_equal(getattr(state, name), getattr(ref, name))
        assert state.theta_activations == ref.theta_activations > 0


@pytest.mark.parametrize("cells", [(16,), (10, 7)], ids=["1d", "2d"])
@pytest.mark.parametrize("top", [0.3, 0.8], ids=["plateau", "cutoff"])
def test_recorded_step_evaluates_coefficients_once(monkeypatch, cells, top):
    # the coefficient record evaluates D_alpha and E_alpha once, on both
    # biomasses together, and carries the shadow's divergence; the step
    # evaluates neither again
    state, grid, reg, sgrid = _rough_state(cells, top=top, seed=23)
    counts = collections.Counter()
    for name in ("D_alpha", "E_alpha"):
        def counting(self, *args, _name=name, _original=getattr(RegularizedModel, name)):
            counts[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(RegularizedModel, name, counting)
    coeffs = step_coefficients(state, grid, reg, sgrid)
    assert coeffs.shadow_div is not None
    assert coeffs.weights.merged == (top <= 0.5)
    step(state, coeffs.dt_max, grid, reg, sgrid, coeffs, step_plan(grid, sgrid))
    assert counts == {"D_alpha": 1, "E_alpha": 1}


def test_step_state_does_not_alias_plan_scratch():
    state, grid, reg, sgrid = _rough_state((10, 7), top=0.3, seed=17)
    plan = step_plan(grid, sgrid)
    coeffs = step_coefficients(state, grid, reg, sgrid)
    new_state, _ = step(state, coeffs.dt_max, grid, reg, sgrid, coeffs, plan)
    fields = {name: getattr(new_state, name).copy()
              for name in ("u", "v", "lambda_rec", "lambda_ev")}
    for scratch in (plan.div,) + plan.work:
        scratch.fill(np.nan)
    for name, values in fields.items():
        assert np.array_equal(getattr(new_state, name), values)


def test_step_and_sample_peak_memory(monkeypatch):
    # with the plan and the recorder built, one step and one sample hold
    # no u-sized array, only block- and grid-sized temporaries: the step
    # updates u in place with the bin divergence in the plan's scratch,
    # and the sample reduces u in the plan's block buffers.  One bin per
    # block keeps the block temporaries small; the measured peak is 0.29 u
    # (1.28 u when a step made a new u)
    spec = exponential_family(tau=2.0, D0=0.1, theta=2.0)
    alpha = 1 / 32
    grid = build_age_grid(spec, alpha=alpha, a_max=2.0)
    assert grid.I == 64
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(4.0, 4.0), cells=(24, 20))
    rng = np.random.default_rng(5)
    u0 = 0.4 / alpha**2 * rng.random((grid.I,) + sgrid.shape)
    state = initial_state(u0, rng.random(sgrid.shape), grid)
    monkeypatch.setattr(solver_core, "BIN_BLOCK_BYTES", state.u[0].nbytes)
    plan = step_plan(grid, sgrid)
    recorder = DiagnosticsRecorder(spec, grid, reg, sgrid)
    recorder.sample(state, plan)
    coeffs = step_coefficients(state, grid, reg, sgrid)
    tracemalloc.start()
    try:
        new_state, _ = step(state, coeffs.dt_max, grid, reg, sgrid, coeffs, plan)
        recorder.sample(new_state, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * state.u.nbytes


@pytest.mark.parametrize("top", [0.4, 0.8], ids=["plateau", "cutoff"])
def test_2d_step_allocates_no_u_sized_array(monkeypatch, top):
    # the bins are updated in place: one step's memory rises above its
    # entry by block-, cell- and face-sized temporaries only.  One bin per
    # block keeps the block temporaries small; the measured rise is 0.54 u
    # on and off the cutoff plateau, and was 1.44 u when a step made a new u
    spec = exponential_family(tau=2.0, D0=0.1, theta=2.0)
    alpha = 1 / 16
    grid = build_age_grid(spec, alpha=alpha, a_max=2.0)
    assert grid.I == 32
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(4.0, 4.0), cells=(64, 64))
    rng = np.random.default_rng(3)
    state = initial_state(top / alpha**2 * rng.random((grid.I,) + sgrid.shape),
                          rng.random(sgrid.shape), grid)
    monkeypatch.setattr(solver_core, "BIN_BLOCK_BYTES", state.u[0].nbytes)
    plan = step_plan(grid, sgrid)
    coeffs = step_coefficients(state, grid, reg, sgrid)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        step(state, coeffs.dt_max, grid, reg, sgrid, coeffs, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - entry < 0.75 * state.u.nbytes


@settings(derandomize=True, max_examples=24, deadline=None)
@given(
    alpha=st.sampled_from([1 / 4, 1 / 8, 1 / 16, 1 / 32]),
    cells=st.integers(4, 12),
    near=st.floats(0.9, 1.0),
    seed=st.integers(0, 2**16),
)
def test_step_near_cap_keeps_negative_tolerance(alpha, cells, near, seed):
    # bin densities up to the cap 1/alpha^2 (1024 at alpha = 1/32) next to
    # empty and nearly empty cells: the absolute tolerance on negative
    # values must not trip
    spec = exponential_family(tau=2.0, D0=0.1, theta=2.0)
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(4.0,), cells=(cells,))
    rng = np.random.default_rng(seed)
    shape = (grid.I, cells)
    u0 = near / alpha**2 * (0.9 + 0.1 * rng.random(shape)) * rng.choice([0.0, 1e-9, 1.0],
                                                                         size=shape)
    state = initial_state(u0, rng.random(cells) / alpha, grid)
    coeffs = step_coefficients(state, grid, reg, sgrid)
    _, res = step(state, coeffs.dt_max, grid, reg, sgrid, coeffs, step_plan(grid, sgrid))
    assert res.min_u >= -1e-12 and res.min_v >= -1e-12


def test_step_hand_example():
    # homogeneous, one bin, mu = 0, unit inflow: u1 <- u1 + dt (1 - u1)/alpha
    spec = make_spec(
        mu=lambda a: np.zeros_like(np.asarray(a, dtype=float)),
        xi=steep_switch(0.5),
    )
    alpha = 0.5
    grid = build_age_grid(spec, alpha=alpha, a_max=0.5)
    assert grid.I == 1
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(1.0,), cells=(4,))
    state = initial_state(np.zeros((1, 4)), np.full(4, 2.0), grid)
    new_state, _ = step(state, 0.1, grid, reg, sgrid,
                          step_coefficients(state, grid, reg, sgrid), step_plan(grid, sgrid))
    assert np.allclose(new_state.u[0], 0.2, atol=1e-15)
    assert new_state.t == 0.1


def test_step_clips_roundoff_below_zero():
    # an Euler update that lands in [-1e-12, 0) is roundoff: the new bin
    # density is exactly 0 there, StepResult.min_u keeps the raw value
    # and the step is not refused.  dt is far above the bound on purpose
    spec = make_spec(mu=lambda a: np.zeros_like(np.asarray(a, dtype=float)))
    alpha = 0.5
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    assert grid.I == 2
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(1.0,), cells=(4,))
    f = 1e-13
    u0 = np.zeros((grid.I, 4))
    u0[0] = f  # homogeneous, no inflow (v = 0), no decay: d = 0
    state = initial_state(u0, np.zeros(4), grid)
    dt = 6.0 * alpha
    # f (1 - dt/alpha - dt mu) + dt d + (dt/alpha) u_prev with d = u_prev = mu = 0
    raw = f * (1.0 - dt / alpha - dt * 0.0) + dt * 0.0 + (dt / alpha) * 0.0
    assert -1e-12 <= raw < 0.0
    new_state, res = step(state, dt, grid, reg, sgrid,
                          step_coefficients(state, grid, reg, sgrid), step_plan(grid, sgrid))
    assert np.all(new_state.u[0] == 0.0)
    assert np.all(new_state.u[1] > 0.0)
    assert res.min_u == raw


def _prescribed_step(monkeypatch, raw_u, raw_v):
    # one step whose raw new bins are ``raw_u`` and raw new swimmers
    # ``raw_v``, bit for bit: the step's operators are replaced by ones
    # that return raw_u/dt and raw_v/(dt alpha); with dt and alpha powers
    # of two, mu = 0 (no swimmer source), v = 0 (no inflow) and -0.0 bins
    # (every other term of a later bin's update is -0.0), the update adds
    # only signed zeros to dt times them.  v's update adds +0.0, so its
    # raw value is never -0.0
    spec = make_spec(mu=lambda a: np.zeros_like(np.asarray(a, dtype=float)))
    alpha, dt = 0.5, 0.125
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(1.0,), cells=(4,))
    state = initial_state(np.full((grid.I, 4), -0.0), np.zeros(4), grid)

    def prescribed_div(f, *args, out, **kwargs):
        out[...] = raw_u / dt
        return out

    def prescribed_laplacian(f, sgrid, out, work):
        out[...] = raw_v / (dt * alpha)
        return out

    monkeypatch.setattr(solver_core, "div_flux", prescribed_div)
    monkeypatch.setattr(solver_core, "laplacian", prescribed_laplacian)
    return step(state, dt, grid, reg, sgrid, step_coefficients(state, grid, reg, sgrid),
                step_plan(grid, sgrid))


@pytest.mark.parametrize("low", [-1e-13, -0.0, 0.0, 0.125, math.nan],
                         ids=["roundoff", "minus_zero", "zero", "positive", "nan"])
def test_step_clips_a_field_only_when_its_minimum_is_not_positive(monkeypatch, low):
    # bin 1 and v take ``low`` in one cell: a bin block or v whose raw
    # minimum is not positive comes out max(raw, 0) bit for bit (-0.0
    # becomes +0.0), a positive one as computed, and a NaN is refused
    raw_u = np.array([[1.0, 1.0, 1.0, 1.0], [low, 0.25, 0.5, 0.75]])
    raw_v = np.array([low, 0.25, 0.5, 0.75])
    if math.isnan(low):
        with pytest.raises(UnstableStep, match="non-finite state"):
            _prescribed_step(monkeypatch, raw_u, raw_v)
        return
    new_state, res = _prescribed_step(monkeypatch, raw_u, raw_v)
    assert res.min_u == low and res.min_v == low
    assert math.copysign(1.0, res.min_u) == math.copysign(1.0, low)
    for got, raw in ((new_state.u, raw_u), (new_state.v, raw_v)):
        assert got.tobytes() == np.maximum(raw, 0.0).tobytes()
        if low > 0.0:
            assert got.tobytes() == raw.tobytes()


def test_growth_equals_differentiation_keeps_v():
    # g = xi on the reached range and mu = 0: the swimmer field is steady
    spec = make_spec(
        mu=lambda a: np.zeros_like(np.asarray(a, dtype=float)),
        xi=steep_switch(1.0),  # equals g = 1 for v >= 0.01
    )
    alpha = 0.25
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(1.0,), cells=(4,))
    state = initial_state(0.3 * np.ones((grid.I, 4)), np.full(4, 2.0), grid)
    plan = step_plan(grid, sgrid)
    for _ in range(20):
        coeffs = step_coefficients(state, grid, reg, sgrid)
        state, _ = step(state, coeffs.dt_max, grid, reg, sgrid, coeffs, plan)
    assert np.allclose(state.v, 2.0, atol=1e-13)


def test_zero_state_is_fixed_point():
    spec = make_spec()
    setup = _setup(spec, 0.25, 1.0, 16, T=0.5, sample_dt=0.1)
    result = run(setup)
    for s in result.samples:
        assert np.all(s.u == 0.0) and np.all(s.v == 0.0)
        assert np.all(s.lambda_rec == 0.0)
    # the shadow biomass is 0 too: its gap to the reconstructed one is
    assert np.all(result.record.series["identity_residual"] == 0.0)


def test_reconstruction_identity_exact():
    spec = make_spec(xi=steep_switch(0.4))
    u0 = 0.5 * np.ones((4, 16))
    setup = _setup(spec, 0.25, 1.0, 16, u0=u0, v0=0.5 * np.ones(16),
                   T=0.2, sample_dt=0.1)
    result = run(setup)
    grid = setup.agegrid
    for s in result.samples:
        rebuilt = grid.alpha * np.tensordot(grid.lam[: grid.I], s.u, axes=(0, 0))
        assert np.array_equal(rebuilt, s.lambda_rec)


def test_unstable_step_raises():
    spec = make_spec(
        D=lambda r: np.full_like(np.asarray(r, dtype=float), 1.0),
        mu=lambda a: np.zeros_like(np.asarray(a, dtype=float)),
    )
    alpha = 0.25
    grid = build_age_grid(spec, alpha=alpha, a_max=0.5)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(1.0,), cells=(16,))
    u0 = np.zeros((grid.I, 16))
    u0[:, 8] = 1.0  # sharp spike + far-too-large dt
    state = initial_state(u0, np.zeros(16), grid)
    plan = step_plan(grid, sgrid)
    with pytest.raises(UnstableStep):
        for _ in range(50):
            state, _ = step(state, 0.05, grid, reg, sgrid,
                            step_coefficients(state, grid, reg, sgrid), plan)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["u", "v", "lambda_ev"])
def test_non_finite_step_raises(field, bad):
    # one NaN or infinite cell in any field reaches the new state's
    # min or max, which the post-step check reads
    spec = make_spec(xi=steep_switch(0.4))
    alpha = 0.25
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    state = initial_state(np.full((grid.I, 8), 0.5), np.full(8, 0.5), grid)
    coeffs = step_coefficients(state, grid, reg, sgrid)
    getattr(state, field).reshape(-1)[3] = bad
    # a state without a shadow (a run with no record) is checked alike
    states = [state] if field == "lambda_ev" else [
        state, dataclasses.replace(state, biomass=state.biomass[:1])]
    for s in states:
        with pytest.raises(UnstableStep, match="non-finite"), np.errstate(all="ignore"):
            step(_with_own_u(s), coeffs.dt_max, grid, reg, sgrid, coeffs,
                 step_plan(grid, sgrid))


def test_check_budget_counts_steps_taken_and_still_to_take():
    # steps + (T - t)/dt may reach MAX_STEPS but not exceed it
    check_budget(0, 0.0, 0.5 * MAX_STEPS, 0.5, None, "state")
    check_budget(MAX_STEPS - 10, 1.0, 6.0, 0.5, None, "state")
    check_budget(MAX_STEPS - 10, 1.0, 6.0, 2.0, 0.5, "state")
    for bound, fixed_dt in ((0.49, None), (2.0, 0.49)):  # the fixed step caps the bound
        with pytest.raises(StepBudgetExceeded, match=r"state at t=1 needs 10\.2 more steps"):
            check_budget(MAX_STEPS - 10, 1.0, 6.0, bound, fixed_dt, "state")
    with pytest.raises(StepBudgetExceeded, match="needs inf more steps of dt=0"):
        check_budget(0, 0.0, 1.0, 0.0, None, "state")
    check_budget(0, 0.0, 1.0, math.nan, None, "state")  # check_step refuses the NaN


@pytest.mark.parametrize("fixed_dt", [None, 1e-9], ids=["bound", "fixed_step"])
def test_run_refuses_a_horizon_beyond_the_step_budget(fixed_dt):
    # a decay rate of 1e300 takes the bound to about 1e-300, a fixed step
    # of 1e-9 caps it: either way the horizon needs more than MAX_STEPS
    # steps and the first step is refused.  The landing steps onto the
    # sample times are shorter than either, but the budget does not count
    # them: with the bound alone the same run completes
    mu = 1e300 if fixed_dt is None else 0.3
    spec = make_spec(mu=lambda a: np.full_like(np.asarray(a, dtype=float), mu))
    setup = _setup(spec, 0.25, 1.0, 16, u0=0.5 * np.ones((4, 16)), v0=0.4 * np.ones(16),
                   T=0.1, sample_dt=0.05, fixed_dt=fixed_dt)
    with pytest.raises(StepBudgetExceeded, match="state at t=0 needs"):
        run(setup)
    if fixed_dt is not None:
        assert run(dataclasses.replace(setup, fixed_dt=None)).steps > 0


def test_clamp_warning_fires_once_on_the_step_that_reaches_it(monkeypatch):
    # alpha = 1/4: the clamp 1/alpha is 4.  Swimmers at 3.9 growing at
    # rate 2 pass 0.999 * 4 on the second step; the warning is logged on
    # that step, from the maximum of v the step took, and only once
    spec = make_spec(g=lambda s: np.full_like(np.asarray(s, dtype=float), 2.0))
    setup = _setup(spec, 0.25, 1.0, 16, v0=np.full(16, 3.9), T=0.1, sample_dt=0.05)
    reaches = []
    original = solver_core.step

    def tracking_step(*args):
        new, res = original(*args)
        reaches.append(max(float(new.lambda_rec.max()), float(new.v.max())))
        return new, res

    monkeypatch.setattr(solver_core, "step", tracking_step)
    warned_after = []

    class Handler(logging.Handler):
        def emit(self, record):
            if "argument clamp" in record.getMessage():
                warned_after.append(len(reaches))

    handler = Handler()
    logger = logging.getLogger("swarmpde.solver_core")
    logger.addHandler(handler)
    try:
        result = run(setup)
    finally:
        logger.removeHandler(handler)
    first = next(k for k, reach in enumerate(reaches) if reach > 0.999 * setup.reg.clamp)
    assert first == 1 and result.steps > first + 1
    assert warned_after == [first + 1]


def test_run_reports_min_u_and_min_v_separately():
    # no inflow and no bins: every bin stays exactly 0 while the swimmers
    # decay homogeneously, so v's running minimum is its final value
    spec = make_spec(g=lambda s: np.full_like(np.asarray(s, dtype=float), -0.5))
    setup = _setup(spec, 0.25, 1.0, 16, v0=np.full(16, 0.8), T=0.5, sample_dt=0.25)
    result = run(setup)
    final_v = result.samples[-1].v
    assert float(final_v.max()) < 0.8
    assert result.record.min_u_run == 0.0
    assert result.record.min_v_run > 0.0
    assert result.record.min_v_run == float(final_v.min())


def test_min_u_series_is_the_true_minimum():
    # strictly positive bins: every sampled minimum is positive and is
    # the minimum of the sampled bins
    spec = make_spec(xi=steep_switch(0.4))
    setup = _setup(spec, 0.25, 1.0, 16, u0=np.full((4, 16), 0.6), v0=np.full(16, 0.4),
                   T=0.2, sample_dt=0.1)
    result = run(setup)
    series = result.record.series["min_u"]
    assert np.all(series > 0.0)
    assert list(series) == [float(s.u.min()) for s in result.samples]


def test_homogeneous_matches_ode_oracle():
    # spatially constant run equals the bin ODE system; oracle: solve_ivp
    spec = make_spec(xi=steep_switch(0.4))
    alpha = 0.25
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    I = grid.I
    u0 = np.linspace(0.5, 0.1, I)
    v0 = 0.8
    setup = _setup(
        spec, alpha, 1.0, 16,
        u0=np.repeat(u0[:, None], 16, axis=1),
        v0=np.full(16, v0), T=0.5, sample_dt=0.5, fixed_dt=5e-4,
    )
    result = run(setup)

    reg = setup.reg

    def rhs(t, y):
        u, v = y[:I], y[I]
        inflow = float(boundary_inflow(np.asarray([v]), reg)[0])
        u_prev = np.concatenate([[inflow], u[:-1]])
        du = -(u - u_prev) / alpha - grid.mu[:I] * u
        dv = (float(spec.g(v)) - float(reg.xi_alpha(v))) * v \
            + alpha * float(np.sum(grid.b[:I] * grid.mu[:I] * u))
        return np.concatenate([du, [dv]])

    sol = solve_ivp(rhs, (0.0, 0.5), np.concatenate([u0, [v0]]),
                    method="DOP853", rtol=1e-11, atol=1e-12)
    final = result.samples[-1]
    assert np.allclose(final.u[:, 0], sol.y[:I, -1], rtol=2e-3, atol=1e-9)
    assert final.v[0] == pytest.approx(sol.y[I, -1], rel=2e-3)
    # spatial homogeneity is exact
    assert float(np.ptp(final.v)) == 0.0
    assert float(np.ptp(final.u, axis=1).max()) == 0.0


def test_comparison_bound_holds_in_run():
    spec = make_spec(xi=steep_switch(0.4))
    u0 = 0.6 * np.ones((4, 16))
    setup = _setup(spec, 0.25, 1.0, 16, u0=u0, v0=0.4 * np.ones(16),
                   T=0.5, sample_dt=0.05)
    result = run(setup)
    assert float(np.min(result.record.series["kbound_margin"])) >= 0.0
    assert result.record.min_u_run >= -1e-12


def _bump_setup(dim):
    spec = make_spec(
        xi=steep_switch(0.4),
        D=lambda r: 0.1 * np.maximum(r, 0.0) ** 2,
        E=lambda r, s: 0.2 * np.maximum(r, 0.0)
        * np.ones_like(np.asarray(s, dtype=float)),
    )
    alpha = 0.25
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(1.0, 1.5)[:dim], cells=(10, 12)[:dim])
    bump = np.ones(sgrid.shape)
    for ax, L in enumerate(sgrid.extents):
        shape = [1] * dim
        shape[ax] = -1
        bump = bump * (1.0 + 0.3 * np.cos(math.pi * sgrid.axis_centers(ax) / L)).reshape(shape)
    u0 = 0.5 * np.broadcast_to(bump, (grid.I,) + sgrid.shape).copy()
    return RunSetup(spec=spec, agegrid=grid, reg=reg, sgrid=sgrid,
                    u0=u0, v0=0.3 * bump, T=0.3, sample_dt=0.1, tail_A=(1.0,))


@pytest.mark.parametrize("dim", [1, 2])
def test_run_without_record_matches_run_bitwise(dim):
    setup = _bump_setup(dim)
    full, bare = run(setup), run(setup, record=False)
    assert full.record is not None and bare.record is None
    assert bare.steps == full.steps > 0
    assert bare.tstar_crossed == full.tstar_crossed
    assert len(bare.samples) == len(full.samples) == 4
    for a, b in zip(full.samples, bare.samples):
        assert a.t == b.t
        for name in ("u", "v", "lambda_rec"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_only_a_recorded_run_samples_Xi():
    # Xi feeds only the record's kbound envelope, so a run without a
    # record leaves the regularized model's box unsampled
    setup = _bump_setup(1)
    run(setup, record=False)
    assert "Xi" not in vars(setup.reg)
    assert run(setup).record.constants["Xi"] == whole_box_Xi(setup.spec, setup.reg.alpha)


@pytest.mark.parametrize("dim", [1, 2])
def test_step_without_shadow_skips_it_bitwise(dim, monkeypatch):
    # a state without a shadow calls no shadow kernel and reports no
    # conservation residual; u, v and the reconstructed biomass are
    # bitwise those of the step with a shadow, each from its own record
    setup = _bump_setup(dim)
    grid, reg, sgrid = setup.agegrid, setup.reg, setup.sgrid
    full = initial_state(setup.u0, setup.v0, grid)
    bare = initial_state(setup.u0, setup.v0, grid, shadow=False)
    assert bare.lambda_ev is None
    coeffs = step_coefficients(full, grid, reg, sgrid)
    plan = step_plan(grid, sgrid)
    new_full, res_full = step(full, coeffs.dt_max, grid, reg, sgrid, coeffs, plan)
    calls = []  # the bins' and the swimmers' kernels run inside div_flux and laplacian
    monkeypatch.setattr(solver_core, "drift_diffusion_div", lambda *args, **kw: calls.append(args))
    # its own record carries the bins' weights alone, with the same bound
    bare_coeffs = step_coefficients(bare, grid, reg, sgrid)
    assert bare_coeffs.shadow_div is None and bare_coeffs.dt_max == coeffs.dt_max
    new_bare, res_bare = step(bare, coeffs.dt_max, grid, reg, sgrid, bare_coeffs, plan)
    assert calls == [] and new_bare.lambda_ev is None
    assert res_full.conservation_residual <= 1e-12
    assert res_bare == dataclasses.replace(res_full, conservation_residual=0.0)
    for name in ("u", "v", "lambda_rec"):
        assert getattr(new_bare, name).tobytes() == getattr(new_full, name).tobytes()
    assert len(new_bare.biomass) == 1
    assert dataclasses.replace(new_bare, u=None, v=None, biomass=None) == \
        dataclasses.replace(new_full, u=None, v=None, biomass=None)


def test_two_dimensional_run():
    setup = _bump_setup(2)
    grid = setup.agegrid
    result = run(setup)
    record = result.record
    assert record.min_u_run >= -1e-12
    assert record.conservation_max <= 1e-12
    assert float(np.min(record.series["kbound_margin"])) >= 0.0
    # biomass identity holds bitwise in 2D as well
    final = result.samples[-1]
    rebuilt = grid.alpha * np.tensordot(grid.lam[: grid.I], final.u, axes=(0, 0))
    assert np.array_equal(rebuilt, final.lambda_rec)


@pytest.mark.parametrize("dim", [1, 2])
def test_run_never_steps_above_dt_max(dim, monkeypatch):
    # every step's dt is at most the dt_max of the coefficient record of
    # the state it starts from; in 2D a fixed step is set that binds on
    # some steps while the bound binds on others
    if dim == 1:
        setup = _setup(make_spec(xi=steep_switch(0.4)), 0.25, 1.0, 16,
                       u0=0.6 * np.ones((4, 16)), v0=0.4 * np.ones(16),
                       T=0.5, sample_dt=0.05)
    else:
        setup = dataclasses.replace(_bump_setup(2), fixed_dt=0.006)
    steps = []

    def checked_step(state, dt, grid, reg, sgrid, coeffs, plan):
        steps.append((dt, coeffs.dt_max, stable_dt(state, grid, reg, sgrid)))
        return step(state, dt, grid, reg, sgrid, coeffs, plan)

    monkeypatch.setattr(solver_core, "step", checked_step)
    result = run(setup)
    assert len(steps) == result.steps > 0
    assert all(dt <= dt_max == bound for dt, dt_max, bound in steps)
    assert any(dt == dt_max for dt, dt_max, _ in steps)
    if dim == 2:
        assert any(dt == setup.fixed_dt < dt_max for dt, dt_max, _ in steps)


@pytest.mark.parametrize("amp", [0.6, 12.0], ids=["plateau", "cutoff"])
def test_tstar_crossed_is_any_activation_and_warns_once(amp, caplog):
    # alpha = 1/4: the cutoff plateau ends at u = 8
    setup = _setup(make_spec(xi=steep_switch(0.4)), 0.25, 1.0, 16,
                   u0=amp * np.ones((4, 16)), v0=0.4 * np.ones(16), T=0.1, sample_dt=0.05)
    with caplog.at_level("WARNING", logger="swarmpde.solver_core"):
        result = run(setup)
    activations = result.record.theta_activations
    assert (activations > 0) == (amp > 8.0)
    assert result.tstar_crossed == (activations > 0)
    crossed = [r for r in caplog.records if "crossed 1/(2 alpha^2)" in r.getMessage()]
    assert len(crossed) == (1 if activations else 0)


def _frozen(state):
    # the state with v and both biomasses read-only: a later write raises.
    # u stays writable, since the next step updates it in place
    for name in ("v", "biomass"):
        getattr(state, name).flags.writeable = False
    return state


@pytest.mark.parametrize("case", ["recorded_1d", "recorded_2d_store_u", "on_sample"])
def test_step_updates_bins_in_place(monkeypatch, case):
    # a step writes the new bins into its input state's u and gives the
    # new state that array; v and the biomasses are new arrays that
    # nothing writes after, so with them read-only a run completes and
    # matches an unpatched run bitwise.  A run's bins are one array: a
    # stored sample's u is a copy of it at its time, and an on_sample
    # hook sees the live array
    setup = _bump_setup(2 if case == "recorded_2d_store_u" else 1)
    assert setup.store_u
    catalogue = diagnostics.make_test_functions(setup.T, setup.agegrid.a_max, setup.sgrid,
                                                k_max=2)

    def integrate():
        bins = []   # per sample: the live bins and a copy of them
        moments = (diagnostics.AgeMoments(catalogue, setup.spec, setup.agegrid)
                   if case == "on_sample" else None)

        def on_sample(s):
            bins.append((s.u, s.u.copy()))
            if moments is not None:
                moments.take(s)

        result = run(setup, record=moments is None, on_sample=on_sample)
        values = (result.record.series if moments is None
                  else {"moments": np.asarray(moments.values)})
        return result, values, bins

    plain, plain_values, _ = integrate()
    original_step, original_initial = solver_core.step, solver_core.initial_state
    monkeypatch.setattr(solver_core, "initial_state",
                        lambda *args, **kw: _frozen(original_initial(*args, **kw)))
    in_place = []

    def frozen_step(*args):
        new, res = original_step(*args)
        in_place.append(new.u is args[0].u)
        return _frozen(new), res

    monkeypatch.setattr(solver_core, "step", frozen_step)
    frozen, frozen_values, bins = integrate()
    assert frozen.steps == plain.steps == len(in_place) > 0 and all(in_place)
    assert [s.t for s in frozen.samples] == [s.t for s in plain.samples]
    for a, b in zip(plain.samples, frozen.samples):
        assert not b.v.flags.writeable
        for name in ("u", "v", "lambda_rec"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert plain_values.keys() == frozen_values.keys()
    for key, values in plain_values.items():
        assert np.asarray(values).tobytes() == np.asarray(frozen_values[key]).tobytes()
    live = bins[0][0]
    assert len(bins) == len(frozen.samples)
    for sample, (bins_now, bins_then) in zip(frozen.samples, bins):
        assert bins_now is live
        assert sample.u.tobytes() == bins_then.tobytes()
        assert not np.shares_memory(sample.u, live)
    if case == "on_sample":  # the hook's moments are those of the stored bins
        stored = diagnostics.AgeMoments(catalogue, setup.spec, setup.agegrid)
        for sample in frozen.samples:
            stored.take(sample)
        assert np.asarray(stored.values).tobytes() == frozen_values["moments"].tobytes()
