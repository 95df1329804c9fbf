import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from swarmpde.age_discretization import (
    age_average_initial,
    build_age_grid,
    entropy_phi,
    regularize,
    theta_cutoff,
)
from swarmpde.config import InitialConfig, RunConfig, build_initial_data
from swarmpde.diagnostics import DiagnosticsRecorder
from swarmpde.errors import HypothesisViolation, NegativeInitialData
from swarmpde.solver_core import initial_state, step_plan
from swarmpde.spatial_grid import SpatialGrid

from conftest import make_spec, per_node_age_average

# oracle: exact cell average of exp(a) over [0, 0.5] is 2 (e^0.5 - 1)
EXP_AVg_FIRST_BIN = 2.0 * (math.exp(0.5) - 1.0)


def test_constant_lam_averages_exact():
    spec = make_spec(lam=lambda a: np.full_like(np.asarray(a, dtype=float), 2.5))
    grid = build_age_grid(spec, alpha=0.25, a_max=2.0)
    assert np.allclose(grid.lam, 2.5, rtol=0, atol=1e-14)
    assert np.allclose(grid.lam_star, 0.0, atol=1e-12)


def test_exponential_average_matches_antiderivative():
    spec = make_spec(lam=lambda a: np.exp(np.asarray(a, dtype=float)),
                     b=lambda a: np.exp(np.asarray(a, dtype=float)))
    grid = build_age_grid(spec, alpha=0.5, a_max=2.0)
    assert grid.lam[0] == pytest.approx(EXP_AVg_FIRST_BIN, abs=1e-12)


def test_zero_mu_measured_constants():
    spec = make_spec(mu=lambda a: np.zeros_like(np.asarray(a, dtype=float)))
    grid = build_age_grid(spec, alpha=0.25, a_max=2.0)
    assert np.all(grid.mu == 0.0)
    assert grid.M == 0.0


def test_bin_count_cap():
    spec = make_spec()
    # floor(1/alpha^2) = 16 vs ceil(a_max/alpha) = 4
    assert build_age_grid(spec, alpha=0.25, a_max=1.0).I == 4
    assert build_age_grid(spec, alpha=0.25, a_max=10.0).I == 16


def test_refinement_consistency_midpoint():
    lam = lambda a: 1.0 + 0.5 * np.sin(np.asarray(a, dtype=float))
    spec = make_spec(lam=lam)
    lip = 0.5
    for alpha in (0.25, 0.125, 0.0625):
        grid = build_age_grid(spec, alpha=alpha, a_max=2.0)
        mids = (np.arange(grid.I + 1) + 0.5) * alpha
        gap = np.max(np.abs(grid.lam - lam(mids)))
        assert gap <= lip * alpha / 2.0 + 1e-10


def _assert_discrete_hypotheses(grid):
    # the discrete coefficient inequalities that build_age_grid's constants
    # do not already state as maxima: b_i >= 1, lam_i > 0, b_i* >= 0, mu_i >= 0
    assert np.all(grid.b >= 1.0 - 1e-12 * float(np.max(grid.b)))
    assert np.all(grid.lam > 0.0) and grid.ell > 0.0
    assert np.all(grid.b_star >= 0.0)
    assert np.all(grid.mu >= 0.0)


def test_discrete_hypotheses_exponential():
    spec = make_spec(b=lambda a: np.exp(np.asarray(a, dtype=float)),
                     lam=lambda a: np.exp(np.asarray(a, dtype=float)))
    grid = build_age_grid(spec, alpha=0.25, a_max=2.0)
    _assert_discrete_hypotheses(grid)
    # growth-ratio oracle: constant e - 1 for the unit time scale
    B0 = math.e - 1.0
    assert np.all(grid.b_star >= 0.0)
    assert np.all(grid.b_star <= B0 * grid.b[: grid.I])
    assert grid.B <= B0


def test_discrete_hypotheses_mu_beta_bound():
    # b = lam (m0 = 1), mu constant: mu_i b_i <= m2 (1 + B0) lam_i
    m2 = 0.45
    spec = make_spec(
        lam=lambda a: np.exp(np.asarray(a, dtype=float)),
        b=lambda a: np.exp(np.asarray(a, dtype=float)),
        mu=lambda a: np.full_like(np.asarray(a, dtype=float), m2),
    )
    grid = build_age_grid(spec, alpha=0.25, a_max=2.0)
    B0 = math.e - 1.0
    assert np.all(grid.mu * grid.b <= m2 * (1.0 + B0) * grid.lam + 1e-12)
    _assert_discrete_hypotheses(grid)


def test_zero_lam_grid_flagged():
    with pytest.raises(HypothesisViolation):
        build_age_grid(make_spec(lam=lambda a: np.zeros_like(np.asarray(a, dtype=float))),
                       alpha=0.25, a_max=1.0)


# --- regularization ----------------------------------------------------------

def test_regularize_shifts_diffusivity():
    spec = make_spec(D=lambda r: np.asarray(r, dtype=float))
    reg = regularize(spec, alpha=0.1)
    assert float(reg.D_alpha(0.0)) == pytest.approx(0.1, abs=1e-15)
    r = np.linspace(0.0, 5.0, 11)
    assert np.allclose(reg.D_alpha(r) - np.maximum(r, 0.0), 0.1, atol=1e-14)


def test_cutoff_plateaus_exact():
    assert float(theta_cutoff(0.4)) == 1.0
    assert float(theta_cutoff(0.5)) == 1.0
    assert float(theta_cutoff(1.0)) == 0.0
    assert float(theta_cutoff(1.2)) == 0.0


def test_cutoff_monotone_bounded():
    r = np.linspace(-1.0, 3.0, 1000)
    th = theta_cutoff(r)
    assert np.all(th >= 0.0) and np.all(th <= 1.0)
    assert np.all(np.diff(th) <= 1e-15)


def test_regularize_identity_region(rng):
    spec = make_spec(
        D=lambda r: 0.2 * np.maximum(r, 0.0) ** 2,
        E=lambda r, s: 0.1 + 0.05 * np.asarray(r, dtype=float)
        + 0.02 * np.asarray(s, dtype=float),
        xi=lambda s: 0.3 * np.exp(-np.maximum(-np.asarray(s, dtype=float), 0.0))
        * (np.asarray(s, dtype=float) > 0.0),
    )
    alpha = 0.5
    reg = regularize(spec, alpha)
    box = 1.0 / alpha
    for _ in range(32):
        r = float(rng.uniform(0.0, box))
        s = float(rng.uniform(0.0, box))
        assert float(reg.E_alpha(r, s)) == float(spec.E(r, s))
        assert float(reg.xi_alpha(s)) == float(spec.xi(s))
    # clamp only beyond the box
    assert float(reg.E_alpha(1.5, 0.5)) == float(spec.E(1.5, 0.5))
    assert float(reg.E_alpha(3.0, 0.5)) == float(spec.E(2.0, 0.5))


def test_regularize_xi_bound():
    spec = make_spec(xi=lambda s: 0.5 * np.clip(np.asarray(s, dtype=float), 0.0, 1.0))
    reg = regularize(spec, 0.25)
    # Xi bounds (1+s) xi(s) + E on the box; here E = 0 and the max sits at s = 4
    assert reg.Xi >= (1.0 + 4.0) * 0.5 - 1e-9


# --- initial data -----------------------------------------------------------

def test_age_average_exponential_initial():
    spec = make_spec()
    alpha = 0.25
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    u0 = age_average_initial(lambda a: np.exp(-a), np.ones(sgrid.shape), grid, sgrid)
    expected = (1.0 - math.exp(-alpha)) / alpha
    assert np.allclose(u0[0], expected, atol=1e-12)


def test_age_average_zero():
    spec = make_spec()
    grid = build_age_grid(spec, alpha=0.25, a_max=1.0)
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    u0 = age_average_initial(np.zeros_like, np.zeros(sgrid.shape), grid, sgrid)
    assert np.all(u0 == 0.0)


def test_age_average_clamps_with_warning(caplog):
    spec = make_spec()
    alpha = 0.25
    grid = build_age_grid(spec, alpha=alpha, a_max=1.0)
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    level = 1.0 / (2.0 * alpha**2)
    with caplog.at_level(logging.WARNING):
        u0 = age_average_initial(lambda a: np.full_like(a, level), np.ones(sgrid.shape),
                                 grid, sgrid)
    assert np.allclose(u0, 1.0 / (4.0 * alpha**2))
    assert any("clamping" in r.message for r in caplog.records)


def test_age_average_negative_raises():
    spec = make_spec()
    grid = build_age_grid(spec, alpha=0.25, a_max=1.0)
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    with pytest.raises(NegativeInitialData):
        age_average_initial(lambda a: -np.ones_like(a), np.ones(sgrid.shape), grid, sgrid)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    shape=st.one_of(st.tuples(st.integers(8, 2048)),
                    st.tuples(st.integers(8, 64), st.integers(8, 64))),
    inv_alpha=st.sampled_from([2.0, 4.0, 8.0, 16.0]),
    a_max=st.floats(0.5, 6.0),
    amp=st.floats(0.0, 100.0),
    age_scale=st.floats(0.05, 4.0),
    cut=st.tuples(st.floats(0.0, 3.0), st.floats(0.01, 2.0)),
    eps=st.floats(-1.0, 1.0),
    k=st.integers(0, 3),
    kind=st.sampled_from(["cosine_bump", "zero"]),
)
@example(shape=(2048,), inv_alpha=16.0, a_max=4.0, amp=0.8, age_scale=0.5,
         cut=(0.6, 0.4), eps=0.4, k=1, kind="cosine_bump")  # 4 bin blocks
@example(shape=(12, 10), inv_alpha=2.0, a_max=2.0, amp=100.0, age_scale=2.0,
         cut=(1.0, 1.0), eps=0.3, k=2, kind="cosine_bump")  # clamped
def test_age_average_bitwise_equals_per_node(shape, inv_alpha, a_max, amp, age_scale, cut,
                                             eps, k, kind):
    # the one vectorized pass over every Gauss node rounds as the per-node
    # loop does, block by block of bins and through the clamp
    alpha = 1.0 / inv_alpha
    sgrid = SpatialGrid(extents=(4.0, 3.0)[:len(shape)], cells=shape)
    grid = build_age_grid(make_spec(), alpha, max(a_max, alpha))
    cfg = RunConfig(initial=InitialConfig(
        kind=kind, u_amp=amp, u_age_scale=age_scale, u_age_cut=(cut[0], cut[0] + cut[1]),
        u_cos_eps=eps, u_cos_k=k))
    age_profile, space, _ = build_initial_data(cfg, sgrid)
    u0 = age_average_initial(age_profile, space, grid, sgrid)
    assert np.array_equal(u0, per_node_age_average(age_profile, space, grid, sgrid))


# --- initial-size constant ---------------------------------------------------

def _K0(spec, u0, v0, grid, sgrid):
    """The K0 of a record whose one sample is the initial state."""
    recorder = DiagnosticsRecorder(spec, grid, regularize(spec, grid.alpha), sgrid)
    recorder.sample(initial_state(u0, v0, grid), step_plan(grid, sgrid))
    return recorder.finalize().K0


def test_K0_zero_data():
    spec = make_spec()
    grid = build_age_grid(spec, alpha=0.25, a_max=1.0)
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    u0 = np.zeros((grid.I,) + sgrid.shape)
    v0 = np.zeros(sgrid.shape)
    # entropy term contributes phi(0) = 1 per bin-cell
    expected = grid.alpha * float(np.sum(grid.lam[: grid.I])) + grid.b[0] + grid.lam[0]
    assert _K0(spec, u0, v0, grid, sgrid) == pytest.approx(expected, rel=1e-12)


def test_K0_phi_vanishes_at_one():
    assert float(entropy_phi(np.asarray(1.0))) == 0.0
    assert float(entropy_phi(np.asarray(0.0))) == 1.0
    spec = make_spec()
    grid = build_age_grid(spec, alpha=0.25, a_max=1.0)
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    ones = np.ones((grid.I,) + sgrid.shape)
    v0 = np.zeros(sgrid.shape)
    I = grid.I
    expected = (
        grid.alpha * float(np.sum(grid.b[:I]))       # b-mass of u = 1
        + grid.b[0] + grid.lam[0]
        + grid.alpha * float(np.sum(grid.lam[:I]))   # sup of biomass field
    )
    assert _K0(spec, ones, v0, grid, sgrid) == pytest.approx(expected, rel=1e-12)


def test_K0_doubling_v_increment():
    spec = make_spec()
    grid = build_age_grid(spec, alpha=0.25, a_max=1.0)
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    u0 = 0.3 * np.ones((grid.I,) + sgrid.shape)
    v0 = np.linspace(0.1, 0.5, 8)
    k1 = _K0(spec, u0, v0, grid, sgrid)
    k2 = _K0(spec, u0, 2.0 * v0, grid, sgrid)
    integral = float(np.sum(v0)) * sgrid.cell_volume
    assert k2 - k1 == pytest.approx(integral + float(v0.max()), rel=1e-12)


def test_built_grid_satisfies_all_inequalities(rng):
    # grids built from specs that pass the continuous assumptions satisfy
    # every line of the discrete ones with the reported constants
    for _ in range(5):
        tau = float(rng.uniform(0.8, 3.0))
        m2 = float(rng.uniform(0.0, 0.5))
        spec = make_spec(
            lam=lambda a, t=tau: np.exp(np.asarray(a, dtype=float) / t),
            b=lambda a, t=tau: np.exp(np.asarray(a, dtype=float) / t),
            mu=lambda a, m=m2: np.full_like(np.asarray(a, dtype=float), m),
        )
        grid = build_age_grid(spec, alpha=float(rng.choice([0.25, 0.125])), a_max=2.0)
        _assert_discrete_hypotheses(grid)
