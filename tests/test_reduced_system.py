import math

import numpy as np
import pytest

from swarmpde import reduced_system
from swarmpde.age_discretization import build_age_grid, regularize
from swarmpde.errors import ConfigMismatch, StepBudgetExceeded, UnstableStep
from swarmpde.reduced_system import (
    ReducedSpec,
    cross_validate_setups,
    reduced_from_model,
    run_reduced,
)
from swarmpde.solver_core import RunSetup, TrajectorySample, initial_state, run, sample_times
from swarmpde.spatial_grid import SpatialGrid

from conftest import make_spec, steep_switch


def _rspec(m0=1.0, m2=0.3, tau=2.0, D=None, E=None, g=None, xi=None):
    spec = make_spec(D=D, E=E, g=g, xi=xi)
    return ReducedSpec(m0=m0, m2=m2, tau=tau,
                       D=spec.D, E=spec.E, g=spec.g, xi=spec.xi)


def test_homogeneous_biomass_exponential_oracle():
    # constant D, no drift, g = xi on the reached range: the biomass
    # decouples and lam(t) = lam0 exp((1/tau - m2) t)
    tau, m2 = 2.0, 0.3
    gamma = 1.0 / tau - m2
    rspec = _rspec(
        m2=m2, tau=tau, xi=steep_switch(1.0),
        D=lambda r: np.full_like(np.asarray(r, dtype=float), 0.3),
    )
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    lam0 = np.full(sgrid.shape, 0.7)
    v0 = np.full(sgrid.shape, 0.5)
    T = 2.0
    samples = run_reduced(rspec, sgrid, lam0, v0, T, sample_dt=T, fixed_dt=T / 500.0)
    final = samples[-1]
    exact = 0.7 * math.exp(gamma * T)
    assert np.allclose(final.lambda_rec, exact, rtol=1e-3)
    # the full solver's sample type, without bins
    assert [s.t for s in samples] == [0.0, T]
    assert all(type(s) is TrajectorySample and s.u is None for s in samples)


def test_homogeneous_swimmer_oracle():
    tau, m2, m0 = 2.0, 0.3, 1.0
    gamma = 1.0 / tau - m2
    rspec = _rspec(m0=m0, m2=m2, tau=tau, xi=steep_switch(1.0))
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    lam0, v0 = 0.7, 0.5
    T = 2.0
    samples = run_reduced(rspec, sgrid, np.full(sgrid.shape, lam0),
                          np.full(sgrid.shape, v0), T, sample_dt=T, fixed_dt=T / 800.0)
    exact = v0 + (1.0 * m2 / m0) * lam0 * (math.exp(gamma * T) - 1.0) / gamma
    assert np.allclose(samples[-1].v, exact, rtol=1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["lam", "v"])
def test_reduced_non_finite_step_raises(field, bad):
    # one NaN or infinite cell in either initial field reaches a new
    # field's min or max after the first step
    rspec = _rspec()
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    fields = {"lam": np.full(sgrid.shape, 0.7), "v": np.full(sgrid.shape, 0.5)}
    fields[field][3] = bad
    with pytest.raises(UnstableStep, match="non-finite reduced state"), \
            np.errstate(all="ignore"):
        run_reduced(rspec, sgrid, fields["lam"], fields["v"], 0.1, sample_dt=0.1,
                    fixed_dt=None)


@pytest.mark.parametrize("field", ["lam", "v"])
def test_reduced_refuses_negative_initial_data(field):
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    data = {"lam": np.full(sgrid.shape, 0.7), "v": np.full(sgrid.shape, 0.5)}
    data[field][3] = -1e-9
    with pytest.raises(ValueError, match="initial data must be nonnegative"):
        run_reduced(_rspec(), sgrid, data["lam"], data["v"], 0.1, sample_dt=0.1,
                    fixed_dt=None)


@pytest.mark.parametrize("m2, fixed_dt", [(1e300, None), (0.3, 1e-9)],
                         ids=["huge_decay", "tiny_fixed_step"])
def test_reduced_step_budget_refuses_the_first_step(m2, fixed_dt):
    # a bound of about 1e-300 (m2 = 1e300) or a fixed step of 1e-9 would
    # take more than MAX_STEPS steps to T = 0.1; the landing steps onto
    # the sample times are shorter, but the budget does not count them
    rspec = _rspec(m2=m2)
    sgrid = SpatialGrid(extents=(1.0,), cells=(8,))
    with pytest.raises(StepBudgetExceeded, match="reduced state at t=0 needs"):
        run_reduced(rspec, sgrid, np.full(sgrid.shape, 0.7), np.full(sgrid.shape, 0.5), 0.1,
                    sample_dt=0.05, fixed_dt=fixed_dt)


def test_reduced_negative_step_raises():
    # swimmer decay g = -50 is not part of the step-size bound: one step of
    # the bound's size drives v below zero
    rspec = _rspec(g=lambda s: np.full_like(np.asarray(s, dtype=float), -50.0))
    sgrid = SpatialGrid(extents=(8.0,), cells=(4,))
    with pytest.raises(UnstableStep, match=r"reduced state fell to -\S+ < -1e-12 at t=\S+; "
                       "step-size contract violated"):
        run_reduced(rspec, sgrid, np.full(sgrid.shape, 0.1), np.full(sgrid.shape, 0.5),
                    1.0, sample_dt=1.0, fixed_dt=None)


@pytest.mark.parametrize("low", [-1e-13, -0.0, 0.0, 0.125, math.nan],
                         ids=["roundoff", "minus_zero", "zero", "positive", "nan"])
@pytest.mark.parametrize("field", ["lambda_rec", "v"])
def test_reduced_clips_a_field_only_when_its_minimum_is_not_positive(monkeypatch, field,
                                                                     low):
    # one step of dt = 1/8 whose raw new ``field`` is ``raw`` bit for bit:
    # the biomass' from a prescribed divergence raw/dt on -0.0 data, the
    # swimmers' from -0.0 swimmers fed m2/m0 = 1 times a biomass of
    # raw/dt.  Out comes max(raw, 0) bit for bit (-0.0 becomes +0.0) when
    # the raw minimum is not positive, the raw field when it is, and a
    # NaN is refused
    raw = np.array([low, 0.25, 0.5, 0.75])
    dt = 0.125
    if field == "lambda_rec":
        lam0, v0, div = np.full(4, -0.0), np.full(4, 0.5), raw / dt
    else:
        lam0, v0, div = raw / dt, np.full(4, -0.0), np.full(4, 8.0)
    monkeypatch.setattr(reduced_system, "_reduced_div", lambda lam, D, E, sgrid: div)
    rspec = _rspec(m0=0.25, m2=0.25, D=lambda r: np.full_like(np.asarray(r, dtype=float),
                                                              2.0**-10))
    sgrid = SpatialGrid(extents=(1.0,), cells=(4,))
    if math.isnan(low):
        with pytest.raises(UnstableStep, match="non-finite reduced state"):
            run_reduced(rspec, sgrid, lam0, v0, dt, sample_dt=dt, fixed_dt=None)
        return
    start, end = run_reduced(rspec, sgrid, lam0, v0, dt, sample_dt=dt, fixed_dt=None)
    assert end.t == dt
    got = getattr(end, field)
    assert got.tobytes() == np.maximum(raw, 0.0).tobytes()
    if low > 0.0:
        assert got.tobytes() == raw.tobytes()
    # the clip is taken in place, on the new fields only
    assert start.lambda_rec.tobytes() == lam0.tobytes() and start.v.tobytes() == v0.tobytes()


def test_reduced_spec_validation():
    spec = make_spec()
    with pytest.raises(ValueError):
        ReducedSpec(m0=0.0, m2=0.3, tau=1.0,
                    D=spec.D, E=spec.E, g=spec.g, xi=spec.xi)
    with pytest.raises(ValueError):
        ReducedSpec(m0=1.0, m2=-0.1, tau=1.0,
                    D=spec.D, E=spec.E, g=spec.g, xi=spec.xi)


def _exponential_setup(alpha, cells=64, T=1.0, tau=2.0, m2=0.3, amp=0.8, L=4.0):
    # differentiation off: the closed system carries no age-zero inflow.
    # the domain is wide so the O(alpha) regularization terms act in their
    # linear regime (alpha (pi/L)^2 T well below 1)
    spec = make_spec(
        lam=lambda a: np.exp(np.asarray(a, dtype=float) / tau),
        b=lambda a: np.exp(np.asarray(a, dtype=float) / tau),
        mu=lambda a: np.full_like(np.asarray(a, dtype=float), m2),
        D=lambda r: 0.1 * np.maximum(r, 0.0) ** 2,
        E=lambda r, s: 0.2 * np.maximum(r, 0.0)
        * np.ones_like(np.asarray(s, dtype=float)),
        g=lambda s: np.full_like(np.asarray(s, dtype=float), 1.0 / tau),
    )
    a_max = 4.0
    grid = build_age_grid(spec, alpha=alpha, a_max=a_max)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(L,), cells=(cells,))
    x = sgrid.axis_centers(0)
    ages = (np.arange(grid.I) + 0.5) * alpha
    # ages truncated early so the finite-age sink stays negligible over T
    from swarmpde.model_spec import smoothstep
    prof = np.exp(-2.0 * ages) * (1.0 - smoothstep((ages - 0.3) / 0.3))
    u0 = amp * prof[:, None] * (1.0 + 0.3 * np.cos(math.pi * x / L))[None, :]
    v0 = 0.3 * (1.0 + 0.2 * np.cos(math.pi * x / L))
    return RunSetup(spec=spec, agegrid=grid, reg=reg, sgrid=sgrid,
                    u0=u0, v0=v0, T=T, sample_dt=0.05), m2, tau


def test_cross_validate_zero_data():
    setup, m2, tau = _exponential_setup(0.125)
    setup2, _, _ = _exponential_setup(0.0625)
    for s in (setup, setup2):
        s.u0 = np.zeros_like(s.u0)
        s.v0 = np.zeros_like(s.v0)
    rspec = reduced_from_model(setup.spec, mu_const=m2, m0=1.0, tau=tau)
    result = cross_validate_setups([setup, setup2], rspec)
    assert result.rel_l2_Lambda == 0.0 and result.rel_l2_v == 0.0


def test_cross_validate_swimmer_order_without_biomass():
    # no swarmers: both biomasses stay zero, so their errors are 0 and
    # their order undefined, while the swimmers still differ by the full
    # solver's alpha-scaled diffusion, which shrinks with alpha
    levels = []
    for alpha in (0.125, 0.0625):
        setup, m2, tau = _exponential_setup(alpha)
        setup.u0 = np.zeros_like(setup.u0)
        levels.append(setup)
    rspec = reduced_from_model(levels[0].spec, mu_const=m2, m0=1.0, tau=tau)
    result = cross_validate_setups(levels, rspec)
    assert result.errors_by_level == (0.0, 0.0)
    assert math.isnan(result.order_Lambda)
    assert 0.0 < result.errors_v_by_level[1] < result.errors_v_by_level[0]
    assert math.isfinite(result.order_v) and result.order_v > 0.0


def test_cross_validate_errors_small_and_first_order():
    levels = []
    for alpha in (0.125, 0.0625):
        setup, m2, tau = _exponential_setup(alpha)
        levels.append(setup)
    rspec = reduced_from_model(levels[0].spec, mu_const=0.3, m0=1.0, tau=2.0)
    result = cross_validate_setups(levels, rspec)
    # the full solver's levels record nothing, so none samples the Xi box
    assert not any("Xi" in vars(setup.reg) for setup in levels)
    assert result.rel_l2_Lambda <= 5e-2
    assert result.rel_l2_v <= 5e-2
    assert result.errors_by_level[1] < result.errors_by_level[0]
    assert result.order_Lambda >= 0.8


def test_cross_validate_tail_precondition():
    setup, m2, tau = _exponential_setup(0.125)
    # move initial support into the oldest bins to break the precondition
    setup.u0 = setup.u0[::-1].copy()
    setup2, _, _ = _exponential_setup(0.0625)
    rspec = reduced_from_model(setup.spec, mu_const=m2, m0=1.0, tau=tau)
    with pytest.raises(ConfigMismatch):
        cross_validate_setups([setup, setup2], rspec)


def test_cross_validate_alpha_order_check():
    setup, m2, tau = _exponential_setup(0.125)
    rspec = reduced_from_model(setup.spec, mu_const=m2, m0=1.0, tau=tau)
    with pytest.raises(ConfigMismatch):
        cross_validate_setups([setup, setup], rspec)


@pytest.mark.parametrize("fixed_dt", [None, 2.5e-3], ids=["adaptive", "fixed_dt"])
def test_both_solvers_sample_on_one_grid(fixed_dt):
    # T off the sample grid (T=0.107, sample_dt 0.05): the full and the
    # reduced solver run one time loop, so both sample at t = 0 and at
    # every time of sample_times, the last moved onto T
    setup, m2, tau = _exponential_setup(0.125, cells=16, T=0.107)
    setup.fixed_dt = fixed_dt
    rspec = reduced_from_model(setup.spec, mu_const=m2, m0=1.0, tau=tau)
    lam0 = initial_state(setup.u0, setup.v0, setup.agegrid).lambda_rec
    reduced = run_reduced(rspec, setup.sgrid, lam0, setup.v0, setup.T, setup.sample_dt,
                          fixed_dt=fixed_dt)
    expected = [0.0, *sample_times(0.107, 0.05)]
    assert [s.t for s in run(setup, record=False).samples] == expected
    assert [s.t for s in reduced] == expected
    # the reduced samples are its states, each with arrays of its own
    arrays = [a for s in reduced for a in (s.lambda_rec, s.v)]
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])
