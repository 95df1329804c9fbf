import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from swarmpde import age_discretization, solver_core
from swarmpde.age_discretization import build_age_grid, entropy_phi, regularize
from swarmpde.diagnostics import (
    ENVELOPE_NAMES,
    AgeMoments,
    DiagnosticsRecorder,
    TestFunction,
    _eta_weights,
    bin_sums,
    comparison_bound,
    dissipation,
    entropy,
    envelope_report,
    mass_b,
    tail_mass,
    make_test_functions,
    weak_residual,
)
from swarmpde.errors import InadmissibleTestFunction, NegativeField
from swarmpde.model_spec import Zeta1Evaluator
from swarmpde.solver_core import RunSetup, initial_state, run, step_plan
from swarmpde.spatial_grid import SpatialGrid, diffusion_weights

from conftest import grad_sq, make_spec, steep_switch


def _pieces(alpha=0.25, a_max=1.0, cells=16, spec=None):
    spec = spec or make_spec()
    grid = build_age_grid(spec, alpha=alpha, a_max=a_max)
    reg = regularize(spec, alpha)
    sgrid = SpatialGrid(extents=(1.0,), cells=(cells,))
    return spec, grid, reg, sgrid


def _state(grid, sgrid, u_val=0.0, v_val=0.0):
    u = np.full((grid.I,) + sgrid.shape, float(u_val))
    v = np.full(sgrid.shape, float(v_val))
    return initial_state(u, v, grid)


def test_mass_zero_state():
    _, grid, _, sgrid = _pieces()
    assert mass_b(_state(grid, sgrid), grid, sgrid) == 0.0


def test_mass_unit_bins():
    _, grid, _, sgrid = _pieces()
    state = _state(grid, sgrid, u_val=1.0)
    expected = grid.alpha * float(np.sum(grid.b[: grid.I]))
    assert mass_b(state, grid, sgrid) == pytest.approx(expected, rel=1e-13)


def test_entropy_values():
    _, grid, _, sgrid = _pieces()
    assert entropy(_state(grid, sgrid, u_val=1.0), grid, sgrid) == 0.0
    expected = grid.alpha * float(np.sum(grid.lam[: grid.I]))
    assert entropy(_state(grid, sgrid), grid, sgrid) == pytest.approx(expected, rel=1e-13)


def test_dissipation_zero_on_constants():
    spec, grid, reg, sgrid = _pieces()
    z1 = Zeta1Evaluator(spec, 4.0)
    state = _state(grid, sgrid, u_val=0.7, v_val=0.3)
    d_u, d_E, gz1, gz2 = dissipation(state, grid, reg, sgrid, z1, spec)
    assert d_u == 0.0 and d_E == 0.0 and gz1 == 0.0 and gz2 == 0.0


def test_dissipation_nonnegative_random(rng):
    spec, grid, reg, sgrid = _pieces()
    z1 = Zeta1Evaluator(spec, 16.0)
    for _ in range(5):
        u = rng.uniform(0.0, 2.0, size=(grid.I,) + sgrid.shape)
        v = rng.uniform(0.0, 1.0, size=sgrid.shape)
        state = initial_state(u, v, grid)
        vals = dissipation(state, grid, reg, sgrid, z1, spec)
        assert all(x >= 0.0 for x in vals)
        assert entropy(state, grid, sgrid) >= 0.0


def test_dissipation_checks_sign_once_and_keeps_values(rng):
    # the bin densities' sign is checked once, on their raw minimum; the
    # four terms are face forms: per bin, the sum over faces of
    # (delta sqrt(u))^2 face_mean(D_alpha)/dx^2 of the clipped densities,
    # weighted by alpha lam_i; the sum over faces of (delta lam)^2
    # face_mean(E_alpha)/dx^2; the sums of (delta zeta(lam))^2/dx^2
    spec, grid, reg, sgrid = _pieces()
    z1 = Zeta1Evaluator(spec, 16.0)
    shape = (grid.I,) + sgrid.shape
    u = rng.uniform(0.0, 2.0, size=shape) * (rng.random(shape) > 0.3)
    u[0, 5] = -1e-13  # roundoff below zero, inside the tolerance
    state = initial_state(u, rng.uniform(0.0, 1.0, size=sgrid.shape), grid)
    lam, vol, dx = state.lambda_rec, sgrid.cell_volume, sgrid.dx[0]
    root = np.sqrt(np.maximum(state.u, 0.0))
    Da = reg.D_alpha(lam)
    per_bin = ((root[:, 1:] - root[:, :-1]) ** 2
               * ((0.5 * (Da[:-1] + Da[1:])) / (dx * dx))).sum(axis=1) * vol
    Ea = reg.E_alpha(lam, state.v)

    def face_sum(f, weights):
        return float(((f[1:] - f[:-1]) ** 2 * weights).sum()) * vol

    expected = (
        grid.alpha * float(grid.lam[: grid.I] @ per_bin),
        face_sum(lam, (0.5 * (Ea[:-1] + Ea[1:])) / (dx * dx)),
        face_sum(z1(lam), np.full(sgrid.cells[0] - 1, 1.0 / (dx * dx))),
        face_sum(np.asarray(spec.zeta2(lam), dtype=float),
                 np.full(sgrid.cells[0] - 1, 1.0 / (dx * dx))),
    )
    assert dissipation(state, grid, reg, sgrid, z1, spec) == expected
    state.u[1, 3] = -1e-9
    with pytest.raises(NegativeField):
        dissipation(state, grid, reg, sgrid, z1, spec)


def _zeroed_state(rng, grid, cells):
    # random densities with exact zeros, whole bins of them included
    shape = (grid.I,) + cells
    u = rng.uniform(0.0, 3.0, size=shape) * (rng.random(shape) > 0.3)
    u[1] = 0.0
    return initial_state(u, rng.uniform(0.0, 1.0, size=cells), grid)


@pytest.mark.parametrize("cells", [(16,), (10, 7), (3, 12)], ids=["1d", "2d", "2d_wide"])
def test_face_form_dissipation_matches_cell_form(rng, cells):
    # in exact arithmetic every face sum of (delta f)^2 face_mean(W)/dx^2
    # equals the cell sum of W * grad_sq(f), the former cell form: for the
    # D_alpha-weighted sqrt-gradient term, the E_alpha-weighted drift term
    # and, with unit weights, the squared transform gradients
    spec = make_spec(D=lambda r: 0.1 + np.maximum(r, 0.0) ** 2,
                     E=lambda r, s: 0.2 + 0.1 * np.asarray(r) * np.asarray(s))
    grid = build_age_grid(spec, alpha=0.25, a_max=1.0)
    reg = regularize(spec, grid.alpha)
    sgrid = SpatialGrid(extents=(1.0, 2.0)[:len(cells)], cells=cells)
    z1 = Zeta1Evaluator(spec, 64.0)
    vol = sgrid.cell_volume
    for _ in range(10):
        state = _zeroed_state(rng, grid, cells)
        lam = state.lambda_rec
        got = dissipation(state, grid, reg, sgrid, z1, spec)
        gsq = grad_sq(np.sqrt(state.u), sgrid)
        cell_form = (
            float(np.sum(np.tensordot(grid.alpha * grid.lam[: grid.I], gsq, axes=(0, 0))
                         * reg.D_alpha(lam))) * vol,
            float(np.sum(reg.E_alpha(lam, state.v) * grad_sq(lam, sgrid))) * vol,
            float(np.sum(grad_sq(z1(lam), sgrid))) * vol,
            float(np.sum(grad_sq(np.asarray(spec.zeta2(lam), dtype=float), sgrid))) * vol,
        )
        for face, cell in zip(got, cell_form):
            assert face > 0.0
            assert abs(face - cell) <= 1e-13 * cell
        per_bin = bin_sums(state.u, sgrid,
                           diffusion_weights(reg.D_alpha(state.lambda_rec), sgrid)).dissipation
        assert per_bin[1] == 0.0  # an empty bin has no gradient


def test_entropy_phi_exact_at_zero_and_one():
    # phi(0) = 1 and phi(1) = 0 exactly, so u = 1 has entropy exactly 0
    assert entropy_phi(np.asarray(0.0)) == 1.0
    assert entropy_phi(np.asarray(1.0)) == 0.0
    assert np.all(entropy_phi(np.array([0.0, -0.0, 1.0, 5e-324])) == [1.0, 1.0, 0.0, 1.0])
    grid = build_age_grid(make_spec(), alpha=0.25, a_max=1.0)
    for cells in ((16,), (10, 7)):
        sgrid = SpatialGrid(extents=(1.0, 2.0)[:len(cells)], cells=cells)
        assert entropy(_state(grid, sgrid, u_val=1.0), grid, sgrid) == 0.0
        sums = bin_sums(np.ones((grid.I,) + cells), sgrid)
        assert np.all(sums.entropy == 0.0)


def test_bin_sums_sqrt_gradient_linear_profile():
    # sqrt(u) = c x with unit diffusivity: every face adds c^2 to its bin
    sgrid = SpatialGrid(extents=(1.0,), cells=(32,))
    x = sgrid.axis_centers(0)
    weights = diffusion_weights(np.ones(sgrid.shape), sgrid)
    sums = bin_sums(np.stack([x**2, 4.0 * x**2, np.zeros(32)]), sgrid, weights)
    assert np.allclose(sums.dissipation, np.array([1.0, 4.0, 0.0]) * 31 * sgrid.cell_volume,
                       rtol=1e-12)
    assert sums.dissipation[2] == 0.0


def test_entropy_and_dissipation_reject_negative_densities():
    spec, grid, reg, sgrid = _pieces()
    state = _state(grid, sgrid, u_val=-1.0)
    with pytest.raises(NegativeField):
        entropy(state, grid, sgrid)
    with pytest.raises(NegativeField):
        dissipation(state, grid, reg, sgrid, Zeta1Evaluator(spec, 4.0), spec)


@pytest.mark.parametrize("cells", [(16,), (10, 7)], ids=["1d", "2d"])
@pytest.mark.parametrize("per_block", [1, 3, 8], ids=["one_bin", "remainder", "all_bins"])
def test_sample_matches_per_quantity_formulas_bitwise(monkeypatch, rng, cells, per_block):
    # the sample's one pass over bin blocks gives bitwise the standalone
    # entropy and dissipation (one block of all bins), for 8 bins in
    # blocks of 1, of 3 with a remainder of 2, or all in one block; its
    # masses and tails come from the per-bin totals the standalone mass_b
    # and tail_mass share
    spec = make_spec(E=lambda r, s: 0.2 * np.maximum(r, 0.0)
                     * np.ones_like(np.asarray(s, dtype=float)))
    grid = build_age_grid(spec, alpha=0.125, a_max=1.0)
    assert grid.I == 8
    reg = regularize(spec, grid.alpha)
    sgrid = SpatialGrid(extents=(1.0, 2.0)[:len(cells)], cells=cells)
    shape = (grid.I,) + cells
    u = rng.uniform(0.0, 2.0, size=shape) * (rng.random(shape) > 0.3)
    u.reshape(grid.I, -1)[4, 5] = -1e-13  # roundoff below zero, inside the tolerance
    state = initial_state(u, rng.uniform(0.0, 1.0, size=cells), grid)
    assert float(state.lambda_rec.max()) < 1.8  # the recorder keeps zeta1's table
    blocks = []

    def recording_bin_blocks(shape):
        out = age_discretization.bin_blocks(shape)
        blocks.extend(k1 - k0 for k0, k1 in out)
        return out

    monkeypatch.setattr(age_discretization, "BIN_BLOCK_BYTES", per_block * u[0].nbytes)
    monkeypatch.setattr(solver_core, "bin_blocks", recording_bin_blocks)
    rec = DiagnosticsRecorder(spec, grid, reg, sgrid, tail_A=(0.5, 0.75))
    plan = step_plan(grid, sgrid)
    assert blocks == [min(per_block, 8 - k0) for k0 in range(0, 8, per_block)]
    # the plan's block buffers carry nothing from a step to the sample
    for buf in plan.work:
        buf.fill(np.nan)
    rec.sample(state, plan)
    record = rec.finalize()
    row = {name: values[0] for name, values in record.series.items()}
    z1 = Zeta1Evaluator(spec, 2.0)
    d_u, d_E, gz1, gz2 = dissipation(state, grid, reg, sgrid, z1, spec)
    assert row["entropy"] == entropy(state, grid, sgrid)
    assert row["mass_b"] == mass_b(state, grid, sgrid)
    assert (row["dissipation_u"], row["dissipation_E"]) == (d_u, d_E)
    assert (row["grad_zeta1_sq"], row["grad_zeta2_sq"]) == (gz1, gz2)
    assert row["min_u"] == -1e-13
    vol = sgrid.cell_volume
    u_sums = state.u.reshape(grid.I, -1).sum(axis=1) * vol
    for A in (0.5, 0.75):
        assert record.tail[A][0] == tail_mass(state, A, grid, sgrid)
        eta, eta_star = _eta_weights(grid, A)
        expected = grid.alpha * float((eta[:grid.I] * grid.b[:grid.I]) @ u_sums)
        assert record.eta_tail_series[A][0] == expected
        assert record.eta_star_inf[A] == eta_star
    state.u.reshape(grid.I, -1)[6, 2] = -1e-9
    with pytest.raises(NegativeField):
        rec.sample(state, plan)


def test_recorder_holds_no_block_buffer():
    # a sample borrows the step plan's block buffers, so a recorder keeps
    # less than one bin block (here 8 bins of 64x64 cells, 256 KiB)
    spec, grid, reg, _ = _pieces(alpha=0.125, a_max=1.0)
    sgrid = SpatialGrid(extents=(1.0, 1.0), cells=(64, 64))
    blocks = age_discretization.bin_blocks((grid.I,) + sgrid.shape)
    block_bytes = max(k1 - k0 for k0, k1 in blocks) * sgrid.ncells * 8
    assert block_bytes == age_discretization.BIN_BLOCK_BYTES
    tracemalloc.start()
    try:
        rec = DiagnosticsRecorder(spec, grid, reg, sgrid, tail_A=(0.5,))
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.constants["volume"] == 1.0
    assert retained < block_bytes


def test_tail_zero_cases():
    _, grid, _, sgrid = _pieces(alpha=0.125, a_max=2.0)
    state = _state(grid, sgrid)
    state.u[: grid.I // 4] = 1.0  # support in the youngest quarter
    A = grid.I * grid.alpha / 2.0
    assert tail_mass(state, A, grid, sgrid) == 0.0
    assert tail_mass(state, grid.I * grid.alpha, grid, sgrid) == 0.0
    with pytest.raises(ValueError):
        tail_mass(state, 0.1 * grid.alpha, grid, sgrid)


def test_tail_additive_and_positive():
    _, grid, _, sgrid = _pieces(alpha=0.125, a_max=2.0)
    state = _state(grid, sgrid, u_val=0.5)
    A = 1.0
    ks = np.arange(1, grid.I + 1)
    expected = grid.alpha * 0.5 * float(np.sum(grid.b[: grid.I][ks * grid.alpha > A]))
    assert tail_mass(state, A, grid, sgrid) == pytest.approx(expected, rel=1e-13)


def test_comparison_bound_formula():
    assert float(comparison_bound(1.0, 0.5, 2.0)) == pytest.approx(8.0)


def test_mass_additive_over_subdomains(rng):
    # the per-bin sums of two halves of the box add up to those of the
    # whole box, so the masses, the entropy and the tails do too
    _, grid, _, sgrid = _pieces(alpha=0.25, a_max=2.0)
    u = rng.uniform(0.0, 1.0, size=(grid.I,) + sgrid.shape)
    v = rng.uniform(0.0, 1.0, size=sgrid.shape)
    half = SpatialGrid(extents=(0.5,), cells=(8,))
    whole, left, right = (initial_state(u[:, sl], v[sl], grid)
                          for sl in (slice(None), slice(None, 8), slice(8, None)))
    for quantity in (
        lambda s, g: mass_b(s, grid, g),
        lambda s, g: entropy(s, grid, g),
        lambda s, g: tail_mass(s, 1.0, grid, g),
    ):
        total = quantity(whole, sgrid)
        assert quantity(left, half) + quantity(right, half) == pytest.approx(
            total, rel=1e-13, abs=1e-300)
    parts = [bin_sums(s.u, g) for s, g in ((left, half), (right, half))]
    sums = bin_sums(u, sgrid)
    for name in ("totals", "entropy"):
        assert np.allclose(getattr(parts[0], name) + getattr(parts[1], name),
                           getattr(sums, name), rtol=1e-13, atol=0.0)


def _reference_run(T=0.4, xi_level=0.4, cells=24):
    spec = make_spec(xi=steep_switch(xi_level),
                     D=lambda r: 0.1 * np.maximum(r, 0.0) ** 2,
                     E=lambda r, s: 0.2 * np.maximum(r, 0.0)
                     * np.ones_like(np.asarray(s, dtype=float)))
    spec, grid, reg, sgrid = _pieces(alpha=0.125, a_max=2.0, cells=cells, spec=spec)
    x = sgrid.axis_centers(0)
    u0 = np.zeros((grid.I,) + sgrid.shape)
    ages = (np.arange(grid.I) + 0.5) * grid.alpha
    u0[:] = (0.6 * np.exp(-2.0 * ages)[:, None]
             * (1.0 + 0.4 * np.cos(math.pi * x))[None, :])
    u0[ages > 1.0] = 0.0
    v0 = 0.3 * (1.0 + 0.5 * np.cos(math.pi * x))
    setup = RunSetup(spec=spec, agegrid=grid, reg=reg, sgrid=sgrid, u0=u0, v0=v0,
                     T=T, sample_dt=0.05, tail_A=(1.0,), store_u=True)
    return run(setup)


def test_zero_run_margins_equal_envelopes():
    spec, grid, reg, sgrid = _pieces()
    setup = RunSetup(spec=spec, agegrid=grid, reg=reg, sgrid=sgrid,
                     u0=np.zeros((grid.I,) + sgrid.shape), v0=np.zeros(sgrid.shape),
                     T=0.2, sample_dt=0.05, tail_A=(grid.alpha * 4,))
    record = run(setup).record
    report = envelope_report(record)
    assert tuple(report) == ENVELOPE_NAMES
    for name in ENVELOPE_NAMES:
        m = report[name]
        if m.skipped:
            continue
        assert m.margin >= 0.0
        if name in ("dissipation", "grad_zeta1", "kbound", "tail", "delta_v", "mass"):
            # observed is identically zero, so the margin is the envelope itself
            assert m.margin == pytest.approx(float(np.min(m.envelope)), rel=1e-12, abs=1e-300)


def test_reference_run_all_margins_nonneg():
    record = _reference_run().record
    for name, m in envelope_report(record).items():
        if not m.skipped:
            assert m.margin >= 0.0, f"{name} margin negative: {m.margin}"


def test_margins_grow_with_Xi():
    # envelopes are monotone in the truncation bound, so enlarging the
    # measured value can only widen the margins
    record = _reference_run().record
    inflated = dataclasses.replace(
        record, constants={**record.constants, "Xi": record.constants["Xi"] * 4.0}
    )
    base, grown = envelope_report(record), envelope_report(inflated)
    for name in ("kbound", "entropy", "dissipation"):
        assert grown[name].margin >= base[name].margin - 1e-12


# --- weak residual -----------------------------------------------------------

def _zero_test_function(dim=1):
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return TestFunction(psi=zero, psi_prime=zero, t_support=0.1,
                        chi=zero, chi_prime=zero, a_support=0.1,
                        modes=(0,) * dim, label="zero")


def test_weak_residual_zero_test_function():
    result = _reference_run(T=0.2)
    wr = weak_residual(result.samples, _zero_test_function(),
                       result.setup.spec, result.setup.agegrid, result.setup.sgrid)
    assert wr.residual == 0.0
    assert all(v == 0.0 for v in wr.terms.values())


def test_weak_residual_zero_trajectory():
    spec, grid, reg, sgrid = _pieces()  # xi = 0
    setup = RunSetup(spec=spec, agegrid=grid, reg=reg, sgrid=sgrid,
                     u0=np.zeros((grid.I,) + sgrid.shape), v0=np.zeros(sgrid.shape),
                     T=0.2, sample_dt=0.05)
    result = run(setup)
    phi = make_test_functions(0.2, grid.a_max, sgrid, k_max=1)[1]
    wr = weak_residual(result.samples, phi, spec, grid, sgrid)
    assert wr.residual == 0.0


def _bits(wr):
    return [wr.residual.hex(), wr.signed.hex()] + [(k, v.hex()) for k, v in wr.terms.items()]


def _rough_2d_run():
    spec = make_spec(xi=steep_switch(0.3),
                     D=lambda r: 0.1 * np.maximum(r, 0.0) ** 2,
                     E=lambda r, s: 0.2 * np.maximum(r, 0.0)
                     * np.ones_like(np.asarray(s, dtype=float)))
    grid = build_age_grid(spec, alpha=0.25, a_max=1.0)
    sgrid = SpatialGrid(extents=(1.0, 1.5), cells=(8, 6))
    X, Y = sgrid.axis_centers(0)[:, None], sgrid.axis_centers(1)[None, :]
    bump = (1.0 + 0.4 * np.cos(math.pi * X)) * (1.0 + 0.3 * np.cos(math.pi * Y / 1.5))
    ages = (np.arange(grid.I) + 0.5) * grid.alpha
    u0 = 0.5 * np.exp(-ages)[:, None, None] * bump[None]
    setup = RunSetup(spec=spec, agegrid=grid, reg=regularize(spec, 0.25), sgrid=sgrid,
                     u0=u0, v0=0.4 * bump, T=0.2, sample_dt=0.05)
    return run(setup, record=False)


@pytest.mark.parametrize("dim", [1, 2])
def test_weak_residual_catalogue_matches_single_calls_bitwise(dim):
    result = _reference_run(T=0.3) if dim == 1 else _rough_2d_run()
    setup = result.setup
    args = (setup.spec, setup.agegrid, setup.sgrid)
    cat = make_test_functions(setup.T, setup.agegrid.a_max, setup.sgrid, k_max=2)
    assert len(cat) == (3 if dim == 1 else 6)
    together = weak_residual(result.samples, cat, *args)
    assert len(together) == len(cat)
    for phi, wr in zip(cat, together):
        single = weak_residual(result.samples, phi, *args)
        assert single.residual > 0.0
        assert _bits(wr) == _bits(single), phi.label


def test_weak_residual_admissibility():
    result = _reference_run(T=0.2)
    setup = result.setup
    good = make_test_functions(0.2, setup.agegrid.a_max, setup.sgrid, k_max=1)[0]
    too_long = dataclasses.replace(good, t_support=1.0)
    with pytest.raises(InadmissibleTestFunction):
        weak_residual(result.samples, too_long, setup.spec, setup.agegrid, setup.sgrid)
    too_old = dataclasses.replace(good, a_support=10.0)
    with pytest.raises(InadmissibleTestFunction):
        weak_residual(result.samples, too_old, setup.spec, setup.agegrid, setup.sgrid)
    wrong_dim = dataclasses.replace(good, modes=(1, 1))
    with pytest.raises(InadmissibleTestFunction):
        weak_residual(result.samples, wrong_dim, setup.spec, setup.agegrid, setup.sgrid)
    # the moments form needs the moments of every sample
    moments = AgeMoments([good], setup.spec, setup.agegrid)
    moments.take(result.samples[0])
    with pytest.raises(ValueError, match="age moments for"):
        weak_residual(result.samples, moments, setup.spec, setup.agegrid, setup.sgrid)


def test_weak_residual_2d_tensor_modes():
    spec = make_spec(xi=steep_switch(0.3))
    grid = build_age_grid(spec, alpha=0.25, a_max=1.0)
    reg = regularize(spec, 0.25)
    sgrid = SpatialGrid(extents=(1.0, 1.0), cells=(8, 8))
    u0 = 0.4 * np.ones((grid.I,) + sgrid.shape)
    v0 = 0.5 * np.ones(sgrid.shape)
    setup = RunSetup(spec=spec, agegrid=grid, reg=reg, sgrid=sgrid,
                     u0=u0, v0=v0, T=0.2, sample_dt=0.05)
    result = run(setup)
    cat = make_test_functions(0.2, grid.a_max, sgrid, k_max=2)
    assert {phi.modes for phi in cat} == {
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}
    for phi in cat:
        wr = weak_residual(result.samples, phi, spec, grid, sgrid)
        assert math.isfinite(wr.residual)
        # gradient components of omega pair with the analytic laplacian
        lap = phi.lap_omega(sgrid)
        total = sum((k * math.pi) ** 2 for k in phi.modes)
        assert np.allclose(lap, -total * phi.omega(sgrid), atol=1e-12)


def test_catalogue_omega_neumann_and_laplacian():
    sgrid = SpatialGrid(extents=(1.0,), cells=(64,))
    cat = make_test_functions(1.0, 2.0, sgrid, k_max=3)
    assert len(cat) == 4
    for phi in cat:
        k = phi.modes[0]
        omega = phi.omega(sgrid)
        lap = phi.lap_omega(sgrid)
        assert np.allclose(lap, -(k * math.pi) ** 2 * omega, atol=1e-12)
    # boundary-normal derivative of the cosine modes vanishes at the walls
    for k in (1, 2, 3):
        assert math.sin(k * math.pi * 0.0) == 0.0
        assert abs(math.sin(k * math.pi * 1.0)) < 1e-14
