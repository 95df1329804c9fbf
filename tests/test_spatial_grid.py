import math
import tracemalloc

import numpy as np
import pytest

from swarmpde.age_discretization import regularize
from swarmpde.errors import GridMismatch, NegativeField
from swarmpde.spatial_grid import (
    SpatialGrid,
    apply_face_flux,
    conservation_residual,
    div_flux,
    drift_diffusion_div,
    drift_faces,
    face_diff,
    face_mean,
    field_from_binary,
    field_from_csv,
    field_to_binary,
    field_to_csv,
    grad_cell,
    grad_sq,
    grad_sq_root,
    laplacian,
)

from conftest import make_spec, power_zeta


def _grid1d(n, L=1.0):
    return SpatialGrid(extents=(L,), cells=(n,))


def _reg(D=None, E=None, alpha=1e-6):
    kwargs = {}
    if D is not None:
        kwargs["D"] = D
    if E is not None:
        kwargs["E"] = E
    return regularize(make_spec(**kwargs), alpha)


def test_operators_vanish_on_constants():
    grid = _grid1d(32)
    reg = _reg()
    u = np.full(grid.shape, 0.7)
    lam = np.full(grid.shape, 0.4)
    v = np.full(grid.shape, 0.2)
    assert np.all(div_flux(u, lam, v, reg, grid) == 0.0)
    assert np.all(laplacian(u, grid) == 0.0)
    assert np.all(grad_sq_root(u, grid) == 0.0)


def test_laplacian_quadratic_interior():
    # second difference of a quadratic is exact away from the boundary
    grid = _grid1d(32)
    x = grid.axis_centers(0)
    lap = laplacian(x**2, grid)
    assert np.allclose(lap[1:-1], 2.0, atol=1e-9)


def test_laplacian_cosine_l2_error():
    grid = _grid1d(256)
    x = grid.axis_centers(0)
    u = np.cos(math.pi * x)
    exact = -math.pi**2 * np.cos(math.pi * x)
    err = laplacian(u, grid) - exact
    l2 = math.sqrt(float(np.sum(err**2)) * grid.cell_volume)
    assert l2 <= 1e-3


def test_diffusion_convergence_order():
    # pure diffusion through div_flux: order >= 1.9 under doubling
    errors = {}
    reg = _reg(D=lambda r: np.ones_like(np.asarray(r, dtype=float)))
    for n in (128, 256):
        grid = _grid1d(n)
        x = grid.axis_centers(0)
        u = np.cos(math.pi * x)
        lam = np.full(grid.shape, 0.3)
        v = np.zeros(grid.shape)
        exact = -(1.0 + reg.alpha) * math.pi**2 * np.cos(math.pi * x)
        err = div_flux(u, lam, v, reg, grid) - exact
        errors[n] = math.sqrt(float(np.sum(err**2)) * grid.cell_volume)
    order = math.log2(errors[128] / errors[256])
    assert order >= 1.9


def test_drift_convergence_order():
    # manufactured solution with active drift via a symbolic oracle
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols("x")
    D0, theta, alpha = 0.1, 2.0, 0.125
    u_s = sympy.Rational(6, 10) + sympy.Rational(3, 10) * sympy.cos(sympy.pi * xs)
    lam_s = sympy.Rational(5, 10) + sympy.Rational(2, 10) * sympy.cos(sympy.pi * xs)
    D_s = D0 * lam_s**2 + alpha
    E_s = theta * D0 * lam_s
    flux = D_s * sympy.diff(u_s, xs) + u_s * E_s * sympy.diff(lam_s, xs)
    exact_fn = sympy.lambdify(xs, sympy.diff(flux, xs), "numpy")
    u_fn = sympy.lambdify(xs, u_s, "numpy")
    lam_fn = sympy.lambdify(xs, lam_s, "numpy")

    z2, z2p = power_zeta(D0, theta)
    spec = make_spec(
        D=lambda r: D0 * np.maximum(r, 0.0) ** theta,
        E=lambda r, s: theta * D0 * np.maximum(r, 0.0)
        * np.ones_like(np.asarray(s, dtype=float)),
        zeta2=z2, zeta2_prime=z2p,
    )
    reg = regularize(spec, alpha)
    errors = {}
    for n in (128, 256):
        grid = _grid1d(n)
        x = grid.axis_centers(0)
        got = div_flux(u_fn(x), lam_fn(x), np.zeros(grid.shape), reg, grid)
        err = got - exact_fn(x)
        errors[n] = math.sqrt(float(np.sum(err**2)) * grid.cell_volume)
    order = math.log2(errors[128] / errors[256])
    assert order >= 0.9


def test_conservation_random_fields(rng):
    reg = _reg(D=lambda r: 0.2 * np.maximum(r, 0.0) ** 2,
               E=lambda r, s: 0.1 * np.ones(np.broadcast(np.asarray(r), np.asarray(s)).shape),
               alpha=0.125)
    for cells in ((64,), (12, 9)):
        grid = SpatialGrid(extents=(1.0,) * len(cells), cells=cells)
        for _ in range(5):
            u = rng.uniform(0.0, 2.0, size=(3,) + grid.shape)
            lam = rng.uniform(0.0, 1.5, size=grid.shape)
            v = rng.uniform(0.0, 1.0, size=grid.shape)
            out = div_flux(u, lam, v, reg, grid)
            for row in out.reshape(3, -1):
                assert conservation_residual(row.reshape(grid.shape), grid) <= 1e-12
            assert conservation_residual(laplacian(v, grid), grid) <= 1e-12


def test_grad_sq_root_linear_profile():
    grid = _grid1d(32)
    x = grid.axis_centers(0)
    out = grad_sq_root(x**2, grid)  # sqrt(u) = x, gradient 1
    assert np.allclose(out[1:-1], 1.0, atol=1e-10)
    assert np.all(grad_sq_root(np.zeros(grid.shape), grid) == 0.0)


def test_grad_sq_root_negative_raises():
    grid = _grid1d(16)
    with pytest.raises(NegativeField):
        grad_sq_root(-np.ones(grid.shape), grid)


def test_grid_mismatch_raises():
    reg = _reg()
    grid = _grid1d(16)
    with pytest.raises(GridMismatch):
        div_flux(np.zeros(8), np.zeros(16), np.zeros(16), reg, grid)


def test_positivity_of_explicit_update(rng):
    # convex-combination property: nonnegative fields stay nonnegative
    # under the strict loss-rate bound
    spec = make_spec(
        D=lambda r: 0.1 * np.maximum(r, 0.0) ** 2,
        E=lambda r, s: 0.2 * np.maximum(r, 0.0)
        * np.ones_like(np.asarray(s, dtype=float)),
    )
    alpha = 0.125
    reg = regularize(spec, alpha)
    grid = _grid1d(48)
    dx = grid.dx[0]
    for _ in range(10):
        u = rng.uniform(0.0, 3.0, size=grid.shape)
        u[rng.integers(0, 48, size=5)] = 0.0
        lam = rng.uniform(0.0, 2.0, size=grid.shape)
        v = rng.uniform(0.0, 1.0, size=grid.shape)
        d_max = float(np.max(reg.D_alpha(lam)))
        w_max = float(np.max(np.abs(np.diff(lam) / dx))) * float(np.max(reg.E_alpha(lam, v)))
        rate = 2.0 * d_max / dx**2 + 2.0 * w_max / dx
        dt = 0.9 / rate
        updated = u + dt * div_flux(u, lam, v, reg, grid)
        assert float(updated.min()) >= 0.0


def test_grad_cell_linear_exact():
    grid = _grid1d(16)
    x = grid.axis_centers(0)
    g = grad_cell(3.0 * x, grid)[0]
    assert np.allclose(g[1:-1], 3.0, atol=1e-12)
    # mirror ghosts halve the one-sided boundary value
    assert g[0] == pytest.approx(1.5)


def test_grad_sq_2d_axes():
    grid = SpatialGrid(extents=(1.0, 2.0), cells=(8, 10))
    X = grid.axis_centers(0)[:, None]
    f = np.broadcast_to(2.0 * X, grid.shape).copy()
    out = grad_sq(f, grid)
    assert np.allclose(out[1:-1, :], 4.0, atol=1e-12)


def test_field_roundtrip_csv_binary(tmp_path, rng):
    grid = SpatialGrid(extents=(1.0, 0.5), cells=(6, 4))
    values = rng.normal(size=grid.shape)
    p_csv = tmp_path / "f.csv"
    p_bin = tmp_path / "f.bin"
    field_to_csv(values, grid, p_csv)
    field_to_binary(values, grid, p_bin)
    back_csv = field_from_csv(p_csv, grid)
    back_bin, grid_back = field_from_binary(p_bin)
    assert np.array_equal(back_bin, values)
    assert grid_back == grid
    assert np.allclose(back_csv, values, rtol=0, atol=0)  # %.17g round-trips


def _strided_faces(D_cell, E_cell, lam, grid):
    """Per-axis face data on the grid's face shapes, as the strided
    kernel took them: (face_mean(D), face_mean(E) * grad(lam))."""
    return tuple((face_mean(D_cell, grid, ax),
                  face_mean(E_cell, grid, ax) * face_diff(lam, grid, ax))
                 for ax in range(grid.dim))


def _strided_div(f, q, faces, grid):
    """Reference: the drift-diffusion divergence with every axis taken
    strided on the grid's shape, the form the flat-row kernel replaced."""
    out = np.zeros_like(f)
    for ax, (D_face, w) in enumerate(faces):
        lo, hi = grid.face_slices[ax]
        q_face = np.where(w > 0.0, q[hi], q[lo])
        q_face *= w
        flux = face_diff(f, grid, ax)
        flux *= D_face
        flux += q_face
        apply_face_flux(out, flux, grid, ax)
    return out


def _kernel_data(cells, bins, seed=3):
    # f with exact zeros and negative zeros; q != f (a cutoff acting on
    # some cells); a non-monotone biomass so w takes both signs
    grid = SpatialGrid(extents=(2.0, 3.0)[:len(cells)], cells=cells)
    rng = np.random.default_rng(seed)
    shape = (bins,) + cells
    f = rng.random(shape) * (rng.random(shape) > 0.25)
    f[rng.random(shape) < 0.1] = -0.0
    q = f * np.where(rng.random(shape) < 0.3, rng.random(shape), 1.0)
    lam = rng.random(cells)
    D_cell = 0.05 + rng.random(cells)
    E_cell = rng.random(cells)
    return grid, f, q, D_cell, E_cell, lam


@pytest.mark.parametrize("cells", [(13,), (9, 6), (5, 11)], ids=["1d", "2d_tall", "2d_wide"])
@pytest.mark.parametrize("per_block", [1, 3, 7], ids=["one_bin", "remainder", "all_bins"])
@pytest.mark.parametrize("buffers", [True, False], ids=["out_work", "allocating"])
def test_flat_kernel_matches_strided_bitwise(cells, per_block, buffers):
    grid, f, q, D_cell, E_cell, lam = _kernel_data(cells, bins=7)
    faces = drift_faces(D_cell, E_cell, lam, grid)
    strided = _strided_faces(D_cell, E_cell, lam, grid)
    assert any(np.any(w > 0.0) and np.any(w < 0.0) for _, w in strided)
    assert np.any(q != f) and np.any(np.signbit(f) & (f == 0.0))
    ref = _strided_div(f, q, strided, grid)
    out = np.full_like(f, np.nan)
    size = per_block * grid.ncells
    work = (np.full(size, np.nan), np.full(size, np.nan))
    for k0 in range(0, 7, per_block):
        k1 = min(k0 + per_block, 7)
        if buffers:
            got = drift_diffusion_div(f[k0:k1], q[k0:k1], faces, grid,
                                      out=out[k0:k1], work=work)
            assert np.shares_memory(got, out)
        else:
            out[k0:k1] = drift_diffusion_div(f[k0:k1], q[k0:k1], faces, grid)
    # bitwise, signs of zero included
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))
    one_field = drift_diffusion_div(f[2], q[2], faces, grid)
    assert np.array_equal(one_field.view(np.int64), ref[2].view(np.int64))


@pytest.mark.parametrize("cells", [(13,), (9, 6)], ids=["1d", "2d"])
def test_drift_faces_flat_layout(cells):
    # per axis: faces in flattened-cell order; the last axis carries a
    # zero face (D = w = 0, no upwind) after every row but the last
    grid, _, _, D_cell, E_cell, lam = _kernel_data(cells, bins=1)
    faces = drift_faces(D_cell, E_cell, lam, grid)
    strided = _strided_faces(D_cell, E_cell, lam, grid)
    for s, (D_face, w, up), (D_ref, w_ref) in zip(grid.face_strides, faces, strided):
        assert D_face.shape == w.shape == up.shape == (grid.ncells - s,)
        assert np.array_equal(up, w > 0.0)
        if s == 1 and grid.dim > 1:
            n = grid.cells[-1]
            real = np.arange(grid.ncells - 1) % n != n - 1
            assert np.all(D_face[~real] == 0.0) and np.all(w[~real] == 0.0)
            D_face, w = D_face[real], w[real]
        assert np.array_equal(D_face, D_ref.reshape(-1))
        assert np.array_equal(w, w_ref.reshape(-1))


def test_kernel_with_buffers_allocates_no_arrays():
    # with out and work given the kernel allocates no array: what remains
    # are numpy's transient iterator buffers for the broadcast face data
    # (at most getbufsize() elements per operand, whatever the field size)
    # and the view objects, both far below the field
    grid, f, q, D_cell, E_cell, lam = _kernel_data((128, 96), bins=4)
    faces = drift_faces(D_cell, E_cell, lam, grid)
    out = np.empty_like(f)
    work = (np.empty(f.size), np.empty(f.size))
    tracemalloc.start()
    try:
        drift_diffusion_div(f, q, faces, grid, out=out, work=work)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 2 * np.getbufsize() * f.itemsize + 16 * 1024
    assert bound < f.nbytes / 2
    assert peak < bound
