import math
import tracemalloc

import numpy as np
import pytest

from swarmpde.age_discretization import regularize
from swarmpde.errors import GridMismatch
from swarmpde.spatial_grid import (
    SpatialGrid,
    conservation_residual,
    diffusion_weights,
    div_flux,
    drift_diffusion_div,
    drift_face_data,
    drift_faces,
    face_diff,
    face_mean,
    face_sq_sums,
    field_from_binary,
    field_from_csv,
    field_to_binary,
    field_to_csv,
    grad_cell,
    harmonic_mean,
    l1,
    laplacian,
    prolong,
    sq_l2,
)

from conftest import (
    face_slices,
    face_term_scale,
    make_spec,
    power_zeta,
    strided_diff,
    strided_div,
    strided_faces,
    strided_harmonic_mean,
    strided_laplacian,
    strided_mean,
)


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
    assert np.all(face_sq_sums(np.sqrt(u), diffusion_weights(lam, grid), grid) == 0.0)


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


def test_grid_mismatch_raises():
    reg = _reg()
    grid = _grid1d(16)
    with pytest.raises(GridMismatch):
        div_flux(np.zeros(8), np.zeros(16), np.zeros(16), reg, grid)
    with pytest.raises(GridMismatch, match="unbatched"):
        div_flux(np.zeros(16), np.zeros((2, 16)), np.zeros(16), reg, grid)
    # with the weights given only u is read, and it is still checked
    lam = np.zeros(16)
    weights = drift_faces(reg.D_alpha(lam), reg.E_alpha(lam, lam), lam, grid, merged=True)
    with pytest.raises(GridMismatch, match=r"u shape \(2, 8\)"):
        div_flux(np.zeros((2, 8)), lam, lam, reg, grid, weights=weights)


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


def test_face_sq_sums_2d_axes():
    # f = 2 x varies along the first axis only: each of its faces adds
    # |grad f|^2 = 4 with unit weights, the faces of the second axis and
    # the row wraps add nothing
    grid = SpatialGrid(extents=(1.0, 2.0), cells=(8, 10))
    X = grid.axis_centers(0)[:, None]
    f = np.broadcast_to(2.0 * X, grid.shape).copy()
    n_faces = (grid.cells[0] - 1) * grid.cells[1]
    total = face_sq_sums(f, grid.unit_weights, grid)
    assert total.shape == (1,)
    assert total[0] == pytest.approx(4.0 * n_faces, rel=1e-12)
    per_axis = [face_sq_sums(f, [w if k == ax else 0.0 * w
                                 for k, w in enumerate(grid.unit_weights)], grid)[0]
                for ax in range(2)]
    assert per_axis[1] == 0.0 and per_axis[0] == total[0]


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


def _strided_weights(weights, grid):
    """The flat per-axis weights on the grid's face shapes: the row-wrap
    faces of the last axis dropped."""
    axes = []
    for ax, (s, arrays) in enumerate(zip(grid.face_strides, weights.axes)):
        shape = grid.shape[:ax] + (grid.shape[ax] - 1,) + grid.shape[ax + 1:]
        if s == 1 and grid.dim > 1:
            n = grid.cells[-1]
            arrays = [np.append(W, 0.0).reshape(grid.shape)[..., :n - 1] for W in arrays]
        axes.append(tuple(W.reshape(shape) for W in arrays))
    return axes


def _strided_weight_div(f, q, weights, grid):
    """Reference: the face-weight kernel's operations taken per axis on
    the grid's shape (no flattened rows, no row-wrap faces)."""
    out = np.zeros_like(f)
    for ax, arrays in enumerate(_strided_weights(weights, grid)):
        lo, hi = face_slices(grid, ax)
        if weights.merged:
            A, B = arrays
            flux = A * f[hi] + B * f[lo]
        else:
            a, p, m = arrays
            flux = (f[hi] - f[lo]) * a
            flux += p * q[hi]
            flux += m * q[lo]
        out[lo] += flux
        out[hi] -= flux
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
    # blocks of bins, with or without out/work, give bitwise the
    # whole-array allocating kernel, signs of zero included; that equals
    # the same operations on the strided grid shape exactly (a row-wrap
    # face may turn a zero's sign at a row end)
    grid, f, q, D_cell, E_cell, lam = _kernel_data(cells, bins=7)
    weights = drift_faces(D_cell, E_cell, lam, grid)
    assert not weights.merged
    strided = strided_faces(D_cell, E_cell, lam, grid)
    assert any(np.any(w > 0.0) and np.any(w < 0.0) for _, w in strided)
    assert np.any(q != f) and np.any(np.signbit(f) & (f == 0.0))
    whole = drift_diffusion_div(f, q, weights, grid)
    assert np.array_equal(whole, _strided_weight_div(f, q, weights, grid))
    out = np.full_like(f, np.nan)
    size = per_block * grid.ncells
    work = (np.full(size, np.nan), np.full(size, np.nan))
    for k0 in range(0, 7, per_block):
        k1 = min(k0 + per_block, 7)
        if buffers:
            got = drift_diffusion_div(f[k0:k1], q[k0:k1], weights, grid,
                                      out=out[k0:k1], work=work)
            assert np.shares_memory(got, out)
        else:
            out[k0:k1] = drift_diffusion_div(f[k0:k1], q[k0:k1], weights, grid)
    assert np.array_equal(out.view(np.int64), whole.view(np.int64))
    one_field = drift_diffusion_div(f[2], q[2], weights, grid)
    assert np.array_equal(one_field.view(np.int64), whole[2].view(np.int64))


@pytest.mark.parametrize("cells", [(13,), (9, 6), (5, 11)], ids=["1d", "2d_tall", "2d_wide"])
def test_face_weights_match_former_kernel_within_face_terms(cells):
    # against the former strided kernel (q != f, split weights) and, with
    # q = f, merged against split weights: each cell agrees within a few
    # ulp of its summed absolute face terms, not of max |div|
    grid, f, q, D_cell, E_cell, lam = _kernel_data(cells, bins=7)
    faces = strided_faces(D_cell, E_cell, lam, grid)
    eps = np.finfo(float).eps
    for qq in (q, f):
        scale = face_term_scale(f, qq, faces, grid)
        former = strided_div(f, qq, faces, grid)
        split = drift_diffusion_div(f, qq, drift_faces(D_cell, E_cell, lam, grid), grid)
        assert np.all(np.abs(split - former) <= 4 * eps * scale)
    merged = drift_diffusion_div(f, f, drift_faces(D_cell, E_cell, lam, grid, merged=True),
                                 grid)
    assert np.all(np.abs(merged - former) <= 4 * eps * scale)
    assert np.all(np.abs(merged - split) <= 4 * eps * scale)
    assert not np.array_equal(merged, split)  # the two orders do round apart


def _smooth_field(grid, bins):
    # the lowest cosine mode on an offset: the divergence is small next
    # to the face terms, which is where a non-telescoping form shows
    mode = np.cos(np.pi * grid.axis_centers(0) / grid.extents[0])
    if grid.dim == 2:
        mode = np.outer(mode, np.cos(np.pi * grid.axis_centers(1) / grid.extents[1]))
    return np.stack([1.5 + (0.5 + 0.1 * k) * mode for k in range(bins)])


@pytest.mark.parametrize("cells", [(128,), (48, 40)], ids=["1d", "2d"])
@pytest.mark.parametrize("kind", ["random", "smooth"])
@pytest.mark.parametrize("merged", [True, False], ids=["merged", "split"])
def test_kernel_telescopes_to_roundoff(cells, kind, merged):
    # every face flux is formed once and goes to both of its cells, so
    # each bin's cell sum cancels to a few ulp of the total |div|; a
    # per-cell stencil of the same weights leaves ~1e-14 of it
    grid = SpatialGrid(extents=(1.0, 1.5)[:len(cells)], cells=cells)
    rng = np.random.default_rng(29)
    f = rng.uniform(0.0, 2.0, (4,) + cells) if kind == "random" else _smooth_field(grid, 4)
    q = f if merged else f * rng.uniform(0.5, 1.0, f.shape)
    lam = rng.uniform(0.0, 1.5, cells) if kind == "random" else f[0] - 0.5
    D_cell = 0.1 + lam**2
    E_cell = 0.2 * lam
    weights = drift_faces(D_cell, E_cell, lam, grid, merged=merged)
    div = drift_diffusion_div(f, q, weights, grid)
    sums = np.abs(div.reshape(4, -1).sum(axis=1))
    assert float(sums.max()) <= 1e-15 * float(np.abs(div).sum())


@pytest.mark.parametrize("cells", [(13,), (9, 6)], ids=["1d", "2d"])
def test_drift_faces_flat_layout(cells):
    # per axis: faces in flattened-cell order; the last axis carries a
    # zero face (D = w = 0, zero weights) after every row but the last;
    # the weights are D/dx^2 and the upwind halves of w/dx, merged into
    # one weight per side of the face when q is f
    grid, _, _, D_cell, E_cell, lam = _kernel_data(cells, bins=1)
    faces = drift_face_data(D_cell, E_cell, lam, grid)
    split = drift_faces(D_cell, E_cell, lam, grid)
    merged = drift_faces(D_cell, E_cell, lam, grid, merged=True)
    strided = strided_faces(D_cell, E_cell, lam, grid)
    for s, dx, (D_face, w), (a, p, m), (A, B), (D_ref, w_ref) in zip(
            grid.face_strides, grid.dx, faces, split.axes, merged.axes, strided):
        assert D_face.shape == w.shape == a.shape == A.shape == (grid.ncells - s,)
        assert np.array_equal(a, D_face / dx**2)
        assert np.array_equal(p, np.maximum(w, 0.0) / dx)
        assert np.array_equal(m, np.minimum(w, 0.0) / dx)
        assert np.array_equal(A, a + p) and np.array_equal(B, m - a)
        if s == 1 and grid.dim > 1:
            n = grid.cells[-1]
            real = np.arange(grid.ncells - 1) % n != n - 1
            for W in (D_face, w, a, p, m, A, B):
                assert np.all(W[~real] == 0.0)
            D_face, w = D_face[real], w[real]
        assert np.array_equal(D_face, D_ref.reshape(-1))
        assert np.array_equal(w, w_ref.reshape(-1))


def test_merged_weights_need_q_to_be_f():
    grid, f, q, D_cell, E_cell, lam = _kernel_data((9,), bins=2)
    merged = drift_faces(D_cell, E_cell, lam, grid, merged=True)
    with pytest.raises(ValueError, match="transport f itself"):
        drift_diffusion_div(f, q, merged, grid)


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


def _wrap_mask(grid, ax):
    # the row-wrap faces of an axis in the flat face layout
    s = grid.face_strides[ax]
    k = np.arange(grid.ncells - s)
    if s == 1 and grid.dim > 1:
        return k % grid.cells[-1] == grid.cells[-1] - 1
    return np.zeros(k.size, dtype=bool)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["field", "bins"])
@pytest.mark.parametrize("cells", [(7,), (5, 7)], ids=["1d", "2d"])
def test_flat_face_helpers_match_strided_and_zero_wraps(cells, lead):
    # dx = 0.3 and 0.1 (not powers of two): every helper is bitwise the
    # strided form on the real faces and exactly +0.0 on each row wrap
    grid = SpatialGrid(extents=(1.5, 0.7)[:len(cells)], cells=cells)
    rng = np.random.default_rng(11)
    f = 0.1 + rng.random(lead + cells)
    for flat_fn, strided_fn in ((face_diff, strided_diff), (face_mean, strided_mean),
                                (harmonic_mean, strided_harmonic_mean)):
        for ax in range(grid.dim):
            got = flat_fn(f, grid, ax)
            wrap = _wrap_mask(grid, ax)
            assert got.shape == lead + wrap.shape
            ref = strided_fn(f, grid, ax).reshape(lead + (-1,))
            assert np.array_equal(got[..., ~wrap].view(np.int64), ref.view(np.int64))
            assert np.all(got[..., wrap].view(np.int64) == 0)  # +0.0, sign bit clear
            assert wrap.sum() == (grid.cells[0] - 1 if grid.dim == 2 and ax == 1 else 0)


@pytest.mark.parametrize("cells", [(7,), (5, 7)], ids=["1d", "2d"])
@pytest.mark.parametrize("dyadic", [True, False], ids=["dx_pow2", "dx_other"])
def test_laplacian_kernel_matches_strided(cells, dyadic):
    # the flux kernel with unit weights against the strided face-flux
    # form: within 4 ulp of each cell's summed face terms |f_lo| + |f_hi|
    # over dx^2, and bitwise when every dx is a power of two (1/dx^2 then
    # scales exactly)
    spacing = (0.25, 0.125) if dyadic else (0.3, 0.1)
    grid = SpatialGrid(extents=tuple(d * c for d, c in zip(spacing, cells)), cells=cells)
    assert all((math.frexp(dx)[0] == 0.5) == dyadic for dx in grid.dx)
    rng = np.random.default_rng(5)
    f = rng.normal(size=(3,) + cells)
    ref = strided_laplacian(f, grid)
    got = laplacian(f, grid)
    scale = np.zeros_like(f)
    for ax, dx in enumerate(grid.dx):
        lo, hi = face_slices(grid, ax)
        term = (np.abs(f[lo]) + np.abs(f[hi])) / dx**2
        scale[lo] += term
        scale[hi] += term
    assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * scale)
    assert np.array_equal(got, ref) == dyadic


@pytest.mark.parametrize("factor", [2, 4])
def test_prolong_onto_a_nested_mesh_keeps_the_norms(rng, factor):
    # each coarse cell's value covers its fine cells, so the L1 and the L2
    # norms weighted by the cell volumes do not move
    coarse = SpatialGrid(extents=(4.0, 3.0), cells=(6, 5))
    fine = SpatialGrid(extents=(4.0, 3.0), cells=(6 * factor, 5 * factor))
    f = rng.standard_normal(coarse.shape)
    g = prolong(f, coarse, fine)
    assert g.shape == fine.shape
    assert np.array_equal(g[::factor, ::factor], f)
    assert l1(g, fine) == pytest.approx(l1(f, coarse), rel=1e-14, abs=0.0)
    assert sq_l2(g, fine) == pytest.approx(sq_l2(f, coarse), rel=1e-14, abs=0.0)
    assert np.array_equal(prolong(f, coarse, coarse), f)
