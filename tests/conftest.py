import math

import numpy as np
import pytest

from swarmpde.model_spec import ModelSpec, smoothstep


def power_zeta(D0, theta):
    """Closed-form transform induced by D(r) = D0 r^theta (oracle)."""
    half = (theta + 1.0) / 2.0
    s = math.sqrt(D0)

    def z(r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        return 2.0 * s / (theta + 1.0) * r**half

    def zp(r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        return s * r ** ((theta - 1.0) / 2.0)

    return z, zp


def make_spec(
    lam=None, b=None, mu=None, D=None, E=None, g=None, xi=None,
    zeta2=None, zeta2_prime=None,
):
    """ModelSpec with benign exponential-family defaults, parts overridable."""
    if lam is None:
        lam = lambda a: np.exp(np.asarray(a, dtype=float) / 2.0)
    if b is None:
        b = lambda a: np.exp(np.asarray(a, dtype=float) / 2.0)
    if mu is None:
        mu = lambda a: np.full_like(np.asarray(a, dtype=float), 0.3)
    if D is None:
        D = lambda r: np.maximum(np.asarray(r, dtype=float), 0.0)
    if E is None:
        E = lambda r, s: np.zeros(np.broadcast(np.asarray(r), np.asarray(s)).shape)
    if g is None:
        g = lambda s: np.ones_like(np.asarray(s, dtype=float))
    if xi is None:
        xi = lambda s: np.zeros_like(np.asarray(s, dtype=float))
    if zeta2 is None and zeta2_prime is None:
        zeta2, zeta2_prime = power_zeta(1.0, 1.0)
    return ModelSpec(
        lam=lam, b=b, mu=mu, D=D, E=E, g=g, xi=xi,
        zeta2=zeta2, zeta2_prime=zeta2_prime,
    )


def steep_switch(level):
    """xi that equals `level` for s >= 0.01 and 0 for s <= 0 (C^2)."""

    def xi(s):
        return level * smoothstep(np.asarray(s, dtype=float) / 0.01)

    return xi


# The strided face layout the solver used before its flat rows: per axis,
# the faces lie on the grid's own shape with one face fewer on that axis,
# and there are no row-wrap faces.  The flat layout is checked against it.

def face_slices(grid, ax):
    """The index tuples (lo, hi) of the cells left and right of every
    interior face of axis ``ax``; leading per-bin axes are taken whole."""
    rest = (slice(None),) * (grid.dim - 1 - ax)
    return (..., slice(None, -1)) + rest, (..., slice(1, None)) + rest


def strided_diff(f, grid, ax):
    lo, hi = face_slices(grid, ax)
    return (f[hi] - f[lo]) / grid.dx[ax]


def strided_mean(f, grid, ax):
    lo, hi = face_slices(grid, ax)
    return 0.5 * (f[lo] + f[hi])


def strided_harmonic_mean(f, grid, ax):
    lo, hi = face_slices(grid, ax)
    return 2.0 * f[lo] * f[hi] / (f[lo] + f[hi])


def apply_face_flux(out, flux, grid, ax):
    """Accumulate the divergence of an interior-face flux into ``out``."""
    lo, hi = face_slices(grid, ax)
    scaled = flux * (1.0 / grid.dx[ax])
    out[lo] += scaled
    out[hi] -= scaled


def strided_laplacian(f, grid):
    """The zero-flux Laplacian as the solver formed it before the flux
    kernel took it over."""
    out = np.zeros_like(f)
    for ax in range(grid.dim):
        apply_face_flux(out, strided_diff(f, grid, ax), grid, ax)
    return out


def grad_sq(f, grid):
    """Cell form of the squared gradient: face gradients squared and
    averaged back onto the two adjacent cells; boundary faces add zero."""
    out = np.zeros_like(f)
    for ax in range(grid.dim):
        lo, hi = face_slices(grid, ax)
        half_g2 = 0.5 * strided_diff(f, grid, ax) ** 2
        out[lo] += half_g2
        out[hi] += half_g2
    return out


def strided_faces(D_cell, E_cell, lam, grid, mean=strided_mean):
    """Per-axis face data on the grid's face shapes: (mean(D),
    face_mean(E) * grad(lam))."""
    return tuple((mean(D_cell, grid, ax),
                  strided_mean(E_cell, grid, ax) * strided_diff(lam, grid, ax))
                 for ax in range(grid.dim))


def strided_div(f, q, faces, grid):
    """The drift-diffusion divergence in the form the solver used before
    its face weights: per axis on the grid's shape, the donor q chosen by
    the sign of w, the flux (D grad f + q_donor w) / dx added to the left
    cell and subtracted from the right one."""
    out = np.zeros_like(f)
    for ax, (D_face, w) in enumerate(faces):
        lo, hi = face_slices(grid, ax)
        q_face = np.where(w > 0.0, q[hi], q[lo])
        q_face *= w
        flux = strided_diff(f, grid, ax)
        flux *= D_face
        flux += q_face
        apply_face_flux(out, flux, grid, ax)
    return out


def face_term_scale(f, q, faces, grid):
    """Per cell, the summed magnitudes of the terms its face fluxes are
    made of: |D|/dx^2 (|f_lo| + |f_hi|) + |w|/dx |q_donor| for every face
    of the cell.  Any evaluation order of the divergence rounds within a
    few ulp of this, whatever the cancellation between the terms."""
    out = np.zeros_like(f)
    for ax, (D_face, w) in enumerate(faces):
        lo, hi = face_slices(grid, ax)
        dx = grid.dx[ax]
        term = np.abs(D_face) / dx**2 * (np.abs(f[lo]) + np.abs(f[hi]))
        term += np.abs(w) / dx * np.abs(np.where(w > 0.0, q[hi], q[lo]))
        out[lo] += term
        out[hi] += term
    return out


# The age averaging of separable initial data as set-up formed it before
# one vectorized pass: one scalar call of the age profile per Gauss node of
# every bin.  The vectorized pass is checked bitwise against it.

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(8)


def per_node_age_average(age_profile, space, grid, sgrid):
    """Bin averages of age_profile(a) * space, node by node: per bin the
    terms weight * (c * space) summed from zeros and halved, then clipped
    at 0 and clamped at the cap 1/(4 alpha^2)."""
    out = np.zeros((grid.I,) + sgrid.shape)
    for k in range(grid.I):
        acc = np.zeros(sgrid.shape)
        for node, weight in zip(GAUSS_NODES, GAUSS_WEIGHTS):
            a = (k + (node + 1.0) * 0.5) * grid.alpha
            acc += weight * (float(age_profile(a)) * np.reshape(space, sgrid.shape))
        out[k] = acc * 0.5
    return np.minimum(np.maximum(out, 0.0), 1.0 / (4.0 * grid.alpha**2))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
