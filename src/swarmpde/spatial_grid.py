"""Cell-centered finite-volume grid on a box with zero-flux boundaries.

Uniform spacing per axis in 1D or 2D.  Operators act on arrays whose
trailing axes match the grid shape; leading axes are broadcast, which is
how the per-age-bin fields are processed in one call.  Every operator
telescopes over interior faces with zero flux on boundary faces, so the
cell-volume-weighted sum of any output vanishes to roundoff.

The drift flux transports the cutoff-weighted density with a first-order
upwind donor choice.  That sacrifices formal order but makes the explicit
update a convex combination, which is what preserves nonnegativity.

Every face quantity has one layout, the flat rows of the flux kernel:
the fields' grid axes are flattened to ``ncells`` cells, and face k of
an axis with flat stride s lies between cells k and k + s
(``SpatialGrid.face_rows``).  On the last axis of a 2D grid the faces
between the end of one row and the start of the next are row wraps:
every face helper (``face_diff``, ``face_mean``, ``harmonic_mean``)
returns exactly +0.0 there, so they carry no flux and add nothing to a
sum.

``drift_diffusion_div`` is the one face-flux kernel (the bins, the shadow
biomass, the reduced system and, with the grid's unit-diffusion weights,
the ``laplacian``).  Its coefficients depend on the grid fields only, so
``drift_faces`` forms them once from the face data
(``drift_face_data``): the diffusion weight D_face/dx^2 and the two
halves of the upwind drift weight w/dx.  Fields with leading rows give
one set of weights per row, formed in the same passes (the solver's two
biomasses; ``FluxWeights.row`` and ``own_row``).  When the drift transports the
density itself (the bins on the cutoff plateau, the reduced system) the
three merge into one weight per side of the face, and an axis costs
four or five passes over the field.  Every face flux is formed once and
goes to both of its cells, so the cell sum telescopes.  Each operation
of the kernel is one contiguous loop per row.  With an output array and
two work buffers from the caller (the solver's step plan) it allocates
no array.  ``face_sq_sums`` reduces weighted squared face differences
per row in the same layout: every squared-gradient sum of the
diagnostics (the sqrt-gradient and drift dissipations, the gradients of
the biomass transforms and of the initial swimmers).

Operators are pure functions of their inputs; concurrent calls on
disjoint outputs and work buffers are safe.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, refuse

__all__ = [
    "SpatialGrid",
    "box_problems",
    "FluxWeights",
    "div_flux",
    "cutoff_plateau",
    "drift_face_data",
    "drift_faces",
    "flux_weights",
    "drift_diffusion_div",
    "laplacian",
    "diffusion_weights",
    "face_sq_sums",
    "grad_cell",
    "face_diff",
    "face_mean",
    "harmonic_mean",
    "conservation_residual",
    "prolong",
    "sq_l2",
    "l1",
    "field_to_csv",
    "field_from_csv",
    "field_to_binary",
    "field_from_binary",
]

_MAGIC = b"SWPF"


def box_problems(dim: int, extents, cells) -> list:
    """(config field, message) for every rule of the box that dim, extents
    and cells break; ``SpatialGrid`` refuses them all."""
    p = [] if dim in (1, 2) else [("dim", "must be 1 or 2")]
    p += [(name, "length must equal dim")
          for name, values in (("extents", extents), ("cells", cells)) if len(values) != dim]
    if any(c < 2 for c in cells):
        p.append(("cells", "need at least 2 cells per axis"))
    if not all(e > 0.0 for e in extents):
        p.append(("extents", "must be positive"))
    return p


@dataclass(frozen=True)
class SpatialGrid:
    extents: tuple
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        refuse(box_problems(len(self.cells), self.extents, self.cells))

    @cached_property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple:
        return self.cells

    @cached_property
    def ncells(self) -> int:
        return int(np.prod(self.cells))

    @cached_property
    def dx(self) -> tuple:
        return tuple(e / c for e, c in zip(self.extents, self.cells))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.dx))

    @cached_property
    def face_strides(self) -> tuple:
        """Per axis, the distance between neighbouring cells in the
        flattened (C-order) cell index."""
        return tuple(int(np.prod(self.cells[ax + 1:])) for ax in range(self.dim))

    @cached_property
    def face_rows(self) -> tuple:
        """Per axis, the index tuples (lo, hi, wrap) of the flat face
        layout on fields whose grid axes are flattened to ``ncells``
        cells: the cells left and right of every face, and the row-wrap
        faces (None but on the last axis in 2D)."""
        N, n = self.ncells, self.cells[-1]
        return tuple(
            ((..., slice(None, N - s)), (..., slice(s, None)),
             (..., slice(n - 1, None, n)) if s == 1 and self.dim > 1 else None)
            for s in self.face_strides
        )

    @cached_property
    def unit_weights(self) -> tuple:
        """Per axis, the unit-diffusion weight 1/dx^2 of every face: a
        number on an axis without row wraps, else an array in the flat
        face layout that is zero on the wraps."""
        weights = []
        for dx, (_, _, wrap) in zip(self.dx, self.face_rows):
            a = 1.0 / (dx * dx)
            if wrap is not None:
                a = np.full(self.ncells - 1, a)
                a[wrap] = 0.0
            weights.append(a)
        return tuple(weights)

    @cached_property
    def laplacian_weights(self) -> "FluxWeights":
        """Merged flux weights of unit diffusion without drift:
        A = ``unit_weights`` and B = -A."""
        return FluxWeights(axes=tuple((a, -a) for a in self.unit_weights), merged=True)

    def axis_centers(self, ax: int) -> np.ndarray:
        return (np.arange(self.cells[ax]) + 0.5) * self.dx[ax]

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, shape (ncells, dim)."""
        axes = [self.axis_centers(ax) for ax in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def check_field(self, values: np.ndarray, name: str) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape[-self.dim:] != self.shape:
            raise GridMismatch(
                f"{name} shape {values.shape} does not end in grid shape {self.shape}"
            )
        return values


def _rows(f: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """``f`` with its grid axes flattened to one axis of ``ncells`` cells."""
    return f.reshape(f.shape[:f.ndim - grid.dim] + (grid.ncells,))


def _face_pair(f: np.ndarray, grid: SpatialGrid, ax: int, pair) -> np.ndarray:
    """``pair(f[lo], f[hi])`` of the cells left and right of axis ax's
    faces, in the flat face layout, with +0.0 on the row wraps."""
    lo, hi, wrap = grid.face_rows[ax]
    if grid.dim > 1:
        f = _rows(f, grid)
    out = pair(f[lo], f[hi])
    if wrap is not None:
        out[wrap] = 0.0
    return out


def face_diff(f: np.ndarray, grid: SpatialGrid, ax: int) -> np.ndarray:
    """Centered gradient on axis ax's faces, in the flat face layout."""
    return _face_pair(f, grid, ax, lambda lo, hi: (hi - lo) / grid.dx[ax])


def face_mean(f: np.ndarray, grid: SpatialGrid, ax: int) -> np.ndarray:
    """Arithmetic mean on axis ax's faces, in the flat face layout."""
    return _face_pair(f, grid, ax, lambda lo, hi: 0.5 * (lo + hi))


def harmonic_mean(f: np.ndarray, grid: SpatialGrid, ax: int) -> np.ndarray:
    """Harmonic mean on axis ax's faces, in the flat face layout; needs
    f > 0 on both sides of every face."""
    return _face_pair(f, grid, ax, lambda lo, hi: 2.0 * lo * hi / (lo + hi))


def drift_face_data(D_cell, E_cell, lam, grid: SpatialGrid) -> tuple:
    """Per-axis face data ``(face_mean(D), w)`` of the drift-diffusion flux.

    The drift face velocity is w = face_mean(E) * grad(lam).  Both arrays
    have the flat face layout of the face helpers, so the row-wrap faces
    have D = w = 0 and carry no flux.  Fields with leading rows give face
    data with the same rows; a caller may overwrite a row's D with
    another face mean before the data become weights.
    """
    faces = []
    for ax in range(grid.dim):
        w = face_mean(E_cell, grid, ax)
        w *= face_diff(lam, grid, ax)
        faces.append((face_mean(D_cell, grid, ax), w))
    return tuple(faces)


@dataclass(frozen=True, eq=False)
class FluxWeights:
    """Per-axis weights of the face flux F_k between cells k and k + s.

    With a = D_face/dx^2, p = max(w, 0)/dx and m = min(w, 0)/dx the flux
    is F_k = a (f[k+s] - f[k]) + p q[k+s] + m q[k]: diffusion plus the
    upwind drift, whose donor is the right cell where w > 0.  Split
    weights store (a, p, m) per axis.  When the transported q is f
    itself the two merge, F_k = A f[k+s] + B f[k] with A = a + p and
    B = m - a, and merged weights store (A, B).  The arrays have the
    flat face layout; row-wrap faces have zero weights.  A weight that is
    one number on every face of an axis without row wraps may be that
    number (``SpatialGrid.unit_weights``).  Weights built from face data
    with leading rows hold one set of weights per row (``row``).
    """

    axes: tuple
    merged: bool

    def row(self, k: int) -> "FluxWeights":
        """The weights of row k of split weights, views into these."""
        return FluxWeights(tuple([(a[k], p[k], m[k]) for a, p, m in self.axes]), False)

    def own_row(self, k: int, merged: bool) -> "FluxWeights":
        """The weights of row k of split weights in arrays of their own,
        which keep none of these alive: merged, (p + a, m - a), when
        ``merged``, else copies."""
        if merged:
            return FluxWeights(tuple([(p[k] + a[k], m[k] - a[k]) for a, p, m in self.axes]),
                               True)
        return FluxWeights(tuple([(a[k].copy(), p[k].copy(), m[k].copy())
                                  for a, p, m in self.axes]), False)


def flux_weights(faces, grid: SpatialGrid, merged: bool) -> FluxWeights:
    """The ``FluxWeights`` of ``drift_face_data``, merged or split.

    The weights are formed in the memory of the face data, which they
    overwrite, so building them allocates one face array per axis.  Built
    once from grid fields, they serve every per-bin field that shares the
    coefficients.  Face data with leading rows give one set of weights
    per row, formed together.
    """
    axes = []
    for dx, (D_face, w) in zip(grid.dx, faces):
        m = np.minimum(w, 0.0)
        m /= dx
        p = np.maximum(w, 0.0, out=w)
        p /= dx
        a = np.divide(D_face, dx * dx, out=D_face)
        if merged:
            p += a
            m -= a
            axes.append((p, m))
        else:
            axes.append((a, p, m))
    return FluxWeights(axes=tuple(axes), merged=merged)


def drift_faces(D_cell, E_cell, lam, grid: SpatialGrid, merged: bool = False) -> FluxWeights:
    """The ``FluxWeights`` of the drift-diffusion flux with diffusivity
    face_mean(D) and face velocity face_mean(E) * grad(lam), split unless
    ``merged`` (see ``drift_face_data`` and ``flux_weights``)."""
    return flux_weights(drift_face_data(D_cell, E_cell, lam, grid), grid, merged)


def drift_diffusion_div(f, q, weights: FluxWeights, grid: SpatialGrid, out=None,
                        work=None) -> np.ndarray:
    """Divergence of the face flux D_face grad f + q_donor * w.

    ``weights`` comes from ``drift_faces``; merged weights need q to be
    f itself.  ``f`` and ``q`` have one shape and may carry leading
    (per-bin) axes.  Every axis runs on the fields flattened to rows of
    ``grid.ncells`` cells, so each operation is one contiguous loop per
    row.  Each face flux is formed once and goes to both of its cells,
    added to the left and subtracted from the right, so the cell sum of
    the result telescopes to roundoff.  The flux takes three passes with
    merged weights (two products and a sum) and six with split ones.
    The first axis then writes every cell's difference of its two face
    fluxes in one pass; every further axis adds its fluxes in two
    scatters.  A row-wrap face adds a flux of +-0, which changes no
    nonzero sum: the result equals the same operations taken per axis
    on the strided grid shape exactly, up to the sign of a zero.

    The result is written into ``out`` (contiguous) if given; ``work`` is
    a pair of flat float buffers of at least ``f.size`` elements.  With
    both given, no array is allocated.
    """
    if weights.merged and q is not f:
        raise ValueError("merged flux weights transport f itself")
    N = grid.ncells
    lead = f.shape[:f.ndim - grid.dim]
    rows = f.size // N
    if out is None:
        out = np.empty_like(f)
    flat = out
    if grid.dim > 1:
        f, q = f.reshape(lead + (N,)), q.reshape(lead + (N,))
        flat = out.reshape(lead + (N,), copy=False)
    if work is None:
        work = (np.empty(f.size), np.empty(f.size))
    for ax, (s, axis) in enumerate(zip(grid.face_strides, weights.axes)):
        m = N - s  # faces between cells k and k + s
        flux = work[0][:rows * m].reshape(lead + (m,))
        term = work[1][:rows * m].reshape(lead + (m,))
        if weights.merged:
            A, B = axis
            np.multiply(A, f[..., s:], out=flux)
            np.multiply(B, f[..., :m], out=term)
        else:
            a, p, mw = axis
            np.subtract(f[..., s:], f[..., :m], out=flux)
            flux *= a
            np.multiply(p, q[..., s:], out=term)
            flux += term
            np.multiply(mw, q[..., :m], out=term)
        flux += term
        if ax == 0:
            # cell k gains the flux of its face k and loses that of face
            # k - s; the first axis writes every cell in one pass
            np.copyto(flat[..., :s], flux[..., :s])
            np.subtract(flux[..., s:], flux[..., :m - s], out=flat[..., s:m])
            # 0 - flux, not np.negative: numpy 2.4's negative reads a
            # strided (rows, 1) operand as if it were contiguous
            np.subtract(0.0, flux[..., m - s:], out=flat[..., m:])
        else:
            flat[..., :m] += flux
            flat[..., s:] -= flux
    return out


def cutoff_plateau(u_max, reg) -> bool:
    """Whether densities whose largest is ``u_max`` all lie on the cutoff's
    plateau.

    theta is exactly 1 for alpha^2 u <= 1/2, so there the cutoff-weighted
    density u * theta(alpha^2 u) is u itself, bit for bit.
    """
    return bool(reg.alpha**2 * u_max <= 0.5)


def div_flux(u, lam_total, v, reg, grid: SpatialGrid, weights=None, out=None,
             work=None) -> np.ndarray:
    """Divergence of the swarmer flux D_a(biomass) grad u + u Theta E grad biomass.

    Arithmetic face mean of the diffusivity; the drift transports the
    cutoff-weighted density u*Theta upwind (see ``drift_diffusion_div``).
    ``weights`` are the ``drift_faces`` of ``D_a(lam_total)`` and
    ``E_a(lam_total, v)`` when the caller has built them already; merged
    weights say that u lies on the cutoff plateau, so the drift transports
    u itself; split weights transport u * theta(alpha^2 u), which is u bit
    for bit at every density on the plateau.  Without them the weights are
    merged exactly when ``cutoff_plateau(u.max(), reg)``.  With weights
    given only ``u`` is read, and checked against the grid; without them
    the biomass and the swimmers are checked too, and must be unbatched
    grid fields.  ``out`` and ``work`` are passed to ``drift_diffusion_div``.
    """
    u = grid.check_field(u, "u")
    if weights is None:
        lam = grid.check_field(lam_total, "biomass")
        vv = grid.check_field(v, "v")
        if lam.shape != grid.shape or vv.shape != grid.shape:
            raise GridMismatch("biomass/swimmer fields must be unbatched grid fields")
        weights = drift_faces(reg.D_alpha(lam), reg.E_alpha(lam, vv), lam, grid,
                              merged=cutoff_plateau(u.max(), reg))
    q = u if weights.merged else u * reg.theta(reg.alpha**2 * u)
    return drift_diffusion_div(u, q, weights, grid, out, work)


def laplacian(f, grid: SpatialGrid, out=None, work=None) -> np.ndarray:
    """Zero-flux Laplacian: the flux kernel with the grid's unit-diffusion
    weights (``SpatialGrid.laplacian_weights``); ``out`` and ``work`` as
    in ``drift_diffusion_div``."""
    f = grid.check_field(f, "f")
    return drift_diffusion_div(f, f, grid.laplacian_weights, grid, out=out, work=work)


def diffusion_weights(D_cell, grid: SpatialGrid) -> tuple:
    """Per axis, face_mean(D)/dx^2 in the flat face layout (zero on the
    row-wrap faces)."""
    return tuple(face_mean(D_cell, grid, ax) / (dx * dx) for ax, dx in enumerate(grid.dx))


def face_sq_sums(f, weights, grid: SpatialGrid, work=None) -> np.ndarray:
    """Per row of ``f`` (its leading axes, cells flattened), the sum over
    every axis and face k of weights[ax][k] (f[k + s] - f[k])^2.

    ``weights`` has the flat face layout, zero on the row-wrap faces, so
    a row's sum depends on that row alone.  With ``diffusion_weights(D)``
    it is the sum over faces of face_mean(D) |grad f|^2, which times the
    cell volume is the D-weighted discrete H^1 seminorm of f, squared;
    ``SpatialGrid.unit_weights`` leave D out.  In exact arithmetic it
    equals the cell sum of D times the squared face gradients averaged
    onto each cell.  ``work``, if given, is a flat float buffer of at
    least ``f.size`` elements; the result is the only array allocated.
    """
    N = grid.ncells
    rows = f.reshape(-1, N)
    n = rows.shape[0]
    if work is None:
        work = np.empty(rows.size)
    out = np.zeros(n)
    for s, w in zip(grid.face_strides, weights):
        m = N - s  # faces between cells k and k + s
        d = work[:n * m].reshape(n, m)
        np.subtract(rows[:, s:], rows[:, :m], out=d)
        d *= d
        d *= w
        out += d.sum(axis=1)
    return out


def grad_cell(f, grid: SpatialGrid) -> list:
    """Cell-centered gradient components (mirror ghost cells at boundaries)."""
    f = grid.check_field(f, "f")
    comps = []
    for ax, n in enumerate(grid.cells):
        idx = np.arange(n)
        right = f.take(np.minimum(idx + 1, n - 1), axis=ax - grid.dim)
        left = f.take(np.maximum(idx - 1, 0), axis=ax - grid.dim)
        comps.append((right - left) / (2.0 * grid.dx[ax]))
    return comps


def conservation_residual(out: np.ndarray, grid: SpatialGrid) -> float:
    """|sum(out)*vol| relative to the L1 size of the output."""
    total = abs(float(np.sum(out))) * grid.cell_volume
    return total / max(l1(out, grid), 1e-300)


# --------------------------------------------------------------------------
# nested meshes and the norms of a cell field

def prolong(f, grid: SpatialGrid, fine: SpatialGrid) -> np.ndarray:
    """The cell field ``f`` of ``grid`` on ``fine``, a refinement of it
    (its cells a multiple of ``grid``'s per axis): each coarse value is
    repeated over the fine cells it covers."""
    for ax, (c_from, c_to) in enumerate(zip(grid.cells, fine.cells)):
        f = np.repeat(f, c_to // c_from, axis=ax)
    return f


def sq_l2(f, grid: SpatialGrid) -> float:
    """The squared L2 norm of ``f``: the sum of f*f times the cell volume."""
    return float(np.sum(f * f)) * grid.cell_volume


def l1(f, grid: SpatialGrid) -> float:
    """The L1 norm of ``f``: the sum of |f| times the cell volume."""
    return float(np.sum(np.abs(f))) * grid.cell_volume


# --------------------------------------------------------------------------
# serialization

def field_to_csv(values, grid: SpatialGrid, path) -> None:
    values = grid.check_field(values, "field")
    coords = grid.centers()
    flat = values.reshape(-1)
    cols = ["index"] + [f"x{ax}" for ax in range(grid.dim)] + ["value"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for idx in range(grid.ncells):
            parts = [str(idx)] + [f"{c:.17g}" for c in coords[idx]] + [f"{flat[idx]:.17g}"]
            fh.write(",".join(parts) + "\n")


def field_from_csv(path, grid: SpatialGrid) -> np.ndarray:
    data = np.genfromtxt(path, delimiter=",", names=True)
    values = np.asarray(data["value"], dtype=float)
    if values.size != grid.ncells:
        raise GridMismatch(f"CSV carries {values.size} cells, grid has {grid.ncells}")
    return values.reshape(grid.shape)


def field_to_binary(values, grid: SpatialGrid, path) -> None:
    """Little-endian columnar dump: magic, version, dims, extents, float64 data."""
    values = grid.check_field(values, "field")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", 1, grid.dim))
        fh.write(struct.pack(f"<{grid.dim}I", *grid.cells))
        fh.write(struct.pack(f"<{grid.dim}d", *grid.extents))
        fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def field_from_binary(path):
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a field dump")
        version, dim = struct.unpack("<II", fh.read(8))
        if version != 1:
            raise ValueError(f"unsupported dump version {version}")
        cells = struct.unpack(f"<{dim}I", fh.read(4 * dim))
        extents = struct.unpack(f"<{dim}d", fh.read(8 * dim))
        values = np.frombuffer(fh.read(), dtype="<f8").reshape(cells).copy()
    return values, SpatialGrid(extents=extents, cells=cells)
