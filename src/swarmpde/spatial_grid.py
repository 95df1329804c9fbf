"""Cell-centered finite-volume grid on a box with zero-flux boundaries.

Uniform spacing per axis in 1D or 2D.  Operators act on arrays whose
trailing axes match the grid shape; leading axes are broadcast, which is
how the per-age-bin fields are processed in one call.  Every operator
telescopes over interior faces with zero flux on boundary faces, so the
cell-volume-weighted sum of any output vanishes to roundoff.

The drift flux transports the cutoff-weighted density with a first-order
upwind donor choice.  That sacrifices formal order but makes the explicit
update a convex combination, which is what preserves nonnegativity.

``drift_diffusion_div`` is the one face-flux kernel (the bins, the shadow
biomass and the reduced system).  It runs every axis on the fields
flattened to rows of ``ncells`` cells, so each of its operations is one
contiguous loop per row; ``drift_faces`` gives the face data in that
flattened-cell order, with zero faces at the row wraps of the last axis.
With an output array and two work buffers from the caller (the solver's
step plan) it allocates no array.

Operators are pure functions of their inputs; concurrent calls on
disjoint outputs and work buffers are safe.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, NegativeField

__all__ = [
    "SpatialGrid",
    "div_flux",
    "drift_faces",
    "drift_diffusion_div",
    "laplacian",
    "grad_sq",
    "grad_sq_root",
    "grad_cell",
    "face_diff",
    "face_mean",
    "harmonic_mean",
    "apply_face_flux",
    "conservation_residual",
    "field_to_csv",
    "field_from_csv",
    "field_to_binary",
    "field_from_binary",
]

_MAGIC = b"SWPF"


@dataclass(frozen=True)
class SpatialGrid:
    extents: tuple
    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "extents", tuple(float(e) for e in self.extents))
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        if len(self.extents) != len(self.cells):
            raise ValueError("extents and cells must have equal length")
        if len(self.cells) not in (1, 2):
            raise ValueError("only 1D and 2D boxes are supported")
        if any(c < 2 for c in self.cells):
            raise ValueError("need at least 2 cells per axis")
        if any(e <= 0.0 for e in self.extents):
            raise ValueError("extents must be positive")

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
    def face_slices(self) -> tuple:
        """Per axis, the index tuples (lo, hi) of the cells left and right
        of every interior face; leading per-bin axes are taken whole."""
        return tuple(
            tuple((..., sl) + (slice(None),) * (self.dim - 1 - ax)
                  for sl in (slice(None, -1), slice(1, None)))
            for ax in range(self.dim)
        )

    def axis_centers(self, ax: int) -> np.ndarray:
        return (np.arange(self.cells[ax]) + 0.5) * self.dx[ax]

    def centers(self) -> np.ndarray:
        """Cell-center coordinates, shape (ncells, dim)."""
        axes = [self.axis_centers(ax) for ax in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def check_field(self, values: np.ndarray, name: str = "field") -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape[-self.dim:] != self.shape:
            raise GridMismatch(
                f"{name} shape {values.shape} does not end in grid shape {self.shape}"
            )
        return values


def face_diff(f: np.ndarray, grid: SpatialGrid, ax: int) -> np.ndarray:
    """Centered gradient on interior faces along axis ax."""
    lo, hi = grid.face_slices[ax]
    return (f[hi] - f[lo]) / grid.dx[ax]


def face_mean(f: np.ndarray, grid: SpatialGrid, ax: int) -> np.ndarray:
    lo, hi = grid.face_slices[ax]
    return 0.5 * (f[lo] + f[hi])


def harmonic_mean(f: np.ndarray, grid: SpatialGrid, ax: int) -> np.ndarray:
    """Harmonic face mean; needs f > 0 on both sides of every face."""
    lo, hi = grid.face_slices[ax]
    return 2.0 * f[lo] * f[hi] / (f[lo] + f[hi])


def apply_face_flux(out: np.ndarray, flux: np.ndarray, grid: SpatialGrid, ax: int) -> None:
    """Accumulate the divergence of an interior-face flux into ``out``."""
    lo, hi = grid.face_slices[ax]
    scaled = flux * (1.0 / grid.dx[ax])
    out[lo] += scaled
    out[hi] -= scaled


def _with_wraps(face: np.ndarray) -> np.ndarray:
    """Last-axis faces (..., n - 1) in flattened-cell order: a zero face
    follows each row, between its last cell and the next row's first."""
    padded = np.zeros(face.shape[:-1] + (face.shape[-1] + 1,))
    padded[..., :-1] = face
    return padded.reshape(-1)[:-1]


def drift_faces(D_cell, E_cell, lam, grid: SpatialGrid, mean=face_mean) -> tuple:
    """Per-axis face data ``(mean(D), w, w > 0)`` of the drift-diffusion flux.

    The drift face velocity is w = face_mean(E) * grad(lam).  Each array
    is flat, in flattened-cell order: face k of an axis with flat stride
    s (``grid.face_strides``) lies between flattened cells k and k + s.
    On the last axis (stride 1) the faces between the end of one row and
    the start of the next have D = w = 0 and carry no flux; in 1D there
    are none.  Built once from grid fields, the faces serve every
    per-bin field that shares the coefficients.
    """
    faces = []
    for ax in range(grid.dim):
        D_face = mean(D_cell, grid, ax)
        w = face_mean(E_cell, grid, ax) * face_diff(lam, grid, ax)
        if grid.dim > 1:
            flat = _with_wraps if ax == grid.dim - 1 else np.ravel
            D_face, w = flat(D_face), flat(w)
        faces.append((D_face, w, w > 0.0))
    return tuple(faces)


def drift_diffusion_div(f, q, faces, grid: SpatialGrid, out=None, work=None) -> np.ndarray:
    """Divergence of the face flux D_face grad f + q_donor * w.

    ``faces`` comes from ``drift_faces``; the transported quantity q is
    taken from the donor cell selected by the sign of w, so a face with
    w > 0 feeds the left cell.  ``f`` and ``q`` have one shape and may
    carry leading (per-bin) axes.  Every axis runs on the fields
    flattened to rows of ``grid.ncells`` cells, so each operation is one
    contiguous loop per row.  A row-wrap face adds a flux of +-0 to sums
    that start at +0.0 and so never hold -0.0, which leaves them bitwise
    unchanged: the result equals the per-axis strided one bit for bit.

    The result is written into ``out`` (contiguous) if given; ``work`` is
    a pair of flat float buffers of at least ``f.size`` elements.  With
    both given, no array is allocated.
    """
    N = grid.ncells
    lead = f.shape[:f.ndim - grid.dim]
    rows = f.size // N
    if out is None:
        out = np.zeros_like(f)
    else:
        out.fill(0.0)
    flat = out
    if grid.dim > 1:
        f, q = f.reshape(lead + (N,)), q.reshape(lead + (N,))
        flat = out.reshape(lead + (N,), copy=False)
    if work is None:
        work = (np.empty(f.size), np.empty(f.size))
    for s, dx, (D_face, w, up) in zip(grid.face_strides, grid.dx, faces):
        m = N - s  # faces between cells k and k + s
        q_face = work[0][:rows * m].reshape(lead + (m,))
        flux = work[1][:rows * m].reshape(lead + (m,))
        # the donor: the left cell, replaced by the right one where w > 0
        np.copyto(q_face, q[..., :m])
        np.copyto(q_face, q[..., s:], where=up)
        q_face *= w
        np.subtract(f[..., s:], f[..., :m], out=flux)
        flux /= dx
        flux *= D_face
        flux += q_face
        flux *= 1.0 / dx
        flat[..., :m] += flux
        flat[..., s:] -= flux
    return out


def _cutoff_density(u, reg) -> np.ndarray:
    """The drift's transported density u * theta(alpha^2 u).

    theta is exactly 1 for alpha^2 u <= 1/2, so when the largest bin
    density sits on that plateau the result is u itself, bit for bit,
    and the cutoff is not evaluated.
    """
    if reg.alpha**2 * u.max() <= 0.5:
        return u
    return u * reg.theta(reg.alpha**2 * u)


def div_flux(u, lam_total, v, reg, grid: SpatialGrid, faces=None, out=None,
             work=None) -> np.ndarray:
    """Divergence of the swarmer flux D_a(biomass) grad u + u Theta E grad biomass.

    Arithmetic face mean of the diffusivity; the drift transports the
    cutoff-weighted density u*Theta upwind (see ``drift_diffusion_div``).
    ``faces`` are the ``drift_faces`` of ``D_a(lam_total)`` and
    ``E_a(lam_total, v)`` when the caller has built them already;
    ``out`` and ``work`` are passed to ``drift_diffusion_div``.
    """
    u = grid.check_field(u, "u")
    lam = grid.check_field(lam_total, "biomass")
    vv = grid.check_field(v, "v")
    if lam.shape != grid.shape or vv.shape != grid.shape:
        raise GridMismatch("biomass/swimmer fields must be unbatched grid fields")
    if faces is None:
        faces = drift_faces(reg.D_alpha(lam), reg.E_alpha(lam, vv), lam, grid)
    return drift_diffusion_div(u, _cutoff_density(u, reg), faces, grid, out, work)


def laplacian(f, grid: SpatialGrid) -> np.ndarray:
    """Zero-flux Laplacian (unit diffusivity, no drift)."""
    f = grid.check_field(f, "f")
    out = np.zeros_like(f)
    for ax in range(grid.dim):
        apply_face_flux(out, face_diff(f, grid, ax), grid, ax)
    return out


def grad_sq(f, grid: SpatialGrid) -> np.ndarray:
    """Squared gradient magnitude per cell.

    Face gradients are squared and averaged back onto the two adjacent
    cells; boundary faces contribute zero (zero-flux data).
    """
    f = grid.check_field(f, "f")
    out = np.zeros_like(f)
    for ax in range(grid.dim):
        lo, hi = grid.face_slices[ax]
        half_g2 = 0.5 * face_diff(f, grid, ax) ** 2
        out[lo] += half_g2
        out[hi] += half_g2
    return out


def grad_sq_root(u, grid: SpatialGrid) -> np.ndarray:
    """Squared gradient of sqrt(u); the square root is taken on cell values
    so the result stays defined at u = 0."""
    u = grid.check_field(u, "u")
    if float(u.min()) < -1e-12:
        raise NegativeField(f"grad_sq_root needs u >= 0 (min {float(u.min()):.3e})")
    return grad_sq(np.sqrt(np.maximum(u, 0.0)), grid)


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
    scale = float(np.sum(np.abs(out))) * grid.cell_volume
    return total / max(scale, 1e-300)


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
