"""Explicit time integration of the regularized age-binned system.

State per step: I swarmer bin densities u_i, the swimmer density v and
the biomasses, one array of rows (``SimState.biomass``): row 0 is the
reconstructed biomass (alpha-weighted bin sum, enforced exactly every
step), row 1 a shadow biomass integrated from its own evolution
equation.  The shadow and the step's conservation sums feed only the
diagnostics record: a run without one (``run(setup, record=False)``)
starts from a state with the reconstructed row alone (``lambda_ev``
None), and its steps integrate no shadow and form no conservation sums.

Updates are explicit Euler.  Each step starts from one coefficient
record, ``step_coefficients``: D_alpha and E_alpha are evaluated once,
on both biomasses together, and each biomass then turns its row into
per-axis face diffusivities and drift face velocities and, in place,
into flux weights (``spatial_grid.flux_weights``), so the coefficients
are never rebuilt within a step.  The two biomasses share that
evaluation but not their discretization.  The bins' weights take the
arithmetic face mean of row 0's D_alpha, the mean to which the bin sum
telescopes.  The shadow's take the harmonic face mean of row 1's
D_alpha and transport the reconstructed biomass with the shadow's own
face velocity, so the sup-norm gap between the two biomasses is a
genuine second-order consistency metric instead of collapsing to
roundoff.  The shadow's weights are applied where they are formed, and
the record keeps only the shadow's divergence, beside the bins'
weights.  The step-size bound ``dt_max`` reads row 0 alone;
``step_coefficients`` takes it from ``stable_dt``, the one place it is
formed.  The bound keeps every update a convex combination of
nonnegative quantities; nonnegativity then holds without clipping
beyond roundoff.
It is 0.9 times the smallest of four limits: the age-transport
stiffness alpha/2, the per-axis diffusion limit dx^2/(2 dim max D_face)
(it can bind on anisotropic 2D meshes), the strict convex-combination
rate (diffusion and drift outflow, age transport and decay), and the
biomass equation's effective-diffusion limit: summed over the bins, the
drift acts on the biomass as diffusion with coefficient biomass*E, so
D_a + biomass*E bounds the reconstructed biomass as well as the shadow.
Two published terms are left out because
they can never bind: the drift CFL dx/max|w| is at least twice the
convex-combination limit, and the swimmer limit dx^2/(2 dim alpha) is
never below the diffusion limit since D_face >= alpha.

The bins are updated in place, in one loop over blocks of consecutive
bins, each about BIN_BLOCK_BYTES of u (``bin_blocks``: only the solver
knows the blocking, and the diagnostics samples read u through the step
plan's blocks), so a block's temporaries stay in cache.  The loop runs
from the last block to the first: a block is fed by the last bin of the
block before it, which is then still old.  Each block applies the
record's flux weights (``spatial_grid.div_flux``), takes its feed
(dt/alpha) u_prev while its bins are old, and then
overwrites them with the Euler update f (1 - dt/alpha - dt mu_i) +
dt div + (dt/alpha) u_prev in that order of operations.  Every
operation of the update is elementwise across bins, so the blocks give
the whole-array result bit for bit in any order.  The reductions are
taken per block in forms that do not depend on the blocking: the
minimum, clip and maximum of the new u, the cutoff-activation count,
and, when the state carries a shadow, per bin the sum of the divergence
and the sum of its magnitude, which are added up bin by bin in bin
order after the loop.  The swimmers' and the shadow's sources, which
read the old bins beyond a block's feed (the matvecs b*mu u and
(lam_star - mu*lam) u, and the last bin, the shadow's outflow), are
formed before the loop.  After it row 1 of the new state's biomass
array takes the shadow's update from the record's shadow divergence,
and row 0 the reconstruction from the new bins.  Up to 32768 cell-bins
(every 1D configuration in use) form a single block.

``run`` builds one ``StepPlan`` (``step_plan``) and passes it to every
step and every diagnostics sample: the frozen weights (the mu column,
b*mu, lam_star - mu*lam), the block layout and three flat block-sized
buffers.  The flux kernel writes a block's bin divergence into the first
through the other two, which allocates no array, and the feed and the
update's terms are formed in the work buffers, so a step allocates no
u-sized array and the plan holds none; the swimmers' Laplacian runs in
the idle ``div`` and ``work`` too.  A run holds its bins once, besides
``RunSetup.u0`` (``initial_state`` copies it, and the caller may read it
after the run).  The diagnostics samples between steps read u through
the plan's blocks into its ``work`` pair, which a step leaves holding
nothing, so they allocate no u-sized array either and the recorder holds
no block buffer; ``run`` releases the plan before ``finalize``.  A run
that is not asked for its diagnostics record (``run(setup,
record=False)``) builds no recorder and carries no shadow.

The drift's cutoff theta(alpha^2 u) is exactly 1 for alpha^2 u <= 1/2.
``step_coefficients`` tests that plateau once per step from the largest
bin density, which the state carries (``SimState.max_u``: the step takes
it from its block maxima after the clip, ``initial_state`` from the
initial data): on it the flux weights are merged, the drift transports u
itself and the cutoff is not evaluated; off it every block takes the
split weights and the cutoff-weighted density, so all blocks take one
path.

The new fields (u, v and the shadow if there is one) are checked from
one min and one max each (``check_step``, the guard the reduced solver's
steps share; its companion ``check_budget`` refuses, before a step, a
horizon that would take more than ``MAX_STEPS`` steps at the step's
bound): NaN and +-inf show in those extremes, so no finiteness
scan is needed; the minima of u and v meet the roundoff tolerance, and
alpha^2 max u > 1/2 says the cutoff acted and counts activations.

A step returns the new state alone, and the state carries what the run
and the recorder read of the steps that led to it: the step and
cutoff-activation counts (the cutoff has engaged once the count is above
0, ``RunResult.tstar_crossed``), the running minima of the raw u and v,
the running maximum of the conservation residual and whether the
biomass or v has come within 0.999 of the argument clamp 1/alpha.  The
step that first engages the cutoff logs a warning, and so does the step
that first reaches the clamp, so each is logged once per run.

The same raw minima decide the roundoff clip max(x, 0) of each bin block
and of v.  A field whose minimum is > 0 is left as computed, which is
what the clip would give bit for bit; one whose minimum is a zero, a
-0.0, a roundoff negative or NaN is clipped (-0.0 becomes +0.0, NaN
stays for ``check_step``).  Most fields skip the clip: at seed 0 a bin
block's minimum is positive in 74% (``plane2d``) to 99% (``ref1d``) of
the benchmark workloads' block-steps, and v's in all of their steps.

The time loop is ``march``, which ``reduced_system.run_reduced`` runs
too, so the two solvers sample on one grid of times (``sample_times``):
it takes steps no longer than the distance to the next sample time and
lands the state on it exactly.  A step consumes its input state's u: the
new state owns that same array, so a sample that keeps the bins copies
them, and an ``on_sample`` hook that keeps u must copy it.  The other
arrays of a state (v and the biomass array) are written once, when the
state is made, so a sample shares them instead of copying.

A run is single-threaded in its time loop; independent runs share no
mutable state and may execute concurrently.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import diagnostics as diag
from .age_discretization import AgeGrid, RegularizedModel
from .errors import StepBudgetExceeded, UnstableStep
from .model_spec import ModelSpec
from .spatial_grid import (
    FluxWeights,
    SpatialGrid,
    cutoff_plateau,
    div_flux,
    drift_diffusion_div,
    drift_face_data,
    face_mean,
    flux_weights,
    harmonic_mean,
    laplacian,
)

logger = logging.getLogger(__name__)

__all__ = [
    "SimState",
    "StepCoefficients",
    "StepPlan",
    "TrajectorySample",
    "RunSetup",
    "RunResult",
    "boundary_inflow",
    "step_coefficients",
    "stable_dt",
    "bin_blocks",
    "step_plan",
    "step",
    "check_step",
    "check_budget",
    "sample_times",
    "march",
    "run",
    "initial_state",
]

_NEG_TOL = -1e-12
_SAFETY = 0.9  # fraction of the stability limit a step may use
BIN_BLOCK_BYTES = 256 * 1024  # bytes of u per bin block; its temporaries fit a 2 MiB L2
MAX_STEPS = 10**7  # steps either solver may take to reach its horizon


def bin_blocks(shape: tuple) -> list:
    """Ranges (k0, k1) of consecutive bins of a float array of ``shape``
    (bins first), each about BIN_BLOCK_BYTES, so that elementwise work on
    one block stays in cache."""
    I = shape[0]
    nb = max(1, BIN_BLOCK_BYTES // (8 * math.prod(shape[1:])))
    return [(k0, min(k0 + nb, I)) for k0 in range(0, I, nb)]


@dataclass
class SimState:
    """Solver state.  ``step`` updates u in place, so the next state owns
    this state's u; v and the biomass array are written once, when the
    state is made, and never after, so samples share them.

    The fields after ``t`` are the statistics of the steps that led to
    the state, which ``step`` carries forward: the step count, the
    cutoff-activation count, the running minima of the raw (unclipped)
    new u and v, the running maximum of the conservation residual (0.0
    without a shadow) and whether the argument clamp has been reached.
    """

    u: np.ndarray            # (I, *cells) swarmer densities per age bin
    v: np.ndarray            # (*cells) swimmer density
    biomass: np.ndarray      # (2, *cells): the reconstructed biomass and the shadow;
    #                          (1, *cells), no shadow, in a run without a record
    max_u: float             # largest bin density, taken where u is made
    t: float = 0.0
    step_count: int = 0
    theta_activations: int = 0
    min_u_run: float = math.inf
    min_v_run: float = math.inf
    conservation_max: float = 0.0
    clamp_reached: bool = False

    @property
    def lambda_rec(self) -> np.ndarray:
        """The reconstructed biomass, the alpha-weighted bin sum: row 0."""
        return self.biomass[0]

    @property
    def lambda_ev(self) -> Optional[np.ndarray]:
        """The shadow biomass, integrated independently: row 1, or None."""
        return self.biomass[1] if len(self.biomass) > 1 else None


@dataclass(slots=True)
class StepCoefficients:
    """Coefficient data of one state, built once per step and not kept.

    ``weights`` are the bins' ``flux_weights``: from the arithmetic face
    mean of D_alpha and the drift face velocity w = face_mean(E_alpha) *
    grad(biomass), both of the reconstructed biomass; merged when every
    bin density lies on the cutoff plateau, split otherwise; one array
    per weight, in the flat face layout, which broadcasts over the bins.
    ``shadow_div`` is the shadow biomass' flux divergence, from its split
    weights: the harmonic face mean of its D_alpha and its own face
    velocity, transporting the reconstructed biomass; None for a state
    without a shadow.  ``dt_max`` is the step-size bound.
    """

    weights: FluxWeights
    shadow_div: Optional[np.ndarray]
    dt_max: float


@dataclass(frozen=True, eq=False)
class StepPlan:
    """Loop invariants and scratch of one run's steps, built once per run.

    The frozen weights are the decay column ``mu`` (shape (I, 1, ...)),
    the swimmer source weights b*mu and the shadow source weights
    lam_star - mu*lam; ``blocks`` is the bin-block layout.  ``div`` (a
    block's bin divergence) and the pair ``work`` (the update's term and
    the block's feed) are flat buffers of the largest block's size; with
    them ``step`` updates u in place, last block first, and allocates no
    u-sized array.  The scratch holds nothing from one step to the next,
    so between steps the diagnostics sample reads u through ``blocks``
    into ``work`` (``DiagnosticsRecorder.sample``).
    """

    mu: np.ndarray
    b_mu: np.ndarray
    lam_source: np.ndarray
    blocks: tuple
    div: np.ndarray
    work: tuple


@dataclass(frozen=True)
class TrajectorySample:
    """The fields of one sample time, of the full or of the reduced solver."""

    t: float
    u: Optional[np.ndarray]           # None unless the run stores u, and in the reduced
    v: np.ndarray
    lambda_rec: np.ndarray            # the biomass (the reduced solver's own field)


@dataclass
class RunSetup:
    spec: ModelSpec
    agegrid: AgeGrid
    reg: RegularizedModel
    sgrid: SpatialGrid
    u0: np.ndarray
    v0: np.ndarray
    T: float
    sample_dt: float
    tail_A: tuple = ()
    fixed_dt: Optional[float] = None
    store_u: bool = True


@dataclass
class RunResult:
    samples: list
    record: Optional["diag.DiagnosticsRecord"]   # None for run(setup, record=False)
    setup: RunSetup
    tstar_crossed: bool = False  # the cutoff engaged: theta_activations > 0
    steps: int = 0               # solver steps taken


def boundary_inflow(v: np.ndarray, reg: RegularizedModel) -> np.ndarray:
    """Age-zero inflow xi(v)*v; zero wherever v <= 0 since xi vanishes there."""
    v = np.asarray(v, dtype=float)
    return _inflow(v, reg.xi_alpha(v))


def _inflow(v: np.ndarray, xi: np.ndarray) -> np.ndarray:
    return np.where(v > 0.0, xi * v, 0.0)


def step_coefficients(state: SimState, grid: AgeGrid, reg: RegularizedModel,
                      sgrid: SpatialGrid) -> StepCoefficients:
    """The coefficient record of ``state``: flux weights and the one
    step-size bound (``stable_dt``, of the reconstructed biomass).

    D_alpha and E_alpha are evaluated once, on the state's biomass rows
    together.  Each row then forms its own face data and flux weights,
    in the memory of its face data: the shadow's from the harmonic face
    mean of its D_alpha, split, applied here; the bins' from the
    arithmetic one, merged or split after the state's largest bin
    density (``cutoff_plateau``).
    """
    bio = state.biomass
    lam = bio[0]
    Da = reg.D_alpha(bio)
    E_cell = reg.E_alpha(bio, state.v)
    eff_max = float((Da[0] + np.maximum(lam, 0.0) * E_cell[0]).max())
    shadow_div = None
    if len(bio) > 1:
        # the shadow's diffusivity: harmonic face means (D_a >= alpha > 0),
        # where the bin sum telescopes to the arithmetic ones
        shadow = drift_face_data(Da[1], E_cell[1], bio[1], sgrid, harmonic_mean)
        shadow_div = drift_diffusion_div(bio[1], lam,
                                         flux_weights(shadow, sgrid, merged=False), sgrid)
    faces = drift_face_data(Da[0], E_cell[0], lam, sgrid, face_mean)
    dt_max = stable_dt(faces, eff_max, grid, sgrid)
    weights = flux_weights(faces, sgrid, cutoff_plateau(state.max_u, reg))
    return StepCoefficients(weights, shadow_div, dt_max)


def stable_dt(faces: tuple, eff_max: float, grid: AgeGrid, sgrid: SpatialGrid) -> float:
    """The step-size bound of the reconstructed biomass' per-axis face
    data ``faces`` (D_face, w) and its largest effective diffusivity
    ``eff_max`` = max(D_a + biomass*E):

    dt_max = 0.9 * min( alpha/2, dx^2/(2 dim max D_face) per axis,
    1/max(rate, rate_shadow) ) where rate = 1/alpha + M + sum over axes
    of 2 max D_face/dx^2 + 2 max|w|/dx bounds every bin's loss rate and
    rate_shadow = sum of 2 eff_max/dx^2 is the biomass equation's limit.
    """
    bounds = [grid.alpha / 2.0]
    rate = 1.0 / grid.alpha + grid.M
    rate_shadow = 0.0
    # the last axis' row-wrap faces carry D = w = 0, which moves neither
    # maximum: D_face >= alpha > 0 and |w| >= 0
    for dx, (D_face, w) in zip(sgrid.dx, faces):
        d_max = float(D_face.max())
        w_max = float(np.abs(w).max(initial=0.0))
        bounds.append(dx * dx / (2.0 * sgrid.dim * d_max))
        rate += 2.0 * d_max / (dx * dx) + 2.0 * w_max / dx
        rate_shadow += 2.0 * eff_max / (dx * dx)
    return min(_SAFETY * min(bounds), _SAFETY / max(rate, rate_shadow))


def _reconstruct(u: np.ndarray, grid: AgeGrid, out: np.ndarray) -> None:
    # the alpha-weighted bin sum, written into the biomass row ``out``
    row = out.reshape(-1)
    np.matmul(grid.lam[: grid.I], u.reshape(grid.I, -1), out=row)
    row *= grid.alpha


def initial_state(u0: np.ndarray, v0: np.ndarray, grid: AgeGrid,
                  shadow: bool = True) -> SimState:
    """The state of the initial data, whose shadow biomass starts as the
    reconstructed one; with ``shadow`` false it carries no shadow
    (``lambda_ev`` is None)."""
    u0 = np.asarray(u0, dtype=float).copy()
    v0 = np.asarray(v0, dtype=float).copy()
    biomass = np.empty((2 if shadow else 1,) + u0.shape[1:])
    _reconstruct(u0, grid, biomass[0])
    biomass[1:] = biomass[0]
    return SimState(u=u0, v=v0, biomass=biomass, max_u=float(u0.max()))


def step_plan(grid: AgeGrid, sgrid: SpatialGrid) -> StepPlan:
    """The step plan of a run on ``grid`` x ``sgrid`` (see ``StepPlan``)."""
    I = grid.I
    blocks = tuple(bin_blocks((I,) + sgrid.shape))
    size = max(k1 - k0 for k0, k1 in blocks) * sgrid.ncells
    return StepPlan(
        mu=grid.mu[:I].reshape((I,) + (1,) * sgrid.dim),
        b_mu=grid.b[:I] * grid.mu[:I],
        lam_source=grid.lam_star - grid.mu[:I] * grid.lam[:I],
        blocks=blocks,
        div=np.empty(size),
        work=(np.empty(size), np.empty(size)),
    )


def step(state: SimState, dt: float, grid: AgeGrid, reg: RegularizedModel,
         sgrid: SpatialGrid, coeffs: StepCoefficients, plan: StepPlan) -> SimState:
    """One explicit Euler update of the full system: the new state.

    ``coeffs`` is ``step_coefficients`` of ``state``; the bin flux uses
    its flux weights, and nonnegativity requires dt <= its ``dt_max``.
    ``plan`` is ``step_plan(grid, sgrid)``; its scratch is overwritten,
    and the new state shares no memory with it.  The step consumes
    ``state.u``: the new bins are written into that array, and the new
    state owns it.  After ``UnstableStep`` it holds the failed update.
    The new biomasses are the rows of one new array.  The new state
    carries ``state``'s step statistics forward with this step's (see
    ``SimState``); the step that first engages the cutoff or first
    reaches the argument clamp logs a warning.  A state without a shadow
    biomass (``lambda_ev`` None) gives one without: the step then skips
    the shadow and the conservation sums, and its ``conservation_max``
    stays 0.0.
    """
    I, alpha = grid.I, grid.alpha
    u, v, bio = state.u, state.v, state.biomass
    lam_rec = bio[0]
    shadow = len(bio) > 1
    u_rows = u.reshape(I, -1)

    xi = reg.xi_alpha(v)
    inflow = _inflow(v, xi)
    # the sources read the old bins, which the loop overwrites; the
    # swimmers' (g(v) - xi) v + alpha b*mu u is formed in xi's memory
    source_v = np.subtract(np.asarray(reg.spec.g(v), dtype=float), xi, out=xi)
    source_v *= v
    source_v += alpha * (plan.b_mu @ u_rows).reshape(v.shape)
    if shadow:
        source_ev = grid.lam[0] * inflow
        source_ev += alpha * (plan.lam_source @ u_rows).reshape(v.shape)
        source_ev -= grid.lam[I] * u[I - 1]  # the last bin's outflow
    # the bins are updated in place, in blocks whose temporaries stay in
    # cache, the last block first: a block is fed by the last bin of the
    # block before it, which is then still old.  Every operation is
    # elementwise across bins and every reduction is taken per bin or per
    # block, so the blocks give the whole-array result bit for bit
    work = plan.work
    # f + dt (d - (f - u_prev)/alpha - mu f) as
    # f (1 - dt/alpha - dt mu) + dt d + (dt/alpha) u_prev
    keep = 1.0 - dt / alpha - dt * plan.mu
    feed = dt / alpha
    mins, maxs = [], []    # per block: u's min before its clip, max after it
    row_sum_max = 0.0      # largest |sum| of a bin's divergence
    abs_rows = np.empty(I) if shadow else None  # each bin's sum of |divergence|
    activations = 0
    for k0, k1 in reversed(plan.blocks):
        f = u[k0:k1]
        d = div_flux(f, lam_rec, v, reg, sgrid, weights=coeffs.weights,
                     out=plan.div[:f.size].reshape(f.shape), work=work)
        term, fed = (w[:f.size].reshape(f.shape) for w in work)
        # each bin is fed by the one before it, the first by the inflow;
        # taken before the block is overwritten
        if k0 == 0:
            np.multiply(inflow, feed, out=fed[0])
            np.multiply(u[:k1 - 1], feed, out=fed[1:])
        else:
            np.multiply(u[k0 - 1:k1 - 1], feed, out=fed)
        f *= keep[k0:k1]
        np.multiply(d, dt, out=term)
        f += term
        f += fed
        mins.append(float(f.min()))
        if not mins[-1] > 0.0:  # a zero, a -0.0, a negative or NaN: clip
            np.maximum(f, 0.0, out=f)
        maxs.append(float(f.max()))
        if shadow:  # the conservation sums, which only the record reads
            rows = d.reshape(k1 - k0, -1)
            row_sums = rows.sum(axis=1)
            row_sum_max = max(row_sum_max, float(np.abs(row_sums, out=row_sums).max()))
            np.abs(rows, out=rows)  # d is scratch: not read again
            rows.sum(axis=1, out=abs_rows[k0:k1])
        if alpha * alpha * maxs[-1] > 0.5:
            activations += int(np.count_nonzero(alpha * alpha * f > 0.5))

    lap_v = laplacian(v, sgrid, out=plan.div[:v.size].reshape(v.shape), work=work)
    new_v = v + dt * (alpha * lap_v + source_v)

    min_v, max_v = float(new_v.min()), float(new_v.max())
    extremes = mins + maxs + [min_v, max_v]
    new_bio = np.empty(bio.shape)
    if shadow:
        # lam_ev + dt (div + source)
        source_ev += coeffs.shadow_div
        source_ev *= dt
        new_ev = np.add(bio[1], source_ev, out=new_bio[1])
        extremes += [float(new_ev.min()), float(new_ev.max())]

    # u's minima are taken before its clip and its maxima after: the clip
    # keeps NaN and +inf, so the maxima still see them
    min_u, max_u = min(mins), max(maxs)
    check_step(state.t + dt, extremes, min(min_u, min_v), "state")
    if not min_v > 0.0:
        np.maximum(new_v, 0.0, out=new_v)

    _reconstruct(u, grid, new_bio[0])
    conservation = 0.0
    if shadow:
        vol = sgrid.cell_volume
        cons = max(row_sum_max, abs(float(lap_v.sum())),
                   abs(float(coeffs.shadow_div.sum()))) * vol
        abs_sum = 0.0
        for total in abs_rows.tolist():
            abs_sum += total  # bin by bin in order, whatever the blocks
        # lap_v's L1 norm, in its scratch: not read again
        conservation = cons / max(abs_sum * vol, float(np.abs(lap_v, out=lap_v).sum()) * vol,
                                  1e-300)

    # the cutoff acts on some bin exactly when the largest leaves its
    # plateau alpha^2 u <= 1/2; the first such step warns
    if activations and not state.theta_activations:
        logger.warning("bin density crossed 1/(2 alpha^2) at t=%.6g; the cutoff keeps the scheme "
                       "defined but the biomass identity is no longer exact", state.t + dt)
    # v's maximum after the clip is max(max_v, 0); the biomass is
    # nonnegative, so the 0 does not move the reach.  The first step that
    # reaches the clamp warns
    clamp = state.clamp_reached or max(float(new_bio[0].max()), max_v) > 0.999 * reg.clamp
    if clamp and not state.clamp_reached:
        logger.warning("state reached the argument clamp 1/alpha=%.3g; the regularized "
                       "coefficients are no longer exact", reg.clamp)
    return SimState(
        u=u, v=new_v, biomass=new_bio, max_u=max_u,
        t=state.t + dt, step_count=state.step_count + 1,
        theta_activations=state.theta_activations + activations,
        min_u_run=min(state.min_u_run, min_u), min_v_run=min(state.min_v_run, min_v),
        conservation_max=max(state.conservation_max, conservation), clamp_reached=clamp,
    )


def check_step(t: float, extremes, low: float, what: str) -> None:
    """Raise ``UnstableStep`` for a step to ``t`` of either solver unless
    every value of ``extremes`` is finite and ``low`` >= -1e-12.

    ``extremes`` holds one min and one max per new field: NaN propagates
    through both and +-inf shows in one of them, so finite extremes mean
    finite fields.  ``low`` is the smallest unclipped minimum of the
    fields the step-size contract keeps nonnegative; ``what`` names the
    state in the message.
    """
    if not all(map(math.isfinite, extremes)):
        raise UnstableStep(f"non-finite {what} at t={t:.6g}")
    if low < _NEG_TOL:
        raise UnstableStep(f"{what} fell to {low:.3e} < {_NEG_TOL:g} at t={t:.6g}; "
                           "step-size contract violated")


def check_budget(steps: int, t: float, T: float, bound: float, fixed_dt: Optional[float],
                 what: str) -> None:
    """Raise ``StepBudgetExceeded`` unless the ``steps`` taken plus the
    (T - t)/dt still to take fit in MAX_STEPS.

    dt is either solver's step-size ``bound`` at ``t``, capped at
    ``fixed_dt`` when that is set, and never the shorter step that lands
    on a sample time; ``what`` names the state in the message.  A zero
    dt fails; a NaN one passes, for ``check_step`` to refuse the fields
    that made it.
    """
    dt = bound if fixed_dt is None else min(bound, fixed_dt)
    if T - t > (MAX_STEPS - steps) * dt:
        raise StepBudgetExceeded(
            f"{what} at t={t:.6g} needs {(T - t) / dt if dt > 0 else math.inf:.3g} more "
            f"steps of dt={dt:.3e} to reach T={T:g}, beyond the budget of {MAX_STEPS}")


def sample_times(T: float, sample_dt: float) -> np.ndarray:
    """The sample times after t = 0: multiples of ``sample_dt`` up to
    ``T``, the last moved onto ``T``.  Both solvers sample on them, so
    cross-validation compares sample against sample."""
    n = int(math.floor(T / sample_dt + 1e-9))
    times = sample_dt * np.arange(1, n + 1)
    if times.size == 0 or times[-1] < T - 1e-12 * max(T, 1.0):
        times = np.append(times, T)
    else:
        times[-1] = T
    return times


def march(state, T: float, sample_dt: float, fixed_dt: Optional[float],
          advance: Callable, sample: Callable) -> tuple:
    """The one time loop of both solvers, from ``state`` to ``T``.

    Samples ``state``, then for every time of ``sample_times(T,
    sample_dt)`` calls ``advance(state, room)`` for the next state until
    the time is reached, ``room`` being the distance to it, capped at
    ``fixed_dt`` when that is set.  The state is then landed on the
    sample time exactly (``dataclasses.replace``, so runs are
    deterministic) and sampled.  Returns ``(samples, state)``, the list
    of ``sample(state)`` results and the state landed on ``T``.
    """
    samples = [sample(state)]
    for t_target in sample_times(T, sample_dt):
        while state.t < t_target - 1e-12 * max(T, 1.0):
            room = t_target - state.t
            if fixed_dt is not None:
                room = min(room, fixed_dt)
            state = advance(state, room)
        state = dataclasses.replace(state, t=t_target)
        samples.append(sample(state))
    return samples, state


def run(setup: RunSetup, record: bool = True,
        on_sample: Optional[Callable] = None) -> RunResult:
    """Integrate to the horizon with adaptive steps, sampling diagnostics.

    The time loop is ``march``: the step size is the minimum of the
    coefficient record's ``dt_max``, the fixed step if one is set, and
    the distance to the next sample time, so samples land exactly on the
    cadence grid and runs are deterministic.  One step plan serves every
    step and every sample; the diagnostics recorder samples the initial
    state and every sample time, and reads the steps' statistics off the
    sampled states.  A step is ``step_coefficients``, ``check_budget``
    and the module's ``step``, which logs the run's warnings.  The steps
    update one array of bins in place, so a sample copies u, and only
    when ``setup.store_u`` is set; it shares v, which is written once,
    and the reconstructed biomass, which a recorded run copies from the
    row beside the shadow.
    ``initial_state`` works on a copy of ``setup.u0``, which the run
    leaves as it was.  With ``record`` false no recorder is built,
    ``RunResult.record`` is None and the state carries no shadow biomass,
    so the steps form neither the shadow nor the conservation sums;
    ``u``, ``v``, ``lambda_rec`` and the steps are the same.
    ``on_sample``, if given, is called with the state at every sample, so
    a run that stores no u can still reduce its bins
    (``diagnostics.AgeMoments.take``); a hook that keeps u must copy it,
    since the next step overwrites it.
    """
    grid, reg, sgrid = setup.agegrid, setup.reg, setup.sgrid
    recorder = diag.DiagnosticsRecorder(
        setup.spec, grid, reg, sgrid, tail_A=setup.tail_A
    ) if record else None
    plan = step_plan(grid, sgrid)

    def sample(s: SimState) -> TrajectorySample:
        if recorder is not None:
            recorder.sample(s, plan)
        if on_sample is not None:
            on_sample(s)
        # a recorded state's biomass array holds the shadow row too, which
        # no sample keeps
        return TrajectorySample(t=s.t, u=s.u.copy() if setup.store_u else None, v=s.v,
                                lambda_rec=s.lambda_rec.copy() if record else s.lambda_rec)

    def advance(s: SimState, room: float) -> SimState:
        coeffs = step_coefficients(s, grid, reg, sgrid)
        check_budget(s.step_count, s.t, setup.T, coeffs.dt_max, setup.fixed_dt, "state")
        return step(s, min(coeffs.dt_max, room), grid, reg, sgrid, coeffs, plan)

    samples, state = march(initial_state(setup.u0, setup.v0, grid, shadow=record),
                           setup.T, setup.sample_dt, setup.fixed_dt, advance, sample)
    del plan  # its scratch is released before finalize allocates its own
    return RunResult(
        samples=samples,
        record=recorder.finalize() if recorder is not None else None,
        setup=setup,
        tstar_crossed=state.theta_activations > 0,
        steps=state.step_count,
    )
