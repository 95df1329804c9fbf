"""Closed biomass/swimmer system for exponential weights, used as an oracle.

When the mass weight and the dedifferentiation weight are exponentials
with a common time scale and the dedifferentiation modulus is constant,
the age structure integrates out exactly: the biomass obeys a single
nonlinear diffusion equation with effective diffusivity D + biomass*E and
linear growth 1/tau - m2, and the swimmer equation keeps only its local
terms plus a biomass source (m2/m0).  Running this two-field system on
the same mesh as the full solver cross-validates the age binning: the gap
between the two must shrink linearly in the bin width.

The dedifferentiation weight is normalized to b(0) = 1, so its amplitude
does not enter the swimmer source.

Only the closed system's equations and step-size bound live here: the
time loop and the step guards are the full solver's
(``solver_core.march``, ``check_step`` and ``check_budget``), so both
solvers sample on the same times and fail a step in the same words.

The full and reduced runs of a cross-validation are independent and may
execute concurrently.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigMismatch, refuse
from .model_spec import ModelSpec, constant_problems
from .solver_core import (RunSetup, TrajectorySample, check_budget, check_step, initial_state,
                          march, run)
from .spatial_grid import SpatialGrid, drift_diffusion_div, drift_faces, face_mean, l1, sq_l2
from . import diagnostics as diag

__all__ = [
    "ReducedSpec",
    "CrossValResult",
    "reduced_from_model",
    "run_reduced",
    "cross_validate_setups",
    "refuse_inflow",
]


@dataclass(frozen=True)
class ReducedSpec:
    m0: float
    m2: float
    tau: float
    D: Callable
    E: Callable
    g: Callable
    xi: Callable

    def __post_init__(self):
        refuse(constant_problems(self.m0, self.tau, self.m2))  # m2 is the model's mu


def reduced_from_model(spec: ModelSpec, mu_const: float, m0: float,
                       tau: float) -> ReducedSpec:
    return ReducedSpec(
        m0=m0, m2=mu_const, tau=tau,
        D=spec.D, E=spec.E, g=spec.g, xi=spec.xi,
    )


def _reduced_div(lam, D, E, sgrid: SpatialGrid) -> np.ndarray:
    # same face treatment as the full solver's bin fluxes: arithmetic mean
    # of D, upwind donor biomass against the drift face velocity; the
    # drift transports the biomass itself, so the weights merge
    faces = drift_faces(D, E, lam, sgrid, merged=True)
    return drift_diffusion_div(lam, lam, faces, sgrid)


def _reduced_dt(lam, D, E, rspec: ReducedSpec, sgrid: SpatialGrid) -> float:
    # the drift acts on the biomass as nonlinear diffusion with coefficient
    # biomass*E, so the stability limit uses the effective diffusivity
    # D + biomass*E; its row-wrap faces are 0 and eff >= 0, so they do not
    # move the maximum
    eff = D + lam * E
    sink = max(0.0, rspec.m2 - 1.0 / rspec.tau)
    rate = sink
    for ax in range(sgrid.dim):
        dx = sgrid.dx[ax]
        k_max = float(face_mean(eff, sgrid, ax).max())
        rate += 2.0 * k_max / (dx * dx)
    return 0.9 / max(rate, 1e-300)


def run_reduced(rspec: ReducedSpec, sgrid: SpatialGrid, lam0, v0, T: float,
                sample_dt: float, fixed_dt: Optional[float]) -> list:
    """Explicit finite-volume integration of the closed two-field system.

    The time loop and the step guards are the full solver's
    (``solver_core.march``, ``check_step`` and ``check_budget``).  The state is a
    ``TrajectorySample`` whose arrays are written once, so the samples,
    at t = 0 and at every sample time up to ``T``
    (``solver_core.sample_times``), are states: the biomass is
    ``lambda_rec``, and ``u`` is None, as in a full run that stores no u.
    """
    lam = sgrid.check_field(np.asarray(lam0, dtype=float).copy(), "biomass")
    v = sgrid.check_field(np.asarray(v0, dtype=float).copy(), "v")
    if float(lam.min()) < -1e-12 or float(v.min()) < -1e-12:
        raise ValueError("initial data must be nonnegative")
    growth = 1.0 / rspec.tau - rspec.m2
    v_coef = rspec.m2 / rspec.m0
    steps = 0

    def advance(s: TrajectorySample, room: float) -> TrajectorySample:
        nonlocal steps
        lam, v = s.lambda_rec, s.v
        # D and E are evaluated once per step, for the bound and the flux
        D = np.asarray(rspec.D(lam), dtype=float)
        E = np.asarray(rspec.E(lam, v), dtype=float)
        bound = _reduced_dt(lam, D, E, rspec, sgrid)
        check_budget(steps, s.t, T, bound, fixed_dt, "reduced state")
        steps += 1
        dt = min(bound, room)
        new_lam = lam + dt * (_reduced_div(lam, D, E, sgrid) + growth * lam)
        gv = np.asarray(rspec.g(v), dtype=float)
        xv = np.where(v > 0.0, np.asarray(rspec.xi(v), dtype=float), 0.0)
        new_v = v + dt * ((gv - xv) * v + v_coef * lam)
        lows = (float(new_lam.min()), float(new_v.min()))
        check_step(s.t + dt, lows + (float(new_lam.max()), float(new_v.max())), min(lows),
                   "reduced state")
        for field, low in zip((new_lam, new_v), lows):
            if not low > 0.0:  # a zero, a -0.0 or a roundoff negative: clip
                np.maximum(field, 0.0, out=field)
        return TrajectorySample(t=s.t + dt, u=None, v=new_v, lambda_rec=new_lam)

    start = TrajectorySample(t=0.0, u=None, v=v, lambda_rec=lam)
    return march(start, T, sample_dt, fixed_dt, advance, lambda s: s)[0]


# --------------------------------------------------------------------------
# cross validation against the full solver

@dataclass(frozen=True)
class CrossValResult:
    rel_l2_Lambda: float
    rel_l2_v: float
    linf_l1_Lambda: float
    linf_l1_v: float
    alpha_levels: tuple
    errors_by_level: tuple       # rel L2 of the biomass per alpha level
    errors_v_by_level: tuple
    order_Lambda: float
    order_v: float


def _ratio(x: float, y: float) -> float:
    # x/y of norms, with 0/0 = 0 and x/0 = inf otherwise
    return x / y if y > 0.0 else (0.0 if x == 0.0 else math.inf)


def _one_level(setup: RunSetup, rspec: ReducedSpec) -> tuple:
    # only the biomass and the swimmers are compared: the run keeps no bins
    sgrid = setup.sgrid
    fs = run(dataclasses.replace(setup, store_u=False), record=False).samples
    rs = run_reduced(rspec, sgrid, fs[0].lambda_rec, setup.v0, setup.T, setup.sample_dt,
                     fixed_dt=setup.fixed_dt)

    def gaps(name: str) -> tuple:
        # the final relative L2 gap of field ``name`` and its largest L1
        # gap over the samples relative to the full run's largest L1 norm
        f_T, r_T = getattr(fs[-1], name), getattr(rs[-1], name)
        e = _ratio(math.sqrt(sq_l2(f_T - r_T, sgrid)), math.sqrt(sq_l2(f_T, sgrid)))
        l1_diff = max(l1(getattr(f, name) - getattr(r, name), sgrid) for f, r in zip(fs, rs))
        l1_full = max((l1(getattr(f, name), sgrid) for f in fs), default=0.0)
        return e, _ratio(l1_diff, l1_full)

    e_lam, linf_lam = gaps("lambda_rec")
    e_v, linf_v = gaps("v")
    return e_lam, e_v, linf_lam, linf_v


def refuse_inflow(xi: Callable, alpha: float) -> None:
    """Raise ``ConfigMismatch`` unless xi vanishes on the regularization
    box [0, 1/alpha]: the closed system carries no age-zero inflow, so
    differentiation must be inactive for the comparison to mean anything."""
    probe = np.linspace(0.0, 1.0 / alpha, 257)
    if float(np.max(np.asarray(xi(probe), dtype=float))) > 0.0:
        raise ConfigMismatch(
            "cross-validation requires xi = 0: the closed biomass "
            "equation has no age-zero inflow term"
        )


def cross_validate_setups(setups, rspec: ReducedSpec) -> CrossValResult:
    """Compare full and reduced runs over alpha levels.

    ``setups`` are ready RunSetup objects of strictly decreasing alpha;
    each level compares its full and reduced runs on its own mesh, so the
    levels need not share one.  The first level provides the headline
    errors, the first refinement the observed order
    (``diagnostics.observed_orders``).
    """
    alphas = [s.agegrid.alpha for s in setups]
    if any(a2 >= a1 for a1, a2 in zip(alphas, alphas[1:])):
        raise ConfigMismatch("alpha levels must be strictly decreasing")
    for s in setups:
        refuse_inflow(s.spec.xi, s.agegrid.alpha)
        bound = 0.8 * s.agegrid.a_max
        if diag.tail_problems((bound,), s.agegrid.alpha):
            raise ConfigMismatch("age range too short for the tail precondition")
        state0 = initial_state(s.u0, s.v0, s.agegrid)
        total = diag.mass_b(state0, s.agegrid, s.sgrid)
        tail0 = diag.tail_mass(state0, bound, s.agegrid, s.sgrid)
        if total > 0.0 and tail0 > 1e-8 * total:
            raise ConfigMismatch(
                f"initial age tail beyond {bound:g} carries {tail0:.3e} "
                f"(> 1e-8 of total {total:.3e}); truncate the initial ages"
            )
    results = [_one_level(s, rspec) for s in setups]
    errs = tuple(r[0] for r in results)
    errs_v = tuple(r[1] for r in results)
    # the observed order of the first refinement, NaN without one
    order_l = (diag.observed_orders(errs, alphas) + [math.nan])[0]
    order_v = (diag.observed_orders(errs_v, alphas) + [math.nan])[0]
    return CrossValResult(
        rel_l2_Lambda=errs[0], rel_l2_v=errs_v[0],
        linf_l1_Lambda=results[0][2], linf_l1_v=results[0][3],
        alpha_levels=tuple(alphas),
        errors_by_level=errs, errors_v_by_level=errs_v,
        order_Lambda=order_l, order_v=order_v,
    )
