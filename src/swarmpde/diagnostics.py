"""Runtime diagnostics: every a-priori bound of the analysis, measured.

Each sampled quantity (b-weighted mass, lam-weighted entropy, dissipation
integrals, sup norms, age tails, the biomass identity gap) comes with a
Gronwall envelope rebuilt from the constants measured on the actual
coefficient arrays, so each estimate becomes an assertable per-run
inequality: envelope minus observation is the margin, and a negative
margin is a bug somewhere.  ``envelope_report`` forms all nine margins
in one straight pass over the record, and ``_margin`` is the one place
where an envelope meets its observation.

A sample reads each of the step plan's bin blocks (``solver_core.StepPlan``)
once, into the plan's block-sized ``work`` pair, which is idle between
steps, and reduces it in cache to per-bin sums (``bin_sums``):
the integrals of the densities, of their entropy density and of the
face form of their sqrt-gradient dissipation, plus the raw minimum and
the clipped maximum.  It checks the sign of the densities once and
takes every weighted sum over bins on the per-bin vectors, so it
allocates no array of the densities' size.  The standalone ``entropy``
and ``dissipation`` run ``bin_sums`` on all bins as one block; every
per-bin sum runs over that bin's cells alone, so the sample is bitwise
equal to them whatever the blocks.  The b-weighted mass and the age
tails are linear in the per-bin integrals (``bin_totals``), as in the
standalone ``mass_b`` and ``tail_mass``.

The weak-formulation residual evaluates the defining integral identity of
the continuous problem on the discrete trajectory against a catalogue of
tensor test functions (time bump x age bump x Neumann cosine); it must
shrink under simultaneous refinement of bin width, mesh and step size.
It is linear in the bins, and reads them only through two age moments
per test function (``AgeMoments``), which a run can take as each sample
is made, so the bins need not be kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .age_discretization import (
    AgeGrid,
    RegularizedModel,
    bin_averages,
    entropy_phi,
)
from .errors import InadmissibleTestFunction, NegativeField, refuse
from .model_spec import (
    ModelSpec,
    Zeta1Evaluator,
    diffusivity_slope,
    estimate_kappas,
    smoothstep,
    smoothstep_prime,
    zeta1_prime,
)
from .spatial_grid import (
    SpatialGrid,
    diffusion_weights,
    face_sq_sums,
    grad_cell,
    laplacian,
)

__all__ = [
    "AgeMoments",
    "DiagnosticsRecord",
    "DiagnosticsRecorder",
    "EnvelopeMargin",
    "TestFunction",
    "WeakResidualResult",
    "BinSums",
    "bin_sums",
    "bin_totals",
    "mass_b",
    "entropy",
    "dissipation",
    "tail_mass",
    "tail_problems",
    "comparison_bound",
    "envelope_report",
    "ENVELOPE_NAMES",
    "make_test_functions",
    "weak_residual",
]

ENVELOPE_NAMES = (
    "mass", "linf", "entropy", "dissipation",
    "grad_zeta1", "grad_zeta2", "kbound", "tail", "delta_v",
)


# --------------------------------------------------------------------------
# instantaneous quantities

class BinSums(NamedTuple):
    """One pass over bins of ``u``: the raw minimum, the maximum after the
    clip at 0, and per bin the integral of u (``bin_totals``), of the
    entropy density phi(clipped u) and, if asked for, the face form of
    the sqrt-gradient dissipation."""

    min_u: float
    max_u: float
    totals: np.ndarray
    entropy: np.ndarray
    dissipation: Optional[np.ndarray]


def bin_sums(u, sgrid: SpatialGrid, d_weights=None, work=None) -> BinSums:
    """The ``BinSums`` of the bins ``u`` (all of them or a block of them).

    Every reduction runs per bin over that bin's cells, so the sums of a
    block are bitwise the matching entries of the whole array's.  The
    dissipation, taken when ``d_weights`` (``diffusion_weights`` of
    D_alpha) is given, is per bin the sum over faces of
    (delta sqrt(r))^2 face_mean(D_alpha)/dx^2 of the clipped r
    (``face_sq_sums``).  ``work``, if given, is a pair of flat float
    buffers of at least ``u.size`` elements; with it no u-sized array is
    allocated.  The caller checks ``min_u``.
    """
    rows = u.reshape(u.shape[0], -1)
    if work is None:
        work = (np.empty(rows.size), np.empty(rows.size))
    r = work[0][:rows.size].reshape(rows.shape)
    low = float(rows.min())
    totals = bin_totals(rows, sgrid)
    np.maximum(rows, 0.0, out=r)
    top = float(r.max())
    ent = entropy_phi(r, out=work[1][:rows.size].reshape(rows.shape)).sum(axis=1)
    diss = None
    if d_weights is not None:
        diss = face_sq_sums(np.sqrt(r, out=r), d_weights, sgrid, work=work[1])
    return BinSums(low, top, totals, ent * sgrid.cell_volume,
                   None if diss is None else diss * sgrid.cell_volume)


def _checked(sums: BinSums) -> BinSums:
    if sums.min_u < -1e-12:
        raise NegativeField(f"bin densities must be >= 0 (min {sums.min_u:.3e})")
    return sums


def bin_totals(u, sgrid: SpatialGrid) -> np.ndarray:
    """Per-bin integrals of the bin densities: each bin's cell sum times
    the cell volume.  The b-weighted masses are linear in them."""
    return u.reshape(u.shape[0], -1).sum(axis=1) * sgrid.cell_volume


def mass_b(state, grid: AgeGrid, sgrid: SpatialGrid, totals=None) -> float:
    """Integral of alpha * sum_i b_i u_i + v, from the ``bin_totals`` of
    the bins (computed if not given)."""
    if totals is None:
        totals = bin_totals(state.u, sgrid)
    return (grid.alpha * float(grid.b[:grid.I] @ totals)
            + float(state.v.sum()) * sgrid.cell_volume)


def entropy(state, grid: AgeGrid, sgrid: SpatialGrid, sums=None) -> float:
    """lam-weighted entropy sum_i alpha lam_i integral phi(u_i).

    ``sums`` are the ``bin_sums`` of the bins, taken if not given; given,
    the caller has checked the sign of the densities.
    """
    if sums is None:
        sums = _checked(bin_sums(state.u, sgrid))
    return grid.alpha * float(grid.lam[:grid.I] @ sums.entropy)


def dissipation(state, grid: AgeGrid, reg: RegularizedModel, sgrid: SpatialGrid,
                zeta1_eval: Callable, spec: ModelSpec, sums=None) -> tuple:
    """Instantaneous dissipation integrands.

    Returns (d_u, d_E, gz1, gz2): the lam-weighted sqrt-gradient term with
    the regularized diffusivity (see ``bin_sums``), the drift term
    E |grad biomass|^2, and the squared gradients of both transforms of
    the biomass.  All four are face sums (``face_sq_sums``): the face
    means of D_alpha and of E_alpha weigh the first two, the grid's unit
    weights the last two.  Transform gradients difference the transformed
    cell values, matching how the limit objects are defined.  ``sums``,
    if given, are the ``bin_sums`` of the bins with the dissipation
    taken; the caller has then checked their sign.
    """
    I, vol = grid.I, sgrid.cell_volume
    lam = state.lambda_rec
    if sums is None:
        sums = _checked(bin_sums(state.u, sgrid, diffusion_weights(reg.D_alpha(lam), sgrid)))
    d_u = grid.alpha * float(grid.lam[:I] @ sums.dissipation)
    E_weights = diffusion_weights(reg.E_alpha(lam, state.v), sgrid)
    d_E = float(face_sq_sums(lam, E_weights, sgrid)[0]) * vol
    gz1 = float(face_sq_sums(zeta1_eval(lam), sgrid.unit_weights, sgrid)[0]) * vol
    zeta2 = np.asarray(spec.zeta2(lam), dtype=float)
    gz2 = float(face_sq_sums(zeta2, sgrid.unit_weights, sgrid)[0]) * vol
    return d_u, d_E, gz1, gz2


def tail_problems(tail_A, alpha: float) -> list:
    """(config field, message) for every tail age below 4 alpha, the
    shortest the tail estimate takes; ``tail_mass`` and
    ``DiagnosticsRecorder`` refuse them."""
    return [("tail_A", f"{A:g} is below 4*alpha") for A in tail_A if not A >= 4.0 * alpha]


def tail_mass(state, A: float, grid: AgeGrid, sgrid: SpatialGrid, totals=None) -> float:
    """b-weighted mass in bins entirely above age A, from the
    ``bin_totals`` of the bins (computed if not given)."""
    refuse(tail_problems((A,), grid.alpha))
    if totals is None:
        totals = bin_totals(state.u, sgrid)
    sel = np.arange(1, grid.I + 1) * grid.alpha > A
    return grid.alpha * float(grid.b[:grid.I][sel] @ totals[sel])


def _eta_weights(grid: AgeGrid, A: float) -> tuple:
    # non-decreasing weights, zero on the first bin, one above age A
    ks = np.arange(1, grid.I + 2)
    eta = smoothstep((ks * grid.alpha / A - 0.5) / 0.5)
    eta_star = (eta[1:] - eta[:-1]) / grid.alpha
    return eta, float(np.max(np.abs(eta_star), initial=0.0))


def comparison_bound(t, alpha: float, Xi: float):
    """Cellwise upper bound for every bin density: 1/alpha^2 + Xi*t/alpha."""
    return 1.0 / alpha**2 + Xi * np.asarray(t, dtype=float) / alpha


# --------------------------------------------------------------------------
# record + recorder

_SERIES = (
    "t", "mass_b", "entropy", "dissipation_u", "dissipation_E",
    "grad_zeta1_sq", "grad_zeta2_sq", "linf_Lambda", "linf_v",
    "l2_Lambda", "l2_v", "delta_v_sq", "identity_residual",
    "max_u", "min_u", "min_v", "min_Lambda", "kbound_margin",
    "theta_activations", "conservation_residual",
)


@dataclass
class DiagnosticsRecord:
    """Time series of every instrumented estimate plus measured constants."""

    series: dict                     # name -> ndarray over sample times
    tail: dict                       # A -> ndarray
    eta_tail_series: dict            # A -> ndarray
    eta_star_inf: dict               # A -> float
    constants: dict                  # measured constants for the envelopes
    K0: float
    min_u_run: float
    min_v_run: float
    theta_activations: int
    conservation_max: float
    courant_max: float
    grad_v0_sq: float

    @property
    def t(self) -> np.ndarray:
        return self.series["t"]

    def to_csv(self, path) -> None:
        names = list(_SERIES) + ["delta_v_accum"]
        cols = [self.series[n] for n in names]
        for A in sorted(self.tail):
            names.append(f"tail_{A:g}")
            cols.append(self.tail[A])
        for A in sorted(self.eta_tail_series):
            names.append(f"eta_tail_{A:g}")
            cols.append(self.eta_tail_series[A])
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(names) + "\n")
            for k in range(self.t.size):
                fh.write(",".join(f"{c[k]:.17g}" for c in cols) + "\n")

    def summary_dict(self, margins: dict) -> dict:
        """The run summary; ``margins`` is this record's ``envelope_report``."""
        return {
            "K0": self.K0,
            "constants": {k: self.constants[k] for k in sorted(self.constants)},
            "margins": {
                name: (None if m.skipped else m.margin) for name, m in margins.items()
            },
            "min_u": self.min_u_run,
            "min_v": self.min_v_run,
            "theta_activations": self.theta_activations,
            "conservation_max": self.conservation_max,
            "final_identity_residual": float(self.series["identity_residual"][-1]),
        }


class DiagnosticsRecorder:
    """Accumulates per-sample diagnostics during a run."""

    def __init__(self, spec: ModelSpec, grid: AgeGrid, reg: RegularizedModel,
                 sgrid: SpatialGrid, tail_A: Sequence[float] = ()):
        self.spec, self.grid, self.reg, self.sgrid = spec, grid, reg, sgrid
        self.tail_A = tuple(float(A) for A in tail_A)
        refuse(tail_problems(self.tail_A, grid.alpha))
        self._rows = {name: [] for name in _SERIES}
        self._tail = {A: [] for A in self.tail_A}
        self._eta = {A: [] for A in self.tail_A}
        # the smooth-weighted tail (it dominates tail_mass) weighs bin i by
        # eta_i b_i; the tail envelope needs the sup of eta's difference quotient
        self._eta_b = {}
        self._eta_star = {}
        for A in self.tail_A:
            eta, self._eta_star[A] = _eta_weights(grid, A)
            self._eta_b[A] = eta[:grid.I] * grid.b[:grid.I]
        self._min_u = math.inf
        self._min_v = math.inf
        self._theta = 0
        self._cons = 0.0
        self._courant = 0.0
        self._grad_v0 = math.nan
        self._zeta1_rmax = 2.0
        self._zeta1 = Zeta1Evaluator(spec, self._zeta1_rmax)
        # sup of g over the regularization box stands in for its global sup
        s = reg.clamp * np.arange(0, 1025) / 1024.0
        g_inf = float(np.max(np.abs(np.asarray(spec.g(s), dtype=float))))
        I = grid.I
        self.constants = {
            "alpha": grid.alpha,
            "ell": grid.ell,
            "B": grid.B,
            "L": grid.L,
            "M": grid.M,
            "beta": grid.beta,
            "beta_v": float(np.max(grid.mu[:I] * grid.b[:I] / grid.lam[:I])),
            "beta_lam": float(np.max(grid.lam / grid.b)),
            "lam1": float(grid.lam[0]),
            "b1": float(grid.b[0]),
            "Xi": reg.Xi,
            "g_inf": g_inf,
            "volume": sgrid.cell_volume * sgrid.ncells,
        }

    def _zeta1_for(self, lam_max: float) -> Callable:
        if lam_max > 0.9 * self._zeta1_rmax:
            while lam_max > 0.9 * self._zeta1_rmax:
                self._zeta1_rmax *= 2.0
            self._zeta1 = Zeta1Evaluator(self.spec, self._zeta1_rmax)
        return self._zeta1

    def on_step(self, sres) -> None:
        self._min_u = min(self._min_u, sres.min_u)
        self._min_v = min(self._min_v, sres.min_v)
        self._cons = max(self._cons, sres.conservation_residual)
        self._courant = max(self._courant, sres.courant)

    def sample(self, state, plan) -> None:
        """Record one sample of ``state``.

        ``plan`` is the run's ``solver_core.StepPlan``: the bins are read
        once, block by block through ``plan.blocks`` (``bin_sums`` into
        ``plan.work``, which no step needs between steps); the sample
        allocates no array of u's size.
        """
        grid, reg, sgrid = self.grid, self.reg, self.sgrid
        vol = sgrid.cell_volume
        u, lam = state.u, state.lambda_rec
        d_weights = diffusion_weights(reg.D_alpha(lam), sgrid)
        lows, tops, *per_bin = zip(*(
            bin_sums(u[k0:k1], sgrid, d_weights, plan.work) for k0, k1 in plan.blocks))
        sums = _checked(BinSums(min(lows), max(tops), *map(np.concatenate, per_bin)))
        totals, max_u = sums.totals, sums.max_u
        z1 = self._zeta1_for(float(lam.max(initial=0.0)))
        d_u, d_E, gz1, gz2 = dissipation(state, grid, reg, sgrid, z1, self.spec, sums)
        lap_v = laplacian(state.v, sgrid)
        rows = self._rows
        rows["t"].append(state.t)
        rows["mass_b"].append(mass_b(state, grid, sgrid, totals))
        rows["entropy"].append(entropy(state, grid, sgrid, sums))
        rows["dissipation_u"].append(d_u)
        rows["dissipation_E"].append(d_E)
        rows["grad_zeta1_sq"].append(gz1)
        rows["grad_zeta2_sq"].append(gz2)
        rows["linf_Lambda"].append(float(np.max(np.abs(lam))))
        rows["linf_v"].append(float(np.max(np.abs(state.v))))
        rows["l2_Lambda"].append(math.sqrt(float(np.sum(lam * lam)) * vol))
        rows["l2_v"].append(math.sqrt(float(np.sum(state.v * state.v)) * vol))
        rows["delta_v_sq"].append(float(np.sum(lap_v * lap_v)) * vol)
        rows["identity_residual"].append(
            float(np.max(np.abs(state.lambda_rec - state.lambda_ev)))
        )
        rows["max_u"].append(max_u)
        rows["min_u"].append(sums.min_u)
        rows["min_v"].append(float(state.v.min()))
        rows["min_Lambda"].append(float(lam.min()))
        rows["kbound_margin"].append(
            float(comparison_bound(state.t, grid.alpha, reg.Xi)) + 1e-10 - max_u
        )
        rows["theta_activations"].append(float(state.theta_activations))
        rows["conservation_residual"].append(self._cons)
        for A in self.tail_A:
            self._tail[A].append(tail_mass(state, A, grid, sgrid, totals))
            self._eta[A].append(grid.alpha * float(self._eta_b[A] @ totals))
        if state.t == 0.0 and math.isnan(self._grad_v0):
            self._grad_v0 = float(face_sq_sums(state.v, sgrid.unit_weights, sgrid)[0]) * vol
        self._theta = state.theta_activations

    def finalize(self) -> DiagnosticsRecord:
        series = {k: np.asarray(v, dtype=float) for k, v in self._rows.items()}
        series["delta_v_accum"] = self.grid.alpha**2 * cumulative_trapezoid(
            series["delta_v_sq"], series["t"], initial=0.0
        )
        R_obs = max(
            float(np.max(series["linf_Lambda"], initial=0.0)),
            float(np.max(series["linf_v"], initial=0.0)),
            1e-6,
        )
        kap = estimate_kappas(self.spec, R_obs, 256)
        constants = dict(self.constants)
        constants["R_obs"] = R_obs
        constants["kappa2_Robs"] = kap.kappa2
        # the initial-data size entering every Gronwall envelope: the b-mass,
        # entropy and sup norms of the first sample (the initial state)
        # plus the first-bin weights
        K0 = float(series["mass_b"][0] + series["entropy"][0] + self.grid.b[0]
                   + self.grid.lam[0] + series["linf_Lambda"][0] + series["linf_v"][0])
        return DiagnosticsRecord(
            series=series,
            tail={A: np.asarray(v, dtype=float) for A, v in self._tail.items()},
            eta_tail_series={A: np.asarray(v, dtype=float) for A, v in self._eta.items()},
            eta_star_inf=dict(self._eta_star),
            constants=constants,
            K0=K0,
            min_u_run=self._min_u if math.isfinite(self._min_u) else 0.0,
            min_v_run=self._min_v if math.isfinite(self._min_v) else 0.0,
            theta_activations=self._theta,
            conservation_max=self._cons,
            courant_max=self._courant,
            grad_v0_sq=self._grad_v0 if math.isfinite(self._grad_v0) else 0.0,
        )


# --------------------------------------------------------------------------
# envelopes

@dataclass(frozen=True)
class EnvelopeMargin:
    name: str
    margin: float
    t_at_min: float
    skipped: bool = False
    note: str = ""
    envelope: Optional[np.ndarray] = None
    observed: Optional[np.ndarray] = None


def _expm1_over(x):
    # expm1(x)/x with the x -> 0 limit
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-12
    return np.where(small, 1.0, np.expm1(np.where(small, 1.0, x)) / np.where(small, 1.0, x))


def _margin(name, t, envelope, observed) -> EnvelopeMargin:
    gap = envelope - observed
    k = int(np.argmin(gap))
    return EnvelopeMargin(
        name=name, margin=float(gap[k]), t_at_min=float(t[k]),
        envelope=envelope, observed=observed,
    )


def envelope_report(record: DiagnosticsRecord) -> dict:
    """Margin (envelope - observed, minimum over the run) of every
    estimate, keyed by ``ENVELOPE_NAMES``.

    Envelopes follow the first differential inequality of the matching
    proof, instantiated with the constants measured on the coefficient
    arrays and with observed trajectories inside the time integrals.
    One pass forms the shared parts once: the mass envelope, the entropy
    source constant C_H and the entropy integral.  Violations are
    reported, never raised.
    """
    c = record.constants
    s = record.series
    t = s["t"]
    alpha = c["alpha"]
    Lp = max(c["L"], 0.0)
    Bp = max(c["B"], 0.0)

    def integral(f):
        return cumulative_trapezoid(f, t, initial=0.0)

    mass_env = s["mass_b"][0] * np.exp((c["b1"] * c["g_inf"] + Bp) * t)
    env_v = (s["linf_v"][0] + c["beta_v"] * integral(s["linf_Lambda"])) * np.exp(c["g_inf"] * t)
    env_l = (s["linf_Lambda"][0] + c["lam1"] * c["g_inf"] * integral(s["linf_v"])) \
        * np.exp(Lp * t)
    m_v = _margin("linf", t, env_v, s["linf_v"])
    m_l = _margin("linf", t, env_l, s["linf_Lambda"])

    # the entropy family shares the source constant
    H0 = s["entropy"][0]
    gamma2 = Lp + c["M"]
    phi_Xi = float(entropy_phi(np.asarray(c["Xi"])))
    C_H = c["lam1"] * max(1.0, phi_Xi) * c["volume"] \
        + c["M"] * c["beta_lam"] * float(np.max(mass_env))
    d_env = H0 + C_H * t + gamma2 * integral(s["entropy"])
    kappa2 = c.get("kappa2_Robs", math.nan)
    if not math.isfinite(kappa2) or kappa2 <= 0.0:
        grad_zeta2 = EnvelopeMargin("grad_zeta2", math.nan, float(t[0]), skipped=True,
                                    note="drift lower bound degenerate (kappa2 <= 0)")
    else:
        grad_zeta2 = _margin("grad_zeta2", t, d_env / kappa2, integral(s["grad_zeta2_sq"]))

    if not record.tail:
        tail = EnvelopeMargin("tail", math.nan, float(t[0]), skipped=True,
                              note="no tail ages configured")
    else:
        c1_run = float(np.max(s["mass_b"]))
        tails = [_margin(f"tail_{A:g}", t, np.exp(Bp * t) * Y[0] + record.eta_star_inf[A]
                         * (1.0 + Bp) * c1_run * t * _expm1_over(Bp * t), Y)
                 for A, Y in sorted(record.eta_tail_series.items())]
        tail = replace(min(tails, key=lambda m: m.margin), name="tail")

    rhs = (c["g_inf"] * s["l2_v"] + c["beta_v"] * s["l2_Lambda"]) ** 2
    return {m.name: m for m in (
        _margin("mass", t, mass_env, s["mass_b"]),
        m_v if m_v.margin <= m_l.margin else m_l,
        _margin("entropy", t, np.exp(gamma2 * t) * H0 + C_H * t * _expm1_over(gamma2 * t),
                s["entropy"]),
        _margin("dissipation", t, d_env,
                integral(4.0 * s["dissipation_u"] + s["dissipation_E"])),
        _margin("grad_zeta1", t, d_env, integral(s["grad_zeta1_sq"])),
        grad_zeta2,
        _margin("kbound", t, comparison_bound(t, alpha, c["Xi"]) + 1e-10, s["max_u"]),
        tail,
        _margin("delta_v", t, alpha * record.grad_v0_sq + integral(rhs),
                alpha**2 * integral(s["delta_v_sq"])),
    )}


# --------------------------------------------------------------------------
# weak-formulation residual

@dataclass(frozen=True)
class TestFunction:
    """Tensor test function psi(t) * chi(a) * omega(x).

    psi and chi are compactly supported smooth bumps; omega is a product
    of axis cosines (mode 0 meaning the constant 1), which satisfies the
    zero-normal-derivative requirement exactly on box boundaries.
    """

    psi: Callable
    psi_prime: Callable
    t_support: float
    chi: Callable
    chi_prime: Callable
    a_support: float
    modes: tuple
    label: str = ""

    __test__ = False  # not a pytest item

    def _axis_factors(self, sgrid: SpatialGrid) -> list:
        # per axis: kk = k pi / extent, the factor cos(kk x) and its
        # derivative -kk sin(kk x), both shaped to broadcast along the axis
        table = []
        for ax, k in enumerate(self.modes):
            kk = k * math.pi / sgrid.extents[ax]
            kx = kk * sgrid.axis_centers(ax)
            shape = [1] * sgrid.dim
            shape[ax] = -1
            table.append((kk, np.cos(kx).reshape(shape), (-kk * np.sin(kx)).reshape(shape)))
        return table

    def omega(self, sgrid: SpatialGrid) -> np.ndarray:
        return math.prod(c for _, c, _ in self._axis_factors(sgrid))

    def grad_omega(self, sgrid: SpatialGrid) -> list:
        table = self._axis_factors(sgrid)
        return [math.prod(d if ax2 == ax else c for ax2, (_, c, d) in enumerate(table))
                for ax in range(sgrid.dim)]

    def lap_omega(self, sgrid: SpatialGrid) -> np.ndarray:
        return -sum(kk**2 for kk, _, _ in self._axis_factors(sgrid)) * self.omega(sgrid)


def _falling_bump(hi: float) -> tuple:
    # 1 on [0, hi/2], quintic fall to 0 at hi, identically 0 beyond
    lo = 0.5 * hi

    def f(x):
        return 1.0 - smoothstep((np.asarray(x, dtype=float) - lo) / (hi - lo))

    def fp(x):
        return -smoothstep_prime((np.asarray(x, dtype=float) - lo) / (hi - lo)) / (hi - lo)

    return f, fp


def make_test_functions(T: float, age_cap: float, sgrid: SpatialGrid,
                            k_max: int = 4) -> list:
    """Fixed catalogue: time bump on [0, 0.9T], age bump on [0, 0.8*age_cap],
    cosine modes up to k_max per axis (tensor cosines in 2D)."""
    psi, psi_p = _falling_bump(0.9 * T)
    chi, chi_p = _falling_bump(0.8 * age_cap)
    out = []
    if sgrid.dim == 1:
        mode_list = [(k,) for k in range(0, k_max + 1)]
    else:
        mode_list = [(k, m) for k in range(0, k_max + 1) for m in range(0, k_max + 1)
                     if k + m <= k_max]
    for modes in mode_list:
        out.append(TestFunction(
            psi=psi, psi_prime=psi_p, t_support=0.9 * T,
            chi=chi, chi_prime=chi_p, a_support=0.8 * age_cap,
            modes=modes, label="x".join(f"k{m}" for m in modes),
        ))
    return out


@dataclass(frozen=True)
class WeakResidualResult:
    residual: float      # absolute value of the identity sum
    signed: float
    terms: dict


def _safe_ratios(spec: ModelSpec, lam: np.ndarray, v: np.ndarray, R_scale: float):
    # continuous-ratio evaluation with a relative floor where the transforms
    # degenerate; continuity of both ratios is part of the data assumptions
    floor = 1e-12 * max(R_scale, 1.0)
    rf = np.maximum(lam, floor)
    Dp = diffusivity_slope(spec, rf, 1e-6 * max(R_scale, 1.0))
    z1p = zeta1_prime(spec, rf)
    z2p = np.asarray(spec.zeta2_prime(rf), dtype=float)
    with np.errstate(all="ignore"):
        r1 = np.where(z1p > 1e-300, Dp / z1p, 0.0)
        r2 = np.where(z2p > 1e-300, np.asarray(spec.E(rf, v), dtype=float) / z2p, 0.0)
    return r1, r2


class AgeMoments:
    """The age moments of the bins that the weak residual of a catalogue
    reads, sample by sample.

    Each test function psi(t) chi(a) omega(x) of ``catalogue`` meets the
    bins only through two age weightings, both linear in u: C_i, the
    integral of chi over bin i, and Cp_i - Cmu_i, the jump of chi across
    bin i less the integral of chi mu over it.  ``weights`` stacks them,
    an array (functions, 2, I).  ``take`` reduces the bins of one state
    (anything with a ``u``) to its moments, an array (functions, 2,
    cells), and appends them to ``values``.  Taken by ``run``'s
    ``on_sample`` while each sample's bins are live, they let the residual
    be evaluated from a run that keeps no bins.
    """

    def __init__(self, catalogue: Sequence, spec: ModelSpec, grid: AgeGrid):
        self.catalogue = list(catalogue)
        I, alpha = grid.I, grid.alpha
        edges = alpha * np.arange(I + 1)
        rows = []
        for p in self.catalogue:
            Ci = alpha * bin_averages(p.chi, alpha, I)
            Cpi = np.asarray(p.chi(edges[1:]), dtype=float) \
                - np.asarray(p.chi(edges[:-1]), dtype=float)
            Cmui = alpha * bin_averages(
                lambda a: np.asarray(p.chi(a)) * np.asarray(spec.mu(a)), alpha, I)
            rows.append((Ci, Cpi - Cmui))
        self.weights = np.asarray(rows, dtype=float).reshape(len(rows), 2, I)
        self.values = []

    def take(self, state) -> None:
        self.values.append(self.weights @ state.u.reshape(self.weights.shape[2], -1))


def weak_residual(samples: Sequence, phi, spec: ModelSpec, grid: AgeGrid,
                  sgrid: SpatialGrid) -> "WeakResidualResult | list":
    """Evaluate the weak-form identity of the continuous problem on a
    sampled trajectory.

    Composite trapezoid in time, exact bin sums in age, cell sums in
    space.  ``phi`` is a TestFunction, which gives one result; a
    catalogue, a list of TestFunctions, which gives a list of one result
    per function; or the ``AgeMoments`` of a catalogue taken at every
    sample of the run, which gives the catalogue's list.  Terms:
    transport, age-zero inflow, initial data, diffusion against the
    Laplacian of the test function, and the drift/diffusion gradient
    pairing under the two-transform splitting.

    Every bin term is an age moment of u paired with a cell field, so the
    residual reads each sample's ``AgeMoments`` and never its bins: the
    moments form needs no stored bins (``sweep`` keeps none), and the
    other two forms take the moments from each sample's stored bins and
    then run the same arithmetic.

    One pass over the samples serves every test function: the fields
    that do not depend on it (D of the biomass, the transform ratios and
    gradients, the inflow) are evaluated once per sample, and each
    function's sums are formed as in a call of its own, so a catalogue
    entry is bitwise its single-function result.
    """
    single = isinstance(phi, TestFunction)
    if isinstance(phi, AgeMoments):
        moments, catalogue = phi, phi.catalogue
    else:
        moments, catalogue = None, [phi] if single else list(phi)

    T_run = float(samples[-1].t)
    a_cap = grid.I * grid.alpha
    for p in catalogue:
        if p.t_support > T_run + 1e-12:
            raise InadmissibleTestFunction(
                f"time support {p.t_support:g} exceeds the horizon {T_run:g}"
            )
        if p.a_support > a_cap + 1e-12:
            raise InadmissibleTestFunction(
                f"age support {p.a_support:g} exceeds the covered ages {a_cap:g}"
            )
        probe = np.linspace(p.t_support, max(T_run, p.t_support + 1.0), 7)
        if np.any(np.abs(np.asarray(p.psi(probe), dtype=float)) > 0.0):
            raise InadmissibleTestFunction("psi does not vanish beyond its support")
        if len(p.modes) != sgrid.dim:
            raise InadmissibleTestFunction("omega mode count does not match dim")
    if moments is None:
        if any(s.u is None for s in samples):
            raise ValueError("trajectory was stored without bin fields")
        moments = AgeMoments(catalogue, spec, grid)
        for s in samples:
            moments.take(s)
    if len(moments.values) != len(samples):
        raise ValueError(f"{len(moments.values)} age moments for {len(samples)} samples")

    vol = sgrid.cell_volume
    times = np.asarray([s.t for s in samples], dtype=float)
    R_scale = max(float(np.max([np.max(s.lambda_rec) for s in samples])), 1e-6)
    zeta1_eval = Zeta1Evaluator(spec, 1.5 * R_scale + 1.0)

    def prepare(p):
        omega = p.omega(sgrid).reshape(-1) * vol
        gomega = [g.reshape(-1) * vol for g in p.grad_omega(sgrid)]
        lomega = p.lap_omega(sgrid).reshape(-1) * vol
        chi0 = float(p.chi(0.0))
        psi_t = np.asarray(p.psi(times), dtype=float)
        psip_t = np.asarray(p.psi_prime(times), dtype=float)
        return omega, gomega, lomega, chi0, psi_t, psip_t

    pre = [prepare(p) for p in catalogue]
    n = times.size
    # per test function and sample: transport, inflow, diffusion, drift
    f = np.zeros((len(catalogue), 4, n))
    term_initial = [0.0] * len(catalogue)

    for k, (s, m) in enumerate(zip(samples, moments.values)):
        lam_flat = s.lambda_rec.reshape(-1)
        v_flat = s.v.reshape(-1)
        D_lam = np.asarray(spec.D(lam_flat), dtype=float)
        r1, r2 = _safe_ratios(spec, lam_flat, v_flat, R_scale)
        gz1 = [g.reshape(-1) for g in grad_cell(zeta1_eval(s.lambda_rec), sgrid)]
        gz2 = [g.reshape(-1)
               for g in grad_cell(np.asarray(spec.zeta2(s.lambda_rec), dtype=float), sgrid)]
        split = [r2 * g2 - r1 * g1 for g1, g2 in zip(gz1, gz2)]
        inflow = np.where(v_flat > 0.0,
                          np.asarray(spec.xi(v_flat), dtype=float) * v_flat, 0.0)
        for c, (omega, gomega, lomega, chi0, psi_t, psip_t) in enumerate(pre):
            psi_k, psip_k = float(psi_t[k]), float(psip_t[k])
            chi_u, jump_u = m[c]            # per cell: C_i u_i and (Cp_i - Cmu_i) u_i
            chi_omega = float(chi_u @ omega)
            f[c, 0, k] = psip_k * chi_omega + psi_k * float(jump_u @ omega)
            f[c, 1, k] = psi_k * chi0 * float(inflow @ omega)
            f[c, 2, k] = psi_k * float(chi_u @ (lomega * D_lam))
            W_dot = np.zeros_like(lam_flat)
            for ax in range(sgrid.dim):
                W_dot += split[ax] * gomega[ax]
            f[c, 3, k] = -psi_k * float(chi_u @ W_dot)
            if k == 0:
                term_initial[c] = float(catalogue[c].psi(0.0)) * chi_omega

    results = []
    for fc, initial in zip(f, term_initial):
        terms = {
            "transport": float(np.trapezoid(fc[0], times)),
            "inflow": float(np.trapezoid(fc[1], times)),
            "initial": initial,
            "diffusion": float(np.trapezoid(fc[2], times)),
            "drift_split": float(np.trapezoid(fc[3], times)),
        }
        signed = sum(terms.values())
        results.append(WeakResidualResult(residual=abs(signed), signed=signed, terms=terms))
    return results[0] if single else results
