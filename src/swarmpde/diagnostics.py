"""Runtime diagnostics: every a-priori bound of the analysis, measured.

Each sampled quantity (b-weighted mass, lam-weighted entropy, dissipation
integrals, sup norms, age tails, the biomass identity gap) comes with a
Gronwall envelope rebuilt from the constants measured on the actual
coefficient arrays, so each estimate becomes an assertable per-run
inequality: envelope minus observation is the margin, and a negative
margin is a bug somewhere.  ``envelope_report`` forms all nine margins
in one straight pass over the record, and ``_margin`` is the one place
where an envelope meets its observation.

A sample reads each of the step plan's bin blocks (``solver_core.StepPlan``;
the solver alone lays them out, with ``solver_core.bin_blocks``) once,
into the plan's block-sized ``work`` pair, which is idle between steps,
and reduces it in cache to per-bin sums (``bin_sums``):
the integrals of the densities, of their entropy density and of the
face form of their sqrt-gradient dissipation, plus the raw minimum (the
largest density is the state's own ``max_u``).  It checks the sign of
the densities once and takes every weighted sum over bins on the
per-bin vectors, so it allocates no array of the densities' size:
``entropy`` and ``dissipation`` read the per-bin sums they are given.
Every per-bin sum runs over that bin's cells alone, so the sums are
bitwise those of one ``bin_sums`` pass over all bins, whatever the
blocks.  The b-weighted mass and the age tails are linear in the
per-bin integrals (``bin_totals``), as in the standalone ``mass_b`` and
``tail_mass``.
Every sampled value, the tails included, is one column of the record's
one table (``series``), which ``to_csv`` writes as it stands.

The weak-formulation residual evaluates the defining integral identity of
the continuous problem on the discrete trajectory against a catalogue of
tensor test functions (time bump x age bump x Neumann cosine); it must
shrink under simultaneous refinement of bin width, mesh and step size.
It is linear in the bins, and since every function of the catalogue
shares one age bump it reads them only through two age moments per
sample (``AgeMoments``), which a run can take as each sample is made, so
the bins need not be kept.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .age_discretization import AgeGrid, RegularizedModel, entropy_phi
from .errors import InadmissibleTestFunction, NegativeField, NonFiniteEvaluation, refuse
from .model_spec import (
    ModelSpec,
    Zeta1Evaluator,
    bin_averages,
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
    sq_l2,
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
    "catalogue_problems",
    "comparison_bound",
    "envelope_report",
    "ENVELOPE_NAMES",
    "make_test_functions",
    "weak_residual",
    "observed_orders",
]

ENVELOPE_NAMES = (
    "mass", "linf", "entropy", "dissipation",
    "grad_zeta1", "grad_zeta2", "kbound", "tail", "delta_v",
)


# --------------------------------------------------------------------------
# instantaneous quantities

class BinSums(NamedTuple):
    """One pass over bins of ``u``: the raw minimum and per bin the
    integral of u (``bin_totals``), of the entropy density phi(u clipped
    at 0) and the face form of the sqrt-gradient dissipation."""

    min_u: float
    totals: np.ndarray
    entropy: np.ndarray
    dissipation: np.ndarray


def bin_sums(u, sgrid: SpatialGrid, d_weights, work) -> BinSums:
    """The ``BinSums`` of the bins ``u`` (all of them or a block of them).

    Every reduction runs per bin over that bin's cells, so the sums of a
    block are bitwise the matching entries of the whole array's.  The
    dissipation is per bin the sum over faces of
    (delta sqrt(r))^2 face_mean(D_alpha)/dx^2 of the clipped r
    (``face_sq_sums`` with ``d_weights``, the ``diffusion_weights`` of
    D_alpha).  ``work`` is a pair of flat float buffers of at least
    ``u.size`` elements, so no u-sized array is allocated.  The caller
    checks ``min_u``.
    """
    rows = u.reshape(u.shape[0], -1)
    r = work[0][:rows.size].reshape(rows.shape)
    low = float(rows.min())
    totals = bin_totals(rows, sgrid)
    np.maximum(rows, 0.0, out=r)
    ent = entropy_phi(r, out=work[1][:rows.size].reshape(rows.shape)).sum(axis=1)
    diss = face_sq_sums(np.sqrt(r, out=r), d_weights, sgrid, work=work[1])
    return BinSums(low, totals, ent * sgrid.cell_volume, diss * sgrid.cell_volume)


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


def entropy(sums: BinSums, grid: AgeGrid) -> float:
    """lam-weighted entropy sum_i alpha lam_i integral phi(u_i), from the
    ``bin_sums`` of the bins; the caller has checked their sign."""
    return grid.alpha * float(grid.lam[:grid.I] @ sums.entropy)


def dissipation(state, grid: AgeGrid, reg: RegularizedModel, sgrid: SpatialGrid,
                zeta1_eval: Callable, spec: ModelSpec, sums: BinSums) -> tuple:
    """Instantaneous dissipation integrands.

    Returns (d_u, d_E, gz1, gz2): the lam-weighted sqrt-gradient term with
    the regularized diffusivity (see ``bin_sums``), the drift term
    E |grad biomass|^2, and the squared gradients of both transforms of
    the biomass.  All four are face sums (``face_sq_sums``): the face
    means of D_alpha and of E_alpha weigh the first two, the grid's unit
    weights the last two.  Transform gradients difference the transformed
    cell values, matching how the limit objects are defined.  ``sums``
    are the ``bin_sums`` of the bins; the caller has checked their sign.
    """
    I, vol = grid.I, sgrid.cell_volume
    lam = state.lambda_rec
    d_u = grid.alpha * float(grid.lam[:I] @ sums.dissipation)
    E_weights = diffusion_weights(reg.E_alpha(lam, state.v), sgrid)
    d_E = float(face_sq_sums(lam, E_weights, sgrid)[0]) * vol
    gz1 = float(face_sq_sums(zeta1_eval(lam), sgrid.unit_weights, sgrid)[0]) * vol
    zeta2 = np.asarray(spec.zeta2(lam), dtype=float)
    gz2 = float(face_sq_sums(zeta2, sgrid.unit_weights, sgrid)[0]) * vol
    return d_u, d_E, gz1, gz2


def tail_problems(tail_A, alpha: float) -> list:
    """(config field, message) for every tail age below 4 alpha, the
    shortest the tail estimate takes, and for every age that names the
    record columns of an earlier one (``tail_<A:g>``); ``tail_mass`` and
    ``DiagnosticsRecorder`` refuse them."""
    names = [f"{A:g}" for A in tail_A]
    return ([("tail_A", f"{A:g} is below 4*alpha") for A in tail_A if not A >= 4.0 * alpha]
            + [("tail_A", f"{n} repeats the column name tail_{n}")
               for k, n in enumerate(names) if n in names[:k]])


def catalogue_problems(k_max: int, cells) -> list:
    """(config field, message) for a test-function mode bound below 0 or
    at or above an axis' cell count: on n cell centres the cosine of mode
    n is zero and one of mode k > n is minus that of mode 2n - k, so such
    modes add nothing; ``make_test_functions`` refuses them."""
    if k_max < 0:
        return [("test_k_max", "must be >= 0")]
    if k_max >= min(cells):
        return [("test_k_max", f"must be below every axis' cell count ({min(cells)})")]
    return []


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


def _cumulative_trapezoid(y, t) -> np.ndarray:
    """Trapezoid integrals of the samples ``y`` over [t[0], t[k]] for every
    k, 0 first; scipy's ``cumulative_trapezoid(y, t, initial=0)``, sum for
    sum."""
    return np.concatenate([[0.0], np.cumsum(np.diff(t) * (y[1:] + y[:-1]) / 2.0)])


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
    """Time series of every instrumented estimate plus measured constants.

    ``series`` is the one table of the run, a column per name in the
    order ``to_csv`` writes: the ``_SERIES`` columns, ``delta_v_accum``,
    then per tail age A, sorted, ``tail_<A:g>`` (``tail_mass``) and, after
    them, ``eta_tail_<A:g>`` (the smooth-weighted tail the envelope
    bounds).
    """

    series: dict                     # name -> ndarray over sample times
    eta_star_inf: dict               # A -> float
    constants: dict                  # measured constants for the envelopes
    K0: float
    min_u_run: float
    min_v_run: float
    grad_v0_sq: float

    @property
    def t(self) -> np.ndarray:
        return self.series["t"]

    @property
    def theta_activations(self) -> int:
        """Cutoff activations over the run, as of the last sample."""
        return int(self.series["theta_activations"][-1])

    @property
    def conservation_max(self) -> float:
        """Largest conservation residual of the run's steps, as of the
        last sample (the column holds the running maximum)."""
        return float(self.series["conservation_residual"][-1])

    def to_csv(self, path) -> None:
        names, cols = list(self.series), list(self.series.values())
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(names) + "\n")
            for k in range(self.t.size):
                fh.write(",".join(f"{c[k]:.17g}" for c in cols) + "\n")

    def summary_dict(self, margins: dict) -> dict:
        """The run summary; ``margins`` is this record's ``envelope_report``.
        With the series and the constants it holds every value the
        envelopes read: ``eta_star_inf`` keyed by tail age as the tail
        columns are, and ``grad_v0_sq``."""
        return {
            "K0": self.K0,
            "constants": {k: self.constants[k] for k in sorted(self.constants)},
            "eta_star_inf": {f"{A:g}": value for A, value in sorted(self.eta_star_inf.items())},
            "grad_v0_sq": self.grad_v0_sq,
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
    """Accumulates per-sample diagnostics during a run.

    It sees only the sampled states: the statistics of the steps between
    samples (the running minima of the raw u and v, the conservation
    residual's running maximum, the activation count) ride on each state
    (``solver_core.SimState``), and ``finalize`` takes the run's minima
    from the last sample.
    """

    def __init__(self, spec: ModelSpec, grid: AgeGrid, reg: RegularizedModel,
                 sgrid: SpatialGrid, tail_A: Sequence[float]):
        self.spec, self.grid, self.reg, self.sgrid = spec, grid, reg, sgrid
        ages = tuple(float(A) for A in tail_A)
        refuse(tail_problems(ages, grid.alpha))
        self.tail_A = tuple(sorted(ages))
        # the record's columns in their CSV order; finalize fills
        # delta_v_accum in its place
        self._rows = {name: [] for name in _SERIES + ("delta_v_accum",)
                      + tuple(f"{kind}_{A:g}" for kind in ("tail", "eta_tail")
                              for A in self.tail_A)}
        # the smooth-weighted tail (it dominates tail_mass) weighs bin i by
        # eta_i b_i; the tail envelope needs the sup of eta's difference quotient
        self._eta_b = {}
        self._eta_star = {}
        for A in self.tail_A:
            eta, self._eta_star[A] = _eta_weights(grid, A)
            self._eta_b[A] = eta[:grid.I] * grid.b[:grid.I]
        self._min_run = (math.inf, math.inf)  # the last sample's min_u_run, min_v_run
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

    def sample(self, state, plan) -> None:
        """Record one sample of ``state``.

        ``plan`` is the run's ``solver_core.StepPlan``: the bins are read
        once, block by block through ``plan.blocks`` (``bin_sums`` into
        ``plan.work``, which no step needs between steps); the sample
        allocates no array of u's size.  The ``theta_activations`` and
        ``conservation_residual`` columns are the state's own running
        values, as of the steps that led to it.  A row with a value that
        is not finite (an overflowing state) is refused as
        ``NonFiniteEvaluation`` naming its first such column, before any
        envelope could read it.
        """
        grid, reg, sgrid = self.grid, self.reg, self.sgrid
        u, lam = state.u, state.lambda_rec
        with np.errstate(all="ignore"):  # a non-finite row is refused below
            d_weights = diffusion_weights(reg.D_alpha(lam), sgrid)
            lows, *per_bin = zip(*(
                bin_sums(u[k0:k1], sgrid, d_weights, plan.work) for k0, k1 in plan.blocks))
            sums = BinSums(min(lows), *map(np.concatenate, per_bin))
            if sums.min_u < -1e-12:
                raise NegativeField(f"bin densities must be >= 0 (min {sums.min_u:.3e})")
            totals, max_u = sums.totals, state.max_u
            z1 = self._zeta1_for(float(lam.max(initial=0.0)))
            d_u, d_E, gz1, gz2 = dissipation(state, grid, reg, sgrid, z1, self.spec, sums)
            lap_v = laplacian(state.v, sgrid)
            row = {
                "t": state.t,
                "mass_b": mass_b(state, grid, sgrid, totals),
                "entropy": entropy(sums, grid),
                "dissipation_u": d_u,
                "dissipation_E": d_E,
                "grad_zeta1_sq": gz1,
                "grad_zeta2_sq": gz2,
                "linf_Lambda": float(np.max(np.abs(lam))),
                "linf_v": float(np.max(np.abs(state.v))),
                "l2_Lambda": math.sqrt(sq_l2(lam, sgrid)),
                "l2_v": math.sqrt(sq_l2(state.v, sgrid)),
                "delta_v_sq": sq_l2(lap_v, sgrid),
                "identity_residual": float(np.max(np.abs(state.lambda_rec - state.lambda_ev))),
                "max_u": max_u,
                "min_u": sums.min_u,
                "min_v": float(state.v.min()),
                "min_Lambda": float(lam.min()),
                "kbound_margin":
                    float(comparison_bound(state.t, grid.alpha, reg.Xi)) + 1e-10 - max_u,
                "theta_activations": float(state.theta_activations),
                "conservation_residual": state.conservation_max,
            }
            for A in self.tail_A:
                row[f"tail_{A:g}"] = tail_mass(state, A, grid, sgrid, totals)
            for A in self.tail_A:
                row[f"eta_tail_{A:g}"] = grid.alpha * float(self._eta_b[A] @ totals)
        for name, value in row.items():
            if not math.isfinite(value):
                raise NonFiniteEvaluation(
                    f"diagnostics column {name} is {value} at t={state.t:g}")
        for name, value in row.items():
            self._rows[name].append(value)
        self._min_run = (state.min_u_run, state.min_v_run)
        if state.t == 0.0 and math.isnan(self._grad_v0):
            self._grad_v0 = float(face_sq_sums(state.v, sgrid.unit_weights,
                                               sgrid)[0]) * sgrid.cell_volume

    def finalize(self) -> DiagnosticsRecord:
        series = {k: np.asarray(v, dtype=float) for k, v in self._rows.items()}
        series["delta_v_accum"] = self.grid.alpha**2 * _cumulative_trapezoid(
            series["delta_v_sq"], series["t"])
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
        min_u, min_v = self._min_run
        return DiagnosticsRecord(
            series=series,
            eta_star_inf=dict(self._eta_star),
            constants=constants,
            K0=K0,
            min_u_run=min_u if math.isfinite(min_u) else 0.0,
            min_v_run=min_v if math.isfinite(min_v) else 0.0,
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
    envelope: Optional[np.ndarray] = None


def _expm1_over(x):
    # expm1(x)/x with the x -> 0 limit
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-12
    return np.where(small, 1.0, np.expm1(np.where(small, 1.0, x)) / np.where(small, 1.0, x))


def _margin(name, t, envelope, observed) -> EnvelopeMargin:
    gap = envelope - observed
    k = int(np.argmin(gap))
    return EnvelopeMargin(name=name, margin=float(gap[k]), t_at_min=float(t[k]),
                          envelope=envelope)


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
        return _cumulative_trapezoid(f, t)

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
    if not math.isfinite(kappa2) or kappa2 <= 0.0:  # drift lower bound degenerate
        grad_zeta2 = EnvelopeMargin("grad_zeta2", math.nan, float(t[0]), skipped=True)
    else:
        grad_zeta2 = _margin("grad_zeta2", t, d_env / kappa2, integral(s["grad_zeta2_sq"]))

    if not record.eta_star_inf:  # no tail ages configured
        tail = EnvelopeMargin("tail", math.nan, float(t[0]), skipped=True)
    else:
        c1_run = float(np.max(s["mass_b"]))
        growth, ramp = np.exp(Bp * t), _expm1_over(Bp * t)
        tails = [_margin("tail", t, growth * s[f"eta_tail_{A:g}"][0]
                         + eta_star * (1.0 + Bp) * c1_run * t * ramp, s[f"eta_tail_{A:g}"])
                 for A, eta_star in sorted(record.eta_star_inf.items())]
        tail = min(tails, key=lambda m: m.margin)

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
                            k_max: int) -> list:
    """Fixed catalogue: one time bump on [0, 0.9T] and one age bump on
    [0, 0.8*age_cap], shared by every function, times the tensor cosines
    whose modes sum to at most k_max, in lexicographic order."""
    refuse(catalogue_problems(k_max, sgrid.cells))
    psi, psi_p = _falling_bump(0.9 * T)
    chi, chi_p = _falling_bump(0.8 * age_cap)
    return [TestFunction(psi=psi, psi_prime=psi_p, t_support=0.9 * T,
                         chi=chi, chi_prime=chi_p, a_support=0.8 * age_cap,
                         modes=modes, label="x".join(f"k{m}" for m in modes))
            for modes in itertools.product(range(k_max + 1), repeat=sgrid.dim)
            if sum(modes) <= k_max]


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

    Every test function psi(t) chi(a) omega(x) of ``catalogue`` shares one
    time bump (psi, psi', its support) and one age bump (chi, its
    support); a catalogue that mixes them is refused.  The functions then
    meet the bins only through two age weightings, both linear in u: C_i,
    the integral of chi over bin i, and Cp_i - Cmu_i, the jump of chi
    across bin i less the integral of chi mu over it.  ``weights`` stacks
    them, an array (2, I).  ``take`` reduces the bins of one state
    (anything with a ``u``) to its moments, an array (2, cells), and
    appends them to ``values``.  Taken by ``run``'s ``on_sample`` while
    each sample's bins are live, they let the residual be evaluated from
    a run that keeps no bins.
    """

    def __init__(self, catalogue: Sequence, spec: ModelSpec, grid: AgeGrid):
        self.catalogue = list(catalogue)
        if len({(p.psi, p.psi_prime, p.t_support, p.chi, p.a_support)
                for p in self.catalogue}) != 1:
            raise InadmissibleTestFunction(
                "a catalogue's functions must share one time bump and one age bump")
        chi = self.catalogue[0].chi
        I, alpha = grid.I, grid.alpha
        edges = alpha * np.arange(I + 1)
        Ci = alpha * bin_averages(chi, alpha, I)
        Cpi = np.asarray(chi(edges[1:]), dtype=float) - np.asarray(chi(edges[:-1]), dtype=float)
        Cmui = alpha * bin_averages(
            lambda a: np.asarray(chi(a)) * np.asarray(spec.mu(a)), alpha, I)
        self.weights = np.asarray((Ci, Cpi - Cmui), dtype=float)
        self.values = []

    def take(self, state) -> None:
        self.values.append(self.weights @ state.u.reshape(self.weights.shape[1], -1))


def weak_residual(samples: Sequence, phi, spec: ModelSpec, grid: AgeGrid,
                  sgrid: SpatialGrid) -> "WeakResidualResult | list":
    """Evaluate the weak-form identity of the continuous problem on a
    sampled trajectory.

    Composite trapezoid in time, exact bin sums in age, cell sums in
    space.  ``phi`` is a TestFunction, which gives one result, or the
    ``AgeMoments`` of a catalogue taken at every sample of the run,
    which gives a list of one result per function of the catalogue.  Terms:
    transport, age-zero inflow, initial data, diffusion against the
    Laplacian of the test function, and the drift/diffusion gradient
    pairing under the two-transform splitting.

    Every bin term is an age moment of u paired with a cell field, so the
    residual reads each sample's ``AgeMoments`` and never its bins: the
    moments form needs no stored bins (``sweep`` keeps none), and the
    single-function form takes the moments from each sample's stored bins
    and then runs the same arithmetic.

    One pass over the samples serves every test function: the bumps the
    catalogue shares are checked and evaluated once, the fields that do
    not depend on the function (D of the biomass, the transform ratios
    and gradients, the inflow) once per sample, and each function's sums
    are formed as in a call of its own, so a moments entry is bitwise
    its function's single-function result.
    """
    single = isinstance(phi, TestFunction)
    moments = AgeMoments([phi], spec, grid) if single else phi
    catalogue = moments.catalogue
    p = catalogue[0]  # its bumps are every function's

    T_run = float(samples[-1].t)
    a_cap = grid.I * grid.alpha
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
    if any(len(q.modes) != sgrid.dim for q in catalogue):
        raise InadmissibleTestFunction("omega mode count does not match dim")
    if single:
        if any(s.u is None for s in samples):
            raise ValueError("trajectory was stored without bin fields")
        for s in samples:
            moments.take(s)
    if len(moments.values) != len(samples):
        raise ValueError(f"{len(moments.values)} age moments for {len(samples)} samples")

    vol = sgrid.cell_volume
    times = np.asarray([s.t for s in samples], dtype=float)
    R_scale = max(float(np.max([np.max(s.lambda_rec) for s in samples])), 1e-6)
    zeta1_eval = Zeta1Evaluator(spec, 1.5 * R_scale + 1.0)
    chi0, psi0 = float(p.chi(0.0)), float(p.psi(0.0))
    psi_t = np.asarray(p.psi(times), dtype=float)
    psip_t = np.asarray(p.psi_prime(times), dtype=float)
    omegas = [(q.omega(sgrid).reshape(-1) * vol,
               [g.reshape(-1) * vol for g in q.grad_omega(sgrid)],
               q.lap_omega(sgrid).reshape(-1) * vol) for q in catalogue]
    # per test function and sample: transport, inflow, diffusion, drift
    f = np.zeros((len(catalogue), 4, times.size))

    # a sample's moments per cell: chi_u = C_i u_i, jump_u = (Cp_i - Cmu_i) u_i
    for k, (s, (chi_u, jump_u)) in enumerate(zip(samples, moments.values)):
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
        psi_k, psip_k = float(psi_t[k]), float(psip_t[k])
        for c, (omega, gomega, lomega) in enumerate(omegas):
            chi_omega = float(chi_u @ omega)
            f[c, 0, k] = psip_k * chi_omega + psi_k * float(jump_u @ omega)
            f[c, 1, k] = psi_k * chi0 * float(inflow @ omega)
            f[c, 2, k] = psi_k * float(chi_u @ (lomega * D_lam))
            W_dot = np.zeros_like(lam_flat)
            for ax in range(sgrid.dim):
                W_dot += split[ax] * gomega[ax]
            f[c, 3, k] = -psi_k * float(chi_u @ W_dot)

    results = []
    for fc, (omega, _, _) in zip(f, omegas):
        terms = {
            "transport": float(np.trapezoid(fc[0], times)),
            "inflow": float(np.trapezoid(fc[1], times)),
            "initial": psi0 * float(moments.values[0][0] @ omega),
            "diffusion": float(np.trapezoid(fc[2], times)),
            "drift_split": float(np.trapezoid(fc[3], times)),
        }
        signed = sum(terms.values())
        results.append(WeakResidualResult(residual=abs(signed), signed=signed, terms=terms))
    return results[0] if single else results


# --------------------------------------------------------------------------
# refinement

def observed_orders(errors, alphas) -> list:
    """The observed order of each refinement step k -> k+1 of a level
    study: log(e_k / e_k+1) / log(alpha_k / alpha_k+1), NaN unless both
    errors are positive."""
    return [math.log2(e1 / e2) / math.log2(a1 / a2) if e1 > 0.0 and e2 > 0.0 else math.nan
            for e1, e2, a1, a2 in zip(errors, errors[1:], alphas, alphas[1:])]
