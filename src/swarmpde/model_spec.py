"""Continuous model data and numerical verification of the assumptions on it.

The colony model couples a swimmer density v(t,x) to an age-structured
swarmer density u(t,a,x).  Its data are scalar functions:

* ``lam(a)``  -- mass weight; the total motile biomass is the lam-weighted
  age integral of u,
* ``b(a)``    -- dedifferentiation weight in the swimmer source (b(0)=1,
  non-decreasing),
* ``mu(a)``   -- dedifferentiation modulus,
* ``D(r)``    -- biomass-dependent diffusivity, allowed to vanish at r=0
  only (degenerate diffusion),
* ``E(r,s)``  -- drift coefficient in front of the biomass gradient,
* ``g(s)``, ``xi(s)`` -- swimmer growth and differentiation rates,
* ``zeta2(r)`` -- user-supplied transform whose derivative squeezes E
  from both sides (the transform is not unique; built-in families pick
  the one induced by D).

All assumptions on this data (positivity, growth-ratio bounds, the
two-sided drift bounds) are verified here by dense sampling, never
symbolically: the model functions are opaque callables.  A "pass" is a
certificate over the sampled set only and the measured constants are
empirical by construction.  Downstream modules treat them as such.

``validate_hypotheses`` states each inequality once, as one call of a
single witness rule: a flagged sample fails the rule's hypothesis, and
a failed hypothesis keeps the witness (point, message) of its first
failing rule.  The point is the first flagged sample point as plain
floats (a pair for the drift box, None where a rule has no single
point); the two monotonicity rules flag only the steepest descent, so
that is their witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .errors import (
    DegenerateDiffusion,
    NonFiniteEvaluation,
    RatioUndefined,
    refuse,
)

__all__ = [
    "ModelSpec",
    "HypothesisReport",
    "Kappas",
    "validate_hypotheses",
    "zeta1_prime",
    "Zeta1Evaluator",
    "bin_averages",
    "estimate_kappas",
    "diffusivity_slope",
    "box_blocks",
    "distinct_sorted",
    "smoothstep",
    "smoothstep_prime",
    "bump",
    "exponential_family",
    "tabulated_family",
    "exponential_problems",
    "constant_problems",
    "tabulated_problems",
    "tabulated_function",
]


# --------------------------------------------------------------------------
# smooth switch helpers (C^2 quintic; used by built-in rate functions and by
# the cutoff / tail weights downstream)

def smoothstep(x):
    """Quintic smoothstep: 0 for x<=0, 1 for x>=1, C^2 across the knots."""
    x = np.minimum(np.maximum(x, 0.0), 1.0)
    return x * x * x * (x * (6.0 * x - 15.0) + 10.0)


def smoothstep_prime(x):
    x = np.asarray(x, dtype=float)
    inside = (x > 0.0) & (x < 1.0)
    xc = np.clip(x, 0.0, 1.0)
    d = 30.0 * xc * xc * (1.0 - xc) ** 2
    return np.where(inside, d, 0.0)


def bump(s, lo, hi):
    """C^2 bump equal to 1 on the middle half of [lo, hi] and 0 outside it.

    Each ramp spans a quarter of [lo, hi].  The rising ramp's argument x
    and the falling ramp's y add up to 4, so one of them is at least 1,
    where smoothstep is exactly 1: the product of the two ramps is
    smoothstep(min(x, y)).
    """
    s = np.asarray(s, dtype=float)
    w = (hi - lo) * 0.25
    return smoothstep(np.minimum((s - lo) / w, (hi - s) / w))


# --------------------------------------------------------------------------
# model data container

@dataclass(frozen=True)
class ModelSpec:
    """Continuous model functions; the single source of truth for the PDE.

    All callables must accept NumPy arrays.  Instances are immutable and
    safe to share across concurrent evaluation contexts.
    """

    lam: Callable          # mass weight, age -> R>=0
    b: Callable            # dedifferentiation weight, age -> R>=1
    mu: Callable           # dedifferentiation modulus, age -> R>=0
    D: Callable            # diffusivity, biomass -> R>=0
    E: Callable            # drift coefficient, (biomass, swimmer) -> R>=0
    g: Callable            # swimmer growth rate
    xi: Callable           # differentiation rate, 0 for s <= 0
    zeta2: Callable        # drift transform of the data assumptions
    zeta2_prime: Callable  # its derivative (user-supplied)


@dataclass(frozen=True)
class HypothesisReport:
    """Sampled certificate for the six assumptions on the model data.

    Constants are estimated over the recorded sampling set; suprema only
    grow and infima only shrink under refinement, so a fail can never
    flip to a pass when ``n_samples`` increases.  The fields carry the
    names ``to_dict`` writes.
    """

    ell0: float            # inf lam over the age samples
    B0: float              # growth constant of b
    L0: float              # two-sided growth constant of lam
    beta0: float           # constant coupling mu*b, lam and b
    kappa1_Rmax: float     # sup of D'/zeta1' on [0, R_max]
    kappa2_Rmax: float     # inf of E/zeta2'^2 on [0, R_max]^2
    kappa3_Rmax: float     # sup of E/zeta2' on [0, R_max]^2
    passed: dict           # name -> bool
    witnesses: dict        # name -> (point, message) of each failed name
    n_samples: int
    R_max: float
    A_max: float

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())

    def failures(self) -> list:
        """``name: witness`` of each failed name, in name order."""
        return [f"{name}: {self.witnesses[name]}"
                for name, ok in sorted(self.passed.items()) if not ok]

    def to_dict(self) -> dict:
        return {**vars(self), "passed": dict(sorted(self.passed.items())),
                "witnesses": {k: str(v) for k, v in sorted(self.witnesses.items())}}


@dataclass(frozen=True)
class Kappas:
    """Drift/diffusion ratio constants at a given radius R.

    Ratios that blow up are reported as NaN with the offending name in
    ``failed`` rather than as infinities.
    """

    kappa1: float
    kappa2: float
    kappa3: float
    failed: tuple


# --------------------------------------------------------------------------
# nested sampling grids
#
# Grids are built from powers of two so that doubling n_samples refines the
# previous grid.  This makes the estimated suprema/infima monotone in n.

def _next_pow2(n: int) -> int:
    return 1 << (max(int(n), 1) - 1).bit_length()


def _nested_uniform(hi: float, n: int) -> np.ndarray:
    m = _next_pow2(n)
    return hi * np.arange(m + 1) / m


def _nested_geometric(hi: float) -> np.ndarray:
    # thirty halvings towards 0 for every sample count, so nested trivially
    return hi * 2.0 ** (-np.arange(1, 31, dtype=float))


def _nested_alphas(n: int) -> np.ndarray:
    # open interval (0,1): powers of two from both ends
    j_max = int(math.log2(_next_pow2(n)))
    lo = 2.0 ** (-np.arange(1, j_max + 1, dtype=float))
    hi = 1.0 - lo
    return distinct_sorted(np.concatenate([lo, hi]))


def distinct_sorted(x) -> np.ndarray:
    """The values of ``x`` in increasing order, each once: bit for bit
    ``np.unique`` of a finite array, without the ``numpy.ma`` import that
    ``np.unique``'s first call in a process makes."""
    x = np.sort(np.ravel(x))
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def _check_finite(name, values, where):
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        bad = np.ravel(where)[~np.isfinite(values).reshape(-1)][:1]
        raise NonFiniteEvaluation(f"{name} evaluated non-finite near {bad}")
    return values


BOX_ROWS = 32  # rows of a sampled box per block (box_blocks); 64 brought the faults back


def box_blocks(f, r, s):
    """Evaluate f(R, S) on the box of the axes r and s (``np.meshgrid``,
    indexing "ij") one block of BOX_ROWS rows at a time, and yield
    (rows, R, S, values) for each block in row order; ``rows`` is the
    block's slice of r.

    An array of a whole box (129 x 129 samples and up) is above the
    128 KiB at which glibc maps memory afresh or trims the freed top of
    its heap, so in a process with a small heap every whole box cost page
    faults.  The first flag of a box in C order is the first flag of its
    first flagged block.
    """
    for i0 in range(0, len(r), BOX_ROWS):
        rows = slice(i0, i0 + BOX_ROWS)
        # meshgrid's values, at a quarter of its call cost
        R, S = np.empty((len(r[rows]), len(s))), np.empty((len(r[rows]), len(s)))
        R[...], S[...] = r[rows, None], s
        yield rows, R, S, np.asarray(f(R, S), dtype=float)


# --------------------------------------------------------------------------
# operations

def _symmetric_rule(nodes, weights):
    # (nodes, weights) on [-1, 1] from the positive nodes, ascending
    x, w = np.array(nodes), np.array(weights)
    rule = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    for a in rule:
        a.setflags(write=False)
    return rule


# the 8-point Gauss-Legendre rule (nodes, weights) on [-1, 1], bit for bit
# numpy 2.4.6's leggauss, which would import numpy.polynomial into every
# process and make a LAPACK eigenvalue call
GAUSS8 = _symmetric_rule(
    [0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362],
    [0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706])


def bin_averages(f: Callable, h: float, count: int) -> np.ndarray:
    """Averages of f over ``count`` consecutive cells of width h from 0,
    by the 8-point Gauss rule; f takes an array of points, a row of eight
    per cell.

    The package's one fixed-rule cell average: the age weights and the
    initial bins (``age_discretization``), the weak residual's age
    moments (``diagnostics``) and the ``Zeta1Evaluator`` table.
    """
    edges = h * np.arange(count + 1)
    widths = edges[1:] - edges[:-1]
    x = edges[:-1, None] + (GAUSS8[0][None, :] + 1.0) * 0.5 * widths[:, None]
    vals = np.asarray(f(x), dtype=float)
    return (vals * GAUSS8[1][None, :]).sum(axis=1) * 0.5


def zeta1_prime(spec: ModelSpec, r):
    """sqrt(D(r)/r), with the r=0 value taken as the limit from the right."""
    r = np.asarray(r, dtype=float)
    r_floor = np.maximum(r, 1e-300)
    with np.errstate(all="ignore"):
        out = np.sqrt(np.maximum(np.asarray(spec.D(r_floor), dtype=float), 0.0) / r_floor)
    return out


class Zeta1Evaluator:
    """The diffusivity transform zeta1(r), the integral of sqrt(D(s)/s)
    from 0 to r, vectorized on [0, r_max] via a cumulative fine-grid table.

    For a non-decreasing D the integral is finite, at most 2 sqrt(r D(r)),
    so ``validate_hypotheses`` needs no quadrature to certify it.  The
    substitution s = q*q removes the 1/sqrt(s) factor: the integrand
    2 sqrt(D(q*q)) is integrated over 4096 equal panels of
    [0, sqrt(r_max)], each as its width times its ``bin_averages`` cell
    average; linear interpolation between panel edges.  Accuracy is far
    below the diagnostic tolerances that consume it.
    """

    def __init__(self, spec: ModelSpec, r_max: float):
        h = math.sqrt(max(r_max, 1e-12)) / 4096

        def integrand(q):
            return 2.0 * np.sqrt(np.maximum(np.asarray(spec.D(q * q), dtype=float), 0.0))

        self._q = h * np.arange(4097)
        self._cum = np.concatenate([[0.0], np.cumsum(h * bin_averages(integrand, h, 4096))])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.interp(np.sqrt(np.maximum(r, 0.0)), self._q, self._cum)


def diffusivity_slope(spec: ModelSpec, r, h: float) -> np.ndarray:
    """Central difference of D at r with step h, one-sided where r < h."""
    r_lo = np.maximum(r - h, 0.0)
    return (np.asarray(spec.D(r + h), dtype=float)
            - np.asarray(spec.D(r_lo), dtype=float)) / (r + h - r_lo)


def _kappa_samples(R: float, n_samples: int):
    r = distinct_sorted(np.concatenate([
        _nested_geometric(R),
        _nested_uniform(R, n_samples)[1:],
    ]))
    return r[r > 0.0]


def estimate_kappas(spec: ModelSpec, R: float, n_samples: int) -> Kappas:
    """Sampled ratio constants kappa1..kappa3 on [0, R] resp. [0, R]^2.

    D' is a central finite difference with step R*1e-6; no derivative is
    required from the caller.
    """
    if R <= 0.0:
        raise ValueError("R must be positive")
    failed = []

    def reduce(name, ratio, least=False) -> float:
        # the sup (at least 0) or the inf of the sampled ratios, or NaN
        # with the name in failed where one of them is not finite
        if not np.all(np.isfinite(ratio)):
            failed.append(name)
            return math.nan
        return float(np.min(ratio) if least else np.max(ratio, initial=0.0))

    r = _kappa_samples(R, n_samples)
    Dp = diffusivity_slope(spec, r, R * 1e-6)
    z1p = zeta1_prime(spec, r)
    with np.errstate(all="ignore"):
        # D' over a vanishing zeta1' is a blow-up unless D' vanishes too
        ratio1 = np.where(z1p > 0.0, Dp / z1p, np.where(np.abs(Dp) > 0.0, math.nan, 0.0))
    kappa1 = reduce("kappa1", ratio1)

    # box sampling for E against zeta2', block by block (box_blocks), each
    # block kept as its least and greatest ratio: a NaN shows in both, an
    # infinity in one, and the extremes of the extremes are the box's
    r_ax = _kappa_samples(R, min(n_samples, 128))
    z2p_ax = np.asarray(spec.zeta2_prime(r_ax), dtype=float)
    ext2, ext3 = [], []
    for rows, RR, _, Ev in box_blocks(spec.E, r_ax, np.concatenate([[0.0], r_ax])):
        z2p = z2p_ax[rows, None]
        if np.any((z2p <= 0.0) & (np.abs(Ev) > 0.0)):
            i, j = np.argwhere((z2p <= 0.0) & (np.abs(Ev) > 0.0))[0]
            raise RatioUndefined(
                f"zeta2' vanishes at r={float(RR[i, j])!r} while E(r,s)={float(Ev[i, j])!r} != 0"
            )
        with np.errstate(all="ignore"):
            r2, r3 = np.where(z2p > 0.0, Ev / z2p**2, 0.0), np.where(z2p > 0.0, Ev / z2p, 0.0)
            ext2 += [np.min(r2), np.max(r2)]
            ext3 += [np.min(r3), np.max(r3)]
    kappa2 = reduce("kappa2", np.array(ext2), least=True)
    kappa3 = reduce("kappa3", np.array(ext3))
    return Kappas(kappa1, kappa2, kappa3, tuple(failed))


def validate_hypotheses(
    spec: ModelSpec, R_max: float, A_max: float, n_samples: int
) -> HypothesisReport:
    """Verify the data assumptions by dense sampling and measure constants.

    The sampling grid is geometric near 0 (to probe the degeneracy of D)
    and uniform elsewhere, and is nested under doubling of ``n_samples``.
    The radii also take the knots in (0, R_max] of a tabulated D (its
    ``abscissae``): D is linear between consecutive radii, so its
    finiteness, sign and monotonicity on [0, R_max] are decided exactly.
    A non-decreasing D makes the transform zeta1 finite (see
    ``Zeta1Evaluator``), so no rule integrates it.  Each inequality is one
    call of the witness rule (see the module docstring); the report is
    deterministic for fixed resolution.
    """
    if n_samples < 64:
        raise ValueError("n_samples must be >= 64")
    if R_max <= 0.0 or A_max <= 0.0:
        raise ValueError("R_max and A_max must be positive")

    passed = dict.fromkeys(
        ("rates", "weight_b", "weight_mass", "modulus", "diffusivity", "drift"), True)
    witnesses: dict = {}

    def rule(name, flags, at, msg):
        # the witness rule: ``name`` fails where ``flags`` holds.  ``at`` is
        # the sample points of the flags (a tuple of them for a pair), the
        # one point of a single flag, or None for a rule with no point.  A
        # single flag is mostly a plain bool, and a plain False skips np.any
        # (a few us a call, in the set-up of every run)
        if flags is not False and np.any(flags):
            passed[name] = False
            k = int(np.argmax(flags))  # the first flagged entry
            point = None if at is None else tuple(float(np.ravel(p)[k]) for p in at) \
                if isinstance(at, tuple) else float(np.ravel(at)[k])
            witnesses.setdefault(name, (point, msg))

    ages = _nested_uniform(A_max, n_samples)
    alphas = _nested_alphas(n_samples)
    a_pos = ages[ages > 0.0]
    knots = np.asarray(getattr(spec.D, "abscissae", ()), dtype=float)
    rs = distinct_sorted(np.concatenate([[0.0], _kappa_samples(R_max, n_samples),
                                         knots[(knots > 0.0) & (knots <= R_max)]]))

    def growth(fun, shifted):
        # the growth ratio (fun(a') / fun(a) - 1) / alpha of the weight fun
        # over the ages a > 0 and the alphas, at the shifted ages a'
        ratio = np.asarray(fun(shifted), dtype=float)
        base = np.asarray(fun(a_pos), dtype=float)[:, None]
        with np.errstate(all="ignore"):
            return (ratio / base - 1.0) / alphas[None, :]

    # an overflow here is judged by _check_finite, as NonFiniteEvaluation
    with np.errstate(all="ignore"):
        lam_v = _check_finite("lam", spec.lam(ages), ages)
        b_v = _check_finite("b", spec.b(ages), ages)
        mu_v = _check_finite("mu", spec.mu(ages), ages)
        D_v = _check_finite("D", spec.D(rs), rs)
        g_v = _check_finite("g", spec.g(rs), rs)
        xi_v = _check_finite("xi", spec.xi(rs), rs)

    pos = rs > 0.0
    bad = (D_v < 0.0) | (pos & (D_v <= 0.0))
    if np.any(bad):
        k = int(np.argmax(bad))
        raise DegenerateDiffusion(
            f"D({float(rs[k])!r}) = {float(D_v[k])!r}: D must be positive for r > 0 and "
            "nonnegative at 0; fully/interval-degenerate diffusion is not supported"
        )

    # rate functions: xi vanishes on s <= 0 and is squeezed by g on s >= 0
    s_neg = -_nested_uniform(R_max, n_samples)[1:]
    xi_neg = _check_finite("xi", spec.xi(s_neg), s_neg)
    rule("rates", np.abs(xi_neg) > 0.0, s_neg, "xi(s) != 0 for s <= 0")
    rule("rates", xi_v < -1e-14, rs, "xi(s) < 0")
    rule("rates", xi_v > g_v + 1e-12, rs, "xi(s) > g(s)")

    # dedifferentiation weight: b(0)=1, non-decreasing, growing, bounded
    # ratio.  Growth to infinity is unverifiable by sampling; strict growth
    # over the window is certified.  A monotonicity rule flags only the
    # steepest of the descents, which is its witness
    b0 = float(spec.b(0.0))
    rule("weight_b", abs(b0 - 1.0) > 1e-9, 0.0, f"b(0) = {b0!r} != 1")
    db = np.diff(b_v)
    rule("weight_b", (db < -1e-12) & (db == db.min()), ages, "b not non-decreasing")
    rule("weight_b", b_v[-1] <= b0 * (1.0 + 1e-6), A_max,
         "b shows no growth over the sampled window")
    ratio_b = growth(spec.b, a_pos[:, None] + alphas[None, :])
    finite_b = np.all(np.isfinite(ratio_b))
    rule("weight_b", not finite_b, None, "b growth ratio non-finite")
    B0 = max(float(np.max(ratio_b)), 0.0) if finite_b else math.nan

    # mass weight: bounded below away from 0, two-sided growth ratio; and
    # the modulus: mu*b <= beta0*lam <= beta0^2*b on the samples
    ell0 = float(np.min(lam_v))
    rule("weight_mass", ell0 <= 0.0, ages[np.argmin(lam_v)], "inf lam = 0")
    rule("modulus", ell0 <= 0.0, None, "lam vanishes; mu*b/lam undefined")
    L0, beta0 = math.inf, math.nan
    if ell0 > 0.0:
        up = growth(spec.lam, a_pos[:, None] + alphas[None, :])
        back = a_pos[:, None] - alphas[None, :]
        dn = np.where(back > 0.0, growth(spec.lam, np.maximum(back, 0.0)), 0.0)
        L0 = float(max(np.max(up), np.max(dn), 0.0))
        rule("weight_mass", not math.isfinite(L0), None, "lam growth ratio non-finite")
        with np.errstate(all="ignore"):  # the rule judges a non-finite ratio
            beta0 = float(max(np.max(mu_v * b_v / lam_v), np.max(lam_v / b_v), 1.0))
        rule("modulus", not math.isfinite(beta0), None, "mu*b/lam non-finite")
        rule("modulus", mu_v < -1e-14, ages, "mu < 0")

    # diffusivity: non-decreasing and positive for r>0 (so its transform
    # is finite), D'/zeta1' bounded on [0, R_max]
    dD = np.diff(D_v)
    rule("diffusivity", (dD < -1e-12 * max(1.0, float(np.max(np.abs(D_v))))) & (dD == dD.min()),
         rs, "D not non-decreasing")

    # drift: E nonnegative and squeezed by zeta2'
    try:
        kap = estimate_kappas(spec, R_max, n_samples)
    except RatioUndefined as exc:
        rule("drift", True, None, str(exc))
        kap = Kappas(math.nan, math.nan, math.nan, ())
    rule("diffusivity", "kappa1" in kap.failed, None, "D'/zeta1' blows up on [0, R_max]")
    rule("drift", "kappa2" in kap.failed or "kappa3" in kap.failed, None,
         "E/zeta2' ratios blow up on the sampled box")
    s_box = distinct_sorted(np.concatenate([[0.0], _nested_uniform(R_max, min(n_samples, 128))]))
    E_pos = False  # whether E > 0 somewhere on the box
    for _, RR, SS, E_box in box_blocks(spec.E, s_box, s_box):
        _check_finite("E", E_box, RR)
        rule("drift", E_box < -1e-14, (RR, SS), "E < 0")
        E_pos = E_pos or bool(np.any(E_box > 0.0))
    z2_0 = float(spec.zeta2(0.0))
    rule("drift", abs(z2_0) > 1e-12, 0.0, f"zeta2(0) = {z2_0!r} != 0")
    z2p_pos = np.asarray(spec.zeta2_prime(rs[pos]), dtype=float)
    rule("drift", E_pos & (z2p_pos <= 0.0), rs[pos], "zeta2'(r) <= 0 for r > 0")

    return HypothesisReport(
        ell0=ell0, B0=B0, L0=L0, beta0=beta0,
        kappa1_Rmax=kap.kappa1, kappa2_Rmax=kap.kappa2, kappa3_Rmax=kap.kappa3,
        passed=passed, witnesses=witnesses, n_samples=_next_pow2(n_samples),
        R_max=R_max, A_max=A_max,
    )


# --------------------------------------------------------------------------
# built-in families

def _constant(c: float) -> Callable:
    # the function that is c at every argument
    def f(s):
        out = np.empty(np.shape(s))
        out.fill(c)
        return out
    return f


def _drift(e: Callable) -> Callable:
    # E(r, s) = e(r), whatever the swimmer density s
    def E(r, s):
        return np.asarray(e(r), dtype=float)
    return E


def _zero_drift(r, s):
    return np.zeros(np.broadcast(np.asarray(r), np.asarray(s)).shape)


def _g0(tau: float, g0) -> float:
    # the swimmer growth rate: g0, by default 1/tau (inf where tau is not
    # positive, which every family refuses)
    return g0 if g0 is not None else 1.0 / tau if tau > 0.0 else math.inf


def tabulated_problems(tau: float) -> list:
    """(config field, message) for the tables family's rule that ``tau``
    breaks: tau, which sets the default g0 = 1/tau, is positive."""
    return [] if tau > 0.0 else [("tau", "must be positive")]


def constant_problems(m0: float, tau: float, mu_const: float) -> list:
    """(config field, message) for every rule on the exponential family's
    constants that the values break: m0 and tau positive, mu nonnegative.
    The reduced system (``reduced_system.ReducedSpec``) keeps them too."""
    p = tabulated_problems(tau)
    if not m0 > 0.0:
        p.append(("m0", "must be positive"))
    if not mu_const >= 0.0:
        p.append(("mu", "must be nonnegative"))
    return p


def exponential_problems(m0: float, tau: float, mu_const: float, D0: float, theta: float,
                         xi0: float, xi_support: tuple, g0, drift: str) -> list:
    """(config field, message) for every rule of the exponential family
    that the parameters break; ``exponential_family`` refuses them all."""
    p = constant_problems(m0, tau, mu_const)
    if not D0 > 0.0:
        p.append(("D0", "must be positive (degenerate-everywhere diffusion is not supported)"))
    if theta != 0.0 and theta < 1.0:
        p.append(("theta", "must be 0 or >= 1"))
    if drift not in ("dprime", "none"):
        p.append(("drift", "must be 'dprime' or 'none'"))
    if not 0.0 <= xi0 <= _g0(tau, g0) + 1e-12:
        p.append(("xi0", "must lie in [0, g0]"))
    if not (len(xi_support) == 2 and xi_support[0] < xi_support[1]):
        p.append(("xi_support", "must be an increasing pair"))
    return p


def exponential_family(m0: float, tau: float, mu_const: float, D0: float, theta: float,
                       xi0: float, xi_support: tuple, g0, drift: str) -> ModelSpec:
    """Reference family used throughout the simulation literature; its
    parameters' defaults are ``config.ModelConfig``'s.

    lam(a) = m0*exp(a/tau), b(a) = exp(a/tau), mu constant, D(r) = D0*r^theta
    with the drift coefficient E = D' (or zero), g constant, and a smooth
    compactly supported differentiation-rate bump.  zeta2 is taken equal to
    the transform induced by D, for which the two-sided drift bounds hold
    with constants theta and theta*sqrt(D0)*R^((theta-1)/2).
    """
    refuse(exponential_problems(m0, tau, mu_const, D0, theta, xi0, xi_support, g0, drift))
    s1, s2 = xi_support

    def lam(a):
        return m0 * np.exp(np.asarray(a, dtype=float) / tau)

    def bfun(a):
        return np.exp(np.asarray(a, dtype=float) / tau)

    def Dfun(r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        return D0 * r**theta

    def Dprime(r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        return theta * D0 * r ** (theta - 1.0)

    def xifun(s):
        return xi0 * bump(s, s1, s2)

    half = (theta + 1.0) / 2.0
    sqrtD0 = math.sqrt(D0)

    def z2(r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        return 2.0 * sqrtD0 / (theta + 1.0) * r**half

    def z2p(r):
        r = np.maximum(np.asarray(r, dtype=float), 0.0)
        return sqrtD0 * r ** ((theta - 1.0) / 2.0)

    return ModelSpec(
        lam=lam, b=bfun, mu=_constant(mu_const), D=Dfun,
        E=_drift(Dprime) if drift == "dprime" and theta != 0.0 else _zero_drift,
        g=_constant(_g0(tau, g0)), xi=xifun if xi0 != 0.0 else _constant(0.0),
        zeta2=z2, zeta2_prime=z2p,
    )


def tabulated_family(tables: dict, tau: float, g0, r_max: float) -> ModelSpec:
    """Family of piecewise-linear tables (``tabulated_function``), keyed
    by model function name.

    lam, b, mu and D are required.  The drift coefficient is E(r, s) =
    E(r) from its table, or zero; xi is its table's on s > 0 and 0
    elsewhere, or zero; g is its table, or the constant g0 (by default
    1/tau).  zeta2 is the transform zeta1 induced by D
    (``Zeta1Evaluator``), tabulated on [0, r_max].
    """
    refuse(tabulated_problems(tau))
    proxy = SimpleNamespace(D=tables["D"])
    if "xi" in tables:
        xitab = tables["xi"]

        def xifun(s):
            s = np.asarray(s, dtype=float)
            return np.where(s > 0.0, np.asarray(xitab(s), dtype=float), 0.0)
    else:
        xifun = _constant(0.0)

    def z2p(r):
        return zeta1_prime(proxy, r)

    return ModelSpec(
        lam=tables["lam"], b=tables["b"], mu=tables["mu"], D=proxy.D,
        E=_drift(tables["E"]) if "E" in tables else _zero_drift,
        g=tables["g"] if "g" in tables else _constant(_g0(tau, g0)), xi=xifun,
        zeta2=Zeta1Evaluator(proxy, r_max), zeta2_prime=z2p,
    )


def tabulated_function(abscissae, values) -> Callable:
    """Piecewise-linear function from a (abscissa, value) table.

    Values are held constant beyond the table range.  The returned
    function carries the table's ``abscissae``, where it has its kinks
    (``validate_hypotheses`` samples a tabulated D there).  Entries must
    be finite: a NaN abscissa would pass the increasing check, since NaN
    compares false.
    """
    xs = np.asarray(abscissae, dtype=float)
    ys = np.asarray(values, dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("table needs two same-length columns with >= 2 rows")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ValueError("table entries must be finite")
    if np.any(np.diff(xs) <= 0.0):
        raise ValueError("table abscissae must be strictly increasing")

    def f(x):
        return np.interp(np.asarray(x, dtype=float), xs, ys)

    f.abscissae = xs
    return f
