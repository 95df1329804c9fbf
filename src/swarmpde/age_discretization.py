"""Age binning of the model and construction of the regularized data.

The age axis is cut into I uniform bins of width alpha; the continuous
weights lam, b, mu are replaced by their cell averages and the age
derivative by an upwind difference quotient.  The number of bins defaults
to floor(1/alpha^2), capped so the covered age range does not exceed the
configured maximum (the tail diagnostic quantifies the truncation).

Regularization adds alpha to the diffusivity, clamps the arguments of E
and xi to the box [0, 1/alpha], and supplies the smooth cutoff that
disables the drift for bin densities above the cap 1/alpha^2.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HypothesisViolation, NegativeInitialData, refuse
from .model_spec import ModelSpec, bin_averages, box_blocks, distinct_sorted, smoothstep

logger = logging.getLogger(__name__)

__all__ = [
    "AgeGrid",
    "RegularizedModel",
    "age_grid_problems",
    "theta_cutoff",
    "build_age_grid",
    "regularize",
    "age_average_initial",
    "entropy_phi",
]

_TINY = np.finfo(float).tiny


def theta_cutoff(r):
    """C^2 cutoff: exactly 1 for r <= 1/2, exactly 0 for r >= 1, non-increasing."""
    return 1.0 - smoothstep((np.asarray(r, dtype=float) - 0.5) / 0.5)


def entropy_phi(r, out=None):
    """Convex entropy r (ln r - 1) + 1 of densities r >= 0, exactly 1 at
    r = 0 and exactly 0 at r = 1.

    The logarithm is taken of max(r, tiny), the smallest normal float:
    at r = 0 the product 0 * ln(tiny) is zero, and below tiny the product
    is too small to move the sum off 1.  ``out``, if given, is a float
    array of r's shape that receives the result.
    """
    r = np.asarray(r, dtype=float)
    if out is None:
        out = np.empty_like(r)
    np.maximum(r, _TINY, out=out)
    np.log(out, out=out)
    out -= 1.0
    out *= r
    out += 1.0
    return out


@dataclass(frozen=True)
class AgeGrid:
    """Cell-averaged age coefficients and the constants measured on them.

    Array index k holds bin i = k+1; ``lam``/``b``/``mu`` carry I+1 entries
    (the extra one closes the biomass equation), the difference quotients
    ``lam_star``/``b_star`` carry I.  Immutable after construction and
    shareable without synchronization.
    """

    alpha: float
    I: int
    lam: np.ndarray
    b: np.ndarray
    mu: np.ndarray
    lam_star: np.ndarray
    b_star: np.ndarray
    ell: float   # min lam_i
    B: float     # max b_i*/b_i
    L: float     # max lam_i*/lam_i (signed)
    M: float     # max mu_i
    beta: float  # max(mu_i b_i / lam_i, lam_i / b_i)

    @property
    def a_max(self) -> float:
        return self.I * self.alpha


def age_grid_problems(alpha: float, a_max: float) -> list:
    """(config field, message) for every rule of the age grid that alpha
    and a_max break; ``build_age_grid`` refuses them all, and
    ``RegularizedModel`` the rule on alpha."""
    p = [] if 0.0 < alpha < 1.0 else [("alpha", "must be in (0, 1)")]
    if not a_max >= alpha:
        p.append(("a_max", "must be at least alpha"))
    return p


def build_age_grid(spec: ModelSpec, alpha: float, a_max: float) -> AgeGrid:
    """Cell-average the age weights over I bins and measure the constants.

    Both bounds on I are at least 1 under ``age_grid_problems``' rules.
    """
    refuse(age_grid_problems(alpha, a_max))
    I = min(int(math.floor(1.0 / alpha**2 + 1e-12)), int(math.ceil(a_max / alpha - 1e-12)))

    lam = bin_averages(spec.lam, alpha, I + 1)
    b = bin_averages(spec.b, alpha, I + 1)
    mu = bin_averages(spec.mu, alpha, I + 1)
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(b)) and np.all(np.isfinite(mu))):
        raise HypothesisViolation("non-finite cell average in the age weights")
    lam_star = (lam[1:] - lam[:-1])[:I] / alpha
    b_star = (b[1:] - b[:-1])[:I] / alpha

    scale_b = max(1.0, float(np.max(b)))
    if np.any(lam <= 0.0):
        raise HypothesisViolation("lam_i = 0 on the built grid")
    if np.any(b < 1.0 - 1e-12 * scale_b):
        raise HypothesisViolation("b_i < 1 on the built grid")
    if np.any(b_star < -1e-12 * scale_b / alpha):
        raise HypothesisViolation("b_i* < 0 on the built grid")
    if np.any(mu < -1e-12):
        raise HypothesisViolation("mu_i < 0 on the built grid")

    b_star = np.maximum(b_star, 0.0)
    mu = np.maximum(mu, 0.0)
    ell = float(np.min(lam))
    B = float(np.max(b_star / b[:I], initial=0.0))
    L = float(np.max(lam_star / lam[:I]))
    M = float(np.max(mu[:I], initial=0.0))
    beta = float(max(np.max(mu * b / lam), np.max(lam / b)))

    for arr in (lam, b, mu, lam_star, b_star):
        arr.setflags(write=False)
    return AgeGrid(
        alpha=alpha, I=I, lam=lam, b=b, mu=mu,
        lam_star=lam_star, b_star=b_star,
        ell=ell, B=B, L=L, M=M, beta=beta,
    )


class RegularizedModel:
    """Uniformly parabolic stand-in for the model at bin width alpha.

    ``D_alpha = D + alpha`` has positive lower bound alpha; E and xi keep
    their values on the box [0, 1/alpha] and are argument-clamped outside
    it (trajectories are certified in-box by the sup-norm diagnostic, so
    the clamp kink is never active in valid runs).  ``Xi``, the sampled
    constant of the bins' comparison bound, is computed on first read;
    only the diagnostics recorder reads it.

    Treat instances as immutable once built.
    """

    def __init__(self, spec: ModelSpec, alpha: float):
        # the rule on alpha: a_max = alpha breaks no other
        refuse(age_grid_problems(alpha, a_max=alpha))
        self.spec = spec
        self.alpha = alpha
        self.clamp = 1.0 / alpha
        self.theta = theta_cutoff

    @functools.cached_property
    def Xi(self) -> float:
        """A sampled upper bound for (1+s)*xi(s) + E(r,s) over the box,
        computed on first read and kept, so a set-up whose run records
        nothing never samples the box."""
        s = distinct_sorted(np.concatenate([
            [0.0],
            self.clamp * 2.0 ** (-np.arange(1, 40, dtype=float)),
            self.clamp * np.arange(1, 513) / 512.0,
        ]))
        xi_term = float(np.max((1.0 + s) * np.asarray(self.spec.xi(s), dtype=float)))
        box = s[:: max(1, s.size // 128)]
        E_term = float(np.max([np.max(E, initial=0.0)
                               for *_, E in box_blocks(self.spec.E, box, box)]))
        return xi_term + E_term

    def D_alpha(self, r):
        return np.asarray(self.spec.D(r), dtype=float) + self.alpha

    def _box(self, x):
        # np.clip's values (only a -0.0 argument comes out as +0.0) at a
        # fraction of its call cost
        return np.minimum(np.maximum(np.asarray(x, dtype=float), 0.0), self.clamp)

    def E_alpha(self, r, s):
        return np.asarray(self.spec.E(self._box(r), self._box(s)), dtype=float)

    def xi_alpha(self, s):
        return np.asarray(self.spec.xi(self._box(s)), dtype=float)


def regularize(spec: ModelSpec, alpha: float) -> RegularizedModel:
    """Build the regularized model data for bin width alpha."""
    return RegularizedModel(spec, alpha)


def age_average_initial(age_profile: Callable, space, grid: AgeGrid) -> np.ndarray:
    """Bin-average separable initial swarmer data over age, per spatial cell.

    The data are ``age_profile(a) * space``: ``age_profile`` takes an
    array of ages, and ``space`` holds the space profile in the spatial
    grid's shape.  Bin i's values are the bin average of the age profile
    (``bin_averages``) times the space profile: the outer product of the
    two factors, set-up's one pass over u.  Values below -1e-12 raise,
    the rest are clipped at 0, and values above the cap 1/(4 alpha^2)
    are clamped with a logged warning, in place.

    These rules are decided on the factors.  Correctly rounded
    multiplication is monotone in each factor, so the least and the
    greatest product are among the four products of the factors'
    extremes: the sign check reads those four, and the clamp (with its
    count) runs only when one of them exceeds the cap.  When one of the
    four is not finite (inf * 0, say), every product is judged instead.
    The clip runs only when an entry of a factor has its sign bit set,
    as no other product is below +0.0; it turns a -0.0 product into
    +0.0 and leaves NaN as is.
    """
    alpha = grid.alpha
    ages = bin_averages(age_profile, alpha, grid.I)
    space = np.asarray(space, dtype=float)
    out = np.multiply.outer(ages, space)
    judged = np.multiply.outer([ages.min(), ages.max()], [space.min(), space.max()])
    if not np.all(np.isfinite(judged)):
        judged = out
    if np.any(judged < -1e-12):
        raise NegativeInitialData(
            f"initial swarmer data negative (min {float(judged.min()):.3e})"
        )
    if np.signbit(ages).any() or np.signbit(space).any():
        np.maximum(out, 0.0, out=out)
    cap = 1.0 / (4.0 * alpha**2)
    if np.any(judged > cap):
        n_over = int(np.count_nonzero(out > cap))
        logger.warning(
            "initial swarmer data exceeds the cap 1/(4 alpha^2)=%.4g in %d "
            "bin-cells; clamping", cap, n_over,
        )
        np.minimum(out, cap, out=out)
    return out
