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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
