import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from swarmpde.errors import (
    DegenerateDiffusion,
    NonFiniteEvaluation,
    QuadratureDivergence,
    RatioUndefined,
)
from swarmpde.age_discretization import regularize
from swarmpde.model_spec import (
    GAUSS8,
    GAUSS16,
    Zeta1Evaluator,
    box_blocks,
    bump,
    distinct_sorted,
    estimate_kappas,
    smoothstep,
    tabulated_family,
    tabulated_function,
    validate_hypotheses,
    zeta1,
)

from conftest import exponential_spec, make_spec, power_zeta, whole_box_Xi

# oracle: closed-form antiderivatives of sqrt(D(r)/r)
#   D(r) = r    -> integrand 1      -> zeta1(r) = r
#   D(r) = r^3  -> integrand s      -> zeta1(r) = r^2/2
#   D(r) = D0 r^theta -> 2 sqrt(D0) r^((theta+1)/2) / (theta+1)


def test_zeta1_linear_diffusivity():
    spec = make_spec(D=lambda r: np.asarray(r, dtype=float))
    for r in (0.3, 0.7, 1.0, 2.5):
        assert zeta1(spec, r) == pytest.approx(r, abs=1e-10)


def test_zeta1_cubic_diffusivity():
    spec = make_spec(D=lambda r: np.asarray(r, dtype=float) ** 3)
    assert zeta1(spec, 1.3) == pytest.approx(1.3**2 / 2.0, abs=1e-10)


def test_zeta1_at_zero():
    spec = make_spec()
    assert zeta1(spec, 0.0) == 0.0


def test_zeta1_power_family_closed_form(rng):
    for _ in range(8):
        D0 = float(rng.uniform(0.05, 2.0))
        theta = float(rng.uniform(1.0, 4.0))
        spec = make_spec(D=lambda r, D0=D0, th=theta: D0 * np.maximum(r, 0.0) ** th)
        z, _ = power_zeta(D0, theta)
        r = float(rng.uniform(0.1, 3.0))
        assert zeta1(spec, r) == pytest.approx(float(z(r)), rel=1e-8)


def test_zeta1_monotone(rng):
    spec = make_spec(D=lambda r: 0.3 * np.maximum(r, 0.0) ** 2)
    rs = np.sort(rng.uniform(0.0, 4.0, size=12))
    vals = [zeta1(spec, r) for r in rs]
    assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_zeta1_divergence_raises():
    spec = make_spec(D=lambda r: 1.0 / np.maximum(np.asarray(r, dtype=float), 1e-300))
    with pytest.raises(QuadratureDivergence):
        zeta1(spec, 1.0)


@pytest.mark.parametrize("rule, n", [(GAUSS8, 8), (GAUSS16, 16)], ids=["8", "16"])
def test_gauss_tables_are_leggauss_bitwise(rule, n):
    # the literal tables stand in for numpy's leggauss, which the
    # runtime no longer calls; they were taken from numpy 2.4.6, and
    # leggauss's last bits (an eigvalsh call and one Newton step) may
    # differ on another numpy or BLAS build
    for table, ref in zip(rule, np.polynomial.legendre.leggauss(n)):
        assert table.tobytes() == ref.tobytes()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, 2.0**-30, 0.25, 0.5, 1.0 - 2.0**-30, 8.0])
                | st.floats(0.0, 8.0), min_size=1, max_size=64))
def test_distinct_sorted_is_np_unique_bitwise(values):
    # the sampling grids' stand-in for np.unique, whose first call
    # imports numpy.ma; the grids are finite and hold no -0.0
    assert distinct_sorted(np.array(values)).tobytes() == np.unique(values).tobytes()


@pytest.mark.parametrize("rule", [GAUSS8, GAUSS16], ids=["8", "16"])
def test_gauss_tables_integrate_every_degree_below_2n_exactly(rule):
    # the rule itself, whatever numpy build is at hand
    x, w = rule
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0.0) and np.all(w > 0.0)
    for k in range(2 * len(x)):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert float(w @ x**k) == pytest.approx(exact, abs=4e-15)


def test_zeta1_evaluator_matches_quadrature():
    spec = make_spec(D=lambda r: 0.1 * np.maximum(r, 0.0) ** 2)
    ev = Zeta1Evaluator(spec, 4.0)
    for r in (0.0, 0.01, 0.5, 1.7, 3.9):
        assert float(ev(r)) == pytest.approx(zeta1(spec, r), abs=5e-7)


def test_zeta1_tabulated_diffusivity_integrable():
    # a piecewise-linear D has a kink at every node; with 129 nodes on
    # [0, 16] the quadrature must still meet its 1e-10 error bound
    r = np.linspace(0.0, 16.0, 129)
    spec = make_spec(D=tabulated_function(r, 0.1 * r**2))
    assert zeta1(spec, 8.0) == pytest.approx(float(Zeta1Evaluator(spec, 8.0)(8.0)), abs=1e-8)


def _quadpack_zeta1(spec, r):
    """The reference transform: QUADPACK's adaptive quadrature
    (``scipy.integrate.quad``) of the same integrand over the same break
    points and budget, raising QuadratureDivergence where it fails."""
    qr = math.sqrt(r)

    def integrand(q):
        d = float(spec.D(q * q))
        if not math.isfinite(d) or d < 0.0:
            raise QuadratureDivergence(f"D({q * q!r}) = {d!r} not admissible")
        return 2.0 * math.sqrt(d)

    knots = np.sqrt(np.maximum(getattr(spec.D, "abscissae", ()), 0.0))
    pts = np.unique(np.concatenate([qr * 2.0 ** -np.arange(1.0, 24.0), knots]))
    pts = pts[(pts > 0.0) & (pts < qr)]
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        value, err = integrate.quad(integrand, 0.0, qr, points=pts, limit=400 + pts.size,
                                    epsabs=1e-12, epsrel=1e-12)
    if not math.isfinite(value) or err > 1e-10:
        raise QuadratureDivergence(f"quadrature error {err:.2e} above tolerance for r={r!r}")
    return value


def test_zeta1_agrees_with_quadpack(rng):
    cases = [(make_spec(D=lambda r: np.asarray(r, dtype=float)), r) for r in (0.3, 1.0, 2.5)]
    cases.append((make_spec(D=lambda r: np.asarray(r, dtype=float) ** 3), 1.3))
    for _ in range(8):
        D0, theta = float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.0, 4.0))
        cases.append((make_spec(D=lambda r, D0=D0, th=theta: D0 * np.maximum(r, 0.0) ** th),
                      float(rng.uniform(0.1, 16.0))))
    knots = np.linspace(0.0, 16.0, 129)
    cases.append((make_spec(D=tabulated_function(knots, 0.1 * knots**2)), 8.0))
    for spec, r in cases:
        assert abs(zeta1(spec, r) - _quadpack_zeta1(spec, r)) <= 1e-10


def _nan_off_grid(r):
    # D(r) = r, except NaN on (1, 2) away from the 1/32 grid
    r = np.asarray(r, dtype=float)
    off = np.abs(r * 32.0 - np.round(r * 32.0)) / 32.0
    return np.where((r > 1.0) & (r < 2.0) & (off > 1e-5), np.nan, r)


@pytest.mark.parametrize("D, message", [
    (lambda r: 1.0 / np.maximum(np.asarray(r, dtype=float), 1e-300), "quadrature error "),
    (lambda r: np.maximum(np.asarray(r, dtype=float), 1e-300) ** -2.0, "quadrature error "),
    (_nan_off_grid, "D("),
    (lambda r: np.asarray(r, dtype=float) - 1.0, "D("),
    (lambda r: np.where(np.asarray(r) > 1.5, np.inf, 1.0), "D("),
], ids=["one-over-r", "one-over-r-squared", "nan-between-samples", "negative", "infinite"])
def test_zeta1_diverges_where_quadpack_does(D, message):
    spec = make_spec(D=D)
    with pytest.raises(QuadratureDivergence):
        _quadpack_zeta1(spec, 2.0)
    with pytest.raises(QuadratureDivergence) as err:
        zeta1(spec, 2.0)
    assert str(err.value).startswith(message)


def test_zeta1_names_the_first_inadmissible_node():
    # D < 0 on (0, 1): the first node of the first panel is the smallest
    spec = make_spec(D=lambda r: np.asarray(r, dtype=float) - 1.0)
    with pytest.raises(QuadratureDivergence, match=r"^D\((\S+)\) = (\S+) not admissible$") as err:
        zeta1(spec, 2.0)
    s = float(str(err.value)[2:].split(")")[0])
    assert 0.0 < s < 1e-13 and str(err.value).endswith(f"= {s - 1.0!r} not admissible")


# --- blocked boxes ----------------------------------------------------------
#
# A sampled box of E is evaluated in blocks of rows (box_blocks); every
# value read off it must be the whole box's, bit for bit

def _gate_spec():
    # the acceptance gates' model (tau = 2, mu = 0.3, D = 0.1 r^2, E = D')
    return exponential_spec()


def _tables_spec():
    ages, r = np.linspace(0.0, 2.0, 33), np.linspace(0.0, 16.0, 129)
    tables = {"lam": tabulated_function(ages, np.exp(ages / 2.0)),
              "b": tabulated_function(ages, np.exp(ages / 2.0)),
              "mu": tabulated_function(ages, np.full_like(ages, 0.3)),
              "D": tabulated_function(r, 0.1 * r**2),
              "E": tabulated_function(r, 0.2 * r + 0.01 * np.sin(r))}
    return tabulated_family(tables, tau=2.0, g0=None, r_max=16.0)


@pytest.mark.parametrize("make", [_gate_spec, _tables_spec], ids=["gate", "tables"])
def test_blocked_boxes_equal_the_whole_box_bitwise(make):
    spec, alpha = make(), 0.125
    # the box itself, on an axis that is no multiple of the block height
    ax = np.linspace(0.0, 8.0, 139)
    whole = spec.E(*np.meshgrid(ax, ax, indexing="ij"))
    blocks = list(box_blocks(spec.E, ax, ax))
    assert len(blocks) > 1
    assert np.array_equal(np.concatenate([E for *_, E in blocks]), whole)
    # Xi: the sup of E over the regularized model's box
    assert regularize(spec, alpha).Xi == whole_box_Xi(spec, alpha)
    # kappa2 and kappa3: the inf and the sup of the ratios on the kappa box
    kap = estimate_kappas(spec, 8.0, 256)
    r_ax = np.unique(np.concatenate([8.0 * 2.0 ** -np.arange(1, 31, dtype=float),
                                     8.0 * np.arange(1, 129) / 128]))
    RR, SS = np.meshgrid(r_ax, np.concatenate([[0.0], r_ax]), indexing="ij")
    Ev, z2p = spec.E(RR, SS), spec.zeta2_prime(r_ax)[:, None]
    assert kap.kappa2 == float(np.min(np.where(z2p > 0.0, Ev / z2p**2, 0.0)))
    assert kap.kappa3 == float(np.max(np.where(z2p > 0.0, Ev / z2p, 0.0), initial=0.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kappa_box_fails_on_a_nonfinite_ratio_in_a_later_block(bad):
    # E is not finite where r > 5 and s > 5 only, so the blocks that hold
    # those samples hold finite ones too: an infinity shows in one of a
    # block's extremes, a NaN in both, and either fails kappa2 and kappa3
    spec = make_spec(E=lambda r, s: np.where((np.asarray(r) > 5.0) & (np.asarray(s) > 5.0),
                                             bad, 1.0))
    kap = estimate_kappas(spec, 8.0, 256)
    assert kap.failed == ("kappa2", "kappa3")
    assert math.isnan(kap.kappa2) and math.isnan(kap.kappa3)


def test_ratio_undefined_names_the_first_flag_of_a_later_block():
    # zeta2' vanishes from r = 5 on while E does not: the first flag in C
    # order lies in a later block than the first
    spec = make_spec(E=lambda r, s: np.ones(np.broadcast(np.asarray(r), np.asarray(s)).shape),
                     zeta2_prime=lambda r: np.where(np.asarray(r) < 5.0, 1.0, 0.0))
    with pytest.raises(RatioUndefined, match=r"^zeta2' vanishes at r=5\.0 while E\(r,s\)=1\.0 != 0$"):
        estimate_kappas(spec, 8.0, 256)


def test_nonfinite_drift_on_the_box_names_its_first_point():
    # E is finite on the kappa box's radii up to 1 but infinite beyond:
    # the hypothesis box names its first non-finite sample, not an
    # IndexError of a flat mask on a 2D array
    spec = make_spec(E=lambda r, s: np.where(np.asarray(r) > 1.0, np.inf, 0.0)
                     * np.ones_like(np.asarray(s, dtype=float)))
    with pytest.raises(NonFiniteEvaluation, match=r"^E evaluated non-finite near \[1\.03125\]$"):
        validate_hypotheses(spec, R_max=2.0, A_max=2.0, n_samples=64)


# --- hypothesis validation -------------------------------------------------

def test_validate_exponential_passes():
    spec = make_spec()  # lam = b = exp(a/2), mu = 0.3
    rep = validate_hypotheses(spec, R_max=4.0, A_max=4.0, n_samples=256)
    assert rep.all_passed
    assert rep.ell0 == pytest.approx(1.0)
    # growth-ratio oracle: sup over alpha in (0,1) of (e^(alpha/2)-1)/alpha
    closed = math.exp(0.5) - 1.0
    assert rep.L0 <= closed + 1e-12
    assert rep.L0 == pytest.approx(closed, abs=0.01)
    # the report stores the kappas measured at R_max
    kap = estimate_kappas(spec, 4.0, 256)
    d = rep.to_dict()
    assert (d["kappa1_Rmax"], d["kappa2_Rmax"], d["kappa3_Rmax"]) == (
        kap.kappa1, kap.kappa2, kap.kappa3)


def test_validate_zero_lam_fails_h3():
    spec = make_spec(lam=lambda a: np.zeros_like(np.asarray(a, dtype=float)))
    rep = validate_hypotheses(spec, R_max=2.0, A_max=2.0, n_samples=64)
    assert not rep.passed["weight_mass"]
    assert rep.ell0 == 0.0


@pytest.mark.parametrize("call, says", [
    (lambda spec: zeta1(spec, -0.5), "zeta1 requires r >= 0"),
    (lambda spec: estimate_kappas(spec, 0.0, 64), "R must be positive"),
    (lambda spec: estimate_kappas(spec, -1.0, 64), "R must be positive"),
    (lambda spec: validate_hypotheses(spec, R_max=2.0, A_max=2.0, n_samples=32),
     "n_samples must be >= 64"),
    (lambda spec: validate_hypotheses(spec, R_max=0.0, A_max=2.0, n_samples=64),
     "R_max and A_max must be positive"),
    (lambda spec: validate_hypotheses(spec, R_max=2.0, A_max=-1.0, n_samples=64),
     "R_max and A_max must be positive"),
], ids=["zeta1-negative_r", "kappas-zero_R", "kappas-negative_R", "validate-few_samples",
        "validate-zero_R_max", "validate-negative_A_max"])
def test_arguments_out_of_range_are_refused(call, says):
    with pytest.raises(ValueError, match=says):
        call(make_spec())


def test_validate_constant_b_fails_h2():
    spec = make_spec(b=lambda a: np.ones_like(np.asarray(a, dtype=float)))
    rep = validate_hypotheses(spec, R_max=2.0, A_max=2.0, n_samples=64)
    assert not rep.passed["weight_b"]


def test_validate_nonfinite_raises():
    spec = make_spec(D=lambda r: np.where(np.asarray(r) > 1.0, np.inf, 1.0))
    with pytest.raises(NonFiniteEvaluation):
        validate_hypotheses(spec, R_max=2.0, A_max=2.0, n_samples=64)


def test_validate_degenerate_diffusion_raises():
    spec = make_spec(D=lambda r: np.zeros_like(np.asarray(r, dtype=float)))
    with pytest.raises(DegenerateDiffusion) as err:
        validate_hypotheses(spec, R_max=2.0, A_max=2.0, n_samples=64)
    # the witness radius prints as a plain float
    message = str(err.value)
    assert "np." not in message
    assert float(message[len("D("):message.index(")")]) > 0.0


def test_validate_sampling_monotone():
    # sup estimates only grow and a fail never flips to a pass
    spec_b = make_spec(b=lambda a: 1.0 + np.asarray(a, dtype=float))
    spec_bad = make_spec(
        xi=lambda s: np.full_like(np.asarray(s, dtype=float), 0.01),
    )  # xi(s) != 0 for s <= 0 violates h1 at every resolution
    for spec in (spec_b, spec_bad):
        prev = None
        for n in (64, 128, 256):
            rep = validate_hypotheses(spec, R_max=2.0, A_max=2.0, n_samples=n)
            if prev is not None:
                assert rep.B0 >= prev.B0 - 1e-12
                assert rep.L0 >= prev.L0 - 1e-12
                assert rep.ell0 <= prev.ell0 + 1e-12
                for name, ok in prev.passed.items():
                    if not ok:
                        assert not rep.passed[name]
            prev = rep


# --- kappa estimation ------------------------------------------------------

def test_kappa1_quadratic_diffusivity():
    # D = r^2: D' = 2r, zeta1' = sqrt(r), ratio 2 sqrt(r) -> max 2 sqrt(R)
    spec = make_spec(D=lambda r: np.maximum(r, 0.0) ** 2)
    R = 2.25
    kap = estimate_kappas(spec, R, 256)
    assert kap.kappa1 == pytest.approx(2.0 * math.sqrt(R), rel=1e-6)


def test_kappa23_linear_drift():
    # E = 2r against zeta2' = r on [0,4]: ratios 2/r and 2
    spec = make_spec(
        E=lambda r, s: 2.0 * np.maximum(r, 0.0) * np.ones_like(np.asarray(s, dtype=float)),
        zeta2=lambda r: 0.5 * np.asarray(r, dtype=float) ** 2,
        zeta2_prime=lambda r: np.asarray(r, dtype=float),
    )
    kap = estimate_kappas(spec, 4.0, 256)
    assert kap.kappa3 == pytest.approx(2.0, abs=1e-12)
    assert kap.kappa2 == pytest.approx(0.5, abs=1e-12)


def test_kappas_zero_drift_degenerate_pass():
    spec = make_spec()
    kap = estimate_kappas(spec, 2.0, 128)
    assert kap.kappa2 == 0.0 and kap.kappa3 == 0.0 and kap.failed == ()
    rep = validate_hypotheses(spec, R_max=2.0, A_max=2.0, n_samples=64)
    assert rep.passed["drift"]


def test_kappas_ratio_undefined():
    spec = make_spec(
        E=lambda r, s: np.ones(np.broadcast(np.asarray(r), np.asarray(s)).shape),
        zeta2=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
        zeta2_prime=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
    )
    with pytest.raises(RatioUndefined):
        estimate_kappas(spec, 2.0, 128)
    # the report records the failure once; serializing it does not re-raise
    rep = validate_hypotheses(spec, R_max=2.0, A_max=2.0, n_samples=64)
    assert not rep.passed["drift"]
    assert math.isnan(rep.to_dict()["kappa2_Rmax"])


def test_kappas_finite_for_power_family(rng):
    # reference drift choice E = D' stays bounded by the induced transform
    for _ in range(6):
        D0 = float(rng.uniform(0.05, 1.0))
        theta = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
        spec = exponential_spec(tau=1.0, D0=D0, theta=theta, xi0=0.0)
        kap = estimate_kappas(spec, float(rng.uniform(0.5, 4.0)), 128)
        assert kap.failed == ()
        assert all(math.isfinite(k) for k in (kap.kappa1, kap.kappa2, kap.kappa3))


def test_exponential_family_hypotheses_pass():
    spec = exponential_spec()
    rep = validate_hypotheses(spec, R_max=8.0, A_max=4.0, n_samples=128)
    assert rep.all_passed


def test_tabulated_function_interpolates():
    f = tabulated_function([0.0, 1.0, 2.0], [1.0, 3.0, 3.0])
    assert float(f(0.5)) == pytest.approx(2.0)
    assert float(f(5.0)) == pytest.approx(3.0)  # clamped beyond the table
    with pytest.raises(ValueError):
        tabulated_function([0.0, 0.0], [1.0, 2.0])


def test_bump_is_bitwise_the_product_of_its_ramps(rng):
    # the quarter ramps do not overlap, so one factor is exactly 1 and
    # the single smoothstep of the smaller argument is the product bit for
    # bit, signed zeros, NaN and infinities included
    for lo, hi in ((0.0, 1.0), (0.2, 0.7), (-3.0, 5.5), (1e-3, 2e-3)):
        w = hi - lo
        s = np.concatenate([rng.uniform(lo - 0.2 * w, hi + 0.2 * w, 5000),
                            np.linspace(lo, hi, 2001),
                            [0.0, -0.0, np.nan, np.inf, -np.inf, lo, hi]])
        ramp = w * 0.25
        product = smoothstep((s - lo) / ramp) * smoothstep((hi - s) / ramp)
        got = bump(s, lo, hi)
        assert np.array_equal(np.isnan(got), np.isnan(product))
        finite = ~np.isnan(product)
        assert np.array_equal(got[finite].view(np.uint64), product[finite].view(np.uint64))


# --- one spec per rule -------------------------------------------------------
#
# Each case breaks one rule of ``validate_hypotheses`` (R_max = A_max = 2,
# n_samples = 64, so ages and uniform radii lie on a 1/32 grid) and names
# every hypothesis that fails, with its witness: the sample point as floats
# (a pair for the drift box, None where a rule has no single point) and
# the message.  Two rules never fail alone: "lam vanishes" under modulus
# is the same condition as "inf lam = 0" under weight_mass, and a
# RatioUndefined from the kappa box is always followed, within drift, by
# "zeta2'(r) <= 0" or "E < 0" on the same samples (the report keeps the
# first witness).

def _arr(x):
    return np.asarray(x, dtype=float)


def _ones(r, s):
    return np.ones(np.broadcast(np.asarray(r), np.asarray(s)).shape)


def _nan_between_samples(r):
    # D(r) = r, except NaN on (1, 2) away from the 1/32 sample grid (and
    # from the difference steps around it), where only the quadrature looks
    r = _arr(r)
    off = np.abs(r * 32.0 - np.round(r * 32.0)) / 32.0
    return np.where((r > 1.0) & (r < 2.0) & (off > 1e-5), np.nan, r)


_RULE_CASES = [
    pytest.param(dict(xi=lambda s: np.full_like(_arr(s), 0.01)),
                 {"rates": (-0.03125, "xi(s) != 0 for s <= 0")}, id="rates-xi-nonzero-below-0"),
    pytest.param(dict(xi=lambda s: np.where(_arr(s) > 0.5, -0.01, 0.0)),
                 {"rates": (0.53125, "xi(s) < 0")}, id="rates-xi-negative"),
    pytest.param(dict(xi=lambda s: np.where(_arr(s) > 0.7, 2.0, 0.0)),
                 {"rates": (0.71875, "xi(s) > g(s)")}, id="rates-xi-above-g"),
    pytest.param(dict(b=lambda a: 2.0 * np.exp(_arr(a) / 2.0)),
                 {"weight_b": (0.0, "b(0) = 2.0 != 1")}, id="weight_b-b0"),
    # a gentle dip on [0.5, 1] and a steep one at 1.25: the witness is the
    # steepest descent, not the first flagged age
    pytest.param(dict(b=tabulated_function([0.0, 0.5, 1.0, 1.25, 1.26, 2.0],
                                           [1.0, 1.5, 1.4, 1.6, 1.2, 3.0])),
                 {"weight_b": (1.25, "b not non-decreasing")}, id="weight_b-decreasing"),
    pytest.param(dict(b=lambda a: np.ones_like(_arr(a))),
                 {"weight_b": (2.0, "b shows no growth over the sampled window")},
                 id="weight_b-no-growth"),
    pytest.param(dict(b=lambda a: np.where(_arr(a) > 2.5, np.inf, np.exp(_arr(a) / 2.0))),
                 {"weight_b": (None, "b growth ratio non-finite")}, id="weight_b-ratio"),
    pytest.param(dict(lam=lambda a: (_arr(a) - 1.0) ** 2),
                 {"weight_mass": (1.0, "inf lam = 0"),
                  "modulus": (None, "lam vanishes; mu*b/lam undefined")},
                 id="weight_mass-and-modulus-lam-vanishes"),
    pytest.param(dict(lam=lambda a: np.where(_arr(a) > 2.5, np.inf, np.exp(_arr(a) / 2.0))),
                 {"weight_mass": (None, "lam growth ratio non-finite")},
                 id="weight_mass-ratio"),
    pytest.param(dict(mu=lambda a: np.full_like(_arr(a), 1e308)),
                 {"modulus": (None, "mu*b/lam non-finite")}, id="modulus-overflow",
                 marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
    pytest.param(dict(mu=lambda a: 0.3 - _arr(a)),
                 {"modulus": (0.3125, "mu < 0")}, id="modulus-mu-negative"),
    # a gentle fall on [1, 1.5] and a steep one right after 1.5
    pytest.param(dict(D=tabulated_function([0.0, 1.0, 1.5, 1.53125, 2.0],
                                           [0.0, 1.0, 0.9, 0.3, 2.0])),
                 {"diffusivity": (1.5, "D not non-decreasing")}, id="diffusivity-decreasing"),
    pytest.param(dict(D=_nan_between_samples),
                 {"diffusivity": (2.0, "sqrt(D(r)/r) not integrable near 0: D(")},
                 id="diffusivity-quadrature"),
    pytest.param(dict(D=lambda r: np.where(_arr(r) > 2.0, np.inf, np.maximum(_arr(r), 0.0))),
                 {"diffusivity": (None, "D'/zeta1' blows up on [0, R_max]")},
                 id="diffusivity-kappa1"),
    pytest.param(dict(E=_ones, zeta2=lambda r: np.zeros_like(_arr(r)),
                      zeta2_prime=lambda r: np.zeros_like(_arr(r))),
                 {"drift": (None, "zeta2' vanishes at r=")}, id="drift-ratio-undefined"),
    # zeta2' = r^18 is positive on every sample, but its square underflows
    # next to the smallest one, so E / zeta2'^2 overflows
    pytest.param(dict(E=_ones, zeta2=lambda r: np.maximum(_arr(r), 0.0) ** 19 / 19.0,
                      zeta2_prime=lambda r: np.maximum(_arr(r), 0.0) ** 18),
                 {"drift": (None, "E/zeta2' ratios blow up on the sampled box")},
                 id="drift-kappa23"),
    pytest.param(dict(E=lambda r, s: np.where((_arr(r) > 1.0) & (_arr(s) > 0.5), -0.1, 0.0)),
                 {"drift": ((1.03125, 0.53125), "E < 0")}, id="drift-E-negative"),
    pytest.param(dict(zeta2=lambda r: _arr(r) + 0.5, zeta2_prime=lambda r: np.ones_like(_arr(r))),
                 {"drift": (0.0, "zeta2(0) = 0.5 != 0")}, id="drift-zeta2-at-0"),
    # E vanishes wherever zeta2' does, so the kappa box raises nothing
    pytest.param(dict(E=lambda r, s: np.where(_arr(r) < 1.0, _arr(r), 0.0) * np.ones_like(_arr(s)),
                      zeta2=lambda r: np.minimum(_arr(r), 1.0),
                      zeta2_prime=lambda r: np.where(_arr(r) < 1.0, 1.0, 0.0)),
                 {"drift": (1.0, "zeta2'(r) <= 0 for r > 0")}, id="drift-zeta2-prime"),
]

# messages that carry an evaluated value past their fixed start
_MESSAGE_PREFIXES = ("sqrt(D(r)/r) not integrable near 0: D(", "zeta2' vanishes at r=")


@pytest.mark.parametrize("parts, failed", _RULE_CASES)
def test_each_rule_fails_with_its_witness(parts, failed):
    rep = validate_hypotheses(make_spec(**parts), R_max=2.0, A_max=2.0, n_samples=64)
    assert {name for name, ok in rep.passed.items() if not ok} == set(failed)
    assert set(rep.witnesses) == set(failed)
    for name, (point, message) in failed.items():
        got_point, got_message = rep.witnesses[name]
        if message in _MESSAGE_PREFIXES:
            assert got_message.startswith(message)
        else:
            assert got_message == message
        if point is None:
            assert got_point is None
        elif isinstance(point, tuple):
            assert tuple(float(p) for p in got_point) == point
        else:
            assert float(got_point) == point


def test_witnesses_are_plain_numbers():
    # hypotheses.json and failure.json print the witnesses: the points are
    # floats (a pair of them for the drift box), never NumPy scalars
    for case in _RULE_CASES:
        with np.errstate(over="ignore"):
            rep = validate_hypotheses(make_spec(**case.values[0]), R_max=2.0, A_max=2.0,
                                      n_samples=64)
        for name, text in rep.to_dict()["witnesses"].items():
            assert "np." not in text, (case.id, name, text)
