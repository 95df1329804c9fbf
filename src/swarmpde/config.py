"""Run configuration: JSON schema, validation, and pipeline assembly.

A configuration round-trips losslessly through ``to_dict``/``from_dict``;
``config_hash`` is the sha256 of the canonical JSON (of a configuration
or of a hypothesis report).  Every value must have the JSON type of its
field's default, and every number must be finite.  Validation collects
every violation before failing so a bad file reports all problems at
once.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .age_discretization import age_average_initial, age_grid_problems, build_age_grid, regularize
from .diagnostics import catalogue_problems, tail_problems
from .errors import ConfigInvalid
from .model_spec import (
    ModelSpec,
    exponential_family,
    exponential_problems,
    smoothstep,
    tabulated_family,
    tabulated_function,
    tabulated_problems,
    validate_hypotheses,
)
from .solver_core import RunSetup
from .spatial_grid import SpatialGrid, box_problems

__all__ = [
    "ModelConfig",
    "DomainConfig",
    "InitialConfig",
    "TimeConfig",
    "DiagnosticsConfig",
    "OutputConfig",
    "RunConfig",
    "load_config",
    "parse_config",
    "config_hash",
    "build_model_spec",
    "hypothesis_report",
    "build_initial_data",
    "build_run_setup",
    "level_plan",
]


# the model functions a tables-family table may give (``tabulated_family``)
_TABLE_NAMES = ("lam", "b", "mu", "D", "E", "xi", "g")
# the most sample times T / sample_dt a run may ask for
MAX_SAMPLES = 1_000_000


@dataclass(frozen=True)
class ModelConfig:
    family: str = "exponential"
    m0: float = 1.0
    tau: float = 2.0
    mu: float = 0.3
    D0: float = 0.1
    theta: float = 2.0
    drift: str = "dprime"          # "dprime" or "none"
    xi0: float = 0.4
    xi_support: tuple = (0.2, 2.0)
    g0: Optional[float] = None     # default 1/tau
    tables: dict = field(default_factory=dict)  # name -> CSV path (tables family)


@dataclass(frozen=True)
class DomainConfig:
    dim: int = 1
    extents: tuple = (1.0,)
    cells: tuple = (128,)


@dataclass(frozen=True)
class InitialConfig:
    kind: str = "cosine_bump"      # or "zero"
    u_amp: float = 0.8
    u_age_scale: float = 0.5
    u_age_cut: tuple = (0.6, 1.0)
    u_cos_eps: float = 0.4
    u_cos_k: int = 1
    v_amp: float = 0.3
    v_cos_eps: float = 0.5
    v_cos_k: int = 1


@dataclass(frozen=True)
class TimeConfig:
    T: float = 2.0
    sample_dt: float = 0.02
    fixed_dt: Optional[float] = None


@dataclass(frozen=True)
class DiagnosticsConfig:
    tail_A: tuple = (2.0,)
    test_k_max: int = 2
    store_u: bool = True


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    write_snapshots: bool = False
    snapshot_stride: int = 10      # in units of sample_dt


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    alpha: float = 0.125
    a_max: float = 4.0
    domain: DomainConfig = field(default_factory=DomainConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    diagnostics: DiagnosticsConfig = field(default_factory=DiagnosticsConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    crossval_tolerance: float = 0.05

    def to_dict(self) -> dict:
        return _asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "RunConfig":
        return _from_dict(data)


def _asdict(obj) -> dict:
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            out[f.name] = _asdict(value)
        elif isinstance(value, tuple):
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


def _has_type_of(value, default) -> bool:
    # the JSON type of a field's default: numbers take ints and floats
    # that are finite as floats (json reads NaN, Infinity and integers
    # beyond the float range), counts ints only, no number a boolean; the
    # fields with a None default are optional numbers
    if default is None:
        return value is None or _has_type_of(value, 0.0)
    if isinstance(default, tuple):
        return isinstance(value, list) and all(_has_type_of(x, default[0]) for x in value)
    if isinstance(default, bool) or isinstance(value, bool):
        return type(value) is type(default)
    if isinstance(default, float):  # NaN fails the comparison too
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, type(default))


def _coerce_section(cls, data: dict, prefix: str, problems: list):
    fields = dataclasses.fields(cls)
    kwargs = {}
    for f in fields:
        if f.name not in data:
            continue
        value = data[f.name]
        default = f.default_factory() if f.default is dataclasses.MISSING else f.default
        if dataclasses.is_dataclass(default):
            if not isinstance(value, dict):
                problems.append(f"{prefix}{f.name}: must be an object")
                continue
            value = _coerce_section(type(default), value, f"{prefix}{f.name}.", problems)
        elif not _has_type_of(value, default):
            problems.append(f"{prefix}{f.name}: {json.dumps(value)} does not have the "
                            f"JSON type of the default {json.dumps(default)} "
                            "(numbers must be finite)")
            continue
        kwargs[f.name] = tuple(value) if isinstance(value, list) else value
    known = {f.name for f in fields}
    problems.extend(f"{prefix}{key}: unknown field" for key in data if key not in known)
    return cls(**kwargs)


def _from_dict(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigInvalid(["configuration root must be a JSON object"])
    problems: list = []
    cfg = _coerce_section(RunConfig, data, "", problems)
    problems.extend(_validate(cfg))
    if problems:
        raise ConfigInvalid(problems)
    return cfg


def _exponential_args(m: ModelConfig) -> dict:
    # the exponential family's parameters, by the names model_spec gives them
    return dict(m0=m.m0, tau=m.tau, mu_const=m.mu, D0=m.D0, theta=m.theta, xi0=m.xi0,
                xi_support=tuple(m.xi_support), g0=m.g0, drift=m.drift)


def _validate(cfg: RunConfig) -> list:
    p = []
    m = cfg.model
    # each owner's rules, under the section its fields sit in; the
    # catalogue's are judged on a box that keeps its own
    box = box_problems(cfg.domain.dim, cfg.domain.extents, cfg.domain.cells)
    owned = [("", age_grid_problems(cfg.alpha, cfg.a_max)), ("domain.", box),
             ("diagnostics.", tail_problems(cfg.diagnostics.tail_A, cfg.alpha))]
    if not box:
        owned.append(("diagnostics.",
                      catalogue_problems(cfg.diagnostics.test_k_max, cfg.domain.cells)))
    if m.family == "exponential":
        owned.append(("model.", exponential_problems(**_exponential_args(m))))
    elif m.family == "tables":
        owned.append(("model.", tabulated_problems(m.tau)))
        p += [f"model.tables.{name}: required for the tables family"
              for name in ("lam", "b", "mu", "D") if name not in m.tables]
    else:
        p.append(f"model.family: unknown model family {m.family!r}")
    p += [f"{prefix}{name}: {message}" for prefix, pairs in owned for name, message in pairs]
    if any(c < 8 for c in cfg.domain.cells):
        p.append("domain.cells: need at least 8 cells per axis")
    if cfg.time.T <= 0.0:
        p.append("time.T: must be positive")
    if cfg.time.sample_dt <= 0.0 or cfg.time.sample_dt > cfg.time.T:
        p.append("time.sample_dt: must be in (0, T]")
    elif cfg.time.T / cfg.time.sample_dt > MAX_SAMPLES:
        p.append(f"time.sample_dt: T / sample_dt must be at most {MAX_SAMPLES} samples")
    if cfg.time.fixed_dt is not None and cfg.time.fixed_dt <= 0.0:
        p.append("time.fixed_dt: must be positive when set")
    for name, path in m.tables.items():
        if name not in _TABLE_NAMES:
            p.append(f"model.tables.{name}: unknown table, must be one of "
                     f"{', '.join(_TABLE_NAMES)}")
        elif not (isinstance(path, str) and Path(path).is_file()):
            p.append(f"model.tables.{name}: {json.dumps(path)} names no existing file")
    if cfg.initial.kind not in ("cosine_bump", "zero"):
        p.append("initial.kind: must be 'cosine_bump' or 'zero'")
    ic = cfg.initial
    if abs(ic.u_cos_eps) > 1.0 or abs(ic.v_cos_eps) > 1.0:
        p.append("initial: cosine amplitudes must lie in [-1, 1]")
    for name in ("u_amp", "v_amp"):
        if getattr(ic, name) < 0.0:
            p.append(f"initial.{name}: must be nonnegative")
    if ic.u_age_scale <= 0.0:
        p.append("initial.u_age_scale: must be positive")
    if not (len(ic.u_age_cut) == 2 and ic.u_age_cut[0] < ic.u_age_cut[1]):
        p.append("initial.u_age_cut: must be an increasing pair")
    if cfg.output.snapshot_stride < 1:
        p.append("output.snapshot_stride: must be >= 1")
    return p


def load_config(path):
    """The JSON value of a configuration file, not yet validated
    (``RunConfig.from_dict`` validates it)."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # absent, unreadable, not JSON
        raise ConfigInvalid([f"config file {Path(path)} does not load: {exc}"]) from exc


def parse_config(path) -> RunConfig:
    """Load and validate a JSON configuration file."""
    return RunConfig.from_dict(load_config(path))


def config_hash(obj) -> str:
    """sha256 of the canonical JSON of ``obj.to_dict()``, for a
    ``RunConfig`` or a ``HypothesisReport``."""
    import hashlib  # here, not at the top: it loads OpenSSL, which only manifests need

    canonical = json.dumps(obj.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# pipeline assembly

def build_model_spec(cfg: RunConfig) -> ModelSpec:
    m = cfg.model
    if m.family == "exponential":
        return exponential_family(**_exponential_args(m))
    # tables family: two-column CSV files (abscissa, value), one per table
    funcs, problems = {}, []
    for name, path in m.tables.items():
        try:
            xs, ys = np.loadtxt(path, delimiter=",", ndmin=2).T
            funcs[name] = tabulated_function(xs, ys)
        except (OSError, ValueError) as exc:
            problems.append(f"model.tables.{name}: {path} does not load: {exc}")
    if problems:
        raise ConfigInvalid(problems)
    return tabulated_family(funcs, tau=m.tau, g0=m.g0, r_max=max(8.0, 2.0 / cfg.alpha))


def _space_profile(sgrid: SpatialGrid, eps: float, k: int) -> np.ndarray:
    """The product over the axes of 1 + eps cos(k pi x / L) at the cell
    centres, in the grid's shape.  Each axis' factor is taken on that
    axis' centres alone (``axis_centers``) and the factors are multiplied
    from 1 in axis order, (1 f_0) f_1, the order of a cell-by-cell
    product, so a profile takes one cosine per centre of each axis, not
    one per cell."""
    if eps == 0.0 or k == 0:
        return np.ones(sgrid.shape)
    out = np.ones(())
    for ax in range(sgrid.dim):
        x = sgrid.axis_centers(ax)
        out = np.multiply.outer(out, 1.0 + eps * np.cos(k * math.pi * x / sgrid.extents[ax]))
    return out


def build_initial_data(cfg: RunConfig, sgrid: SpatialGrid):
    """Initial swarmer data, as (age_profile, space), and swimmer field.

    The swarmer data are separable: ``age_profile`` is the amplitude
    times the age profile, taken over an array of ages, and ``space`` is
    the space profile in the grid's shape, evaluated once.  Every space
    profile (``space`` and ``v0``'s) is itself a product of one factor
    per axis (``_space_profile``), so no array of cell centres is built.
    Returns ``(age_profile, space, v0)``.
    """
    ic = cfg.initial
    if ic.kind == "zero":
        return np.zeros_like, np.zeros(sgrid.shape), np.zeros(sgrid.shape)

    lo, hi = ic.u_age_cut

    def age_profile(a):
        age = np.exp(-a / ic.u_age_scale) * (1.0 - smoothstep((a - lo) / (hi - lo)))
        return ic.u_amp * age

    u_space = _space_profile(sgrid, ic.u_cos_eps, ic.u_cos_k)
    v0 = ic.v_amp * _space_profile(sgrid, ic.v_cos_eps, ic.v_cos_k)
    return age_profile, u_space, v0


def hypothesis_report(cfg: RunConfig, spec: ModelSpec):
    """The ``HypothesisReport`` of ``spec`` over the regularization box
    [0, 1/alpha] and the configured age range, at the one resolution
    every command judges at: ``validate`` and the integrating commands
    pass or fail the same data."""
    return validate_hypotheses(spec, R_max=1.0 / cfg.alpha, A_max=cfg.a_max, n_samples=256)


def build_run_setup(cfg: RunConfig, check_hypotheses: bool = True):
    """Assemble every pipeline object for a run.

    Returns (RunSetup, HypothesisReport or None).  The hypotheses are
    judged by ``hypothesis_report``, which also rejects fully degenerate
    diffusion.  A failing report comes back with no RunSetup: nothing,
    the age grid included, is built from data that fail the hypotheses.
    """
    spec = build_model_spec(cfg)
    report = None
    if check_hypotheses:
        report = hypothesis_report(cfg, spec)
        if not report.all_passed:
            return None, report
    sgrid = SpatialGrid(extents=cfg.domain.extents, cells=cfg.domain.cells)
    agegrid = build_age_grid(spec, cfg.alpha, cfg.a_max)
    reg = regularize(spec, cfg.alpha)
    age_profile, u_space, v0 = build_initial_data(cfg, sgrid)
    u0 = age_average_initial(age_profile, u_space, agegrid)
    setup = RunSetup(
        spec=spec, agegrid=agegrid, reg=reg, sgrid=sgrid,
        u0=u0, v0=v0, T=cfg.time.T, sample_dt=cfg.time.sample_dt,
        tail_A=tuple(cfg.diagnostics.tail_A), fixed_dt=cfg.time.fixed_dt,
        store_u=cfg.diagnostics.store_u,
    )
    return setup, report


def level_plan(cfg: RunConfig, levels: int, cells_factor: int) -> list:
    """The configurations of a refinement study: level k has alpha/2^k and
    cells_factor^k times the configured cells per axis.  ``sweep`` uses
    factor 2, so every level's mesh refines the one before it;
    ``crossval`` keeps the mesh, factor 1."""

    def level(k):
        cells = tuple(c * cells_factor**k for c in cfg.domain.cells)
        return dataclasses.replace(cfg, alpha=cfg.alpha / 2.0**k,
                                   domain=dataclasses.replace(cfg.domain, cells=cells))
    return [level(k) for k in range(levels)]
