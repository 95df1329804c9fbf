"""Spans around the public calls of each swarmpde module, from outside it.

The traced run replaces, for the duration of a ``with Tracer(...)``
block, each name a caller looks up (``solver_core.div_flux`` rather than
``spatial_grid.div_flux``, ``cli.run``, ``cli.diag.weak_residual``) with
a wrapper that records a span: its name, the span that called it, its
duration and its self time (duration minus the time of the spans it
called).  Spans are kept in memory as aggregates per (caller, name) edge.

A hooked name that no longer exists is recorded in ``Tracer.missing``
and every metric that needs only missing spans is reported as absent
(``None``) instead of raising, so refactors that rename or merge
functions leave the benchmark running.
"""

from __future__ import annotations

import importlib
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Hook:
    owner: str                 # dotted path below the swarmpde package
    attr: str                  # the name the caller looks up on ``owner``
    span: str                  # "<module>.<function>" the span is booked to
    size: Optional[Callable] = None   # args -> a work size recorded with the span


# The first owner component is a swarmpde module; later components are
# attributes (a class, or a module the caller imported under an alias).
HOOKS = (
    Hook("cli", "run", "solver_core.run", lambda a: a[0].u0.nbytes),
    Hook("reduced_system", "run", "solver_core.run", lambda a: a[0].u0.nbytes),
    Hook("solver_core", "step", "solver_core.step", lambda a: a[0].u.size),
    Hook("solver_core", "stable_dt", "solver_core.stable_dt"),
    Hook("solver_core", "positivity_dt", "solver_core.positivity_dt"),
    Hook("solver_core", "div_flux", "spatial_grid.div_flux"),
    Hook("solver_core", "laplacian", "spatial_grid.laplacian"),
    Hook("diagnostics", "laplacian", "spatial_grid.laplacian"),
    Hook("age_discretization.RegularizedModel", "D_alpha", "age_discretization.D_alpha"),
    Hook("age_discretization.RegularizedModel", "E_alpha", "age_discretization.E_alpha"),
    Hook("age_discretization.RegularizedModel", "xi_alpha", "age_discretization.xi_alpha"),
    Hook("diagnostics.DiagnosticsRecorder", "sample", "diagnostics.sample"),
    Hook("diagnostics.DiagnosticsRecorder", "finalize", "diagnostics.finalize"),
    Hook("cli.diag", "envelope_report", "diagnostics.envelope_report"),
    Hook("cli.diag", "weak_residual", "diagnostics.weak_residual"),
    Hook("reduced_system", "run_reduced", "reduced_system.run_reduced"),
    Hook("cli.config_mod", "build_run_setup", "config.build_run_setup"),
    Hook("config", "age_average_initial", "age_discretization.age_average_initial"),
    Hook("config", "validate_hypotheses", "model_spec.validate_hypotheses"),
    Hook("model_spec", "estimate_kappas", "model_spec.estimate_kappas"),
    Hook("diagnostics", "estimate_kappas", "model_spec.estimate_kappas"),
    Hook("diagnostics.DiagnosticsRecord", "to_csv", "cli.write"),
    Hook("cli", "field_to_csv", "cli.write"),
    Hook("cli", "field_to_binary", "cli.write"),
)

# the untraced run counts solver steps only, for the pinned-dt check
STEP_HOOKS = tuple(h for h in HOOKS if h.span == "solver_core.step")

_COEFFS = ("D_alpha", "E_alpha", "xi_alpha")


def _resolve(owner: str):
    first, *rest = owner.split(".")
    obj = importlib.import_module(f"swarmpde.{first}")
    for name in rest:
        obj = getattr(obj, name)
    return obj


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.edges = {}       # (caller span or None, span) -> [calls, total_s, self_s]
        self.sizes = {}       # span -> [sum, max] of the hook's work size
        self.present = set()  # spans with at least one installed hook
        self.missing = []     # "owner.attr" of hooks that could not be installed
        self._stack = []
        self._installed = []

    def _wrap(self, fn, span: str, size):
        stack, edges, sizes = self._stack, self.edges, self.sizes

        def wrapper(*args, **kwargs):
            if size is not None:
                try:
                    n = size(args)
                except (AttributeError, IndexError, TypeError):
                    n = None
                acc = sizes.setdefault(span, [0, 0])
                if n is None:
                    acc[0] = acc[1] = None
                elif acc[0] is not None:
                    acc[0] += n
                    acc[1] = max(acc[1], n)
            caller = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = edges.get((caller, span))
                if rec is None:
                    rec = edges[(caller, span)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        for hook in self.hooks:
            try:
                owner = _resolve(hook.owner)
                original = getattr(owner, hook.attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{hook.owner}.{hook.attr}")
                continue
            own = hook.attr in vars(owner)
            setattr(owner, hook.attr, self._wrap(original, hook.span, hook.size))
            self._installed.append((owner, hook.attr, original, own))
            self.present.add(hook.span)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()
        return False

    # -- aggregates -----------------------------------------------------

    def _sum(self, span: str, col: int):
        if span not in self.present:
            return None
        return sum(rec[col] for (_, s), rec in self.edges.items() if s == span)

    def calls(self, span: str):
        return self._sum(span, 0)

    def total_s(self, span: str):
        return self._sum(span, 1)

    def self_s(self, span: str):
        return self._sum(span, 2)

    def size(self, span: str, which: int):
        if span not in self.present:
            return None
        return self.sizes.get(span, [0, 0])[which]

    def table(self) -> list:
        """Rows (caller, span, calls, total_s, self_s), slowest self time first."""
        rows = [(c or "-", s, *rec) for (c, s), rec in self.edges.items()]
        return sorted(rows, key=lambda r: -r[4])


def _add(*values):
    present = [v for v in values if v is not None]
    return sum(present) if present else None


def _div(num, den, scale=1.0):
    if num is None or not den:
        return None
    return scale * num / den


# name -> (unit, better); the traced run emits exactly these
PER_LAYER = {
    "solver_core.steps": ("count", "lower"),
    "solver_core.run_s": ("s", "lower"),
    "solver_core.ms_per_step": ("ms", "lower"),
    "solver_core.cell_bin_updates_per_s": ("1/s", "higher"),
    "solver_core.dt_bound_s": ("s", "lower"),
    "solver_core.dt_bound_calls_per_step": ("calls/step", "lower"),
    "solver_core.step_self_s": ("s", "lower"),
    "solver_core.u_bytes": ("bytes_computed", "lower"),
    "age_discretization.coeff_calls_per_step": ("calls/step", "lower"),
    "age_discretization.D_alpha_calls_per_step": ("calls/step", "lower"),
    "age_discretization.E_alpha_calls_per_step": ("calls/step", "lower"),
    "age_discretization.xi_alpha_calls_per_step": ("calls/step", "lower"),
    "age_discretization.coeff_s": ("s", "lower"),
    "age_discretization.age_average_initial_s": ("s", "lower"),
    "spatial_grid.div_flux_s": ("s", "lower"),
    "spatial_grid.div_flux_calls": ("count", "lower"),
    "spatial_grid.laplacian_s": ("s", "lower"),
    "diagnostics.sample_s": ("s", "lower"),
    "diagnostics.samples": ("count", "lower"),
    "diagnostics.finalize_s": ("s", "lower"),
    "diagnostics.envelope_report_s": ("s", "lower"),
    "diagnostics.weak_residual_s": ("s", "lower"),
    "diagnostics.weak_residual_calls": ("count", "lower"),
    "reduced_system.run_reduced_s": ("s", "lower"),
    "config.build_run_setup_s": ("s", "lower"),
    "model_spec.validate_hypotheses_s": ("s", "lower"),
    "model_spec.estimate_kappas_calls": ("count", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_frac": ("1", "lower"),
}


def layer_metrics(tr: Tracer, bytes_written: int) -> dict:
    """Per-layer metrics of one traced invocation; None marks an absent one."""
    steps = tr.calls("solver_core.step")
    run_s = tr.total_s("solver_core.run")
    coeff_calls = {c: tr.calls(f"age_discretization.{c}") for c in _COEFFS}
    m = {
        "solver_core.steps": steps,
        "solver_core.run_s": run_s,
        "solver_core.ms_per_step": _div(run_s, steps, 1e3),
        "solver_core.cell_bin_updates_per_s":
            _div(tr.size("solver_core.step", 0), run_s),
        "solver_core.dt_bound_s": _add(tr.total_s("solver_core.stable_dt"),
                                       tr.total_s("solver_core.positivity_dt")),
        "solver_core.dt_bound_calls_per_step": _div(
            _add(tr.calls("solver_core.stable_dt"),
                 tr.calls("solver_core.positivity_dt")), steps),
        "solver_core.step_self_s": tr.self_s("solver_core.step"),
        "solver_core.u_bytes": tr.size("solver_core.run", 1),
        "age_discretization.coeff_calls_per_step": _div(_add(*coeff_calls.values()), steps),
        "age_discretization.coeff_s": _add(*(tr.total_s(f"age_discretization.{c}")
                                             for c in _COEFFS)),
        "age_discretization.age_average_initial_s":
            tr.total_s("age_discretization.age_average_initial"),
        "spatial_grid.div_flux_s": tr.total_s("spatial_grid.div_flux"),
        "spatial_grid.div_flux_calls": tr.calls("spatial_grid.div_flux"),
        "spatial_grid.laplacian_s": tr.total_s("spatial_grid.laplacian"),
        "diagnostics.sample_s": tr.total_s("diagnostics.sample"),
        "diagnostics.samples": tr.calls("diagnostics.sample"),
        "diagnostics.finalize_s": tr.total_s("diagnostics.finalize"),
        "diagnostics.envelope_report_s": tr.total_s("diagnostics.envelope_report"),
        "diagnostics.weak_residual_s": tr.total_s("diagnostics.weak_residual"),
        "diagnostics.weak_residual_calls": tr.calls("diagnostics.weak_residual"),
        "reduced_system.run_reduced_s": tr.total_s("reduced_system.run_reduced"),
        "config.build_run_setup_s": tr.total_s("config.build_run_setup"),
        "model_spec.validate_hypotheses_s": tr.total_s("model_spec.validate_hypotheses"),
        "model_spec.estimate_kappas_calls": tr.calls("model_spec.estimate_kappas"),
        "cli.write_s": tr.total_s("cli.write"),
        "cli.bytes_written": bytes_written,
    }
    for c, n in coeff_calls.items():
        m[f"age_discretization.{c}_calls_per_step"] = _div(n, steps)
    return m


def median_metrics(per_invocation: list) -> dict:
    """Median of each metric over traced invocations; absent if ever absent.

    A metric that reads the same on every invocation, as exact counts do,
    keeps its value and type.
    """
    out = {}
    for name in per_invocation[0]:
        values = [m[name] for m in per_invocation]
        if any(v is None for v in values):
            out[name] = None
        elif all(v == values[0] for v in values):
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out
