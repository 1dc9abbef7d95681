"""Spans recorded from outside the package, and the per-layer metrics built on them.

``install`` wraps public functions of every ``splitfv`` module. A wrapped
function is replaced in every module namespace that bound it at import
(``from .flux import eval_flux`` makes a second binding), found by
identity, so each call site records a span. Methods and properties are
wrapped on their class. ``uninstall`` puts every original back.

A span is (name, start, end, parent, operation id, size). Spans are kept
in flat arrays in memory and written out once, when the run ends. ``size``
is the amount of work a call carried where that is known (cells,
interfaces, bytes) and 0 otherwise.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

MARK = "__perfbench_span__"


class SpanLog:
    """In-memory span store; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.size = array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op_id = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self.size.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, end: float, size: float = 0.0) -> None:
        self._stack.pop()
        self.end[idx] = end
        self.size[idx] = size

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; the spans inside carry its id."""
        self._op_id = op_id
        idx = self.open(self.name_id("bench.operation"))
        try:
            yield
        finally:
            self.close(idx, time.perf_counter())
            self._op_id = -1

    def table(self) -> SpanTable:
        return SpanTable(
            names=list(self.names),
            name=np.frombuffer(self.name, dtype=np.int32).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            end=np.frombuffer(self.end, dtype=np.float64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
            op=np.frombuffer(self.op, dtype=np.int32).copy(),
            size=np.frombuffer(self.size, dtype=np.float64).copy(),
            counts=dict(self.counts),
        )


# =============================================================
# What gets wrapped
# =============================================================

def _n_cells_of_record(args, result, counts):
    return float(args[1].field_after.grid.n_cells)


def _interfaces(args, result, counts):
    return float(max(np.size(args[1]), np.size(args[2])))


def _cells_solved(args, result, counts):
    return float(np.size(args[0]))


def _entropy_checked(args, result, counts):
    if result.passed:
        counts["diagnostics.entropy.passed"] = counts.get("diagnostics.entropy.passed", 0) + 1
    return float(args[0].field_after.grid.n_cells)


def _bytes_written(args, result, counts):
    return float(os.path.getsize(args[0]))


@dataclass(frozen=True)
class Target:
    """A function ``module.attr``, or a method ``module.Class.attr``.

    ``span`` is the span name, or a callable of the call's arguments for
    functions whose calls fall into classes (the flux kind of eval_flux).
    ``size`` maps (args, result, counts) to the work the call carried.
    """

    module: str
    attr: str
    span: str | Callable
    size: Callable | None = None
    cls: str | None = None


def _flux_span(args) -> str:
    return f"flux.eval_flux.{args[0].kind}"


TARGETS = (
    Target("mesh", "__post_init__", "mesh.CellField", cls="CellField"),
    Target("mesh", "cell_centers", "mesh.cell_centers", cls="Grid1D"),
    Target("mesh", "total_variation", "mesh.total_variation"),
    Target("mesh", "linf_norm", "mesh.linf_norm"),
    Target("mesh", "project_initial", "mesh.project_initial"),
    Target("source", "implicit_source_step", "source.implicit_source_step",
           _cells_solved),
    Target("source", "_bracketed_rescue", "source.bracketed_rescue"),
    Target("source", "eval", "source.SourceDescriptor.eval", cls="SourceDescriptor"),
    Target("source", "verify_source_properties", "source.verify_source_properties"),
    Target("flux", "eval_flux", _flux_span, _interfaces),
    Target("flux", "critical_points", "flux.critical_points"),
    Target("flux", "flux_lipschitz", "flux.flux_lipschitz"),
    Target("flux", "max_dt", "flux.max_dt"),
    Target("flux", "check_monotone", "flux.check_monotone"),
    Target("splitting", "source_stage", "splitting.source_stage"),
    Target("splitting", "transport_stage", "splitting.transport_stage"),
    Target("splitting", "make_step_record", "splitting.make_step_record"),
    Target("splitting", "march", "splitting.march"),
    Target("splitting", "run", "splitting.run"),
    Target("splitting", "record_step", "splitting.record_step",
           _n_cells_of_record, cls="RunReport"),
    Target("factory", "run_factory", "factory.run_factory"),
    Target("factory", "wip", "factory.wip"),
    Target("factory", "transport_descriptor", "factory.transport_descriptor"),
    Target("diagnostics", "entropy_residual_max",
           "diagnostics.entropy_residual_max", _entropy_checked),
    Target("diagnostics", "check_linf_bound", "diagnostics.check_linf_bound"),
    Target("diagnostics", "check_tv_bound", "diagnostics.check_tv_bound"),
    Target("verify", "refinement_study", "verify.refinement_study"),
    Target("verify", "solve_on_grid", "verify.solve_on_grid"),
    Target("cli", "load_config", "cli.load_config"),
    Target("cli", "build_setup", "cli.build_setup"),
    Target("cli", "_write_csv", "cli.write_csv", _bytes_written),
)

FLUX_KINDS = ("upwind-linear", "godunov", "lax-friedrichs", "engquist-osher")

_LINE_SPANS = frozenset({
    "cli.load_config", "cli.build_setup", "cli.write_csv",
    "factory.run_factory", "factory.wip", "factory.transport_descriptor",
    "splitting.march", "splitting.source_stage", "splitting.transport_stage",
    "splitting.make_step_record", "splitting.record_step",
    "source.implicit_source_step", "source.SourceDescriptor.eval",
    "flux.flux_lipschitz", "mesh.CellField", "mesh.cell_centers",
    "mesh.total_variation", "mesh.linf_norm",
})

# Spans each workload must record at least once; a zero means a call site
# was not wrapped, which would otherwise read as a free layer.
EXPECTED_SPANS = {
    "line-simulate": _LINE_SPANS | {"flux.eval_flux.upwind-linear"},
    "line-fine": _LINE_SPANS | {"flux.eval_flux.upwind-linear"},
    "line-verify": _LINE_SPANS | {
        "flux.eval_flux.godunov", "flux.critical_points",
        "diagnostics.entropy_residual_max", "diagnostics.check_linf_bound",
        "diagnostics.check_tv_bound", "flux.check_monotone",
        "source.verify_source_properties",
    },
    "refine": frozenset({
        "cli.load_config", "cli.write_csv", "verify.refinement_study",
        "verify.solve_on_grid", "splitting.run", "splitting.march",
        "flux.max_dt", "splitting.source_stage", "splitting.transport_stage",
        "splitting.make_step_record", "splitting.record_step",
        "mesh.project_initial", "mesh.CellField", "mesh.cell_centers",
        "mesh.total_variation", "mesh.linf_norm", "source.implicit_source_step",
        "source.SourceDescriptor.eval", "flux.flux_lipschitz",
        "flux.critical_points", "diagnostics.entropy_residual_max",
    } | {f"flux.eval_flux.{kind}" for kind in FLUX_KINDS}),
}


# =============================================================
# Installing and removing wrappers
# =============================================================

def _wrap(log: SpanLog, target: Target, fn: Callable) -> Callable:
    size_of = target.size
    if callable(target.span):
        span_of = target.span
        ids: dict[str, int] = {}

        def name_id(args) -> int:
            name = span_of(args)
            if name not in ids:
                ids[name] = log.name_id(name)
            return ids[name]
    else:
        fixed = log.name_id(target.span)

        def name_id(args) -> int:
            return fixed

    def wrapper(*args, **kwargs):
        idx = log.open(name_id(args))
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            log.close(idx, time.perf_counter())
            raise
        end = time.perf_counter()
        log.close(idx, end, size_of(args, result, log.counts) if size_of else 0.0)
        return result

    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__wrapped__ = fn
    setattr(wrapper, MARK, True)
    return wrapper


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "splitfv" or name.startswith("splitfv."))]


class Installation:
    """Wrappers in place; ``uninstall`` restores every original binding."""

    def __init__(self) -> None:
        self._restore: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def install(log: SpanLog) -> Installation:
    """Wrap every target in every ``splitfv`` namespace that binds it."""
    inst = Installation()
    try:
        for target in TARGETS:
            _install_one(inst, log, target)
    except BaseException:
        inst.uninstall()
        raise
    return inst


def _install_one(inst: Installation, log: SpanLog, target: Target) -> None:
    home = sys.modules[f"splitfv.{target.module}"]
    if target.cls is not None:
        cls = getattr(home, target.cls)
        original = cls.__dict__[target.attr]
        if isinstance(original, property):
            wrapped = property(_wrap(log, target, original.fget))
        else:
            wrapped = _wrap(log, target, original)
        inst.set(cls, target.attr, wrapped)
        return
    original = getattr(home, target.attr)
    wrapped = _wrap(log, target, original)
    for mod in _package_modules():
        for key, value in list(vars(mod).items()):
            if value is original:
                inst.set(mod, key, wrapped)


def installed_wrappers() -> list[str]:
    """Names of span wrappers currently bound anywhere in the package."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__.startswith("splitfv"):
                for attr, member in vars(value).items():
                    fn = member.fget if isinstance(member, property) else member
                    if hasattr(fn, MARK):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


# =============================================================
# Analysis
# =============================================================

@dataclass
class SpanTable:
    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    size: np.ndarray
    counts: dict

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Each span's duration minus the part its child spans cover.

        Spans of one thread nest, so the covered part is the sum of the
        children's durations.
        """
        return self_times(self.parent, self.duration)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def under(self, *names: str) -> np.ndarray:
        """Spans with an ancestor named in ``names``."""
        return has_ancestor(self.parent, self.mask(*names))

    def count(self, *names: str) -> int:
        return int(self.mask(*names).sum())

    def total(self, *names: str) -> float:
        return float(self.duration[self.mask(*names)].sum())

    def total_size(self, *names: str) -> float:
        return float(self.size[self.mask(*names)].sum())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=self.name,
                 start=self.start, end=self.end, parent=self.parent,
                 op=self.op, size=self.size)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


def has_ancestor(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """For each span, whether some ancestor is marked.

    A parent always opens before its children, so one pass per tree level
    settles the flags; stop when a pass changes nothing.
    """
    flag = np.zeros(parent.size, dtype=bool)
    rooted = parent >= 0
    p = parent[rooted]
    while True:
        new = flag.copy()
        new[rooted] = marked[p] | flag[p]
        if np.array_equal(new, flag):
            return flag
        flag = new


def check_coverage(table: SpanTable, workload: str) -> list[str]:
    """Expected spans that never occurred on this workload."""
    return sorted(n for n in EXPECTED_SPANS[workload] if table.count(n) == 0)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# (name, unit, better). Counts and times are per accepted step unless the
# name says per call (``*.s`` is seconds per benchmark operation).
PER_LAYER = (
    ("setup.import_s", "s", "lower"),
    ("setup.scipy_import_s", "s", "lower"),
    ("setup.first_s", "s", "lower"),
    ("mesh.CellField.per_step", "count", "lower"),
    ("mesh.total_variation.per_step", "count", "lower"),
    ("mesh.self_us_per_step", "us", "lower"),
    ("mesh.ns_per_cell_step", "ns", "lower"),
    ("source.implicit_source_step.us_per_step", "us", "lower"),
    ("source.implicit_source_step.ns_per_cell_step", "ns", "lower"),
    ("source.sink_evals_per_step", "count", "lower"),
    ("source.rescue_ratio", "1", "lower"),
    ("flux.eval_flux.calls_per_step", "count", "lower"),
    ("flux.eval_flux.upwind-linear.ns_per_interface", "ns", "lower"),
    ("flux.eval_flux.godunov.ns_per_interface", "ns", "lower"),
    ("flux.eval_flux.lax-friedrichs.ns_per_interface", "ns", "lower"),
    ("flux.eval_flux.engquist-osher.ns_per_interface", "ns", "lower"),
    ("flux.critical_points.calls_per_step", "count", "lower"),
    ("flux.critical_points.us_per_step", "us", "lower"),
    ("splitting.transport_stage.self_us_per_step", "us", "lower"),
    ("splitting.record_step.us_per_step", "us", "lower"),
    ("splitting.make_step_record.us_per_step", "us", "lower"),
    ("splitting.march.self_us_per_step", "us", "lower"),
    ("splitting.step_us.p50", "us", "lower"),
    ("splitting.step_us.p99", "us", "lower"),
    ("splitting.step_us.count", "count", "higher"),
    ("factory.wip.calls_per_step", "count", "lower"),
    ("factory.transport_descriptor.us_per_step", "us", "lower"),
    ("factory.run_factory.self_us_per_step", "us", "lower"),
    ("diagnostics.entropy_residual_max.us_per_step", "us", "lower"),
    ("diagnostics.entropy_residual_max.ns_per_cell_step", "ns", "lower"),
    ("diagnostics.entropy.eval_flux_calls_per_step", "count", "lower"),
    ("diagnostics.entropy.passed_ratio", "1", "higher"),
    ("diagnostics.envelopes_s", "s", "lower"),
    ("verify.solve_on_grid.s", "s", "lower"),
    ("verify.project_initial.s", "s", "lower"),
    ("cli.config_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.verify_checks_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans_per_op", "count", "lower"),
)

MESH_SPANS = ("mesh.CellField", "mesh.cell_centers", "mesh.total_variation",
              "mesh.linf_norm", "mesh.project_initial")


def layer_metrics(t: SpanTable) -> dict[str, float]:
    """Per-layer metrics of one traced run, setup and overhead excluded.

    Per-step values divide by the steps the run accepted (record_step
    calls); per-cell-step values by the sum of n_cells over those steps.
    Entropy figures divide by the steps actually checked.
    """
    ops = t.count("bench.operation")
    steps = t.count("splitting.record_step")
    cell_steps = t.total_size("splitting.record_step")
    self_t = t.self_time()
    flux_calls = tuple(f"flux.eval_flux.{k}" for k in FLUX_KINDS)

    def self_total(*names):
        return float(self_t[t.mask(*names)].sum())

    def per_step_us(seconds):
        return _ratio(seconds, steps) * 1e6

    mesh_self = self_total(*MESH_SPANS)
    src_time = t.total("source.implicit_source_step")
    sink = t.mask("source.SourceDescriptor.eval") & t.under("source.implicit_source_step")
    checked = t.count("diagnostics.entropy_residual_max")

    rec = np.flatnonzero(t.mask("splitting.record_step"))
    same_run = t.parent[rec][1:] == t.parent[rec][:-1]
    step_us = np.diff(t.start[rec])[same_run] * 1e6

    m = {
        "mesh.CellField.per_step": _ratio(t.count("mesh.CellField"), steps),
        "mesh.total_variation.per_step": _ratio(t.count("mesh.total_variation"), steps),
        "mesh.self_us_per_step": per_step_us(mesh_self),
        "mesh.ns_per_cell_step": _ratio(mesh_self, cell_steps) * 1e9,
        "source.implicit_source_step.us_per_step": per_step_us(src_time),
        "source.implicit_source_step.ns_per_cell_step": _ratio(src_time, cell_steps) * 1e9,
        "source.sink_evals_per_step": _ratio(int(sink.sum()), steps),
        "source.rescue_ratio": _ratio(t.count("source.bracketed_rescue"),
                                      t.total_size("source.implicit_source_step")),
        "flux.eval_flux.calls_per_step": _ratio(t.count(*flux_calls), steps),
        "flux.critical_points.calls_per_step": _ratio(t.count("flux.critical_points"), steps),
        "flux.critical_points.us_per_step": per_step_us(t.total("flux.critical_points")),
        "splitting.transport_stage.self_us_per_step":
            per_step_us(self_total("splitting.transport_stage")),
        "splitting.record_step.us_per_step": per_step_us(t.total("splitting.record_step")),
        "splitting.make_step_record.us_per_step":
            per_step_us(t.total("splitting.make_step_record")),
        "splitting.march.self_us_per_step": per_step_us(self_total("splitting.march")),
        "splitting.step_us.p50": percentile(step_us, 50),
        "splitting.step_us.p99": percentile(step_us, 99),
        "splitting.step_us.count": float(step_us.size),
        "factory.wip.calls_per_step": _ratio(t.count("factory.wip"), steps),
        "factory.transport_descriptor.us_per_step":
            per_step_us(t.total("factory.transport_descriptor")),
        "factory.run_factory.self_us_per_step": per_step_us(self_total("factory.run_factory")),
        "diagnostics.entropy_residual_max.us_per_step":
            _ratio(t.total("diagnostics.entropy_residual_max"), checked) * 1e6,
        "diagnostics.entropy_residual_max.ns_per_cell_step":
            _ratio(t.total("diagnostics.entropy_residual_max"),
                   t.total_size("diagnostics.entropy_residual_max")) * 1e9,
        "diagnostics.entropy.eval_flux_calls_per_step":
            _ratio(int((t.mask(*flux_calls)
                        & t.under("diagnostics.entropy_residual_max")).sum()), checked),
        "diagnostics.entropy.passed_ratio":
            _ratio(t.counts.get("diagnostics.entropy.passed", 0), checked),
        "diagnostics.envelopes_s": _ratio(t.total("diagnostics.check_linf_bound",
                                                  "diagnostics.check_tv_bound"), ops),
        "verify.solve_on_grid.s": _ratio(t.total("verify.solve_on_grid"), ops),
        "verify.project_initial.s": _ratio(t.total("mesh.project_initial"), ops),
        "cli.config_s": _ratio(t.total("cli.load_config", "cli.build_setup"), ops),
        "cli.write_s": _ratio(t.total("cli.write_csv"), ops),
        "cli.bytes_written": _ratio(t.total_size("cli.write_csv"), ops),
        "cli.verify_checks_s": _ratio(t.total("flux.check_monotone",
                                              "source.verify_source_properties"), ops),
        "trace.spans_per_op": _ratio(t.name.size, ops),
    }
    for kind in FLUX_KINDS:
        name = f"flux.eval_flux.{kind}"
        m[f"{name}.ns_per_interface"] = _ratio(t.total(name), t.total_size(name)) * 1e9
    return m
