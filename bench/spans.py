"""Spans around the public functions of each su11otto layer.

`Instrumentation` swaps every listed function for a wrapper that records a
span (name, start, end, parent, exception) in memory.  A function is
replaced in every loaded su11otto module that holds it, because callers
bind names at import (`gate` imports `unitary_product`, `cli` imports
`works_and_heats` and `write_csv`, ...).  `BlockOperator` and
`FockWorkspace` methods are replaced on the class.  `uninstall` puts every
original object back; `restored` confirms it.

Self time is a span's duration minus the durations of its direct children.
Spans are recorded from one thread; the CLI runs the oracle serially unless
`--threads` is given, and the benchmark never gives it.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# (span name, module, attribute); "Class.attr" targets a class attribute
TARGETS = (
    ("cli.cycle", "su11otto.cli", "cmd_cycle"),
    ("cli.figure3", "su11otto.cli", "cmd_figure3"),
    ("cli.figure4", "su11otto.cli", "cmd_figure4"),
    ("cli.snl", "su11otto.cli", "cmd_snl"),
    ("cli.circuit", "su11otto.cli", "cmd_circuit"),
    ("cli.oracle", "su11otto.cli", "cmd_oracle"),
    ("config.load", "su11otto.config", "load_config"),
    ("fock.workspace", "su11otto.fock", "FockWorkspace.__init__"),
    ("fock.eigh", "su11otto.fock", "FockWorkspace.kx_eig"),
    ("fock.unitary", "su11otto.fock", "unitary_product"),
    ("fock.unitary", "su11otto.fock", "unitary_equiv"),
    ("fock.unitary", "su11otto.fock", "evolution_endpoint"),
    ("fock.guard", "su11otto.fock", "evolved_boundary_occupancy"),
    ("fock.guard", "su11otto.fock", "boundary_occupancy"),
    ("fock.matmul", "su11otto.fock", "BlockOperator.__matmul__"),
    ("fock.defect", "su11otto.fock", "BlockOperator.unitarity_defect"),
    ("fock.expect", "su11otto.fock", "expect"),
    ("fock.variance", "su11otto.fock", "variance"),
    ("fock.thermal", "su11otto.fock", "thermal_state"),
    ("gate.run", "su11otto.gate", "run_gate"),
    ("metrology.sensitivity", "su11otto.metrology", "sensitivity"),
    ("metrology.solve", "su11otto.metrology", "solve_zeta_snl"),
    ("metrology.minimize", "su11otto.metrology", "minimize_sensitivity"),
    ("metrology.range", "su11otto.metrology", "supersensitivity_range"),
    ("cycle.works_and_heats", "su11otto.cycle", "works_and_heats"),
    ("cycle.other", "su11otto.cycle", "efficiency"),
    ("cycle.other", "su11otto.cycle", "carnot"),
    ("cycle.other", "su11otto.cycle", "otto_ideal"),
    *(("core", "su11otto.core", name) for name in (
        "chi_of", "theta_of", "chi_from", "theta_from", "angles_from", "n_out",
        "chi_max_from_params", "chi_max", "phi_max",
    )),
    ("circuit.scenario", "su11otto.circuit", "circuit_scenario"),
    ("circuit.bogoliubov", "su11otto.circuit", "bogoliubov"),
    ("circuit.other", "su11otto.circuit", "coupling_coefficients"),
    ("circuit.other", "su11otto.circuit", "map_to_protocol"),
    ("gammafn.log_gamma", "su11otto.gammafn", "complex_log_gamma"),
    ("reports.write", "su11otto.reports", "write_csv"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "error", "info")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.error = None
        self.info = None


class Tracer:
    """In-memory span store with a stack that links each span to its caller."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, func, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, perf_counter(), stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]


def _matmul_info(args, kwargs, result):
    """Computed (flop, bytes) of one block product, from block shapes and dtypes."""
    left, right = args
    flop = nbytes = 0
    diag = left.diags if left.diags is not None else right.diags
    dense = right.blocks if left.diags is not None else left.blocks
    for i, out in enumerate(result.blocks):
        m = out.shape[0]
        cplx = out.dtype.kind == "c"
        if diag is not None:
            both_complex = cplx and diag[i].dtype.kind == "c" and dense[i].dtype.kind == "c"
            flop += (6 if both_complex else 2) * m * m
            nbytes += diag[i].nbytes + dense[i].nbytes + out.nbytes
        else:
            flop += (8 if cplx else 2) * m**3
            nbytes += left.blocks[i].nbytes + right.blocks[i].nbytes + out.nbytes
    return flop, nbytes


def _workspace_info(args, kwargs, result):
    return len(args[0].sectors)


def _gate_info(args, kwargs, result):
    grid = len(kwargs["beta_omegas"]) * len(kwargs["zeta_grid"]) * len(kwargs["phi_grid"])
    statuses = [r.status for r in result.records]
    skipped_points = sum(
        1 for r in result.records if r.status == "skipped" and r.quantity.startswith("equivalence")
    )
    return {
        "records": len(statuses),
        "pass": statuses.count("pass"),
        "fail": statuses.count("fail"),
        "discrepancy": statuses.count("discrepancy"),
        "skipped": statuses.count("skipped"),
        "grid_points": grid,
        "points_evaluated": grid - skipped_points,
    }


def _write_info(args, kwargs, result):
    rows = args[2]
    return len(rows), result.stat().st_size


INFO = {
    "fock.matmul": _matmul_info,
    "fock.workspace": _workspace_info,
    "gate.run": _gate_info,
    "reports.write": _write_info,
}


class Instrumentation:
    """Installs spans for TARGETS and restores every original object afterwards."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "su11otto" or n.startswith("su11otto."))]
        for name, module_name, attr in TARGETS:
            module = sys.modules[module_name]
            info = INFO.get(name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                if isinstance(original, functools.cached_property):
                    replacement = functools.cached_property(self.tracer.wrap(name, original.func, info))
                    replacement.__set_name__(cls, meth)
                else:
                    replacement = self.tracer.wrap(name, original, info)
                self._set(cls, meth, original, replacement)
                continue
            original = getattr(module, attr)
            replacement = self.tracer.wrap(name, original, info)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, replacement)

    def _set(self, owner, attr, original, replacement) -> None:
        self.patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(vars(owner)[attr] is original for owner, attr, original in self.patched)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (times in s, the rest counts)."""
    self_t = tracer.self_times()
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    for span, st in zip(tracer.spans, self_t):
        name = span.name
        if name.startswith("cli.") or name == "config.load":
            add(f"{name}_s", span.end - span.start)  # inclusive: the whole command
        add(f"{name}:self", st)
        add(f"{name}:calls", 1)
        if name == "fock.unitary" and span.error == "TruncationError":
            add("fock.guard_trips", 1)
        if span.info is None:
            continue
        if name == "fock.matmul":
            add("fock.matmul_flop", span.info[0])
            add("fock.matmul_bytes", span.info[1])
        elif name == "fock.workspace":
            add("fock.sectors", span.info)
        elif name == "reports.write":
            add("reports.rows", span.info[0])
            add("reports.bytes", span.info[1])
        elif name == "gate.run":
            for key, value in span.info.items():
                add(f"gate.{key}", value)

    def self_of(*names):
        return sum(m.get(f"{n}:self", 0.0) for n in names)

    def calls_of(*names):
        return sum(m.get(f"{n}:calls", 0) for n in names)

    out = {f"cli.{c}_s": m.get(f"cli.{c}_s", 0.0)
           for c in ("cycle", "figure3", "figure4", "snl", "circuit", "oracle")}
    out["config.load_s"] = m.get("config.load_s", 0.0)
    for short in ("workspace", "eigh", "unitary", "guard", "matmul", "defect",
                  "expect", "variance", "thermal"):
        out[f"fock.{short}_s"] = self_of(f"fock.{short}")
    out["fock.workspaces"] = calls_of("fock.workspace")
    out["fock.sectors"] = m.get("fock.sectors", 0)
    out["fock.unitary_calls"] = calls_of("fock.unitary")
    out["fock.guard_calls"] = calls_of("fock.guard")
    out["fock.guard_trips"] = m.get("fock.guard_trips", 0)
    out["fock.matmul_calls"] = calls_of("fock.matmul")
    out["fock.matmul_flop"] = m.get("fock.matmul_flop", 0)
    out["fock.matmul_bytes"] = m.get("fock.matmul_bytes", 0)
    out["fock.defect_calls"] = calls_of("fock.defect")
    out["fock.expect_calls"] = calls_of("fock.expect")
    out["gate.self_s"] = self_of("gate.run")
    for key in ("records", "pass", "fail", "discrepancy", "skipped"):
        out[f"gate.{key}"] = m.get(f"gate.{key}", 0)
    grid = m.get("gate.grid_points", 0)
    out["gate.points_useful_ratio"] = m["gate.points_evaluated"] / grid if grid else 0.0
    out["metrology.sensitivity_s"] = self_of("metrology.sensitivity")
    out["metrology.sensitivity_calls"] = calls_of("metrology.sensitivity")
    out["metrology.solver_s"] = self_of("metrology.solve", "metrology.minimize", "metrology.range")
    out["metrology.minimize_calls"] = calls_of("metrology.minimize")
    out["cycle.works_and_heats_calls"] = calls_of("cycle.works_and_heats")
    out["cycle.self_s"] = self_of("cycle.works_and_heats", "cycle.other")
    out["core.calls"] = calls_of("core")
    out["core.self_s"] = self_of("core")
    out["circuit.scenario_s"] = self_of("circuit.scenario", "circuit.bogoliubov", "circuit.other")
    out["circuit.bogoliubov_calls"] = calls_of("circuit.bogoliubov")
    out["gammafn.log_gamma_calls"] = calls_of("gammafn.log_gamma")
    out["gammafn.log_gamma_s"] = self_of("gammafn.log_gamma")
    out["reports.write_s"] = self_of("reports.write")
    out["reports.rows"] = m.get("reports.rows", 0)
    out["reports.bytes"] = m.get("reports.bytes", 0)
    out["trace.spans"] = len(tracer.spans)
    return out
