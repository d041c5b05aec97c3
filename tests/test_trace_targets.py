"""The benchmark's span tracer names functions by (module, attribute).

bench/spans.py wraps each of its TARGETS at run time; a renamed or deleted
function would only surface when a traced benchmark run fails, so every
target is resolved here against the package.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from su11otto.gate import run_gate

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    missing = []
    for _, module_name, target in _spans_module().TARGETS:
        owner = vars(importlib.import_module(module_name))
        *cls_name, attr = target.split(".")
        if cls_name:  # "Class.attr": the tracer replaces the entry in the class dict
            owner = vars(owner.get(cls_name[0], object))
        if attr not in owner:
            missing.append(f"{module_name}.{target}")
    assert missing == []


def test_gate_keywords_read_by_the_tracer():
    params = inspect.signature(run_gate).parameters
    for name in ("beta_omegas", "zeta_grid", "phi_grid"):
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
