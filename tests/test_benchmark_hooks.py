"""The benchmark's tracer hooks still find the library's functions.

perfbench/tracer.py wraps named functions and methods of the package, and a
target it no longer finds turns the metrics that depend on it into null
rather than failing the run. These tests load the tracer from its file and
require every target to resolve, and one traced call to count every counter.
"""

import functools
import importlib
import importlib.util
import types
from fractions import Fraction
from pathlib import Path

import pytest

from certiroot import Polynomial, PrecisionParams

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def mods(tracer):
    names = {module for _, module, _, _ in tracer.HOOKS}
    return types.SimpleNamespace(package=importlib.import_module("certiroot"),
                                 **{n: importlib.import_module(f"certiroot.{n}") for n in names})


def test_every_hook_target_resolves(tracer, mods):
    for group, module, path, _ in tracer.HOOKS:
        *outer, attr = path.split(".")
        owner = functools.reduce(getattr, outer, getattr(mods, module))
        assert callable(owner.__dict__.get(attr)), group


def test_a_traced_call_counts_every_counter(tracer, mods):
    wilkinson10 = functools.reduce(lambda p, k: p * Polynomial([-k, 1]), range(1, 11),
                                   Polynomial([1]))
    trace = tracer.Tracer()
    trace.install(mods)
    try:
        result = mods.rootenum.root_enum(wilkinson10,
                                         PrecisionParams(r=16, gamma=Fraction(1, 2**160)))
    finally:
        trace.uninstall()
    assert len(result.candidates) == 20
    assert trace.missing == set()
    metrics = tracer.layer_metrics(trace.spans, trace.missing, {})
    counts = {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}
    assert all(type(value) in (int, float) for value in counts.values()), counts
    assert counts["rootenum.certify_calls"] > counts["rootenum.certify_pruned"] > 0
    assert counts["rootenum.classify_calls"] > 0 and counts["rootenum.cells_fired"] == 20
    # The tracer counts distinct points by classify's first argument m, which
    # classify itself does not read.
    assert 0 < counts["rootenum.classify_points"] <= counts["rootenum.classify_calls"]
    # root_enum builds its chain with sturm.sturm_chain and scales it with
    # _ScaledChain(chain, r, gamma), once each.
    assert counts["sturm.chain_calls"] == 1
    assert metrics["rootenum.scale_s"]["value"] > 0
