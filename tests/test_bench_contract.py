"""The names perfbench's traced runs wrap must stay where it looks for them.

perfbench/workloads.py wraps srsg functions at module attributes (for
example `srsg.search.canonical_form`) and raises when one is missing, so a
change that drops or renames one would break `perfbench/run.py --trace 1`
without failing any other test.  These tests run its wrapping code against
the current package.
"""

import importlib
import os
import re

import pytest

import srsg.search
import srsg.verify
from srsg.catalog import build_underlying
from srsg.search import SearchConfig

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("workloads"), importlib.import_module("tracing")


class GetattrTracer:
    """Looks each wrapped name up, as the real tracer does, and wraps nothing."""

    def __init__(self):
        self.names = []

    def wrap(self, module, attr, name, keep=None):
        getattr(module, attr)
        self.names.append(f"{module.__name__}.{attr}")


SEARCH_NAMES = [f"srsg.search.{a}" for a in
                ("search_srsg", "canonical_form", "decode_canonical", "extract_params", "classify")]


def test_search_wrappers_resolve(perfbench):
    workloads, _ = perfbench
    tracer = GetattrTracer()
    workloads.install_search_wrappers(tracer)
    assert tracer.names == SEARCH_NAMES


def test_verify_wrappers_resolve(perfbench):
    workloads, _ = perfbench
    tracer = GetattrTracer()
    workloads.VerifyD6("unused", 0).install(tracer)
    assert tracer.names == SEARCH_NAMES + ["srsg.verify.search_catalog", "srsg.verify.canonical_form"]
    # at seeds > 0 the workload swaps srsg.verify.cat for a stand-in that
    # offers these three functions only
    tracer.wrap(srsg.verify, "cat", "catalog")
    with open(srsg.verify.__file__, encoding="utf-8") as fh:
        used = set(re.findall(r"\bcat\.(\w+)", fh.read()))
    assert used <= {"list_names", "build", "build_underlying"}


@pytest.mark.parametrize("dedupe", ["none", "iso", "iso-neg"])
def test_traced_catalog_search_runs(perfbench, dedupe):
    # the real tracer's wrappers take positional arguments only
    workloads, tracing = perfbench
    tracer = tracing.Tracer()
    workloads.VerifyD6("unused", 0).install(tracer)
    try:
        g8 = build_underlying("G8")
        cfg = SearchConfig(rho=0, dedupe=dedupe)
        rep = srsg.verify.search_catalog([("G8", g8), ("G8 again", g8)], cfg)
        srsg.verify.class_labels()
    finally:
        tracer.restore()
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    assert calls["search.search_catalog"] == 1
    assert calls["search.search_srsg"] == 2
    assert calls["regularity.extract_params"] == rep.stats.leaves
    assert calls["iso.canonical_form@search"] >= rep.stats.raw_hits
    assert calls["iso.canonical_form@verify"] == 22
