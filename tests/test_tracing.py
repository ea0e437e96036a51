"""The benchmark's tracer still finds the functions it wraps.

perfbench/tracing.py times each layer by swapping the module attributes
named in its BOUNDARIES. A rename, or a kernel called through anything
but its module attribute, would leave a layer's time at 0 without an
error; this test runs the tracer in-process to catch that.
"""

import sys
from pathlib import Path

import pytest

from maskcheck import EngineConfig, corpus_dir, make_domain, parse, qms_compute
from maskcheck.domain import gf_table

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def test_tracer_boundaries_resolve_and_record(tracing):
    for module, name in tracing.BOUNDARIES:
        assert callable(getattr(sys.modules[f"maskcheck.{module}"], name)), \
            f"{module}.{name}"
    program = parse((corpus_dir() / "cube.mv").read_text())
    cfg = EngineConfig(make_domain(8), jobs=1)
    gf_table(cfg.domain)    # built now, so only eval_vec's calls count
    tracer = tracing.Tracer()
    tracer.install()
    try:
        qms_compute(program, cfg)
    finally:
        tracer.uninstall()
    counts = tracer.take().counts
    assert counts["expr.eval_vec"] > 0
    assert counts["domain.gf_mul_vec"] > 0
    spans = {span[0] for span in tracer.spans}
    assert {"expr.eval_vec", "domain.gf_mul_vec"} <= spans
