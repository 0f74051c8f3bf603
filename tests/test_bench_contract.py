"""The names perfbench binds in multsum still exist with the shapes it uses."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from multsum import lab, multfun

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _targets():
    return _tracer().TARGETS


def test_tracer_targets_resolve():
    targets = _targets()
    assert targets
    for module, name in targets:
        fn = getattr(importlib.import_module(f"multsum.{module}"), name, None)
        assert callable(fn), (module, name)


def test_bound_names_exist():
    assert callable(lab._first_admissible)
    assert isinstance(multfun.BLOCK, int)
    assert isinstance(next(multfun.iter_blocks(multfun.build_spec("one"), 10)), np.ndarray)


def test_random_walk_mc_summary_shape():
    """perfbench's worker reads these three fields of the summary."""
    out = lab.random_walk_mc([1, 2], 0.25, 10)
    assert out.checkpoints == [1, 10]
    assert len(out.sups_per_seed) == 2
    for row in out.sups_per_seed + [out.median_sups]:
        assert len(row) == len(out.checkpoints)
        assert all(type(v) is float for v in row)


def _complex_profile():
    multfun.stream_profile(multfun.build_spec("char:q=5,index=1,t=2.0"), 5000, [5000])


def _squarefree_growth_profile():
    lab.growth_profile(multfun.build_spec("char:q=5,index=1"), 5000, kind="squarefree")


TRACED_CALLS = [  # (call, a span it must record)
    (_complex_profile, "accum.compensated_cumsum"),
    (_squarefree_growth_profile, "arith.squarefree_block"),
    (_squarefree_growth_profile, "arith.primes_upto"),
]


@pytest.mark.parametrize("call, span", TRACED_CALLS, ids=[span for _, span in TRACED_CALLS])
def test_profile_reaches_traced_span(call, span):
    """A float complex profile calls accum.compensated_cumsum, and a
    square-free growth profile arith.squarefree_block and arith.primes_upto,
    through names the tracer wraps; without one of those calls a traced run
    lacks its per-layer metric and counts as incorrect."""
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        call()
    finally:
        tracer.uninstall()
    assert span in {s["name"] for s in tracer.spans}
