"""The names perfbench binds in multsum still exist with the shapes it uses."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

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


def test_complex_profile_reaches_traced_compensated_cumsum():
    """A float complex profile calls accum.compensated_cumsum through a name
    the tracer wraps; without that call a traced run has no
    accum.compensated_cumsum_s and counts as incorrect."""
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        multfun.stream_profile(multfun.build_spec("char:q=5,index=1,t=2.0"), 5000, [5000])
    finally:
        tracer.uninstall()
    assert "accum.compensated_cumsum" in {s["name"] for s in tracer.spans}
