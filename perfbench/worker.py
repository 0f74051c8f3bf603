"""One pass of an in-process workload, run as its own process by run.py.

    python perfbench/worker.py IN.json OUT.json

IN.json holds the workload name, its generated ops and the pass mode
("timed", "traced", "setup"). OUT.json receives, per op, its wall time and
outputs; `first_op_at` is the perf_counter reading (system-wide monotonic
clock) at which the first timed op started, so the parent can measure set-up
from its own spawn time.
"""

from __future__ import annotations

import json
import math
import sys
import time


def _profile_result(prof) -> dict:
    return {"checkpoints": list(prof.checkpoints),
            "sums": [[s.real, s.imag] for s in prof.sums],
            "sups": list(prof.sups)}


def main(in_path: str, out_path: str) -> int:
    with open(in_path) as fh:
        job = json.load(fh)
    import multsum  # noqa: F401  (set-up: package import)
    from multsum import arith, lab, multfun

    workload, mode = job["workload"], job["mode"]
    ops = job["ops"]
    if workload == "profile_sweep":
        for op in ops:
            op["_spec"] = multfun.build_spec(op["spec"])
            op["_cks"] = lab.dyadic_checkpoints(op["n"])

        def run(op):
            if op["kind"] == "squarefree":
                return _profile_result(lab.growth_profile(
                    op["_spec"], op["n"], kind="squarefree", checkpoints=op["_cks"]))
            return _profile_result(multfun.stream_profile(op["_spec"], op["n"], op["_cks"]))
    else:
        def run(op):
            s = lab.random_walk_mc(op["seeds"], op["scale_r"], op["n"])
            return {"checkpoints": s.checkpoints, "sups_per_seed": s.sups_per_seed,
                    "median_sups": s.median_sups}

    tracer = None
    if mode == "traced":
        from tracer import Tracer  # sys.path[0] is this directory

        tracer = Tracer()
        tracer.install()
    out = {"first_op_at": time.perf_counter(), "ops": []}
    if mode != "setup":
        for op in ops:
            rec = {"label": op["label"], "ok": False, "error": None}
            span = tracer.begin("op." + op["label"]) if tracer else None
            t0 = time.perf_counter()
            try:
                rec["result"] = run(op)
                rec["ok"] = True
            except Exception as exc:  # a failed op is recorded, never dropped
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["t"] = time.perf_counter() - t0
            if tracer:
                tracer.end(span)
            out["ops"].append(rec)
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.export()
        if workload == "profile_sweep":
            out["eval"] = _drain_blocks(ops, arith, multfun)
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


def _drain_blocks(ops, arith, multfun) -> dict:
    """Block evaluation alone: time to drain iter_blocks (times the squarefree
    mask for the masked profile), and the block count per op."""
    out = {}
    for op in ops:
        n = op["n"]
        base = arith.primes_upto(math.isqrt(n)) if op["kind"] == "squarefree" else None
        t0 = time.perf_counter()
        blocks, pos = 0, 1
        for blk in multfun.iter_blocks(op["_spec"], n):
            if base is not None:
                blk = blk * arith.squarefree_block(pos, pos + len(blk), base)
            pos += len(blk)
            blocks += 1
        out[op["label"]] = {"eval_s": time.perf_counter() - t0, "blocks": blocks}
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
