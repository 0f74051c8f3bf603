"""Record the reference outputs in refs.json from the program as it stands.

    python3 perfbench/record_refs.py

Run it only on a commit whose outputs are known good: the benchmark compares
every later commit against what this writes.  It covers both sizes
("full", "tiny"), every Rademacher seed in the pool, and every CLI command.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from multsum import lab, multfun  # noqa: E402

import workloads  # noqa: E402
from verify import REFS_PATH  # noqa: E402


def _prof(p) -> dict:
    return {"checkpoints": list(p.checkpoints),
            "sums": [[s.real, s.imag] for s in p.sums], "sups": list(p.sups)}


def record(scale: str) -> dict:
    z = workloads.SIZES[scale]
    n = z["profile_n"]
    cks = lab.dyadic_checkpoints(n)
    profile = {}
    for label, (spec, kind) in workloads.PROFILE_SPECS.items():
        seeds = range(workloads.RAD_POOL) if label == "rademacher" else [None]
        for s in seeds:
            f = multfun.build_spec(spec.format(seed=s))
            key = label if s is None else f"{label}:{s}"
            if kind:
                profile[key] = _prof(lab.growth_profile(f, n, kind=kind, checkpoints=cks))
            else:
                profile[key] = _prof(multfun.stream_profile(f, n, cks))
    mc = {}
    for r in workloads.MC_SCALES:
        s = lab.random_walk_mc(list(range(workloads.RAD_POOL)), r, z["mc_n"])
        mc[str(r)] = {"checkpoints": s.checkpoints,
                      "sups": {str(k): v for k, v in zip(s.seeds, s.sups_per_seed)}}
    cli = {}
    env = dict(os.environ, PYTHONPATH=SRC)
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for op in workloads.cli_ops(0, scale):
            prefix = os.path.join(tmp, op["label"])
            subprocess.run([sys.executable, "-m", "multsum.cli", *op["argv"], "--out", prefix],
                           env=env, check=True, capture_output=True, timeout=300)
            with open(prefix + ".json") as fh:
                rec = json.load(fh)
            cli[op["label"]] = {"columns": rec["columns"], "rows": rec["rows"]}
    return {"profile": profile, "mc": mc, "cli": cli}


def main() -> int:
    refs = {scale: record(scale) for scale in ("tiny", "full")}
    with open(REFS_PATH, "w") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"wrote {REFS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
