"""Inputs of the three workloads, generated from the workload seed.

The program only ever sees the generated inputs (spec strings, seed lists,
command lines).  Seed-dependent inputs are drawn from a pool of RAD_POOL
Rademacher seeds so that refs.json holds a reference for every input any
workload seed can produce.
"""

from __future__ import annotations

import random

WORKLOADS = ("profile_sweep", "mc_seeds", "cli_experiments")
RAD_POOL = 64  # Rademacher seeds 0..63 have stored reference outputs
MC_SEEDS = 6
MC_SCALES = (0.25, 1.0)

# "full" is the benchmark; "tiny" is the smoke-test size.
SIZES = {
    "full": {"profile_n": 10**7, "mc_n": 5 * 10**6, "cli_n": "1e6",
             "cli_big_x": "1e7", "cli_big_q": 100003},
    "tiny": {"profile_n": 10**5, "mc_n": 10**5, "cli_n": "1e4",
             "cli_big_x": "1e5", "cli_big_q": 101},
}

# label -> (spec string, growth-profile kind); "rademacher" gets its seed later
PROFILE_SPECS = {
    "one": ("one", None),
    "char4": ("char:q=4,index=1", None),
    "char5": ("char:q=5,index=1", None),
    "twist5": ("char:q=5,index=1,t=2.0", None),
    "liouville": ("liouville", None),
    "rademacher": ("rademacher:seed={seed}", None),
    "coprime30": ("coprime:Q=30", None),
    "except2": ("one;except=2~0.5~0", None),
    "damped": ("one;scale_r=0.25", None),
    "sqfree5": ("char:q=5,index=real;except=2~1~0", "squarefree"),
}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def profile_ops(seed: int, scale: str) -> list[dict]:
    """Ten profiles to N with dyadic checkpoints, in seeded order."""
    rng = _rng("profile_sweep", seed)
    rad = rng.randrange(RAD_POOL)
    n = SIZES[scale]["profile_n"]
    ops = []
    for label, (spec, kind) in PROFILE_SPECS.items():
        ops.append({"label": label, "spec": spec.format(seed=rad), "kind": kind,
                    "n": n, "values": n, "rad_seed": rad if label == "rademacher" else None})
    rng.shuffle(ops)
    return ops


def mc_ops(seed: int, scale: str) -> list[dict]:
    """random_walk_mc over MC_SEEDS seeds for each damping exponent."""
    rng = _rng("mc_seeds", seed)
    seeds = rng.sample(range(RAD_POOL), MC_SEEDS)
    n = SIZES[scale]["mc_n"]
    ops = [{"label": f"mc_r{r}", "seeds": seeds, "scale_r": r, "n": n,
            "values": len(seeds) * n} for r in MC_SCALES]
    rng.shuffle(ops)
    return ops


def cli_ops(seed: int, scale: str) -> list[dict]:
    """Short CLI experiments, each run as its own process, in seeded order.

    `values` is the number of f(n) the command's range argument asks for
    (0 for commands that evaluate no range); it feeds values_per_s.
    """
    z = SIZES[scale]
    n = int(float(z["cli_n"]))
    rot = ["witness-rotation", "--q", "4", "--index", "1"]
    cmds = [
        ("rotation_h4", rot + ["--flips", "5~0~1", "--H", "4", "--plan", "5~1~1"], 0),
        ("rotation_h10", rot + ["--flips", "13~0~1", "--H", "10", "--plan", "13~1~1"], 0),
        ("rotation_h12", rot + ["--flips", "13~0~1", "--H", "12", "--plan", "13~1~1"], 0),
        ("sf_pair_h6", ["sf-pair", "--q", "5", "--index", "real", "--flips",
                        "5~1,7~1,11~-1", "--H", "6", "--primes", "7,11",
                        "--residues", "1,6"], 0),
        ("zero_scan_q5", ["zero-scan", "--q", "5", "--index", "real", "--r", "7",
                          "--z", "-1", "--M", "1e4"], 0),
        ("zero_scan_big_q", ["zero-scan", "--q", str(z["cli_big_q"]), "--index",
                             "real", "--r", "7", "--z", "-1", "--M", "1e4"], 0),
        ("distance_x10", ["distance", "--f", "one", "--g", "liouville", "--x", "10"], 0),
        ("distance_big_x", ["distance", "--f", "one", "--g", "liouville", "--x",
                            z["cli_big_x"]], 0),
        ("series_check", ["series-check", "--q", "5", "--index", "real", "--flip",
                          "2", "--s", "2,0", "--n", z["cli_n"]], n),
        ("mean_value", ["mean-value", "--spec", "one;except=2~0.5~0", "--x",
                        z["cli_n"]], n),
        ("concentration", ["concentration", "--spec", "char:q=5,index=real", "--q",
                           "5", "--Q", "10", "--a", "3", "--x", z["cli_n"]], 10 * n + 3),
        ("profile", ["profile", "--spec", "char:q=4,index=1", "--n", z["cli_n"]], n),
    ]
    ops = [{"label": label, "argv": argv, "values": values} for label, argv, values in cmds]
    _rng("cli_experiments", seed).shuffle(ops)
    return ops


OPS = {"profile_sweep": profile_ops, "mc_seeds": mc_ops, "cli_experiments": cli_ops}
