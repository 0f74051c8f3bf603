"""Output checks: stored references (refs.json, recorded by record_refs.py from
the unchanged program) plus invariants that hold for every seed.

Integer-valued outputs (partial sums of exact specs, window data, counts) are
compared bit for bit; floating outputs within REL_TOL (or ABS_TOL near 0).
Each check returns a list of problems; an empty list means the op passed.
"""

from __future__ import annotations

import json
import os
import statistics

REL_TOL = 1e-9
ABS_TOL = 1e-12

# profile labels whose values are exact (0, +-1, +-i), so M_f is an integer
EXACT_SUMS = {"one", "char4", "char5", "liouville", "rademacher", "coprime30", "sqfree5"}
# ... and real as well, so sup |M_f| is an integer too
EXACT_SUPS = EXACT_SUMS - {"char5"}

# CLI record columns computed in floating point; every other column is exact
FLOAT_COLUMNS = {
    "distance": {"value2", "value"},
    "series-check": {"re_partial", "im_partial", "re_factored", "im_factored",
                     "residual", "expected_scale"},
    "mean-value": {"re_predicted", "im_predicted", "re_empirical", "im_empirical", "gap"},
    "concentration": {"re_f_of_q", "im_f_of_q", "deviation", "driver"},
}

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def load_refs(scale: str) -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)[scale]


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def _compare(what: str, got: list, want: list, exact: bool) -> list[str]:
    if len(got) != len(want):
        return [f"{what}: {len(got)} values, reference has {len(want)}"]
    for i, (g, w) in enumerate(zip(got, want)):
        if (g != w) if exact else not _close(g, w):
            return [f"{what}[{i}] = {g!r}, reference {w!r}"]
    return []


def profile_ref_key(op: dict) -> str:
    return f"rademacher:{op['rad_seed']}" if op["label"] == "rademacher" else op["label"]


def check_profile(op: dict, res: dict, refs: dict) -> list[str]:
    label, n = op["label"], op["n"]
    ref = refs["profile"][profile_ref_key(op)]
    probs = _compare(f"{label} checkpoints", res["checkpoints"], ref["checkpoints"], True)
    if probs:
        return probs
    for part in (0, 1):
        probs += _compare(f"{label} sums[{'re' if part == 0 else 'im'}]",
                          [s[part] for s in res["sums"]], [s[part] for s in ref["sums"]],
                          label in EXACT_SUMS)
    probs += _compare(f"{label} sups", res["sups"], ref["sups"], label in EXACT_SUPS)
    if label == "one" and res["sums"][-1] != [n, 0.0]:
        probs.append(f"M_one({n}) = {res['sums'][-1]}, not {n}")
    if label == "char4" and res["sups"][-1] != 1.0:
        probs.append(f"sup |M_char4| = {res['sups'][-1]}, not 1")
    return probs


def check_mc(op: dict, res: dict, refs: dict) -> list[str]:
    ref = refs["mc"][str(op["scale_r"])]
    probs = _compare("mc checkpoints", res["checkpoints"], ref["checkpoints"], True)
    if probs:
        return probs
    if len(res["sups_per_seed"]) != len(op["seeds"]):
        return [f"mc returned {len(res['sups_per_seed'])} seeds, asked {len(op['seeds'])}"]
    for seed, sups in zip(op["seeds"], res["sups_per_seed"]):
        probs += _compare(f"mc seed {seed} sups", sups, ref["sups"][str(seed)], False)
    medians = [statistics.median(col) for col in zip(*res["sups_per_seed"])]
    probs += _compare("mc median_sups", res["median_sups"], medians, False)
    return probs


def check_cli(op: dict, rc: int, record: dict | None, refs: dict) -> list[str]:
    if rc != 0:
        return [f"{op['label']} exited with {rc}"]
    if record is None:
        return [f"{op['label']} wrote no record"]
    ref = refs["cli"][op["label"]]
    if record["columns"] != ref["columns"]:
        return [f"{op['label']} columns {record['columns']}, reference {ref['columns']}"]
    floats = FLOAT_COLUMNS.get(op["argv"][0], set())
    probs = []
    if len(record["rows"]) != len(ref["rows"]):
        return [f"{op['label']}: {len(record['rows'])} rows, reference {len(ref['rows'])}"]
    for j, col in enumerate(ref["columns"]):
        probs += _compare(f"{op['label']} {col}", [r[j] for r in record["rows"]],
                          [r[j] for r in ref["rows"]], col not in floats)
    if "ok" in record["columns"]:
        j = record["columns"].index("ok")
        if any(r[j] != 1 for r in record["rows"]):
            probs.append(f"{op['label']}: window ok column is not 1")
    return probs
