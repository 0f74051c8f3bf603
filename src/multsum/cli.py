"""Command-line experiment runner.

Each subcommand runs one experiment, writes PREFIX.csv (header row, 17
significant digits, '\\n' line endings, byte-identical across reruns) and
PREFIX.json (the full experiment record), and prints a one-line summary.
`--baseline FILE.json` compares the fresh record against a stored one under
the per-column tolerances declared in that file.

Exit codes: 0 success (and baseline pass), 1 experiment or baseline
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__
from .accum import CHUNK
from .characters import (
    character_by_index,
    first_nonzero_sigma,
    modified_spec,
    recursion_state,
    sigma_recursion,
)
from .errors import CapacityError, InfeasibleError, SearchError
from .lab import (
    concentration_experiment,
    decade_checkpoints,
    dyadic_checkpoints,
    growth_profile,
    random_walk_mc,
    rotation_witness,
    squarefree_pair,
)
from .multfun import (
    CharacterTwist,
    RandomRademacher,
    ProfileState,
    build_spec,
    check_checkpoints,
    is_exact_spec,
    is_real_spec,
    iter_blocks,
    make_spec,
    spec_config,
)
from .pretentious import delange_mean, distance
from .series import residual_check

PROFILE_COLUMNS = ["x", "re_sum", "im_sum", "abs_sum", "sup_abs"]


def _fmt(v) -> str:
    return format(float(v), ".17g")


def _parse_count(text: str) -> int:
    v = float(text)
    if v != int(v) or v < 1:
        raise ValueError(f"expected a positive integer, got {text!r}")
    return int(v)


def _parse_complex(text: str) -> complex:
    t = text.strip().lower()
    named = {"1": 1 + 0j, "-1": -1 + 0j, "i": 1j, "-i": -1j}
    if t in named:
        return named[t]
    if "," in t:
        re_, im_ = t.split(",", 1)
        return complex(float(re_), float(im_))
    return complex(float(t), 0.0)


def _parse_checkpoints(text: str, n: int) -> list[int]:
    if text == "dyadic":
        return dyadic_checkpoints(n)
    if text == "decade":
        return decade_checkpoints(n)
    return [_parse_count(t) for t in text.split(",")]


def _parse_int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",")]


def _parse_plan(text: str) -> list[tuple[int, int, int]]:
    out = []
    for item in text.split(","):
        p, k, r = item.split("~")
        out.append((int(p), int(k), int(r)))
    return out


def _parse_flips(text: str) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for item in text.split(","):
        parts = item.split("~")
        if len(parts) not in (2, 3):
            raise ValueError(f"bad flip entry {item!r}; use p~re or p~re~im")
        p = int(parts[0])
        if p in out:
            raise ValueError(f"flip prime {p} given twice")
        out[p] = complex(float(parts[1]), float(parts[2]) if len(parts) == 3 else 0.0)
    return out


def _config_hash(experiment: str, config: str, params: dict) -> str:
    payload = json.dumps(
        {"config": config, "experiment": experiment, "params": params},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _csv_line(row: list[float]) -> str:
    return ",".join(_fmt(v) for v in row) + "\n"


def _write_csv(path: str, columns: list[str], rows: list[list[float]]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(map(_csv_line, rows))


def _write_record(prefix: str, record: dict) -> None:
    _write_csv(prefix + ".csv", record["columns"], record["rows"])
    with open(prefix + ".json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def baseline_compare(record: dict, baseline_path: str) -> tuple[str, list[str]]:
    """Compare a fresh record against a stored one.

    Returns (status, detail lines); status is "pass", "fail", or
    "no-baseline".  Rows are compared per column under the absolute
    tolerances in the baseline's "tolerances" map (default 0: exact).
    A mismatched experiment name or config hash is an error, not a fail.
    """
    if not os.path.exists(baseline_path):
        return "no-baseline", [f"no baseline at {baseline_path}"]
    with open(baseline_path) as fh:
        base = json.load(fh)
    for key in ("experiment", "config_hash"):
        if base.get(key) != record[key]:
            raise ValueError(
                f"baseline is incomparable: {key} differs "
                f"({base.get(key)!r} vs {record[key]!r})"
            )
    if base.get("columns") != record["columns"]:
        raise ValueError("baseline is incomparable: column sets differ")
    tol = base.get("tolerances", {})
    lines = []
    if len(base["rows"]) != len(record["rows"]):
        lines.append(
            f"row count {len(record['rows'])} != baseline {len(base['rows'])}"
        )
    else:
        for i, (brow, crow) in enumerate(zip(base["rows"], record["rows"])):
            for col, bv, cv in zip(record["columns"], brow, crow):
                allowed = float(tol.get(col, 0.0))
                if not (abs(cv - bv) <= allowed):
                    lines.append(
                        f"row {i} col {col}: {_fmt(cv)} vs baseline {_fmt(bv)} "
                        f"(tol {_fmt(allowed)})"
                    )
    if lines:
        return "fail", lines
    return "pass", [f"{len(record['rows'])} rows compared"]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (config, params, columns, rows, notes)


def _profile_row(x: int, s: complex, sup: float) -> list[float]:
    return [float(x), s.real, s.imag, abs(s), sup]


WINDOW_COLUMNS = [
    "H", "m", "m_prime",
    "re_window", "im_window", "re_window_prime", "im_window_prime",
    "re_measured", "im_measured", "re_predicted", "im_predicted",
]


def _window_row(res) -> list[float]:
    """The WINDOW_COLUMNS of a RotationWitness or SquarefreePair."""
    return [
        float(res.H), float(res.m), float(res.m_prime),
        res.window_sum.real, res.window_sum.imag,
        res.window_prime_sum.real, res.window_prime_sum.imag,
        res.measured.real, res.measured.imag,
        res.predicted.real, res.predicted.imag,
    ]


def _run_profile(args, prefix: str):
    spec = build_spec(args.spec)
    n = _parse_count(args.n)
    checkpoints = _parse_checkpoints(args.checkpoints, n)
    check_checkpoints(checkpoints, n)
    config = spec_config(spec)
    params = {"n": n, "checkpoints": args.checkpoints}
    experiment = "profile"
    chash = _config_hash(experiment, config, params)
    state_path = prefix + ".state.json"
    csv_path = prefix + ".csv"

    exact, real = is_exact_spec(spec), is_real_spec(spec)
    state = ProfileState(exact, real)
    rows: list[list[float]] = []
    if args.resume and os.path.exists(state_path):
        with open(state_path) as fh:
            saved = json.load(fh)
        if saved.get("config_hash") != chash:
            raise ValueError(
                "resume state was written by a different invocation; "
                "rerun without --resume"
            )
        try:
            state = ProfileState.restore(saved.get("snapshot"))
            if (state.exact, state.real) != (exact, real):
                raise ValueError("resume state does not match the spec's value modes")
            rows, width = saved.get("rows", []), len(PROFILE_COLUMNS)
            if any(type(r) is not list or len(r) != width
                   or not all(type(v) in (int, float) for v in r) for r in rows):
                raise ValueError(f"malformed resume state (a row is not {width} numbers)")
            rows = [list(map(float, r)) for r in rows]
            if state.n_done > n:
                raise ValueError(f"resume state stops at {state.n_done}, past --n {n}")
            if state.n_done != n and state.n_done % CHUNK:
                # blocks laid from there would regroup the compensated chunks
                raise ValueError(f"resume state stops at {state.n_done}, not a multiple of {CHUNK}")
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{exc}; rerun without --resume") from None
        covered = [c for c in checkpoints if c <= state.n_done]
        if [int(r[0]) for r in rows] != covered:
            raise ValueError(
                "resume state is inconsistent with its rows; rerun without "
                "--resume"
            )

    _write_csv(csv_path, PROFILE_COLUMNS, rows)
    with open(csv_path, "a", newline="") as fh:
        for blk in iter_blocks(spec, n, start=state.n_done + 1):
            new = [_profile_row(*row) for row in state.feed(blk, checkpoints)]
            if not new:  # the CSV and the state file stay as they were
                continue
            rows += new
            fh.writelines(map(_csv_line, new))
            fh.flush()
            # the state covers exactly the rows so far
            snap = {"config_hash": chash, "snapshot": state.snapshot(), "rows": rows}
            with open(state_path + ".tmp", "w") as sfh:
                json.dump(snap, sfh)
            os.replace(state_path + ".tmp", state_path)
    if os.path.exists(state_path):
        os.remove(state_path)
    last = rows[-1]
    notes = [f"M_f({int(last[0])}) = {last[1]:.6g}{last[2]:+.6g}i, sup |M_f| = {last[4]:.6g}"]
    return config, params, PROFILE_COLUMNS, rows, notes


def _run_modchar_growth(args, prefix: str):
    chi = character_by_index(args.q, args.index)
    z = _parse_complex(args.z)
    spec = modified_spec(chi, args.r, z)
    n = _parse_count(args.n)
    checkpoints = _parse_checkpoints(args.checkpoints, n)
    prof = growth_profile(spec, n, kind=args.kind, checkpoints=checkpoints)
    columns = PROFILE_COLUMNS + ["slope"]
    rows = [
        _profile_row(*row) + [prof.slope]
        for row in zip(prof.checkpoints, prof.sums, prof.sups)
    ]
    config = spec_config(spec)
    params = {
        "q": args.q,
        "index": args.index,
        "r": args.r,
        "z": args.z,
        "n": n,
        "kind": args.kind,
        "checkpoints": args.checkpoints,
    }
    notes = [
        f"sup |Sigma| = {prof.sups[-1]:.6g} at n = {n}; slope = {prof.slope:.4g} "
        f"per log; regime: {prof.regime}"
    ]
    return config, params, columns, rows, notes


def _run_witness_rotation(args, prefix: str):
    chi = character_by_index(args.q, args.index)
    f = make_spec(CharacterTwist(chi=chi), exceptions=_parse_flips(args.flips))
    plan = _parse_plan(args.plan)
    wit = rotation_witness(
        f,
        chi,
        args.H,
        plan,
        scan_limit=args.scan_limit,
        modulus_kind=args.modulus,
        w=args.w,
    )
    columns = WINDOW_COLUMNS + ["ok"]
    rows = [_window_row(wit) + [float(wit.ok)]]
    config = spec_config(f)
    params = {
        "q": args.q, "index": args.index, "flips": args.flips, "H": args.H,
        "plan": args.plan, "modulus": args.modulus, "w": args.w,
        "scan_limit": args.scan_limit,
    }
    notes = [
        f"windows at m={wit.m}, m'={wit.m_prime}: gap {wit.measured} "
        f"({'matches' if wit.ok else 'DOES NOT match'} the predicted {wit.predicted})"
    ]
    return config, params, columns, rows, notes


def _run_sf_pair(args, prefix: str):
    chi = character_by_index(args.q, args.index)
    g = make_spec(CharacterTwist(chi=chi), exceptions=_parse_flips(args.flips))
    pair = squarefree_pair(
        g,
        chi,
        args.H,
        _parse_int_list(args.primes),
        _parse_int_list(args.residues),
        scan_limit=args.scan_limit,
    )
    columns = WINDOW_COLUMNS + ["sign", "ok"]
    rows = [_window_row(pair) + [float(pair.sign), float(pair.ok)]]
    config = spec_config(g)
    params = {
        "q": args.q, "index": args.index, "flips": args.flips, "H": args.H,
        "primes": args.primes, "residues": args.residues,
        "scan_limit": args.scan_limit,
    }
    notes = [
        f"squarefree windows at m={pair.m}, m'={pair.m_prime}: difference "
        f"{pair.measured} (predicted {pair.predicted})"
    ]
    return config, params, columns, rows, notes


def _run_series_check(args, prefix: str):
    chi = character_by_index(args.q, args.index)
    exceptions: dict[int, complex] = {}
    if args.flip is not None:
        cv = chi(args.flip)
        if cv == 0:
            raise ValueError(f"cannot flip p={args.flip}: it divides q={args.q}")
        exceptions[args.flip] = -cv
    g = make_spec(CharacterTwist(chi=chi), exceptions=exceptions)
    s = _parse_complex(args.s)
    n = _parse_count(args.n)
    chk = residual_check(g, chi, s, n)
    columns = [
        "re_s", "im_s", "n", "re_partial", "im_partial",
        "re_factored", "im_factored", "residual", "expected_scale",
    ]
    rows = [[
        s.real, s.imag, float(n),
        chk.partial.real, chk.partial.imag,
        chk.factored.real, chk.factored.imag,
        chk.residual, chk.expected_scale,
    ]]
    config = spec_config(g)
    params = {
        "q": args.q, "index": args.index, "flip": args.flip,
        "s": args.s, "n": n,
    }
    notes = [
        f"partial sum vs P(s)L(s,chi)/zeta(2s): residual {chk.residual:.3e} "
        f"(tail scale ~ {chk.expected_scale:.3e})"
    ]
    return config, params, columns, rows, notes


def _run_random_mc(args, prefix: str):
    seeds = _parse_int_list(args.seeds) if "," in args.seeds else int(args.seeds)
    n = _parse_count(args.n)
    checkpoints = _parse_checkpoints(args.checkpoints, n)
    summary = random_walk_mc(seeds, args.scale_r, n, checkpoints)
    columns = ["x", "median_sup"] + [f"sup_seed{s}" for s in summary.seeds]
    rows = []
    for i, x in enumerate(summary.checkpoints):
        row = [float(x), summary.median_sups[i]]
        row.extend(per_seed[i] for per_seed in summary.sups_per_seed)
        rows.append(row)
    config = spec_config(
        make_spec(RandomRademacher(seed=summary.seeds[0]), scale_r=args.scale_r)
    )
    params = {"seeds": args.seeds, "scale_r": args.scale_r, "n": n,
              "checkpoints": args.checkpoints}
    notes = [
        f"median sup over {len(summary.seeds)} seeds at n={n}: "
        f"{summary.median_sups[-1]:.6g}"
    ]
    return config, params, columns, rows, notes


def _run_distance(args, prefix: str):
    f = build_spec(args.f)
    g = build_spec(args.g)
    x = _parse_count(args.x)
    y = _parse_count(args.y)
    res = distance(f, g, x, y=y)
    columns = ["y", "x", "value2", "value", "primes_used"]
    rows = [[float(y), float(x), res.value2, res.value, float(res.primes_used)]]
    config = f"{spec_config(f)} vs {spec_config(g)}"
    params = {"f": args.f, "g": args.g, "x": x, "y": y}
    notes = [f"D(f,g; {y},{x}]^2 = {res.value2:.12g} over {res.primes_used} primes"]
    return config, params, columns, rows, notes


def _run_mean_value(args, prefix: str):
    f = build_spec(args.spec)
    x = _parse_count(args.x)
    rep = delange_mean(f, args.t, x, squarefree_support=args.squarefree)
    columns = [
        "x", "t", "re_predicted", "im_predicted",
        "re_empirical", "im_empirical", "gap",
    ]
    rows = [[
        float(x), args.t, rep.predicted.real, rep.predicted.imag,
        rep.empirical.real, rep.empirical.imag, rep.gap,
    ]]
    config = spec_config(f)
    params = {"spec": args.spec, "t": args.t, "x": x,
              "squarefree": args.squarefree}
    notes = [
        f"measured mean {rep.empirical:.12g}; predicted {rep.predicted:.12g}; "
        f"gap {rep.gap:.3e}"
    ]
    return config, params, columns, rows, notes


def _run_concentration(args, prefix: str):
    f = build_spec(args.spec)
    chi = character_by_index(args.q, args.index)
    x = _parse_count(args.x)
    rep = concentration_experiment(f, chi, args.t, args.Q, args.a, x)
    columns = ["x", "Q", "a", "t", "N0", "re_f_of_q", "im_f_of_q",
               "deviation", "driver"]
    rows = [[
        float(x), float(rep.Q), float(rep.a), rep.t, float(rep.N0),
        rep.f_of_q.real, rep.f_of_q.imag, rep.deviation, rep.driver,
    ]]
    config = spec_config(f)
    params = {"spec": args.spec, "q": args.q, "index": args.index,
              "t": args.t, "Q": args.Q, "a": args.a, "x": x}
    notes = [
        f"mean |f(Qn+a) - model| = {rep.deviation:.6g}; driver "
        f"{rep.driver:.6g} (N0={rep.N0})"
    ]
    return config, params, columns, rows, notes


def _run_zero_scan(args, prefix: str):
    chi = character_by_index(args.q, args.index)
    z = _parse_complex(args.z)
    state = recursion_state(chi, args.r, z)
    M = _parse_count(args.M)
    hit = first_nonzero_sigma(state, M)
    columns = ["M", "first_m", "first_A", "re_sigma", "im_sigma"]
    if hit is None:
        rows = [[float(M), -1.0, -1.0, 0.0, 0.0]]
        notes = [f"Sigma(mq) = 0 for every m <= {M}: zero-sum regime"]
    else:
        A = hit * chi.modulus
        sig = sigma_recursion(state, A)
        rows = [[float(M), float(hit), float(A), sig.real, sig.imag]]
        notes = [f"first nonzero block sum at A = {A}: Sigma(A) = {sig}"]
    config = spec_config(modified_spec(chi, args.r, z))
    params = {"q": args.q, "index": args.index, "r": args.r, "z": args.z, "M": M}
    return config, params, columns, rows, notes


_COMMANDS = {
    "profile": _run_profile,
    "modchar-growth": _run_modchar_growth,
    "witness-rotation": _run_witness_rotation,
    "sf-pair": _run_sf_pair,
    "series-check": _run_series_check,
    "random-mc": _run_random_mc,
    "distance": _run_distance,
    "mean-value": _run_mean_value,
    "concentration": _run_concentration,
    "zero-scan": _run_zero_scan,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multsum",
        description="Experiments on partial sums of multiplicative functions.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--out", default=None,
                       help="output prefix (writes PREFIX.csv and PREFIX.json)")
        p.add_argument("--baseline", default=None,
                       help="baseline record (.json) to compare against")

    def character(p):
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--index", default="real", help="character index or 'real'")

    p = sub.add_parser("profile", help="partial-sum profile of a spec")
    p.add_argument("--spec", required=True,
                   help="function spec, e.g. char:q=4,index=1;except=5~0~1")
    p.add_argument("--n", required=True, help="range end, e.g. 1e6")
    p.add_argument("--checkpoints", default="dyadic",
                   help="dyadic, decade, or comma-separated values")
    p.add_argument("--resume", action="store_true",
                   help="continue from PREFIX.state.json if present")
    common(p)

    p = sub.add_parser("modchar-growth",
                       help="discrepancy growth of a modified character")
    character(p)
    p.add_argument("--r", type=int, required=True, help="modified prime")
    p.add_argument("--z", required=True, help="modified value: 1, -1, i, -i, or re,im")
    p.add_argument("--n", required=True)
    p.add_argument("--kind", choices=["plain", "squarefree"], default="plain")
    p.add_argument("--checkpoints", default="dyadic")
    common(p)

    p = sub.add_parser("witness-rotation",
                       help="two windows whose f-sums differ by a forced rotation")
    character(p)
    p.add_argument("--flips", required=True,
                   help="deviating values, e.g. 5~0~1 for f(5)=i")
    p.add_argument("--H", type=int, required=True, help="window length")
    p.add_argument("--plan", required=True,
                   help="comma-separated p~k~r entries")
    p.add_argument("--modulus", choices=["factorial", "primorial"],
                   default="factorial")
    p.add_argument("--w", type=int, default=None,
                   help="primorial exponent (defaults to H; needs --modulus primorial)")
    p.add_argument("--scan-limit", type=int, default=10**6)
    common(p)

    p = sub.add_parser("sf-pair",
                       help="squarefree-supported window pair with an exact gap")
    character(p)
    p.add_argument("--flips", required=True,
                   help="g's +-1 values where it deviates, e.g. 5~1,7~1,11~-1")
    p.add_argument("--H", type=int, required=True)
    p.add_argument("--primes", required=True, help="plan primes, e.g. 7,11")
    p.add_argument("--residues", required=True, help="plan residues, e.g. 1,6")
    p.add_argument("--scan-limit", type=int, default=10**5)
    common(p)

    p = sub.add_parser("series-check",
                       help="partial sums vs the factored Dirichlet series")
    character(p)
    p.add_argument("--flip", type=int, default=None,
                   help="prime where g = -chi instead of chi")
    p.add_argument("--s", required=True, help="complex s as re,im")
    p.add_argument("--n", required=True)
    common(p)

    p = sub.add_parser("random-mc",
                       help="median discrepancy of seeded random +-1 functions")
    p.add_argument("--seeds", default="10",
                   help="seed count, or comma-separated seed list")
    p.add_argument("--scale-r", type=float, default=0.0, dest="scale_r",
                   help="damping exponent: f(n) = eps(n) n^(-scale_r)")
    p.add_argument("--n", required=True)
    p.add_argument("--checkpoints", default="decade")
    common(p)

    p = sub.add_parser("distance", help="pretentious distance between two specs")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", default="1")
    common(p)

    p = sub.add_parser("mean-value", help="mean value against the Euler product")
    p.add_argument("--spec", required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--x", required=True)
    p.add_argument("--squarefree", action="store_true")
    common(p)

    p = sub.add_parser("concentration",
                       help="concentration of f along an arithmetic progression")
    p.add_argument("--spec", required=True)
    character(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--Q", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--x", required=True)
    common(p)

    p = sub.add_parser("zero-scan",
                       help="first block multiple with nonzero modified sum")
    character(p)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--M", required=True, help="scan bound on the multiplier m")
    common(p)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    prefix = args.out or "multsum_" + args.cmd.replace("-", "_")
    start = time.perf_counter()
    try:
        config, params, columns, rows, notes = _COMMANDS[args.cmd](args, prefix)
    except (ValueError, CapacityError, InfeasibleError, SearchError,
            ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - start
    record = {
        "experiment": args.cmd,
        "config": config,
        "params": params,
        "columns": columns,
        "rows": rows,
        "wall_time_s": wall,
        "version": __version__,
        "config_hash": _config_hash(args.cmd, config, params),
        "tolerances": {},
    }
    try:
        _write_record(prefix, record)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    print(f"wrote {prefix}.csv and {prefix}.json ({wall:.2f}s)")
    if args.baseline:
        try:
            status, lines = baseline_compare(record, args.baseline)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for line in lines[:10]:
            print(f"baseline: {line}")
        print(f"baseline: {status}")
        if status != "pass":
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
