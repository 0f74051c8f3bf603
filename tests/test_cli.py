"""End-to-end tests of the experiment runner: artifacts, baselines, resume."""

import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import multsum
import multsum.cli as cli

DISTANCE_GOLDEN = (
    b"y,x,value2,value,primes_used\n"
    b"1,10,2.3523809523809525,1.5337473561121311,4\n"
)

RECORD_KEYS = {
    "experiment", "config", "params", "columns", "rows",
    "wall_time_s", "version", "config_hash", "tolerances",
}


def run(tmp_path, *argv) -> tuple[int, str]:
    tmp_path.mkdir(parents=True, exist_ok=True)
    prefix = str(tmp_path / argv[0].replace("-", "_"))
    code = cli.main([*argv, "--out", prefix])
    return code, prefix


def readme_commands() -> list[list[str]]:
    """The argv of each command in README.md's `## Command line` sh block,
    with `\\` continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_examples_run(tmp_path):
    """Every README command line exits 0 and writes its CSV and JSON."""
    commands = readme_commands()
    assert len(commands) == 10, commands
    for argv in commands:
        i = argv.index("--out") + 1
        argv[i] = prefix = str(tmp_path / argv[i])
        assert cli.main(argv) == 0, argv
        assert os.path.getsize(prefix + ".csv") > 0, argv
        with open(prefix + ".json") as fh:
            assert json.load(fh)["experiment"] == argv[0], argv


def test_distance_golden_bytes(tmp_path):
    code, prefix = run(tmp_path, "distance", "--f", "one", "--g", "liouville",
                       "--x", "10")
    assert code == 0
    with open(prefix + ".csv", "rb") as fh:
        assert fh.read() == DISTANCE_GOLDEN


def test_reruns_are_byte_identical(tmp_path):
    argv = ["profile", "--spec", "char:q=4,index=1;except=3~1~0", "--n", "4096"]
    code_a, prefix_a = run(tmp_path / "a", *argv)
    code_b, prefix_b = run(tmp_path / "b", *argv)
    assert code_a == code_b == 0
    with open(prefix_a + ".csv", "rb") as fa, open(prefix_b + ".csv", "rb") as fb:
        assert fa.read() == fb.read()


def test_json_record_schema(tmp_path):
    code, prefix = run(tmp_path, "profile", "--spec", "one", "--n", "1000",
                       "--checkpoints", "10,1000")
    assert code == 0
    with open(prefix + ".json") as fh:
        rec = json.load(fh)
    assert set(rec) == RECORD_KEYS
    assert rec["experiment"] == "profile"
    assert rec["config"] == "one"
    assert rec["version"] == multsum.__version__
    assert rec["tolerances"] == {}
    assert len(rec["config_hash"]) == 64
    assert int(rec["config_hash"], 16) >= 0
    assert rec["columns"] == ["x", "re_sum", "im_sum", "abs_sum", "sup_abs"]
    assert rec["rows"] == [[10, 10, 0, 10, 10], [1000, 1000, 0, 1000, 1000]]
    assert rec["wall_time_s"] >= 0
    # the CSV holds the same rows
    with open(prefix + ".csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "x,re_sum,im_sum,abs_sum,sup_abs"
    assert len(lines) == 3


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["distance", "--f", "one"])  # missing required --g/--x
    assert exc.value.code == 2


def test_inner_errors_exit_1(tmp_path, capsys):
    code, _ = run(tmp_path, "profile", "--spec", "gauss", "--n", "100")
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code, _ = run(tmp_path, "profile", "--spec", "one", "--n", "0")
    assert code == 1
    code, _ = run(tmp_path, "series-check", "--q", "5", "--flip", "5",
                  "--s", "2,0", "--n", "1000")
    assert code == 1  # chi(5) = 0 cannot be flipped
    code, _ = run(tmp_path, "profile", "--spec", "one;except=2~nan~0", "--n", "100")
    assert code == 1 and "not finite" in capsys.readouterr().err
    code, _ = run(tmp_path, "witness-rotation", "--q", "4", "--index", "1",
                  "--flips", "5~0~1~2", "--H", "4", "--plan", "5~1~1")
    assert code == 1 and "bad flip entry '5~0~1~2'" in capsys.readouterr().err
    code = cli.main(["distance", "--f", "one", "--g", "liouville", "--x", "10",
                     "--out", str(tmp_path / "missing" / "d")])
    assert code == 1 and "error:" in capsys.readouterr().err  # the record is unwritable


@pytest.mark.parametrize("argv", [
    ["mean-value", "--spec", "one", "--t", "nan", "--x", "100"],
    ["mean-value", "--spec", "one", "--t", "inf", "--x", "100"],
    ["series-check", "--q", "5", "--s", "nan,0", "--n", "100"],
    ["series-check", "--q", "5", "--s", "2,inf", "--n", "100"],
])
def test_non_finite_arguments_exit_1(tmp_path, capsys, argv):
    """A non-finite t or s is refused with exit 1 and the argument named on
    stderr: --t nan used to exit 0 with a NaN row."""
    code, prefix = run(tmp_path, *argv)
    assert code == 1
    err = capsys.readouterr().err
    assert ("t must be finite" if argv[0] == "mean-value" else "a finite s with") in err, err
    assert not os.path.exists(prefix + ".csv")


@pytest.mark.parametrize("argv, window", [
    (["mean-value", "--spec", "one", "--x", "1"], "(1, 1]"),
    (["distance", "--f", "one", "--g", "liouville", "--x", "10", "--y", "10"], "(10, 10]"),
    (["distance", "--f", "one", "--g", "liouville", "--x", "10", "--y", "20"], "(20, 10]"),
])
def test_empty_prime_window_exit_1(tmp_path, capsys, argv, window):
    """An empty or reversed prime window (y, x] is refused with exit 1 and y
    and x named: it used to be reported as outside the prime-sum limit."""
    code, prefix = run(tmp_path, *argv)
    assert code == 1
    err = capsys.readouterr().err
    assert f"prime window (y, x] = {window} needs 0 <= y < x" in err, err
    assert "outside" not in err
    assert not os.path.exists(prefix + ".csv")


def test_profile_refuses_q_above_factor_limit(tmp_path, capsys):
    """Q = 1e30 used to pass the spec parser and die with an int64
    OverflowError inside block evaluation."""
    code, prefix = run(tmp_path, "profile", "--spec", "coprime:Q=" + str(10**30),
                       "--n", "100")
    assert code == 1
    assert "FACTOR_LIMIT" in capsys.readouterr().err
    assert not os.path.exists(prefix + ".csv")


def test_baseline_flow(tmp_path, capsys):
    code, prefix = run(tmp_path, "distance", "--f", "one", "--g", "liouville",
                       "--x", "100")
    assert code == 0
    base = tmp_path / "base.json"
    with open(prefix + ".json") as fh:
        rec = json.load(fh)
    base.write_text(json.dumps(rec))

    code = cli.main(["distance", "--f", "one", "--g", "liouville", "--x", "100",
                     "--out", str(tmp_path / "again"), "--baseline", str(base)])
    assert code == 0
    assert "baseline: pass" in capsys.readouterr().out

    # drifted values fail under zero tolerance, pass under a declared one
    rec["rows"][0][2] += 1e-9
    base.write_text(json.dumps(rec))
    code = cli.main(["distance", "--f", "one", "--g", "liouville", "--x", "100",
                     "--out", str(tmp_path / "again"), "--baseline", str(base)])
    out = capsys.readouterr().out
    assert code == 1 and "baseline: fail" in out

    rec["tolerances"] = {"value2": 1e-6}
    base.write_text(json.dumps(rec))
    code = cli.main(["distance", "--f", "one", "--g", "liouville", "--x", "100",
                     "--out", str(tmp_path / "again"), "--baseline", str(base)])
    assert code == 0
    assert "baseline: pass" in capsys.readouterr().out


def test_baseline_missing_and_incomparable(tmp_path, capsys):
    code = cli.main(["distance", "--f", "one", "--g", "liouville", "--x", "100",
                     "--out", str(tmp_path / "d"),
                     "--baseline", str(tmp_path / "nope.json")])
    out = capsys.readouterr().out
    assert code == 1 and "baseline: no-baseline" in out

    # a record from a different config is an error, not a fail
    code, prefix = run(tmp_path, "distance", "--f", "one", "--g", "one", "--x", "50")
    assert code == 0
    code = cli.main(["distance", "--f", "one", "--g", "liouville", "--x", "100",
                     "--out", str(tmp_path / "d"),
                     "--baseline", prefix + ".json"])
    err = capsys.readouterr().err
    assert code == 1 and "incomparable" in err


def test_baseline_compare_columns_and_row_count(tmp_path):
    """A baseline with other columns is incomparable (an error); one with
    another row count is a fail."""
    code, prefix = run(tmp_path, "profile", "--spec", "one", "--n", "100",
                       "--checkpoints", "10,100")
    assert code == 0
    with open(prefix + ".json") as fh:
        rec = json.load(fh)
    base = tmp_path / "base.json"
    base.write_text(json.dumps({**rec, "columns": rec["columns"][:-1]}))
    with pytest.raises(ValueError, match="column sets differ"):
        cli.baseline_compare(rec, str(base))
    base.write_text(json.dumps({**rec, "rows": rec["rows"][:1]}))
    assert cli.baseline_compare(rec, str(base)) == ("fail", ["row count 2 != baseline 1"])


def test_profile_resume_completes_identically(tmp_path, monkeypatch):
    """Crash right after the scan block that ends at a checkpoint, then resume.

    The injected crash fires on the next block after it, so the state file
    written for it is the one the resume continues from.
    """
    check_resume_after_crash(tmp_path, monkeypatch, "char:q=4,index=1;except=3~1~0")


@pytest.mark.parametrize("spec", ["char:q=5,index=1", "char:q=5,index=1,t=2.0"])
def test_complex_profile_resume_completes_identically(tmp_path, monkeypatch, spec):
    """The same for an exact and a float complex spec: the CSV bytes of the
    resumed run equal the uninterrupted run's."""
    check_resume_after_crash(tmp_path, monkeypatch, spec)


def crash_after_block(monkeypatch, crash) -> None:
    """Wrap cli.iter_blocks so that the next() after each block lo..hi calls
    crash(lo, hi) and raises when it returns true: by then the profile has
    consumed that block and committed its rows and state."""
    real_blocks = cli.iter_blocks

    def crashing_blocks(spec, x, start=1):
        lo = start
        for blk in real_blocks(spec, x, start=start):
            hi = lo + len(blk) - 1
            yield blk
            if crash(lo, hi):
                raise RuntimeError("injected crash")
            lo = hi + 1

    monkeypatch.setattr(cli, "iter_blocks", crashing_blocks)


def check_resume_after_crash(tmp_path, monkeypatch, spec: str) -> None:
    n = 1 << 23  # 2^22 ends a scan block (block lengths are powers of two)
    argv = ["profile", "--spec", spec, "--n", str(n)]
    _, full_prefix = run(tmp_path / "full", *argv)
    with open(full_prefix + ".csv", "rb") as fh:
        want = fh.read()

    crash_after_block(monkeypatch, lambda lo, hi: lo <= 1 << 22 <= hi)
    prefix = str(tmp_path / "part")
    with pytest.raises(RuntimeError):
        cli.main([*argv, "--out", prefix])
    assert os.path.exists(prefix + ".state.json")
    monkeypatch.undo()

    code = cli.main([*argv, "--out", prefix, "--resume"])
    assert code == 0
    assert not os.path.exists(prefix + ".state.json")
    with open(prefix + ".csv", "rb") as fh:
        assert fh.read() == want


def test_profile_resume_after_mid_block_crash(tmp_path, monkeypatch):
    """A crash after a block's rows reach the CSV but before its state is
    committed leaves rows past the state (here there is none), and
    the resume rewrites them rather than appending after them."""
    argv = ["profile", "--spec", "char:q=4,index=1", "--n", str(1 << 20)]
    _, full_prefix = run(tmp_path / "full", *argv)
    with open(full_prefix + ".csv", "rb") as fh:
        want = fh.read()

    real_replace = os.replace

    def crashing_replace(src, dst):
        if str(dst).endswith(".state.json"):
            raise RuntimeError("injected crash")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crashing_replace)
    prefix = str(tmp_path / "part")
    with pytest.raises(RuntimeError):
        cli.main([*argv, "--out", prefix])
    assert not os.path.exists(prefix + ".state.json")
    with open(prefix + ".csv", "rb") as fh:
        partial = fh.read()
    assert b"\n1024," in partial and want.startswith(partial) and partial != want
    # the CSV is rewritten from the record at the end, so only a resume that
    # crashes the same way shows whether it appended to the stray rows
    with pytest.raises(RuntimeError):
        cli.main([*argv, "--out", prefix, "--resume"])
    with open(prefix + ".csv", "rb") as fh:
        assert fh.read() == partial
    monkeypatch.setattr(os, "replace", real_replace)

    code = cli.main([*argv, "--out", prefix, "--resume"])
    assert code == 0
    assert not os.path.exists(prefix + ".state.json")
    with open(prefix + ".csv", "rb") as fh:
        assert fh.read() == want


def test_profile_resume_after_a_block_without_checkpoints(tmp_path, monkeypatch):
    """A crash right after a block that holds no checkpoint leaves the state
    file of the last block that held one, and the resumed CSV bytes equal
    the uninterrupted run's.  At n = 2^20 the blocks hold 2^18 values, so
    the third one, 2^19 + 1..3 * 2^18, holds no dyadic checkpoint."""
    argv = ["profile", "--spec", "char:q=5,index=1,t=2.0", "--n", str(1 << 20)]
    _, full_prefix = run(tmp_path / "full", *argv)
    with open(full_prefix + ".csv", "rb") as fh:
        want = fh.read()

    prefix = str(tmp_path / "part")
    saved = []  # the state file after each block

    def crash(lo, hi):
        with open(prefix + ".state.json") as fh:
            saved.append(fh.read())
        return not any(lo <= 1 << k <= hi for k in range(21))  # no checkpoint

    crash_after_block(monkeypatch, crash)
    with pytest.raises(RuntimeError):
        cli.main([*argv, "--out", prefix])
    monkeypatch.undo()
    assert len(saved) == 3 and saved[2] == saved[1] != saved[0]
    state = json.loads(saved[1])
    assert state["snapshot"]["n_done"] == state["rows"][-1][0] == 1 << 19

    code = cli.main([*argv, "--out", prefix, "--resume"])
    assert code == 0
    with open(prefix + ".csv", "rb") as fh:
        assert fh.read() == want


def test_profile_resume_guards(tmp_path, monkeypatch, capsys):
    argv = ["profile", "--spec", "char:q=4,index=1", "--n", "4096"]
    crash_after_block(monkeypatch, lambda lo, hi: hi >= 4096)
    prefix = str(tmp_path / "part")
    with pytest.raises(RuntimeError):
        cli.main([*argv, "--out", prefix])
    monkeypatch.undo()

    # a different invocation must refuse the leftover state
    code = cli.main(["profile", "--spec", "char:q=4,index=1", "--n", "8192",
                     "--out", prefix, "--resume"])
    err = capsys.readouterr().err
    assert code == 1 and "rerun without --resume" in err

    # tampered rows are rejected too
    with open(prefix + ".state.json") as fh:
        saved = json.load(fh)
    saved["rows"] = saved["rows"][:-1]
    with open(prefix + ".state.json", "w") as fh:
        json.dump(saved, fh)
    code = cli.main([*argv, "--out", prefix, "--resume"])
    err = capsys.readouterr().err
    assert code == 1 and "inconsistent" in err


def test_profile_resume_refuses_malformed_state(tmp_path, capsys):
    """A state file with the right config_hash but a snapshot missing a
    field, one in the older exact form, or none at all, or a saved row that
    is not one number per column (empty, or short where it covers the saved
    checkpoint), exits 1 cleanly."""
    argv = ["profile", "--spec", "char:q=4,index=1", "--n", "4096"]
    code, want_prefix = run(tmp_path / "full", *argv)
    assert code == 0
    with open(want_prefix + ".json") as fh:
        chash = json.load(fh)["config_hash"]
    prefix = str(tmp_path / "part")
    snapshots = [
        {"n_done": 1024, "sup": (1.0).hex(), "real": True,
         "re": ["0x0p+0", "0x0p+0"], "im": ["0x0p+0", "0x0p+0"]},
        {"n_done": 1024, "sup": (1.0).hex(), "exact": True, "real": True,
         "re_int": 0, "im_int": 0},
    ]
    states = [{"config_hash": chash, "snapshot": snapshot, "rows": []}
              for snapshot in snapshots] + [{"config_hash": chash, "rows": []}]
    covers_1 = {"n_done": 1, "sup": (1.0).hex(), "exact": True, "real": True,
                "re": [(1.0).hex(), "0x0p+0"], "im": ["0x0p+0", "0x0p+0"]}
    states += [{"config_hash": chash, "snapshot": covers_1, "rows": rows}
               for rows in ([[]], [[1, 1.0, 0.0]])]
    for state in states:
        with open(prefix + ".state.json", "w") as fh:
            json.dump(state, fh)
        code = cli.main([*argv, "--out", prefix, "--resume"])
        err = capsys.readouterr().err
        assert code == 1
        assert "malformed resume state" in err and "rerun without --resume" in err


def test_profile_resume_refuses_a_state_off_a_chunk(tmp_path, capsys):
    """The CLI saves states at block ends only.  One the library saved at
    n_done = 5000, not a multiple of CHUNK, used to resume at --n 1e6 into a
    CSV that differed from the uninterrupted run's in 8 rows (5 for the
    damped spec): blocks laid from 5001 regroup the compensated chunks."""
    for i, spec in enumerate(["char:q=4,index=1;except=3~0.3~0", "one;scale_r=0.25"]):
        argv = ["profile", "--spec", spec, "--n", "16384"]
        code, full_prefix = run(tmp_path / f"full{i}", *argv)
        assert code == 0
        with open(full_prefix + ".json") as fh:
            chash = json.load(fh)["config_hash"]
        f = multsum.build_spec(spec)
        state = cli.ProfileState(cli.is_exact_spec(f), cli.is_real_spec(f))
        covered = [c for c in cli.dyadic_checkpoints(16384) if c <= 5000]
        rows = [cli._profile_row(*row) for blk in cli.iter_blocks(f, 5000)
                for row in state.feed(blk, covered)]
        prefix = str(tmp_path / f"part{i}")
        with open(prefix + ".state.json", "w") as fh:
            json.dump({"config_hash": chash, "snapshot": state.snapshot(), "rows": rows}, fh)
        code = cli.main([*argv, "--out", prefix, "--resume"])
        err = capsys.readouterr().err
        assert code == 1
        assert "stops at 5000, not a multiple of 4096" in err and "rerun without --resume" in err


def test_profile_resume_refuses_a_state_past_n(tmp_path, capsys):
    """A state file with the right config_hash and rows for every
    checkpoint of --n 10000, whose snapshot stops at 16384, exits 1 and
    leaves the CSV as it was."""
    argv = ["profile", "--spec", "char:q=4,index=1", "--n", "10000"]
    code, full_prefix = run(tmp_path / "full", *argv)
    assert code == 0
    with open(full_prefix + ".json") as fh:
        chash = json.load(fh)["config_hash"]
    f = multsum.build_spec("char:q=4,index=1")
    state = cli.ProfileState(cli.is_exact_spec(f), cli.is_real_spec(f))
    rows = [cli._profile_row(*row) for blk in cli.iter_blocks(f, 16384)
            for row in state.feed(blk, cli.dyadic_checkpoints(10000))]
    assert state.n_done == 16384
    prefix = str(tmp_path / "part")
    with open(prefix + ".state.json", "w") as fh:
        json.dump({"config_hash": chash, "snapshot": state.snapshot(), "rows": rows}, fh)
    with open(prefix + ".csv", "w") as fh:
        fh.write("left as it was\n")
    code = cli.main([*argv, "--out", prefix, "--resume"])
    err = capsys.readouterr().err
    assert code == 1
    assert "stops at 16384, past --n 10000" in err and "rerun without --resume" in err
    with open(prefix + ".csv") as fh:
        assert fh.read() == "left as it was\n"


def test_profile_resume_refuses_a_state_of_other_value_modes(tmp_path, capsys):
    """A state file with the right config_hash whose snapshot flips the
    spec's exact flag exits 1: its scan would not be the spec's."""
    argv = ["profile", "--spec", "char:q=4,index=1", "--n", "4096"]
    code, full_prefix = run(tmp_path / "full", *argv)
    assert code == 0
    with open(full_prefix + ".json") as fh:
        chash = json.load(fh)["config_hash"]
    snapshot = cli.ProfileState(exact=False, real=True).snapshot()
    prefix = str(tmp_path / "part")
    with open(prefix + ".state.json", "w") as fh:
        json.dump({"config_hash": chash, "snapshot": snapshot, "rows": []}, fh)
    code = cli.main([*argv, "--out", prefix, "--resume"])
    err = capsys.readouterr().err
    assert code == 1
    assert "value modes" in err and "rerun without --resume" in err


def test_modchar_growth_rows(tmp_path):
    code, prefix = run(tmp_path, "modchar-growth", "--q", "4", "--r", "3",
                       "--z", "1", "--n", "4096")
    assert code == 0
    with open(prefix + ".json") as fh:
        rec = json.load(fh)
    assert rec["columns"][-1] == "slope"
    assert rec["config"] == "char:q=4,index=1;except=3~1.0~0.0"
    slopes = {row[-1] for row in rec["rows"]}
    assert len(slopes) == 1  # one fitted slope, repeated per row


def test_witness_rotation_row(tmp_path):
    code, prefix = run(tmp_path, "witness-rotation", "--q", "4",
                       "--flips", "5~0~1", "--H", "4", "--plan", "5~1~1")
    assert code == 0
    with open(prefix + ".json") as fh:
        rec = json.load(fh)
    row = dict(zip(rec["columns"], rec["rows"][0]))
    assert row["re_measured"] == 1 and row["im_measured"] == -1
    assert row["re_predicted"] == 1 and row["im_predicted"] == -1
    assert row["ok"] == 1


def test_witness_rotation_window_refusals(tmp_path, capsys):
    rotation = ["witness-rotation", "--q", "4", "--index", "1", "--flips", "5~0~1",
                "--H", "4", "--plan", "5~1~1"]
    code, _ = run(tmp_path, *rotation, "--modulus", "primorial", "--w", "5")
    assert code == 1  # plan prime 5 divides W = (2*3*5)^5
    assert "plan prime 5 divides the window modulus" in capsys.readouterr().err
    code, _ = run(tmp_path, *rotation, "--w", "7")
    assert code == 1  # w without the primorial modulus
    assert "primorial" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["witness-rotation", "--q", "4", "--index", "1", "--flips", "{}", "--H", "4",
     "--plan", "5~1~1"],
    ["sf-pair", "--q", "5", "--flips", "7~1,{},11~-1", "--H", "6",
     "--primes", "7,11", "--residues", "1,6"],
])
@pytest.mark.parametrize("flips", ["5~1,5~0~1", "5~0~1,5~1"])
def test_flips_refuse_a_prime_given_twice(tmp_path, capsys, argv, flips):
    """--flips refuses a repeated prime in either order, as except= does:
    5~1,5~0~1 used to drop the 5~1 and run with f(5) = i, and the reverse
    order failed with an unrelated error."""
    code, prefix = run(tmp_path, *[a.format(flips) for a in argv])
    assert code == 1
    assert "flip prime 5 given twice" in capsys.readouterr().err
    assert not os.path.exists(prefix + ".csv")


def test_random_mc_refuses_a_seed_given_twice(tmp_path, capsys):
    """--seeds 1,1 used to write two sup_seed1 columns and count seed 1 twice
    in the median."""
    code, prefix = run(tmp_path, "random-mc", "--seeds", "3,1,2,1", "--n", "1000")
    assert code == 1
    assert "seed 1 given twice" in capsys.readouterr().err
    assert not os.path.exists(prefix + ".csv")


@pytest.mark.parametrize("seeds, named", [
    ("5,18446744073709551621", "seeds 5 and 18446744073709551621"),
    ("-1,18446744073709551615", "seeds -1 and 18446744073709551615"),
])
def test_random_mc_refuses_seeds_equal_mod_2_64(tmp_path, capsys, seeds, named):
    """Signs are keyed by the seed mod 2^64: such seeds used to write two
    identical sup_seed columns and count one walk twice in the median."""
    code, prefix = run(tmp_path, "random-mc", f"--seeds={seeds}", "--n", "1000")
    assert code == 1
    assert named in capsys.readouterr().err
    assert not os.path.exists(prefix + ".csv")


def test_windows_past_factor_limit_refused(tmp_path, capsys):
    """Both window commands refuse H = 13, whose W = (13!)^2 puts the first
    window past FACTOR_LIMIT, with exit 1 and H and W on stderr."""
    for argv in (
        ["witness-rotation", "--q", "4", "--index", "1", "--flips", "17~0~1",
         "--H", "13", "--plan", "17~1~1"],
        ["sf-pair", "--q", "5", "--flips", "5~1,17~1,19~-1", "--H", "13",
         "--primes", "17,19", "--residues", "1,6"],
    ):
        code, prefix = run(tmp_path, *argv)
        assert code == 1
        err = capsys.readouterr().err
        assert "passes FACTOR_LIMIT" in err, err
        assert "H=13, W = (H!)^2 = 38775788043632640000" in err, err
        assert not os.path.exists(prefix + ".csv")


def test_sf_pair_row(tmp_path):
    code, prefix = run(tmp_path, "sf-pair", "--q", "5",
                       "--flips", "5~1,7~1,11~-1", "--H", "6",
                       "--primes", "7,11", "--residues", "1,6")
    assert code == 0
    with open(prefix + ".json") as fh:
        rec = json.load(fh)
    row = dict(zip(rec["columns"], rec["rows"][0]))
    assert row["m"] == 262278863 and row["m_prime"] == 33444951945
    assert row["re_measured"] == 4 and row["sign"] == 1 and row["ok"] == 1


def test_series_check_rows(tmp_path):
    code, prefix = run(tmp_path, "series-check", "--q", "5", "--flip", "2",
                       "--s", "2,0", "--n", "100000")
    assert code == 0
    with open(prefix + ".json") as fh:
        rec = json.load(fh)
    row = dict(zip(rec["columns"], rec["rows"][0]))
    assert row["residual"] <= 1e-4


def test_random_mc_columns(tmp_path):
    code, prefix = run(tmp_path, "random-mc", "--seeds", "3", "--n", "1000")
    assert code == 0
    with open(prefix + ".json") as fh:
        rec = json.load(fh)
    assert rec["columns"] == ["x", "median_sup", "sup_seed0", "sup_seed1",
                              "sup_seed2"]
    assert [int(r[0]) for r in rec["rows"]] == [1, 10, 100, 1000]


def test_mean_value_and_concentration_and_zero_scan(tmp_path):
    code, prefix = run(tmp_path, "mean-value", "--spec", "one;except=2~0.5~0",
                       "--x", "10000")
    assert code == 0
    with open(prefix + ".json") as fh:
        rec = json.load(fh)
    row = dict(zip(rec["columns"], rec["rows"][0]))
    assert abs(row["re_predicted"] - 2 / 3) < 1e-12
    assert row["gap"] < 1e-3

    code, prefix = run(tmp_path, "concentration", "--spec", "char:q=4,index=1",
                       "--q", "4", "--Q", "4", "--a", "1", "--x", "2000")
    assert code == 0
    with open(prefix + ".json") as fh:
        rec = json.load(fh)
    row = dict(zip(rec["columns"], rec["rows"][0]))
    assert row["deviation"] == 0

    code, prefix = run(tmp_path, "zero-scan", "--q", "4", "--r", "3",
                       "--z", "-1", "--M", "50")
    assert code == 0
    with open(prefix + ".json") as fh:
        rec = json.load(fh)
    row = dict(zip(rec["columns"], rec["rows"][0]))
    assert row["first_m"] == -1  # z = chi(3): every window sum vanishes


def test_zero_scan_hit(tmp_path):
    """z = 1 at r = 3 makes the first block sum nonzero: Sigma(4) = 2, the
    sum of the modified character over 1..4 from the sieve."""
    code, prefix = run(tmp_path, "zero-scan", "--q", "4", "--index", "1", "--r", "3",
                       "--z", "1", "--M", "50")
    assert code == 0
    with open(prefix + ".csv", "rb") as fh:
        assert fh.read() == b"M,first_m,first_A,re_sigma,im_sigma\n50,1,4,2,0\n"
    spec = multsum.modified_spec(multsum.character_by_index(4, 1), 3, 1)
    assert np.cumsum(multsum.eval_range(spec, 4).values)[4] == 2


def test_character_index_grammar_is_the_spec_one(tmp_path):
    """--index takes "real" in any case, as the spec grammar's index= does,
    and writes the row of --index real."""
    records = []
    for index in ("real", "Real"):
        code, prefix = run(tmp_path / index, "zero-scan", "--q", "5", "--index", index,
                           "--r", "3", "--z", "1", "--M", "50")
        assert code == 0
        with open(prefix + ".json") as fh:
            records.append(json.load(fh))
    want, got = records
    assert got["rows"] == want["rows"] and got["config"] == want["config"]


def test_plain_real_z_is_the_named_one(tmp_path):
    """--z -1.0 (a plain real number) writes the row of --z -1."""
    rows = []
    for z in ("-1", "-1.0"):
        code, prefix = run(tmp_path / z, "zero-scan", "--q", "5", "--index", "1",
                           "--r", "3", "--z", z, "--M", "50")
        assert code == 0
        with open(prefix + ".csv", "rb") as fh:
            rows.append(fh.read())
    assert rows[0] == rows[1]


# argv atoms for the parser fuzz: numbers the parsers must refuse or take,
# words, an empty field, a plan entry, and a count past every capacity bound
FUZZ_ATOMS = ["0", "-1", "5", "1.5", "inf", "nan", "1e400", "", "a", "17~1~1",
              "4000000000000000001"]
FUZZ_OPTIONS = {
    "profile": ["--spec", "--n", "--checkpoints"],
    "witness-rotation": ["--q", "--index", "--flips", "--H", "--plan", "--w",
                         "--scan-limit"],
    "sf-pair": ["--q", "--index", "--flips", "--H", "--primes", "--residues",
                "--scan-limit"],
    "random-mc": ["--seeds", "--scale-r", "--n", "--checkpoints"],
}


@st.composite
def fuzz_argv(draw):
    cmd = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [cmd]
    for opt in FUZZ_OPTIONS[cmd]:
        if draw(st.booleans()):
            sep = draw(st.sampled_from([",", "~"]))
            argv += [opt, sep.join(draw(st.lists(st.sampled_from(FUZZ_ATOMS),
                                                 min_size=1, max_size=3)))]
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=fuzz_argv())
@example(argv=["random-mc", "--seeds", "4000000000000000001", "--n", "100"])
@example(argv=["witness-rotation", "--q", "5", "--flips", "17~1",
               "--H", "4000000000000000001", "--plan", "17~1~1"])
@example(argv=["witness-rotation", "--q", "5", "--flips", "17~1", "--H", "5",
               "--plan", "17~4000000000000000001~1"])
def test_cli_parsers_fuzz(tmp_path, argv):
    """Every argv either runs (0), fails cleanly (1) or is a usage error
    (SystemExit 2); no other exception escapes cli.main."""
    try:
        code = cli.main([*argv, "--out", str(tmp_path / "fuzz")])
    except SystemExit as exc:
        assert exc.code == 2, argv
    else:
        assert code in (0, 1), argv
