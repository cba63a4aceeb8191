"""End-to-end tests for the command-line harness."""

from __future__ import annotations

import collections
import concurrent.futures
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from random import Random

import pytest

import cyclosum.cli
import cyclosum.identities
import cyclosum.spectral
from cyclosum.cli import CampaignConfig, _exit_code, cmd_verify, main
from cyclosum.exact import cyc_context
from cyclosum.identities import (
    IDENTITY_IDS,
    STATEMENTS,
    VerificationReport,
    random_distinct_rationals,
    verify_eei,
    verify_eq1_1,
    verify_eq1_2,
    verify_eq1_3,
    verify_eq2_3_liu,
    verify_eq2_4,
    verify_eq3_1,
    verify_lemma3_2,
    verify_thm2_1,
    verify_thm3_1,
)
from cyclosum.matrices import (
    CapExceededError,
    build_sun_matrix,
    save_matrix,
)
from cyclosum.spectral import ConvergenceError
from oracles import identity_matrix


def run_campaign(tmp_path, name, *argv):
    out = tmp_path / name
    code = main(["verify", "--output", str(out), *argv])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return code, records


# --- verify -----------------------------------------------------------------


def test_campaign_single_identity(tmp_path):
    code, records = run_campaign(
        tmp_path,
        "lemma.jsonl",
        "--identities", "lemma3_2",
        "--n", "3..7",
        "--trials", "5",
        "--seed", "42",
        "--jobs", "1",
    )
    assert code == 0
    assert len(records) == 25
    assert all(r["verdict"] == "pass" for r in records)
    assert {r["n"] for r in records} == {3, 4, 5, 6, 7}


def test_campaign_deterministic_identities(tmp_path):
    code, records = run_campaign(
        tmp_path,
        "det.jsonl",
        "--identities", "eq1_1,eq1_2,eq1_3",
        "--n", "2..10",
        "--jobs", "2",
    )
    assert code == 0
    by_id = {}
    for r in records:
        by_id.setdefault(r["identity_id"], []).append(r)
    assert [r["n"] for r in by_id["eq1_1"] if r["verdict"] == "pass"] == [2, 4, 6, 8, 10]
    assert [r["n"] for r in by_id["eq1_2"] if r["verdict"] == "pass"] == [3, 5, 7, 9]
    assert [r["n"] for r in by_id["eq1_3"] if r["verdict"] == "pass"] == [3, 5, 7, 9]
    assert all(r["verdict"] in ("pass", "skipped") for r in records)


def test_campaign_output_is_sorted_and_seeded(tmp_path):
    code, records = run_campaign(
        tmp_path,
        "sorted.jsonl",
        "--identities", "eq3_1,lemma3_2",
        "--n", "2..5",
        "--trials", "2",
        "--seed", "9",
        "--jobs", "1",
    )
    assert code == 0
    keys = [
        (r["identity_id"], r["n"], r["parameters"].get("trial", 0)) for r in records
    ]
    assert keys == sorted(keys)
    skips = [r for r in records if r["verdict"] == "skipped"]
    assert {(r["identity_id"], r["n"]) for r in skips} == {
        ("eq3_1", 2), ("eq3_1", 4), ("lemma3_2", 2)
    }
    assert all(r["notes"] for r in skips)


def test_campaign_byte_determinism(tmp_path):
    argv = [
        "--identities", "lemma3_2,eei",
        "--n", "3..5",
        "--trials", "3",
        "--seed", "123",
    ]
    main(["verify", "--output", str(tmp_path / "a.jsonl"), "--jobs", "1", *argv])
    main(["verify", "--output", str(tmp_path / "b.jsonl"), "--jobs", "1", *argv])
    main(["verify", "--output", str(tmp_path / "c.jsonl"), "--jobs", "3", *argv])
    a = (tmp_path / "a.jsonl").read_bytes()
    assert a == (tmp_path / "b.jsonl").read_bytes()
    assert a == (tmp_path / "c.jsonl").read_bytes()


def test_fixed_campaign_exact_records_are_pinned(capsys):
    # The exact records are platform-independent, so their bytes are pinned;
    # eei's float residuals are not, so only its verdicts are.
    argv = ["verify", "--n", "2..9", "--trials", "2", "--seed", "0", "--jobs", "1"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    assert len(records) == 121
    assert [r["verdict"] for r in records if r["identity_id"] == "eei"] == ["pass"] * 16
    exact = "".join(line for line, r in zip(lines, records) if r["identity_id"] != "eei")
    assert hashlib.sha256(exact.encode()).hexdigest() == (
        "99bfa234938752be92a3506fdb825434f39e6b26a2e0f9d378b040c6754b55ed"
    )


def test_cap_campaign_exact_records_are_pinned(capsys):
    # Both caps below their defaults: the run covers every statement's skip
    # note, "l=... exceeds enumeration cap 7" and "dimension ... exceeds
    # permanent cap 9".
    argv = ["verify", "--n", "0..12", "--trials", "3", "--seed", "5", "--jobs", "1",
            "--permanent-cap", "9", "--enumeration-cap", "7"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    exact = [line for line, r in zip(lines, records) if r["identity_id"] != "eei"]
    assert len(exact) == 186
    notes = {r["notes"] for r in records if r["verdict"] == "skipped"}
    assert {s.note for s in STATEMENTS.values()} < notes
    assert {"l=8 exceeds enumeration cap 7",
            "dimension 10 exceeds permanent cap 9"} < notes
    assert hashlib.sha256("".join(exact).encode()).hexdigest() == (
        "cb4b4ba37be20dd6e4bd53000da058cf7c142e4423e3b904eb71875298264acd"
    )


def test_campaign_tol_reaches_only_eei(tmp_path):
    argv = ["--identities", "thm2_1,eq2_4,eq2_3_liu,eei", "--n", "2..5",
            "--trials", "1", "--jobs", "1"]
    _, default = run_campaign(tmp_path, "default.jsonl", *argv)
    _, loose = run_campaign(tmp_path, "loose.jsonl", *argv, "--tol", "1e-3")
    pairs = list(zip(default, loose))
    assert len(pairs) == 16
    for a, b in pairs:
        if a["identity_id"] == "eei":
            assert (a["parameters"]["tol"], b["parameters"]["tol"]) == (1e-8, 1e-3)
        else:
            assert a == b
            assert a["verdict"] == "skipped" or a["parameters"]["tol"] == 0.0


def test_thm3_1_skips_orders_below_two(tmp_path):
    code, records = run_campaign(
        tmp_path, "small.jsonl",
        "--identities", "thm3_1_odd,thm3_1_even", "--n", "0..2", "--jobs", "1",
    )
    assert code == 0
    small = [(r["identity_id"], r["n"], r["verdict"], r["notes"])
             for r in records if r["n"] < 2]
    assert small == [(ident, n, "skipped", "needs n >= 2")
                     for ident in ("thm3_1_even", "thm3_1_odd") for n in (0, 1)]
    assert {r["verdict"] for r in records} <= {"pass", "skipped"}


def test_campaign_different_seeds_differ(tmp_path):
    _, first = run_campaign(
        tmp_path, "s1.jsonl",
        "--identities", "lemma3_2", "--n", "5", "--seed", "1", "--jobs", "1",
    )
    _, second = run_campaign(
        tmp_path, "s2.jsonl",
        "--identities", "lemma3_2", "--n", "5", "--seed", "2", "--jobs", "1",
    )
    assert first != second


def test_campaign_formats_agree(tmp_path, capsys):
    import csv as csv_module

    argv = ["--identities", "eq1_2", "--n", "3..6", "--seed", "0", "--jobs", "1"]
    code, records = run_campaign(tmp_path, "base.jsonl", *argv)
    assert code == 0

    assert main(["verify", "--format", "csv", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = list(csv_module.reader(lines))
    header, data = rows[0], rows[1:]
    assert header == ["identity_id", "n", "parameters", "lhs", "rhs", "verdict", "notes"]
    assert len(data) == len(records)
    for row, record in zip(data, records):
        assert row[0] == record["identity_id"]
        assert int(row[1]) == record["n"]
        assert json.loads(row[2]) == record["parameters"]
        assert row[3] == str(record["lhs"])
        assert row[5] == record["verdict"]

    assert main(["verify", "--format", "pretty", *argv]) == 0
    pretty = capsys.readouterr().out
    assert pretty.splitlines()[0].startswith("identity_id")


def test_campaign_timing_flag(tmp_path):
    code, records = run_campaign(
        tmp_path, "timed.jsonl",
        "--identities", "eq1_2", "--n", "3", "--timing", "--jobs", "1",
    )
    assert code == 0
    assert all("elapsed" in r for r in records)
    code, records = run_campaign(
        tmp_path, "untimed.jsonl",
        "--identities", "eq1_2", "--n", "3", "--jobs", "1",
    )
    assert all("elapsed" not in r for r in records)


PRETTY_UNTIMED = (
    "identity_id  n  verdict  lhs   rhs   notes\n"
    "eq1_2        3  pass     1/3   1/3   minors from deleting index n and index 1 agree\n"
    "eq1_2        4  skipped              needs odd n >= 3\n"
    "eq1_3        3  pass     -1/3  -1/3\n"
    "eq1_3        4  skipped              needs odd n >= 3\n"
)


def test_pretty_table_without_timing_is_unchanged(capsys):
    argv = ["verify", "--identities", "eq1_2,eq1_3", "--n", "3..4", "--jobs", "1"]
    assert main([*argv, "--format", "pretty"]) == 0
    assert capsys.readouterr().out == PRETTY_UNTIMED


def test_pretty_table_with_timing_has_elapsed_column(capsys):
    argv = ["verify", "--identities", "eq1_2,eq1_3", "--n", "3..4", "--jobs", "1"]
    assert main([*argv, "--format", "pretty", "--timing"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == [
        "identity_id", "n", "verdict", "lhs", "rhs", "elapsed_ms", "notes"
    ]
    start = lines[0].index("elapsed_ms")
    for line in lines[1:]:
        elapsed = float(line[start:].split()[0])
        assert elapsed >= 0.0
    skipped = [line for line in lines if "skipped" in line]
    assert all(line[start:].split()[0] == "0.000" for line in skipped)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_campaign_item_error_becomes_record(tmp_path, monkeypatch, capfd, jobs):
    # An eq2_3_liu item that raises must still leave the eq1_3 pass at the
    # same n in the output; forked workers inherit the patched function.
    def no_convergence(n):
        raise ConvergenceError(f"Jacobi sweeps did not converge within {n}")

    monkeypatch.setattr(cyclosum.identities, "verify_eq2_3_liu", no_convergence)
    code, records = run_campaign(
        tmp_path, "errors.jsonl",
        "--identities", "eq1_3,eq2_3_liu", "--n", "21..21", "--jobs", jobs,
    )
    assert code == 4
    assert [(r["identity_id"], r["verdict"]) for r in records] == [
        ("eq1_3", "pass"), ("eq2_3_liu", "error")
    ]
    error = records[1]
    assert error["lhs"] == "" and error["rhs"] == ""
    assert error["notes"] == "ConvergenceError: Jacobi sweeps did not converge within 21"
    assert "eq2_3_liu n=21" in capfd.readouterr().err


def test_campaign_cap_error_exits_3(tmp_path, monkeypatch, capsys):
    def over_cap(n):
        raise CapExceededError(f"dimension {n} exceeds permanent cap 1")

    monkeypatch.setattr(cyclosum.identities, "verify_eq1_3", over_cap)
    code, records = run_campaign(
        tmp_path, "capped.jsonl",
        "--identities", "eq1_2,eq1_3", "--n", "3", "--jobs", "1",
    )
    assert code == 3
    assert [r["verdict"] for r in records] == ["pass", "error"]
    assert records[1]["notes"] == "CapExceededError: dimension 3 exceeds permanent cap 1"
    capsys.readouterr()


def test_campaign_timing_ends_every_record_with_elapsed(tmp_path, monkeypatch, capfd):
    # The campaign times each item, so an error record from a worker carries
    # elapsed as well as the passes and the skips do.
    def broken(n):
        raise RuntimeError("broken")

    monkeypatch.setattr(cyclosum.identities, "verify_eq2_3_liu", broken)
    code, records = run_campaign(
        tmp_path, "timed.jsonl",
        "--identities", "eq1_3,eq2_3_liu", "--n", "3..4", "--timing", "--jobs", "2",
    )
    assert code == 4
    assert [(r["identity_id"], r["verdict"]) for r in records] == [
        ("eq1_3", "pass"), ("eq1_3", "skipped"),
        ("eq2_3_liu", "error"), ("eq2_3_liu", "skipped"),
    ]
    fields = ["identity_id", "n", "parameters", "lhs", "rhs", "verdict", "notes"]
    for r in records:
        assert list(r) == fields + ["elapsed"]
        assert isinstance(r["elapsed"], float) and r["elapsed"] >= 0.0
    assert records[1]["elapsed"] == records[3]["elapsed"] == 0.0
    capfd.readouterr()


@pytest.mark.parametrize(
    "jobs,identities,workers", [("8", "eq1_3,eq1_2", 2), ("2", "eq1_3,eq1_2,eq2_4", 2)]
)
def test_campaign_pool_is_no_larger_than_the_work(
    tmp_path, monkeypatch, jobs, identities, workers
):
    # Under fork the pool starts every worker up front, so it must be sized
    # to the work items; a serial stand-in records the size asked for.
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            return map(fn, work)

    argv = ["--identities", identities, "--n", "3..3"]
    _, serial = run_campaign(tmp_path, "serial.jsonl", *argv, "--jobs", "1")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    code, pooled = run_campaign(tmp_path, "pooled.jsonl", *argv, "--jobs", jobs)
    assert code == 0
    assert sizes == [workers]
    assert pooled == serial


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # Only a campaign with --jobs above 1 starts a pool, so a serial run
    # must not pay for loading one.
    src = os.path.dirname(os.path.dirname(cyclosum.cli.__file__))
    probe = "import sys, cyclosum.cli; print('concurrent.futures.process' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def _verify_outside(identity, n):
    rng = Random(n)
    xs = random_distinct_rationals(n, rng)
    return {
        "eq1_1": lambda: verify_eq1_1(n),
        "eq1_2": lambda: verify_eq1_2(n),
        "eq1_3": lambda: verify_eq1_3(n),
        "lemma3_2": lambda: verify_lemma3_2(n, xs),
        "eq3_1": lambda: verify_eq3_1(n, xs),
        "thm3_1_odd": lambda: verify_thm3_1(n, []),
        "thm3_1_even": lambda: verify_thm3_1(n, []),
        "eq2_3_liu": lambda: verify_eq2_3_liu(n),
        "eq2_4": lambda: verify_eq2_4(n),
        "thm2_1": lambda: verify_thm2_1(n),
        "eei": lambda: verify_eei(n, rng=rng),
    }[identity]()


@pytest.mark.parametrize("identity", list(STATEMENTS))
def test_library_and_campaign_agree_on_each_domain(identity):
    # Outside a statement the library raises with the statement's note and the
    # campaign skips with it; lemma3_2 keeps its own l >= 2 check and still
    # reports l = 2, as the counterexample.
    statement = STATEMENTS[identity]
    cfg = CampaignConfig((identity,), (-1, statement.least + 1))
    outside = [n for n in range(-1, statement.least + 2) if not statement.covers(n)]
    assert outside
    for n in outside:
        assert statement.skip_reason(n, cfg) == statement.note
        if (identity, n) == ("lemma3_2", 2):
            assert _verify_outside(identity, n).verdict == "fail"
        else:
            note = "need l >= 2" if identity == "lemma3_2" else statement.note
            with pytest.raises(ValueError, match=re.escape(note)):
                _verify_outside(identity, n)


def test_campaign_looks_each_verify_function_up_when_it_runs(monkeypatch, tmp_path):
    # The benchmark's tracer replaces the verify functions on the identities
    # module, so the statement table must call them by name, not hold them.
    calls = collections.Counter()
    names = [name for name in vars(cyclosum.identities) if name.startswith("verify_")]
    for name in names:
        def counted(*args, _verify=getattr(cyclosum.identities, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _verify(*args, **kwargs)

        monkeypatch.setattr(cyclosum.identities, name, counted)
    out = str(tmp_path / "all.jsonl")
    assert cmd_verify(CampaignConfig(IDENTITY_IDS, (2, 5), trials=1, jobs=1, output=out)) == 0
    assert len(names) == 10
    assert sorted(calls) == sorted(names)


@pytest.mark.parametrize(
    "identity,n,permanent_cap,enumeration_cap,note",
    [
        # eq1_1 takes the n x n permanent.
        ("eq1_1", 8, 8, 1, None),
        ("eq1_1", 8, 7, 1, "dimension 8 exceeds permanent cap 7"),
        # eq1_2 takes the permanent of the (n-1)-minor.
        ("eq1_2", 11, 10, 1, None),
        ("eq1_2", 11, 9, 1, "dimension 10 exceeds permanent cap 9"),
        # eq3_1 takes an l x l permanent and the subset DPs over l labels;
        # past both caps the enumeration cap's note wins.
        ("eq3_1", 7, 7, 7, None),
        ("eq3_1", 7, 6, 7, "dimension 7 exceeds permanent cap 6"),
        ("eq3_1", 7, 7, 6, "l=7 exceeds enumeration cap 6"),
        ("eq3_1", 7, 6, 6, "l=7 exceeds enumeration cap 6"),
        ("lemma3_2", 7, 1, 7, None),
        ("lemma3_2", 7, 1, 6, "l=7 exceeds enumeration cap 6"),
        # thm3_1 needs one deletion size k whose l = n - k has its parity and
        # fits the cap: at n = 2 only k = 0, at n = 5 the least even l is 2.
        ("thm3_1_even", 2, 2, 1, None),
        ("thm3_1_even", 2, 1, 1, "no deletion size gives even l within the cap"),
        ("thm3_1_even", 5, 2, 1, None),
        ("thm3_1_even", 5, 1, 1, "no deletion size gives even l within the cap"),
        ("thm3_1_odd", 4, 1, 1, None),
        ("thm3_1_odd", 2, 16, 11, "no deletion size gives odd l within the cap"),
        # The other statements run no permanent and no subset DP.
        ("eq1_3", 101, 1, 1, None),
        ("eq2_3_liu", 101, 1, 1, None),
        ("eq2_4", 101, 1, 1, None),
        ("thm2_1", 101, 1, 1, None),
        ("eei", 101, 1, 1, None),
    ],
)
def test_skip_reason_at_each_cap_boundary(identity, n, permanent_cap, enumeration_cap, note):
    cfg = CampaignConfig((identity,), (n, n), permanent_cap=permanent_cap,
                         enumeration_cap=enumeration_cap)
    assert STATEMENTS[identity].skip_reason(n, cfg) == note


def _report(verdict, notes=""):
    return VerificationReport("eq1_3", 3, {}, "", "", verdict, notes)


@pytest.mark.parametrize(
    "verdicts,code",
    [
        ([("pass", ""), ("skipped", ""), ("inconclusive", "")], 0),
        ([("pass", ""), ("fail", "")], 1),
        ([("fail", ""), ("error", "CapExceededError: over")], 3),
        ([("error", "CapExceededError: over"), ("error", "ValueError: bad"),
          ("fail", "")], 4),
    ],
)
def test_campaign_exit_code_is_worst_outcome(verdicts, code):
    assert _exit_code([_report(v, notes) for v, notes in verdicts]) == code


def test_campaign_enumeration_cap_takes_effect(tmp_path):
    argv = ["--identities", "thm3_1_odd,thm3_1_even,lemma3_2", "--n", "2..7",
            "--jobs", "1"]
    _, default = run_campaign(tmp_path, "default.jsonl", *argv)
    code, capped = run_campaign(
        tmp_path, "capped.jsonl", *argv, "--enumeration-cap", "3"
    )
    assert code == 0
    assert capped != default
    lemma = {r["n"]: r["verdict"] for r in capped if r["identity_id"] == "lemma3_2"}
    assert lemma == {2: "skipped", 3: "pass", 4: "skipped", 5: "skipped",
                     6: "skipped", 7: "skipped"}
    skips = [r["notes"] for r in capped
             if r["identity_id"] == "lemma3_2" and r["n"] > 3]
    assert skips == [f"l={n} exceeds enumeration cap 3" for n in range(4, 8)]


def test_campaign_permanent_cap_alone_bounds_thm3_1(tmp_path):
    # thm3_1 takes the permanent route only, so the enumeration cap (11 by
    # default) does not extend it: with a permanent cap of 2 the one
    # deletion left at n = 3 is k = 2, l = 1.
    argv = ["--identities", "thm3_1_odd", "--n", "3", "--trials", "1", "--jobs", "1"]
    for cap, l in (("2", 1), ("3", 3)):
        _, records = run_campaign(tmp_path, f"cap{cap}.jsonl", *argv,
                                  "--permanent-cap", cap)
        assert [(r["verdict"], r["parameters"]["l"]) for r in records] == [("pass", l)]


def test_campaign_permanent_cap_bounds_eq3_1(tmp_path):
    # eq3_1's lhs is an l x l permanent, so l past --permanent-cap is
    # skipped, even within the enumeration cap.
    _, records = run_campaign(tmp_path, "eq3_1.jsonl", "--identities", "eq3_1",
                              "--n", "3..7", "--trials", "1", "--permanent-cap", "5",
                              "--jobs", "1")
    assert [(r["n"], r["verdict"], r["notes"]) for r in records] == [
        (3, "pass", "both sides vanish"),
        (4, "skipped", "needs odd l >= 3"),
        (5, "pass", "both sides vanish"),
        (6, "skipped", "needs odd l >= 3"),
        (7, "skipped", "dimension 7 exceeds permanent cap 5"),
    ]


def test_campaign_jobs_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CYCLOSUM_JOBS", "2")
    code, records = run_campaign(
        tmp_path, "env.jsonl", "--identities", "eq1_3", "--n", "3..5",
    )
    assert code == 0
    assert len(records) == 3


def test_campaign_usage_errors(capsys):
    assert main(["verify", "--n", "10..2"]) == 2
    assert main(["verify", "--identities", "bogus", "--n", "3"]) == 2
    assert main(["verify", "--identities", "eq1_1", "--n", "abc"]) == 2
    assert main(["verify", "--identities", "eq1_1", "--n", "4", "--trials", "0"]) == 2
    assert main(["verify", "--identities", "eq1_1", "--n", "4", "--tol", "-1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_meaningless_tolerance_is_a_usage_error(tol, capsys):
    assert main(["verify", "--identities", "eei", "--n", "3", "--tol", tol]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("tol must be finite and positive") == 1


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_campaign_rejects_nonpositive_jobs(jobs, capsys):
    assert main(["verify", "--identities", "eq1_3", "--n", "3", "--jobs", jobs]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "jobs must be positive" in err


@pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5"])
def test_campaign_rejects_bad_jobs_env(env, monkeypatch, capsys):
    monkeypatch.setenv("CYCLOSUM_JOBS", env)
    assert main(["verify", "--identities", "eq1_3", "--n", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "CYCLOSUM_JOBS must be a positive integer" in err


def test_campaign_rejects_duplicate_identities(capsys):
    argv = ["verify", "--identities", "eq1_3,eei,eq1_3", "--n", "3..3", "--jobs", "1"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: duplicate identities: eq1_3\n"


def test_campaign_unwritable_output(tmp_path):
    code = main([
        "verify", "--identities", "eq1_2", "--n", "3",
        "--output", str(tmp_path / "missing" / "out.jsonl"), "--jobs", "1",
    ])
    assert code == 2


def test_campaign_cap_skips_large_orders(tmp_path):
    code, records = run_campaign(
        tmp_path, "capped.jsonl",
        "--identities", "eq1_1", "--n", "4..6", "--permanent-cap", "4", "--jobs", "1",
    )
    assert code == 0
    verdicts = {r["n"]: r["verdict"] for r in records}
    assert verdicts == {4: "pass", 5: "skipped", 6: "skipped"}


def test_config_validation_direct():
    with pytest.raises(ValueError):
        CampaignConfig(("eq1_1",), (3, 2)).validate()
    with pytest.raises(ValueError):
        CampaignConfig((), (2, 3)).validate()
    with pytest.raises(ValueError):
        CampaignConfig(("eq1_1",), (2, 3), format="yaml").validate()
    CampaignConfig(("eq1_1",), (2, 3)).validate()
    assert cmd_verify(CampaignConfig(("nope",), (2, 3))) == 2


# --- compute ------------------------------------------------------------------


def test_compute_determinant(tmp_path, capsys):
    path = tmp_path / "eye.json"
    save_matrix(identity_matrix(cyc_context(5), 3), path)
    assert main(["compute", "det", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_compute_permanent(tmp_path, capsys):
    path = tmp_path / "sun2.json"
    save_matrix(build_sun_matrix(cyc_context(2)), path)
    assert main(["compute", "per", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "1/4"


def test_compute_derangement_sums(tmp_path, capsys):
    from cyclosum import delete_rows_cols

    path = tmp_path / "sun3minor.json"
    save_matrix(delete_rows_cols(build_sun_matrix(cyc_context(3)), {3}), path)
    assert main(["compute", "derangement-sums", str(path)]) == 0
    out = dict(
        line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
    )
    assert out["total"] == "1/3"
    assert out["even_class"] == "0"
    assert out["odd_class"] == "1/3"
    assert out["signed"] == "-1/3"


def test_compute_cap_exit(tmp_path, capsys):
    path = tmp_path / "big.json"
    save_matrix(identity_matrix(cyc_context(2), 17), path)
    assert main(["compute", "per", str(path)]) == 3
    assert main(["compute", "per", str(path), "--permanent-cap", "17"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_compute_rejects_nonpositive_permanent_cap(tmp_path, capsys, cap):
    path = tmp_path / "sun2.json"
    save_matrix(build_sun_matrix(cyc_context(2)), path)
    for kind in ("per", "derangement-sums"):
        assert main(["compute", kind, str(path), "--permanent-cap", cap]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "caps must be positive" in err


def test_compute_bad_inputs(tmp_path, capsys):
    assert main(["compute", "det", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{\"n\": 3}")
    assert main(["compute", "det", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "text",
    [
        '{"n": null, "dim": 1, "entries": [["3:[1/1,0/1]"]]}',
        '{"n": 3, "dim": 1, "entries": 5}',
        '[{"n": 3, "dim": 1, "entries": [["3:[1/1,0/1]"]]}]',
        '{"n": 3, "dim": 1, "entries": [["3:[1/0,0/1]"]]}',
        '{"n": 3, "dim": 1, "entries": [[5]]}',
    ],
    ids=["null-order", "scalar-entries", "top-level-list", "zero-denominator",
         "non-string-entry"],
)
def test_compute_malformed_matrix(tmp_path, capsys, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    assert main(["compute", "det", str(path)]) == 2
    assert "error: cannot load matrix" in capsys.readouterr().err


# --- spectrum -----------------------------------------------------------------


def test_spectrum_full_matrix(capsys):
    assert main(["spectrum", "cp", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "expected: -5 -3 -1 1 3 5" in out
    assert "eigenpairs hold exactly: True" in out


def test_spectrum_full_matrix_exits_1_on_mismatch(monkeypatch, capsys):
    real = cyclosum.spectral.cp_eigenvalues

    def off_by_one(n):
        lam = real(n)
        lam[2] += 1
        return lam

    monkeypatch.setattr(cyclosum.spectral, "cp_eigenvalues", off_by_one)
    assert main(["spectrum", "cp", "--n", "6"]) == 1
    out = capsys.readouterr().out
    assert "eigenpairs hold exactly: False" in out
    assert "failing columns: 3" in out


def test_spectrum_product_matrix(capsys):
    assert main(["spectrum", "liu", "--n", "7"]) == 0
    out = capsys.readouterr().out
    assert "-3 -2 -1 1 2 3" in out
    assert "characteristic polynomial matches: True" in out
    assert "determinant: -36 (expected -36)" in out


def test_spectrum_product_matrix_exits_1_on_mismatch(monkeypatch, capsys):
    real = cyclosum.cli.liu_spectrum_check
    monkeypatch.setattr(
        cyclosum.cli,
        "liu_spectrum_check",
        lambda n: dataclasses.replace(real(n), charpoly_matches=False),
    )
    assert main(["spectrum", "liu", "--n", "7"]) == 1
    assert "characteristic polynomial matches: False" in capsys.readouterr().out


def test_spectrum_minor(capsys):
    assert main(["spectrum", "minor", "--n", "9"]) == 0
    assert "determinant: 16384 (expected 16384)" in capsys.readouterr().out


def test_spectrum_minor_at_order_41(capsys):
    assert main(["spectrum", "minor", "--n", "41"]) == 0
    assert "determinant: " in capsys.readouterr().out


def test_spectrum_minor_exits_1_on_mismatch(monkeypatch, capsys):
    real = cyclosum.cli.cp_minor_determinant
    monkeypatch.setattr(cyclosum.cli, "cp_minor_determinant", lambda n: real(n) + 1)
    assert main(["spectrum", "minor", "--n", "9"]) == 1
    assert "determinant: 16384 (expected 16385)" in capsys.readouterr().out


def test_spectrum_cp_and_minor_make_no_eigensolve(monkeypatch, capsys):
    # Wherever a module holds the eigensolver, calls through it are counted.
    calls = []
    solve = cyclosum.spectral.herm_eigen

    def counting(m, *args, **kwargs):
        calls.append(m.dim)
        return solve(m, *args, **kwargs)

    for mod in (cyclosum.spectral, cyclosum.cli):
        if getattr(mod, "herm_eigen", None) is solve:
            monkeypatch.setattr(mod, "herm_eigen", counting)
    assert main(["spectrum", "cp", "--n", "6"]) == 0
    assert main(["spectrum", "minor", "--n", "9"]) == 0
    assert calls == []
    capsys.readouterr()


def test_spectrum_parity_violations(capsys):
    assert main(["spectrum", "liu", "--n", "6"]) == 2
    assert main(["spectrum", "minor", "--n", "8"]) == 2
    assert main(["spectrum", "cp", "--n", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: target 'liu' needs odd n >= 3",
        "error: target 'minor' needs odd n >= 3",
        "error: target 'cp' needs n >= 2",
    ]


# --- argument plumbing -----------------------------------------------------------


def test_unknown_subcommand_exits_with_usage(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
