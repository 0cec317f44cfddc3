"""End-to-end runs of the command line, pinned by seed."""

import random

import pytest

from linview.cli import main
from linview.gen import linearizable_history
from linview.trace import format_history, parse_history, parse_tuples

MEMBER = "inv 1 1.0 Enq(5)\nres 1 1.0 true\ninv 2 2.0 Deq()\nres 2 2.0 5\n"
NON_MEMBER = "inv 1 1.0 Deq()\nres 1 1.0 5\n"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- check ---------------------------------------------------------------

def test_check_member(tmp_path, capsys):
    f = tmp_path / "m.trace"
    f.write_text(MEMBER)
    rc, out, err = run_cli(capsys, "check", "--spec", "queue",
                           "--trace", str(f))
    assert rc == 0 and err == ""
    assert out.splitlines() == ["p1:Enq(5)#1.0 -> true", "p2:Deq()#2.0 -> 5"]


def test_check_reports_dropped_pendings(tmp_path, capsys):
    f = tmp_path / "p.trace"
    f.write_text("inv 1 1.0 Deq()\n")
    rc, out, _ = run_cli(capsys, "check", "--spec", "queue",
                         "--trace", str(f))
    assert rc == 0
    assert out == "# dropped pending p1:Deq()#1.0\n"


def test_check_non_member(tmp_path, capsys):
    f = tmp_path / "n.trace"
    f.write_text(NON_MEMBER)
    rc, out, _ = run_cli(capsys, "check", "--spec", "queue",
                         "--trace", str(f))
    assert rc == 1
    assert out == "NOT LINEARIZABLE\n"


def test_check_long_trace_is_a_member(tmp_path, capsys):
    h = linearizable_history(random.Random(3), "set", 4, 1_200)
    f = tmp_path / "long.trace"
    f.write_text(format_history(h))
    rc, out, err = run_cli(capsys, "check", "--spec", "set",
                           "--trace", str(f))
    assert rc == 0 and err == ""
    assert len([ln for ln in out.splitlines() if " -> " in ln]) \
        >= len(h.complete_uids())


def test_check_parse_error_names_the_line(tmp_path, capsys):
    f = tmp_path / "bad.trace"
    f.write_text("inv 1 1.0 Enq(5)\nres 1\n")
    rc, _, err = run_cli(capsys, "check", "--spec", "queue",
                         "--trace", str(f))
    assert rc == 2
    assert err.startswith("error: line 2: expected 4 fields")


def test_check_missing_file(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "check", "--spec", "queue",
                         "--trace", str(tmp_path / "absent"))
    assert rc == 2 and "no such file" in err


def test_unknown_spec_is_a_usage_error(tmp_path, capsys):
    f = tmp_path / "m.trace"
    f.write_text(MEMBER)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--spec", "deque", "--trace", str(f)])
    assert exc.value.code == 2


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


# -- xlambda -------------------------------------------------------------

TUPLES = ("tuple 1 1.0 Enq(5) -> true view{1.0}\n"
          "tuple 2 2.0 Deq() -> 5 view{1.0,2.0}\n")


def test_xlambda_rebuilds_a_trace(tmp_path, capsys):
    f = tmp_path / "x.tuples"
    f.write_text(TUPLES)
    rc, out, _ = run_cli(capsys, "xlambda", "--tuples", str(f))
    assert rc == 0
    hist = parse_history(out)
    assert set(hist.ops) == {"1.0", "2.0"}
    assert hist.result_of("2.0") == 5


def test_xlambda_reports_view_violations(tmp_path, capsys):
    f = tmp_path / "bad.tuples"
    f.write_text("tuple 1 1.0 Enq(5) -> true view{2.0}\n"
                 "tuple 2 2.0 Deq() -> 5 view{2.0}\n")
    rc, _, err = run_cli(capsys, "xlambda", "--tuples", str(f))
    assert rc == 1 and "self-inclusion" in err


def test_xlambda_malformed_file(tmp_path, capsys):
    f = tmp_path / "junk.tuples"
    f.write_text("tuple 1 1.0\n")
    rc, _, err = run_cli(capsys, "xlambda", "--tuples", str(f))
    assert rc == 2 and err.startswith("error: line 1:")


# -- enforce -------------------------------------------------------------

def test_enforce_correct_inner_writes_clean_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    rc, text, _ = run_cli(capsys, "enforce", "--spec", "queue",
                          "--seed", "4", "--out", str(out))
    assert rc == 0
    assert "RESULT: SOUND" in text and f"artifacts in {out}/" in text
    for name in ("star.trace", "inner.trace", "outer.trace", "verdicts.txt"):
        assert (out / name).exists()
    lines = (out / "verdicts.txt").read_text().splitlines()
    assert lines and all(ln.endswith(" ok") for ln in lines)
    assert not list(out.glob("witness-*"))


def test_enforce_scripted_phantom_writes_witnesses(tmp_path, capsys):
    bug = tmp_path / "bug.inner"
    bug.write_text("* Deq 3\n* Enq true\n")
    out = tmp_path / "run"
    rc, text, _ = run_cli(capsys, "enforce", "--spec", "queue",
                          "--inner", f"scripted:{bug}", "--seed", "0",
                          "--out", str(out))
    assert rc == 1
    assert "RESULT: VIOLATION" in text
    witnesses = sorted(out.glob("witness-*.trace"))
    assert witnesses
    outer = parse_history((out / "outer.trace").read_text())
    assert "error" in {outer.result_of(u) for u in outer.complete_uids()}


def test_enforce_accepts_a_schedule_file(tmp_path, capsys):
    sched = tmp_path / "s.sched"
    sched.write_text("1 2 3 1 2 3 fair\n")
    rc, text, _ = run_cli(capsys, "enforce", "--spec", "stack",
                          "--schedule", str(sched), "--out",
                          str(tmp_path / "run"))
    assert rc == 0 and "RESULT: SOUND" in text


def test_enforce_rejects_a_bad_schedule_file(tmp_path, capsys):
    sched = tmp_path / "s.sched"
    sched.write_text("1 two 3\n")
    rc, _, err = run_cli(capsys, "enforce", "--spec", "stack",
                         "--schedule", str(sched), "--out",
                         str(tmp_path / "run"))
    assert rc == 2 and "bad token" in err


def test_enforce_unknown_inner(tmp_path, capsys):
    rc, _, err = run_cli(capsys, "enforce", "--spec", "queue",
                         "--inner", "chaotic", "--out", str(tmp_path / "r"))
    assert rc == 2 and "unknown inner" in err


# -- verify --------------------------------------------------------------

def test_verify_coupled_sound(tmp_path, capsys):
    rc, text, _ = run_cli(capsys, "verify", "--spec", "counter",
                          "--seed", "1", "--out", str(tmp_path / "v"))
    assert rc == 0 and text.startswith("RESULT: SOUND")
    assert (tmp_path / "v" / "verdicts.txt").exists()


def test_verify_monitor_detects_and_witness_round_trips(tmp_path, capsys):
    out = tmp_path / "v"
    rc, text, _ = run_cli(capsys, "verify", "--spec", "queue",
                          "--inner", "phantom", "--mode", "monitor",
                          "--clients", "2", "--verifiers", "2",
                          "--seed", "0", "--out", str(out))
    assert rc == 1 and text.startswith("RESULT: VIOLATION")
    tuples_file = sorted(out.glob("witness-*.tuples"))[0]
    trace_file = tuples_file.with_suffix(".trace")
    rc2, rebuilt, _ = run_cli(capsys, "xlambda", "--tuples",
                              str(tuples_file))
    assert rc2 == 0
    assert parse_history(rebuilt) == parse_history(trace_file.read_text())


# -- scenario and fuzz ---------------------------------------------------

def test_scenario_list(capsys):
    rc, out, _ = run_cli(capsys, "scenario", "list")
    assert rc == 0
    names = out.splitlines()
    assert names == sorted(names) and "impossibility" in names


def test_scenario_run(capsys):
    rc, out, _ = run_cli(capsys, "scenario", "run", "phantom-item-detected")
    assert rc == 0
    assert out.startswith("scenario phantom-item-detected: ok")


def test_scenario_run_needs_a_name(capsys):
    rc, _, err = run_cli(capsys, "scenario", "run")
    assert rc == 2 and "needs a name" in err


def test_scenario_unknown_name(capsys):
    rc, _, err = run_cli(capsys, "scenario", "run", "nope")
    assert rc == 2 and "unknown scenario" in err


def test_fuzz_prints_stats(capsys):
    rc, out, _ = run_cli(capsys, "fuzz", "--spec", "set", "--runs", "5",
                         "--seed", "9")
    assert rc == 0
    keys = [ln.split(":")[0] for ln in out.splitlines()]
    assert keys == ["runs", "verdicts", "errors", "error_runs",
                    "view_violations"]
    assert "runs: 5" in out


def test_fuzz_reports_detection_rate(capsys):
    rc, out, _ = run_cli(capsys, "fuzz", "--spec", "queue", "--inner",
                         "phantom", "--runs", "5", "--seed", "9")
    assert rc == 0  # detections are findings, not tool failures
    assert "detection_rate:" in out


def test_seed_env_var_is_the_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LINVIEW_SEED", "7")
    _, env_out, _ = run_cli(capsys, "fuzz", "--runs", "3")
    monkeypatch.delenv("LINVIEW_SEED")
    _, flag_out, _ = run_cli(capsys, "fuzz", "--runs", "3", "--seed", "7")
    assert env_out == flag_out
    monkeypatch.setenv("LINVIEW_SEED", "not-a-number")
    _, fallback, _ = run_cli(capsys, "fuzz", "--runs", "3")
    monkeypatch.delenv("LINVIEW_SEED")
    _, zero, _ = run_cli(capsys, "fuzz", "--runs", "3", "--seed", "0")
    assert fallback == zero
