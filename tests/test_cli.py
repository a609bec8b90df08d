import contextlib
import io
import itertools
import json
import math
import os
import platform
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from specdbl import cli, fileio, refine
from specdbl.fileio import read_set_file, read_trace_file
from specdbl.fourier import dft, spectrum
from specdbl.refine import audit_trace
from oracles import coords, level_parting_a_pair
from regen_golden import GOLDEN, ONE_BLAS_THREAD, moved, refine_argv

# Traces that the last version 2 writer wrote with one BLAS thread, read and
# written again as version 3, then as version 4 by dropping the step fields
# that version 4 derives (every one of which the replay reproduced), then as
# version 5 by dropping config's refinement mode (the v4 bytes without
# "mode":"opportunistic", and "version":5), then as version 6 by dropping
# config's gate constant (the v5 bytes without "k_bound":null, and "version":6):
#   specdbl gen --kind example1 --n 3 --out ex3.json
#   specdbl refine --input ex3.json --epsilon 0.4 --delta 0.3 --seed 1 \
#       --out v6_example1_n3_t1.json
#   ... --theorem 2 --max-iterations 1 --out v6_example1_n3_t2_budget1.json
#   specdbl gen --kind random --group 3,5,11,13 --size 350 --seed 3 --out z.json
#   specdbl refine --input z.json --epsilon 0.1 --delta 0.3 --seed 3 --theorem 2 \
#       --out v6_shrink_z3_5_11_13_t2.json
DATA = Path(__file__).resolve().parent / "data"
V6_TRACES = sorted(DATA.glob("v6_*.json"))
EX3 = DATA / "v6_example1_n3_t1.json"
SHRINK = DATA / "v6_shrink_z3_5_11_13_t2.json"


def run_module(*argv, env=None):
    """``python -m specdbl.cli`` in a child process: the entry point, or settings
    such as the BLAS thread count that a process reads when it starts."""
    return subprocess.run(
        [sys.executable, "-m", "specdbl.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def run_cli(*argv):
    """``specdbl`` in this process, as a CompletedProcess with its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code
    return subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())


def report(path, fmt="text"):
    """(exit code, stdout + stderr) of ``specdbl report``."""
    proc = run_cli("report", "--trace", str(path), "--format", fmt)
    return proc.returncode, proc.stdout + proc.stderr


def actions(path):
    """The step actions of a stored trace, which the reader derives."""
    return [s.action for s in read_trace_file(path)[0].trace]


def test_gen_example_set_is_deterministic(tmp_path):
    # once through the module entry point, once in this process
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    for run, path in ((run_module, first), (run_cli, second)):
        proc = run("gen", "--kind", "example1", "--n", "2", "--out", str(path))
        assert proc.returncode == 0, proc.stderr
    assert first.read_bytes() == second.read_bytes()
    members, meta = read_set_file(first)
    assert members.size == 7
    assert meta["kind"] == "example1"


def test_one_parser_serves_every_call_in_a_process(tmp_path):
    # main() builds its parser on the first call, not at import, and reuses
    # it; each call must still print what a fresh process prints, with no
    # value, such as the last --format, left over from the call before
    setfile, trace = tmp_path / "a.json", tmp_path / "t.json"
    run_cli("gen", "--kind", "example1", "--n", "3", "--out", str(setfile))
    calls = [
        ("spectrum", "--input", str(setfile), "--epsilon", "0.4", "--format", "json"),
        ("spectrum", "--input", str(setfile), "--epsilon", "0.4"),
        ("gen", "--kind", "example1", "--n", "2"),  # no --out: argparse exits 2
        ("refine", "--input", str(setfile), "--epsilon", "0.4", "--delta", "0.3",
         "--out", str(trace)),
    ]
    env = {**os.environ, "COLUMNS": "80"}  # argparse wraps its usage to the width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        here = [run_cli(*argv) for argv in calls]
    fresh = [run_module(*argv, env=env) for argv in calls]
    assert [p.returncode for p in here] == [0, 0, 2, 0]
    assert here[1].stdout.startswith("spectrum at epsilon=0.4:")
    for a, b in zip(here, fresh):
        assert (a.returncode, a.stdout, a.stderr) == (b.returncode, b.stdout, b.stderr)
    parser = cli._PARSER
    run_cli("spectrum", "--input", str(setfile), "--epsilon", "0.4")
    assert parser is not None and cli._PARSER is parser
    probe = "import specdbl.cli as c, sys; sys.exit(c._PARSER is not None)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_gen_random_and_subgroup(tmp_path):
    out = tmp_path / "r.json"
    proc = run_cli("gen", "--kind", "random", "--group", "2,2,2,2",
                   "--size", "6", "--seed", "3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    members, _ = read_set_file(out)
    assert members.size == 6

    out2 = tmp_path / "h.json"
    proc = run_cli("gen", "--kind", "subgroup", "--group", "2,2,2,2",
                   "--gens", "1000;0100", "--out", str(out2))
    assert proc.returncode == 0, proc.stderr
    members, _ = read_set_file(out2)
    assert members.size == 4
    assert (0, 0, 0, 0) in coords(members)

    out3 = tmp_path / "h2.json"
    proc = run_cli("gen", "--kind", "subgroup", "--group", "4,3",
                   "--gens", "2,0;0,1", "--out", str(out3))
    assert proc.returncode == 0, proc.stderr
    members, _ = read_set_file(out3)
    assert members.size == 6

    out4 = tmp_path / "h3.json"  # an empty chunk between semicolons is skipped
    proc = run_cli("gen", "--kind", "subgroup", "--group", "2,2",
                   "--gens", "10;;01", "--out", str(out4))
    assert proc.returncode == 0, proc.stderr
    assert read_set_file(out4)[0].size == 4

    out5 = tmp_path / "h4.json"  # coordinates are read mod the orders, past int64 too
    proc = run_cli("gen", "--kind", "subgroup", "--group", "2,2",
                   "--gens", "99999999999999999999999,0", "--out", str(out5))
    assert proc.returncode == 0, proc.stderr
    assert coords(read_set_file(out5)[0]) == [(0, 0), (1, 0)]


@pytest.mark.parametrize("argv", [
    ("gen", "--kind", "example1", "--out", "x.json"),
    ("gen", "--kind", "example1", "--n", "2", "--group", "2,2", "--out", "x.json"),
    ("gen", "--kind", "random", "--group", "2,2", "--out", "x.json"),
    ("gen", "--kind", "subgroup", "--group", "2,2", "--out", "x.json"),
    ("gen", "--kind", "subgroup", "--group", "2,2", "--gens", "111", "--out", "x.json"),
    ("gen", "--kind", "random", "--group", "2,x", "--size", "1", "--out", "x.json"),
    ("gen", "--kind", "random", "--group", "0", "--size", "1", "--out", "x.json"),
    ("gen", "--kind", "subgroup", "--group", "2,2", "--gens", ";", "--out", "x.json"),
])
def test_gen_usage_errors(tmp_path, argv):
    argv = [a if a != "x.json" else str(tmp_path / "x.json") for a in argv]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()


def test_gen_seed_is_for_random_only(tmp_path):
    # only the random kind draws, so a seed given to another kind is a usage
    # error; so is any other flag that a kind does not read
    for argv, flag in (
        (("--kind", "subgroup", "--group", "2,2", "--gens", "10", "--seed", "5"), "--seed"),
        (("--kind", "example1", "--n", "2", "--seed", "0"), "--seed"),
        (("--kind", "subgroup", "--group", "2,2", "--gens", "10", "--size", "3", "--n", "7"),
         "--size"),
        (("--kind", "random", "--group", "2,2", "--size", "2", "--gens", "10", "--n", "4"), "--n"),
        (("--kind", "example1", "--n", "2", "--size", "3", "--gens", "11"), "--size"),
    ):
        out = tmp_path / "x.json"
        proc = run_cli("gen", *argv, "--out", str(out))
        assert proc.returncode == 2
        assert f"takes no {flag}\n" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()
    # the random kind without --seed draws with seed 0, and records it
    paths = [tmp_path / "default.json", tmp_path / "zero.json"]
    for path, seed in zip(paths, ((), ("--seed", "0"))):
        proc = run_cli("gen", "--kind", "random", "--group", "2,2,2", "--size", "3",
                       *seed, "--out", str(path))
        assert proc.returncode == 0, proc.stderr
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert read_set_file(paths[0])[1]["seed"] == 0


def test_spectrum_formats(tmp_path):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))

    proc = run_cli("spectrum", "--input", str(setfile), "--epsilon", "0.4")
    assert proc.returncode == 0
    assert "7 of 16 characters" in proc.stdout

    proc = run_cli("spectrum", "--input", str(setfile), "--epsilon", "0.4",
                   "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["spectrum_size"] == 7
    assert len(doc["members"]) == 7
    assert proc.stdout.count("\n") == 1 and " " not in proc.stdout

    proc = run_cli("spectrum", "--input", str(setfile), "--epsilon", "0.4",
                   "--format", "csv")
    rows = [line for line in proc.stdout.splitlines() if line]
    assert len(rows) == 7
    assert all(len(row.split(",")) == 4 for row in rows)

    out = tmp_path / "spec.json"
    proc = run_cli("spectrum", "--input", str(setfile), "--epsilon", "0.4",
                   "--out", str(out))
    assert proc.returncode == 0
    members, meta = read_set_file(out)
    assert members.size == 7
    assert meta["kind"] == "spectrum"


def test_spectrum_prints_the_rows_its_set_file_holds(tmp_path):
    setfile, out = tmp_path / "a.json", tmp_path / "s.json"
    run_cli("gen", "--kind", "random", "--group", "13,13,4", "--size", "60", "--out", str(setfile))
    encoded, encode = [], fileio._rows_json

    def counted(members):
        encoded.append(members)
        return encode(members)

    with mock.patch("specdbl.cli._rows_json", counted), \
            mock.patch("specdbl.fileio._rows_json", counted):
        proc = run_cli("spectrum", "--input", str(setfile), "--epsilon", "0.2",
                       "--format", "json", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert len(encoded) == 1  # one encoding serves both documents
    printed, stored = json.loads(proc.stdout), json.loads(out.read_text())
    assert len(stored["elements"]) > 1
    assert printed["members"] == stored["elements"]
    assert proc.stdout == json.dumps(printed, sort_keys=True, separators=(",", ":")) + "\n"

    for args in ((), ("--out", str(tmp_path / "t.json"))):
        proc = run_cli("spectrum", "--input", str(setfile), "--epsilon", "0.2",
                       "--format", "csv", *args)
        assert proc.stdout == "".join(",".join(map(str, row)) + "\n" for row in stored["elements"])


def test_refine_and_report_round_trip(tmp_path):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "3", "--out", str(setfile))
    trace = tmp_path / "trace.json"
    proc = run_cli("refine", "--input", str(setfile), "--epsilon", "0.4",
                   "--delta", "0.3", "--seed", "1", "--out", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert "finished" in proc.stdout
    assert "audit=ok" in proc.stdout

    result, original, _ = read_trace_file(trace)
    assert result.terminated == "finished"
    assert original.size == 15

    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert "audit: ok" in proc.stdout
    assert "holds" in proc.stdout

    proc = run_cli("report", "--trace", str(trace), "--format", "json")
    doc = json.loads(proc.stdout)
    assert doc["ok"] is True
    assert doc["audit"]["ok"] is True
    assert doc["bound_report"]["certified_doubling_holds"] is True


def _refined_trace(tmp_path):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    trace = tmp_path / "trace.json"
    run_cli("refine", "--input", str(setfile), "--epsilon", "0.4",
            "--delta", "0.3", "--seed", "1", "--out", str(trace))
    return trace


def test_report_rejects_a_tampered_trace(tmp_path):
    trace = _refined_trace(tmp_path)
    doc = json.loads(trace.read_text())
    doc["rho_star"] = 0.001
    trace.write_text(json.dumps(doc))

    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout or "differs" in proc.stdout


@pytest.mark.parametrize("forge,needle", [
    (lambda s: s.update(upper_bound=0.9), "certified although the bound 0.9 is not below lambda"),
    (lambda s: s.update(verdict_status="undetermined"),
     "certified flag True, but the last step gives ('finished', False)"),
], ids=["upper-bound", "verdict"])
def test_report_rejects_a_forged_certificate(tmp_path, forge, needle):
    setfile, trace = tmp_path / "a.json", tmp_path / "trace.json"
    run_cli("gen", "--kind", "example1", "--n", "3", "--out", str(setfile))
    run_cli("refine", "--input", str(setfile), "--epsilon", "0.4",
            "--delta", "0.3", "--seed", "1", "--out", str(trace))
    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "audit: ok" in proc.stdout

    assert actions(trace)[-1] == "finish"
    doc = json.loads(trace.read_text())
    finish = doc["steps"][-1]
    assert finish["verdict_status"] == "regular"
    assert finish["upper_bound"] < 0.9
    forge(finish)
    trace.write_text(json.dumps(doc))

    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 1
    assert "audit: FAIL" in proc.stdout
    assert needle in proc.stdout


def test_report_rejects_a_final_set_outside_the_input(tmp_path):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "3", "--out", str(setfile))
    trace = tmp_path / "trace.json"
    run_cli("refine", "--input", str(setfile), "--epsilon", "0.4",
            "--delta", "0.3", "--theorem", "1", "--seed", "1", "--out", str(trace))
    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "audit: ok" in proc.stdout

    doc = json.loads(trace.read_text())
    inside = {tuple(row) for row in doc["input_elements"]}
    rank = len(doc["orders"])
    assert doc["orders"] == [2] * rank
    stranger = next(c for c in itertools.product((0, 1), repeat=rank) if c not in inside)
    doc["a_star"][0] = list(stranger)
    trace.write_text(json.dumps(doc))

    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 1
    assert "audit: FAIL" in proc.stdout
    assert f"1 of the {len(doc['a_star'])} final elements lie outside the input set" in proc.stdout


def _at(doc, path):
    """The container that holds the last key of ``path`` in ``doc``, and that key."""
    *parents, last = path
    for key in parents:
        doc = doc[key]
    return doc, last


def _past_float_range(*path):
    def tamper(doc):
        container, key = _at(doc, path)
        container[key] = 10**400
    return tamper


# every float field a trace stores, as a path into its document
FLOAT_FIELDS = [("rho_star",), ("config", "epsilon"), ("config", "delta"),
                *(("steps", 0, name) for name in ("upper_bound", "witness_value", "new_mean"))]
# the float fields a version 3 step stored and a version 6 step derives; a
# step that carries one, past float range or not, is malformed
DERIVED_FLOAT_FIELDS = [("steps", 0, "rho"), ("steps", 0, "rho_next")]


@pytest.mark.parametrize("tamper", [
    *(_past_float_range(*path) for path in FLOAT_FIELDS + DERIVED_FLOAT_FIELDS),
    lambda d: d["steps"][0].update(rho="x"),
    lambda d: d["measured"].pop("gate_size"),
    lambda d: d.update(initial_size=15),
    lambda d: d["measured"].update(doubling=123),
    lambda d: d.update(a_star=[]),
    lambda d: d.update(rho_star=0.0),
    lambda d: d["measured"].update(gate_size=10**400),
], ids=[*("float-range-" + "-".join(map(str, path)) for path in FLOAT_FIELDS + DERIVED_FLOAT_FIELDS),
        "step-rho-string", "measured-missing-key", "top-level-unknown-key", "measured-unknown-key",
        "empty-a-star", "rho-star-zero", "count-past-float-range"])
def test_report_rejects_a_malformed_trace_with_exit_2(tmp_path, tamper):
    trace = _refined_trace(tmp_path)
    doc = json.loads(trace.read_text())
    tamper(doc)
    trace.write_text(json.dumps(doc))

    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_report_rejects_a_version_1_or_2_trace(tmp_path):
    # only version 6 reads, so versions 3, 4 and 5 exit 2 too; the header
    # names the version before any other field is read
    doc = json.loads(EX3.read_text())
    for version in (1, 2, 3, 4, 5):
        doc["version"] = version
        trace = tmp_path / f"v{version}.json"
        trace.write_text(json.dumps(doc))
        proc = run_cli("report", "--trace", str(trace))
        assert proc.returncode == 2
        assert proc.stderr == f"error: {trace}: unsupported version {version}\n"


@pytest.mark.parametrize("key", sorted(json.loads(EX3.read_text())))
def test_every_top_level_trace_key_is_required_and_typed(tmp_path, key):
    doc = json.loads(EX3.read_text())
    wrong = 0 if isinstance(doc[key], str) else "0"  # a JSON kind the key does not take
    trace = tmp_path / "forged.json"
    for forge in (lambda d: d.pop(key), lambda d: d.update({key: wrong})):
        forged = json.loads(EX3.read_text())
        forge(forged)
        trace.write_text(json.dumps(forged))
        proc = run_cli("report", "--trace", str(trace))
        assert proc.returncode == 2
        assert key in proc.stderr.replace(str(trace), ""), proc.stderr
        if key not in ("format", "version"):  # the header is checked first
            trace.write_text(json.dumps({**forged, "version": 3}))
            proc = run_cli("report", "--trace", str(trace))
            assert proc.stderr == f"error: {trace}: unsupported version 3\n"


# A version 2 trace also stored K, the bounds and each step's certified
# flag, and a version 3 trace each finish's direct check; version 6 derives
# them, so each forgery below changes what they are derived from
def _forge_k(doc):
    # |Spec_gate| = 40 is above K |Spec_rho| = 64^0.3 * 8 = 27.9: the finish becomes a growth
    doc["steps"][-1]["gate_size"] = 40


def _forge_bounds(doc):
    doc["measured"].update(sumset_size=10**8)


def _forge_direct_check(doc):
    # an undetermined finish rests on the direct check, which |S+S| = 30
    # fails: it is above 2 |Spec_gate|^2 / (0.8 |Spec_rho|) = 20
    doc["certified"] = False
    doc["steps"][-1].update(verdict_status="undetermined", upper_bound=0.5)
    doc["measured"].update(sumset_size=30)


@pytest.mark.parametrize("forge,needle", [
    (_forge_k, "result finished with certified flag True, but the last step gives "
               "('budget_exhausted', False)"),
    (_forge_bounds, "no spectrum in |G|=64 has the measured |S|=8, |S+S|=100000000"),
    (_forge_direct_check, "result finished with certified flag False, but the last step gives "
                          "('inconclusive', False)"),
], ids=["K", "bounds", "direct-check"])
def test_report_derives_what_a_version_2_trace_stored(tmp_path, forge, needle):
    doc = json.loads(EX3.read_text())
    forge(doc)
    trace = tmp_path / "forged.json"
    trace.write_text(json.dumps(doc))
    code, out = report(trace)
    assert code == 1
    assert "audit: FAIL" in out
    assert needle in out


@pytest.mark.parametrize("counts", [
    {"spec_size": 0},
    {"sumset_size": 2144},
    {"sumset_size": 2146},
    {"spec_rho_size": 0},
    {"gate_size": 2144},
    {"spec_size": 2000},
], ids=["empty-spectrum", "sumset-below-spectrum", "sumset-above-group",
        "empty-rho-spectrum", "gate-below-rho", "theorem-2-levels"])
def test_report_rejects_impossible_counts(tmp_path, counts):
    trace = tmp_path / "trace.json"
    trace.write_bytes(SHRINK.read_bytes())
    assert report(trace)[0] == 0
    doc = json.loads(trace.read_text())
    assert doc["measured"] == {"gate_size": 2145, "spec_rho_size": 2145,
                               "spec_size": 2145, "sumset_size": 2145}
    doc["measured"].update(counts)
    trace.write_text(json.dumps(doc))
    code, out = report(trace)
    assert code == 1
    assert "violation: no spectrum in |G|=2145 has the measured" in out


def test_report_survives_a_step_count_past_float_range(tmp_path):
    # the gate test used to multiply K by this count in floating point and
    # end in an OverflowError traceback; the count check reports it instead
    doc = json.loads(EX3.read_text())
    doc["steps"][-1]["spec_size"] = 10**400
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc))
    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"violation: step 1: no spectrum in |G|=64 has |Spec_rho|={10**400}" in proc.stdout


GOLDEN_T1 = "golden_example1_n5_moved_t1.json"


def _forge_step(i, **fields):
    return lambda doc: doc["steps"][i].update(fields)


def _forge_abort(doc):
    # an abort's observations above the rho floor, where the rule finishes
    doc["steps"][1].update(verdict_status="undetermined", upper_bound=1.0)
    doc.update(terminated="inconclusive", certified=False)


def _forge_uncertified(status):
    # the finish keeps its bound below lambda but drops to the direct check
    def forge(doc):
        doc["steps"][1].update(verdict_status=status)
        doc["certified"] = False
    return forge


def _drop_final_element(doc):
    doc["a_star"].pop()


@pytest.mark.parametrize("stored,forge,needle", [
    ("v6_example1_n3_t1.json", _forge_step(0, minor_rows=3), "final |A*|=7, but the last step leaves 3"),
    ("v6_example1_n3_t1.json", _drop_final_element, "final |A*|=6, but the last step leaves 7"),
    ("v6_example1_n3_t2_budget1.json", _forge_step(0, minor_rows=9),
     "final |A*|=7, but the last step leaves 9"),
    ("v6_example1_n3_t2_budget1.json", _forge_step(0, minor_rows=20),
     "step 0: a minor of 20 rows of 15"),
    ("v6_example1_n3_t1.json", lambda doc: doc["measured"].update(sumset_size=64),
     "certified, but |S+S|=64 is above the certified doubling bound 20.0"),
    ("v6_example1_n3_t1.json", lambda doc: doc.update(rho_star=0.5),
     "final rho 0.5 does not match the last step (1.0)"),
    ("v6_example1_n3_t1.json", _forge_step(0, new_mean=None),
     "step 0: new_mean, minor_rows, minor_cols = (None, 7, 8) with verdict irregular"),
    ("v6_example1_n3_t1.json", _forge_step(0, minor_rows=None),
     "step 0: new_mean, minor_rows, minor_cols = (1.0, None, 8) with verdict irregular"),
    ("v6_example1_n3_t1.json", _forge_step(0, new_mean=0.3),
     "the run ends at step 0, but the trace holds 2 steps"),
    ("v6_example1_n3_t1.json", lambda doc: doc["steps"].clear(), "empty trace"),
    # step fields no run writes, on a minor then a certified finish
    (GOLDEN_T1, _forge_step(1, witness_value=0.9), "step 1: witness_value 0.9 with verdict regular"),
    (GOLDEN_T1, _forge_step(1, new_mean=1.0, minor_cols=32),
     "step 1: new_mean, minor_rows, minor_cols = (1.0, None, 32) with verdict regular"),
    (GOLDEN_T1, _forge_step(0, witness_value=None), "step 0: witness_value None with verdict irregular"),
    (GOLDEN_T1, _forge_step(0, witness_value=0.001),
     "step 0: witness_value 0.001 with verdict irregular, lambda 0.00106"),
    (GOLDEN_T1, _forge_step(0, witness_value=0.9),
     "step 0: witness_value 0.9 with verdict irregular, lambda 0.00106"),
    (GOLDEN_T1, _forge_step(0, minor_cols=10**6), "step 0: a minor of 1000000 columns of 63"),
    (GOLDEN_T1, _forge_step(0, verdict_status="regular"),
     "step 0: new_mean, minor_rows, minor_cols = (1.0, 31, 32) with verdict regular"),
    # an abort above the rho floor, and verdicts and bounds no certificate gives
    ("v6_example1_n3_t1.json", _forge_abort,
     "result inconclusive with certified flag False, but the last step gives ('finished', False)"),
    ("v6_example1_n3_t1.json", _forge_step(0, upper_bound=10.0),
     "step 0: the bound 10.0 lies outside [0, 1.001]"),
    ("v6_example1_n3_t1.json", _forge_step(1, upper_bound=-3.0),
     "step 1: the bound -3.0 lies outside [0, 1.001]"),
    ("v6_example1_n3_t1.json", _forge_uncertified("bogus"), "step 1: unknown verdict 'bogus'"),
    ("v6_example1_n3_t1.json", _forge_uncertified("undetermined"),
     "step 1: undetermined although the bound 2.220446049250315e-15 is below lambda"),
    # a mean of unit-modulus entries lies in [0, 1] up to rounding
    ("v6_example1_n3_t1.json", _forge_step(0, new_mean=5.0),
     "step 0: the minor mean 5.0 lies outside [0, 1.000000001]"),
    ("v6_example1_n3_t1.json", _forge_step(0, new_mean=-0.5),
     "step 0: the minor mean -0.5 lies outside [0, 1.000000001]"),
], ids=["minor-rows", "size-without-a-minor", "final-size", "minor-past-its-matrix",
        "certified-bound", "finish-rho", "minor-without-mean", "minor-without-rows",
        "minor-not-raising-rho", "empty-trace", "finish-witness",
        "finish-minor-fields", "minor-without-witness", "witness-below-lambda",
        "witness-above-bound", "minor-past-its-columns", "minor-on-regular", "abort-above-floor",
        "bound-above-ceiling", "negative-bound", "unknown-verdict", "undetermined-below-lambda",
        "minor-mean-above-1", "minor-mean-below-0"])
def test_audit_follows_set_sizes_and_certified_bounds(tmp_path, stored, forge, needle):
    doc = json.loads((DATA / stored).read_text())
    forge(doc)
    trace = tmp_path / "forged.json"
    trace.write_text(json.dumps(doc))
    code, out = report(trace)
    assert code == 1
    assert "audit: FAIL" in out
    assert f"violation: {needle}" in out
    code, out = report(trace, "json")
    assert code == 1 and json.loads(out)["ok"] is False


# the fields a version 6 step derives; a version 3 step stored them
@pytest.mark.parametrize("field,value", [
    ("rho", 0.45), ("rho_next", 0.5), ("a_size", 40), ("action", "jump"), ("direct_check", None),
], ids=["rho", "rho_next", "a_size", "action", "direct_check"])
def test_report_rejects_a_derived_step_field_with_exit_2(tmp_path, field, value):
    doc = json.loads(EX3.read_text())
    doc["steps"][0][field] = value
    trace = tmp_path / "forged.json"
    trace.write_text(json.dumps(doc))
    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {trace}: step 0: unknown field {field!r}\n"


@pytest.mark.parametrize("step,field,value", [
    (1, "new_mean", math.nan), (0, "upper_bound", math.nan), (0, "upper_bound", math.inf),
], ids=["growth-new-mean-nan", "minor-upper-bound-nan", "minor-upper-bound-infinity"])
def test_report_rejects_a_non_finite_float_with_exit_2(tmp_path, step, field, value):
    # no run writes NaN or Infinity, so the reader refuses them before the audit
    assert actions(SHRINK)[:2] == ["minor", "growth"]
    doc = json.loads(SHRINK.read_text())
    doc["steps"][step][field] = value
    trace = tmp_path / "non-finite.json"
    trace.write_text(json.dumps(doc))
    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "must be finite" in proc.stderr


def test_readme_command_line_transcript(tmp_path):
    # each "$ specdbl" line of README's "Command line" block, run in a fresh
    # directory, prints the lines shown under it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    session = [chunk.splitlines() for chunk in block.strip().split("\n\n")]
    assert [lines[0].split()[:3] for lines in session] == [
        ["$", "specdbl", name] for name in ("gen", "spectrum", "refine", "report", "verify")]
    # the child runs in tmp_path, so it finds this package by an absolute path
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))))}
    for command, *shown in session:
        proc = subprocess.run([sys.executable, "-m", "specdbl.cli", *shlex.split(command)[2:]],
                              capture_output=True, text=True, cwd=tmp_path, env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), command
        assert proc.stdout.splitlines() == shown, command


def test_refine_audits_once(tmp_path):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    calls = []

    def counted(*args):
        calls.append(args)
        return audit_trace(*args)

    sink = io.StringIO()
    with mock.patch("specdbl.fileio.audit_trace", counted), \
            mock.patch("specdbl.cli.audit_trace", counted), contextlib.redirect_stdout(sink):
        code = cli.main(["refine", "--input", str(setfile), "--epsilon", "0.4", "--delta", "0.3",
                         "--out", str(tmp_path / "t.json")])
    assert code == 0
    assert "audit=ok" in sink.getvalue()
    assert len(calls) == 1


def test_report_rejects_a_refinement_mode_with_exit_2(tmp_path):
    # version 6 has no refinement mode, and nothing migrates one; a version 4
    # trace, which had it, exits 2 on its header
    doc = json.loads(EX3.read_text())
    doc["config"]["mode"] = "opportunistic"
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    proc = run_cli("report", "--trace", str(trace))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {trace}: field 'config': unknown field 'mode'\n"


def test_refine_has_no_mode_option(tmp_path):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    proc = run_cli("refine", "--input", str(setfile), "--epsilon", "0.4", "--delta", "0.3",
                   "--mode", "faithful", "--out", str(tmp_path / "t.json"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage:")
    assert "unrecognized arguments: --mode faithful" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "t.json").exists()


def test_report_rejects_a_gate_constant_with_exit_2(tmp_path):
    # version 6 takes K from delta and |G| alone, and nothing migrates a stored
    # one; a version 5 trace, which had the field, exits 2 on its header
    doc = json.loads(EX3.read_text())
    doc["config"]["k_bound"] = None
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    proc = run_cli("report", "--trace", str(trace))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {trace}: field 'config': unknown field 'k_bound'\n"


def test_refine_has_no_k_bound_option(tmp_path):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    proc = run_cli("refine", "--input", str(setfile), "--epsilon", "0.4", "--delta", "0.3",
                   "--k-bound", "2", "--out", str(tmp_path / "t.json"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "unrecognized arguments: --k-bound 2" in proc.stderr
    assert not (tmp_path / "t.json").exists()


def _assert_same_document(a, b, where="trace"):
    """Equal apart from floats, which agree to 1e-9 relative."""
    if isinstance(a, float) or isinstance(b, float):
        assert type(a) in (int, float) and type(b) in (int, float), where
        assert math.isclose(a, b, rel_tol=1e-9), f"{where}: {a} vs {b}"
    elif isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_same_document(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_same_document(x, y, f"{where}[{i}]")
    else:
        assert a == b and type(a) is type(b), f"{where}: {a!r} vs {b!r}"


def _refine_under_one_and_two_threads(tmp_path, gen, theorem):
    """Traces of one refine run under 1 and 2 BLAS threads, checked to agree;
    the run read from the first."""
    inp = tmp_path / "a.json"
    proc = run_cli("gen", *gen, "--out", str(inp))
    assert proc.returncode == 0, proc.stderr
    docs, outputs = [], []
    for threads in ("1", "2"):
        out = tmp_path / f"trace{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = run_module("refine", "--input", str(inp), "--epsilon", "0.4", "--delta", "0.3",
                          "--theorem", theorem, "--seed", "3", "--max-iterations", "40",
                          "--out", str(out), env=env)
        assert proc.returncode == 0, proc.stderr
        docs.append(json.loads(out.read_text()))
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    _assert_same_document(docs[0], docs[1])
    result = read_trace_file(tmp_path / "trace1.json")[0]
    assert any(step.action == "minor" for step in result.trace)
    return result


def test_refine_trace_does_not_depend_on_blas_threads(tmp_path):
    # a random set in Z_3^8 whose step-4 witness value moved by 0.36 % between
    # one and two BLAS threads before the search got its zero and tie rules
    _refine_under_one_and_two_threads(
        tmp_path, ("--kind", "random", "--group", ",".join(["3"] * 8), "--size", "820",
                   "--seed", "1"), "2")


def test_certificate_past_the_crossover_does_not_depend_on_blas_threads(tmp_path):
    # the two-axis set in Z_2^16: matrices with 511 and 255 rows, whose
    # verdicts come from the certificate and the search
    result = _refine_under_one_and_two_threads(tmp_path, ("--kind", "example1", "--n", "8"), "1")
    assert min(min(s.a_size, s.spec_size) for s in result.trace) >= 200


# Golden traces, written with one BLAS thread; the input and the command line
# come from the stored trace itself (regen_golden.refine_argv).  After a
# change that moves stored outputs on purpose, rewrite all three with
#   PYTHONPATH=src python tests/regen_golden.py
# The inputs:
#   golden_example1_n5_moved_t1.json: example1 n = 5 in Z_2^10 under the
#       coordinate permutation (3,8,0,5,9,1,6,2,7,4) and the translate
#       (1,0,1,1,0,0,1,0,1,1); refine --epsilon 0.4 --delta 0.3 --seed 1
#   golden_z3_5_7_t2.json: 50 elements of Z_3xZ_5xZ_7 drawn by
#       default_rng(7).choice(105, 50, replace=False); refine --epsilon 0.2
#       --delta 0.3 --theorem 2 --seed 1
#   golden_z13_13_13_t2.json: gen --kind random --group 13,13,13 --size 350
#       --seed 1; refine --epsilon 0.1 --delta 0.3 --theorem 2 --seed 1.  Its
#       second search runs on a 5x103 complex matrix.
def _rerun_golden(tmp_path, name):
    """(stored bytes, bytes of a fresh refine on the stored input and config)."""
    argv, out = refine_argv(name, tmp_path)
    proc = run_cli(*argv)
    assert proc.returncode == 0, proc.stderr
    return (DATA / name).read_bytes(), out.read_bytes()


def test_golden_trace_on_a_pure_2_group_is_byte_identical(tmp_path):
    stored, fresh = _rerun_golden(tmp_path, "golden_example1_n5_moved_t1.json")
    assert fresh == stored


def test_golden_trace_on_an_odd_prime_power_group_is_byte_identical(tmp_path):
    stored, fresh = _rerun_golden(tmp_path, "golden_z13_13_13_t2.json")
    assert actions(DATA / "golden_z13_13_13_t2.json") == ["minor", "minor", "finish"]
    assert fresh == stored


def test_regen_golden_says_what_moved(tmp_path):
    stored = DATA / "golden_z3_5_7_t2.json"
    assert [line.split(":")[0] for line in moved(stored, stored)] == [
        "actions", "|A*|", "rho*", "certified", "witness_value", "upper_bound"]
    assert not any("->" in line for line in moved(stored, stored))
    fresh = json.loads(stored.read_text())
    fresh["steps"][0]["witness_value"] *= 1.01
    # a gate that holds at step 1 turns its growth into a finish
    fresh["steps"][1]["gate_size"] = fresh["steps"][1]["spec_size"]
    fresh["certified"] = False
    forged = tmp_path / "fresh.json"
    forged.write_text(json.dumps(fresh))
    lines = moved(stored, forged)
    assert lines[0].startswith("actions: minor,growth,minor,") and "-> minor,finish,minor," in lines[0]
    assert lines[3] == "certified: True -> False"
    assert lines[4] == "witness_value: largest relative change 0.01 (step 0)"


def test_regen_golden_says_what_moved_across_a_version_bump(tmp_path):
    # an old trace whose version the reader refuses is read from its raw
    # JSON, so the same lines print, and a last one says so
    stored = DATA / "golden_z3_5_7_t2.json"
    doc = json.loads(stored.read_text())
    doc["version"] -= 1
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    lines = moved(old, stored)
    assert lines[:-1] == moved(stored, stored)
    assert lines[-1].startswith("the old trace is read from its raw JSON (")
    assert f"unsupported version {doc['version']}" in lines[-1]
    del doc["steps"][0]["gate_size"]  # and when that fails too, one line
    old.write_text(json.dumps(doc))
    assert [line.split(" (")[0] for line in moved(old, stored)] == ["the old trace does not read"]


def _assert_equal_but_witness_ulps(a, b, where="trace"):
    """Equal field by field, except witness_value within 1e-12 relative."""
    if isinstance(a, dict) and isinstance(b, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            if key == "witness_value" and a[key] is not None and b[key] is not None:
                assert math.isclose(a[key], b[key], rel_tol=1e-12), f"{where}.{key}"
            else:
                _assert_equal_but_witness_ulps(a[key], b[key], f"{where}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_equal_but_witness_ulps(x, y, f"{where}[{i}]")
    else:
        assert a == b and type(a) is type(b), f"{where}: {a!r} vs {b!r}"


def test_golden_trace_on_a_mixed_group_keeps_every_field(tmp_path):
    # BLAS may round a witness value differently with the block size, so
    # that field alone may move in its last digits
    stored, fresh = _rerun_golden(tmp_path, "golden_z3_5_7_t2.json")
    assert set(actions(DATA / "golden_z3_5_7_t2.json")) == {"minor", "growth", "finish"}
    _assert_equal_but_witness_ulps(json.loads(fresh), json.loads(stored))


# OpenBLAS's oldest x86_64 kernel, which sums its products in another order
PRESCOTT = dict(OPENBLAS_CORETYPE="Prescott", **ONE_BLAS_THREAD)
ON_X86_64 = pytest.mark.skipif(platform.machine() != "x86_64",
                               reason="OPENBLAS_CORETYPE names x86_64 kernels")


@ON_X86_64
def test_golden_traces_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS's oldest x86_64 kernel sums its products in another order;
    # the certificate's bound and the minors come from numpy's own
    # reductions, so only witness_value, read off the search's products,
    # may move in its last digits
    env = dict(os.environ, **PRESCOTT)
    for name in GOLDEN:
        argv, out = refine_argv(name, tmp_path)
        proc = run_module(*argv, env=env)
        assert proc.returncode == 0, proc.stderr
        _assert_equal_but_witness_ulps(json.loads(out.read_bytes()),
                                       json.loads((DATA / name).read_bytes()), name)


@ON_X86_64
def test_a_z2_18_table_does_not_depend_on_the_blas_kernel():
    # the float32 Walsh-Hadamard pass is one sgemm per chunk of axes; its sums
    # are integers of at most 2^18, exact in any order, so any kernel gives
    # the same bytes
    code = ("import hashlib; from specdbl.fourier import dft; "
            "from specdbl.groups import FiniteAbelianGroup, random_subset; "
            "a = random_subset(FiniteAbelianGroup([2] * 18), 100000, seed=18); "
            "print(hashlib.sha256(dft(a).coeffs.tobytes()).hexdigest())")
    digests = []
    for extra in (ONE_BLAS_THREAD, PRESCOTT):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, **extra))
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert len(digests[0]) == 65 and digests[0] == digests[1]


def test_verify_checks_pass_on_a_subgroup(tmp_path):
    setfile = tmp_path / "h.json"
    run_cli("gen", "--kind", "subgroup", "--group", "2,2,2,2",
            "--gens", "1000;0100", "--out", str(setfile))
    proc = run_cli("verify", "--input", str(setfile),
                   "--statistical-doubling", "0.5",
                   "--closure", "0.9",
                   "--parseval", "0.5")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok") == 3
    assert "FAIL" not in proc.stdout


def test_verify_transforms_its_set_once(tmp_path):
    setfile = tmp_path / "h.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    calls = []

    def counted(members):
        calls.append(members)
        return dft(members)

    with mock.patch("specdbl.cli.dft", counted):
        proc = run_cli("verify", "--input", str(setfile), "--statistical-doubling", "0.4",
                       "--closure", "0.9", "--parseval", "0.4")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("ok") == 3
    assert len(calls) == 1


@pytest.mark.parametrize("doubling, parseval, spectra", [("0.4", "0.4", 2), ("0.4", "0.5", 3)])
def test_verify_takes_each_spectrum_once(tmp_path, doubling, parseval, spectra):
    # the doubling check takes the eps- and the (eps^2/2)-spectrum; at the
    # same level the Parseval check reuses the first one's size, and prints
    # the same line as when it takes the spectrum itself
    setfile = tmp_path / "h.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    alone = run_cli("verify", "--input", str(setfile), "--parseval", parseval)
    calls = []

    def counted(table, eps):
        calls.append(eps)
        return spectrum(table, eps)

    with mock.patch("specdbl.cli.spectrum", counted), \
            mock.patch("specdbl.diagnostics.spectrum", counted):
        proc = run_cli("verify", "--input", str(setfile), "--statistical-doubling", doubling,
                       "--parseval", parseval)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(calls) == spectra
    assert proc.stdout.splitlines()[1] == alone.stdout.strip()


def test_verify_without_checks_is_a_usage_error(tmp_path):
    setfile = tmp_path / "h.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    proc = run_cli("verify", "--input", str(setfile))
    assert proc.returncode == 2


def test_file_errors_exit_2(tmp_path):
    proc = run_cli("spectrum", "--input", str(tmp_path / "missing.json"),
                   "--epsilon", "0.4")
    assert proc.returncode == 2
    assert "cannot read" in proc.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("spectrum", "--input", str(bad), "--epsilon", "0.4")
    assert proc.returncode == 2
    assert "invalid JSON" in proc.stderr

    proc = run_cli("refine", "--input", str(bad), "--epsilon", "0.4",
                   "--delta", "0.3", "--out", str(tmp_path / "t.json"))
    assert proc.returncode == 2

    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    doc = json.loads(setfile.read_text())
    doc["elements"][1][2] = 2
    setfile.write_text(json.dumps(doc))
    proc = run_cli("spectrum", "--input", str(setfile), "--epsilon", "0.4")
    assert proc.returncode == 2
    assert "coordinate 2 out of range for Z_2" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("rows", ["[[01,1]]", "[[0,1],]", "[[0 1]]", "[[0,,1]]", "[[1e0,1]]",
                                  "[[0,1],[1,0]"])
@pytest.mark.parametrize("command", ["spectrum", "report"])
def test_rows_that_are_not_json_exit_2(tmp_path, rows, command):
    # the numpy row reader refuses what json.loads refuses; the message may
    # name the field in place of a line
    path = tmp_path / "bad.json"
    if command == "spectrum":
        text = '{"elements":' + rows + ',"format":"specdbl-set","orders":[2,2],"version":2}'
        path.write_text(text)
        proc = run_cli("spectrum", "--input", str(path), "--epsilon", "0.4")
    else:
        doc = EX3.read_text()
        path.write_text(doc.replace('"a_star":[', '"a_star":' + rows[:-1] + ",", 1))
        proc = run_cli("report", "--trace", str(path))
    assert proc.returncode == 2
    assert f"error: {path}: " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [("spectrum", "--input"), ("report", "--trace")],
                         ids=["spectrum", "report"])
def test_a_file_that_is_not_utf8_exits_2_naming_it(tmp_path, command):
    name, flag = command
    path = tmp_path / "bom16.json"
    path.write_bytes(b"\xff\xfe")  # a UTF-16 byte-order mark and nothing else
    argv = [name, flag, str(path)] + (["--epsilon", "0.4"] if name == "spectrum" else [])
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert f"error: {path}: not UTF-8 text" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_bad_parameters_exit_2(tmp_path):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    proc = run_cli("refine", "--input", str(setfile), "--epsilon", "1.5",
                   "--delta", "0.3", "--out", str(tmp_path / "t.json"))
    assert proc.returncode == 2
    assert "epsilon" in proc.stderr


def test_a_matrix_past_the_cell_budget_exits_2_and_writes_no_trace(tmp_path, monkeypatch):
    # a budget of 108 cells refuses step 1's 12 x 23 matrix (test_refine.py)
    setfile, trace = tmp_path / "a.json", tmp_path / "t.json"
    run_cli("gen", "--kind", "random", "--group", "3,3,3", "--size", "12", "--seed", "3",
            "--out", str(setfile))
    monkeypatch.setattr(refine, "_CELLS_PER_ELEMENT", 4)
    monkeypatch.setenv("SPECDBL_MAX_GROUP", "27")
    proc = run_cli("refine", "--input", str(setfile), "--epsilon", "0.4", "--delta", "0.3",
                   "--out", str(trace))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: step 1: the coherence matrix of 12 x 23 cells")
    assert "Traceback" not in proc.stderr
    assert not trace.exists()


def test_a_negative_seed_exits_2_naming_it(tmp_path):
    # refine used to store "seed": -1 when the search never ran (the subgroup,
    # which the certificate certifies), and elsewhere failed inside
    # numpy's seeding with a message that did not name the flag
    sub, ex, trace = tmp_path / "h.json", tmp_path / "ex.json", tmp_path / "t.json"
    run_cli("gen", "--kind", "subgroup", "--group", "2,2,2,2", "--gens", "1000;0100",
            "--out", str(sub))
    run_cli("gen", "--kind", "example1", "--n", "3", "--out", str(ex))
    for setfile in (sub, ex):
        proc = run_cli("refine", "--input", str(setfile), "--epsilon", "0.4", "--delta", "0.3",
                       "--seed", "-1", "--out", str(trace))
        assert proc.returncode == 2
        assert "seed must be non-negative, got -1" in proc.stderr
    assert not trace.exists()

    proc = run_cli("gen", "--kind", "random", "--group", "2,2,2,2", "--size", "3",
                   "--seed", "-5", "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 2
    assert "seed must be non-negative, got -5" in proc.stderr

    proc = run_cli("refine", "--input", str(sub), "--epsilon", "0.4", "--delta", "0.3",
                   "--seed", "1", "--out", str(trace))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(trace.read_text())
    doc["config"]["seed"] = -1
    trace.write_text(json.dumps(doc))
    code, out = report(trace)
    assert code == 2
    assert "field 'config': seed must be non-negative, got -1" in out


def test_statistical_doubling_names_an_eps_whose_level_underflows(tmp_path):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    proc = run_cli("verify", "--input", str(setfile), "--statistical-doubling", "1e-300")
    assert proc.returncode == 2
    assert "1e-300" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, flag, value", [
    ("spectrum", "--epsilon", "1e-300"),
    ("verify", "--parseval", "1e-300"),
    ("verify", "--statistical-doubling", "1e-300"),
    ("refine", "--epsilon", "1e-100"),
])
def test_tiny_epsilon_exits_0_or_2(tmp_path, command, flag, value):
    # eps^2 (or eps^2 rho^2) underflows to 0; the Parseval capacity and the
    # interim bound are then inf, not a division by zero
    setfile, trace = tmp_path / "a.json", tmp_path / "t.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    extra = ("--delta", "0.3", "--out", str(trace)) if command == "refine" else ()
    proc = run_cli(command, "--input", str(setfile), flag, value, *extra)
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    if command == "refine":
        code, out = report(trace, "json")
        assert code == 0, out
        assert json.loads(out)["measured"]["interim_bound"] == math.inf


@pytest.mark.parametrize("theorem", ["1", "2"])
def test_refine_names_an_epsilon_whose_gate_level_underflows(tmp_path, theorem):
    # eps^2/2, the first gate level of either theorem, is 0 at eps = 1e-170
    setfile, trace = tmp_path / "a.json", tmp_path / "t.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    proc = run_cli("refine", "--input", str(setfile), "--epsilon", "1e-170", "--delta", "0.3",
                   "--theorem", theorem, "--out", str(trace))
    assert proc.returncode == 2
    assert "epsilon=1e-170" in proc.stderr
    assert "spectrum level" not in proc.stderr
    assert not trace.exists()


@pytest.mark.parametrize("command", ["spectrum", "refine", "verify", "report"])
def test_deeply_nested_json_exits_2(tmp_path, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    extra = {"spectrum": ("--epsilon", "0.4"),
             "refine": ("--epsilon", "0.4", "--delta", "0.3", "--out", str(tmp_path / "t.json")),
             "verify": ("--parseval", "0.4"), "report": ()}[command]
    flag = "--trace" if command == "report" else "--input"
    proc = run_cli(command, flag, str(path), *extra)
    assert proc.returncode == 2
    assert f"error: {path}: invalid JSON: nested too deeply" in proc.stderr


@pytest.mark.parametrize("command", ["spectrum", "report"])
def test_an_integer_past_the_digit_limit_exits_2_naming_the_file(tmp_path, command):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit == 0:
        pytest.skip("this interpreter converts integer strings of any length")
    if command == "spectrum":
        source = tmp_path / "a.json"
        run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(source))
    else:
        source = EX3
    path = tmp_path / "big.json"
    text = source.read_text().rstrip()
    path.write_text(text[:-1] + ', "extra": ' + "7" * (limit + 700) + "}")
    argv = ["spectrum", "--input", str(path), "--epsilon", "0.4"] if command == "spectrum" \
        else ["report", "--trace", str(path)]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert f"error: {path}: invalid JSON: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_prints_each_failed_check_and_exits_1(tmp_path, monkeypatch):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))

    def broken(*args):
        raise AssertionError("forged failure")

    monkeypatch.setattr(cli, "statistical_doubling", broken)
    monkeypatch.setattr(cli, "spectrum", broken)
    proc = run_cli("verify", "--input", str(setfile), "--statistical-doubling", "0.4",
                   "--closure", "0.9", "--parseval", "0.4")
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "statistical-doubling FAIL: forged failure",
        "closure ok: spectrum size 1 closed into level 0.6 (size 1)",
        "parseval FAIL: forged failure",
    ]


def test_a_level_that_parts_a_pair_of_coefficients_exits_0(tmp_path):
    # on Z_32 x Z_32 x Z_2 the FFT's rounding leaves |c(gamma)| and |c(-gamma)|
    # a few ulps apart for some characters of this set; at a level whose cut
    # falls between the two, the spectrum still holds both, and every command
    # that takes it succeeds
    setfile, trace = tmp_path / "a.json", tmp_path / "t.json"
    run_cli("gen", "--kind", "random", "--group", "32,32,2", "--size", "409", "--seed", "1",
            "--out", str(setfile))
    members = read_set_file(setfile)[0]
    eps = level_parting_a_pair(dft(members))
    assert eps is not None, "no pair of this set's coefficients is parted by rounding"
    level = repr(eps)
    for argv in (["spectrum", "--input", str(setfile), "--epsilon", level],
                 ["verify", "--input", str(setfile), "--parseval", level],
                 ["refine", "--input", str(setfile), "--epsilon", level, "--delta", "0.3",
                  "--seed", "1", "--out", str(trace)]):
        proc = run_module(*argv)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr
        assert "FAIL" not in proc.stdout
    assert "audit=ok" in proc.stdout


def test_report_in_the_trivial_group_skips_the_bound_sheet(tmp_path):
    setfile, trace = tmp_path / "z1.json", tmp_path / "t.json"
    run_cli("gen", "--kind", "random", "--group", "1", "--size", "1", "--out", str(setfile))
    proc = run_cli("refine", "--input", str(setfile), "--epsilon", "0.5", "--delta", "0.3",
                   "--out", str(trace))
    assert proc.returncode == 0, proc.stderr
    assert "finished" in proc.stdout and "audit=ok" in proc.stdout
    code, out = report(trace)
    assert code == 0, out
    assert "audit: ok" in out
    assert "bounds:" not in out and "profile:" not in out
    code, out = report(trace, "json")
    assert code == 0, out
    assert json.loads(out)["bound_report"] is None


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def set_documents(draw):
    """A set file's orders and elements: well-formed, with bad numbers, or arbitrary JSON."""
    orders = draw(st.lists(st.integers(1, 8), min_size=1, max_size=4)
                  | st.lists(st.integers(-3, 70), max_size=4) | JSON_VALUES)
    if isinstance(orders, list) and all(type(n) is int and n > 0 for n in orders):
        row = st.tuples(*(st.integers(0, n - 1) for n in orders)).map(list)
    else:
        row = st.lists(st.integers(-1, 8), max_size=4)
    elements = draw(st.lists(row, max_size=12)
                    | st.lists(st.lists(st.integers(-3, 70) | JSON_VALUES, max_size=4), max_size=6)
                    | JSON_VALUES)
    return {"format": "specdbl-set", "version": 1, "orders": orders,
            "elements": elements, "metadata": {}}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(doc=set_documents(), fmt=st.sampled_from(["text", "json", "csv"]))
def test_spectrum_on_fuzzed_set_files_exits_0_or_2(doc, fmt):
    sink = io.StringIO()
    # the size ceiling keeps every valid group at or below 4096 elements
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"SPECDBL_MAX_GROUP": "4096"}), \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        path = os.path.join(tmp, "a.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        try:
            code = cli.main(["spectrum", "--input", path, "--epsilon", "0.3", "--format", fmt])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), sink.getvalue()


def _field_paths(node, prefix=()):
    """Paths to every key of every object, and to the first and last item of every list."""
    if isinstance(node, dict):
        keys = list(node)
    elif isinstance(node, list):
        keys = [0, -1] if node else []
    else:
        keys = []
    for key in keys:
        yield prefix + (key,)
        yield from _field_paths(node[key], prefix + (key,))


DELETE = object()


@st.composite
def mutated_traces(draw):
    """A stored trace with one field replaced by a JSON value or a huge int, or deleted."""
    doc = json.loads(draw(st.sampled_from(V6_TRACES)).read_text())
    path = draw(st.sampled_from(list(_field_paths(doc))))
    value = draw(st.just(DELETE) | JSON_VALUES
                 | st.integers(10**300, 10**400) | st.integers(-10**400, -10**300))
    container, key = _at(doc, path)
    if value is DELETE:
        del container[key]
    else:
        container[key] = value
    return doc


def _irregular_without_rows():
    """A minor's irregular verdict that stores the minor's mean but not its
    rows, followed by another minor: a replay that took the first minor
    would compare the second one's rows with a size of None."""
    doc = json.loads(SHRINK.read_text())
    doc["steps"][0]["minor_rows"] = None
    return doc


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=mutated_traces(), fmt=st.sampled_from(["text", "json"]))
@example(doc=_irregular_without_rows(), fmt="text")
def test_report_on_fuzzed_traces_exits_0_1_or_2(doc, fmt):
    sink = io.StringIO()
    # the size ceiling keeps a group whose orders were replaced small
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"SPECDBL_MAX_GROUP": "4096"}), \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        path = os.path.join(tmp, "trace.json")
        with open(path, "w") as f:
            json.dump(doc, f)
        code = cli.main(["report", "--trace", path, "--format", fmt])
    assert code in (0, 1, 2), sink.getvalue()
