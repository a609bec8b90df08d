import contextlib
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from specdbl import cli
from specdbl.fileio import read_set_file, read_trace_file, write_trace_file
from specdbl.refine import audit_trace
from specdbl.regularity import C1_DEFAULT, C_DEFAULT

# Version 2 traces as the last version 2 writer wrote them, one BLAS thread:
#   specdbl gen --kind example1 --n 3 --out ex3.json
#   specdbl refine --input ex3.json --epsilon 0.4 --delta 0.3 --seed 1 \
#       --out v2_example1_n3_t1.json
#   ... --theorem 2 --max-iterations 1 --out v2_example1_n3_t2_budget1.json
#   specdbl gen --kind random --group 3,5,11,13 --size 350 --seed 3 --out z.json
#   specdbl refine --input z.json --epsilon 0.1 --delta 0.3 --seed 3 --theorem 2 \
#       --out v2_shrink_z3_5_11_13_t2.json
DATA = Path(__file__).resolve().parent / "data"
V2_TRACES = sorted(DATA.glob("v2_*.json"))
SHRINK_V2 = DATA / "v2_shrink_z3_5_11_13_t2.json"


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
    assert (0, 0, 0, 0) in members

    out3 = tmp_path / "h2.json"
    proc = run_cli("gen", "--kind", "subgroup", "--group", "4,3",
                   "--gens", "2,0;0,1", "--out", str(out3))
    assert proc.returncode == 0, proc.stderr
    members, _ = read_set_file(out3)
    assert members.size == 6


@pytest.mark.parametrize("argv", [
    ("gen", "--kind", "example1", "--out", "x.json"),
    ("gen", "--kind", "example1", "--n", "2", "--group", "2,2", "--out", "x.json"),
    ("gen", "--kind", "random", "--group", "2,2", "--out", "x.json"),
    ("gen", "--kind", "subgroup", "--group", "2,2", "--out", "x.json"),
    ("gen", "--kind", "subgroup", "--group", "2,2", "--gens", "111", "--out", "x.json"),
])
def test_gen_usage_errors(tmp_path, argv):
    argv = [a if a != "x.json" else str(tmp_path / "x.json") for a in argv]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()


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


@pytest.mark.parametrize("version,forge,needle", [
    (3, lambda s: s.update(upper_bound=0.9), "certified although the bound 0.9 is not below lambda"),
    # version 3 stores no lambda, and a version 2 trace's is never read
    (2, lambda s: s.update(lam=0.95, upper_bound=0.9),
     "certified although the bound 0.9 is not below lambda"),
    (3, lambda s: s.update(verdict_status="undetermined"),
     "certified flag True, but the last step gives ('inconclusive', False)"),
], ids=["upper-bound", "lambda", "verdict"])
def test_report_rejects_a_forged_certificate(tmp_path, version, forge, needle):
    trace = tmp_path / "trace.json"
    if version == 2:
        trace.write_bytes((DATA / "v2_example1_n3_t1.json").read_bytes())
    else:
        setfile = tmp_path / "a.json"
        run_cli("gen", "--kind", "example1", "--n", "3", "--out", str(setfile))
        run_cli("refine", "--input", str(setfile), "--epsilon", "0.4",
                "--delta", "0.3", "--seed", "1", "--out", str(trace))
    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "audit: ok" in proc.stdout

    doc = json.loads(trace.read_text())
    assert doc["version"] == version
    finish = doc["steps"][-1]
    assert finish["action"] == "finish" and finish["verdict_status"] == "regular"
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


def _as_version_1(doc, **old):
    values = {"c1": C1_DEFAULT, "c": C_DEFAULT, "witness_restarts": 8,
              "witness_alternations": 60}
    values.update(old)
    doc["version"] = 1
    doc["config"].update(values)


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
FLOAT_FIELDS = [("rho_star",), ("config", "epsilon"), ("config", "delta"), ("config", "k_bound"),
                *(("steps", 0, name) for name in
                  ("rho", "rho_next", "upper_bound", "witness_value", "new_mean"))]


@pytest.mark.parametrize("tamper", [
    *(_past_float_range(*path) for path in FLOAT_FIELDS),
    lambda d: d["steps"][0].update(rho="x"),
    lambda d: d["measured"].pop("gate_size"),
    lambda d: _as_version_1(d, c1="zz"),
    lambda d: _as_version_1(d, witness_restarts=3),
    lambda d: d.update(a_star=[]),
    lambda d: d.update(rho_star=0.0),
    lambda d: d["measured"].update(gate_size=10**400),
    lambda d: d["config"].update(k_bound=math.inf),
    lambda d: d["config"].update(k_bound=math.nan),
], ids=[*("float-range-" + "-".join(map(str, path)) for path in FLOAT_FIELDS),
        "step-rho-string", "measured-missing-key", "v1-c1-string", "v1-other-budget",
        "empty-a-star", "rho-star-zero", "count-past-float-range", "k-bound-infinite",
        "k-bound-nan"])
def test_report_rejects_a_malformed_trace_with_exit_2(tmp_path, tamper):
    trace = _refined_trace(tmp_path)
    doc = json.loads(trace.read_text())
    tamper(doc)
    trace.write_text(json.dumps(doc))

    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_version_1_trace_reports_like_version_2(tmp_path):
    # each stored version 2 trace, its version 1 form and its version 3
    # rewrite give the same report, byte for byte
    assert len(V2_TRACES) == 3
    for stored in V2_TRACES:
        doc = json.loads(stored.read_text())
        assert doc["version"] == 2
        old = tmp_path / "v1.json"
        _as_version_1(doc)
        old.write_text(json.dumps(doc))
        new = tmp_path / "v3.json"
        write_trace_file(new, *read_trace_file(stored)[:2])
        assert json.loads(new.read_text())["version"] == 3
        for fmt in ("text", "json"):
            expected = report(stored, fmt)
            assert expected[0] == 0, expected[1]
            assert report(old, fmt) == expected
            assert report(new, fmt) == expected


def _forge_k(doc):
    doc["measured"]["K"] = 1e12
    doc["steps"][-1]["gate_size"] = 10**9


def _forge_bounds(doc):
    doc["measured"].update(certified_doubling_bound=1e30, interim_bound=1e30, sumset_size=10**8)


def _forge_direct_check(doc):
    doc["certified"] = False
    doc["measured"]["certified_doubling_bound"] = 1.0
    doc["steps"][-1].update(verdict_status="undetermined", certified=False, direct_check=False)


@pytest.mark.parametrize("forge,needle", [
    (_forge_k, "finish with a failing gate (1000000000 > "),
    (_forge_bounds, "no spectrum in |G|=64 has the measured |S|=8, |S+S|=100000000"),
    (_forge_direct_check, "direct_check is False, expected True"),
], ids=["K", "bounds", "direct-check"])
def test_report_derives_what_a_version_2_trace_stored(tmp_path, forge, needle):
    # each forgery keeps the audit that a reader taking K and the bounds from
    # the file recomputes, so such a reader printed "audit: ok" and exited 0
    doc = json.loads((DATA / "v2_example1_n3_t1.json").read_text())
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
    write_trace_file(trace, *read_trace_file(SHRINK_V2)[:2])
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
    doc = json.loads((DATA / "v2_example1_n3_t1.json").read_text())
    doc["steps"][-1]["spec_size"] = 10**400
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps(doc))
    proc = run_cli("report", "--trace", str(trace))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert f"violation: step 1: no spectrum in |G|=64 has |Spec_rho|={10**400}" in proc.stdout


@functools.cache
def _v3_text(stored):
    """The version 3 rewrite of a stored trace, as JSON text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "v3.json"
        write_trace_file(path, *read_trace_file(stored)[:2])
        return path.read_text()


def _forge_step(i, **fields):
    return lambda doc: doc["steps"][i].update(fields)


@pytest.mark.parametrize("stored,forge,needle", [
    ("v2_example1_n3_t1.json", _forge_step(0, minor_rows=3), "step 1: |A|=7, but step 0 leaves 3"),
    ("v2_shrink_z3_5_11_13_t2.json", _forge_step(2, a_size=3), "step 2: |A|=3, but step 1 leaves 4"),
    ("v2_example1_n3_t2_budget1.json", _forge_step(0, minor_rows=9),
     "final |A*|=7, but the last step leaves 9"),
    ("v2_example1_n3_t2_budget1.json", _forge_step(0, minor_rows=20),
     "step 0: a minor of 20 rows of 15"),
    ("v2_example1_n3_t1.json", lambda doc: doc["measured"].update(sumset_size=64),
     "certified, but |S+S|=64 is above the certified doubling bound 20.0"),
], ids=["minor-rows", "size-without-a-minor", "final-size", "minor-past-its-matrix",
        "certified-bound"])
def test_audit_follows_set_sizes_and_certified_bounds(tmp_path, stored, forge, needle):
    doc = json.loads(_v3_text(DATA / stored))
    forge(doc)
    trace = tmp_path / "forged.json"
    trace.write_text(json.dumps(doc))
    code, out = report(trace)
    assert code == 1
    assert "audit: FAIL" in out
    assert f"violation: {needle}" in out
    code, out = report(trace, "json")
    assert code == 1 and json.loads(out)["ok"] is False


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


def test_faithful_mode_passes_its_audit(tmp_path):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "random", "--group", "3,5,11,13", "--size", "60",
            "--seed", "1", "--out", str(setfile))
    trace = tmp_path / "trace.json"
    proc = run_cli("refine", "--input", str(setfile), "--mode", "faithful",
                   "--epsilon", "0.3", "--delta", "0.2", "--max-iterations", "5",
                   "--out", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "audit=ok" in proc.stdout

    result, _, _ = read_trace_file(trace)
    minors = [s for s in result.trace if s.action == "minor"]
    assert minors
    assert all(s.rho_next > s.rho for s in minors)


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
    """Traces of one refine run under 1 and 2 BLAS threads, checked to agree."""
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
    assert any(step["action"] == "minor" for step in docs[0]["steps"])
    _assert_same_document(docs[0], docs[1])
    return docs[0]


def test_refine_trace_does_not_depend_on_blas_threads(tmp_path):
    # a random set in Z_3^8 whose step-4 witness value moved by 0.36 % between
    # one and two BLAS threads before the search got its zero and tie rules
    _refine_under_one_and_two_threads(
        tmp_path, ("--kind", "random", "--group", ",".join(["3"] * 8), "--size", "820",
                   "--seed", "1"), "2")


def test_certificate_past_the_crossover_does_not_depend_on_blas_threads(tmp_path):
    # the two-axis set in Z_2^16: matrices with 511 and 255 rows, whose
    # verdicts come from the Frobenius bound and the search
    doc = _refine_under_one_and_two_threads(tmp_path, ("--kind", "example1", "--n", "8"), "1")
    assert min(min(s["a_size"], s["spec_size"]) for s in doc["steps"]) >= 200


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


def test_bad_parameters_exit_2(tmp_path):
    setfile = tmp_path / "a.json"
    run_cli("gen", "--kind", "example1", "--n", "2", "--out", str(setfile))
    proc = run_cli("refine", "--input", str(setfile), "--epsilon", "1.5",
                   "--delta", "0.3", "--out", str(tmp_path / "t.json"))
    assert proc.returncode == 2
    assert "epsilon" in proc.stderr


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
    doc = json.loads(_v3_text(draw(st.sampled_from(V2_TRACES))))
    path = draw(st.sampled_from(list(_field_paths(doc))))
    value = draw(st.just(DELETE) | JSON_VALUES
                 | st.integers(10**300, 10**400) | st.integers(-10**400, -10**300))
    container, key = _at(doc, path)
    if value is DELETE:
        del container[key]
    else:
        container[key] = value
    return doc


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=mutated_traces(), fmt=st.sampled_from(["text", "json"]))
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
