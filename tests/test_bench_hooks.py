"""The benchmark's per-layer spans must still find the functions they wrap,
and its output checks must still accept what the package writes."""

import contextlib
import importlib.util
import io
from pathlib import Path

from specdbl import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


def test_every_benchmark_span_finds_a_function():
    tracing = _load("tracing")
    assert tracing.Tracer().absent_spans() == set()


def test_benchmark_checks_accept_a_fresh_trace_and_its_report(tmp_path):
    # a change to the trace or report format that the benchmark's oracle
    # cannot read fails here rather than in a benchmark run
    oracle = _load("oracle")
    setfile, trace = tmp_path / "a.json", tmp_path / "trace.json"
    _stdout("gen", "--kind", "example1", "--n", "3", "--out", str(setfile))
    stdout = _stdout("refine", "--input", str(setfile), "--epsilon", "0.4", "--delta", "0.3",
                     "--seed", "1", "--out", str(trace))
    for closed_form_n in (3, None):  # the two-axis family's closed form, and the FFT recount
        check = {"kind": "refine", "input": str(setfile), "theorem": 1, "epsilon": 0.4,
                 "closed_form_n": closed_form_n}
        oracle.check_op(check, stdout, str(trace), {})
    for fmt in ("text", "json"):
        check = {"kind": "report", "trace": str(trace), "format": fmt}
        oracle.check_op(check, _stdout("report", "--trace", str(trace), "--format", fmt),
                        None, {})
