import dataclasses
import json
import math
import tracemalloc
from fractions import Fraction

import pytest

from specdbl.diagnostics import example_counterexample
from specdbl.fileio import read_trace_file, write_trace_file
from specdbl.fourier import dft, spectrum
from specdbl.groups import ElementSet, FiniteAbelianGroup, random_subset, subgroup_span, sumset
from specdbl.refine import (
    RefineConfig,
    audit_trace,
    final_bound_report,
    refine_theorem1,
    refine_theorem2,
)
from specdbl import refine, regularity
from specdbl.regularity import RegularityVerdict


def z2(n):
    return FiniteAbelianGroup((2,) * n)


@pytest.fixture
def plane():
    g = z2(4)
    return g, subgroup_span(g, [(1, 0, 0, 0), (0, 1, 0, 0)])


@pytest.mark.parametrize("run", [refine_theorem1, refine_theorem2])
def test_subgroup_is_a_fixed_point(plane, run):
    _, h = plane
    cfg = RefineConfig(epsilon=0.5, delta=0.3, seed=0)
    result = run(h, cfg)
    assert result.terminated == "finished"
    assert result.certified
    assert len(result.trace) == 1
    step = result.trace[0]
    assert step.action == "finish"
    assert step.verdict_status == "regular"
    assert result.a_star == h
    assert result.rho_star == 0.5
    assert result.measured["doubling"] == 1.0
    assert result.measured["spec_size"] == 4
    assert audit_trace(result, h).ok


@pytest.mark.parametrize("run", [refine_theorem1, refine_theorem2])
def test_subgroup_plus_a_point_is_certified(run):
    # a subgroup of order 2^10 plus one point in Z_2^12: the search value,
    # 1/1025, is below the first lambda at epsilon 0.4, and the +-1
    # certificate's bound is that value rounded up, so the first matrix is
    # certified; the Frobenius bound, 0.044, left it undetermined and the
    # finish uncertified
    g = z2(12)
    mask = subgroup_span(g, [tuple(int(i == j) for i in range(12)) for j in range(10)]).mask.copy()
    mask[g.size - 1] = True
    a = ElementSet(g, mask)
    result = run(a, RefineConfig(epsilon=0.4, delta=0.3, seed=0))
    assert result.terminated == "finished"
    assert result.certified
    (step,) = result.trace
    assert step.action == "finish" and step.verdict_status == "regular"
    upper = step.upper_bound
    assert Fraction(math.nextafter(upper, -math.inf)) < Fraction(1, 1025) <= upper
    assert result.a_star == a
    assert audit_trace(result, a).ok


def test_example_set_collapses_to_a_subgroup_block():
    ex = example_counterexample(3)
    cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=1)
    result = refine_theorem1(ex.members, cfg)
    assert result.terminated == "finished"
    assert result.certified
    actions = [s.action for s in result.trace]
    assert actions == ["minor", "finish"]
    # the minor lands inside one of the two subgroup halves
    assert result.a_star.size == 7
    assert result.rho_star == 1.0
    assert result.measured["spec_size"] == 8
    assert result.measured["sumset_size"] == 8
    assert result.measured["sumset_size"] < ex.members.group.size
    assert audit_trace(result, ex.members).ok


def test_example_set_squaring_schedule():
    ex = example_counterexample(3)
    cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=1)
    result = refine_theorem2(ex.members, cfg)
    assert result.terminated == "finished"
    assert result.certified
    assert audit_trace(result, ex.members).ok
    # squaring schedule reports the K^2-style interim bounds
    assert "k_squared_bound" in result.measured
    assert result.measured["sumset_size"] <= result.measured["k_squared_bound"]


def test_runs_are_deterministic():
    ex = example_counterexample(3)
    cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=7)
    one = refine_theorem1(ex.members, cfg)
    two = refine_theorem1(ex.members, cfg)
    assert one.trace == two.trace
    assert one.a_star == two.a_star
    assert one.measured == two.measured


@pytest.mark.parametrize("orders,size,seed", [
    ((2, 2, 2, 2), 6, 11),
    ((2, 2, 2, 2), 9, 12),
    ((3, 3, 3), 7, 13),
    ((3, 3, 3), 12, 14),
])
@pytest.mark.parametrize("run", [refine_theorem1, refine_theorem2])
def test_trace_invariants_on_random_sets(orders, size, seed, run):
    g = FiniteAbelianGroup(orders)
    a = random_subset(g, size, seed=seed)
    cfg = RefineConfig(epsilon=0.35, delta=0.4, seed=seed)
    result = run(a, cfg)
    assert result.terminated in ("finished", "budget_exhausted", "inconclusive")
    report = audit_trace(result, a)
    assert report.ok, report.violations
    sizes = [s.a_size for s in result.trace]
    assert sizes == sorted(sizes, reverse=True)
    for s in result.trace:
        if s.action == "minor":
            assert s.rho_next > s.rho
        elif s.action == "growth":
            assert s.rho_next < s.rho
    theorem = result.theorem
    for s in result.trace:
        if s.action == "growth":
            level = cfg.epsilon * s.rho / 2 if theorem == 1 else s.rho**2 / 2
            assert s.rho_next == level


def test_final_spectrum_state_matches_measured():
    ex = example_counterexample(3)
    cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=1)
    result = refine_theorem1(ex.members, cfg)
    table = dft(result.a_star)
    spec = spectrum(table, result.measured["spec_level"])
    assert len(spec) == result.measured["spec_size"]
    plus = sumset(spec, spec)
    assert len(plus) == result.measured["sumset_size"]


def test_audit_survives_counts_past_float_range(plane):
    # counts past float range fail the count check and reach neither the
    # gate tests nor the t-ratios, which take them to floating point
    _, h = plane
    result = refine_theorem1(h, RefineConfig(epsilon=0.5, delta=0.3, seed=0))
    step = result.trace[0]
    grow = dataclasses.replace(step, action="growth", rho_next=step.rho)
    for trace in [
        (dataclasses.replace(step, spec_size=10**400),),
        (grow, dataclasses.replace(grow, spec_size=10**400), step),
    ]:
        report = audit_trace(dataclasses.replace(result, trace=trace), h)
        assert not report.ok
        assert report.t_ratios == ()
        assert any(f"|Spec_rho|={10**400}" in v for v in report.violations)


def test_audit_flags_a_tampered_trace(plane):
    _, h = plane
    cfg = RefineConfig(epsilon=0.5, delta=0.3, seed=0)
    result = refine_theorem1(h, cfg)
    assert audit_trace(result, h).ok

    # the audit derives every step from its observations, as the run does
    low = dataclasses.replace(result.trace[0], rho=1e-6, rho_next=1e-6)
    tampered = dataclasses.replace(result, trace=(low,), rho_star=1e-6)
    report = audit_trace(tampered, h)
    assert not report.ok
    assert ("step 0: action, rho, rho_next, a_size = ('finish', 1e-06, 1e-06, 4), but the "
            "run's rule gives ('finish', 0.5, 0.5, 4)") in report.violations

    fake_growth = dataclasses.replace(result.trace[0], action="growth")
    tampered = dataclasses.replace(result, trace=(fake_growth,))
    report = audit_trace(tampered, h)
    assert not report.ok
    assert ("step 0: action, rho, rho_next, a_size = ('growth', 0.5, 0.5, 4), but the run's "
            "rule gives ('finish', 0.5, 0.5, 4)") in report.violations

    drifted = dataclasses.replace(result, rho_star=0.25)
    report = audit_trace(drifted, h)
    assert not report.ok
    assert any("does not match the last step" in v for v in report.violations)

    uncertified = dataclasses.replace(result.trace[0], verdict_status="undetermined")
    tampered = dataclasses.replace(result, trace=(uncertified,))
    report = audit_trace(tampered, h)
    assert not report.ok
    assert any("certified flag" in v for v in report.violations)

    shrunk = dataclasses.replace(result.trace[0], a_size=3)
    report = audit_trace(dataclasses.replace(result, trace=(shrunk,)), h)
    assert report.violations == ("step 0: action, rho, rho_next, a_size = ('finish', 0.5, 0.5, 3), "
                                 "but the run's rule gives ('finish', 0.5, 0.5, 4)",)

    unfinished = dataclasses.replace(result, terminated="inconclusive", certified=False)
    report = audit_trace(unfinished, h)
    assert report.violations == (
        "result inconclusive with certified flag False, but the last step gives "
        "('finished', True)",
    )

    g, _ = plane
    line = subgroup_span(g, [(0, 0, 1, 0)])
    report = audit_trace(result, line)
    assert not report.ok
    assert "3 of the 4 final elements lie outside the input set" in report.violations


@pytest.mark.parametrize("run", [refine_theorem1, refine_theorem2])
def test_audit_floor_is_rho_after_the_growths(plane, run):
    # rho starts at eps, and a finish keeps it
    _, h = plane
    result = run(h, RefineConfig(epsilon=0.5, delta=0.3, seed=0))
    assert result.rho_star == 0.5 and audit_trace(result, h).ok
    low = dataclasses.replace(result.trace[0], rho=0.49, rho_next=0.49)
    report = audit_trace(dataclasses.replace(result, trace=(low,), rho_star=0.49), h)
    assert ("step 0: action, rho, rho_next, a_size = ('finish', 0.49, 0.49, 4), but the "
            "run's rule gives ('finish', 0.5, 0.5, 4)") in report.violations
    assert "final rho 0.49 does not match the last step (0.5)" in report.violations


def test_bound_report_round_trips_and_holds(plane):
    _, h = plane
    cfg = RefineConfig(epsilon=0.5, delta=0.3, seed=0)
    result = refine_theorem1(h, cfg)
    report = final_bound_report(result, h)
    assert report.alpha == pytest.approx(0.5)
    assert report.empirical_shrink == 1.0
    assert report.certified_doubling_holds and report.interim_holds
    assert report.certified
    plain = report.to_dict()
    assert json.loads(json.dumps(plain)) == plain


def test_bound_report_requires_a_finished_run():
    ex = example_counterexample(3)
    cfg = RefineConfig(epsilon=0.4, delta=0.3, seed=1, max_iterations=1)
    result = refine_theorem1(ex.members, cfg)
    assert result.terminated == "budget_exhausted"
    with pytest.raises(ValueError, match="finished"):
        final_bound_report(result, ex.members)


def test_undecided_verdict_falls_back_to_the_direct_check(plane, monkeypatch):
    _, h = plane

    def undecided(matrix, lam, seed=0):
        return RegularityVerdict(
            status="undetermined", lam=lam, upper_bound=1.0,
            witness=None, lower_bound=0.0,
        )

    monkeypatch.setattr("specdbl.refine.decide_regularity", undecided)
    cfg = RefineConfig(epsilon=0.5, delta=0.3, seed=0)
    result = refine_theorem1(h, cfg)
    # the subgroup spectrum trivially satisfies the doubling conclusion,
    # so the run finishes without a certificate
    assert result.terminated == "finished"
    assert not result.certified
    assert audit_trace(result, h).ok

    # the audit takes the direct check from the measured counts: |S+S| = 12
    # is above 2 |Spec_gate|^2 / (0.8 |Spec_rho|) = 10
    assert result.measured["certified_doubling_bound"] == 10.0
    failed = dataclasses.replace(result, measured=dict(result.measured, sumset_size=12))
    report = audit_trace(failed, h)
    assert report.violations == (
        "result finished with certified flag False, but the last step gives "
        "('inconclusive', False)",
    )


def test_minor_without_progress(monkeypatch):
    def halved(matrix, witness, lam):
        ext = regularity.extract_minor(matrix, witness, lam)
        return dataclasses.replace(ext, new_mean=abs(complex(matrix.entries.mean())) / 2)

    monkeypatch.setattr("specdbl.refine.extract_minor", halved)
    members = example_counterexample(3).members
    result = refine_theorem1(members, RefineConfig(epsilon=0.4, delta=0.3, seed=1))
    first = result.trace[0]
    # a minor that does not raise the mean ends the run on the direct check
    assert [s.action for s in result.trace] == ["finish"]
    assert first.verdict_status == "irregular"
    assert first.minor_rows is not None  # the minor it did not take
    assert result.terminated == "inconclusive"
    assert audit_trace(result, members).ok


def test_threshold_floor_aborts_honestly(plane):
    _, h = plane
    cfg = RefineConfig(epsilon=1e-9, delta=0.3, seed=0)
    result = refine_theorem1(h, cfg)
    assert result.terminated == "inconclusive"
    assert not result.certified
    assert result.trace[0].action == "abort"
    assert audit_trace(result, h).ok


def test_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        RefineConfig(epsilon=0.0, delta=0.3)
    with pytest.raises(ValueError, match="epsilon"):
        RefineConfig(epsilon=1.0, delta=0.3)
    with pytest.raises(ValueError, match="delta"):
        RefineConfig(epsilon=0.4, delta=1.5)
    with pytest.raises(ValueError, match="max_iterations"):
        RefineConfig(epsilon=0.4, delta=0.3, max_iterations=0)


@pytest.mark.parametrize("run, power", [(refine_theorem1, 0.3), (refine_theorem2, 0.15)],
                         ids=["theorem1", "theorem2"])
def test_gate_constant_comes_from_delta(tmp_path, run, power):
    # K = |G|^delta on the linear schedule and |G|^(delta/2) on the squaring
    # one, in the run and in the result a reader rebuilds from its trace
    a = random_subset(FiniteAbelianGroup((3, 5, 7)), 20, seed=4)
    result = run(a, RefineConfig(epsilon=0.4, delta=0.3, seed=0))
    assert result.measured["K"] == 105 ** power
    path = tmp_path / "trace.json"
    write_trace_file(path, result, a)
    assert read_trace_file(path)[0].measured == result.measured


def test_empty_set_is_rejected(plane):
    g, _ = plane
    from specdbl.groups import ElementSet

    empty = ElementSet.from_indices(g, [])
    cfg = RefineConfig(epsilon=0.5, delta=0.3)
    with pytest.raises(ValueError, match="nonempty"):
        refine_theorem1(empty, cfg)


def test_a_run_holds_one_step_matrix_at_a_time(monkeypatch):
    # example1 at n = 9 (Z_2^18, the certify workload's set) takes a minor
    # at step 0 and finishes certified at step 1.  The allowance over step
    # 0's matrix is the size of step 1's table and matrix: the run's peak
    # stays within it, while a run that kept step 0's matrix alive into step
    # 1 holds both of those on top of it, with their temporaries.  At n = 7
    # and 8 step 0's own temporaries set the peak either way.  A first run
    # outside the trace does the lazy imports and caches
    a = example_counterexample(9).members
    cfg = RefineConfig(epsilon=0.4, delta=0.3)
    refine_theorem1(a, cfg)
    at_build = []
    build = refine.build_matrix

    def spy(*args):
        at_build.append(tracemalloc.get_traced_memory()[0])
        return build(*args)

    monkeypatch.setattr(refine, "build_matrix", spy)
    tracemalloc.start()
    try:
        result = refine_theorem1(a, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    first, second = result.trace
    assert (first.action, second.action, result.certified) == ("minor", "finish", True)
    matrix0 = first.a_size * first.spec_size * 8
    allowance = second.a_size * second.spec_size * 8 + a.group.size * 8
    # step 0's matrix is freed before step 1 builds its own
    assert at_build[1] < matrix0
    assert peak <= matrix0 + allowance


def test_a_matrix_past_the_cell_budget_is_refused_naming_the_step(monkeypatch):
    # 12 elements of Z_3^3: step 0 grows from a 12 x 1 matrix, step 1 would
    # build a 12 x 23 complex one.  The budget is 4 cells per element of
    # SPECDBL_MAX_GROUP = 27, 108 cells
    a = random_subset(FiniteAbelianGroup((3, 3, 3)), 12, seed=3)
    monkeypatch.setattr(refine, "_CELLS_PER_ELEMENT", 4)
    monkeypatch.setenv("SPECDBL_MAX_GROUP", "27")
    built = []
    build = refine.build_matrix
    monkeypatch.setattr(refine, "build_matrix", lambda *args: built.append(args) or build(*args))
    with pytest.raises(ValueError) as err:
        refine_theorem1(a, RefineConfig(epsilon=0.4, delta=0.3))
    assert str(err.value) == (
        "step 1: the coherence matrix of 12 x 23 cells would take 4416 bytes, past the "
        "budget of 108 cells (1728 bytes; 4 cells per element of SPECDBL_MAX_GROUP = 27)")
    assert [args[1].size for args in built] == [1]  # the refused matrix was never built
    monkeypatch.setattr(refine, "_CELLS_PER_ELEMENT", 23)
    assert [s.action for s in refine_theorem1(a, RefineConfig(epsilon=0.4, delta=0.3)).trace][:2] \
        == ["growth", "minor"]
