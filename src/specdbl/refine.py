"""Iterative refinement of a set toward a certified-regular spectrum.

Starting from A_0 = A and rho_0 = epsilon, each round inspects the coherence
matrix of A_i against its rho_i-spectrum:

  (i)   the gate |Spec_gate| <= K |Spec_rho| holds and no minor is taken:
        finish with A* = A_i, certified if the matrix is, else on a direct
        check of the doubling conclusion;
  (ii)  a witness of irregularity exists: replace A_i by the extracted minor
        and raise rho;
  (iii) the gate fails: keep the set and drop rho to the gate level.

The first procedure runs the linear-shrink schedule (lambda = eps*rho/150,
gate at eps*rho/2); the second runs the squaring schedule (lambda = rho^2/150,
gate at rho^2/2).  A round observes two spectrum sizes, a verdict and, on an
irregular verdict, a minor; ``_replay`` derives its action, rho and |A| from
them for the run, the trace reader and the audit alike.  ``_measure`` derives
the final measurements from four counts.  A trace stores only the
observations (``OBSERVED``) and the counts (``MEASURED_COUNTS``).

One step's arrays are alive at a time.  A round's coherence matrix, verdict
and minor are the locals of ``_observe``, freed when it returns, and the
round's table and spectra are dropped before the next round's ``dft``; so
the largest array a run holds is one matrix.  A matrix past
``_CELLS_PER_ELEMENT`` cells per element of the largest group allowed
(``SPECDBL_MAX_GROUP``) is refused before it is built, with a ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .coherence import _TOL, build_matrix
from .fourier import dft, spectrum
from .groups import ElementSet, _max_group_size, sumset
from .regularity import _verdict_fault, decide_regularity, extract_minor

__all__ = [
    "RefineConfig",
    "RefineTraceStep",
    "RefineResult",
    "AuditReport",
    "BoundReport",
    "refine_theorem1",
    "refine_theorem2",
    "audit_trace",
    "final_bound_report",
]

# what a trace stores of ``RefineResult.measured``; ``_measure`` derives the rest
MEASURED_COUNTS = ("spec_size", "sumset_size", "spec_rho_size", "gate_size")
# what a trace stores of a step; ``_replay`` derives the rest
OBSERVED = ("spec_size", "gate_size", "verdict_status", "upper_bound", "witness_value",
            "new_mean", "minor_rows", "minor_cols")
# below this rho, membership in the spectrum sinks into the transform's rounding
_RHO_FLOOR = 1e-8
# cells of the one coherence matrix a step may build, per element of the
# largest group allowed: 2^26 cells at the default 2^20, 512 MiB in float64
# and 1 GiB in complex128.  A step's tracemalloc peak is about 2.5 times the
# matrix on a complex one (the certificate's centred copy and moduli) and
# 2.1 times on a real one, so about 2.5 GiB and 1.1 GiB at the budget
_CELLS_PER_ELEMENT = 64


@dataclass(frozen=True)
class RefineConfig:
    epsilon: float
    delta: float
    max_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not self.epsilon * self.epsilon / 2.0 > 0:  # the first gate level of either theorem
            raise ValueError(f"refinement needs eps^2/2 > 0, got epsilon={self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class RefineTraceStep:
    # derived by _replay from the observations below and the steps before
    action: str  # "finish" | "minor" | "growth" | "abort"
    rho: float
    rho_next: float
    a_size: int
    # observed by the run; the minor is that of an irregular verdict, taken or not
    spec_size: int
    gate_size: int
    verdict_status: str
    upper_bound: float
    witness_value: Optional[float]
    new_mean: Optional[float]
    minor_rows: Optional[int]
    minor_cols: Optional[int]

    def observed(self) -> dict:
        """The fields a trace stores of this step."""
        return {name: getattr(self, name) for name in OBSERVED}


@dataclass(frozen=True)
class RefineResult:
    theorem: int
    a_star: ElementSet
    rho_star: float
    terminated: str  # "finished" | "budget_exhausted" | "inconclusive"
    certified: bool
    trace: tuple
    measured: dict
    config: RefineConfig


def _gate_level(theorem: int, epsilon: float, rho: float) -> float:
    return (epsilon * rho if theorem == 1 else rho * rho) / 2.0


def _lambda_level(theorem: int, epsilon: float, rho: float) -> float:
    return (epsilon * rho if theorem == 1 else rho * rho) / 150.0


def _resolve_k(cfg: RefineConfig, theorem: int, group_size: int) -> float:
    """The gate constant K: |G|^delta (linear) or |G|^(delta/2) (squaring)."""
    power = cfg.delta if theorem == 1 else cfg.delta / 2.0
    return float(group_size) ** power


def _replay(theorem: int, cfg: RefineConfig, k_value: float, rho: float, size: int,
            observed):
    """The steps of a run from rho and a set of ``size`` elements that
    observes ``observed``, one dict of ``OBSERVED`` fields per step.

    A step aborts below the rho floor.  It takes a minor on an irregular
    verdict whose minor's mean beats rho, which raises rho to that mean
    (capped at 1) and leaves the minor's rows.  Else it finishes when the
    gate |Spec_gate| <= K |Spec_rho| holds and grows, dropping rho to the
    gate level, when it fails.  The rule is total on observations of the
    right types, so that the audit can name what is wrong with them: an
    irregular verdict without its minor's rows takes no minor.
    """
    for obs in observed:
        new_mean, rows = obs["new_mean"], obs["minor_rows"]
        rho_next, size_next = rho, size
        if rho < _RHO_FLOOR:
            action = "abort"
        elif (obs["verdict_status"] == "irregular" and rows is not None
              and new_mean is not None and new_mean > rho):
            action = "minor"
            rho_next = min(1.0, new_mean)
            size_next = rows
        # compared exactly, so that no count a trace stores can overflow it
        elif obs["gate_size"] <= Fraction(k_value) * obs["spec_size"]:
            action = "finish"
        else:
            action = "growth"
            rho_next = _gate_level(theorem, cfg.epsilon, rho)
        yield RefineTraceStep(action=action, rho=rho, rho_next=rho_next, a_size=size, **obs)
        rho, size = rho_next, size_next


def _outcome(trace, measured: dict) -> tuple:
    """(terminated, certified) of a run with these steps and final
    measurement.  A finish without a regular verdict rests on the exact test
    of the doubling conclusion, |S+S| <= 2 |Spec_gate|^2 / (0.8 |Spec_rho|)."""
    last = trace[-1]
    if last.action == "finish":
        regular = last.verdict_status == "regular"
        holds = regular or measured["sumset_size"] <= measured["certified_doubling_bound"]
        return ("finished" if holds else "inconclusive"), regular
    return ("inconclusive" if last.action == "abort" else "budget_exhausted"), False


def _measure(theorem: int, cfg: RefineConfig, group_size: int, a_size: int, rho: float,
             initial_spec_size: int, *, spec_size: int, sumset_size: int,
             spec_rho_size: int, gate_size: int) -> dict:
    """Every measured quantity of a final state (A*, rho*) from its counts:
    |S| for S = Spec at the measured level, |S + S| (= |S - S|, since
    ``spectrum`` makes every spectrum closed under negation), |Spec_rho*|,
    |Spec_gate| and step 0's |Spec_eps|."""
    k_value = _resolve_k(cfg, theorem, group_size)
    measured = {
        "spec_level": cfg.epsilon if theorem == 1 else rho,
        "spec_size": spec_size,
        "sumset_size": sumset_size,
        "spec_rho_size": spec_rho_size,
        "gate_size": gate_size,
        # max(1, .) only acts on counts no spectrum has, which the audit rejects
        "certified_doubling_bound": 2.0 * gate_size**2 / (0.8 * max(1, spec_rho_size)),
        "doubling": sumset_size / max(1, spec_size),
        "initial_spec_size": initial_spec_size,
        "K": k_value,
    }
    if theorem == 1:
        denominator = cfg.epsilon**2 * rho**2 * a_size  # 0 once eps^2 rho^2 underflows
        measured["interim_bound"] = (
            8.0 * k_value * group_size / denominator if denominator > 0 else math.inf
        )
    else:
        measured["interim_bound"] = 2.0 * k_value * gate_size
        # K < |G| keeps K * K finite; a forged count past float range raises OverflowError
        measured["k_squared_bound"] = 2.0 * k_value * k_value * spec_rho_size
        measured["spec_ratio"] = spec_rho_size / max(1, initial_spec_size)
    return measured


def _observe(step: int, current: ElementSet, spec_rho: ElementSet, table, lam: float,
             seed: int, observed: dict):
    """Fill in ``observed`` with the verdict on the coherence matrix of
    ``current`` against ``spec_rho`` and, when it is irregular, the minor;
    return the minor's row positions, or None.

    The matrix, the verdict and the minor are this function's locals, so
    they are freed when it returns, before the next step's ``dft``.  A matrix
    of more cells than the budget is refused before it is built."""
    rows, cols = current.size, spec_rho.size
    ceiling = _max_group_size()
    budget = _CELLS_PER_ELEMENT * ceiling
    if rows * cols > budget:
        itemsize = table.coeffs.itemsize  # float64 tables give float64 matrices
        raise ValueError(
            f"step {step}: the coherence matrix of {rows} x {cols} cells would take "
            f"{rows * cols * itemsize} bytes, past the budget of {budget} cells "
            f"({budget * itemsize} bytes; {_CELLS_PER_ELEMENT} cells per element of "
            f"SPECDBL_MAX_GROUP = {ceiling})")
    matrix = build_matrix(current, spec_rho, table)
    verdict = decide_regularity(matrix, lam, seed=seed)
    observed.update(verdict_status=verdict.status, upper_bound=verdict.upper_bound,
                    witness_value=None if verdict.witness is None else verdict.witness.value)
    if verdict.status != "irregular":
        return None
    extraction = extract_minor(matrix, verdict.witness, lam)
    observed.update(new_mean=extraction.new_mean,
                    minor_rows=int(extraction.row_positions.size),
                    minor_cols=int(extraction.col_positions.size))
    return extraction.row_positions


def _run(a: ElementSet, cfg: RefineConfig, theorem: int) -> RefineResult:
    if a.size == 0:
        raise ValueError("refinement needs a nonempty starting set")
    group = a.group
    k_value = _resolve_k(cfg, theorem, group.size)
    current = a
    table = dft(current)
    rho = cfg.epsilon
    trace: list[RefineTraceStep] = []

    for i in range(cfg.max_iterations + 1):
        lam = _lambda_level(theorem, cfg.epsilon, rho)
        spec_rho = spectrum(table, rho)
        gate = spectrum(table, _gate_level(theorem, cfg.epsilon, rho))
        if i == cfg.max_iterations:
            break  # budget spent; every exit holds the final state's spectra
        # the verdict fields are an abort's until a verdict replaces them
        observed = dict(dict.fromkeys(OBSERVED), spec_size=len(spec_rho), gate_size=len(gate),
                        verdict_status="undetermined", upper_bound=1.0)
        minor_rows = None
        if rho >= _RHO_FLOOR:
            minor_rows = _observe(i, current, spec_rho, table, lam, cfg.seed + 7919 * i, observed)
        (step,) = _replay(theorem, cfg, k_value, rho, current.size, [observed])
        trace.append(step)
        rho = step.rho_next
        if step.action == "minor":
            # row i of the matrix stands for current.indices()[i]
            current = ElementSet.from_indices(group, current.indices()[minor_rows])
            del table, spec_rho, gate  # before the next step's arrays are made
            table = dft(current)
        elif step.action in ("finish", "abort"):
            break

    # the measured level is epsilon (theorem 1) or rho (theorem 2)
    final_spec = spec_rho if theorem == 2 or cfg.epsilon == rho else spectrum(table, cfg.epsilon)
    plus = sumset(final_spec, final_spec)
    measured = _measure(theorem, cfg, group.size, current.size, rho, trace[0].spec_size,
                        spec_size=len(final_spec), sumset_size=len(plus),
                        spec_rho_size=len(spec_rho), gate_size=len(gate))
    terminated, certified = _outcome(trace, measured)
    return RefineResult(
        theorem=theorem,
        a_star=current,
        rho_star=rho,
        terminated=terminated,
        certified=certified,
        trace=tuple(trace),
        measured=measured,
        config=cfg,
    )


def refine_theorem1(a: ElementSet, cfg: RefineConfig) -> RefineResult:
    """Linear-shrink refinement: lambda = eps*rho/150, gate level eps*rho/2."""
    return _run(a, cfg, theorem=1)


def refine_theorem2(a: ElementSet, cfg: RefineConfig) -> RefineResult:
    """Squaring refinement: lambda = rho^2/150, gate level rho^2/2."""
    return _run(a, cfg, theorem=2)


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    violations: tuple
    k1: int
    k2: int
    growth_positions: tuple
    t_ratios: tuple

    def to_dict(self) -> dict:
        """The JSON form a trace stores: tuples become lists."""
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def audit_trace(result: RefineResult, original: ElementSet) -> AuditReport:
    """Replay the trace's observations by the run's own rule and recheck them.

    ``_replay`` derives every step from the observations, from rho = epsilon
    and |A| = |original|.  The trace must be its replay, which a trace read
    from a file is by construction; it must end at its first finish or abort,
    or else after ``max_iterations`` steps; and rho*, |A*| and the stored
    outcome must be where the replay ends.  The checks on observations:
    counts a spectrum in G can have; each verdict passes ``_verdict_fault``,
    as in ``RegularityVerdict`` (a known status, a bound in [0, 1 + 1e-3] and
    below lambda exactly when regular, and a witness value, in its window, on
    irregular verdicts only); exactly the irregular verdicts store a minor,
    whose mean lies in [0, 1 + 1e-9] and whose shape fits the matrix; a
    certified run meets both bounds; and the final set lies inside
    ``original``.
    """
    cfg = result.config
    theorem = result.theorem
    group_size = original.group.size
    k_value = _resolve_k(cfg, theorem, group_size)
    m = result.measured
    violations = []
    steps = result.trace
    replayed = tuple(_replay(theorem, cfg, k_value, cfg.epsilon, original.size,
                             (s.observed() for s in steps)))
    if steps != replayed:
        # the observations are the trace's own, so only derived fields differ
        pos = next(pos for pos, (s, r) in enumerate(zip(steps, replayed)) if s != r)
        has, gives = ((s.action, s.rho, s.rho_next, s.a_size) for s in (steps[pos], replayed[pos]))
        violations.append(f"step {pos}: action, rho, rho_next, a_size = {has}, but the run's "
                          f"rule gives {gives}")

    bad_counts = False
    for pos, s in enumerate(replayed):
        if not 1 <= s.spec_size <= s.gate_size <= group_size:
            bad_counts = True  # only so that a huge count cannot overflow the t-ratios
            violations.append(f"step {pos}: no spectrum in |G|={group_size} has |Spec_rho|="
                              f"{s.spec_size} inside |Spec_gate|={s.gate_size}")
        lam = _lambda_level(theorem, cfg.epsilon, s.rho)
        fault = _verdict_fault(s.verdict_status, lam, s.upper_bound, s.witness_value)
        if fault is not None:
            violations.append(f"step {pos}: {fault}")
        minor = (s.new_mean, s.minor_rows, s.minor_cols)
        if minor.count(None) != (0 if s.verdict_status == "irregular" else 3):
            violations.append(f"step {pos}: new_mean, minor_rows, minor_cols = {minor} "
                              f"with verdict {s.verdict_status}")
        if s.minor_rows is not None and not 1 <= s.minor_rows <= s.a_size:
            violations.append(f"step {pos}: a minor of {s.minor_rows} rows of {s.a_size}")
        if s.minor_cols is not None and not 1 <= s.minor_cols <= s.spec_size:
            violations.append(f"step {pos}: a minor of {s.minor_cols} columns of {s.spec_size}")
        # a mean of entries of modulus 1, up to CoherenceMatrix's tolerance
        if s.new_mean is not None and not 0.0 <= s.new_mean <= 1.0 + _TOL:
            violations.append(f"step {pos}: the minor mean {s.new_mean} lies outside "
                              f"[0, {1.0 + _TOL}]")
    growth_positions = [pos for pos, s in enumerate(replayed) if s.action == "growth"]

    if replayed:
        ends = [pos for pos, s in enumerate(replayed) if s.action in ("finish", "abort")]
        end = ends[0] if ends else cfg.max_iterations - 1  # else it spends its budget
        if len(replayed) != end + 1:
            violations.append(f"the run ends at step {end}, but the trace holds "
                              f"{len(replayed)} steps")
        last = replayed[-1]
        if result.rho_star != last.rho_next:
            violations.append(f"final rho {result.rho_star} does not match the last step "
                              f"({last.rho_next})")
        outcome = _outcome(replayed, m)
        if (result.terminated, result.certified) != outcome:
            violations.append(f"result {result.terminated} with certified flag "
                              f"{result.certified}, but the last step gives {outcome}")
        size = last.minor_rows if last.action == "minor" else last.a_size
        if result.a_star.size != size:
            violations.append(f"final |A*|={result.a_star.size}, but the last step leaves {size}")
    else:
        violations.append("empty trace")
    # 0 is in every spectrum, S in S + S, Spec_rho in Spec_gate; theorem 2 measures at rho
    spec, plus, spec_rho, gate = (m[key] for key in MEASURED_COUNTS)
    if not (1 <= spec <= plus <= group_size and 1 <= spec_rho <= gate <= group_size
            and (theorem == 1 or spec == spec_rho)):
        violations.append(f"no spectrum in |G|={group_size} has the measured |S|={spec}, "
                          f"|S+S|={plus}, |Spec_rho|={spec_rho}, |Spec_gate|={gate}")
    if result.certified:
        for key, label in (("certified_doubling_bound", "certified doubling"),
                           ("interim_bound", "interim")):
            if not plus <= m[key]:
                violations.append(f"certified, but |S+S|={plus} is above the {label} bound {m[key]}")
    outside = int(np.count_nonzero(result.a_star.mask & ~original.mask))
    if outside:
        violations.append(
            f"{outside} of the {result.a_star.size} final elements lie outside the input set"
        )

    # spectrum size after each growth over that at the next: a statistic the
    # audit reports and never judges; none when a step's counts failed their check
    t_ratios = [] if bad_counts else [
        replayed[p + 1].spec_size / max(1, replayed[q].spec_size)
        for p, q in zip(growth_positions, growth_positions[1:])]

    return AuditReport(
        ok=not violations,
        violations=tuple(violations),
        k1=sum(1 for s in replayed if s.action == "minor"),
        k2=len(growth_positions),
        growth_positions=tuple(growth_positions),
        t_ratios=tuple(t_ratios),
    )


@dataclass(frozen=True)
class BoundReport:
    alpha: float
    delta: float
    rho_star: float
    empirical_shrink: float
    spec_level: float
    spec_size: int
    sumset_size: int
    certified_doubling_bound: float
    interim_bound: float
    certified_doubling_holds: bool
    interim_holds: bool
    certified: bool
    asymptotic_reference: float

    def to_dict(self) -> dict:
        return asdict(self)  # every field is a scalar


def final_bound_report(result: RefineResult, a_original: ElementSet) -> BoundReport:
    """Empirical bound sheet for a finished run; never asserts the asymptotic
    constants, only records how the measured quantities compare."""
    if result.terminated != "finished":
        raise ValueError(f"bound report needs a finished run, got {result.terminated!r}")
    group = a_original.group
    if group.size < 2:
        raise ValueError("bound report needs a nontrivial group")
    alpha = math.log(max(1, a_original.size)) / math.log(group.size)
    m = result.measured
    return BoundReport(
        alpha=alpha,
        delta=result.config.delta,
        rho_star=result.rho_star,
        empirical_shrink=a_original.size / result.a_star.size,
        spec_level=m["spec_level"],
        spec_size=m["spec_size"],
        sumset_size=m["sumset_size"],
        certified_doubling_bound=m["certified_doubling_bound"],
        interim_bound=m["interim_bound"],
        certified_doubling_holds=m["sumset_size"] <= m["certified_doubling_bound"],
        interim_holds=m["sumset_size"] <= m["interim_bound"],
        certified=result.certified,
        asymptotic_reference=float(group.size) ** (1.0 - alpha + result.config.delta),
    )
