"""Iterative refinement of a set toward a certified-regular spectrum.

Starting from A_0 = A and rho_0 = epsilon, each round inspects the coherence
matrix of A_i against its rho_i-spectrum:

  (i)   certified regular and the gate |Spec_gate| <= K |Spec_rho| holds:
        finish with A* = A_i;
  (ii)  a witness of irregularity exists: replace A_i by the extracted minor
        and raise rho;
  (iii) the gate fails: keep the set and drop rho to the gate level.

The first procedure runs the linear-shrink schedule (lambda = eps*rho/150,
gate at eps*rho/2); the second runs the squaring schedule (lambda = rho^2/150,
gate at rho^2/2).  Every round appends a trace record; the audit recomputes
the combinatorial claims from the records alone.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .coherence import build_matrix
from .fourier import dft, spectrum
from .groups import ElementSet, sumset
from .regularity import C_DEFAULT, decide_regularity, extract_minor

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


@dataclass(frozen=True)
class RefineConfig:
    epsilon: float
    delta: float
    k_bound: Optional[float] = None  # default |G|^delta (linear) or |G|^(delta/2) (squaring)
    mode: str = "opportunistic"
    max_iterations: int = 500
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if self.k_bound is not None and self.k_bound < 1.0:
            raise ValueError(f"the gate constant K must be at least 1, got {self.k_bound}")
        if self.mode not in ("faithful", "opportunistic"):
            raise ValueError(f"mode must be 'faithful' or 'opportunistic', got {self.mode!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class RefineTraceStep:
    index: int
    action: str  # "finish" | "minor" | "growth"
    rho: float
    lam: float
    rho_next: float
    a_size: int
    spec_size: int
    gate_size: int
    gate_ok: bool
    verdict_status: str
    certified: bool
    upper_bound: float
    witness_value: Optional[float]
    new_mean: Optional[float] = None
    minor_rows: Optional[int] = None
    minor_cols: Optional[int] = None
    direct_check: Optional[bool] = None


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
    initial_size: int


def _gate_level(theorem: int, epsilon: float, rho: float) -> float:
    return (epsilon * rho if theorem == 1 else rho * rho) / 2.0


def _lambda_level(theorem: int, epsilon: float, rho: float) -> float:
    return (epsilon * rho if theorem == 1 else rho * rho) / 150.0


def _resolve_k(cfg: RefineConfig, theorem: int, group_size: int) -> float:
    if cfg.k_bound is not None:
        return cfg.k_bound
    power = cfg.delta if theorem == 1 else cfg.delta / 2.0
    return float(group_size) ** power


def _measure(theorem: int, cfg: RefineConfig, k_value: float, current: ElementSet,
             table, rho: float, spec_rho, gate, initial_spec_size: int) -> dict:
    """Final measurements; ``spec_rho`` and ``gate`` are the final state's spectra."""
    group = current.group
    level = cfg.epsilon if theorem == 1 else rho
    final_spec = spec_rho if level == rho else spectrum(table, level)
    # spectra are closed under negation, so S - S = S + S
    plus = sumset(final_spec.members, final_spec.members)
    measured = {
        "spec_level": level,
        "spec_size": len(final_spec),
        "sumset_size": len(plus),
        "difference_size": len(plus),
        "spec_rho_size": len(spec_rho),
        "gate_size": len(gate),
        "certified_doubling_bound": 2.0 * len(gate) ** 2 / (0.8 * len(spec_rho)),
        "doubling": len(plus) / max(1, len(final_spec)),
        "initial_spec_size": initial_spec_size,
        "K": k_value,
    }
    if theorem == 1:
        measured["interim_bound"] = (
            8.0 * k_value * group.size / (cfg.epsilon**2 * rho**2 * current.size)
        )
    else:
        measured["interim_bound"] = 2.0 * k_value * len(gate)
        measured["k_squared_bound"] = 2.0 * k_value**2 * len(spec_rho)
        measured["spec_ratio"] = len(spec_rho) / max(1, initial_spec_size)
    return measured


def _run(a: ElementSet, cfg: RefineConfig, theorem: int) -> RefineResult:
    if a.size == 0:
        raise ValueError("refinement needs a nonempty starting set")
    group = a.group
    k_value = _resolve_k(cfg, theorem, group.size)
    current = a
    table = dft(current)
    rho = cfg.epsilon
    trace: list[RefineTraceStep] = []
    terminated: Optional[str] = None
    certified = False
    undecided: Optional[dict] = None

    for i in range(cfg.max_iterations + 1):
        lam = _lambda_level(theorem, cfg.epsilon, rho)
        gate_level = _gate_level(theorem, cfg.epsilon, rho)
        spec_rho = spectrum(table, rho)
        gate = spectrum(table, gate_level)
        if i == 0:
            initial_spec_size = len(spec_rho)  # rho is epsilon here
        if i == cfg.max_iterations:
            break  # budget spent; every exit holds the final state's spectra
        if len(spec_rho) < 1:
            raise AssertionError("a spectrum can never be empty")
        gate_ok = len(gate) <= k_value * len(spec_rho)
        if rho < 1e-8:
            # the threshold has sunk to the numerical slack of the transform;
            # membership in the spectrum no longer means anything
            trace.append(RefineTraceStep(
                index=i, action="abort", rho=rho, lam=lam, rho_next=rho,
                a_size=current.size, spec_size=len(spec_rho),
                gate_size=len(gate), gate_ok=gate_ok,
                verdict_status="undetermined", certified=False,
                upper_bound=1.0, witness_value=None,
            ))
            terminated = "inconclusive"
            break
        matrix = build_matrix(current, spec_rho, table)
        verdict = decide_regularity(matrix, lam, seed=cfg.seed + 7919 * i)
        base = dict(
            index=i,
            rho=rho,
            lam=lam,
            a_size=current.size,
            spec_size=len(spec_rho),
            gate_size=len(gate),
            gate_ok=gate_ok,
            verdict_status=verdict.status,
            certified=verdict.status == "regular",
            upper_bound=verdict.upper_bound,
            witness_value=None if verdict.witness is None else verdict.witness.value,
        )

        extraction = None
        degenerate = False
        if verdict.status == "irregular":
            extraction = extract_minor(matrix, verdict.witness, lam, mode=cfg.mode)
            if cfg.mode == "opportunistic" and extraction.new_mean <= rho:
                degenerate = True  # no measurable progress; treat as undecided

        if verdict.status == "irregular" and not degenerate:
            if cfg.mode == "faithful":
                # the increment is below one ulp of rho; extraction asserted the
                # minor beats the matrix mean (>= rho) by it, so the next float
                # above rho still bounds the new mean from below
                rho_next = min(1.0, max(rho + (C_DEFAULT / 2.0) * lam**15,
                                        math.nextafter(rho, 2.0)))
            else:
                rho_next = min(1.0, extraction.new_mean)
            trace.append(RefineTraceStep(
                action="minor", rho_next=rho_next,
                new_mean=extraction.new_mean,
                minor_rows=int(extraction.row_positions.size),
                minor_cols=int(extraction.col_positions.size),
                **base,
            ))
            current = extraction.a_sub
            table = dft(current)
            rho = rho_next
            continue

        if verdict.status == "regular" and gate_ok:
            trace.append(RefineTraceStep(action="finish", rho_next=rho, **base))
            terminated = "finished"
            certified = True
            break

        if not gate_ok:
            # spectrum-growth move is sound whether or not M was decided
            trace.append(RefineTraceStep(action="growth", rho_next=gate_level, **base))
            rho = gate_level
            continue

        # undecided verdict (or degenerate extraction) with a passing gate:
        # the run ends on an exact test of the doubling conclusion,
        # |S - S| <= 2 |Spec_gate|^2 / (0.8 |Spec_rho|), made on the final
        # measurement below
        undecided = base
        break

    measured = _measure(theorem, cfg, k_value, current, table, rho, spec_rho, gate,
                        initial_spec_size)
    if undecided is not None:
        direct = measured["sumset_size"] <= measured["certified_doubling_bound"]
        trace.append(RefineTraceStep(
            action="finish", rho_next=rho, direct_check=direct, **undecided,
        ))
        terminated = "finished" if direct else "inconclusive"
    elif terminated is None:
        terminated = "budget_exhausted"
    return RefineResult(
        theorem=theorem,
        a_star=current,
        rho_star=rho,
        terminated=terminated,
        certified=certified,
        trace=tuple(trace),
        measured=measured,
        config=cfg,
        initial_size=a.size,
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
        return {
            "ok": self.ok,
            "violations": list(self.violations),
            "k1": self.k1,
            "k2": self.k2,
            "growth_positions": list(self.growth_positions),
            "t_ratios": list(self.t_ratios),
        }


def audit_trace(result: RefineResult, original: ElementSet) -> AuditReport:
    """Recompute the combinatorial side-conditions from the trace records.

    Each step's lambda must be the level of its rho, and a certified step
    must carry a regular verdict whose bound lies below lambda, and the final
    set must lie inside the input set ``original``.
    """
    cfg = result.config
    theorem = result.theorem
    eps = cfg.epsilon
    k_value = result.measured["K"]
    violations = []
    steps = result.trace
    half = eps / 2.0

    growth_before = 0
    growth_positions = []
    prev: Optional[RefineTraceStep] = None
    for pos, s in enumerate(steps):
        floor = half ** (growth_before + 1) if theorem == 1 else half ** (2 ** (growth_before + 1))
        if s.rho < floor * (1 - 1e-12):
            violations.append(
                f"step {s.index}: rho={s.rho} below the floor {floor} "
                f"after {growth_before} growth steps"
            )
        if prev is not None:
            if s.rho != prev.rho_next:
                violations.append(
                    f"step {s.index}: rho {s.rho} does not continue rho_next {prev.rho_next}"
                )
            if s.a_size > prev.a_size:
                violations.append(f"step {s.index}: set size grew {prev.a_size} -> {s.a_size}")
        lam = _lambda_level(theorem, eps, s.rho)
        if not math.isclose(s.lam, lam, rel_tol=1e-12):
            violations.append(f"step {s.index}: lambda {s.lam} is not the level {lam} of rho {s.rho}")
        if s.certified != (s.verdict_status == "regular"):
            violations.append(
                f"step {s.index}: certified={s.certified} contradicts the verdict {s.verdict_status!r}"
            )
        if s.certified and not s.upper_bound < s.lam:
            violations.append(
                f"step {s.index}: certified although the bound {s.upper_bound} "
                f"is not below lambda {s.lam}"
            )
        if s.action == "minor":
            if s.rho_next <= s.rho:
                violations.append(f"step {s.index}: minor step did not raise rho")
        elif s.action == "growth":
            expected = _gate_level(theorem, eps, s.rho)
            if not math.isclose(s.rho_next, expected, rel_tol=1e-12, abs_tol=0.0):
                violations.append(
                    f"step {s.index}: growth step moved rho to {s.rho_next}, expected {expected}"
                )
            if s.gate_size <= k_value * s.spec_size:
                violations.append(
                    f"step {s.index}: growth step fired although the gate held "
                    f"({s.gate_size} <= {k_value} * {s.spec_size})"
                )
            growth_positions.append(pos)
            growth_before += 1
        elif s.action == "finish":
            if s.gate_size > k_value * s.spec_size:
                violations.append(
                    f"step {s.index}: finish with a failing gate "
                    f"({s.gate_size} > {k_value} * {s.spec_size})"
                )
        elif s.action == "abort":
            pass  # numerical-floor bailout carries no combinatorial claim
        else:
            violations.append(f"step {s.index}: unknown action {s.action!r}")
        prev = s
    k2 = len(growth_positions)
    k1 = sum(1 for s in steps if s.action == "minor")

    final_floor = half ** (k2 + 1) if theorem == 1 else half ** (2**k2)
    if result.rho_star < final_floor * (1 - 1e-12):
        violations.append(
            f"final rho {result.rho_star} below the floor {final_floor} for k2={k2}"
        )
    if steps:
        last = steps[-1]
        if result.rho_star != last.rho_next:
            violations.append(
                f"final rho {result.rho_star} does not match the last step ({last.rho_next})"
            )
        if result.terminated == "finished" and last.action != "finish":
            violations.append("result marked finished but the trace does not end in one")
        if result.certified and not (
            last.action == "finish" and last.verdict_status == "regular"
        ):
            violations.append("certified flag without a certified finish step")
        if result.a_star.size > last.a_size:
            violations.append(
                f"final set size {result.a_star.size} exceeds the last recorded {last.a_size}"
            )
    else:
        violations.append("empty trace")
    outside = int(np.count_nonzero(result.a_star.mask & ~original.mask))
    if outside:
        violations.append(
            f"{outside} of the {result.a_star.size} final elements lie outside the input set"
        )

    t_ratios = []
    for j, pos in enumerate(growth_positions):
        if pos + 1 >= len(steps):
            break
        numerator = steps[pos + 1].spec_size
        end = growth_positions[j + 1] if j + 1 < len(growth_positions) else None
        if end is None:
            break
        t_ratios.append(numerator / steps[end].spec_size)

    return AuditReport(
        ok=not violations,
        violations=tuple(violations),
        k1=k1,
        k2=k2,
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
