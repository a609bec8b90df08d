"""Command-line front end.

Subcommands: gen, spectrum, refine, verify, report.  Exit codes: 0 on
success, 1 when a requested check or audit fails, 2 for usage and file
errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .diagnostics import (
    example_counterexample,
    high_threshold_closure,
    statistical_doubling,
)
from .fileio import (
    FileFormatError,
    read_set_file,
    read_trace_file,
    write_set_file,
    write_trace_file,
)
from .fourier import dft, parseval_capacity, spectrum
from .groups import FiniteAbelianGroup, random_subset, subgroup_span
from .refine import (
    RefineConfig,
    audit_trace,
    final_bound_report,
    refine_theorem1,
    refine_theorem2,
)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _parse_orders(text: str) -> tuple:
    try:
        orders = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad group orders {text!r}")
    if not orders or any(n < 1 for n in orders):
        raise argparse.ArgumentTypeError(f"bad group orders {text!r}")
    return orders


def _parse_generators(text: str, rank: int) -> list:
    gens = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "," in chunk:
            coords = [int(part) for part in chunk.split(",")]
        else:
            coords = [int(ch) for ch in chunk]
        if len(coords) != rank:
            raise ValueError(
                f"generator {chunk!r} has {len(coords)} coordinates, expected {rank}"
            )
        gens.append(tuple(coords))
    if not gens:
        raise ValueError("no generators given")
    return gens


def _cmd_gen(args) -> int:
    if args.kind == "example1":
        if args.n is None:
            print("error: --kind example1 needs --n", file=sys.stderr)
            return 2
        if args.group is not None:
            print("error: --kind example1 fixes the group; drop --group", file=sys.stderr)
            return 2
        bundle = example_counterexample(args.n)
        members = bundle.members
        metadata = {"kind": "example1", "n": args.n}
    elif args.kind == "random":
        if args.group is None or args.size is None:
            print("error: --kind random needs --group and --size", file=sys.stderr)
            return 2
        group = FiniteAbelianGroup(args.group)
        members = random_subset(group, args.size, seed=args.seed)
        metadata = {"kind": "random", "size": args.size, "seed": args.seed}
    else:  # subgroup
        if args.group is None or args.gens is None:
            print("error: --kind subgroup needs --group and --gens", file=sys.stderr)
            return 2
        group = FiniteAbelianGroup(args.group)
        try:
            gens = _parse_generators(args.gens, len(args.group))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        members = subgroup_span(group, gens)
        metadata = {"kind": "subgroup", "generators": args.gens}
    write_set_file(args.out, members, metadata)
    print(f"wrote {members.size} elements of a group of size {members.group.size} to {args.out}")
    return 0


def _cmd_spectrum(args) -> int:
    members, _ = read_set_file(args.input)
    table = dft(members)
    spec = spectrum(table, args.epsilon)
    capacity = parseval_capacity(members.group.size, members.size, args.epsilon)
    if args.out:
        write_set_file(
            args.out,
            spec.members,
            {"kind": "spectrum", "epsilon": args.epsilon, "source_size": members.size},
        )
    if args.format == "json":
        doc = {
            "epsilon": args.epsilon,
            "set_size": members.size,
            "spectrum_size": len(spec),
            "capacity": capacity,
            "members": [[int(x) for x in row] for row in spec.members.coords()],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "csv":
        for row in spec.members.coords():
            print(",".join(str(int(x)) for x in row))
    else:
        print(
            f"spectrum at epsilon={_fmt(args.epsilon)}: {len(spec)} of "
            f"{members.group.size} characters (capacity {_fmt(capacity)})"
        )
    return 0


def _cmd_refine(args) -> int:
    members, _ = read_set_file(args.input)
    cfg = RefineConfig(
        epsilon=args.epsilon,
        delta=args.delta,
        k_bound=args.k_bound,
        mode=args.mode,
        max_iterations=args.max_iterations,
        seed=args.seed,
    )
    run = refine_theorem1 if args.theorem == 1 else refine_theorem2
    result = run(members, cfg)
    write_trace_file(args.out, result, members)
    audit = audit_trace(result)
    print(
        f"{result.terminated} after {len(result.trace)} steps: "
        f"|A*|={result.a_star.size} rho*={_fmt(result.rho_star)} "
        f"certified={result.certified} audit={'ok' if audit.ok else 'FAIL'}"
    )
    return 0 if audit.ok else 1


def _cmd_verify(args) -> int:
    members, _ = read_set_file(args.input)
    requested = False
    failures = 0

    if args.statistical_doubling is not None:
        requested = True
        try:
            rep = statistical_doubling(members, args.statistical_doubling)
        except AssertionError as exc:
            failures += 1
            print(f"statistical-doubling FAIL: {exc}")
        else:
            print(
                f"statistical-doubling ok (exact): p={_fmt(rep.p)} >= "
                f"{_fmt(rep.lower_bound)}"
            )

    if args.closure is not None:
        requested = True
        rep = high_threshold_closure(members, args.closure)
        if rep.ok:
            print(
                f"closure ok: spectrum size {rep.spec_size} closed into "
                f"level {_fmt(rep.target_level)} (size {rep.target_size})"
            )
        else:
            failures += 1
            print(f"closure FAIL: witness pair {rep.violation}")

    if args.parseval is not None:
        requested = True
        try:
            table = dft(members)
            spec = spectrum(table, args.parseval)
            capacity = parseval_capacity(
                members.group.size, members.size, args.parseval
            )
        except AssertionError as exc:
            failures += 1
            print(f"parseval FAIL: {exc}")
        else:
            print(f"parseval ok: {len(spec)} <= {_fmt(capacity)}")

    if not requested:
        print("error: no checks requested", file=sys.stderr)
        return 2
    return 1 if failures else 0


def _cmd_report(args) -> int:
    result, original, stored_audit = read_trace_file(args.trace)
    audit = audit_trace(result)
    mismatch = audit.to_dict() != stored_audit
    ok = audit.ok and not mismatch

    bound = None
    if result.terminated == "finished":
        bound = final_bound_report(result, original)
        if result.certified and not (bound.certified_doubling_holds and bound.interim_holds):
            ok = False

    if args.format == "json":
        doc = {
            "terminated": result.terminated,
            "certified": result.certified,
            "steps": len(result.trace),
            "a_star_size": result.a_star.size,
            "rho_star": result.rho_star,
            "audit": audit.to_dict(),
            "audit_matches_stored": not mismatch,
            "measured": result.measured,
            "bound_report": None if bound is None else bound.to_dict(),
            "ok": ok,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"run: {result.terminated} in {len(result.trace)} steps, "
            f"|A|={result.initial_size} -> |A*|={result.a_star.size}, "
            f"rho*={_fmt(result.rho_star)}, certified={result.certified}"
        )
        print(
            f"audit: {'ok' if audit.ok else 'FAIL'}"
            + ("" if not mismatch else " (stored audit differs)")
            + f", minors={audit.k1}, growth steps={audit.k2}"
        )
        for v in audit.violations:
            print(f"  violation: {v}")
        if bound is not None:
            print(
                f"bounds: |S+S|={bound.sumset_size} vs certified bound {_fmt(bound.certified_doubling_bound)} "
                f"({'holds' if bound.certified_doubling_holds else 'VIOLATED'}), "
                f"interim {_fmt(bound.interim_bound)} "
                f"({'holds' if bound.interim_holds else 'VIOLATED'})"
            )
            print(
                f"profile: alpha={_fmt(bound.alpha)} delta={_fmt(bound.delta)} "
                f"shrink={_fmt(bound.empirical_shrink)} "
                f"reference={_fmt(bound.asymptotic_reference)}"
            )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdbl",
        description="Fourier spectra of finite abelian group subsets: "
        "generation, spectra, refinement, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a set file")
    gen.add_argument("--kind", choices=["random", "subgroup", "example1"], required=True)
    gen.add_argument("--group", type=_parse_orders, help="cyclic orders, e.g. 2,2,2,2")
    gen.add_argument("--size", type=int, help="number of elements (random)")
    gen.add_argument("--n", type=int, help="half-rank parameter (example1)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--gens", help="semicolon-separated generators (subgroup)")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    spec = sub.add_parser("spectrum", help="large-coefficient characters of a set")
    spec.add_argument("--input", required=True)
    spec.add_argument("--epsilon", type=float, required=True)
    spec.add_argument("--out", help="write the spectrum as a set file")
    spec.add_argument("--format", choices=["text", "json", "csv"], default="text")
    spec.set_defaults(func=_cmd_spectrum)

    ref = sub.add_parser("refine", help="run a refinement and write its trace")
    ref.add_argument("--input", required=True)
    ref.add_argument("--epsilon", type=float, required=True)
    ref.add_argument("--delta", type=float, required=True)
    ref.add_argument("--theorem", type=int, choices=[1, 2], default=1)
    ref.add_argument("--mode", choices=["opportunistic", "faithful"], default="opportunistic")
    ref.add_argument("--k-bound", type=float, default=None)
    ref.add_argument("--max-iterations", type=int, default=500)
    ref.add_argument("--seed", type=int, default=0)
    ref.add_argument("--out", required=True)
    ref.set_defaults(func=_cmd_refine)

    ver = sub.add_parser("verify", help="spot checks on a set file")
    ver.add_argument("--input", required=True)
    ver.add_argument("--statistical-doubling", type=float, metavar="EPS")
    ver.add_argument("--closure", type=float, metavar="EPS")
    ver.add_argument("--parseval", type=float, metavar="EPS")
    ver.set_defaults(func=_cmd_verify)

    rep = sub.add_parser("report", help="audit a stored trace and print its bounds")
    rep.add_argument("--trace", required=True)
    rep.add_argument("--format", choices=["text", "json"], default="text")
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
