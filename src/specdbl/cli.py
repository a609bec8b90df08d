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
from .fileio import (_csv_lines, _dumps, _rows_json, read_set_file, read_trace_file,
                     write_set_file, write_trace_file)
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


# the flags each --kind needs, and the ones it takes besides
_GEN_FLAGS = {"example1": (("n",), ()), "random": (("group", "size"), ("seed",)),
              "subgroup": (("group", "gens"), ())}


def _cmd_gen(args) -> int:
    needs, takes = _GEN_FLAGS[args.kind]
    for name in ("group", "size", "n", "seed", "gens"):
        given = getattr(args, name) is not None
        if name in needs and not given:
            raise ValueError(f"--kind {args.kind} needs --{name}")
        if given and name not in needs + takes:
            raise ValueError(f"--kind {args.kind} takes no --{name}")
    if args.kind == "example1":
        members = example_counterexample(args.n).members
        metadata = {"kind": "example1", "n": args.n}
    elif args.kind == "random":
        seed = 0 if args.seed is None else args.seed
        members = random_subset(FiniteAbelianGroup(args.group), args.size, seed=seed)
        metadata = {"kind": "random", "size": args.size, "seed": seed}
    else:  # subgroup
        group = FiniteAbelianGroup(args.group)
        members = subgroup_span(group, _parse_generators(args.gens, len(args.group)))
        metadata = {"kind": "subgroup", "generators": args.gens}
    write_set_file(args.out, members, metadata)
    print(f"wrote {members.size} elements of a group of size {members.group.size} to {args.out}")
    return 0


def _cmd_spectrum(args) -> int:
    members, _ = read_set_file(args.input)
    table = dft(members)
    spec = spectrum(table, args.epsilon)
    capacity = parseval_capacity(members.group.size, members.size, args.epsilon)
    rows = None
    if args.out:
        rows = write_set_file(
            args.out,
            spec,
            {"kind": "spectrum", "epsilon": args.epsilon, "source_size": members.size},
        )
    if args.format == "json":
        doc = {
            "epsilon": args.epsilon,
            "set_size": members.size,
            "spectrum_size": len(spec),
            "capacity": capacity,
        }
        # one compact line: the member list has a row for each of up to |G|
        # characters, and an indented row takes about 4.5x the bytes
        print(_dumps(doc, {"members": rows or _rows_json(spec)}))
    elif args.format == "csv":
        print(_csv_lines(rows or _rows_json(spec)))  # a spectrum holds at least one row
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
        max_iterations=args.max_iterations,
        seed=args.seed,
    )
    run = refine_theorem1 if args.theorem == 1 else refine_theorem2
    result = run(members, cfg)
    audit = write_trace_file(args.out, result, members)
    print(
        f"{result.terminated} after {len(result.trace)} steps: "
        f"|A*|={result.a_star.size} rho*={_fmt(result.rho_star)} "
        f"certified={result.certified} audit={'ok' if audit.ok else 'FAIL'}"
    )
    return 0 if audit.ok else 1


def _cmd_verify(args) -> int:
    members, _ = read_set_file(args.input)
    if (args.statistical_doubling, args.closure, args.parseval) == (None, None, None):
        raise ValueError("no checks requested")
    table = dft(members)
    failures = 0
    doubling = None

    if args.statistical_doubling is not None:
        try:
            doubling = statistical_doubling(table, args.statistical_doubling)
        except AssertionError as exc:
            failures += 1
            print(f"statistical-doubling FAIL: {exc}")
        else:
            print(
                f"statistical-doubling ok (exact): p={_fmt(doubling.p)} >= "
                f"{_fmt(doubling.lower_bound)}"
            )

    if args.closure is not None:
        rep = high_threshold_closure(table, args.closure)
        if rep.ok:
            print(
                f"closure ok: spectrum size {rep.spec_size} closed into "
                f"level {_fmt(rep.target_level)} (size {rep.target_size})"
            )
        else:
            failures += 1
            print(f"closure FAIL: witness pair {rep.violation}")

    if args.parseval is not None:
        try:
            if doubling is not None and doubling.epsilon == args.parseval:
                spec_size = doubling.spec_size  # the same spectrum, already taken and checked
            else:
                spec_size = len(spectrum(table, args.parseval))
            capacity = parseval_capacity(
                members.group.size, members.size, args.parseval
            )
        except AssertionError as exc:
            failures += 1
            print(f"parseval FAIL: {exc}")
        else:
            print(f"parseval ok: {spec_size} <= {_fmt(capacity)}")

    return 1 if failures else 0


def _cmd_report(args) -> int:
    result, original, stored_audit = read_trace_file(args.trace)
    audit = audit_trace(result, original)
    mismatch = audit.to_dict() != stored_audit
    ok = audit.ok and not mismatch

    sheet = result.terminated == "finished" and original.group.size >= 2  # else no bound sheet
    bound = final_bound_report(result, original) if sheet else None

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
            f"|A|={original.size} -> |A*|={result.a_star.size}, "
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
    gen.add_argument("--seed", type=int, help="seed of the draw (random only; default 0)")
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
    ref.add_argument("--max-iterations", type=int, default=RefineConfig.max_iterations)
    ref.add_argument("--seed", type=int, default=RefineConfig.seed)
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


_PARSER = None  # built by the first main() call, not at import


def main(argv=None) -> int:
    """Run one command line.  The parser is built once per process and reused:
    parse_args fills a fresh namespace on each call, so no value carries over."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # fileio.FileFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
