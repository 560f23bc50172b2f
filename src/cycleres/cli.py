"""Command-line front end: every computation as a reproducible table or report.

Output on stdout is deterministic (fixed ordering, no timestamps); progress
for long verifications goes to stderr only.  Exit codes: 0 success, 1 check
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .associahedron import Face, build, f_formula
from .betti import MethodDisagreement, betti_closed_form, betti_table
from .homology import Field
from .morse import count_formulas, critical_cells, d2_matching, greedy_extend, validate
from .polygon import count_by_support, count_trees
from .resolution import DEFAULT_MAX_N, minimality_witnesses, verify_supports_resolution
from .tableaux import (
    associahedron_shape,
    conjugate,
    enumerate_syt,
    hook_count,
    involution,
    restricts_to_syzygy,
    syzygy_shape,
)


def _row(values) -> str:
    return " ".join(str(v) for v in values)


def _emit(payload: dict | list) -> None:
    print(json.dumps(payload, indent=2))


def _formula_fvector(n: int) -> list[int]:
    return [f_formula(n, d) for d in range(n - 2)] + [1]


def _cmd_fvector(args) -> int:
    enumerated = build(args.n).f_vector()
    formula = _formula_fvector(args.n)
    agree = enumerated == formula
    if args.json:
        _emit({"n": args.n, "fvector": enumerated, "formula": formula, "agree": agree})
    else:
        print(f"f({args.n},d-1): " + _row(enumerated))
        if agree:
            print("enumeration agrees with closed form")
        else:
            print("MISMATCH: closed form gives " + _row(formula))
    return 0 if agree else 1


def _cmd_betti(args) -> int:
    table = betti_table(args.n, args.method)
    if args.json:
        _emit({"n": args.n, "method": args.method, "betti": list(table.row())})
    else:
        print(f"β^{args.n}_d: " + _row(table.row()))
        if args.method == "all":
            print("agreement: hochster = closed = recursion")
        else:
            print(f"method: {args.method}")
    return 0


def _cmd_tables(args) -> int:
    rows = []
    for n in range(6, 10):
        table = betti_table(n, "all")
        rows.append({"n": n, "betti": list(table.row()), "f": _formula_fvector(n)})
    if args.json:
        _emit(rows)
    else:
        blocks = []
        for r in rows:
            blocks.append(
                "\n".join(
                    [
                        f"n={r['n']}",
                        "d: " + _row(range(len(r["betti"]))),
                        f"β^{r['n']}_d: " + _row(r["betti"]),
                        f"f({r['n']},d-1): " + _row(r["f"]),
                    ]
                )
            )
        print("\n\n".join(blocks))
    return 0


def _witness_json(f: Face, g: Face) -> dict:
    return {
        "lower": [[a, b] for a, b in f.diagonals],
        "upper": [[a, b] for a, b in g.diagonals],
        "label": sorted(f.label),
    }


def _progress_printer():
    def cb(done: int, total: int) -> None:
        step = max(1, total // 8)
        if done % step == 0 or done == total:
            print(f"checked {done}/{total}", file=sys.stderr)

    return cb


def _cmd_verify_resolution(args) -> int:
    field = Field.coerce(args.field)
    progress = _progress_printer() if args.n >= 7 else None
    report = verify_supports_resolution(
        args.n, field, max_n=args.max_n, workers=args.threads, progress=progress
    )
    witnesses = minimality_witnesses(build(args.n))
    minimal = not witnesses
    if args.json:
        payload = report.to_json()
        payload["minimal"] = minimal
        payload["witnesses"] = [_witness_json(f, g) for f, g in witnesses]
        _emit(payload)
    else:
        acyclic = report.checked - report.empty_restrictions - len(report.failures)
        print(f"n={report.n} field={report.field.value}")
        print(
            f"checked: {report.checked} restrictions"
            f" ({report.empty_restrictions} empty, {acyclic} acyclic)"
        )
        if report.failures:
            print("failures: " + "; ".join(str(list(s)) for s in report.failures))
        else:
            print("failures: none")
        if report.cone_mismatches:
            print(
                "cone mismatches: "
                + "; ".join(str(list(s)) for s in report.cone_mismatches)
            )
        else:
            print("cone agreement: ok")
        print("minimal: yes" if minimal else f"minimal: no ({len(witnesses)} witnesses)")
    return 0 if report.ok else 1


def _cmd_minimality(args) -> int:
    witnesses = minimality_witnesses(build(args.n))
    minimal = not witnesses
    if args.json:
        _emit(
            {
                "n": args.n,
                "minimal": minimal,
                "witnesses": [_witness_json(f, g) for f, g in witnesses],
            }
        )
    else:
        print(f"n={args.n}: minimal: {'yes' if minimal else 'no'}"
              f" ({len(witnesses)} equal-label cover pairs)")
        for f, g in witnesses:
            label = ",".join(map(str, sorted(f.label)))
            print(f"{f} < {g}  label {{{label}}}")
    return 0


def _cmd_morse(args) -> int:
    X = build(args.n)
    matching = d2_matching(X)
    report = validate(matching, X)
    crit = critical_cells(matching, X)
    ok = report.ok
    beta2 = betti_closed_form(args.n, 2) if args.n >= 5 else None
    if beta2 is not None and crit.get(1, 0) != beta2:
        ok = False
    formulas = count_formulas(args.n) if args.n >= 6 else None
    payload = {
        "n": args.n,
        "pairs": matching.to_json(),
        "valid": report.ok,
        "problems": list(report.problems),
        "critical": list(crit.values()),
    }
    if formulas is not None:
        payload["formulas"] = formulas
    lines = [
        f"n={args.n}: {len(matching)} matched pairs",
        f"valid: {'yes' if report.ok else 'no'}",
        *[f"problem: {p}" for p in report.problems],
        f"critical (dim -1..{X.dim}): " + _row(crit.values()),
    ]
    if beta2 is not None:
        agree = "agree" if crit.get(1, 0) == beta2 else "MISMATCH"
        lines.append(f"critical edges: {crit.get(1, 0)}, β^{args.n}_2: {beta2}, {agree}")
    if formulas is not None:
        lines.append(_row(f"{k}: {v}" for k, v in formulas.items()))
    if args.extend:
        extended = greedy_extend(matching, X)
        report2 = validate(extended, X)
        crit2 = critical_cells(extended, X)
        ok = ok and report2.ok
        payload["extended"] = {
            "pairs": extended.to_json(),
            "valid": report2.ok,
            "problems": list(report2.problems),
            "critical": list(crit2.values()),
        }
        lines.append(f"extended: {len(extended)} matched pairs")
        lines.append(f"extended valid: {'yes' if report2.ok else 'no'}")
        lines.extend(f"problem: {p}" for p in report2.problems)
        lines.append(f"extended critical: " + _row(crit2.values()))
    if args.json:
        _emit(payload)
    else:
        print("\n".join(lines))
    return 0 if ok else 1


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"shape must be comma-separated integers, got {text!r}")


def _cmd_syt(args) -> int:
    if (args.shape is None) == (args.family is None):
        raise ValueError("give exactly one of --shape or --family")
    if args.shape is not None:
        shape = _parse_shape(args.shape)
        expected = None
        header = f"shape ({','.join(map(str, shape))})"
    else:
        if args.n is None or args.d is None:
            raise ValueError("--family needs --n and --d")
        if args.family == "assoc":
            shape = associahedron_shape(args.n, args.d)
            expected = f_formula(args.n, args.d)
            reference = f"f({args.n},{args.d})"
        else:
            shape = syzygy_shape(args.n, args.d)
            expected = betti_closed_form(args.n, args.d)
            reference = f"β^{args.n}_{args.d}"
        header = f"family {args.family} n={args.n} d={args.d}:" \
                 f" shape ({','.join(map(str, shape))})"
    count = hook_count(shape)
    agree = expected is None or count == expected
    tableaux = enumerate_syt(shape) if args.enumerate else None
    if args.json:
        payload = {"shape": list(shape), "count": count, "conjugate": list(conjugate(shape))}
        if args.family is not None:
            payload.update({"family": args.family, "n": args.n, "d": args.d,
                            "expected": expected, "agree": agree})
        if tableaux is not None:
            payload["tableaux"] = [t.to_json() for t in tableaux]
        _emit(payload)
    else:
        print(header)
        if expected is None:
            print(f"tableaux: {count}"
                  f" (conjugate ({','.join(map(str, conjugate(shape)))}) has the same count)")
        else:
            print(f"tableaux: {count}, {reference}: {expected},"
                  f" {'agree' if agree else 'MISMATCH'}")
        if tableaux is not None:
            for t in tableaux:
                print(str(t))
    return 0 if agree else 1


def _cmd_involution(args) -> int:
    shape = associahedron_shape(args.n, args.d)
    tableaux = enumerate_syt(shape)
    fixed = 0
    problems = []
    for t in tableaux:
        s = involution(t)
        if s == t:
            fixed += 1
        if args.verify:
            if involution(s) != t:
                problems.append(f"σ² moves {t}")
            if (s == t) != restricts_to_syzygy(t):
                problems.append(f"fixedness of {t} disagrees with restriction")
            if s != t and abs(s.size - t.size) != 1:
                problems.append(f"σ changes {t} by more than one cell")
    expected = betti_closed_form(args.n, args.d)
    ok = fixed == expected and not problems
    if args.json:
        payload = {"n": args.n, "d": args.d, "tableaux": len(tableaux),
                   "fixed": fixed, "betti": expected, "agree": fixed == expected}
        if args.verify:
            payload["verified"] = not problems
            payload["problems"] = problems
        _emit(payload)
    else:
        print(f"family ({args.n},{args.d}): {len(tableaux)} tableaux")
        print(f"fixed: {fixed}, β^{args.n}_{args.d}: {expected},"
              f" {'agree' if fixed == expected else 'MISMATCH'}")
        if args.verify:
            print("σ² = id: verified" if not problems else "σ² = id: FAILED")
            for p in problems:
                print(f"problem: {p}")
    return 0 if ok else 1


def _cmd_dissections(args) -> int:
    count = f_formula(args.n, args.d)
    ok = True
    lines = [f"dissections({args.n},{args.d}): {count}"]
    payload: dict = {"n": args.n, "d": args.d, "count": count}
    if args.by_support:
        by_support = count_by_support(args.n, args.d)
        ok = sum(by_support.values()) == count
        lines.append(_row(f"{s}:{c}" for s, c in sorted(by_support.items())))
        if not ok:
            lines.append("MISMATCH: support counts do not sum to the total")
        payload["by_support"] = {str(s): c for s, c in sorted(by_support.items())}
    if args.trees:
        trees = count_trees(args.n, args.d)
        lines.append(f"trees: {trees}")
        payload["trees"] = trees
    if args.json:
        _emit(payload)
    else:
        print("\n".join(lines))
    return 0 if ok else 1


def _cmd_complex(args) -> int:
    X = build(args.n)
    if args.json:
        _emit(X.to_json())
    else:
        print(f"n={args.n}: {len(X)} faces, {len(X.covers)} covers, dim {X.dim}")
        print(f"f({args.n},d-1): " + _row(X.f_vector()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycleres",
        description="Exact combinatorics of cycle ideals: face counts, Betti "
        "numbers, resolution verification, Morse matchings, and tableaux.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help: str):
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func)
        return p

    p = add("fvector", _cmd_fvector, "face counts, enumeration vs closed form")
    p.add_argument("n", type=int)

    p = add("betti", _cmd_betti, "Betti number row for one n")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=["hochster", "closed", "recursion", "all"],
                   default="all")

    p = add("verify-resolution", _cmd_verify_resolution,
            "acyclicity of all 2^n restrictions plus cone and minimality checks")
    p.add_argument("n", type=int)
    p.add_argument("--field", choices=["gf2", "rational"], default="gf2")
    p.add_argument("--max-n", type=int, default=DEFAULT_MAX_N,
                   help="raise the n cap (2^n homology computations)")
    p.add_argument("--threads", type=int, default=1,
                   help="parallel workers for the sigma sweep (processes)")

    p = add("minimality", _cmd_minimality, "equal-label cover pairs, if any")
    p.add_argument("n", type=int)

    p = add("morse", _cmd_morse, "the dimension-2 matching, validated and counted")
    p.add_argument("n", type=int)
    p.add_argument("--extend", action="store_true",
                   help="also run the greedy equal-label extension")

    p = add("syt", _cmd_syt, "standard Young tableaux counts and enumeration")
    p.add_argument("--shape", help="comma-separated partition, e.g. 3,2,1")
    p.add_argument("--family", choices=["assoc", "syzygy"])
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--enumerate", action="store_true")

    p = add("involution", _cmd_involution,
            "size-changing involution on associahedron tableaux")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--verify", action="store_true",
                   help="check σ² = id and the ±1 size change on every tableau")

    p = add("dissections", _cmd_dissections, "dissection counts for one (n, d)")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--by-support", action="store_true", dest="by_support",
                   help="split the count by support size")
    p.add_argument("--trees", action="store_true",
                   help="also count dissections forming trees")

    p = add("tables", _cmd_tables, "Betti and face number tables for n = 6..9")

    p = add("complex", _cmd_complex, "build the complex and summarize or dump it")
    p.add_argument("n", type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MethodDisagreement, RuntimeError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
