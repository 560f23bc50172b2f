"""Command-line front end: every computation as a reproducible table or report.

Output on stdout is deterministic (fixed ordering, no timestamps); progress
for long verifications goes to stderr only.  Exit codes: 0 success, 1 check
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from .associahedron import Face, build, f_formula
from .betti import MethodDisagreement, betti_closed_form, betti_table
from .homology import Field
from .morse import count_formulas, critical_cells, d2_matching, greedy_extend, validate
from .polygon import size_counts, slice_counts, vertices
from .resolution import DEFAULT_MAX_N, minimality_witnesses, verify_supports_resolution
from .tableaux import (
    associahedron_shape,
    conjugate,
    enumerate_syt,
    hook_count,
    involution,
    restrict_to_syzygy,
    syzygy_shape,
)


def _row(values) -> str:
    return " ".join(str(v) for v in values)


def _parts(shape) -> str:
    return "(" + ",".join(map(str, shape)) + ")"


def _formula_fvector(n: int) -> list[int]:
    return [f_formula(n, d) for d in range(n - 2)] + [1]


# A command's result: whether its checks passed, a thunk returning its JSON
# payload (called only under --json; costly payloads are built inside it) and
# its text lines.
Result = tuple[bool, Callable[[], dict | list], list[str]]


def _cmd_fvector(args) -> Result:
    # the enumeration A_n is built from, counted without building A_n
    enumerated = size_counts(args.n) + [1]
    formula = _formula_fvector(args.n)
    agree = enumerated == formula
    lines = [
        f"f({args.n},d-1): " + _row(enumerated),
        "enumeration agrees with closed form" if agree
        else "MISMATCH: closed form gives " + _row(formula),
    ]
    payload = {"n": args.n, "fvector": enumerated, "formula": formula, "agree": agree}
    return agree, lambda: payload, lines


def _cmd_betti(args) -> Result:
    row = list(betti_table(args.n, args.method).row())
    lines = [
        f"β^{args.n}_d: " + _row(row),
        "agreement: hochster = closed = recursion" if args.method == "all"
        else f"method: {args.method}",
    ]
    return True, lambda: {"n": args.n, "method": args.method, "betti": row}, lines


def _cmd_tables(args) -> Result:
    rows = []
    lines = []
    for n in range(6, 10):
        r = {"n": n, "betti": list(betti_table(n, "all").row()), "f": _formula_fvector(n)}
        rows.append(r)
        lines += [
            "",  # blank line between blocks; the one before the first is dropped
            f"n={n}",
            "d: " + _row(range(len(r["betti"]))),
            f"β^{n}_d: " + _row(r["betti"]),
            f"f({n},d-1): " + _row(r["f"]),
        ]
    return True, lambda: rows, lines[1:]


def _witnesses_json(witnesses: list[tuple[Face, Face]]) -> dict:
    """The JSON fields of the equal-label cover pairs."""
    pairs = [
        {
            "lower": [[a, b] for a, b in f.diagonals],
            "upper": [[a, b] for a, b in g.diagonals],
            "label": vertices(f.label),
        }
        for f, g in witnesses
    ]
    return {"minimal": not witnesses, "witnesses": pairs}


def _print_progress(done: int, total: int) -> None:
    step = max(1, total // 8)
    if done % step == 0 or done == total:
        print(f"checked {done}/{total}", file=sys.stderr)


def _cmd_verify_resolution(args) -> Result:
    field = Field.coerce(args.field)
    progress = _print_progress if args.n >= 7 else None
    report = verify_supports_resolution(
        args.n, field, max_n=args.max_n, workers=args.threads, progress=progress
    )
    X = build(args.n)
    witnesses = sum(1 for _ in X.equal_label_covers())
    acyclic = report.checked - report.empty_restrictions - len(report.failures)
    failures = "; ".join(str(vertices(s)) for s in report.failures)
    mismatches = "; ".join(str(vertices(s)) for s in report.cone_mismatches)
    lines = [
        f"n={report.n} field={report.field.value}",
        f"checked: {report.checked} restrictions"
        f" ({report.empty_restrictions} empty, {acyclic} acyclic)",
        "failures: " + (failures or "none"),
        "cone mismatches: " + mismatches if mismatches else "cone agreement: ok",
        "minimal: " + (f"no ({witnesses} witnesses)" if witnesses else "yes"),
    ]
    return report.ok, lambda: report.to_json() | _witnesses_json(minimality_witnesses(X)), lines


def _cmd_minimality(args) -> Result:
    witnesses = minimality_witnesses(build(args.n))
    lines = [f"n={args.n}: minimal: {'no' if witnesses else 'yes'}"
             f" ({len(witnesses)} equal-label cover pairs)"]
    for f, g in witnesses:
        label = ",".join(map(str, vertices(f.label)))
        lines.append(f"{f} < {g}  label {{{label}}}")
    return True, lambda: {"n": args.n} | _witnesses_json(witnesses), lines


def _matching(X, matching, head: str, valid: str, critical: str):
    """Validate one matching of X: (ok, critical counts, JSON thunk, text lines)."""
    report = validate(matching, X)
    crit = critical_cells(matching, X)
    lines = [
        f"{head} {len(matching)} matched pairs",
        f"{valid}: {'yes' if report.ok else 'no'}",
        *[f"problem: {p}" for p in report.problems],
        f"{critical}: " + _row(crit.values()),
    ]

    def to_json() -> dict:
        return {
            "pairs": matching.to_json(),
            "valid": report.ok,
            "problems": list(report.problems),
            "critical": list(crit.values()),
        }

    return report.ok, crit, to_json, lines


def _cmd_morse(args) -> Result:
    X = build(args.n)
    matching = d2_matching(X)
    ok, crit, block, lines = _matching(
        X, matching, f"n={args.n}:", "valid", f"critical (dim -1..{X.dim})"
    )
    if args.n >= 5:
        beta2 = betti_closed_form(args.n, 2)
        agree = crit.get(1, 0) == beta2
        ok = ok and agree
        lines.append(f"critical edges: {crit.get(1, 0)}, β^{args.n}_2: {beta2},"
                     f" {'agree' if agree else 'MISMATCH'}")
    formulas = count_formulas(args.n) if args.n >= 6 else None
    if formulas is not None:
        lines.append(_row(f"{k}: {v}" for k, v in formulas.items()))
    extended = None
    if args.extend:
        ext_ok, _, extended, ext_lines = _matching(
            X, greedy_extend(matching, X), "extended:", "extended valid", "extended critical"
        )
        ok = ok and ext_ok
        lines += ext_lines

    def to_json() -> dict:
        payload = {"n": args.n} | block()
        if formulas is not None:
            payload["formulas"] = formulas
        if extended is not None:
            payload["extended"] = extended()
        return payload

    return ok, to_json, lines


def _parse_shape(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"shape must be comma-separated integers, got {text!r}")


def _cmd_syt(args) -> Result:
    if (args.shape is None) == (args.family is None):
        raise ValueError("give exactly one of --shape or --family")
    if args.shape is not None:
        if args.n is not None or args.d is not None:
            raise ValueError("--n and --d go with --family, not --shape")
        shape = _parse_shape(args.shape)
        expected = None
        header = f"shape {_parts(shape)}"
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
        header = f"family {args.family} n={args.n} d={args.d}: shape {_parts(shape)}"
    count = hook_count(shape)
    agree = expected is None or count == expected
    tableaux = enumerate_syt(shape) if args.enumerate else None
    if expected is None:
        check = f"tableaux: {count} (conjugate {_parts(conjugate(shape))} has the same count)"
    else:
        check = f"tableaux: {count}, {reference}: {expected}, {'agree' if agree else 'MISMATCH'}"
    lines = [header, check, *map(str, tableaux or ())]

    def to_json() -> dict:
        payload = {"shape": list(shape), "count": count, "conjugate": list(conjugate(shape))}
        if args.family is not None:
            payload.update({"family": args.family, "n": args.n, "d": args.d,
                            "expected": expected, "agree": agree})
        if tableaux is not None:
            payload["tableaux"] = [t.to_json() for t in tableaux]
        return payload

    return agree, to_json, lines


def _cmd_involution(args) -> Result:
    shape = associahedron_shape(args.n, args.d)
    tableaux = enumerate_syt(shape)
    fixed = []
    problems = []
    for t in tableaux:
        s = involution(t)
        if s == t:
            fixed.append(t)
        if args.verify:
            if involution(s) != t:
                problems.append(f"σ² moves {t}")
            if s != t and abs(s.size - t.size) != 1:
                problems.append(f"σ changes {t} by more than one cell")
    if args.verify and args.n >= 5:
        # the fixed tableaux restrict onto the syzygy tableaux, each once
        syzygy = syzygy_shape(args.n, args.d)
        if sorted(map(restrict_to_syzygy, fixed)) != enumerate_syt(syzygy):
            problems.append(f"fixed tableaux do not restrict onto the {_parts(syzygy)} tableaux")
    expected = betti_closed_form(args.n, args.d)
    agree = len(fixed) == expected
    lines = [
        f"family ({args.n},{args.d}): {len(tableaux)} tableaux",
        f"fixed: {len(fixed)}, β^{args.n}_{args.d}: {expected}, {'agree' if agree else 'MISMATCH'}",
    ]
    payload = {"n": args.n, "d": args.d, "tableaux": len(tableaux),
               "fixed": len(fixed), "betti": expected, "agree": agree}
    if args.verify:
        lines.append("σ² = id: FAILED" if problems else "σ² = id: verified")
        lines += [f"problem: {p}" for p in problems]
        payload |= {"verified": not problems, "problems": problems}
    return agree and not problems, lambda: payload, lines


def _cmd_dissections(args) -> Result:
    count = f_formula(args.n, args.d)
    by_support: dict[int, int] = {}
    trees = 0
    if args.by_support or args.trees:
        by_support, trees = slice_counts(args.n, args.d)
    ok = True
    lines = [f"dissections({args.n},{args.d}): {count}"]
    payload: dict = {"n": args.n, "d": args.d, "count": count}
    if args.by_support:
        ok = sum(by_support.values()) == count
        lines.append(_row(f"{s}:{c}" for s, c in by_support.items()))
        if not ok:
            lines.append("MISMATCH: support counts do not sum to the total")
        payload["by_support"] = {str(s): c for s, c in by_support.items()}
    if args.trees:
        lines.append(f"trees: {trees}")
        payload["trees"] = trees
    return ok, lambda: payload, lines


def _cmd_complex(args) -> Result:
    X = build(args.n)
    lines = [
        f"n={args.n}: {len(X)} faces, {sum(map(len, X.covers_below()))} covers, dim {X.dim}",
        f"f({args.n},d-1): " + _row(X.f_vector()),
    ]
    return True, X.to_json, lines


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
                   help="check σ² = id, each ±1 size change and the fixed set's restriction")

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
        ok, payload, lines = args.func(args)
    except (MethodDisagreement, RuntimeError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            json.dump(payload(), sys.stdout, indent=2)
            print()
        else:
            print("\n".join(lines))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early: send the rest, and the flush at exit, nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
