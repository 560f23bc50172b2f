"""The benchmark's workloads and the oracle that checks their answers.

Every workload is a fixed problem instance run through the public CLI,
``cycleres.cli.main(argv)``, as a closed loop: one caller, and each call
waits for the one before it.  There is no random input, so the seed
changes nothing; the calls always run in the order listed, because a
call's time depends on what ran before it in the same process.

The oracle checks facts printed on stdout against values computed here
from binomials, never by calling the library.
"""

from __future__ import annotations

from math import comb

# Two workloads, so that the benchmark's time budget allows long runs
# (50 s, four or five rounds each): on a shared two-core host the speed
# drifts for tens of seconds at a time, and short runs do not average it out.
WORKLOADS: dict[str, list[list[str]]] = {
    # 512 restrictions three ways: GF(2) with one and with two worker
    # processes, then the rationals (dense rank_int dominates that call).
    "sweeps": [
        ["verify-resolution", "9", "--field", "gf2", "--max-n", "9"],
        ["verify-resolution", "9", "--field", "gf2", "--max-n", "9", "--threads", "2"],
        ["verify-resolution", "9", "--field", "rational", "--max-n", "9"],
    ],
    # Two builds of A_11 and the Morse matching, then tableaux and Betti
    # tables; never touches homology or resolution.
    "complex-tableaux": [
        ["fvector", "11"],
        ["morse", "11", "--extend"],
        ["tables"],
        *(["involution", "10", str(d), "--verify"] for d in range(1, 6)),
    ],
}


def _exact(num: int, den: int) -> int:
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"{num}/{den} is not an integer")
    return q


def f_vector(n: int) -> list[int]:
    """Dissection counts by number of diagonals, then 1 for the interior cell."""
    return [_exact(comb(n + d, d + 1) * comb(n - 3, d), n + d) for d in range(n - 2)] + [1]


def betti(n: int, d: int) -> int:
    """Total Betti number beta_d of the n-cycle's diagonal ideal."""
    if d in (0, n - 2):
        return 1
    return _exact(comb(n, d + 1) * d * (n - d - 2), n - 1)


def betti_row(n: int) -> list[int]:
    return [betti(n, d) for d in range(n - 1)]


def empty_restrictions(n: int) -> int:
    """Vertex sets supporting no diagonal: the empty set, n singletons, n adjacent pairs."""
    return 2 * n + 1


def _row(values) -> str:
    return " ".join(map(str, values))


def expected_lines(argv: list[str]) -> list[str]:
    """Lines the CLI must print for argv, derived without the library."""
    command = argv[0]
    if command == "verify-resolution":
        n = int(argv[1])
        field = argv[argv.index("--field") + 1]
        total, empty = 2**n, empty_restrictions(n)
        return [
            f"n={n} field={field}",
            f"checked: {total} restrictions ({empty} empty, {total - empty} acyclic)",
            "failures: none",
            "cone agreement: ok",
        ]
    if command == "fvector":
        n = int(argv[1])
        return [f"f({n},d-1): " + _row(f_vector(n)), "enumeration agrees with closed form"]
    if command == "morse":
        n = int(argv[1])
        return ["valid: yes", "extended valid: yes", "extended critical: " + _row(betti_row(n))]
    if command == "tables":
        lines = []
        for n in range(6, 10):
            lines += [f"β^{n}_d: " + _row(betti_row(n)), f"f({n},d-1): " + _row(f_vector(n))]
        return lines
    if command == "involution":
        n, d = int(argv[1]), int(argv[2])
        b = betti(n, d)
        return [
            f"family ({n},{d}): {f_vector(n)[d]} tableaux",
            f"fixed: {b}, β^{n}_{d}: {b}, agree",
            "σ² = id: verified",
        ]
    raise ValueError(f"no oracle for {command!r}")


def check(argv: list[str], returncode, stdout: str) -> list[str]:
    """Problems with one CLI call's answer; an empty list means it is correct."""
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    printed = set(stdout.splitlines())
    problems += [f"missing line {line!r}" for line in expected_lines(argv) if line not in printed]
    return problems
