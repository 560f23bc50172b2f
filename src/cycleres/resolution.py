"""Verification that the labeled associahedron supports a cellular resolution.

The complex does so exactly when its restriction to every vertex subset sigma
is empty or acyclic over the coefficient field.  The sweep below checks all
2^n subsets with exact homology and cross-checks the cone shortcut: every
non-empty proper restriction has an apex diagonal lying in all of its maximal
faces, which explains the vanishing independently of the rank computation.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from .associahedron import Face, LabeledComplex, build, restrict
from .homology import Field, is_acyclic
from .polygon import Diagonal, all_diagonals, crosses, diagonal, iter_noncrossing

# 2^n restrictions each need a homology computation; larger n on request only.
DEFAULT_MAX_N = 8

ProgressFn = Callable[[int, int], None]


def cone_apex(n: int, sigma: Iterable[int]) -> Diagonal | None:
    """Apex of the cone structure on the restriction to sigma, in original labels.

    Returns None when no diagonal has both endpoints in sigma (restriction is
    empty).  sigma must be a proper subset of {1..n} with at least two elements:
    after rotating some element with a missing cyclic predecessor to position 1,
    the diagonal from 1 to the largest rotated index crosses nothing inside
    sigma, so it lies in every maximal face.
    """
    s = frozenset(sigma)
    if not s or not all(isinstance(v, int) and 1 <= v <= n for v in s):
        raise ValueError(f"sigma must be a nonempty subset of 1..{n}")
    if len(s) < 2 or len(s) >= n:
        raise ValueError(f"sigma must be proper with at least 2 elements, got {sorted(s)}")
    t = min(v for v in s if (v - 2) % n + 1 not in s)
    rotated = {(v - t) % n + 1 for v in s}
    j = max((v for v in rotated if v > 2), default=0)
    if not j:
        # sigma is two cyclically adjacent vertices; the chord is a polygon edge
        return None
    return diagonal(t, (j - 1 + t - 1) % n + 1, n)


def _is_maximal(face: frozenset[Diagonal], candidates: list[Diagonal]) -> bool:
    return all(
        d in face or any(crosses(d, e) for e in face) for d in candidates
    )


def cone_witness(n: int, sigma: Iterable[int]) -> Diagonal | None:
    """cone_apex plus a literal check of the apex against every maximal face.

    Maximal faces are enumerated from scratch as maximal noncrossing subsets of
    the diagonals supported inside sigma, independent of the complex builder.
    Raises RuntimeError if the apex claim fails (it never should).
    """
    s = frozenset(sigma)
    apex = cone_apex(n, s)
    candidates = [d for d in all_diagonals(n) if d.a in s and d.b in s]
    if apex is None:
        if candidates:
            raise RuntimeError(f"no apex yet restriction to {sorted(s)} is non-empty")
        return None
    if apex not in candidates:
        raise RuntimeError(f"apex {apex} is not supported inside {sorted(s)}")
    for chosen in iter_noncrossing(candidates):
        face = frozenset(chosen)
        if _is_maximal(face, candidates) and apex not in face:
            raise RuntimeError(f"apex {apex} missing from maximal face {sorted(face)}")
    return apex


def minimality_witnesses(X: LabeledComplex) -> list[tuple[Face, Face]]:
    """Cover pairs with identical labels; the resolution is minimal iff none exist.

    Label monotonicity makes cover pairs sufficient: equality on any nested pair
    forces equality somewhere along a saturated chain between them.
    """
    out = []
    for lo, hi in X.covers:
        f, g = X.face(lo), X.face(hi)
        if f.label == g.label:
            out.append((f, g))
    return out


@dataclass(frozen=True)
class ResolutionReport:
    n: int
    field: Field
    checked: int
    empty_restrictions: int
    failures: tuple[tuple[int, ...], ...]
    cone_mismatches: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.cone_mismatches

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "field": self.field.value,
            "checked": self.checked,
            "empty": self.empty_restrictions,
            "failures": [list(s) for s in self.failures],
            "cone_mismatches": [list(s) for s in self.cone_mismatches],
            "ok": self.ok,
        }


def _mask_to_sigma(mask: int, n: int) -> tuple[int, ...]:
    return tuple(v for v in range(1, n + 1) if mask >> (v - 1) & 1)


def _cone_agrees(n: int, sigma: tuple[int, ...], restriction: LabeledComplex) -> bool:
    apex = cone_apex(n, sigma)
    if restriction.is_empty:
        return apex is None
    if apex is None:
        return False
    return all(apex in face.diagonals for face in restriction.maximal_faces())


def _check_mask(X: LabeledComplex, field: Field, mask: int) -> tuple[bool, bool, bool]:
    """(empty, acyclic, cone agrees) for the restriction of X to the vertex bitmask."""
    sigma = _mask_to_sigma(mask, X.n)
    R = restrict(X, sigma)
    empty = R.is_empty
    acyclic = empty or is_acyclic(R, field)
    cone_ok = not 2 <= len(sigma) < X.n or _cone_agrees(X.n, sigma, R)
    return empty, acyclic, cone_ok


# In a pool worker: _check_mask bound to that process's own A_n.
_worker_check: Callable[[int], tuple[bool, bool, bool]] | None = None


def _init_worker(n: int, field: Field) -> None:
    global _worker_check
    _worker_check = partial(_check_mask, build(n), field)


def _check_in_worker(mask: int) -> tuple[bool, bool, bool]:
    return _worker_check(mask)


def verify_supports_resolution(
    n: int,
    field: Field | str = Field.GF2,
    *,
    max_n: int = DEFAULT_MAX_N,
    workers: int = 1,
    progress: ProgressFn | None = None,
) -> ResolutionReport:
    """Check all 2^n restrictions of A_n for emptiness or acyclicity over field.

    Also verifies, for every sigma with 2 <= |sigma| < n, that the cone apex
    agrees with the homology verdict.  Reports failing sigmas rather than
    raising; raises ValueError only on out-of-range n or workers < 1.
    """
    field = Field.coerce(field)
    if not 4 <= n <= max_n:
        raise ValueError(f"need 4 <= n <= {max_n} (2^n homology checks), got n={n}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    total = 1 << n
    empties = 0
    failures: list[tuple[int, ...]] = []
    mismatches: list[tuple[int, ...]] = []
    with ExitStack() as stack:
        if workers == 1:
            verdicts = map(partial(_check_mask, build(n), field), range(total))
        else:
            pool = stack.enter_context(
                ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(n, field))
            )
            # Small chunks handed out as workers free up: cost grows with |sigma|,
            # so equal contiguous spans would leave the last worker the most work.
            chunk = max(1, total // (16 * workers))
            verdicts = pool.map(_check_in_worker, range(total), chunksize=chunk)
        for mask, (empty, acyclic, cone_ok) in enumerate(verdicts):
            if empty:
                empties += 1
            elif not acyclic:
                failures.append(_mask_to_sigma(mask, n))
            if not cone_ok:
                mismatches.append(_mask_to_sigma(mask, n))
            if progress is not None:
                progress(mask + 1, total)
    return ResolutionReport(n, field, total, empties, tuple(failures), tuple(mismatches))
