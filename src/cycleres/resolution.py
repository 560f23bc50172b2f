"""Verification that the labeled associahedron supports a cellular resolution.

The complex does so exactly when its restriction to every vertex subset sigma
is empty or acyclic over the coefficient field.  sigma is a vertex bitmask,
bit v - 1 for vertex v, like every label.  The sweep below checks all 2^n
subsets with exact homology and cross-checks the cone shortcut: every
non-empty proper restriction has an apex diagonal lying in all of its maximal
faces, which explains the vanishing independently of the rank computation.

Each restriction is a view of one A_n, keeping its ids: it is closed under
subfaces because A_n's labels are the supports of their dissections, so
its covers are label-monotone, and has dd = 0 because A_n's chain complex
does (checked once).
"""

from __future__ import annotations

import os
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .associahedron import Face, LabeledComplex, build, restrict
from .homology import Field, is_acyclic
from .polygon import (
    Diagonal,
    all_diagonals,
    crosses,
    diagonal,
    dissection,
    iter_noncrossing,
    rotate,
    support,
    vertices,
)

# 2^n restrictions each need a homology computation; larger n on request only.
DEFAULT_MAX_N = 8

ProgressFn = Callable[[int, int], None]


def cone_apex(n: int, sigma: int) -> Diagonal | None:
    """Apex of the cone structure on the restriction to sigma, in original labels.

    sigma is a vertex bitmask, bit v - 1 for vertex v, with at least two and
    fewer than n vertices; ValueError otherwise.  Returns None when no
    diagonal has both endpoints in sigma (the restriction is empty).  With t
    the least vertex of sigma whose cyclic predecessor is missing, turn sigma
    so that t is vertex 1: the diagonal from 1 to the largest turned vertex
    crosses nothing inside sigma, so it lies in every maximal face.
    """
    if not 0 <= sigma < 1 << n or not 2 <= sigma.bit_count() < n:
        raise ValueError(f"sigma {sigma:#b} must hold at least 2 and fewer than {n} vertices")
    starts = sigma & ~rotate(sigma, n, 1)
    t = (starts & -starts).bit_length()
    j = rotate(sigma, n, 1 - t).bit_length()
    if j <= 2:
        # sigma is two cyclically adjacent vertices; the chord is a polygon edge
        return None
    return diagonal(t, (j + t - 2) % n + 1, n)


def _is_maximal(face: frozenset[Diagonal], candidates: list[Diagonal]) -> bool:
    return all(
        d in face or any(crosses(d, e) for e in face) for d in candidates
    )


def cone_witness(n: int, sigma: int) -> Diagonal | None:
    """cone_apex plus a literal check of the apex against every maximal face.

    sigma is a vertex bitmask, as for cone_apex.  Maximal faces are
    enumerated from scratch as maximal noncrossing subsets of the diagonals
    supported inside sigma, independent of the complex builder.  Raises
    RuntimeError if the apex claim fails (it never should).
    """
    apex = cone_apex(n, sigma)
    candidates = [d for d in all_diagonals(n) if support([d]) & ~sigma == 0]
    if apex is None:
        if candidates:
            raise RuntimeError(f"no apex yet restriction to {vertices(sigma)} is non-empty")
        return None
    if apex not in candidates:
        raise RuntimeError(f"apex {apex} is not supported inside {vertices(sigma)}")
    for chosen in iter_noncrossing(candidates):
        face = frozenset(dissection(chosen, candidates))
        if _is_maximal(face, candidates) and apex not in face:
            raise RuntimeError(f"apex {apex} missing from maximal face {sorted(face)}")
    return apex


def minimality_witnesses(X: LabeledComplex) -> list[tuple[Face, Face]]:
    """Cover pairs with identical labels; the resolution is minimal iff none exist.

    The pairs are ``X.equal_label_covers()``, in its sorted order, as faces.
    Label monotonicity makes cover pairs sufficient: equality on any nested pair
    forces equality somewhere along a saturated chain between them.
    """
    return [(X.faces[lo], X.faces[hi]) for lo, hi in X.equal_label_covers()]


@dataclass(frozen=True)
class ResolutionReport:
    n: int
    field: Field
    checked: int
    empty_restrictions: int
    # failing sigmas as vertex bitmasks; to_json lists their vertices
    failures: tuple[int, ...]
    cone_mismatches: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.cone_mismatches

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "field": self.field.value,
            "checked": self.checked,
            "empty": self.empty_restrictions,
            "failures": [vertices(s) for s in self.failures],
            "cone_mismatches": [vertices(s) for s in self.cone_mismatches],
            "ok": self.ok,
        }


def _cone_agrees(n: int, sigma: int, restriction: LabeledComplex) -> bool:
    """Whether the cone apex of sigma lies in every maximal face of its restriction.

    That holds iff the apex is a kept diagonal crossing no kept diagonal:
    then every kept face extends by the apex, with its label still inside
    sigma.  So only the restriction's vertices are read, not its covers.
    """
    apex = cone_apex(n, sigma)
    if restriction.is_empty:
        return apex is None
    if apex is None:
        return False
    kept = restriction.diagonals()
    return apex in kept and not any(crosses(apex, d) for d in kept)


def _check_mask(X: LabeledComplex, field: Field, mask: int) -> tuple[bool, bool, bool]:
    """(empty, acyclic, cone agrees) for the restriction of X to the vertex bitmask."""
    R = restrict(X, mask)
    empty = R.is_empty
    acyclic = empty or is_acyclic(R, field)
    cone_ok = not 2 <= mask.bit_count() < X.n or _cone_agrees(X.n, mask, R)
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
    raising; raises ValueError only on out-of-range n, workers < 1 or a field
    that is neither a Field nor one of the names 'gf2' and 'rational'.  At most
    os.cpu_count() worker processes run; the verdicts do not depend on how many.
    """
    field = Field.coerce(field)
    if not 4 <= n <= max_n:
        raise ValueError(f"need 4 <= n <= {max_n} (2^n homology checks), got n={n}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    total = 1 << n
    empties = 0
    failures: list[int] = []
    mismatches: list[int] = []
    with ExitStack() as stack:
        if workers == 1:
            verdicts = map(partial(_check_mask, build(n), field), range(total))
        else:
            # imported here, so that no other call pays for loading the pool
            from concurrent.futures import ProcessPoolExecutor

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
                failures.append(mask)
            if not cone_ok:
                mismatches.append(mask)
            if progress is not None:
                progress(mask + 1, total)
    return ResolutionReport(n, field, total, empties, tuple(failures), tuple(mismatches))
