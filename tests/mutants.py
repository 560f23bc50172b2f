"""Mutants of the package source, each with the tests that must fail on it.

A mutant is (a file of ``src/cycleres``, an exact snippet of it, its
replacement, the ids of the tests that must fail).  ``python
tests/mutants.py`` applies each mutant to its own copy of ``src`` in a
temporary directory, runs only its tests against the copy, and exits 1
unless every named test fails.  ``test_source.py`` checks that each
snippet still occurs exactly once in ``src``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SWEEP = "test_resolution.py::test_sweep_reports_each_failing_sigma"
EXIT = "test_cli.py::test_a_failed_internal_check_exits_one"
VERIFY = "test_cli.py::test_involution_verify_names_each_problem"
BASES = "test_homology.py::test_bases_must_hold_each_id_once"
MUTANTS = [
    ("resolution.py", "failures.append(mask)", "pass", [SWEEP]),
    ("resolution.py", "mismatches.append(mask)", "pass", [SWEEP]),
    ("resolution.py", "acyclic = empty or is_acyclic(R, field)", "acyclic = True", [SWEEP]),
    ("cli.py", "file=sys.stderr)\n        return 1", "file=sys.stderr)\n        return 0",
     [f"{EXIT}[betti]", f"{EXIT}[morse]"]),
    ("cli.py", "except (MethodDisagreement, RuntimeError)", "except (MethodDisagreement,)",
     [f"{EXIT}[morse]"]),
    ("cli.py", 'problems.append(f"σ² moves {t}")', "pass", [f"{VERIFY}[not-an-involution]"]),
    ("cli.py", 'problems.append(f"σ changes {t} by more than one cell")', "pass",
     [f"{VERIFY}[two-cells]"]),
    ("betti.py", "cells[key] = values", "pass",
     ["test_betti.py::test_method_disagreement_reporting"]),
    # no vertex-count check on sigma
    ("resolution.py", "or not 2 <= sigma.bit_count() < n:", ":",
     ["test_resolution.py::test_cone_apex_validation"]),
    # the parity of a flip-graph edge flipped
    ("homology.py", "differ = 1 ^ (here ^ there) & 1", "differ = (here ^ there) & 1",
     ["test_homology.py::test_interior_signs_match_the_owner_list_oracle[7]"]),
    ("homology.py", 'raise RuntimeError(f"boundary of boundary of cell {g} is nonzero")', "pass",
     ["test_homology.py::test_boundary_squared_zero_is_checked"]),
    ("morse.py", "if labels[lo] != labels[hi]:", "if False:",
     ["test_morse.py::test_validate_rejects_unequal_labels"]),
    # bases of any shape let through
    ("homology.py", "_check_bases(bases, len(table))", "None",
     [f"{BASES}[skipped]", f"{BASES}[list]", f"{BASES}[range-dimension-gap]"]),
    ("homology.py", "or ids.step != 1", "", [f"{BASES}[step-2]"]),
    # a chunk that fails the dimension check raises at its first row
    ("homology.py", "if not _one_dimension_down(bases, g, 1, k, row):", "if True:",
     ["test_homology.py::test_a_one_entry_row_over_a_nonempty_row_is_not_passed",
      "test_homology.py::test_a_row_of_the_wrong_dimension_is_named_past_the_first_chunk"]),
    ("homology.py",
     "return all(all(map(gt, entries[i::k], entries[i + 1 :: k])) for i in range(k - 1))",
     "return True", ["test_homology.py::test_a_row_out_of_order_is_rejected"]),
    # no signed-id check, no signed-entry check, no length check on the lower rows
    ("homology.py", "if any(start <= s < start + count for s in signs):\n        return False",
     "pass", ["test_homology.py::test_boundary_squared_zero_is_checked",
              "test_homology.py::test_a_signed_cell_inside_a_run_is_summed_row_by_row"]),
    ("homology.py",
     "if any(lo <= s <= hi for s in signs) and not signs.keys().isdisjoint(entries):\n"
     "        return False",
     "pass", ["test_homology.py::test_boundary_squared_zero_is_checked"]),
    ("homology.py", "if {*map(len, lower)} != {k - 1}:\n        return False", "pass",
     ["test_homology.py::test_a_one_entry_row_over_a_nonempty_row_is_not_passed"]),
    ("homology.py", "(1, -1) * ((max(map(len, table), default=0) + 1) // 2)", "(1, -1) * 64",
     ["test_homology.py::test_default_signs_cover_any_row_length"]),
    # a restriction cut into dimension blocks at their starts, not their ends
    ("associahedron.py", "end = bisect_left(found, block.stop, start)",
     "end = bisect_left(found, block.start, start)",
     ["test_associahedron.py::test_restrict_path_example",
      "test_associahedron.py::test_restriction_of_a_restriction"]),
    # the recursion's upper end one dimension early
    ("betti.py", "for d in range(2, m - 3)]", "for d in range(2, m - 4)]",
     ["test_betti.py::test_recursion_values",
      "test_cli.py::test_betti_recursion_needs_no_call_stack_as_deep_as_n"]),
]


def survivors(file: str, snippet: str, replacement: str, tests: list[str]) -> list[str]:
    """The named tests that pass with the mutant applied to a copy of ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg*"))
        path = src / "cycleres" / file
        text = path.read_text()
        if text.count(snippet) != 1:
            return tests
        path.write_text(text.replace(snippet, replacement))
        paths = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        # first on the path, so the tests import the mutated copy
        env = {**os.environ, "PYTHONPATH": paths, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
             *(f"tests/{test}" for test in tests)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
        )
    failed = re.findall(r"^FAILED tests/(\S+)", proc.stdout, re.M)
    return [test for test in tests if test not in failed]


def main() -> int:
    missed = 0
    for file, snippet, replacement, tests in MUTANTS:
        alive = survivors(file, snippet, replacement, tests)
        missed += bool(alive)
        verdict = f"NOT CAUGHT by {alive}" if alive else "caught"
        print(f"{file}: {snippet.splitlines()[0]!r}: {verdict}")
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
