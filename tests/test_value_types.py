"""The contracts of the package's value types: equality, hashing, repr, order, immutability.

``Face``, ``ResolutionReport``, ``MatchingReport`` and ``BettiTable`` are
named tuples; ``MorseMatching`` and ``Tableau`` check their input and are
plain classes.  The reprs are pinned to the field-by-field form.
"""

import pickle
import random
from itertools import chain

import pytest

from cycleres.associahedron import Face, build
from cycleres.betti import BettiTable, betti_table
from cycleres.homology import Field
from cycleres.morse import MatchingReport, MorseMatching, validate
from cycleres.polygon import Diagonal
from cycleres.resolution import verify_supports_resolution
from cycleres.tableaux import Tableau, associahedron_shape, enumerate_syt


_TYPES = ["Face", "ResolutionReport", "MatchingReport", "BettiTable", "MorseMatching", "Tableau"]


def _values():
    """One value of each type, made twice over, with its field name and pinned repr."""
    return [
        (
            lambda: Face(1, (Diagonal(1, 3),), 0b111),
            "dim",
            "Face(dim=1, diagonals=(Diagonal(a=1, b=3),), label=7)",
        ),
        (
            lambda: verify_supports_resolution(4),
            "checked",
            "ResolutionReport(n=4, field=<Field.GF2: 'gf2'>, checked=16, empty_restrictions=9,"
            " failures=(), cone_mismatches=())",
        ),
        (lambda: MatchingReport(True, ()), "ok", "MatchingReport(ok=True, problems=())"),
        (
            lambda: betti_table(5),
            "n",
            "BettiTable(n=5, entries={(0, 0): 1, (1, 2): 5, (2, 3): 5, (3, 5): 1})",
        ),
        (
            lambda: MorseMatching([(2, 5), (1, 3), (1, 3)]),
            "pairs",
            "MorseMatching(pairs=((1, 3), (2, 5)))",
        ),
        (lambda: Tableau([[1, 2], [3]]), "rows", "Tableau(rows=((1, 2), (3,)))"),
    ]


@pytest.mark.parametrize("make, name, text", _values(), ids=_TYPES)
def test_equal_values_compare_equal_and_print_their_fields(make, name, text):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("make, name, text", _values(), ids=_TYPES)
def test_assigning_or_deleting_an_attribute_raises(make, name, text):
    value = make()
    before = repr(value)
    for attr in (name, "other"):
        with pytest.raises(AttributeError):
            setattr(value, attr, 0)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == before


def test_hashes_follow_equality():
    pairs = [((1, 3), (2, 5)), ((2, 5), (1, 3), (1, 3))]
    assert len({MorseMatching(p) for p in pairs}) == 1
    assert hash(MorseMatching(pairs[0])) == hash((pairs[0],))
    rows = ((1, 2), (3,))
    assert hash(Tableau(rows)) == hash(Tableau([[1, 2], [3]])) == hash((rows,))
    face = Face(1, (Diagonal(1, 3),), 0b111)
    assert hash(face) == hash(Face(1, (Diagonal(1, 3),), 0b111)) == hash(tuple(face))
    assert len({MatchingReport(True, ()), MatchingReport(True, ())}) == 1
    assert len({verify_supports_resolution(4), verify_supports_resolution(4)}) == 1
    # a Betti table holds a dict, so it cannot be hashed
    with pytest.raises(TypeError):
        hash(betti_table(5))


def test_unequal_values_compare_unequal():
    assert MorseMatching([(1, 3)]) != MorseMatching([(1, 4)])
    assert Tableau([[1, 2], [3]]) != Tableau([[1, 3], [2]])
    assert BettiTable(5, {(0, 0): 1}) != BettiTable(5, {(0, 0): 2})
    assert verify_supports_resolution(4) != verify_supports_resolution(4, Field.RATIONAL)
    X = build(6)
    assert validate(MorseMatching([]), X) != validate(MorseMatching([(0, 1)]), X)
    # the checked types equal only their own kind
    assert MorseMatching([(1, 3)]) != ((1, 3),)
    assert Tableau([[1]]) != ((1,),)


@pytest.mark.parametrize("shape", [(3, 2), (2, 2, 1), (3, 3, 1, 1), (4, 2, 1)])
def test_tableaux_sort_by_reading_word(shape):
    tableaux = enumerate_syt(shape)
    shuffled = tableaux[:]
    random.Random(len(tableaux)).shuffle(shuffled)
    assert sorted(shuffled) == tableaux
    assert tableaux == sorted(tableaux, key=lambda t: [*chain.from_iterable(t.rows)])
    for s, t in zip(tableaux, tableaux[1:]):
        assert s < t and s <= t and t > s and t >= s
        assert not (t < s or t <= s or s > t or s >= t)
        assert s <= s and s >= s and not s < s and not s > s
    with pytest.raises(TypeError):
        tableaux[0] < tableaux[0].rows


@pytest.mark.parametrize("n, d", [(5, 1), (6, 2), (7, 3), (8, 2)])
def test_an_unchecked_tableau_equals_the_checked_one(n, d):
    for t in enumerate_syt(associahedron_shape(n, d)):
        rows = t.rows
        unchecked, checked = Tableau._standard(rows), Tableau(rows)
        assert unchecked == checked and hash(unchecked) == hash(checked)
        assert repr(unchecked) == repr(checked)
        assert vars(unchecked) == vars(checked) == {"rows": rows}
