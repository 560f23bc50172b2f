import pytest

from cycleres.homology import Field


def _signed_boundary(cc, g):
    """Cell g's boundary in ``cc`` as ``{id: coefficient}``.

    Read from ``cc.table`` and ``cc.signs`` alone: the i-th entry of a
    row has coefficient (-1)^i unless the cell has explicit signs.
    """
    row = cc.table[g]
    return dict(zip(row, cc.signs.get(g) or [(-1) ** i for i in range(len(row))]))


def _dense_boundary(cc, k, field):
    """Dense boundary matrix C_k -> C_{k-1} of ``cc``: rows index (k-1)-cells.

    Entries are reduced mod 2 over GF(2).  Built from ``_signed_boundary``,
    so tests can check the sparse kernels against dense algebra.
    """
    cells = cc.bases.get(k, [])
    row_of = {g: i for i, g in enumerate(cc.bases.get(k - 1, []))}
    dense = [[0] * len(cells) for _ in row_of]
    for j, g in enumerate(cells):
        for lo, c in _signed_boundary(cc, g).items():
            dense[row_of[lo]][j] = c % 2 if field is Field.GF2 else c
    return dense


@pytest.fixture
def signed_boundary():
    return _signed_boundary


@pytest.fixture
def dense_boundary():
    return _dense_boundary
