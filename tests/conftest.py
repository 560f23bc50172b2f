import pytest

from cycleres.homology import Field


def _dense_boundary(cc, k, field):
    """Dense boundary matrix C_k -> C_{k-1} of ``cc``: rows index (k-1)-cells.

    Entries are reduced mod 2 over GF(2).  Built from ``cc.columns``
    alone, so tests can check the sparse kernels against dense algebra.
    """
    cols = cc.columns.get(k, [])
    dense = [[0] * len(cols) for _ in cc.bases.get(k - 1, [])]
    for j, col in enumerate(cols):
        for i, c in col:
            dense[i][j] = c % 2 if field is Field.GF2 else c
    return dense


@pytest.fixture
def dense_boundary():
    return _dense_boundary
