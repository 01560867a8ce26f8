"""The generator bases that ``finsub.homology`` computed before its kernel
lattices came from the unit echelon.

``homology_basis`` here takes the kernel lattice of the outgoing
differential from a whole-matrix elimination with a tracked column
transform V (the columns of V beyond the rank, and the rows of V^-1
below it as coordinates).  It is kept unchanged as the reference for
the differential tests in ``test_homology_basis.py``.  Nothing under
``src/`` imports this module.
"""

from __future__ import annotations

from finsub.homology import ChainComplex, HomologyBasis, HomologyGroup
from finsub.snf import SparseIntMatrix, diagonalize


def homology_basis(c: ChainComplex, k: int) -> HomologyBasis:
    """Generators of H_k with the chain-level data to express cycles.

    Kernel lattice from the tracked column transform of the outgoing
    differential; the incoming image is rewritten in kernel coordinates
    and put in Smith form with a tracked row transform.
    """
    dk = c.out_matrix(k)
    dk1 = c.in_matrix(k)
    res1 = diagonalize(dk, track_v=True)
    r = res1.rank
    nk = c.dims[k]
    z = nk - r
    kernel = [res1.V.column(j) for j in range(r, nk)]
    vinv_rows = res1.Vinv.row_dicts()
    vinv_bottom = vinv_rows[r:]
    dk1_rows = dk1.row_dicts()
    b = SparseIntMatrix(z, dk1.cols)
    for i, w in enumerate(vinv_bottom):
        acc: dict[int, int] = {}
        for l, wl in w.items():
            for col, v in dk1_rows[l].items():
                nv = acc.get(col, 0) + wl * v
                if nv:
                    acc[col] = nv
                else:
                    del acc[col]
        for col, v in acc.items():
            b.set(i, col, v)
    res2 = diagonalize(b, track_u=True, chain=True)
    factors = res2.factors
    s = len(factors)
    uinv_cols = [res2.Uinv.column(i) for i in range(z)]
    gens: list[dict[int, int]] = []
    for i in range(z):
        chain: dict[int, int] = {}
        for j, w in uinv_cols[i].items():
            for l, v in kernel[j].items():
                nv = chain.get(l, 0) + w * v
                if nv:
                    chain[l] = nv
                else:
                    del chain[l]
        gens.append(chain)
    torsion_gens = [gens[i] for i in range(s) if factors[i] > 1]
    torsion_orders = [f for f in factors if f > 1]
    free_gens = gens[s:]
    group = HomologyGroup(z - s, tuple(torsion_orders))
    return HomologyBasis(k, group, free_gens, torsion_gens, torsion_orders,
                         dk, vinv_bottom, res2.U.row_dicts(), factors)
