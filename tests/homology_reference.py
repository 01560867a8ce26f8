"""Earlier forms of ``finsub.homology`` code, kept as references for
differential tests.  Nothing under ``src/`` imports this module.

``homology_basis`` takes the kernel lattice of the outgoing differential
from a whole-matrix elimination with a tracked column transform V (the
columns of V beyond the rank, and the rows of V^-1 below it as
coordinates), as before the kernel lattices came from the unit echelon;
``test_homology_basis.py`` compares against it.

``validate`` is the d.d check as one ``SparseIntMatrix.mul_col`` per
column, as before ``ChainComplex.validate`` summed into a dense list;
``test_ddcheck.py`` compares against it.

``relative_complex``, ``connecting_complexes``, ``connecting_block`` and
``les_check`` build relative chains, connecting blocks and LES maps with
face loops of their own, as before they became restrictions of one
normalized-complex build; ``test_restriction.py`` compares against them.
They are unchanged but for reading the basis order where the chain
complex used to carry a basis index.
"""

from __future__ import annotations

from typing import Optional

from finsub.homology import (
    ChainComplex,
    HomologyBasis,
    HomologyGroup,
    LesNode,
    LesReport,
    _induced_rank_q,
    betti_numbers,
    chain_map_matrix,
    homology,
    normalized_complex,
)
from finsub.simplicial import SimplicialMap, SimplicialSet, SpaceLike, underlying
from finsub.snf import SparseIntMatrix, diagonalize


def validate(c: ChainComplex) -> list[tuple[int, int]]:
    """Columns where the double differential fails to vanish."""
    bad = []
    for k in range(len(c.dims)):
        outer = c.out_matrix(k)
        inner = c.in_matrix(k)
        if outer.rows == 0 or inner.cols == 0:
            continue
        for col in range(inner.cols):
            if outer.mul_col(inner.column(col)):
                bad.append((k, col))
    return bad


def homology_basis(c: ChainComplex, k: int) -> HomologyBasis:
    """Generators of H_k with the chain-level data to express cycles.

    Kernel lattice from the tracked column transform of the outgoing
    differential; the incoming image is rewritten in kernel coordinates
    and put in Smith form through the tracked column transform of its
    transpose.
    """
    dk = c.out_matrix(k)
    dk1 = c.in_matrix(k)
    res1 = diagonalize(dk)
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
    res2 = diagonalize(b.transpose())
    factors = res2.factors
    s = len(factors)
    uinv_cols = res2.Vinv.row_dicts()
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
                         dk, vinv_bottom, [res2.V.column(i) for i in range(z)],
                         factors)


def _basis_index(c: ChainComplex, k: int) -> dict:
    return {s: i for i, s in enumerate(c.basis[k])}


def _face_chains(xs: SimplicialSet, basis: list[list[int]],
                 reduced: bool) -> ChainComplex:
    """Chains on the given cells of each level, boundary the alternating
    face sum with faces outside the cells dropped."""
    index = [{s: i for i, s in enumerate(b)} for b in basis]
    dims = [len(b) for b in basis]
    boundary = [SparseIntMatrix(1 if reduced else 0, dims[0])]
    if reduced:
        for j in range(dims[0]):
            boundary[0].set(0, j, 1)
    for k in range(1, len(basis)):
        mat = SparseIntMatrix(dims[k - 1], dims[k])
        fmaps = xs.faces[k]
        idx = index[k - 1]
        for j, cell in enumerate(basis[k]):
            sign = 1
            for i in range(k + 1):
                t = idx.get(fmaps[i][cell])
                if t is not None:
                    mat.add(t, j, sign)
                sign = -sign
        boundary.append(mat)
    c = ChainComplex(dims, boundary, reduced=reduced, basis=basis)
    c.assert_valid()
    return c


def relative_complex(x: SpaceLike, a: Optional[SimplicialMap],
                     maxdeg: Optional[int] = None) -> ChainComplex:
    """Chains of x with the image of ``a`` (and degenerates) dropped."""
    xs = underlying(x)
    if a is None:
        return normalized_complex(x, reduced=False, maxdeg=maxdeg)
    tgt = underlying(a.target)
    if tgt is not xs and tgt != xs:
        raise ValueError("relative_complex: map does not land in the given space")
    if maxdeg is None:
        maxdeg = min(xs.trunc, a.trunc)
    if maxdeg > a.trunc:
        raise ValueError("relative_complex: subspace map truncated below maxdeg")
    if not a.is_injective():
        raise ValueError("relative_complex: subspace map must be injective")
    bad = a.violations()
    if bad:
        raise ValueError(
            f"relative_complex: image not closed under structure maps "
            f"({len(bad)} failures, first {bad[0]})")
    img = [set(a.maps[k]) for k in range(maxdeg + 1)]
    basis = [[s for s in xs.nondegenerate(k) if s not in img[k]]
             for k in range(maxdeg + 1)]
    return _face_chains(xs, basis, False)


def connecting_block(x: SpaceLike, a: SimplicialMap, k: int,
                     src: ChainComplex, tgt: ChainComplex) -> SparseIntMatrix:
    """Faces of relative degree-k cells that land on subspace cells,
    written in the subspace complex's degree k-1 basis."""
    xs = underlying(x)
    inv_a = {a.maps[k - 1][s]: s for s in range(len(a.maps[k - 1]))}
    if src.basis is None or tgt.basis is None:
        raise ValueError("connecting block needs simplex bases")
    tidx = _basis_index(tgt, k - 1)
    conn = SparseIntMatrix(tgt.dims[k - 1], src.dims[k])
    fmaps = xs.faces[k]
    for j, cell in enumerate(src.basis[k]):
        sign = 1
        for i in range(k + 1):
            pre = inv_a.get(fmaps[i][cell])
            if pre is not None:
                t = tidx.get(pre)
                if t is not None:
                    conn.add(t, j, sign)
            sign = -sign
    return conn


def connecting_complexes(x: SpaceLike, a: SimplicialMap, k: int,
                         rel: Optional[SimplicialMap]
                         ) -> tuple[ChainComplex, ChainComplex]:
    if k < 1:
        raise ValueError("connecting maps start in degree >= 1")
    trunc = min(underlying(x).trunc, a.trunc)
    if trunc < k + 1:
        raise ValueError(
            f"connecting map in degree {k} needs truncation >= {k + 1}, have {trunc}")
    src = relative_complex(x, a, maxdeg=k + 1)
    if rel is None:
        tgt = normalized_complex(a.source, reduced=True, maxdeg=k)
    else:
        tgt = relative_complex(a.source, rel, maxdeg=k)
    return src, tgt


def les_check(x: SpaceLike, a: Optional[SimplicialMap],
              maxdeg: Optional[int] = None,
              with_torsion: bool = True) -> LesReport:
    """Rank-exactness of H(A) -> H(X) -> H(X,A) -> H(A)[-1] over Q."""
    xs = underlying(x)
    if maxdeg is None:
        maxdeg = xs.trunc if a is None else min(xs.trunc, a.trunc)
    cx = normalized_complex(x, reduced=False, maxdeg=maxdeg)
    cxa = relative_complex(x, a, maxdeg=maxdeg)
    if a is not None:
        ca = normalized_complex(a.source, reduced=False, maxdeg=maxdeg)
    else:
        ca = ChainComplex([0] * (maxdeg + 1),
                          [SparseIntMatrix(0, 0) for _ in range(maxdeg + 1)],
                          basis=[[] for _ in range(maxdeg + 1)])
    if with_torsion:
        groups_a, groups_x, groups_xa = (homology(c) for c in (ca, cx, cxa))
        betti_a, betti_x, betti_xa = ([g.rank for g in groups]
                                      for groups in (groups_a, groups_x, groups_xa))
    else:
        betti_a, betti_x, betti_xa = (betti_numbers(c) for c in (ca, cx, cxa))

    # chain maps: inclusion i, projection j, connecting block
    def imap(k: int) -> SparseIntMatrix:
        if a is None:
            return SparseIntMatrix(cx.dims[k], 0)
        return chain_map_matrix(a, k, ca, cx)

    def jmap(k: int) -> SparseIntMatrix:
        mat = SparseIntMatrix(cxa.dims[k], cx.dims[k])
        xa_idx = _basis_index(cxa, k)
        for j, cell in enumerate(cx.basis[k]):
            t = xa_idx.get(cell)
            if t is not None:
                mat.set(t, j, 1)
        return mat

    rank_i = {}
    rank_j = {}
    rank_d = {}
    for k in range(maxdeg):
        rank_i[k] = _induced_rank_q(imap(k), ca.out_matrix(k), cx.in_matrix(k))
        rank_j[k] = _induced_rank_q(jmap(k), cx.out_matrix(k), cxa.in_matrix(k))
    for k in range(1, maxdeg + 1):
        if a is None:
            rank_d[k] = 0
            continue
        conn = connecting_block(x, a, k, cxa, ca)
        rank_d[k] = _induced_rank_q(conn, cxa.out_matrix(k), ca.in_matrix(k - 1))
    report = LesReport()
    for k in range(maxdeg):
        report.nodes.append(LesNode(
            k, "X", betti_x[k], groups_x[k] if with_torsion else None,
            rank_in=rank_i[k], rank_out=rank_j[k]))
        report.nodes.append(LesNode(
            k, "XA", betti_xa[k], groups_xa[k] if with_torsion else None,
            rank_in=rank_j[k], rank_out=rank_d.get(k, 0)))
        report.nodes.append(LesNode(
            k, "A", betti_a[k], groups_a[k] if with_torsion else None,
            rank_in=rank_d.get(k + 1, 0), rank_out=rank_i[k]))
    return report
