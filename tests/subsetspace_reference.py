"""The keyed connecting map of the bar tower, kept as the reference that
the Fox-Neuwirth ``connecting`` claim and ``test_fn_sphere.py`` compare
against.  Nothing under ``src/`` imports this module.

``keyed_connecting`` splits one ``keyed_complex`` build of the reduced
bar_n chains by key size, through the same restriction helpers as the
claim splits the Fox-Neuwirth cells of bar_n by their points.
"""

from __future__ import annotations

from finsub import subsetspace
from finsub.homology import ChainComplex, _restrict, _submatrix
from finsub.simplicial import BasedSimplicialSet
from finsub.snf import SparseIntMatrix
from finsub.subsetspace import DEFAULT_CELL_CEILING


def keyed_connecting(x: BasedSimplicialSet, n: int, k: int, *,
                     ceiling: int = DEFAULT_CELL_CEILING
                     ) -> tuple[ChainComplex, ChainComplex, SparseIntMatrix]:
    """The chains of the connecting map of the bar tower, straight from keys.

    Returns (source, target, block) for :func:`homology.zigzag_map`, split
    by key size off one build of the reduced chains of bar_n: the source
    is bar_n / bar_(n-1), the keys of size n relative to the basepoint;
    the target is bar_(n-1) / bar_(n-2), the keys of size n-1 relative to
    the basepoint, or bar_1 (keys of size at most 1, reduced) when n=2;
    the block is the degree-k boundary on source columns and target rows.
    Faces never grow keys, so each piece is a subquotient of the checked
    complex bar_n.  Dims, boundaries, basis order and block equal those
    of the levelwise ``connecting_map`` of ``tower(x, n, "bar")`` in the
    degrees it builds: source up to k+1, target up to k.  ``ceiling``
    bounds the cells of bar_n per degree.
    """
    if n < 2:
        raise ValueError("connecting maps need n >= 2")
    if k < 1:
        raise ValueError("connecting maps start in degree >= 1")
    if x.trunc < k + 1:
        raise ValueError(f"connecting map in degree {k} needs truncation "
                         f">= {k + 1}, have {x.trunc}")
    bar = subsetspace.keyed_complex(x, n, "bar", reduced=True, ceiling=ceiling)

    def sized(sizes: range) -> list[list[int]]:
        return [[i for i, key in enumerate(keys) if len(key) in sizes]
                for keys in bar.basis]

    cols = sized(range(n, n + 1))
    rows = sized(range(2) if n == 2 else range(n - 1, n))
    return (_restrict(bar, cols), _restrict(bar, rows, reduced=n == 2),
            _submatrix(bar.boundary[k], rows[k - 1], cols[k]))
