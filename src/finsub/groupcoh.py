"""Cohomology of symmetric groups with integral coefficients.

H^r(S_n, M) for M the trivial module Z or the sign module.

:func:`group_cohomology` and ``finsub groupcoh`` read it off the
Fox-Neuwirth cells of UConf_n(R^m)^+ by Poincare duality,
H^r(S_n; M) = H~_(nm-r)(UConf_n(R^m)^+) for r <= m-2 with m even for
the trivial module and odd for the sign module (``finsub.fncells``):
through degree R that takes the cells of codimension <= R+1, 20 for
S_4 through degree 2.

The normalized bar resolution is the reference, and the independent
side of the ``thm2`` and ``groupcoh-xcheck`` claims: degree-r cochains
are Z-valued functions on r-tuples of non-identity group elements, the
coboundary is the usual alternating sum with the module action
twisting the first slot.  Group elements are enumerated in
lexicographic one-line order.  This is deliberately the dumbest
correct resolution; the basis grows like (n!-1)^r.

Both paths take the one cell ceiling of ``finsub.subsetspace``
(``DEFAULT_CELL_CEILING``, the CLI's ``--ceiling``), counted on the
cells each one builds: the Fox-Neuwirth cells of each codimension,
each counted once per separator (n-1 times), or the (n!-1)^r bar
tuples of each degree r.  A job over it raises
``BudgetError`` naming the first codimension or degree over the
ceiling, before any boundary is assembled.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial

from .fncells import duality_dimension, fn_cochains
from .homology import ChainComplex, HomologyGroup, homology
from .snf import SparseIntMatrix
from .subsetspace import DEFAULT_CELL_CEILING, BudgetError

TRIVIAL = "trivial"
SIGN = "sign"


class Permutation:
    """Permutation of {0..n-1} in one-line notation.  A value: equal
    permutations hash alike."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"{images} is not a permutation")
        self.images = images

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation(images={self.images!r})"

    @property
    def n(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (self * other)(i) = self(other(i))."""
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.n)))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images))

    def sign(self) -> int:
        seen = [False] * self.n
        sgn = 1
        for i in range(self.n):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            if length % 2 == 0:
                sgn = -sgn
        return sgn


class CoefficientAction:
    """How S_n acts on the coefficient group Z.  A value: equal actions
    hash alike."""

    __slots__ = ("kind",)

    def __init__(self, kind: str):
        if kind not in (TRIVIAL, SIGN):
            raise ValueError(f"unknown action {kind!r}")
        self.kind = kind

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind

    def __hash__(self) -> int:
        return hash(self.kind)

    def __repr__(self) -> str:
        return f"CoefficientAction(kind={self.kind!r})"

    def scalar(self, g: Permutation) -> int:
        return g.sign() if self.kind == SIGN else 1


def symmetric_group(n: int) -> list[Permutation]:
    """All of S_n, lexicographic in one-line notation."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [Permutation(p) for p in permutations(range(n))]


def bar_cochain_complex(n: int, action: CoefficientAction, maxdeg: int,
                        ceiling: int = DEFAULT_CELL_CEILING) -> ChainComplex:
    """Normalized bar cochain complex of S_n through degree maxdeg.

    Degrees 0..maxdeg+1 are materialized so that cohomology at maxdeg
    has both coboundaries; degree r has (n!-1)^r basis tuples.  The
    first degree over the ceiling is refused before S_n is listed.

    The non-identity elements are numbered 0..m-1 in enumeration order
    and an r-tuple is indexed by its digits in base m, first slot most
    significant, so faces are index arithmetic on an integer
    multiplication table (-1 for the identity).
    """
    if maxdeg < 0:
        raise ValueError("maxdeg must be non-negative")
    if n < 1:
        raise ValueError("need n >= 1")
    m = factorial(n) - 1
    for r in range(1, maxdeg + 2):
        if m ** r > ceiling:
            raise BudgetError(
                f"bar resolution for S_{n} at degree {r} needs {m ** r} "
                f"basis tuples, over the ceiling of {ceiling}")
    nontriv = [g for g in symmetric_group(n) if not g.is_identity()]
    top = maxdeg + 1
    images = [g.images for g in nontriv]
    ids = {p: i for i, p in enumerate(images)}
    # (a * b)(i) = a(b(i)), composed on the one-line tuples
    mult = [[ids.get(tuple(map(a.__getitem__, b)), -1) for b in images]
            for a in images]
    scalars = [action.scalar(g) for g in nontriv]
    dims = [m ** r for r in range(top + 1)]
    boundary: list[SparseIntMatrix] = [SparseIntMatrix(dims[0], 0)]
    for r in range(top):
        # delta_r : C^r -> C^{r+1}, assembled row by row over (r+1)-tuples
        mat = SparseIntMatrix(dims[r + 1], dims[r])
        columns = [mat.column(c) for c in range(dims[r])]
        # merging slots i, i+1 keeps the digits above and below them
        spans = [(m ** (r + 1 - i), m ** (r - 1 - i)) for i in range(r)]
        for row, t in enumerate(product(range(m), repeat=r + 1)):
            entries = {row % dims[r]: scalars[t[0]]}
            sign = -1
            for i, (above, below) in enumerate(spans):
                merged = mult[t[i]][t[i + 1]]
                if merged >= 0:
                    col = ((row // above) * m + merged) * below + row % below
                    entries[col] = entries.get(col, 0) + sign
                sign = -sign
            entries[row // m] = entries.get(row // m, 0) + sign
            for col, v in entries.items():
                if v:
                    columns[col][row] = v
        boundary.append(mat)
    c = ChainComplex(dims, boundary, cochain=True)
    c.assert_valid()
    return c


def duality_cochains(n: int, action: CoefficientAction, maxdeg: int,
                     ceiling: int = DEFAULT_CELL_CEILING) -> ChainComplex:
    """A cochain complex whose H^r is H^r(S_n, M) for r <= maxdeg: the
    Fox-Neuwirth cells of UConf_n(R^m)^+ of codimension <= maxdeg + 1,
    graded by codimension, with the least m >= maxdeg + 2 whose parity
    matches the action (``finsub.fncells``).  A codimension whose cells
    weigh more than ``ceiling``, n-1 separators per cell, raises
    ``BudgetError``."""
    if maxdeg < 0:
        raise ValueError("maxdeg must be non-negative")
    m = duality_dimension(maxdeg, action.kind == SIGN)
    return fn_cochains(n, m, maxdeg + 1, ceiling)


def group_cohomology(n: int, action: CoefficientAction | str, r: int,
                     ceiling: int = DEFAULT_CELL_CEILING) -> HomologyGroup:
    """H^r(S_n, M), read off the Fox-Neuwirth cells by duality
    (:func:`duality_cochains`); :func:`bar_cochain_complex` is the
    reference it is tested against."""
    if isinstance(action, str):
        action = CoefficientAction(action)
    return homology(duality_cochains(n, action, r, ceiling), through=r)[r]
