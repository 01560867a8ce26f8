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

from itertools import permutations
from math import factorial
from operator import itemgetter

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
    significant.  Each coboundary is written column by column: column
    u = (u_0, .., u_{r-1}) of delta_r holds the (r+1)-tuples with a face
    equal to u, and their rows are index arithmetic on u.

    - Face 0: rows (a, u_0, .., u_{r-1}) for every a, with the scalar
      of a.
    - Merge face i: rows (.., u_{i-1}, a, b, u_{i+1}, ..) with
      coefficient -(-1)^i, one for each pair a * b = u_i in a preimage
      table built once from the element ids.
    - Last face: rows (u_0, .., u_{r-1}, b) for every b, with
      coefficient (-1)^(r+1).

    Two faces of one tuple coincide only for a constant tuple
    (c, .., c), in face 0 and the last face of the constant column;
    those two terms add, and a sum of 0 leaves no entry.  Every entry
    of a row holds the same int object for the row index.
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
    # (a * b)(i) = a(b(i)): itemgetter(*b) composes on the one-line tuples
    preimages: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    compose = [itemgetter(*q) for q in images]
    for a, p in enumerate(images):
        for b, g in enumerate(map(ids.get, [right(p) for right in compose])):
            if g is not None:
                preimages[g].append((a, b))
    scalars = [action.scalar(g) for g in nontriv]
    dims = [m ** r for r in range(top + 1)]
    rows = list(range(dims[top]))
    boundary: list[SparseIntMatrix] = [SparseIntMatrix(dims[0], 0)]
    for r in range(top):
        # delta_r : C^r -> C^{r+1}, one column per r-tuple u
        mat = SparseIntMatrix(dims[r + 1], dims[r])
        width, height = dims[r], dims[r + 1]
        last = (-1) ** (r + 1)
        values = list(scalars)
        # merge face i: the place values of u_i and of the digit below
        # it, and the row offsets of the pairs merging to each element;
        # g = a * b for the m-1 non-identity a other than g
        merges = []
        for i in range(r):
            below = m ** (r - 1 - i)
            merges.append((m ** (r - i), below,
                           [[(a * m + b) * below for a, b in pairs]
                            for pairs in preimages]))
            values += [-(-1) ** i] * (m - 1)
        values += [last] * m
        columns = [mat.column(u) for u in range(width)]
        for u, column in enumerate(columns):
            keys = rows[u:height:width]
            for above, below, offsets in merges:
                hi, rest = divmod(u, above)
                g, lo = divmod(rest, below)
                base = hi * above * m + lo
                keys += [rows[base + o] for o in offsets[g]]
            keys += rows[u * m:u * m + m]
            column.update(zip(keys, values, strict=True))
        # the constant tuple (c, .., c): face 0 and the last face add,
        # where the dict kept only the last face's term
        col_step = sum(m ** k for k in range(r))
        row_step = col_step + m ** r
        for c in range(m):
            col = columns[c * col_step]
            v = scalars[c] + last
            if v:
                col[c * row_step] = v
            else:
                del col[c * row_step]
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
