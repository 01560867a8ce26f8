"""Fox-Neuwirth cells of compactified unordered configuration spaces.

The reduced cellular chains of UConf_n(R^m)^+, the one-point
compactification of the space of n-point subsets of R^m (Fox-Neuwirth
1962; Giusti-Sinha, "Fox-Neuwirth cell structures and the cohomology of
symmetric groups", 2012).  S^m = R^m u {inf}, so this is the
compactified configuration space of S^m minus a point that the keyed
``conf-bar`` chains of ``finsub.subsetspace`` model with simplicial
cells: 2 650 of them for S^3 n=3 and 16 825 for S^2 n=5, where this
model has m^(n-1) cells, 9 and 16.

Cells.  Sort the points of a configuration lexicographically,
x_1 < ... < x_n.  Neighbours x_j, x_(j+1) first differ in some
coordinate s_j in 1..m; the separator sequence s = (s_1, ..., s_(n-1))
names the stratum, and every sequence in {1..m}^(n-1) occurs once.
Points whose separators between them all exceed i agree in coordinates
1..i; call a maximal run of them a level-(i+1) block.  The whole
configuration is the one level-1 block, a level-(m+1) block is one
point, and the level-(i+1) blocks inside one level-i block are
ordered by their common coordinate i, which strictly increases from
block to block.  These coordinate values are the free parameters of
the stratum: one per block at levels 2..m+1, each ranging over an open
interval given by its neighbours, so the stratum is an open cell of
dimension

    nm - sum_j (s_j - 1).

Its codimension sum_j (s_j - 1) is what a cochain complex of these
cells is graded by below.  The point at infinity is the basepoint, and
a parameter that runs off to +-inf leaves the cell through it.

Orientation.  List the parameters depth-first over the blocks: point 1
gives coordinates 1..m, and point j+1 gives coordinates s_j..m (it
starts one new block at each of those levels), so the order is the
lexicographic order of (first point of the block, coordinate).  Orient
the cell by dt_1 ^ ... ^ dt_D in that order.

Faces.  A codimension-one face is where one of the defining strict
inequalities becomes an equality.  The only ones are neighbouring
blocks B < B' of level i+1 inside one level-i block, the blocks on
either side of a separator s_j = i, coming to agree in coordinate i:
    * i = m: B and B' are single points, which collide.  That leaves
      the configuration space, so it lies at infinity and gives no face
      in reduced chains.
    * i < m: B and B' merge into one level-(i+1) block.  Its level-(i+2)
      sub-blocks are those of B and those of B', each keeping its
      internal order, and at a generic point of the face their
      coordinates i+1 are distinct, so they come in one of the
      shuffles of the two lists.  Each shuffle is a face term; two
      shuffles can give the same separator sequence (sub-blocks of the
      same shape exchanged), and then their terms add.
    Counting codimension confirms the drop of one dimension: when B and
    B' have k and l sub-blocks, the separator i and the k-1 and l-1
    separators i+1 between them become k+l-1 separators i+1.

Sign.  Let t_p < t_q be the coordinates i of B and B', at positions
p < q of the cell's parameter list.  Near the face put u = t_q - t_p
and let v be the common value.  Substituting t_p = v, t_q = v + u
turns dt_p ^ dt_q into dv ^ du, so the cell's orientation is the list
with v at position p and u at position q; with t_p = v - u, t_q = v
it is (dv - du) ^ dv = dv ^ du as well.  Read the same orientation as
the list with t_p removed and v at position q: moving v from p to q-1
is a cycle of length q-p, and moving u from q to the front costs
(-1)^(q-1); together the cell is (-1)^p du ^ (remaining list).  The
cell is u > 0, so its outward normal is -du, and the boundary
orientation w with cell = (-du) ^ w is

    w = (-1)^(p+1) (remaining list).

The face cell has its own depth-first order: the merged block's value
v first, then its sub-blocks in their shuffled order, each with its
subtree.  With pi the permutation taking the remaining list to that
order, the incidence of the term is (-1)^(p+1) sgn pi.

Duality.  F(R^m, n) is (m-2)-connected and S_n acts freely on it, so
UConf_n(R^m) -> BS_n is (m-1)-connected; UConf_n(R^m) is an nm-manifold
whose orientation character is sign^m, and Poincare duality gives

    H~_(nm-r)(UConf_n(R^m)^+) = H^r(S_n; M),  r <= m-2,

with M trivial for m even and sign for m odd.  So H^r(S_n; M) for
r <= R needs only the cells of codimension <= R+1, built with the
least m >= R+2 of the right parity: 20 cells for S_4 through degree 2,
15 for S_5 through degree 1.  ``finsub.groupcoh`` reads group
cohomology this way; its bar resolution is the reference.

Budget.  A cell counts once per separator, n-1 times (once for
n = 1): its size, and the boundary work per cell, grow with n, so a
plain count would admit n = 1000 through codimension 2 with 499 500
cells of 999 separators each, about 4 GB.  Counted by separators, the
cells of one codimension took 8 to 25 bytes per separator counted
(tracemalloc, n = 4 to 1000), and the faces of a cell are assembled
from its separators and the parameters of the points they merge
(:func:`cell_boundary`).  :func:`fn_cochains` counts the cells of all
the codimensions it builds against one ``ceiling``, while they are
enumerated, and raises ``BudgetError`` in the first codimension that
takes the running count over it; so a window of many codimensions is
bounded by its whole size, not by its largest codimension.

The bar space and exp_n(S^m).  S^m = R^m u {inf}, and the subsets of at
most n points of R^m are the union of the configuration spaces of
k = 1..n points, so the cells above, for every k, are the cells of
bar_n = exp_(<=n)(R^m)^+, the basepoint again at infinity
(:func:`bar_chains`).  Grade them by dimension km - sum_j (s_j - 1).
A separator s_j = m, which lies at infinity in UConf_k(R^m)^+, is now
a face: points j and j+1 agree in coordinates 1..m-1 and collide in
coordinate m, leaving a (k-1)-point cell, s with s_j removed.

Collision sign.  Point j+1 has the one parameter t_q, its coordinate
m, at position q = (m+1)(j+1) - sum(s_0..s_j) + m of the cell's list,
and point j's coordinate m is t_(q-1).  Put u = t_q - t_(q-1): then
dt_(q-1) ^ dt_q = dt_(q-1) ^ du, and moving du to the front costs
(-1)^(q-1), so the cell is (-1)^(q-1) du ^ (the list without t_q).
That list is already the face's depth-first order: the merged point
keeps point j's parameters, and every later point keeps its own.  The
outward normal of u > 0 is -du, so the incidence is (-1)^q.  (Three
points in a line, s_j = s_(j+1) = m, collide in two ways into the same
face, at positions q and q+1, and the two terms cancel.)

The space of at most n points of S^m adds the subsets that hold inf
(:func:`exp_chains`).  Give each cell of k = 1..n-1 points a "marked"
copy, the same points together with inf: it has the dimension,
parameters and orientation of its points, and the 0-cell {inf} is the
marked copy of no points.  Merges and collisions of a marked cell's
points give marked faces with the same incidences.  A point can also
escape to inf, which gives a marked face from an unmarked or a marked
cell.  That is a face of codimension one only when the point has one
parameter of its own, its coordinate m, and it is then the first or
the last point of a level-m block a..b (s_a = ... = s_(b-1) = m) of at
least two points, sent to -inf or +inf in coordinate m; any other
point that leaves takes two or more parameters with it, or a whole
block with it.

Escape sign.  Let t_q be the escaping coordinate.  The remaining list,
t_q left out, is again the face's order: when point a leaves, point
a+1 takes over the block's shared parameters and gives its coordinate
m in place of t_q.  The cell is (-1)^(q-1) dt_q ^ (rest).  At -inf put
u = -1/t_q, so dt_q = du/u^2, a positive multiple of du, and the
outward normal of u > 0 is -du: the incidence is (-1)^q, with q the
position of (a, m).  At +inf put u = 1/t_q, so dt_q is a positive
multiple of -du, and the incidence is (-1)^(q-1), with q the position
of (b, m).  A lone point of S^1 (m = 1, k = 1) escapes both ways into
{inf} with opposite signs, so blocks of one point are left out: they
give no term.  Nothing raises the number of points, inf counted, so
exp_(n-1)(S^m) is a subcomplex, and so are the marked cells, which are
the subsets of at most n points that hold inf (``based=True``).
There are 1 + sum_(k<=n) m^(k-1) + sum_(k<n) m^(k-1) cells: 23 for S^2
n=4, against 1 039 keyed cells; bar_4 has 15, against 970.

These chains are built in every degree 0..nm, by dimension, and each
degree is counted against ``ceiling`` as its cells are enumerated, a
cell of k points at max(k-1, 1) and {inf} at 1; the first degree over
it raises ``BudgetError``.  d.d = 0 is checked on every column.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import combinations
from typing import Optional

from .homology import ChainComplex, HomologyGroup, homology
from .snf import SparseIntMatrix
from .subsetspace import BudgetError


def cells(n: int, m: int, codim: int, ceiling: int, spent: int = 0
          ) -> list[tuple[int, ...]]:
    """Separator sequences in {1..m}^(n-1) of codimension
    sum_j (s_j - 1) = codim, in lexicographic order, one successor at a
    time.  A cell weighs its n-1 separators, and at least 1, against
    ``ceiling``, after the weight ``spent`` on cells counted before
    them: ``BudgetError`` as soon as the two weigh more."""
    slots, weight = n - 1, max(n - 1, 1)
    out: list[tuple[int, ...]] = []
    if not 0 <= codim <= slots * (m - 1):
        return out
    extra = _packed(codim, slots, m)  # s_j - 1, the least sequence
    while True:
        out.append(tuple(e + 1 for e in extra))
        if spent + len(out) * weight > ceiling:
            total = (f", and {spent + len(out) * weight} with the cells "
                     f"counted before them" if spent else "")
            raise BudgetError(
                f"Fox-Neuwirth chains pass {len(out)} cells in codimension "
                f"{codim}; at {weight} per cell, one per separator, that is "
                f"{len(out) * weight}{total}, over the ceiling of {ceiling}")
        # the successor: raise the last slot that can take one more from
        # the slots after it, and pack what those keep to the right
        tail = 0
        for j in range(slots - 1, -1, -1):
            if tail and extra[j] < m - 1:
                extra[j:] = [extra[j] + 1] + _packed(tail - 1, slots - 1 - j, m)
                break
            tail += extra[j]
        else:
            return out


def _packed(total: int, slots: int, m: int) -> list[int]:
    """The lexicographically least list of ``slots`` entries in 0..m-1
    summing to ``total``: full entries at the right end."""
    full, part = divmod(total, m - 1) if m > 1 else (0, 0)
    head = [0] * (slots - full)
    if part:
        head[-1] = part
    return head + [m - 1] * full


def _sub_blocks(s: tuple[int, ...], first: int, last: int, level: int
                ) -> list[tuple[int, int]]:
    """The (first, last) point ranges into which the separators equal to
    ``level`` cut the points first..last."""
    out = []
    start = first
    for j in range(first, last):
        if s[j] == level:
            out.append((start, j))
            start = j + 1
    out.append((start, last))
    return out


def _odd(keys: list[tuple[int, int]]) -> int:
    """The parity of the inversion count of distinct ``keys``."""
    later: list[tuple[int, int]] = []  # sorted
    odd = 0
    for key in reversed(keys):
        below = bisect_left(later, key)  # later keys smaller than this one
        odd ^= below & 1
        later.insert(below, key)
    return odd


def cell_boundary(s: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
    """The cellular boundary of one cell: face -> incidence, zeros
    dropped (the rule and its signs are in the module docstring).

    A face merges the points a..b and moves only their parameters,
    which sit together in the depth-first order between the unmoved
    ones, so its sign needs only those: the work per face term is the
    n-1 separators of the face plus the merged points' parameters."""
    n = len(s) + 1
    out: dict[tuple[int, ...], int] = {}
    for j, i in enumerate(s):
        if i == m:  # a collision lies at infinity
            continue
        a = j  # B is points a..j, B' is points j+1..b
        while a > 0 and s[a - 1] > i:
            a -= 1
        b = j + 1
        while b < n - 1 and s[b] > i:
            b += 1
        left = _sub_blocks(s, a, j, i + 1)
        right = _sub_blocks(s, j + 1, b, i + 1)
        p = _position(s, m, a, i)  # of B's coordinate i
        rest = [(x, c) for x in range(a, b + 1)
                for c in range(s[x - 1] if x else 1, m + 1) if (x, c) != (a, i)]
        count = len(left) + len(right)
        for slots in combinations(range(count), len(left)):
            picked = set(slots)
            lefts, rights = iter(left), iter(right)
            order = [next(lefts) if k in picked else next(rights)
                     for k in range(count)]
            moved = {}  # point of the cell -> point of the face
            seps: list[int] = []
            at = a
            for k, (first, last) in enumerate(order):
                if k:
                    seps.append(i + 1)
                seps.extend(s[first:last])
                for x in range(first, last + 1):
                    moved[x] = at + x - first
                at += last - first + 1
            face = s[:a] + tuple(seps) + s[b:]
            # parameters below the merge follow their points; the
            # merged block and its ancestors start at point a
            keys = [(moved[x], c) if c > i else (a, c) for x, c in rest]
            _add(out, face, -1 if (p + 1 + _odd(keys)) % 2 else 1)
    return out


def _position(s: tuple[int, ...], m: int, x: int, c: int) -> int:
    """The position, counted from 1, of point x's coordinate c in the
    depth-first parameter list: point 0 has m parameters, and point
    x > 0 those from s_(x-1) to m."""
    return (m + 1) * x - sum(s[:x]) + c


def _add(out: dict, face: tuple[int, ...], v: int) -> None:
    v += out.get(face, 0)
    if v:
        out[face] = v
    else:
        del out[face]


def collision_faces(s: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
    """The faces of one cell of k points where two points collide: one
    per separator s_j = m, the cell with s_j removed, at incidence
    (-1)^q (derived in the module docstring), zeros dropped."""
    out: dict[tuple[int, ...], int] = {}
    for j, i in enumerate(s):
        if i == m:
            q = _position(s, m, j + 1, m)
            _add(out, s[:j] + s[j + 1:], -1 if q % 2 else 1)
    return out


def escape_faces(s: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
    """The faces of one cell where a point escapes to infinity: the first
    point a of each level-m block a..b of two or more points, at
    incidence (-1)^q, and the last point b, at (-1)^(q-1), q being the
    position of the escaping coordinate m (module docstring).  A face
    drops the escaping point's separator; it is a marked cell, and
    zeros are dropped."""
    out: dict[tuple[int, ...], int] = {}
    j = 0
    while j < len(s):
        if s[j] < m:
            j += 1
            continue
        a = j
        while j < len(s) and s[j] == m:
            j += 1
        q = _position(s, m, a, m)  # point a leaves for -inf
        _add(out, s[:a] + s[a + 1:], -1 if q % 2 else 1)
        q = _position(s, m, j, m)  # point b = j leaves for +inf
        _add(out, s[:j - 1] + s[j:], 1 if q % 2 else -1)
    return out


def fn_cochains(n: int, m: int, top_codim: int, ceiling: int
                ) -> ChainComplex:
    """The reduced cellular chains of UConf_n(R^m)^+ as a cochain
    complex graded by codimension, so that H^c of it is
    H~_(nm-c)(UConf_n(R^m)^+).

    Only codimensions 0..``top_codim`` are built; H^c is exact for
    c < top_codim, and for c = top_codim too when no cell has a higher
    codimension, (n-1)(m-1) being the last one with cells.
    ``basis[c]`` lists the separator sequences of codimension c in
    lexicographic order, and d.d = 0 is checked on every column.  The
    cells of codimensions 0..``top_codim`` together weigh at most
    ``ceiling`` (see :func:`cells`); the codimension that takes them
    over it is refused before any boundary is assembled.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if top_codim < 0:
        raise ValueError("top_codim must be >= 0")
    basis: list[list[tuple[int, ...]]] = []
    spent = 0
    for c in range(top_codim + 1):
        basis.append(cells(n, m, c, ceiling, spent))
        spent += len(basis[-1]) * max(n - 1, 1)
    dims = [len(b) for b in basis]
    boundary = [SparseIntMatrix(dims[0], 0)]
    for c in range(1, top_codim + 1):
        index = {s: r for r, s in enumerate(basis[c])}
        mat = SparseIntMatrix(dims[c], dims[c - 1])
        for col, s in enumerate(basis[c - 1]):
            column = mat.column(col)
            for face, v in cell_boundary(s, m).items():
                column[index[face]] = v
        boundary.append(mat)
    complex_ = ChainComplex(dims, boundary, cochain=True, basis=basis)
    complex_.assert_valid()
    return complex_


# the 0-cell {inf}: the marked copy of no points
INFINITY = (None, True)


def points(cell) -> int:
    """The points-count filtration level of a basis entry (s, marked)
    of :func:`bar_chains` or :func:`exp_chains`: its points, inf
    counted, len(s) + 1 + marked, and 1 for :data:`INFINITY`.  No face
    raises it, so the entries of level <= k span bar_k and
    exp_k(S^m)."""
    return 1 if cell == INFINITY else len(cell[0]) + 1 + cell[1]


def sphere_homology(n: int, m: int, construction: str, ceiling: int,
                    coeffs: str = "Z", upto: Optional[int] = None
                    ) -> list[HomologyGroup]:
    """The groups of a construction on S^m in degrees 0..``upto``
    (default nm), with ``coeffs`` "Z" or "Q" (ranks only): "expn" and
    "based" from :func:`exp_chains`, "bar" (reduced) from
    :func:`bar_chains` and "conf", H~_k(UConf_n(R^m)^+), as H^(nm-k) of
    all m^(n-1) cells of :func:`fn_cochains`.  All the cells are built,
    so every degree is exact, and degrees above nm are 0."""
    top = n * m
    upto = top if upto is None else upto
    if construction == "conf":
        full = (n - 1) * (m - 1)  # the last codimension with cells
        coh = homology(fn_cochains(n, m, full, ceiling), coeffs, through=full)
        groups = [coh[top - k] if top - k <= full else HomologyGroup(0)
                  for k in range(min(upto, top) + 1)]
    else:
        complex_ = (bar_chains(n, m, ceiling) if construction == "bar" else
                    exp_chains(n, m, ceiling, based=construction == "based"))
        groups = homology(complex_, coeffs, through=min(upto, top))
    return groups + [HomologyGroup(0)] * (upto - top)


def bar_chains(n: int, m: int, ceiling: int) -> ChainComplex:
    """The reduced cellular chains of bar_n = exp_(<=n)(R^m)^+, graded
    by dimension, degrees 0..nm: the cells of k = 1..n points, with
    their merge and collision faces.  ``basis[D]`` lists the cells of
    dimension D as pairs (s, False), s a separator sequence of
    len(s) + 1 points.  Each degree's cells weigh at most ``ceiling``
    (module docstring)."""
    return _chains(n, m, (False,), ceiling, f"bar_{n}(S^{m})")


def exp_chains(n: int, m: int, ceiling: int, based: bool = False
               ) -> ChainComplex:
    """The cellular chains of exp_n(S^m), the space of at most n points
    of S^m, graded by dimension, degrees 0..nm: the cells of k = 1..n
    points, the marked cells of k = 0..n-1 points, which hold inf too,
    and their merge, collision and escape faces.  ``based`` keeps the
    marked cells alone, the subcomplex of the subsets holding inf.
    ``basis[D]`` lists pairs (s, marked), and :data:`INFINITY` for
    {inf}.  Each degree's cells weigh at most ``ceiling`` (module
    docstring)."""
    if based:
        return _chains(n, m, (True,), ceiling, f"based_{n}(S^{m})")
    return _chains(n, m, (False, True), ceiling, f"exp_{n}(S^{m})")


def _chains(n: int, m: int, kinds: tuple[bool, ...], ceiling: int,
            name: str) -> ChainComplex:
    """The chains on the unmarked cells (False in ``kinds``) of 1..n
    points and the marked cells (True) of 0..n-1 points, degree by
    degree; escapes are faces only where marked cells are."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    escapes = True in kinds
    top = n * m
    basis: list[list] = []
    for dim in range(top + 1):
        found: list = [INFINITY] if escapes and dim == 0 else []
        spent = len(found)
        if spent > ceiling:
            raise BudgetError(f"{name}, degree 0: the 0-cell {{inf}} weighs "
                              f"1, over the ceiling of {ceiling}")
        for marked in kinds:
            for k in range(1, n + 1 - marked):
                try:
                    group = cells(k, m, k * m - dim, ceiling, spent)
                except BudgetError as exc:
                    raise BudgetError(
                        f"{name}, degree {dim}, {'marked ' if marked else ''}"
                        f"cells of {k} points: {exc}") from None
                spent += len(group) * max(k - 1, 1)
                found.extend((s, marked) for s in group)
        basis.append(found)
    dims = [len(b) for b in basis]
    boundary = [SparseIntMatrix(0, dims[0])]
    for dim in range(1, top + 1):
        index = {cell: r for r, cell in enumerate(basis[dim - 1])}
        mat = SparseIntMatrix(dims[dim - 1], dims[dim])
        faces: dict = {}  # a marked copy has its points' merges and collisions
        for col, (s, marked) in enumerate(basis[dim]):
            column = mat.column(col)
            if s is None:
                continue
            if s not in faces:
                faces[s] = cell_boundary(s, m)
                faces[s].update(collision_faces(s, m))
            for face, v in faces[s].items():
                column[index[face, marked]] = v
            for face, v in (escape_faces(s, m).items() if escapes else ()):
                mat.add(index[face, True], col, v)  # may meet a collision
        boundary.append(mat)
    complex_ = ChainComplex(dims, boundary, basis=basis)
    complex_.assert_valid()
    return complex_


def duality_dimension(maxdeg: int, sign: bool) -> int:
    """The least m >= maxdeg + 2 whose parity makes the orientation
    character sign^m the coefficient module: odd for the sign module,
    even for the trivial one."""
    m = maxdeg + 2
    return m if m % 2 == sign else m + 1
