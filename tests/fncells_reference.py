"""Earlier forms of ``finsub.fncells`` code, kept as references for
differential tests.  Nothing under ``src/`` imports this module.

``cells`` enumerates the separator sequences of one codimension by
recursion, one level per separator, as before the enumeration became
an iterative successor.  ``cell_boundary`` reads each face term's sign
off the cell's whole parameter list, counting inversions over all of
it, as before the sign was taken over the merged points' parameters
alone.  ``test_fncells.py`` compares against both.
"""

from __future__ import annotations

from itertools import combinations

from finsub.fncells import _sub_blocks


def cells(n: int, m: int, codim: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], left: int, slots: int) -> None:
        if slots == 0:
            if left == 0:
                out.append(tuple(prefix))
            return
        for extra in range(min(left, m - 1) + 1):
            prefix.append(extra + 1)
            extend(prefix, left - extra, slots - 1)
            prefix.pop()

    if codim >= 0:
        extend([], codim, n - 1)
    return out


def _parameters(s: tuple[int, ...], m: int) -> list[tuple[int, int]]:
    params = [(0, c) for c in range(1, m + 1)]
    for j, i in enumerate(s):
        params.extend((j + 1, c) for c in range(i, m + 1))
    return params


def _inversions(keys: list[tuple[int, int]]) -> int:
    return sum(1 for a in range(len(keys)) for b in range(a + 1, len(keys))
               if keys[a] > keys[b])


def cell_boundary(s: tuple[int, ...], m: int) -> dict[tuple[int, ...], int]:
    n = len(s) + 1
    params = _parameters(s, m)
    out: dict[tuple[int, ...], int] = {}
    for j, i in enumerate(s):
        if i == m:
            continue
        a = j
        while a > 0 and s[a - 1] > i:
            a -= 1
        b = j + 1
        while b < n - 1 and s[b] > i:
            b += 1
        left = _sub_blocks(s, a, j, i + 1)
        right = _sub_blocks(s, j + 1, b, i + 1)
        p = params.index((a, i)) + 1
        rest = [t for t in params if t != (a, i)]
        count = len(left) + len(right)
        for slots in combinations(range(count), len(left)):
            picked = set(slots)
            lefts, rights = iter(left), iter(right)
            order = [next(lefts) if k in picked else next(rights)
                     for k in range(count)]
            moved = {}
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
            keys = [(x, c) if not a <= x <= b
                    else (moved[x], c) if c > i else (a, c)
                    for x, c in rest]
            sign = -1 if (p + 1 + _inversions(keys)) % 2 else 1
            v = out.get(face, 0) + sign
            if v:
                out[face] = v
            else:
                del out[face]
    return out
