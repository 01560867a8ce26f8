"""Shared test helpers: random subcomplexes, random based spaces, the
keyed test cases, levelwise references, hand-built spaces, a wall-time
limit, a traced-memory peak, seeded unimodular conjugates of chain
complexes and an image-lattice membership oracle."""

import random
import signal
import tracemalloc
from contextlib import contextmanager
from itertools import combinations_with_replacement
from types import SimpleNamespace

from finsub.homology import ChainComplex, normalized_complex, relative_complex
from finsub.simplicial import (
    BasedSimplicialSet,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    point_model,
    quotient,
    sphere_model,
    torus_model,
    underlying,
)
from finsub.snf import SparseIntMatrix, invariant_factors, rank
from finsub.spectral import FilteredComplex
from finsub.subsetspace import exp_based, tower


def simplex_model(m, trunc):
    """The standard m-simplex, based at vertex 0: level k holds the
    monotone maps {0..k} -> {0..m} as non-decreasing value tuples."""
    tables = [sorted(combinations_with_replacement(range(m + 1), k + 1))
              for k in range(trunc + 1)]
    index = [{t: i for i, t in enumerate(tab)} for tab in tables]
    faces = [None] + [[[index[k - 1][t[:i] + t[i + 1:]] for t in tables[k]]
                       for i in range(k + 1)] for k in range(1, trunc + 1)]
    degeneracies = [[[index[k + 1][t[:j + 1] + t[j:]] for t in tables[k]]
                     for j in range(k + 1)] for k in range(trunc)] + [None]
    space = SimplicialSet(trunc, [len(t) for t in tables], faces, degeneracies)
    return BasedSimplicialSet(space, SimplexRef(0, 0))


def bar_reference(x, n):
    """The bar space of at most n points built the long way: exp(x, n)
    divided by exp_based(x, n) through ``quotient``, with the quotient
    map."""
    _, incl = exp_based(x, n)
    return quotient(incl.target, incl)


def conf_reference(x, n, model):
    """The compactified n-point configuration space built the long way,
    as the quotient of neighbouring tower stages: based stage n+1 by
    based stage n for model "based"; bar stage n by bar stage n-1 for
    model "bar", which is bar_1 itself when n = 1."""
    if model == "based":
        t = tower(x, n + 1, "based")
        return quotient(t.stage(n + 1), t.inclusions[n - 1])[0]
    if n == 1:
        return bar_reference(x, 1)[0]
    t = tower(x, n, "bar")
    return quotient(t.stage(n), t.inclusions[n - 2])[0]


def filtered_from_tower(t):
    """The points-count filtration built the long way, from a levelwise
    tower: a basis element's level is the least stage whose inclusion
    into the top stage hits it; the quotient variants take chains
    relative to the basepoint."""
    top = t.spaces[-1]
    trunc = top.trunc
    if t.variant in ("bar", "based"):
        pt = point_model(trunc)
        bp_map = SimplicialMap(pt, top, [[top.basepoint_at(k)]
                                         for k in range(trunc + 1)])
        complex_ = relative_complex(top, bp_map)
    else:
        complex_ = normalized_complex(top)
    marks = [[t.n] * top.level_size(k) for k in range(trunc + 1)]
    for stage in range(t.n - 1, 0, -1):
        incl = t.inclusion(stage, t.n)
        for k in range(trunc + 1):
            mk = marks[k]
            for s in incl.maps[k]:
                mk[s] = stage
    filt = [[marks[k][cell] for cell in complex_.basis[k]]
            for k in range(len(complex_.dims))]
    return FilteredComplex(complex_.dims, complex_.boundary, filt, t.n)


def random_based_spaces(count, seed=2026):
    """``count`` seeded random subcomplexes of the 3-simplex, each based
    at a random vertex."""
    rng = random.Random(seed)
    out = {}
    for i in range(count):
        sub, _ = make_random_subcomplex(simplex_model(3, 3), rng)
        bp = SimplexRef(0, rng.randrange(sub.levels[0]))
        out[f"random{i}"] = BasedSimplicialSet(sub, bp)
    return out


def keyed_cases():
    """(name, based space, n) for the keyed chain tests: spheres with
    n*d <= 9, at a lower truncation where the level tables would be
    large, tori and seeded random based spaces."""
    for d in (1, 2, 3):
        for n in range(1, 9 // d + 1):
            trunc = n * d + 1 if n * d <= 6 else 6 - d
            yield f"S^{d}", sphere_model(d, trunc), n
    for n in (1, 2):
        yield "T^2", torus_model(2 * n + 1), n
    for name, x in random_based_spaces(2).items():
        for n in (1, 2, 3):
            yield name, x, n


def make_random_subcomplex(space, rng, p=0.3):
    """Random subcomplex: seed simplices, close under faces and
    degeneracies, return (subspace, inclusion map)."""
    xs = underlying(space)
    chosen = [set() for _ in range(xs.trunc + 1)]
    chosen[0].add(0)
    for k in range(xs.trunc + 1):
        for s in range(xs.levels[k]):
            if rng.random() < p:
                chosen[k].add(s)
    changed = True
    while changed:
        changed = False
        for k in range(1, xs.trunc + 1):
            for s in list(chosen[k]):
                for i in range(k + 1):
                    t = xs.face(k, i, s)
                    if t not in chosen[k - 1]:
                        chosen[k - 1].add(t)
                        changed = True
        for k in range(xs.trunc):
            for s in list(chosen[k]):
                for j in range(k + 1):
                    t = xs.degeneracy(k, j, s)
                    if t not in chosen[k + 1]:
                        chosen[k + 1].add(t)
                        changed = True
    tables = [sorted(chosen[k]) for k in range(xs.trunc + 1)]
    index = [{s: i for i, s in enumerate(tab)} for tab in tables]
    levels = [len(t) for t in tables]
    faces = [None] * (xs.trunc + 1)
    degeneracies = [None] * (xs.trunc + 1)
    for k in range(1, xs.trunc + 1):
        faces[k] = [[index[k - 1][xs.face(k, i, s)] for s in tables[k]]
                    for i in range(k + 1)]
    for k in range(xs.trunc):
        degeneracies[k] = [[index[k + 1][xs.degeneracy(k, j, s)] for s in tables[k]]
                           for j in range(k + 1)]
    sub = SimplicialSet(xs.trunc, levels, faces, degeneracies)
    return sub, SimplicialMap(sub, space, tables)


@contextmanager
def time_limit(seconds):
    """Raise ``TimeoutError`` inside the block once ``seconds`` of wall
    time have passed, so a computation that stalls fails instead of
    hanging the run.  Uses ``SIGALRM``: main thread, POSIX only."""
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def peak_traced():
    """Trace the Python allocations made inside the block.  The yielded
    record's ``mb`` is None until the block exits, then the peak of
    those allocations above what was allocated at its start, in MB
    (``tracemalloc``: memory held by the C library or the interpreter
    itself is not counted)."""
    record = SimpleNamespace(mb=None)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    try:
        yield record
    finally:
        record.mb = (tracemalloc.get_traced_memory()[1] - start) / 2 ** 20
        if not tracing:
            tracemalloc.stop()


def conjugated(c, seed, steps):
    """``c`` under a seeded random unimodular basis change A_k in every
    degree: each differential d becomes A^-1 . d . A.

    A_k is a product of ``steps`` elementary operations; each one adds q
    times basis vector i to basis vector j, which adds q times column i
    to column j of the differential leaving degree k and subtracts q
    times row j from row i of the one arriving there.
    """
    rng = random.Random(seed)
    mats = [m.to_dense() for m in c.boundary]
    top = c.top_degree
    for k, dim in enumerate(c.dims):
        if dim < 2:
            continue
        out_k, in_k = (k + 1, k) if c.cochain else (k, k + 1)
        out = mats[out_k] if out_k <= top else []
        inc = mats[in_k] if in_k <= top else [[] for _ in range(dim)]
        for _ in range(steps * dim):
            i, j = rng.sample(range(dim), 2)
            q = rng.choice([-2, -1, 1, 2, 3])
            for row in out:
                row[j] += q * row[i]
            inc[i] = [a - q * b for a, b in zip(inc[i], inc[j])]
    boundary = [SparseIntMatrix.from_triplets(
        m.rows, m.cols, [(r, col, v) for r, row in enumerate(dense)
                         for col, v in enumerate(row) if v])
        for m, dense in zip(c.boundary, mats)]
    out = ChainComplex(c.dims, boundary, reduced=c.reduced, cochain=c.cochain)
    out.assert_valid()
    return out


def in_image_lattice(b, v):
    """Independent membership oracle: v is in the column lattice of b iff
    appending it changes neither the rank nor the invariant factors."""
    stacked = SparseIntMatrix(b.rows, b.cols + 1)
    for r, c, val in b.entries():
        stacked.set(r, c, val)
    for r, val in v.items():
        stacked.set(r, b.cols, val)
    return rank(stacked) == rank(b) and \
        invariant_factors(stacked) == invariant_factors(b)
