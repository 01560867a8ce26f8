"""Reach record: build and time the homology of one subset space of a sphere.

    python scripts/reach.py D N [--variant exp] [--pages] [--bases]

builds ``keyed_complex(sphere_model(D, N*D+1), N, variant)``, runs
``homology`` on it and prints one JSON line: the cell count, the degree
holding the most cells, the build and homology wall times, the peak
resident set size of the process and the non-trivial groups of the
trusted degrees (all but the truncation degree N*D+1).  With
``--pages`` the record also holds ``pages_s``: for each of the
variants exp, based and bar, the wall time of ``filtered_complex`` and
of every spectral-sequence page through E^infinity.  With ``--bases``
it runs ``homology_basis`` in each degree of the record's groups,
checks that its group is the one ``homology`` reported, and adds
``basis_s``: the wall time of each, by degree.  Run it from a checkout;
it puts the checkout's ``src`` on the import path itself.

``reach_groups.json``, next to the script, pins the groups of measured
runs under the key ``"D N variant"``: keyed runs of this script, and
past the keyed reach (S^3 n=5, S^2 n=7 and 8, S^4 n=4) the groups that
``finsub homology`` reads off the Fox-Neuwirth cells.  When it holds the
run's key and the groups differ, the script prints the record, names
each differing degree on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from finsub.homology import homology, homology_basis  # noqa: E402
from finsub.simplicial import sphere_model  # noqa: E402
from finsub.spectral import filtered_complex, limit_page  # noqa: E402
from finsub.subsetspace import keyed_complex  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("d", type=int, help="sphere dimension")
    parser.add_argument("n", type=int, help="maximum number of points")
    parser.add_argument("--variant", default="exp",
                        help="subset-space variant of keyed_complex")
    parser.add_argument("--pages", action="store_true",
                        help="also time the filtration and its pages")
    parser.add_argument("--bases", action="store_true",
                        help="also time a generator basis of each group")
    args = parser.parse_args()
    t0 = time.perf_counter()
    base = sphere_model(args.d, args.n * args.d + 1)
    c = keyed_complex(base, args.n, args.variant)
    t1 = time.perf_counter()
    groups = homology(c, through=c.top_degree - 1)
    t2 = time.perf_counter()
    pages_s = {}
    for variant in ("exp", "based", "bar") if args.pages else ():
        start = time.perf_counter()
        limit_page(filtered_complex(base, args.n, variant))
        pages_s[variant] = round(time.perf_counter() - start, 2)
    basis_s = {}
    for k, g in enumerate(groups) if args.bases else ():
        if g.trivial:
            continue
        start = time.perf_counter()
        basis = homology_basis(c, k)
        basis_s[str(k)] = round(time.perf_counter() - start, 2)
        if basis.group != g:
            raise RuntimeError(f"degree {k}: homology_basis gives {basis.group}, "
                               f"homology gives {g}")
    largest = max(range(len(c.dims)), key=lambda k: c.dims[k])
    record = {
        "d": args.d, "n": args.n, "variant": args.variant,
        "cells": sum(c.dims),
        "largest_degree": largest, "largest_degree_cells": c.dims[largest],
        "build_s": round(t1 - t0, 2), "homology_s": round(t2 - t1, 2),
        "peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "groups": {str(k): str(g) for k, g in enumerate(groups) if not g.trivial},
    }
    if args.pages:
        record["pages_s"] = pages_s
    if args.bases:
        record["basis_s"] = basis_s
    print(json.dumps(record))
    pinned_file = Path(__file__).resolve().with_name("reach_groups.json")
    if pinned_file.exists():
        pinned = json.loads(pinned_file.read_text()).get(
            f"{args.d} {args.n} {args.variant}")
        got = record["groups"]
        if pinned is not None and pinned != got:
            for k in sorted(set(pinned) | set(got), key=int):
                if pinned.get(k) != got.get(k):
                    print(f"degree {k}: {got.get(k, '0')}, pinned "
                          f"{pinned.get(k, '0')}", file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main()
