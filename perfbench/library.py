"""The ``library`` workload: finsub's public API in one Python process.

It runs generator bases on the S_4 bar cochain complexes (the same
matrices as the ``groupcoh`` workload, through the tracked elimination),
generator bases in every degree of the normalized complex of exp(S^2, 3),
the connecting map of the S^2 n=3 bar tower, and long-exact-sequence
checks of random subcomplexes of exp(S^1, 3) drawn from the seed.

The written JSON has a seed-independent part, compared by digest with
the reference (it includes the number of LES checks), and the LES
verdicts, which must all be exact.
"""

from __future__ import annotations

import json
import random

import finsub
from finsub.simplicial import SimplicialMap, SimplicialSet

LES_PAIRS = 50  # random subcomplexes checked per run


def random_subcomplex(space, rng: random.Random, p: float = 0.3) -> SimplicialMap:
    """Inclusion of a random subcomplex: random simplices plus the
    basepoint's vertex, closed under faces and degeneracies."""
    xs = space.space
    chosen = [set() for _ in range(xs.trunc + 1)]
    chosen[0].add(0)
    for k in range(xs.trunc + 1):
        chosen[k].update(s for s in range(xs.levels[k]) if rng.random() < p)
    changed = True
    while changed:
        changed = False
        for k in range(1, xs.trunc + 1):
            for s in list(chosen[k]):
                for i in range(k + 1):
                    t = xs.faces[k][i][s]
                    if t not in chosen[k - 1]:
                        chosen[k - 1].add(t)
                        changed = True
        for k in range(xs.trunc):
            for s in list(chosen[k]):
                for j in range(k + 1):
                    t = xs.degeneracies[k][j][s]
                    if t not in chosen[k + 1]:
                        chosen[k + 1].add(t)
                        changed = True
    tables = [sorted(c) for c in chosen]
    index = [{s: i for i, s in enumerate(tab)} for tab in tables]
    faces = [None] + [[[index[k - 1][xs.faces[k][i][s]] for s in tables[k]]
                       for i in range(k + 1)] for k in range(1, xs.trunc + 1)]
    degeneracies = [[[index[k + 1][xs.degeneracies[k][j][s]] for s in tables[k]]
                     for j in range(k + 1)] for k in range(xs.trunc)] + [None]
    sub = SimplicialSet(xs.trunc, [len(t) for t in tables], faces, degeneracies)
    return SimplicialMap(sub, space, tables)


def _basis_summary(basis) -> dict:
    return {"degree": basis.degree, "group": str(basis.group),
            "free_gens": len(basis.free_gens),
            "torsion_gens": len(basis.torsion_gens)}


def run(seed: int) -> dict:
    bar = {}
    for action in ("trivial", "sign"):
        c = finsub.bar_cochain_complex(4, finsub.CoefficientAction(action), 2)
        bar[action] = [_basis_summary(finsub.homology_basis(c, k)) for k in (1, 2)]
    c = finsub.normalized_complex(finsub.exp(finsub.sphere_model(2, 7), 3))
    exp_bases = [_basis_summary(finsub.homology_basis(c, k))
                 for k in range(len(c.dims))]
    tw = finsub.tower(finsub.sphere_model(2, 6), 3, "bar")
    desc = finsub.connecting_map(tw.stage(3), tw.inclusions[1], 5,
                                 rel=tw.inclusions[0])
    connecting = {"free_matrix": desc.free_matrix,
                  "torsion_images": desc.torsion_images,
                  "kernel_rank": desc.kernel_rank,
                  "cokernel_rank": desc.cokernel_rank,
                  "free_index": desc.free_index()}
    space = finsub.exp(finsub.sphere_model(1, 4), 3)
    rng = random.Random(seed)
    exact = [finsub.les_check(space, random_subcomplex(space, rng),
                              with_torsion=False).ok
             for _ in range(LES_PAIRS)]
    return {"bar_s4": bar, "exp_s2_n3": exp_bases, "connecting_s2_n3": connecting,
            "les_checks": len(exact), "les": {"seed": seed, "exact": exact}}


def main(argv: list[str]) -> None:
    def arg(flag: str) -> str:
        return argv[argv.index(flag) + 1]

    with open(arg("--out"), "w", encoding="utf-8") as fh:
        json.dump(run(int(arg("--seed"))), fh, sort_keys=True, indent=1)
        fh.write("\n")
