"""Per-layer metrics aggregated from the spans of one traced pass.

Every ``_s`` metric is self time: a span's duration minus the durations
of its direct child spans, summed over the spans the metric covers.
Nothing in finsub waits (one single-threaded process per job), so there
are no wait metrics.
"""

from __future__ import annotations

from collections import Counter

from tracer import LAYERS


def names(layer: str) -> list[str]:
    return [f"{layer}.{name}" for name in LAYERS[layer]]


SUBSET = names("subsetspace")
ASSEMBLY = ["homology.normalized_complex", "homology.relative_complex"]
BASIS = ["homology.homology_basis", "homology.connecting_map",
         "homology.connecting_free_index", "homology.les_check",
         "homology.induced_map"]
DDCHECK = ["homology.ChainComplex.validate"]
UNTRACKED = ["snf.invariant_factors", "snf.rank"]
TRACKED = ["snf.diagonalize"]
SNF = UNTRACKED + TRACKED
CACHE = names("cache")

# metric -> wrapped names it is computed from.  A metric whose names all
# went missing (see Tracer.install) is reported absent.  Units are in
# BENCHMARK.json.
METRICS = {
    "simplicial.self_s": names("simplicial"),
    "simplicial.quotient_s": ["simplicial.quotient"],
    "simplicial.quotient_calls": ["simplicial.quotient"],
    "subsetspace.self_s": SUBSET,
    "subsetspace.calls": SUBSET,
    "subsetspace.simplices": SUBSET,
    "subsetspace.cells": SUBSET,
    "subsetspace.useful_ratio": SUBSET,
    "homology.assembly_s": ASSEMBLY,
    "homology.cells": ASSEMBLY,
    "homology.nnz": ASSEMBLY,
    "homology.ddcheck_s": DDCHECK,
    "homology.ddcheck_share": DDCHECK,
    "homology.basis_s": BASIS,
    "snf.untracked_s": UNTRACKED,
    "snf.untracked_calls": UNTRACKED,
    "snf.tracked_s": TRACKED,
    "snf.tracked_calls": TRACKED,
    "snf.max_cells": SNF,
    "snf.nnz_in": SNF,
    "snf.transform_nnz": TRACKED,
    "spectral.self_s": names("spectral"),
    "spectral.rank_calls": ["snf.rank"],
    "groupcoh.self_s": names("groupcoh"),
    "groupcoh.basis": ["groupcoh.bar_cochain_complex"],
    "claims.self_s": names("claims"),
    "cli.self_s": names("cli"),
    "cache.requests": CACHE,
    "cache.hit_ratio": CACHE,
    "cache.get_s": CACHE,
    "cache.put_s": CACHE,
    "cache.bytes_written": CACHE,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_metrics(docs: list[dict], bytes_written: int) -> dict[str, float]:
    """Metrics of one pass from the span files of its jobs.

    ``bytes_written`` is the size of the pass's cache directory after its
    last job, measured by run.py.
    """
    own: Counter = Counter()  # self time per layer and per name
    calls: Counter = Counter()
    sizes: Counter = Counter()  # per "name:size"
    max_cells = 0
    spectral_ranks = 0
    requests = hits = 0
    for doc in docs:
        spans = doc["spans"]
        selfs = [s[3] - s[2] for s in spans]
        for s in spans:
            if s[4] >= 0:
                selfs[s[4]] -= s[3] - s[2]
        gets = []
        for s, t in zip(spans, selfs):
            layer, name, found = s[0], f"{s[0]}.{s[1]}", s[5] or {}
            own[layer] += t
            own[name] += t
            calls[layer] += 1
            calls[name] += 1
            for key, value in found.items():
                sizes[f"{name}:{key}"] += value
            if layer == "snf":
                max_cells = max(max_cells, found.get("cells", 0))
                if name == "snf.rank" and s[4] >= 0 and spans[s[4]][0] == "spectral":
                    spectral_ranks += 1
            if name == "cache.BoundaryCache.get":
                gets.append(found.get("hit", False))
        if gets:
            requests += 1
            hits += all(gets)

    def total(table: Counter, keys: list[str], suffix: str = "") -> float:
        return sum(table[k + suffix] for k in keys)

    simplices = total(sizes, SUBSET, ":simplices")
    subset_cells = total(sizes, SUBSET, ":cells")
    return {
        "simplicial.self_s": own["simplicial"],
        "simplicial.quotient_s": own["simplicial.quotient"],
        "simplicial.quotient_calls": calls["simplicial.quotient"],
        "subsetspace.self_s": own["subsetspace"],
        "subsetspace.calls": calls["subsetspace"],
        "subsetspace.simplices": simplices,
        "subsetspace.cells": subset_cells,
        "subsetspace.useful_ratio": _ratio(subset_cells, simplices),
        "homology.assembly_s": total(own, ASSEMBLY),
        "homology.cells": total(sizes, ASSEMBLY, ":cells"),
        "homology.nnz": total(sizes, ASSEMBLY, ":nnz"),
        "homology.ddcheck_s": total(own, DDCHECK),
        "homology.ddcheck_share": _ratio(total(sizes, DDCHECK, ":checked"),
                                         total(sizes, DDCHECK, ":columns")),
        "homology.basis_s": total(own, BASIS),
        "snf.untracked_s": total(own, UNTRACKED),
        "snf.untracked_calls": total(calls, UNTRACKED),
        "snf.tracked_s": total(own, TRACKED),
        "snf.tracked_calls": total(calls, TRACKED),
        "snf.max_cells": max_cells,
        "snf.nnz_in": total(sizes, SNF, ":nnz"),
        "snf.transform_nnz": total(sizes, TRACKED, ":transform_nnz"),
        "spectral.self_s": own["spectral"],
        "spectral.rank_calls": spectral_ranks,
        "groupcoh.self_s": own["groupcoh"],
        "groupcoh.basis": total(sizes, ["groupcoh.bar_cochain_complex"], ":basis"),
        "claims.self_s": own["claims"],
        "cli.self_s": own["cli"],
        "cache.requests": requests,
        "cache.hit_ratio": _ratio(hits, requests),
        "cache.get_s": own["cache.BoundaryCache.get"],
        "cache.put_s": own["cache.BoundaryCache.put"],
        "cache.bytes_written": bytes_written,
    }


def absent(docs: list[dict]) -> set[str]:
    """Metrics whose every source name was missing in some job."""
    missing = set()
    for doc in docs:
        missing.update(doc["missing"])
    return {m for m, sources in METRICS.items()
            if all(n in missing for n in sources)}
