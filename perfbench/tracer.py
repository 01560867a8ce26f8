"""Span recorder that times finsub's public functions from outside the package.

``Tracer.install`` replaces each public function listed in ``LAYERS`` at
every place a ``finsub`` module binds it: the defining module, ``from .x
import y`` copies in sibling modules (``claims.exp``, ``spectral.rank``,
``groupcoh.homology``) and the package re-exports.  Wrapping only the
defining module would lose every call made through such a copy.

Each wrapped call records one span: layer, name, start, end, parent span
and a few sizes.  Sizes are computed after the span closes, and the time
spent computing them is subtracted from the clock that every span reads,
so bookkeeping never lands in a span's duration.  A span nested inside
another span of the same sizer (``tower`` inside ``conf_plus``,
``normalized_complex`` inside ``relative_complex``) gets no sizes, so
that no work is counted twice.  Spans stay in memory and are written
once, by ``dump``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# Layer (a finsub module) -> names wrapped in it.  "Class.method" wraps a
# method on the class.  The cli layer is the click entry point itself,
# called by the job launcher, so its span covers argument parsing and
# JSON output.
LAYERS = {
    "cli": ["main"],
    "claims": ["run_claim"],
    "simplicial": ["sphere_model", "point_model", "torus_model", "product",
                   "quotient", "validate", "load_space", "space_hash"],
    "subsetspace": ["exp", "exp_based", "exp_bar", "conf_plus", "tower"],
    "homology": ["normalized_complex", "relative_complex",
                 "ChainComplex.validate", "homology", "space_homology",
                 "homology_basis", "connecting_map", "connecting_free_index",
                 "les_check", "induced_map"],
    "snf": ["invariant_factors", "rank", "diagonalize"],
    "spectral": ["filtered_from_tower", "e1_page", "advance", "limit_page",
                 "einfty_totals"],
    "groupcoh": ["bar_cochain_complex", "group_cohomology"],
    "cache": ["BoundaryCache.get", "BoundaryCache.put"],
}


def _spaces(result):
    """Simplicial sets returned by a subset-space constructor."""
    if isinstance(result, tuple):
        result = result[0]
    stages = getattr(result, "spaces", None)
    found = stages if stages is not None else [result]
    return [getattr(s, "space", s) for s in found]


def _nondegenerate_count(xs) -> int:
    # Recomputed here rather than through xs.nondegenerate, whose cache
    # would otherwise save the traced program work it does when untraced.
    count = xs.levels[0]
    for k in range(1, xs.trunc + 1):
        hit = set()
        for smap in xs.degeneracies[k - 1]:
            hit.update(smap)
        count += xs.levels[k] - len(hit)
    return count


def _subset_sizes(args, kwargs, result):
    spaces = _spaces(result)
    return {"simplices": sum(sum(xs.levels) for xs in spaces),
            "cells": sum(_nondegenerate_count(xs) for xs in spaces)}


def _complex_sizes(args, kwargs, result):
    return {"cells": sum(result.dims),
            "nnz": sum(m.nnz for m in result.boundary)}


def _ddcheck_sizes(args, kwargs, result):
    c = args[0]
    stride = kwargs.get("sample_stride", args[1] if len(args) > 1 else None) or 1
    # Degrees that ChainComplex.validate skips are not counted.
    cols = [c.in_matrix(k).cols for k in range(len(c.dims))
            if c.out_matrix(k).rows and c.in_matrix(k).cols]
    return {"columns": sum(cols), "checked": sum(-(-n // stride) for n in cols)}


def _matrix_sizes(args, kwargs, result):
    m = args[0]
    return {"cells": m.rows * m.cols, "nnz": m.nnz}


def _tracked_sizes(args, kwargs, result):
    sizes = _matrix_sizes(args, kwargs, result)
    sizes["transform_nnz"] = sum(t.nnz for t in (result.U, result.Uinv,
                                                 result.V, result.Vinv)
                                 if t is not None)
    return sizes


def _bar_sizes(args, kwargs, result):
    return {"basis": sum(result.dims)}


def _cache_get_sizes(args, kwargs, result):
    return {"hit": result is not None}


SIZERS = {
    "subsetspace.exp": _subset_sizes,
    "subsetspace.exp_based": _subset_sizes,
    "subsetspace.exp_bar": _subset_sizes,
    "subsetspace.conf_plus": _subset_sizes,
    "subsetspace.tower": _subset_sizes,
    "homology.normalized_complex": _complex_sizes,
    "homology.relative_complex": _complex_sizes,
    "homology.ChainComplex.validate": _ddcheck_sizes,
    "snf.invariant_factors": _matrix_sizes,
    "snf.rank": _matrix_sizes,
    "snf.diagonalize": _tracked_sizes,
    "groupcoh.bar_cochain_complex": _bar_sizes,
    "cache.BoundaryCache.get": _cache_get_sizes,
}


class Tracer:
    """In-memory spans of one job process."""

    def __init__(self, job: str):
        self.job = job
        # [layer, name, start, end, parent index, sizes]
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._excluded = 0.0
        self._unsized_names: set[str] = set()
        self._open_sizers: Counter = Counter()  # sizer -> open spans using it

    def now(self) -> float:
        return time.perf_counter() - self._excluded

    def wrap(self, layer: str, name: str, fn):
        sizer = SIZERS.get(f"{layer}.{name}")
        spans, stack, open_sizers = self.spans, self._stack, self._open_sizers

        def traced(*args, **kwargs):
            outermost = open_sizers[sizer] == 0
            open_sizers[sizer] += 1
            span = [layer, name, self.now(), None,
                    stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = self.now()
                stack.pop()
                open_sizers[sizer] -= 1
            if sizer is not None and outermost:
                t0 = time.perf_counter()
                try:
                    span[5] = sizer(args, kwargs, result)
                except Exception as exc:  # sizes must never fail the job
                    self._unsized(f"{layer}.{name}", exc)
                self._excluded += time.perf_counter() - t0
            return result

        return traced

    def _unsized(self, name: str, exc: Exception) -> None:
        if name not in self._unsized_names:
            self._unsized_names.add(name)
            print(f"perfbench: no sizes for {name}: {exc!r}", file=sys.stderr)

    def install(self) -> None:
        """Wrap every name in LAYERS wherever a finsub module binds it.

        A module or name that no longer exists is recorded in
        ``missing`` and warned about; its metrics are then reported as
        absent instead of failing the run.
        """
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"finsub.{layer}")
            except ImportError:
                pass
        loaded = [m for n, m in sys.modules.items()
                  if n == "finsub" or n.startswith("finsub.")]
        for layer, names in LAYERS.items():
            module = modules.get(layer)
            for name in names:
                owner, _, attr = name.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                fn = getattr(holder, attr, None) if holder is not None else None
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                traced = self.wrap(layer, name, fn)
                if owner:
                    setattr(holder, attr, traced)
                    continue
                for mod in loaded:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)
        for name in self.missing:
            print(f"perfbench: {name} not found; its metrics are absent",
                  file=sys.stderr)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job, "missing": self.missing,
                       "spans": self.spans}, fh)
