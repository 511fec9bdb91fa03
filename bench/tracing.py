"""Per-layer counts and spans for the traced pass.

The tracer wraps the public entry points of each hybridqmc module, from the
benchmark's side, at every binding site: the modules import names directly
(discrepancy and search hold their own reference to walsh._modulus_bound,
walsh and search hold gfpoly.valuation), so a wrapper on one module
attribute would miss the other call sites.  Functions called once per
polynomial operation are only counted; the rest also record a span
(name, start, end, parent), kept in memory until the pass ends.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter

# per_layer metric name -> unit, in the order they are reported
METRICS = {
    "gfpoly.mul_calls": "count",
    "gfpoly.divmod_calls": "count",
    "gfpoly.valuation_calls": "count",
    "gfpoly.laurent_calls": "count",
    "gfpoly.irreducibility_tests": "count",
    "walsh.bound_calls": "count",
    "walsh.bound_cache_hit_ratio": "ratio",
    "walsh.residue_tables": "count",
    "walsh.residue_table_entries": "count",
    "walsh.busy_s": "s",
    "discrepancy.certificates": "count",
    "discrepancy.cert_self_s": "s",
    "discrepancy.oracle_calls": "count",
    "discrepancy.grid_cells": "count",
    "discrepancy.oracle_busy_s": "s",
    "discrepancy.io_bytes": "B",
    "discrepancy.io_s": "s",
    "cli.busy_s": "s",
    "plattice.points": "count",
    "plattice.lattice_configs": "count",
    "plattice.busy_s": "s",
    "seqgen.radical_inverses": "count",
    "seqgen.box_classes": "count",
    "seqgen.busy_s": "s",
    "search.candidates": "count",
    "search.self_s": "s",
    "suites.checks": "count",
    "suites.busy_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

# layers whose busy time is reported: the time of their outermost spans
_BUSY_LAYERS = ("walsh", "plattice", "seqgen", "suites", "cli")
# groups of spans reported together, across or within layers: tag -> names
_TAGS = {
    "cert": ("discrepancy.discrepancy_certificate",),
    "search": ("search.search_exhaustive", "search.search_korobov"),
    "oracle": (
        "discrepancy.star_discrepancy_exact",
        "discrepancy.star_discrepancy_1d",
        "discrepancy.prefix_reduction_bound",
    ),
    "io": ("discrepancy.load_point_set", "discrepancy.save_point_set"),
}


def _grid_cells(points) -> int:
    cells = 1
    for column in zip(*points.fractions):
        cells *= len(set(column)) + 1
    return cells


class Tracer:
    def __init__(self, package):
        self.package = package
        importlib.import_module(f"{package.__name__}.cli")  # not loaded by the package
        self.modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        ]
        self.counts = Counter()
        self.spans = []
        self.stack = []
        self.sites = {}
        walsh = package.walsh
        # the caches themselves, kept for clearing and their statistics
        self.bound_cache = walsh._modulus_bound
        self.residue_cache = walsh._combined_residues

    # -- wrappers -----------------------------------------------------------

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _rebind(self, label, original, wrapper):
        sites = 0
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    sites += 1
        if not sites:
            raise RuntimeError(f"no binding site found for {label}")
        self.sites[label] = sites

    def _add(self, key, amount=None):
        """A hook run after a wrapped call: adds amount(result, *args) to a
        count, or 1 without an amount."""
        counts = self.counts

        def after(result, *args, **kwargs):
            counts[key] += 1 if amount is None else amount(result, *args, **kwargs)

        return after

    # -- installation -------------------------------------------------------

    def install(self):
        pkg = self.package
        gfpoly, plattice, seqgen = pkg.gfpoly, pkg.plattice, pkg.seqgen
        walsh, discrepancy, search = pkg.walsh, pkg.discrepancy, pkg.search
        counts = self.counts
        add = self._add

        # once per polynomial operation: counts only
        for key, name in (("gfpoly.mul_calls", "__mul__"), ("gfpoly.divmod_calls", "__divmod__")):
            setattr(gfpoly.Poly, name, self._counted(key, getattr(gfpoly.Poly, name)))
            self.sites[f"{gfpoly.__name__}.Poly.{name}"] = 1
        for key, module, name in (
            ("gfpoly.valuation_calls", gfpoly, "valuation"),
            ("gfpoly.laurent_calls", gfpoly, "laurent_coeffs"),
            ("gfpoly.irreducibility_tests", gfpoly, "poly_is_irreducible"),
            ("seqgen.radical_inverses", seqgen, "radical_inverse_poly"),
        ):
            original = getattr(module, name)
            self._rebind(f"{module.__name__}.{name}", original, self._counted(key, original))

        residues = self.residue_cache

        def residue_tables(cfg):
            misses = residues.cache_info().misses
            table = residues(cfg)
            if residues.cache_info().misses != misses:
                counts["walsh.residue_tables"] += 1
                counts["walsh.residue_table_entries"] += cfg.p ** (cfg.m * cfg.t) - 1
            return table

        self._rebind(f"{walsh.__name__}._combined_residues", residues, residue_tables)

        post_init = plattice.LatticeConfig.__post_init__
        plattice.LatticeConfig.__post_init__ = self._spanned(
            "plattice.LatticeConfig", post_init, add("plattice.lattice_configs")
        )
        self.sites[f"{plattice.__name__}.LatticeConfig.__post_init__"] = 1

        def file_size(result, path, *args, **kwargs):
            return os.path.getsize(path)

        spanned = {
            plattice: {
                "plattice_point_laurent": add("plattice.points"),
                "plattice_point_matrix": add("plattice.points"),
                "sublattice_affine": add("plattice.points", lambda r, *a, **k: len(r[2])),
                "build_generating_matrix": None,
                "korobov_qvec": None,
                "sublattice_indices": None,
                "sublattice_enumerate": None,
                "sublattice_matrices": None,
            },
            seqgen: {
                "halton_point": None,
                "hybrid_point": None,
                "hybrid_point_set": None,
                "box_to_residue_classes": add("seqgen.box_classes", lambda r, *a, **k: len(r)),
            },
            walsh: {
                "_modulus_bound": add("walsh.bound_calls"),
                "walsh_discrepancy_bound": None,
                "character_sum": None,
                "dual_test_matrix": None,
                "dual_test_valuation": None,
                "count_low_valuation": None,
            },
            discrepancy: {
                "discrepancy_certificate": add("discrepancy.certificates"),
                "star_discrepancy_exact": self._oracle_call,
                "star_discrepancy_1d": add("discrepancy.oracle_calls"),
                "prefix_reduction_bound": None,
                "load_point_set": add("discrepancy.io_bytes", file_size),
                "save_point_set": add("discrepancy.io_bytes", file_size),
            },
            search: {
                "search_exhaustive": add("search.candidates", lambda r, *a, **k: len(r.reports)),
                "search_korobov": add("search.candidates", lambda r, *a, **k: len(r.reports)),
                "average_bound_check": None,
                "dual_solution_counts": None,
                "negative_control_report": None,
            },
            pkg.suites: {"run_suite": add("suites.checks", lambda r, *a, **k: r.checks)},
            pkg.cli: {"main": None},
        }
        for module, entries in spanned.items():
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, after in entries.items():
                original = getattr(module, name)
                wrapper = self._spanned(f"{layer}.{name}", original, after)
                self._rebind(f"{module.__name__}.{name}", original, wrapper)

    def _oracle_call(self, result, points=None, *args, **kwargs):
        self.counts["discrepancy.oracle_calls"] += 1
        self.counts["discrepancy.grid_cells"] += _grid_cells(points)

    # -- results ------------------------------------------------------------

    def cache_self_check(self) -> dict:
        """Every _modulus_bound call went through a wrapper iff the wrapped
        call count equals the cache's hits plus misses over the pass."""
        info = self.bound_cache.cache_info()
        return {
            "bound_calls": self.counts["walsh.bound_calls"],
            "cache_hits": info.hits,
            "cache_misses": info.misses,
            "ok": self.counts["walsh.bound_calls"] == info.hits + info.misses,
        }

    def metrics(self) -> dict:
        """Per-layer values: counts, busy times of each layer's outermost
        spans, and the self times the certificate and search spans keep
        after their walsh and certificate children."""
        bits = {tag: 1 << i for i, tag in enumerate((*_BUSY_LAYERS, *_TAGS))}
        name_mask = {}
        ancestors = []
        busy = Counter()
        walsh_in_cert = cert_in_search = 0
        for name, start, end, parent in self.spans:
            mask = name_mask.get(name)
            if mask is None:
                mask = bits.get(name.split(".", 1)[0], 0)
                for tag, names in _TAGS.items():
                    if name in names:
                        mask |= bits[tag]
                name_mask[name] = mask
            above = ancestors[parent] | name_mask[self.spans[parent][0]] if parent >= 0 else 0
            ancestors.append(above)
            outermost = mask & ~above
            if outermost:
                duration = end - start
                for tag, bit in bits.items():
                    if outermost & bit:
                        busy[tag] += duration
                if outermost & bits["walsh"] and above & bits["cert"]:
                    walsh_in_cert += duration
                if outermost & bits["cert"] and above & bits["search"]:
                    cert_in_search += duration
        ns = 1e-9
        info = self.bound_cache.cache_info()
        lookups = info.hits + info.misses
        values = {key: self.counts[key] for key, unit in METRICS.items() if unit != "s"}
        values.update(
            {
                "walsh.bound_cache_hit_ratio": info.hits / lookups if lookups else 0.0,
                "walsh.busy_s": busy["walsh"] * ns,
                "discrepancy.cert_self_s": (busy["cert"] - walsh_in_cert) * ns,
                "discrepancy.oracle_busy_s": busy["oracle"] * ns,
                "discrepancy.io_s": busy["io"] * ns,
                "cli.busy_s": busy["cli"] * ns,
                "plattice.busy_s": busy["plattice"] * ns,
                "seqgen.busy_s": busy["seqgen"] * ns,
                "search.self_s": (busy["search"] - cert_in_search) * ns,
                "suites.busy_s": busy["suites"] * ns,
            }
        )
        return values

    def write_spans(self, path):
        """One tab-separated line per span: index, name, start_ns, end_ns, parent."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start}\t{end}\t{parent}\n")
