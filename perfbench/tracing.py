"""Per-layer tracing of pickroute from outside the package.

While installed, a :class:`Tracer` replaces pickroute's public functions at
the module attribute each caller looks up (``prelim`` binds ``integrate_1d``
by name, ``layout`` binds ``compute_moments``, and so on) with wrappers that
record a span per call: name, start, end and the enclosing span.  Spans stay
in memory until the run ends.  Order-size distributions are swapped for
subclasses that count PGF evaluations and sampled orders and items; being
subclasses, they leave the ``isinstance`` dispatch inside pickroute unchanged.
Nothing under ``src/`` is modified, and uninstalling restores every binding.
"""
from __future__ import annotations

import dataclasses
import importlib
import json
import math
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from pickroute import HEURISTICS

BLOCKS = ("kplus_moments", "far_item_moments", "sum_far_item_kplus_cross", "m_far_cross",
          "far_half_cond_moments", "gap_cond_moments", "occupancy_law",
          "contiguous_far_moments", "contiguous_count_prime")

# Timed metrics, per traced pass, in seconds: metric name -> span name.
TIMES = {
    "quadrature.integrate_1d_s": "quadrature.integrate_1d",
    "quadrature.integrate_2d_s": "quadrature.integrate_2d",
    **{f"prelim.{b}_s": f"prelim.{b}" for b in BLOCKS},
    **{f"heuristics.{h}_s": f"heuristics.{h}" for h in HEURISTICS},
    "queueing.lead_time_estimate_s": "queueing.lead_time_estimate",
    "simulate.run_replications_all_s": "simulate.run_replications_all",
    "orderdist.sample_s": "orderdist.sample",
}
CALLS = {
    "quadrature.integrate_1d_calls": "quadrature.integrate_1d",
    "quadrature.integrate_2d_calls": "quadrature.integrate_2d",
    **{f"prelim.{b}_calls": f"prelim.{b}" for b in BLOCKS},
    "queueing.calls": "queueing.lead_time_estimate",
}
SELF_TIMES = ("heuristics", "simulate", "layout", "cli")
COUNTS = ("quadrature.gap_kernel_calls", "orderdist.pgf_calls", "orderdist.items",
          "simulate.orders", "layout.na_cells", "cli.bytes_out")


def _layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _heuristic_span(args, kwargs) -> str:
    return "heuristics." + (args[3] if len(args) > 3 else kwargs["heuristic"])


class Tracer:
    def __init__(self):
        self.spans = []           # [name, start, end, parent index, raised]
        self._stack = []
        self.counts = defaultdict(int)
        self._classes = {}

    # -- recording ---------------------------------------------------------

    def _span(self, name_of, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(args, kwargs)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, dist):
        """The same distribution as an instance of a counting subclass."""
        base = type(dist)
        cls = self._classes.get(base)
        if cls is None:
            cls = self._classes[base] = self._counting_class(base)
        return cls(*(getattr(dist, f.name) for f in dataclasses.fields(dist)))

    def _counting_class(self, base):
        counts = self.counts
        timed_sample = self._span("orderdist.sample", base.sample)

        def pgf(self, x):
            counts["orderdist.pgf_calls"] += 1
            return base.pgf(self, x)

        def pgf_prime(self, x):
            counts["orderdist.pgf_calls"] += 1
            return base.pgf_prime(self, x)

        def sample(self, rng, size=None):
            out = timed_sample(self, rng, size)
            counts["simulate.orders"] += np.size(out)
            counts["orderdist.items"] += int(np.sum(out))
            return out

        return type("Counted" + base.__name__, (base,),
                    {"pgf": pgf, "pgf_prime": pgf_prime, "sample": sample})

    # -- after-call hooks --------------------------------------------------

    def _na_cells(self, args, kwargs, rows):
        self.counts["layout.na_cells"] += sum(
            1 for row in rows for c in row.cells.values() if math.isnan(c.e_t) or c.e_r is None)

    def _bytes_out(self, args, kwargs, status):
        argv = args[0] if args else kwargs.get("argv")
        if argv and "--out" in argv:
            self.counts["cli.bytes_out"] += os.path.getsize(argv[argv.index("--out") + 1])

    def _counted_gap_kernel(self, fn):
        counts = self.counts

        def gap_kernel(*args, **kwargs):
            counts["quadrature.gap_kernel_calls"] += 1
            return fn(*args, **kwargs)

        return gap_kernel

    def _counted_parser(self, fn):
        return lambda text: self.counted(fn(text))

    # -- installing --------------------------------------------------------

    def _bindings(self):
        """(module, attribute, wrapper factory) for every binding a caller resolves."""
        prelim, heuristics, layout, cli = (importlib.import_module("pickroute." + m)
                                           for m in ("prelim", "heuristics", "layout", "cli"))
        span = lambda name, after=None: lambda fn: self._span(name, fn, after)  # noqa: E731
        return [
            (prelim, "integrate_1d", span("quadrature.integrate_1d")),
            (prelim, "integrate_2d", span("quadrature.integrate_2d")),
            (prelim, "gap_kernel", self._counted_gap_kernel),
            *[(prelim, b, span("prelim." + b)) for b in BLOCKS],
            (heuristics, "compute_moments", span(_heuristic_span)),
            (layout, "compute_moments", span(_heuristic_span)),
            (cli, "compute_moments", span(_heuristic_span)),
            (layout, "lead_time_estimate", span("queueing.lead_time_estimate")),
            (cli, "lead_time_estimate", span("queueing.lead_time_estimate")),
            (cli, "run_replications_all", span("simulate.run_replications_all")),
            (layout, "layout_sweep", span("layout.layout_sweep", self._na_cells)),
            (cli, "layout_sweep", span("layout.layout_sweep", self._na_cells)),
            (cli, "main", span("cli.main", self._bytes_out)),
            (cli, "parse_dist_spec", self._counted_parser),
        ]

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, wrap in self._bindings():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- reporting ---------------------------------------------------------

    def metrics(self, passes: int, scale: float) -> dict[str, float]:
        """Per-layer metrics, each per traced pass; times are multiplied by
        ``scale``, the factor to the reference host speed."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        errors = defaultdict(int)
        for i, (name, start, end, parent, raised) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_time[_layer(name)] += end - start - child[i]
            errors[_layer(name)] += raised

        out = {m: total[s] * scale / passes for m, s in TIMES.items()}
        out.update({m: calls[s] / passes for m, s in CALLS.items()})
        out.update({f"{layer}.self_s": self_time[layer] * scale / passes for layer in SELF_TIMES})
        out.update({m: self.counts[m] / passes for m in COUNTS})
        out["quadrature.errors"] = errors["quadrature"] / passes
        reports = sum(calls[f"heuristics.{h}"] for h in HEURISTICS)
        out["heuristics.reports"] = reports / passes
        out["orderdist.pgf_calls_per_report"] = self.counts["orderdist.pgf_calls"] / reports if reports else 0.0
        sim = total["simulate.run_replications_all"]
        out["simulate.items_per_s"] = self.counts["orderdist.items"] / (sim * scale) if sim else 0.0
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, raised in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "raised": raised}) + "\n")
