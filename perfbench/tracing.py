"""Per-layer tracing of otmix from outside: spans around its public functions.

The tracer wraps each traced function and replaces the original wherever a
loaded ``otmix`` module binds it.  Modules bind imported names at import time,
so ``component_log_densities`` is replaced in ``otmix.mixtures``,
``otmix.sinkhorn``, ``otmix.fitting`` and the package, and
``transport_responsibilities`` in ``otmix.sinkhorn``, ``otmix.fitting`` and
``otmix.coclustering``.  Nothing under ``src/otmix`` changes; ``uninstall``
puts every original back.

Spans are kept in memory as [layer, parent index, start ns, end ns].  A
layer's self time is its spans' duration minus the duration of their direct
children; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import numpy as np

from otmix import coclustering, fitting, metrics, mixtures, sinkhorn


def _log_kernel_bytes(tracer, args, result):
    # labelled computed: N*K*d*8, the (N, K, d) float64 tensor the kernel builds
    params, points = args[0], np.asarray(args[1])
    n = points.shape[0]
    tracer.counts["mixtures.log_kernel.bytes"] += n * params.n_components * params.dim * 8


def _solve(tracer, args, result):
    tracer.samples["sinkhorn.solve.iters"].append(result.iterations)
    tracer.counts["sinkhorn.solve.unconverged"] += not result.converged


def _fit(tracer, args, result):
    tracer.counts["fitting.outer_iters"] += result.iterations
    tracer.counts["fitting.capped"] += not result.converged


def _block_fit_raised(tracer, exc):
    tracer.counts["coclustering.empty_block"] += isinstance(exc, coclustering.EmptyBlockError)


# (layer, module that defines the function, function name, on_return, on_raise)
TRACED = [
    ("mixtures.log_kernel", mixtures, "component_log_densities", _log_kernel_bytes, None),
    ("mixtures.trace_ell", mixtures, "neg_loglik_from_log_densities", None, None),
    ("mixtures.softmax", mixtures, "responsibility_matrix", None, None),
    ("sinkhorn.semidual", sinkhorn, "semidual_value", None, None),
    ("sinkhorn.solve", sinkhorn, "transport_responsibilities", _solve, None),
    ("fitting.fit", fitting, "em_fit", _fit, None),
    ("fitting.fit", fitting, "sem_fit", _fit, None),
    ("fitting.mstep", fitting, "mstep_gaussian", None, None),
    ("metrics.lloyd", metrics, "lloyd_kmeans", None, None),
    ("metrics.score", metrics, "center_error", None, None),
    ("metrics.score", metrics, "adjusted_rand_index", None, None),
    ("metrics.score", metrics, "bic_score", None, None),
    ("metrics.score", metrics, "balance_residual", None, None),
    ("metrics.score", metrics, "kmeans_labels", None, None),
    ("coclustering.fit", coclustering, "vem_fit", None, _block_fit_raised),
    ("coclustering.fit", coclustering, "svem_fit", None, _block_fit_raised),
    ("coclustering.aggregate", coclustering, "aggregate_stats", None, None),
    ("coclustering.score", coclustering, "block_score", None, None),
]
# Building the validated Responsibilities container, wherever it happens.
VALIDATE_LAYER = "mixtures.validate"

SPAN_LAYERS = sorted({layer for layer, *_ in TRACED} | {VALIDATE_LAYER})
COUNTS = (
    "mixtures.log_kernel.bytes",
    "sinkhorn.solve.unconverged",
    "fitting.outer_iters",
    "fitting.capped",
    "coclustering.empty_block",
)


def _otmix_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "otmix" or name.startswith("otmix.")]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.samples: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, layer: str, fn, on_return=None, on_raise=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [layer, stack[-1] if stack else -1, clock(), 0]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_raise is not None:
                    on_raise(self, exc)
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in the loaded otmix modules."""
        modules = _otmix_modules()
        for layer, home, name, on_return, on_raise in TRACED:
            original = getattr(home, name)
            wrapped = self.wrap(layer, original, on_return, on_raise)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._patches.append((module, attr, original))
        cls = mixtures.Responsibilities
        original = cls.__post_init__
        cls.__post_init__ = self.wrap(VALIDATE_LAYER, original)
        self._patches.append((cls, "__post_init__", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched_sites(self) -> set:
        return {f"{owner.__name__}.{attr}" for owner, attr, _ in self._patches}

    def self_times(self) -> list[int]:
        """Per span: duration minus the duration of its direct children (ns)."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def problems(self) -> list[str]:
        """Spans that end before they start or whose children outlast them."""
        out = []
        for i, ((layer, _, start, end), own) in enumerate(zip(self.spans, self.self_times())):
            if end < start:
                out.append(f"span {i} ({layer}) ends before it starts")
            elif own < 0:
                out.append(f"span {i} ({layer}): children take {-own} ns more than the span")
        return out

    def layer_metrics(self) -> dict[str, float]:
        calls = dict.fromkeys(SPAN_LAYERS, 0)
        self_ns = dict.fromkeys(SPAN_LAYERS, 0)
        for (layer, *_), own in zip(self.spans, self.self_times()):
            calls[layer] += 1
            self_ns[layer] += own
        out = {}
        for layer in SPAN_LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_ns[layer] / 1e9
        for name in COUNTS:
            out[name] = self.counts[name]
        iters = self.samples["sinkhorn.solve.iters"]
        solves = len(iters)
        out["sinkhorn.solve.iters"] = sum(iters)
        out["sinkhorn.solve.iters_p50"] = float(np.median(iters)) if solves else 0.0
        out["sinkhorn.solve.iters_max"] = max(iters) if solves else 0
        # vacuously 1 when the workload made no solve
        out["sinkhorn.solve.converged_ratio"] = (
            1.0 - self.counts["sinkhorn.solve.unconverged"] / solves if solves else 1.0
        )
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: layer, parent span index, start and end (ns)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
