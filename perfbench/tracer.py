"""Spans and counts around qndsim's layers, installed at run time.

``Tracer.install`` replaces every public function of ``grids``, ``chain``,
``fidelity``, ``optimize`` and ``cli`` by a timing wrapper, in every module
namespace that holds it (``qndsim.fidelity.homodyne_distribution``,
``qndsim.cli.state_fidelity``, the ``qndsim`` package itself, ...), so calls
between layers pass through the wrappers.  The evaluators that
``amplitude_interpolator`` returns are wrapped too: they are the spline
layer.  ``uninstall`` puts the originals back.

A span is named ``<defining module>.<function>``.  Spans are aggregated as
they close rather than stored: calls, total time, self time (duration minus
the time its child spans cover) and caller -> callee call counts.  The
tracer assumes one thread, which holds while ``QND_SIM_THREADS`` is unset.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import weakref
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

import qndsim
import qndsim.chain
import qndsim.cli
import qndsim.fidelity
import qndsim.grids
import qndsim.optimize

LAYERS = (qndsim.grids, qndsim.chain, qndsim.fidelity, qndsim.optimize, qndsim.cli)
NAMESPACES = (qndsim, *LAYERS)
ROOT = "<bench>"


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


def public_functions() -> dict:
    """Original function -> span name, for the public functions of each layer."""
    names = {}
    for module in LAYERS:
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                names[value] = f"{_short(module)}.{attr}"
    return names


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()  # (caller span, callee span) -> calls
        self.spline_points = 0
        self.interp_builds = 0
        self.optimize_probe_variances: list[float] = []
        self._stack: list[list] = [[ROOT, 0.0]]  # frames of [name, child seconds]
        self._evaluators: weakref.WeakSet = weakref.WeakSet()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far; installed wrappers stay."""
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.edges.clear()
        self.spline_points = 0
        self.interp_builds = 0
        self.optimize_probe_variances.clear()
        self._stack[1:] = []
        self._stack[0][1] = 0.0

    def _close(self, name: str, frame: list, start: float) -> None:
        duration = perf_counter() - start
        self._stack.pop()
        parent = self._stack[-1]
        parent[1] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame[1]
        self.edges[(parent[0], name)] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """Span for a call the wrappers cannot see, recorded by the caller."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, frame, start)

    def _wrap(self, name: str, fn, before=None, after=None):
        stack, close = self._stack, self._close

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(name, frame, start)
            return out if after is None else after(out)

        return wrapper

    # -- hooks for counts that need arguments or results -----------------------

    def _count_points(self, args, kwargs) -> None:
        self.spline_points += int(np.size(args[0] if args else kwargs["x"]))

    def _wrap_evaluator(self, evaluate):
        if evaluate not in self._evaluators:
            self._evaluators.add(evaluate)
            self.interp_builds += 1
        return self._wrap("grids.spline", evaluate, before=self._count_points)

    def _record_probe(self, args, kwargs) -> None:
        spec = args[0] if args else kwargs["spec"]
        self.optimize_probe_variances.append(spec.variance)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        names = public_functions()
        for namespace in NAMESPACES:
            for attr, value in list(vars(namespace).items()):
                name = names.get(value) if inspect.isfunction(value) else None
                if name is None:
                    continue
                before = after = None
                if name == "grids.amplitude_interpolator":
                    after = self._wrap_evaluator
                elif name == "grids.build_gaussian" and namespace is qndsim.optimize:
                    before = self._record_probe  # one probe per (F, G) pair evaluated
                self._saved.append((namespace, attr, value))
                wrapper = functools.update_wrapper(self._wrap(name, value, before, after), value)
                setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, value in reversed(self._saved):
            setattr(namespace, attr, value)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- per-job summary ---------------------------------------------------

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if name.startswith(layer + "."))

    def summary(self) -> dict:
        """Per-layer metrics of what was recorded since the last reset."""
        calls, self_s, edges = self.calls, self.self_s, self.edges
        f_calls = calls["fidelity.state_fidelity"]
        pair_evals = sum(
            n
            for (caller, callee), n in edges.items()
            if caller.startswith("optimize.") and callee == "fidelity.state_fidelity"
        )
        variances = self.optimize_probe_variances
        return {
            "grids.spline_points": self.spline_points,
            "grids.spline_s": self.total_s["grids.spline"],
            "grids.interp_builds": self.interp_builds,
            "grids.states_built": calls["grids.build_gaussian"] + calls["grids.build_cat"],
            "chain.homodyne_distribution.calls": calls["chain.homodyne_distribution"],
            "chain.homodyne_distribution.self_s": self_s["chain.homodyne_distribution"],
            "chain.conditional_output.calls": calls["chain.conditional_output"],
            "chain.conditional_output.self_s": self_s["chain.conditional_output"],
            "chain.staged.self_s": sum(
                self_s[f"chain.{f}"]
                for f in ("conditional_state_raw", "feedback_displace", "output_squeeze")
            ),
            "chain.sample_outcomes.self_s": self_s["chain.sample_outcomes"],
            "chain.beam_splitter_transform.self_s": self_s["chain.beam_splitter_transform"],
            "fidelity.state_fidelity.calls": f_calls,
            "fidelity.state_fidelity.self_s": self_s["fidelity.state_fidelity"],
            "fidelity.distribution_fidelity.calls": calls["fidelity.distribution_fidelity"],
            "fidelity.distribution_fidelity.self_s": self_s["fidelity.distribution_fidelity"],
            "fidelity.cond_per_F": (
                edges[("fidelity.state_fidelity", "chain.conditional_output")] / f_calls
                if f_calls
                else 0.0
            ),
            "fidelity.output_ensemble.self_s": self_s["fidelity.output_ensemble"],
            "optimize.pair_evals": pair_evals,
            "optimize.distinct_x_ratio": (
                len(set(variances)) / len(variances) if variances else 0.0
            ),
            # the optimize layer's own time below the report: scan, golden
            # section, bisection and the per-point closure
            "optimize.numeric_trade_off_report.self_s": self.layer_self_s("optimize"),
            # the cli layer's own time: parsing, CSV/JSON writing, pool overhead
            "cli.main.self_s": self.layer_self_s("cli"),
        }
