"""Per-layer timing from outside the package.

The tracer replaces module-level names of anisoflow with timing wrappers for
the duration of one run and restores them afterwards, so the package itself
carries no instrumentation.  Each wrapper is a span; a layer's self time is
its spans' duration minus the time of the spans they contain.  Spans are
folded into per-layer totals as they close rather than kept one by one: the
curve workload opens about 300k of them.

A wrapped name that no longer exists (a later change may inline or rename
it) marks its layer absent instead of raising.

The step clock uses the same device on one name, diagnostics_row, to time
an untraced run in chunks of equal work, each set against a fixed reference
kernel timed next to it.
"""

import functools
import importlib
from time import perf_counter

import numpy as np

# (layer, module of anisoflow, names looked up at call time in that module)
LAYERS = (
    ("stencils", "sphere_geometry", ("covariant_derivatives",)),
    ("weingarten", "flow_engine", ("weingarten",)),
    ("eval_scaled", "speed_profile", ("eval_scaled",)),
    ("cone_gate", "flow_engine", ("_cone_gate",)),
    ("rhs", "flow_engine", ("rhs",)),
    ("dt_bound", "flow_engine", ("stable_dt_bound", "is_zonal")),
    ("step", "flow_engine", ("step",)),
    ("diagnostics", "flow_engine", ("diagnostics_row",)),
    ("run", "flow_engine", ("run",)),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)


class Tracer:
    """Context manager: wraps every layer's names on entry, restores them on exit."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYER_NAMES, 0)
        self.self_s = dict.fromkeys(LAYER_NAMES, 0.0)
        self.incl_s = dict.fromkeys(LAYER_NAMES, 0.0)
        self.absent = []
        self._open = []  # child time accumulated by each open span, innermost last
        self._saved = []

    def __enter__(self):
        for layer, module_name, names in LAYERS:
            try:
                module = importlib.import_module(f"anisoflow.{module_name}")
            except ImportError:
                module = None
            found = False
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    found = True
                    self._saved.append((module, name, fn))
                    setattr(module, name, self._wrap(layer, fn))
            if not found:
                self.absent.append(layer)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)
        return False

    def _wrap(self, layer, fn):
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = open_spans.pop()
                self.calls[layer] += 1
                self.self_s[layer] += duration - inner
                self.incl_s[layer] += duration
                if open_spans:
                    open_spans[-1] += duration

        return traced


# The reference kernel's time on the 2-vCPU VM of README.md at its undisturbed
# speed; calibrated times are stated as if the kernel took this long.
REFERENCE_S = 0.005
_REF_1D = np.linspace(0.0, 1.0, 256)
_REF_2D = np.linspace(0.0, 1.0, 2048).reshape(32, 64)


def reference_kernel():
    """Fixed work shaped like a flow step: small-array numpy calls on the
    curve's 256 points and the surface's 32x64 grid, with Python between them."""
    for a in (_REF_1D, _REF_2D):
        for _ in range(60):
            d = np.roll(a, 1, axis=-1) - 2.0 * a + np.roll(a, -1, axis=-1)
            e = np.exp(-a) * d + np.sqrt(1.0 + d * d)
            pair = np.stack([e, d], axis=-1)
            m = np.einsum("...i,...i->...", pair, pair)
            float(m.max())
            float(np.ptp(e))


class StepClock:
    """Context manager: times a run in chunks of equal work against a yardstick.

    run records diagnostics every record_every steps.  At each record whose
    step count is a multiple of chunk_steps, the wrapper around diagnostics_row
    times one reference_kernel() and stamps the time after it, so consecutive
    stamps bound a chunk of exactly chunk_steps steps, without the kernel.
    The host's speed drifts, and the kernels on both sides of a chunk drift
    with it, so chunk time over their mean repeats where neither does.  When
    diagnostics_row no longer exists there are no stamps and no chunks.
    """

    def __init__(self, chunk_steps):
        self.chunk_steps = chunk_steps
        self.marks = []  # (step_count, kernel seconds, time after the kernel)
        self._saved = None

    def __enter__(self):
        module = importlib.import_module("anisoflow.flow_engine")
        fn = getattr(module, "diagnostics_row", None)
        if callable(fn):
            reference_kernel()  # warm-up, untimed
            marks, chunk_steps = self.marks, self.chunk_steps

            @functools.wraps(fn)
            def stamped(state, *args, **kwargs):
                n = getattr(state, "step_count", None)
                if isinstance(n, int) and n % chunk_steps == 0:
                    start = perf_counter()
                    reference_kernel()
                    end = perf_counter()
                    marks.append((n, end - start, end))
                return fn(state, *args, **kwargs)

            self._saved = (module, fn)
            module.diagnostics_row = stamped
        return self

    def __exit__(self, *exc):
        if self._saved is not None:
            module, fn = self._saved
            module.diagnostics_row = fn
            self._saved = None
        return False

    def kernel_seconds(self):
        """Total time spent in reference kernels during the run."""
        return sum(ref for _, ref, _ in self.marks)

    def chunks(self):
        """(chunk seconds, mean seconds of the kernels on both sides) per chunk."""
        out = []
        for (n0, ref0, t0), (n1, ref1, after1) in zip(self.marks, self.marks[1:]):
            if n1 - n0 == self.chunk_steps:
                out.append((after1 - ref1 - t0, 0.5 * (ref0 + ref1)))
        return out
