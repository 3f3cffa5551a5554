"""Span tracer for the benchmark's traced run.

The tracer wraps, from outside the package, every public module-level function
of the seven bosonlearn modules plus the methods listed in ``METHODS``. A
function is replaced in every module that holds it under a name (for example
``displacement_matrix`` in both ``fockspace`` and ``device``), so calls made
through an imported name are seen too. ``uninstall`` puts every original back.

Each call records a span: name, start, end, parent span and op id. Spans stay
in memory until the run ends; ``layer_metrics`` then turns them into the
per-layer metrics. The tracer assumes one thread, which is how the closed
loop runs: nested calls are nested spans, so a span's self time is its
duration minus the durations of its direct children, and the self times of
all spans of an op add up to the op's traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import weakref
from time import perf_counter

import numpy as np

MODULES = ("fockspace", "hamiltonian", "device", "protocol", "recovery", "bogoliubov", "cli")

# Public methods traced besides the module-level functions: the device's
# construction and request entry points and the fit objects' solvers.
METHODS = {
    "device": {"SimulatedDevice": ("__init__", "probability", "run_shot_batch")},
    "recovery": {
        "SingleModePipeline": ("solve", "coefficient_variances"),
        "MultidimFit": ("coefficient_variances",),
    },
    "bogoliubov": {"TransformT": ("transform", "transform_variance")},
}

ROOT = "bench.op"
REQUESTS = ("device.SimulatedDevice.probability", "device.SimulatedDevice.run_shot_batch")
STATE_PREP = ("fockspace.displacement_matrix", "fockspace.squeeze_matrix")
LEARNERS = (
    "protocol.learn_single_mode",
    "protocol.learn_multimode_hierarchical",
    "protocol.learn_multimode_simultaneous",
)
SEARCH = (
    "bogoliubov.learn_firstq",
    "bogoliubov.bisection_search",
    "bogoliubov.signal_measure",
    "bogoliubov.parallel_two_mode_search",
)
EXACT_ALGEBRA = (
    "bogoliubov.build_T",
    "bogoliubov.normal_to_symmetrized",
    "bogoliubov.symmetrized_to_normal",
    "bogoliubov.boson_mul",
    "bogoliubov.nb_expansion",
    "bogoliubov.conjugate_spec_by_mismatch",
    "bogoliubov.mismatch_derivative",
)

# Names the per-layer metrics read. One that a refactor removes is reported
# as 0 with a warning.
EXPECTED = (
    "fockspace.adaptive_cutoff",
    "fockspace.herm_eig",
    "hamiltonian.build_matrix",
    "device.SimulatedDevice.__init__",
    "protocol.rpe_estimate",
    "recovery.single_mode_pipeline",
    "bogoliubov.signal_measure",
    "bogoliubov.bisection_search",
    "bogoliubov.build_T",
    "bogoliubov.learn_firstq",
    "bogoliubov.normal_to_symmetrized",
    "cli.run",
    *REQUESTS,
    *STATE_PREP,
    *LEARNERS,
)


def _matrix_dim(result, args):
    return int(result.shape[0])


def _inconsistent_rounds(result, args):
    return len(result.inconsistent_rounds)


def _fallback_used(result, args):
    return int(bool(result.fallback_used))


# Per-name hooks that keep one value from a call's result or arguments.
CAPTURE = {
    "hamiltonian.build_matrix": _matrix_dim,
    "protocol.rpe_estimate": _inconsistent_rounds,
    "bogoliubov.bisection_search": _fallback_used,
}


class Tracer:
    """In-memory span recorder that patches bosonlearn while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.captured: dict[int, object] = {}
        self._stack = [-1]
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []
        self._device_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._device_serials = itertools.count()
        self.missing: list[str] = []

    # -- recording -----------------------------------------------------------

    def _intern(self, qualname: str) -> int:
        if qualname not in self._name_ids:
            self._name_ids[qualname] = len(self.names)
            self.names.append(qualname)
        return self._name_ids[qualname]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op_id = op_id
        return self._open(self._intern(ROOT))

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self._op_id = -1

    def _wrap(self, qualname: str, fn):
        name_id = self._intern(qualname)
        capture = CAPTURE.get(qualname)
        is_request = qualname in REQUESTS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if is_request:
                tracer.captured[idx] = tracer._state_key(args, kwargs)
            elif capture is not None:
                try:
                    tracer.captured[idx] = capture(result, args)
                except (AttributeError, TypeError, IndexError):
                    pass
            return result

        return traced

    def _state_key(self, args, kwargs):
        """(device, beta, frame_z) of a request: what a per-device energy cache would key on."""
        device = args[0]
        request = args[1] if len(args) > 1 else kwargs.get("request")
        serial = self._device_ids.get(device)
        if serial is None:
            serial = self._device_ids[device] = next(self._device_serials)
        return (serial, getattr(request, "beta", None), getattr(request, "frame_z", None))

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("bosonlearn")
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"bosonlearn.{short}")
            except ImportError:
                self._warn(f"module bosonlearn.{short} is gone; its metrics read 0")
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[obj])
        for short, classes in METHODS.items():
            mod = modules.get(short)
            for cls_name, methods in classes.items():
                cls = getattr(mod, cls_name, None)
                for method in methods:
                    original = cls.__dict__.get(method) if cls is not None else None
                    if original is None:
                        continue
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._wrap(f"{short}.{cls_name}.{method}", original))
        known = set(self.names)
        for name in EXPECTED:
            if name not in known and name not in self.missing:
                self.missing.append(name)
                self._warn(f"traced name {name} not found; its metrics read 0")

    def uninstall(self) -> None:
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    @staticmethod
    def _warn(message: str) -> None:
        print(f"perfbench warning: {message}", file=sys.stderr)

    # -- analysis ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-op totals, shares and percentiles over every recorded op."""
        if not self.start:
            return {}
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        op = np.asarray(self.op)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self_s = dur - child

        ids = {n: i for i, n in enumerate(self.names)}

        def mask(*names: str) -> np.ndarray:
            wanted = [ids[n] for n in names if n in ids]
            return np.isin(name, wanted)

        roots = mask(ROOT)
        n_ops = int(roots.sum())
        root_of_op = {int(op[i]): float(dur[i]) for i in np.flatnonzero(roots)}

        def per_op(values) -> float:
            return float(np.sum(values)) / n_ops

        def captured(m: np.ndarray) -> list:
            return [self.captured[i] for i in np.flatnonzero(m) if i in self.captured]

        def pct(values, q: float, scale: float) -> float:
            return float(np.percentile(values, q)) * scale if len(values) else 0.0

        modules = np.array([n.split(".", 1)[0] for n in self.names])[name]
        requests = mask(*REQUESTS)
        parent_is_request = nested & requests[np.maximum(parent, 0)]
        top_requests = requests & ~parent_is_request
        rpe = mask("protocol.rpe_estimate")
        cutoff = mask("fockspace.adaptive_cutoff")
        cli_runs = mask("cli.run")
        build = mask("hamiltonian.build_matrix")
        bisections = mask("bogoliubov.bisection_search")

        under_cli = np.zeros(len(dur), dtype=bool)
        for i in np.flatnonzero(cutoff):
            j = parent[i]
            while j >= 0 and not cli_runs[j]:
                j = parent[j]
            under_cli[i] = j >= 0

        states = captured(top_requests)
        fallbacks = captured(bisections)
        residual = 0.0
        for op_id, wall in root_of_op.items():
            residual = max(residual, abs(float(self_s[op == op_id].sum()) - wall) / wall)

        metrics = {
            "fockspace.adaptive_cutoff.calls": per_op(cutoff),
            "fockspace.adaptive_cutoff.self_s": per_op(self_s[cutoff]),
            "hamiltonian.build_matrix.calls": per_op(build),
            "hamiltonian.build_matrix.self_s": per_op(self_s[build]),
            "hamiltonian.build_matrix.max_dim": float(max(captured(build), default=0)),
            "fockspace.state_prep.calls": per_op(mask(*STATE_PREP)),
            "fockspace.state_prep.self_s": per_op(self_s[mask(*STATE_PREP)]),
            "fockspace.herm_eig.calls": per_op(mask("fockspace.herm_eig")),
            "fockspace.herm_eig.self_s": per_op(self_s[mask("fockspace.herm_eig")]),
            "device.init.calls": per_op(mask("device.SimulatedDevice.__init__")),
            "device.init.self_s": per_op(self_s[mask("device.SimulatedDevice.__init__")]),
            "device.requests": per_op(top_requests),
            "device.request.self_s": per_op(self_s[requests]),
            "device.request_us_p50": pct(dur[top_requests], 50, 1e6),
            "device.request_us_p99": pct(dur[top_requests], 99, 1e6),
            "device.distinct_state_share": len(set(states)) / len(states) if states else 0.0,
            "protocol.rpe.calls": per_op(rpe),
            "protocol.rpe.self_s": per_op(self_s[rpe]),
            "protocol.rpe_ms_p50": pct(dur[rpe], 50, 1e3),
            "protocol.rpe_ms_p99": pct(dur[rpe], 99, 1e3),
            "protocol.inconsistent_rounds": per_op(captured(rpe)),
            "protocol.learn.self_s": per_op(self_s[mask(*LEARNERS)]),
            "recovery.calls": per_op(modules == "recovery"),
            "recovery.single_mode_pipeline.calls": per_op(mask("recovery.single_mode_pipeline")),
            "bogoliubov.signal_evals": per_op(mask("bogoliubov.signal_measure")),
            "bogoliubov.fallback_share": statistics.fmean(fallbacks) if fallbacks else 0.0,
            "bogoliubov.build_T.calls": per_op(mask("bogoliubov.build_T")),
            "bogoliubov.build_T.self_s": per_op(self_s[mask("bogoliubov.build_T")]),
            "bogoliubov.search.self_s": per_op(self_s[mask(*SEARCH)]),
            "bogoliubov.exact_algebra.self_s": per_op(self_s[mask(*EXACT_ALGEBRA)]),
            "cli.adaptive_cutoff_calls_per_run": (
                float(under_cli.sum()) / float(cli_runs.sum()) if cli_runs.any() else 0.0
            ),
            "cli.run.self_s": per_op(self_s[cli_runs]),
        }
        for short in MODULES:
            metrics[f"{short}.self_s"] = per_op(self_s[modules == short])
        metrics["bench.self_s"] = per_op(self_s[roots])
        metrics["op_wall_s"] = per_op(dur[roots])
        metrics["trace.self_sum_residual_share"] = residual
        metrics["trace.spans_per_op"] = len(dur) / n_ops
        return metrics
