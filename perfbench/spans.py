"""Per-function spans installed from outside the program.

``install`` replaces each target function with a timing wrapper in every
``somatic_vae`` module namespace that binds it (the home module, modules
that imported it by name, the package ``__init__``), then checks that no
namespace still holds the unwrapped function. A missing target or a
binding that escaped the wrappers raises ``TraceError``: a dropped span
would silently move time into its caller's self time.

A span's self time is its duration minus the durations of the wrapped
calls it made.
"""

import importlib
import pkgutil
import statistics
import sys
import time
from functools import wraps

# module -> public functions the pipeline calls. gradcheck runs only in
# tests and seeding is negligible, so neither is wrapped.
TARGETS = {
    "cohort": ("ingest_profiles", "filter_low_frequency", "save_cohort", "load_cohort", "read_labels"),
    "layers": ("stack_forward", "stack_backward"),
    "losses": ("reconstruction_loss", "reconstruction_grad", "kl_divergence", "kl_grads"),
    "optim": ("rmsprop_update",),
    "vae": ("train", "build_vae", "encode_batch", "reconstruct_mu"),
    "metrics": ("micro_f1", "mean_cosine_similarity", "nmi", "fit_probe", "eval_probe"),
    "baselines": ("pca_fit", "pca_project", "kmeans_cluster"),
    "checkpoint": ("save_checkpoint", "load_checkpoint"),
    "cli": ("emit_history", "write_embeddings", "read_embeddings", "run"),
}

# functions called once per batch or epoch, for which per-call
# percentiles mean something; the others run a handful of times a pass
PER_CALL = (
    "layers.stack_forward", "layers.stack_backward",
    "losses.reconstruction_loss", "losses.reconstruction_grad",
    "losses.kl_divergence", "losses.kl_grads",
    "optim.rmsprop_update",
    "vae.encode_batch", "vae.reconstruct_mu",
    "metrics.micro_f1", "metrics.mean_cosine_similarity",
)

TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


class TraceError(RuntimeError):
    pass


class Tracer:
    def __init__(self):
        self.self_s = {}  # name -> per-call self seconds
        self.total_s = {}  # name -> per-call inclusive seconds
        self._open = []  # seconds spent in wrapped children, per open span

    def wrap(self, name, fn):
        self_s = self.self_s.setdefault(name, [])
        total_s = self.total_s.setdefault(name, [])
        open_spans = self._open
        clock = time.perf_counter

        @wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                self_s.append(elapsed - children)
                total_s.append(elapsed)
                if open_spans:
                    open_spans[-1] += elapsed

        return span

    def summary(self):
        """name -> calls, total self seconds, and for PER_CALL functions the
        median and the highest percentile with >= 10 samples beyond it
        (the maximum when there are fewer than 20 calls)."""
        out = {}
        for name, samples in self.self_s.items():
            row = {"calls": len(samples), "self_s": sum(samples)}
            if name in PER_CALL and samples:
                ordered = sorted(samples)
                n = len(ordered)
                row["p50_ms"] = 1e3 * _nearest_rank(ordered, 50.0)
                pct = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= 10), 100.0)
                row["tail_pct"] = pct
                row["tail_ms"] = 1e3 * _nearest_rank(ordered, pct)
            out[name] = row
        return out


def span_cost_s(calls=20000, trials=5):
    """Seconds a span adds to one call: a wrapped no-op against a bare one,
    median of `trials`. Multiplied by the spans recorded, this estimates
    the tracing overhead far more steadily than traced minus untraced
    wall time, which machine noise swamps."""

    def noop():
        return None

    wrapped = Tracer().wrap("noop", noop)

    def elapsed(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    return statistics.median(elapsed(wrapped) - elapsed(noop) for _ in range(trials)) / calls


def _nearest_rank(ordered, pct):
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _package_modules(package):
    pkg = importlib.import_module(package)
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{package}.{info.name}")
    prefix = package + "."
    return [m for name, m in sorted(sys.modules.items()) if name == package or name.startswith(prefix)]


def _bindings(modules, originals):
    """(module, attribute) pairs whose value is one of the originals, also
    one level inside module-level dicts, lists and tuples."""
    found = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in originals):
                found.append((module, attr))
            elif isinstance(value, dict):
                inner = value.values()
                if any(v is fn for v in inner for fn in originals):
                    found.append((module, f"{attr}[...]"))
            elif isinstance(value, (list, tuple)):
                if any(v is fn for v in value for fn in originals):
                    found.append((module, f"{attr}[...]"))
    return found


def install(tracer, package="somatic_vae"):
    """Wrap every TARGETS function wherever the package binds it."""
    modules = _package_modules(package)
    originals = {}
    for module_name, functions in TARGETS.items():
        home = sys.modules.get(f"{package}.{module_name}")
        if home is None:
            raise TraceError(f"wrap target module {package}.{module_name} is missing")
        for fn_name in functions:
            fn = getattr(home, fn_name, None)
            if not callable(fn) or getattr(fn, "__module__", None) != home.__name__:
                raise TraceError(f"wrap target {package}.{module_name}.{fn_name} is missing")
            originals[f"{module_name}.{fn_name}"] = fn
    plan = {name: _bindings(modules, [fn]) for name, fn in originals.items()}
    for name, bindings in plan.items():
        for module, attr in bindings:
            if attr.endswith("[...]"):
                raise TraceError(f"{module.__name__}.{attr} holds {name} inside a container")
    for name, bindings in plan.items():
        wrapped = tracer.wrap(name, originals[name])
        for module, attr in bindings:
            setattr(module, attr, wrapped)
    escaped = _bindings(modules, list(originals.values()))
    if escaped:
        where = ", ".join(f"{m.__name__}.{a}" for m, a in escaped)
        raise TraceError(f"unwrapped bindings remain: {where}")
