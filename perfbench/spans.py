"""Outside-in span recorder and the per-layer metrics computed from its spans.

The recorder never edits the program: it reassigns attributes of the loaded
`diffusim` modules (and the values of their module-level dict registries,
such as `discrete.SAMPLERS` and `verify.SUITES`) so that every public
function defined in a layer module runs inside a timing wrapper. Because a
name imported with `from .x import f` is a second binding of the same
function object, every binding of the object is replaced, in every module.

A span is [name, start, end, parent]; spans stay in a list in memory and
are written out once, when the operation ends. `harness.trial_rng` also
returns a counting proxy around the real generator, so the random stream is
unchanged while every draw is counted (the proxy's own cost lands inside the
sampler's spans).

What a wrapper does outside its own span (entering it, building and storing
the span, observing the result) is charged to the caller. `Recorder.install`
measures that cost per span on a wrapped no-op, and `layer_metrics` takes it
off every parent's self time once per direct child.
"""
from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time

LAYERS = ("cli", "harness", "graphs", "matrices", "continuous", "analysis", "discrete", "verify")
STEP_FUNCS = ("discrete.step_batch", "discrete.step_naive")
MATRIX_BUILDERS = ("matrices.lazy_rw_matrix", "matrices.metropolis_matrix",
                   "matrices.custom_matrix", "matrices.matrix_from_text")
SUITE_NAMES = ("dirichlet", "psi2", "conservation", "lemmas",
               "sampler-equivalence", "expectation", "prop1")
CALIBRATION_CALLS = 2000
CALIBRATION_REPEATS = 7


def _noop():
    return None


def replace_everywhere(orig, repl) -> None:
    """Rebind every module attribute and module-level dict value of the
    loaded diffusim modules that refers to `orig`."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "diffusim" or modname.startswith("diffusim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, repl)
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if item is orig:
                        value[key] = repl


class CountingRng:
    """Forwards to a numpy Generator and counts the values it returns."""

    def __init__(self, rng):
        self._rng = rng
        self.draws = 0
        self.scalar_draws = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            size = getattr(out, "size", 1)
            self.draws += int(size)
            if getattr(out, "ndim", 0) == 0:
                self.scalar_draws += 1
            return out

        return counted


class Recorder:
    """Holds the spans, the RNG proxies and the exact counters of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.rngs: list[CountingRng] = []
        self.psi2_t_stop = 0
        self.span_outer_s = 0.0
        self._matrices: dict[int, object] = {}

    def _observe(self, name: str, result):
        if name == "harness.trial_rng":
            proxy = CountingRng(result)
            self.rngs.append(proxy)
            return proxy
        if name == "analysis.local_p_divergence":
            self.psi2_t_stop += int(result.t_stop)
        elif name in MATRIX_BUILDERS:
            self._matrices.setdefault(id(result), result)
        return result

    def wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, self._observe
        is_step = name in STEP_FUNCS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if is_step and (kwargs.get("trace") or (len(args) > 3 and args[3])):
                label = name + "[trace]"
            idx = len(spans)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            return observe(name, result)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every loaded layer module."""
        for layer in LAYERS:
            mod = sys.modules.get(f"diffusim.{layer}")
            if mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != mod.__name__):
                    continue
                replace_everywhere(value, self.wrap(f"{layer}.{attr}", value))
        self.calibrate()

    def calibrate(self) -> None:
        """Set span_outer_s: the median over CALIBRATION_REPEATS loops of the
        time a wrapped no-op call costs its caller outside the no-op's span,
        net of the loop itself. The calibration spans are dropped."""
        wrapped = self.wrap("calibrate.noop", _noop)
        samples = []
        for _ in range(CALIBRATION_REPEATS):
            first = len(self.spans)
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                wrapped()
            t1 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                pass
            t2 = time.perf_counter()
            inside = sum(end - start for _, start, end, _ in self.spans[first:])
            samples.append((t1 - t0 - inside - (t2 - t1)) / CALIBRATION_CALLS)
            del self.spans[first:]
        self.span_outer_s = statistics.median(samples)

    def step_calls(self) -> int:
        return sum(span[0].split("[")[0] in STEP_FUNCS for span in self.spans)

    def layout_bytes(self) -> int:
        """Computed bytes of the array fields of every matrix built."""
        return sum(int(getattr(v, "nbytes", 0)) for m in self._matrices.values()
                   for v in vars(m).values() if hasattr(v, "nbytes"))

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "draws": sum(r.draws for r in self.rngs),
            "scalar_draws": sum(r.scalar_draws for r in self.rngs),
            "psi2_t_stop": self.psi2_t_stop,
            "layout_bytes": self.layout_bytes(),
            "span_outer_s": self.span_outer_s,
        }


# ---------------------------------------------------------------------------
# Parent side: per-layer metrics from a dumped recorder.
# ---------------------------------------------------------------------------


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _outermost_total(spans, by_name, names) -> float:
    """Summed duration of spans in `names` that no other such span encloses."""
    names = set(names)
    total = 0.0
    for i in (i for name in names for i in by_name.get(name, ())):
        _, start, end, parent = spans[i]
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def layer_metrics(dump: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from one traced operation."""
    spans, outer = dump["spans"], dump["span_outer_s"]
    own = [end - start for _, start, end, _ in spans]  # self time once children are off
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= end - start + outer
    self_s = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, list[int]] = {}
    for i, (name, _, _, _) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += own[i]
        by_name.setdefault(name, []).append(i)

    def names(prefix: str) -> list[str]:
        return sorted(n for n in by_name if n.startswith(prefix))

    def total(*wanted: str) -> float:
        return _outermost_total(spans, by_name, wanted)

    step_names = [n for n in names("discrete.step_") if n.split("[")[0] in STEP_FUNCS]
    step_us = [(e - s) * 1e6 for n, s, e, _ in spans if n in step_names]
    power_us = [(e - s) * 1e6 for n, s, e, _ in spans if n == "matrices.power_apply"]
    steps = len(step_us)
    loop_self = sum(own[i] for i in by_name.get("harness.run_experiment", ()))

    out: dict[str, tuple[float, str]] = {
        "harness.resolve_s": (total("harness.resolve"), "s"),
        "harness.loop_self_us_per_round": (loop_self * 1e6 / steps if steps else 0.0, "us"),
        "harness.write_csv_s": (total("harness.write_csv"), "s"),
        "graphs.build_s": (total(*names("graphs.")), "s"),
        "matrices.build_s": (total(*MATRIX_BUILDERS), "s"),
        "matrices.layout_bytes": (dump["layout_bytes"], "computed_bytes"),
        "matrices.second_eigenvalue_s": (total("matrices.second_eigenvalue"), "s"),
        "matrices.power_apply_calls": (len(power_us), "count"),
        "matrices.power_apply_us_p50": (_percentile(power_us, 50), "us"),
        "continuous.oracle_s": (total("continuous.continuous_run"), "s"),
        "analysis.psi2_s": (total("analysis.local_p_divergence"), "s"),
        "analysis.psi2_t_stop": (dump["psi2_t_stop"], "count"),
        "discrete.step_calls": (steps, "count"),
        "discrete.step_us_p50": (_percentile(step_us, 50), "us"),
        "discrete.step_us_p99": (_percentile(step_us, 99), "us"),
        "discrete.draws_per_round": (dump["draws"] / steps if steps else 0.0, "count"),
        "discrete.scalar_draws_per_round": (dump["scalar_draws"] / steps if steps else 0.0, "count"),
        "discrete.trace_step_s": (total(*[n for n in step_names if n.endswith("[trace]")]), "s"),
        "discrete.naive_step_s": (total(*names("discrete.step_naive")), "s"),
        "verify.check_step_trace_s": (total("verify.check_step_trace"), "s"),
        "trace.spans": (len(spans), "count"),
        "trace.span_overhead_us": (outer * 1e6, "us"),
    }
    for suite in SUITE_NAMES:
        fn = "suite_" + suite.replace("-", "_")
        out[f"verify.{suite}_s"] = (total(f"verify.{fn}"), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
    return out
