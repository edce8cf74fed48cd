"""Span tracing of the program's public entry points, installed from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) and per-layer counters, and
``uninstall`` puts the originals back.  Nothing in the program is edited:

* a module-level function is replaced in every ``russell`` module that holds
  it, because ``from .derivations import flow`` binds the name a second time;
* a method is replaced under every class attribute that holds it, so aliases
  such as ``Poly.__rmul__ = __mul__`` and ``Derivation.__call__ = apply`` are
  traced too.

``Poly.__add__`` and ``Fraction`` arithmetic stay unwrapped: they are too
fine-grained for a span each.

Self time is a span's duration minus the time covered by its child spans,
accumulated on a stack as the spans close.  Spans are kept in memory up to
``MAX_SPANS`` and written out at the end; counters cover every span.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, function, span name) for module-level functions.
FUNCTIONS = (
    ("russell.parse", "parse", "parse.parse"),
    ("russell.quotient", "oracle_equal", "quotient.oracle_equal"),
    ("russell.weights", "deg", "weights.deg"),
    ("russell.weights", "deg_laurent_oracle", "weights.deg_laurent_oracle"),
    ("russell.weights", "gr", "weights.gr"),
    ("russell.derivations", "lnd_bounded", "derivations.lnd_bounded"),
    ("russell.derivations", "flow", "derivations.flow"),
    ("russell.derivations", "compose", "derivations.compose"),
    ("russell.derivations", "specialize", "derivations.specialize"),
    ("russell.derivations", "conjugate", "derivations.conjugate"),
    ("russell.derivations", "make_derivation", "derivations.make_derivation"),
    ("russell.derivations", "make_endomorphism", "derivations.make_endomorphism"),
    ("russell.derivations", "induced_graded", "derivations.induced_graded"),
    ("russell.derivations", "kernel_chain", "derivations.kernel_chain"),
    ("russell.derivations", "invariance_check", "derivations.invariance_check"),
    ("russell.sampling", "random_poly", "sampling.random_poly"),
    ("russell.cli", "main", "cli.main"),
)

# (module, class, attribute, span name) for methods; aliases follow.
METHODS = (
    ("russell.poly", "Poly", "__mul__", "poly.mul"),
    ("russell.poly", "Poly", "__pow__", "poly.pow"),
    ("russell.poly", "Poly", "substitute", "poly.substitute"),
    ("russell.poly", "Poly", "evaluate", "poly.evaluate"),
    ("russell.poly", "Poly", "__str__", "poly.str"),
    ("russell.quotient", "QuotientRing", "reduce", "quotient.reduce"),
    ("russell.quotient", "QuotientRing", "nf", "quotient.nf"),
    ("russell.quotient", "RingElement", "__mul__", "quotient.elem_mul"),
    ("russell.quotient", "RingElement", "__pow__", "quotient.elem_mul"),
    ("russell.derivations", "Derivation", "apply", "derivations.apply"),
    ("russell.derivations", "RingEndomorphism", "apply", "derivations.endo_apply"),
)

# Every verifier function whose name starts with one of these is one check;
# its span is named after the id of the result it returns.
CHECK_PREFIXES = ("check_", "_random_")

OP_SPAN = "op"

# Spans kept for the trace file; the counters cover every span regardless.
MAX_SPANS = 100_000


class Stat:
    __slots__ = ("calls", "self_ns", "total_ns", "units_in", "units_out")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.units_in = 0
        self.units_out = 0


def _terms(value) -> int:
    terms = getattr(value, "terms", None)
    return len(terms) if isinstance(terms, dict) else 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.rings_seen: set = set()
        self.lnd_unknown = 0
        self.orbit_steps = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_index = -1
        self._next_id = 0
        # one frame per open span: [span id, child nanoseconds]
        self._stack: list[list[int]] = [[-1, 0]]
        self._patches = self._plan()
        self._installed = False

    # -- spans -----------------------------------------------------------------

    def _enter(self) -> list[int]:
        frame = [self._next_id, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list[int], start: int, end: int) -> Stat:
        self._stack.pop()
        duration = end - start
        parent = self._stack[-1]
        parent[1] += duration
        stat = self.stats[name]
        stat.calls += 1
        stat.self_ns += duration - frame[1]
        stat.total_ns += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((frame[0], name, start, end, parent[0], self.op_index))
        else:
            self.dropped += 1
        return stat

    def run_op(self, fn, *args):
        """Run one operation under a root span, with the wrappers installed."""
        self.op_index += 1
        self.install()
        try:
            frame = self._enter()
            start = perf_counter_ns()
            try:
                return fn(*args)
            finally:
                self._exit(OP_SPAN, frame, start, perf_counter_ns())
        finally:
            self.uninstall()

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(name, frame, start, perf_counter_ns())
                raise
            stat = exit_(name, frame, start, perf_counter_ns())
            if after is not None:
                after(stat, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_check(self, fn):
        """A verifier check: the span is named after the returned check id."""
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                exit_(f"verifier.{fn.__name__}", frame, start, perf_counter_ns())
                raise
            exit_(f"verifier.{result.id}", frame, start, perf_counter_ns())
            return result

        traced.__wrapped__ = fn
        return traced

    def _after(self, name: str):
        if name == "poly.mul":
            def after(stat, args, result):
                stat.units_out += _terms(result)
        elif name == "parse.parse":
            def after(stat, args, result):
                stat.units_in += len(args[0])
        elif name == "quotient.reduce":
            def after(stat, args, result):
                self.rings_seen.add(args[0])
                stat.units_in += _terms(args[1])
                stat.units_out += _terms(result)
        elif name == "derivations.lnd_bounded":
            def after(stat, args, result):
                if result.verdict != "LocallyNilpotent":
                    self.lnd_unknown += 1
                self.orbit_steps += sum(k for k in result.orders.values() if k is not None)
        else:
            after = None
        return after

    # -- install / uninstall ---------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """Every (owner, attribute, original, wrapper) to swap; needs russell imported."""
        plan = []

        def everywhere(original, wrapper):
            for modname, module in list(sys.modules.items()):
                if module is None or not (modname == "russell" or modname.startswith("russell.")):
                    continue
                for attr, value in vars(module).items():
                    if value is original:
                        plan.append((module, attr, original, wrapper))

        # a module the workload never imported cannot be called, so it is skipped
        for modname, func, name in FUNCTIONS:
            if modname in sys.modules:
                original = getattr(sys.modules[modname], func)
                everywhere(original, self._wrap(name, original, self._after(name)))
        verifier = sys.modules.get("russell.verifier")
        for attr, original in list(vars(verifier).items()) if verifier else ():
            if (attr.startswith(CHECK_PREFIXES) and callable(original)
                    and getattr(original, "__module__", None) == verifier.__name__):
                everywhere(original, self._wrap_check(original))
        for modname, clsname, attr, name in METHODS:
            if modname not in sys.modules:
                continue
            cls = getattr(sys.modules[modname], clsname)
            original = vars(cls)[attr]
            wrapper = self._wrap(name, original, self._after(name))
            plan += [(cls, alias, original, wrapper)
                     for alias, value in vars(cls).items() if value is original]
        return plan

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self._installed = False

    # -- results ---------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Spans as JSON lines: id, name, start_ns, end_ns, parent id, op index."""
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# -- per-layer metrics ---------------------------------------------------------

CALLS_AND_SELF = (
    "poly.mul", "poly.pow", "poly.substitute", "poly.evaluate", "poly.str",
    "parse.parse", "quotient.reduce", "quotient.elem_mul", "quotient.oracle_equal",
    "weights.deg", "weights.deg_laurent_oracle", "weights.gr",
    "derivations.apply", "derivations.endo_apply", "derivations.lnd_bounded",
    "derivations.flow", "derivations.compose", "derivations.specialize",
    "derivations.conjugate", "derivations.make_derivation",
    "derivations.make_endomorphism", "derivations.induced_graded",
    "derivations.kernel_chain", "derivations.invariance_check",
    "sampling.random_poly", "cli.main",
)


def per_layer_spec(check_ids) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in CALLS_AND_SELF:
        spec.append((f"{name}.calls", "calls/op", "lower"))
        spec.append((f"{name}.self_ms", "ms/op", "lower"))
        if name == "poly.mul":
            spec.append(("poly.mul.terms_out", "terms/op", "lower"))
        elif name == "parse.parse":
            spec.append(("parse.parse.chars_in", "chars/op", "lower"))
        elif name == "quotient.reduce":
            spec.append(("quotient.reduce.terms_in", "terms/op", "lower"))
            spec.append(("quotient.reduce.terms_out", "terms/op", "lower"))
            spec.append(("quotient.nf.calls", "calls/op", "lower"))
            spec.append(("quotient.rings_seen", "count", "lower"))
        elif name == "derivations.lnd_bounded":
            spec.append(("derivations.lnd_bounded.unknown_ratio", "ratio", "lower"))
            spec.append(("derivations.apply_per_orbit_step", "ratio", "lower"))
    spec += [(f"verifier.{cid}.ms", "ms/op", "lower") for cid in check_ids]
    spec.append(("op.self_ms", "ms/op", "lower"))
    spec.append(("trace.overhead_ratio", "ratio", "lower"))
    return spec


def per_layer_values(tracer: Tracer, ops: int, overhead_ratio: float) -> dict[str, float]:
    """Counters and self times per traced op; ratios and rings_seen over the run.

    A layer the workload never calls reads 0, and so does a ratio whose base
    is 0 (no lnd_bounded call).
    """
    stats = tracer.stats
    ms = 1e-6 / ops
    values: dict[str, float] = {}
    for name in CALLS_AND_SELF + ("quotient.nf", OP_SPAN):
        stat = stats.get(name, Stat())
        values[f"{name}.calls"] = stat.calls / ops
        values[f"{name}.self_ms"] = stat.self_ns * ms
    values["poly.mul.terms_out"] = stats["poly.mul"].units_out / ops
    values["parse.parse.chars_in"] = stats["parse.parse"].units_in / ops
    values["quotient.reduce.terms_in"] = stats["quotient.reduce"].units_in / ops
    values["quotient.reduce.terms_out"] = stats["quotient.reduce"].units_out / ops
    values["quotient.rings_seen"] = len(tracer.rings_seen)
    lnd_calls = stats["derivations.lnd_bounded"].calls
    values["derivations.lnd_bounded.unknown_ratio"] = (
        tracer.lnd_unknown / lnd_calls if lnd_calls else 0.0)
    values["derivations.apply_per_orbit_step"] = (
        stats["derivations.apply"].calls / tracer.orbit_steps if tracer.orbit_steps else 0.0)
    for name, stat in stats.items():
        if name.startswith("verifier."):
            values[f"{name}.ms"] = stat.total_ns * ms
    values["trace.overhead_ratio"] = overhead_ratio
    return values
