"""Aggregating span tracer, installed at run time on posetlab's public functions.

Spans are aggregated per name (calls, self seconds) instead of being stored
one record per call: the search workload makes hundreds of thousands of
checker calls.  A span's self time is its duration minus the time covered by
the spans it encloses.  Wrappers only record while a root span is open, so
the benchmark's own checks and bookkeeping between operations stay untraced.
"""

from __future__ import annotations

import inspect
import sys
import types
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, function, span name); every ``check_*`` of inequalities shares one span
LAYER_FUNCTIONS = (
    ("posets", "build", "posets.build"),
    ("posets", "params", "posets.params"),
    ("search", "run", "search.run"),
    ("search", "random_instance", "search.random_instance"),
    ("search", "verify_certificate", "search.verify_certificate"),
    ("extensions", "f_table", "extensions.f_table"),
    ("extensions", "f_table_signed", "extensions.f_table_signed"),
    ("extensions", "n_vector", "extensions.n_vector"),
    ("extensions", "enumerate_extensions", "extensions.enumerate_extensions"),
    ("vanishing", "support", "vanishing.support"),
    ("injections", "verify_injections", "injections.verify_injections"),
    ("injections", "certify_map", "injections.certify_map"),
    ("injections", "certify_stanley", "injections.certify_stanley"),
    ("geometry", "volume_formula", "geometry.volume_formula"),
    ("geometry", "volume_mc", "geometry.volume_mc"),
)
CHECK_SPAN = "inequalities.check"
DP_SPANS = ("extensions.f_table", "extensions.f_table_signed", "extensions.n_vector")
ROOT_SPAN = "root"


class Tracer:
    """Per-name span totals plus exact counts gathered at layer boundaries."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, self_s]
        self.counts: Counter = Counter()
        self.dp_calls: list = []  # (poset, result) of every DP call, inspected after the run
        self._stack: list[list] = []  # open spans: [name, start, enclosed_s]

    @property
    def active(self) -> bool:
        return bool(self._stack)

    def enter(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self, calls: int = 1) -> float:
        name, start, enclosed = self._stack.pop()
        duration = perf_counter() - start
        entry = self.stats.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += duration - enclosed
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextmanager
    def root(self):
        self.enter(ROOT_SPAN)
        try:
            yield
        finally:
            self.exit()

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]


def _wrap_call(tracer: Tracer, name: str, fn):
    is_check = name == CHECK_SPAN
    is_dp = name in DP_SPANS

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
            if is_check and result.verdict == "fails":
                tracer.counts["inequalities.fails"] += 1
            elif is_dp:
                tracer.dp_calls.append((args[0], result))
            return result
        finally:
            tracer.exit()

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    """Time a generator over its whole iteration: every resumption is a
    segment of the same span, so the consumer's work between items is not
    charged to the generator."""

    def segments(gen):
        calls = 1
        while True:
            tracer.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.exit(calls)
                calls = 0
            tracer.counts[name + ".items"] += 1
            yield item

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return segments(fn(*args, **kwargs))

    return traced


def install(tracer: Tracer, mods) -> list:
    """Replace every binding of a layer function that a caller can look up:
    module globals (including names imported with ``from x import f``) and
    values of module-level dicts such as ``search._CHECKERS`` and
    ``inequalities.TABLE_CHECKS``.  Returns the patches for ``uninstall``."""
    wrappers = {}
    for module, attr, name in LAYER_FUNCTIONS:
        fn = getattr(getattr(mods, module), attr)
        wrap = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap_call
        wrappers[fn] = wrap(tracer, name, fn)
    for attr, fn in vars(mods.inequalities).items():
        if attr.startswith("check_") and isinstance(fn, types.FunctionType):
            wrappers[fn] = _wrap_call(tracer, CHECK_SPAN, fn)

    patches = []
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "posetlab" and not mod_name.startswith("posetlab."):
            continue
        for key, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in wrappers:
                setattr(module, key, wrappers[value])
                patches.append((vars(module), key, value))
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if isinstance(v, types.FunctionType) and v in wrappers:
                        value[k] = wrappers[v]
                        patches.append((value, k, v))
    return patches


def uninstall(patches: list) -> None:
    for namespace, key, original in patches:
        namespace[key] = original
