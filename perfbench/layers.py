"""Per-layer attribution from outside the package.

A layer is a wittcalc module.  The tracer wraps the public functions listed
in LAYERS and rebinds each wrapped function object wherever the package
holds it (module globals, module-level dicts such as verify.SUITES), so
calls between modules are counted too, e.g. witt's by-name import of
fields.sq_mul.  Self time is the time inside a call minus the time spent in
nested wrapped calls.  A call that raises is counted once per exception,
at the innermost wrapped function it left.
"""

from __future__ import annotations

import importlib
import sys
import time

LAYERS = {
    "fields": ("canonicalize", "sq_mul", "basis_factors", "hilbert_symbol"),
    "witt": (
        "lambda_power",
        "witt_mul",
        "make_witt",
        "witt_eq",
        "diagonalize",
        "signatures",
        "total_signature",
        "filtration_degree",
    ),
    "cohomology": ("symbol_normalize", "cup", "sw", "sw_mod", "is_zero"),
    "etale": ("trace_form", "power_sums"),
    "weyl": (
        "twist",
        "eval_aK",
        "eval_aL",
        "eval_r",
        "eval_u",
        "eval_v",
        "eval_v_prime",
        "lift_u",
        "lift_v_prime",
        "specialize_torsor",
    ),
    "lifting": ("e_extract", "decompose"),
    "verify": (
        "suite_lemma34",
        "suite_lambda_oracle",
        "suite_hilbert",
        "suite_trace_oracle",
        "suite_weyl_consistency",
        "suite_lift_roundtrip",
    ),
    "cli": ("run",),
}

FUNCTIONS = [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


class Tracer:
    """Call counts, self time and raised calls per wrapped function."""

    def __init__(self) -> None:
        self.calls = {key: 0 for key in FUNCTIONS}
        self.self_ns = {key: 0 for key in FUNCTIONS}
        self.raised = {module: 0 for module in LAYERS}
        self._child_ns: list[int] = []  # per open call, time in nested calls
        self._last_raised: BaseException | None = None
        self._undo: list[tuple] = []  # (setter, holder, key, original)

    def _wrap(self, module: str, key: str, fn):
        calls, self_ns, child_ns = self.calls, self.self_ns, self._child_ns
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            calls[key] += 1
            child_ns.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if exc is not self._last_raised:
                    self._last_raised = exc
                    self.raised[module] += 1
                raise
            finally:
                dt = clock() - t0
                self_ns[key] += dt - child_ns.pop()
                if child_ns:
                    child_ns[-1] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for module, names in LAYERS.items():
            mod = importlib.import_module(f"wittcalc.{module}")
            for name in names:
                fn = getattr(mod, name)
                wrappers[id(fn)] = (fn, self._wrap(module, f"{module}.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "wittcalc" or mod_name.startswith("wittcalc.")):
                continue
            for attr, value in list(vars(mod).items()):
                self._rebind(wrappers, mod, attr, value, setattr)
                if isinstance(value, dict):
                    for k, v in list(value.items()):
                        self._rebind(wrappers, value, k, v, dict.__setitem__)

    def _rebind(self, wrappers, holder, key, value, setter) -> None:
        hit = wrappers.get(id(value))
        if hit is not None and hit[0] is value:
            setter(holder, key, hit[1])
            self._undo.append((setter, holder, key, value))

    def uninstall(self) -> None:
        for setter, holder, key, value in reversed(self._undo):
            setter(holder, key, value)
        self._undo.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        out: dict[str, tuple[float, str]] = {}
        for key in FUNCTIONS:
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_ms"] = (self.self_ns[key] / 1e6, "ms")
        for module, n in self.raised.items():
            out[f"{module}.raised"] = (n, "count")
        return out
