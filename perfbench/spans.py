"""Spans recorded from outside the program, around calls into each layer.

``Tracer.install`` replaces each traced function by a wrapper in every
``chiralpotts`` module that holds a reference to it, so calls inside a
module and calls through ``from .x import f`` are both seen.  Spans are
kept in memory as ``[name, start, end, parent, request]`` rows, written
out with the worker's result when a pass ends and aggregated by run.py.
The wrappers stay in place until the worker exits.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# Public functions of each layer that get a span.  cyclo arithmetic runs
# millions of times inside combi and stays inside the combi spans.
TRACED = {
    "drinfeld": ("lambda_counts", "solve_roots", "root_transforms"),
    "formfactor": (
        "couplings", "dhat_det", "dhat_closed", "order_param_sq",
        "overlap_product_closed", "psi1_brute", "psi1_closed",
    ),
    "combi": ("calG_table", "identity_check", "uqp_check", "ibi_check", "gen_function_pair"),
    "lattice": (
        "build_sector_transfer", "sector_spectrum", "build_hamiltonian",
        "product_spectra", "overlap_product", "pair_correlation",
    ),
}
# Dense eigen-solves, timed at the scipy.linalg boundary.
SCIPY_TRACED = ("eig", "eigh")


class Tracer:
    """Records one span per traced call while ``active`` is true."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.active = False
        self.counters: dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def add(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def peak(self, counter: str, value: float) -> None:
        self.counters[counter] = max(self.counters.get(counter, value), value)

    def wrap(self, name: str, fn, after=None):
        """A wrapper that records a span named ``name`` around ``fn`` and
        hands (args, result, missed) to ``after`` for counters; ``missed``
        says whether an lru-cached ``fn`` computed the result."""
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            misses = cache_info().misses if cache_info else 0
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if cache_info:
                missed = cache_info().misses > misses
                self.add(f"{name}.misses", int(missed))
            else:
                missed = True
            if after is not None:
                after(self, args, result, missed)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "chiralpotts" and not module_name.startswith("chiralpotts."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function of the layers imported so far."""
        for layer, names in TRACED.items():
            module = sys.modules.get(f"chiralpotts.{layer}")
            if module is None:
                continue
            for name in names:
                original = getattr(module, name)
                self._replace(original, self.wrap(f"{layer}.{name}", original, _AFTER.get(name)))
        if "chiralpotts.lattice" in sys.modules:
            import scipy.linalg

            for name in SCIPY_TRACED:
                original = getattr(scipy.linalg, name)
                setattr(scipy.linalg, name, self.wrap(f"lattice.{name}", original, _dense_bytes))


# ---------------------------------------------------------------------------
# counters taken at the same boundaries


def _solve_roots(tracer: Tracer, args, result, missed) -> None:
    if missed:
        tracer.add("drinfeld.roots_solved", len(result))


def _calG_table(tracer: Tracer, args, result, missed) -> None:
    tracer.add("combi.table_configs", result.n_configs)


def _uqp_check(tracer: Tracer, args, result, missed) -> None:
    tracer.add("combi.uqp_rows", result["checked"])


def _dhat_det(tracer: Tracer, args, result, missed) -> None:
    inp = args[0]
    residual = result[1]
    if residual > 0:
        import mpmath

        margin = float(mpmath.log10(residual)) + (inp.precision // 2) * math.log10(2)
        tracer.peak("formfactor.orthogonality_margin", margin)


def _build_sector_transfer(tracer: Tracer, args, result, missed) -> None:
    for block in result:
        tracer.peak("lattice.max_sector_dim", block.dim)


def _dense_bytes(tracer: Tracer, args, result, missed) -> None:
    arrays = [args[0], *(result if isinstance(result, tuple) else (result,))]
    tracer.peak("lattice.dense_bytes", sum(a.nbytes for a in arrays))


_AFTER = {
    "solve_roots": _solve_roots,
    "calG_table": _calG_table,
    "uqp_check": _uqp_check,
    "dhat_det": _dhat_det,
    "build_sector_transfer": _build_sector_transfer,
}


# ---------------------------------------------------------------------------
# aggregation


def summarize(spans: list[list]) -> dict:
    """Per span name: calls, inclusive seconds (outermost spans of that
    name only, so recursion is not counted twice) and self seconds (the
    span minus the spans directly below it)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for index, (name, start, end, parent, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += end - start
    return out


def request_cover(spans: list[list]) -> dict[int, tuple[float, float]]:
    """Per request: (duration of its root span, time its direct child
    spans cover)."""
    roots = {}
    covered: dict[int, float] = {}
    for index, (name, start, end, parent, request) in enumerate(spans):
        if parent < 0:
            roots[index] = request
    for name, start, end, parent, request in spans:
        if parent in roots:
            covered[roots[parent]] = covered.get(roots[parent], 0.0) + end - start
    return {
        request: (spans[index][2] - spans[index][1], covered.get(request, 0.0))
        for index, request in roots.items()
    }
