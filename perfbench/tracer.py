"""Per-layer tracing of halfjac, installed from outside the package.

The tracer wraps the public functions and methods of each layer and
rebinds every name that refers to them in every loaded halfjac module.
That matters because modules bind names at import (`halving` does
`from .jacobian import double`), so patching only the defining module
would miss those calls.

Spans are aggregated per (function, parent function) rather than stored
one by one, since a single pass makes millions of field calls. Each
aggregate holds the call count, the total time, the self time (total
minus the time covered by child spans) and the longest single call.
"""

import sys
import time
from collections import Counter

# (span name, module, class or None for a module function, attribute names)
TARGETS = (
    ("field.mul", "halfjac.field", "FieldElement", ("__mul__", "__rmul__")),
    ("field.inv", "halfjac.field", "FieldElement",
     ("inv", "__truediv__", "__rtruediv__")),
    ("field.sqrt", "halfjac.field", None, ("sqrt",)),
    ("field.is_square", "halfjac.field", None, ("is_square",)),
    ("field.quadratic_extension", "halfjac.field", None, ("quadratic_extension",)),
    ("field.ff_make", "halfjac.field", None, ("ff_make",)),
    ("poly.mul", "halfjac.poly", "Polynomial", ("__mul__", "__rmul__")),
    ("poly.divrem", "halfjac.poly", "Polynomial", ("divrem",)),
    ("poly.gcd_xgcd", "halfjac.poly", None, ("gcd_xgcd",)),
    ("poly.eval", "halfjac.poly", "Polynomial", ("eval",)),
    ("poly.symmetric_functions", "halfjac.poly", None, ("symmetric_functions",)),
    ("poly.roots_in_field", "halfjac.poly", None, ("roots_in_field",)),
    ("jacobian.add", "halfjac.jacobian", None, ("add",)),
    ("jacobian.double", "halfjac.jacobian", None, ("double",)),
    ("jacobian.order", "halfjac.jacobian", None, ("order",)),
    ("jacobian.scalar_mul", "halfjac.jacobian", None, ("scalar_mul",)),
    ("jacobian.enumerate_points", "halfjac.jacobian", None, ("enumerate_points",)),
    ("jacobian.enumerate_theta", "halfjac.jacobian", None, ("enumerate_theta",)),
    ("halving.sqrt_choices", "halfjac.halving", None, ("sqrt_choices",)),
    ("halving.half_from_signs", "halfjac.halving", None, ("half_from_signs",)),
    ("halving.halve_point", "halfjac.halving", None, ("halve_point",)),
    ("halving.lift_to_sqrt_field", "halfjac.halving", None, ("lift_to_sqrt_field",)),
    ("halving.recover_signs", "halfjac.halving", None, ("recover_signs",)),
    ("theorems.run_battery", "halfjac.theorems", None, ("run_battery",)),
    ("theorems.check_small_order_absence", "halfjac.theorems", None,
     ("check_small_order_absence",)),
    ("theorems.check_order_2g_plus_1", "halfjac.theorems", None,
     ("check_order_2g_plus_1",)),
    ("theorems.check_notheta", "halfjac.theorems", None, ("check_notheta",)),
    ("theorems.check_two_torsion_halving", "halfjac.theorems", None,
     ("check_two_torsion_halving",)),
    ("cli.main", "halfjac.cli", None, ("main",)),
)

SPANS = tuple(t[0] for t in TARGETS)
LAYERS = ("field", "poly", "jacobian", "halving", "theorems", "cli")

# Children of half_from_signs that only verify the closed-form result:
# the gcd with f, the divisibility test and the Cantor double (an add).
VERIFY_CHILDREN = ("poly.gcd_xgcd", "poly.divrem", "jacobian.double", "jacobian.add")


class Tracer:
    """Aggregated spans over the halfjac layers; use as a context manager."""

    def __init__(self):
        self.stats = {}            # (name, parent name) -> [calls, total, self, max]
        self.errors = Counter()    # layer -> exceptions escaping its wrapped calls
        self.lifts = 0
        self.lifted = 0
        self._stack = []           # open spans: [name, child time]
        self._undo = []            # (owner, attribute, original value)

    def _wrap(self, name, fn):
        stack, stats, errors = self._stack, self.stats, self.errors
        clock = time.perf_counter
        layer = name.split(".", 1)[0]
        lift = name == "halving.lift_to_sqrt_field"

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                key = (name, parent[0] if parent is not None else None)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if elapsed > rec[3]:
                    rec[3] = elapsed
                if parent is not None:
                    parent[1] += elapsed
            if lift:
                self.lifts += 1
                self.lifted += result[0] is not args[0]
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "halfjac" or n.startswith("halfjac."))]
        for name, module_name, class_name, attrs in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if class_name is not None:
                owner = getattr(module, class_name)
                wrappers = {}       # aliases such as __rmul__ = __mul__ share one
                for attr in attrs:
                    original = owner.__dict__[attr]
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self._wrap(name, original)
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, wrappers[id(original)])
                continue
            original = getattr(module, attrs[0])
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, value))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def _sum(self, name, parent=None, field=1):
        return sum(rec[field] for (n, p), rec in self.stats.items()
                   if n == name and (parent is None or p == parent))

    def metrics(self):
        """Per-layer metrics: .calls and .self_s per span plus the ratios."""
        out = {}
        for name in SPANS:
            out[name + ".calls"] = (self._sum(name, field=0), "count")
            out[name + ".self_s"] = (self._sum(name, field=2), "s")
        sqrt_max = max((rec[3] for (n, _), rec in self.stats.items()
                        if n == "field.sqrt"), default=0.0)
        out["field.sqrt.max_ms"] = (sqrt_max * 1e3, "ms")
        out["jacobian.order.adds"] = (
            self._sum("jacobian.add", "jacobian.order", field=0), "count")
        halves_s = self._sum("halving.half_from_signs")
        verify_s = sum(self._sum(c, "halving.half_from_signs") for c in VERIFY_CHILDREN)
        out["halving.verify_share"] = (verify_s / halves_s if halves_s else 0.0, "ratio")
        out["halving.lifted_share"] = (
            self.lifted / self.lifts if self.lifts else 0.0, "ratio")
        main_s = self._sum("cli.main")
        order_s = self._sum("jacobian.order", "cli.main")
        out["cli.order_share"] = (order_s / main_s if main_s else 0.0, "ratio")
        for layer in LAYERS:
            out[layer + ".errors"] = (self.errors[layer], "count")
        return out

    def span_table(self):
        """The aggregated spans as JSON-ready rows, largest total first."""
        rows = [{"span": n, "parent": p, "calls": r[0], "total_s": r[1],
                 "self_s": r[2], "max_s": r[3]}
                for (n, p), r in self.stats.items()]
        rows.sort(key=lambda row: -row["total_s"])
        return rows
