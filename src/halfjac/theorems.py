"""Brute-force verifiers for torsion statements about these Jacobians.

Each check enumerates a finite set of rational objects on a concrete
curve and tests a consequence of one theorem on every one of them.  A
clean run is evidence that the implementation is consistent with the
theorem; it is not a proof of the theorem, and the reports say so.
All checks return a TheoremReport whose violations list is empty
exactly when every examined instance behaved as predicted.  Errors are
reserved for preconditions (wrong genus, characteristic dividing the
degree, a curve that does not exist over the requested field), never
for mathematical surprises. The order statements use the library's
order() with the bound as its cap, and the halving check uses
halve_point, so the battery exercises the same code that users call.

The statements exercised here:

 - small_order_absence: for g >= 2 no point of the embedded curve has
   order m with 3 <= m <= 2g in the Jacobian.
 - order_2g_plus_1: on y^2 = x^(2g+1) + b^2 with b != 0 the point
   (0, b) has order exactly 2g + 1, provided the characteristic does
   not divide 2g + 1 and the curve polynomial splits.
 - notheta: no nonzero curve point is twice a class of degree at most
   g - 1; equivalently doubling a class of the theta set lands on the
   embedded curve only at the identity.  For g = 2 this specializes to
   an exact description of the classes that stay on the curve after
   doubling: the identity and the Weierstrass classes.
 - two_torsion_halving: every two-torsion class, viewed over the
   extension where the halving square roots live, has 2^(2g) halves
   and each half has order exactly 4.
"""

import itertools
import time

from .errors import (CapExceeded, CharacteristicDividesDegree, DoesNotSplit,
                     InvalidInput)
from .field import field_spec, parse_element, parse_field_spec
from .halving import halve_point, lift_to_sqrt_field
from .jacobian import (
    CurvePoint,
    MumfordDivisor,
    curve_from_coeffs,
    curve_spec,
    double,
    embed_point,
    enumerate_points,
    enumerate_theta,
    mumford_to_json,
    order,
    parse_curve_spec,
)


class TheoremReport:
    """Outcome of one verifier run on one instance.

    violations is a list of JSON-ready dicts, one per instance that
    contradicted the predicted behaviour; empty means the run is
    consistent with the theorem.  elapsed is wall-clock seconds and is
    deliberately left out of to_json so serialized reports compare
    equal across runs.
    """

    __slots__ = ("theorem_id", "curve_spec", "field_spec", "params",
                 "instances_checked", "violations", "elapsed")

    def __init__(self, theorem_id, curve_spec, field_spec,
                 instances_checked, violations, elapsed, params=None):
        self.theorem_id = theorem_id
        self.curve_spec = curve_spec
        self.field_spec = field_spec
        self.params = dict(params) if params else {}
        self.instances_checked = instances_checked
        self.violations = violations
        self.elapsed = elapsed

    def passed(self):
        return not self.violations

    def to_json(self):
        parameters = {}
        if self.curve_spec is not None:
            parameters["curve"] = self.curve_spec
        parameters["field"] = self.field_spec
        parameters.update(self.params)
        return {"theorem_id": self.theorem_id,
                "parameters": parameters,
                "counts": {"instances_checked": self.instances_checked},
                "violations": self.violations}

    def __repr__(self):
        state = "pass" if self.passed() else "%d violations" % len(self.violations)
        return "TheoremReport(%s, %s, %d checked, %s)" % (
            self.theorem_id, self.curve_spec or self.field_spec,
            self.instances_checked, state)


def _order_at_most(d, bound):
    """The order of d when it is at most bound, else None."""
    try:
        return order(d, cap=bound)
    except CapExceeded:
        return None


def check_small_order_absence(curve):
    """No rational curve point has Jacobian order in [3, 2g] (g >= 2)."""
    if curve.g < 2:
        raise InvalidInput("small_order_absence needs genus >= 2, got %d" % curve.g)
    start = time.perf_counter()
    violations = []
    points = enumerate_points(curve)
    for P in points:
        n = _order_at_most(embed_point(P), 2 * curve.g)
        if n is not None and n >= 3:
            violations.append({"point": str(P), "order": n})
    return TheoremReport("small_order_absence", curve_spec(curve),
                         field_spec(curve.field), len(points), violations,
                         time.perf_counter() - start)


def _splitting_degree(field, n, c):
    """Minimal d with x^n - c split over the degree-d extension (p does not divide n).

    That is the least d with n | q^d - 1 and c^((q^d - 1)/n) = 1: the
    extension then holds the n-th roots of unity and an n-th root of c.
    It exists because q is invertible modulo n times the order of c."""
    d = 1
    while (field.q ** d - 1) % n or c ** ((field.q ** d - 1) // n) != field.one():
        d += 1
    return d


def check_order_2g_plus_1(field, g, b):
    """On y^2 = x^(2g+1) + b^2 the point (0, b) has order exactly 2g + 1."""
    if g < 1:
        raise InvalidInput("order_2g_plus_1 needs genus >= 1, got %r" % (g,))
    start = time.perf_counter()
    n = 2 * g + 1
    b = field(b)
    if b.is_zero():
        raise InvalidInput("b must be nonzero; b = 0 gives a two-torsion point")
    if n % field.p == 0:
        raise CharacteristicDividesDegree(
            "characteristic %d divides 2g + 1 = %d" % (field.p, n))
    # x^n + b^2 is squarefree: its derivative n x^(n-1) vanishes only at 0
    try:
        curve = curve_from_coeffs(field, [b * b] + [0] * (n - 1) + [1])
    except DoesNotSplit:
        raise DoesNotSplit(
            "x^%d + b^2 does not split over %s; it splits over the extension "
            "of degree %d" % (n, field_spec(field),
                              _splitting_degree(field, n, -(b * b)))) from None
    got = _order_at_most(embed_point(CurvePoint(curve, field.zero(), b)), 2 * n)
    violations = []
    if got != n:
        violations.append({"expected_order": n, "first_annihilator": got})
    return TheoremReport("order_2g_plus_1", curve_spec(curve),
                         field_spec(field), 1, violations,
                         time.perf_counter() - start,
                         params={"g": g, "b": str(b)})


def check_notheta(curve):
    """Doubling a class of degree <= g - 1 meets the curve only at 0 (g >= 2).

    Doubles every rational theta class of degree up to g - 1 and flags
    any whose double reduces to degree <= 1 without being the identity.
    Enumerating the classes costs far more than doubling them, so every
    class is checked.  For g = 2 additionally pins down the full
    intersection: the classes of Theta_1 whose double is again in
    Theta_1 are exactly the identity and the Weierstrass classes.
    """
    if curve.g < 2:
        raise InvalidInput("notheta needs genus >= 2, got %d" % curve.g)
    start = time.perf_counter()
    doubles = {a: double(a) for a in enumerate_theta(curve, curve.g - 1)}
    violations = [{"class": mumford_to_json(a), "double": mumford_to_json(twice)}
                  for a, twice in doubles.items()
                  if twice.U.degree <= 1 and not twice.is_identity()]
    if curve.g == 2:
        stays = {a for a, twice in doubles.items() if twice in doubles}
        expected = {MumfordDivisor.identity(curve)}
        for alpha in curve.alphas:
            expected.add(embed_point(CurvePoint(curve, alpha,
                                                curve.field.zero())))
        for a in sorted(stays ^ expected, key=lambda d: str(d)):
            side = "extra" if a in stays else "missing"
            violations.append({"curve_after_doubling": side,
                               "class": mumford_to_json(a)})
    return TheoremReport("notheta", curve_spec(curve),
                         field_spec(curve.field), len(doubles), violations,
                         time.perf_counter() - start)


def check_two_torsion_halving(curve):
    """Each Weierstrass class has 2^(2g) halves, all of order exactly 4.

    Works over the smallest extension where the square roots needed by
    the halving formulas exist. The halves are already proven by their
    certificate when they are built, and halve_point refuses anything
    but 2^(2g) distinct ones. Here W is shown to have order 2 once per
    root, and one group-law double per half checks 2h = W again
    independently, which makes the order of h exactly 4.
    """
    start = time.perf_counter()
    violations = []
    checked = 0
    zero = curve.field.zero()
    for alpha in curve.alphas:
        W = CurvePoint(curve, alpha, zero)
        curve2, W2 = lift_to_sqrt_field(curve, W)
        target = embed_point(W2)
        order_2 = not target.is_identity() and double(target).is_identity()
        for h in halve_point(curve2, W2):
            checked += 1
            if not (order_2 and double(h.mumford) == target):
                violations.append({"weierstrass": str(W),
                                   "half": mumford_to_json(h.mumford),
                                   "problem": "order is not 4"})
    return TheoremReport("two_torsion_halving", curve_spec(curve),
                         field_spec(curve.field), checked, violations,
                         time.perf_counter() - start)


def matrix_curves(g, p, cap):
    """First cap root sets of size 2g + 1 from {0, .., p-1}, lexicographic."""
    return list(itertools.islice(
        itertools.combinations(range(p), 2 * g + 1), cap))


def _curve_spec_text(p, roots):
    return "field=%d;alphas=%s" % (p, ",".join(str(r) for r in roots))


def _default_config():
    small = []
    for g, cap in ((2, 2), (3, 1)):
        for p in (7, 11, 13):
            for roots in matrix_curves(g, p, cap):
                small.append(_curve_spec_text(p, roots))
    notheta = []
    for p in (7, 11, 13):
        for roots in matrix_curves(2, p, 2):
            notheta.append(_curve_spec_text(p, roots))
    notheta.append(_curve_spec_text(7, matrix_curves(3, 7, 1)[0]))
    return {
        "small_order_absence": small,
        "notheta": notheta,
        "order_2g_plus_1": [["7", 1, "1"], ["11", 2, "1"],
                            ["29", 3, "1"], ["19", 4, "1"]],
        "two_torsion_halving": ["field=7;alphas=0,1,2",
                                "field=7;alphas=0,1,2,3,4"],
    }


DEFAULT_CONFIG = _default_config()


def _order_entry(entry):
    if not isinstance(entry, (list, tuple)) or len(entry) != 3:
        raise InvalidInput("order_2g_plus_1 entries are [field, g, b] triples")
    field = parse_field_spec(str(entry[0]))
    genus = entry[1]        # an int, or its decimal text such as "1"
    try:
        g = int(genus)
    except (TypeError, ValueError, OverflowError):
        g = None
    if g is None or isinstance(genus, bool) or (isinstance(genus, float)
                                                and g != genus):
        raise InvalidInput("the genus in an order_2g_plus_1 entry must be "
                           "an integer, got %r" % (genus,))
    return check_order_2g_plus_1(field, g, parse_element(field, str(entry[2])))


# Each check name, in battery order, with its run on one config entry. The
# checks are looked up when they run, so wrappers put on this module apply.
_CHECKS = {
    "small_order_absence":
        lambda spec: check_small_order_absence(parse_curve_spec(spec)),
    "notheta": lambda spec: check_notheta(parse_curve_spec(spec)),
    "order_2g_plus_1": _order_entry,
    "two_torsion_halving":
        lambda spec: check_two_torsion_halving(parse_curve_spec(spec)),
}


def run_battery(config=None):
    """Run every configured check, in a fixed order, and collect reports.

    config maps check names to instance lists: curve spec strings for
    the curve-driven checks, [field_spec, g, b] triples for
    order_2g_plus_1.  Defaults to DEFAULT_CONFIG.
    """
    if config is None:
        config = DEFAULT_CONFIG
    if not isinstance(config, dict):
        raise InvalidInput("config must map check names to instance lists")
    unknown = set(config) - set(_CHECKS)
    if unknown:
        raise InvalidInput("unknown checks in config: %s" % ", ".join(sorted(unknown)))
    for name, entries in config.items():
        if not isinstance(entries, (list, tuple)):
            raise InvalidInput("instances of %s must be a list" % name)
    return [check(entry) for name, check in _CHECKS.items()
            for entry in config.get(name, [])]
