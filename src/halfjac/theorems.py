"""Brute-force verifiers for torsion statements about these Jacobians.

Each check enumerates a finite set of rational objects on a concrete
curve and tests a consequence of one theorem on every one of them.  A
clean run is evidence that the implementation is consistent with the
theorem; it is not a proof of the theorem, and the reports say so.
All checks return a TheoremReport whose violations list is empty
exactly when every examined instance behaved as predicted.  Errors are
reserved for preconditions (wrong genus, characteristic dividing the
degree, a curve that does not exist over the requested field), never
for mathematical surprises.

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

from .errors import CharacteristicDividesDegree, DoesNotSplit
from .field import field_spec, parse_element, parse_field_spec
from .halving import halve_point, lift_to_sqrt_field
from .jacobian import (
    CurvePoint,
    MumfordDivisor,
    add,
    curve_make,
    curve_spec,
    double,
    embed_point,
    enumerate_points,
    enumerate_theta,
    mumford_to_json,
    parse_curve_spec,
)
from .poly import Polynomial, roots_in_field


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


def _first_annihilator(d, bound):
    """Smallest n in [1, bound] with n*d = 0, or None if there is none."""
    acc = d
    for n in range(1, bound + 1):
        if acc.is_identity():
            return n
        acc = add(acc, d)
    return None


def check_small_order_absence(curve):
    """No rational curve point has Jacobian order in [3, 2g] (g >= 2)."""
    if curve.g < 2:
        raise ValueError("small_order_absence needs genus >= 2, got %d" % curve.g)
    start = time.perf_counter()
    violations = []
    points = enumerate_points(curve)
    for P in points:
        n = _first_annihilator(embed_point(P), 2 * curve.g)
        if n is not None and n >= 3:
            violations.append({"point": str(P), "order": n})
    return TheoremReport("small_order_absence", curve_spec(curve),
                         field_spec(curve.field), len(points), violations,
                         time.perf_counter() - start)


def _multiplicative_order(a):
    acc = a
    one = a.field.one()
    for n in range(1, a.field.q):
        if acc == one:
            return n
        acc = acc * a
    raise RuntimeError("element of a finite field has finite order")


def _splitting_degree(field, n, c):
    """Minimal d with x^n - c split over the degree-d extension (p does not divide n)."""
    m = _multiplicative_order(c)
    for d in range(1, 10000):
        ext_units = field.q ** d - 1
        if ext_units % n == 0 and (ext_units // n) % m == 0:
            return d
    raise RuntimeError("no splitting degree found below 10000")


def check_order_2g_plus_1(field, g, b):
    """On y^2 = x^(2g+1) + b^2 the point (0, b) has order exactly 2g + 1."""
    start = time.perf_counter()
    n = 2 * g + 1
    b = field(b)
    if b.is_zero():
        raise ValueError("b must be nonzero; b = 0 gives a two-torsion point")
    if n % field.p == 0:
        raise CharacteristicDividesDegree(
            "characteristic %d divides 2g + 1 = %d" % (field.p, n))
    c = -(b * b)
    coeffs = [-c] + [field.zero()] * (n - 1) + [field.one()]
    fpoly = Polynomial(field, coeffs)            # x^n + b^2
    found = roots_in_field(fpoly)
    if sum(mult for _, mult in found) < n:
        raise DoesNotSplit(
            "x^%d + b^2 does not split over %s; it splits over the extension "
            "of degree %d" % (n, field_spec(field), _splitting_degree(field, n, c)))
    curve = curve_make(field, [r for r, _ in found])
    P = CurvePoint(curve, field.zero(), b)
    got = _first_annihilator(embed_point(P), 2 * n)
    violations = []
    if got != n:
        violations.append({"expected_order": n, "first_annihilator": got})
    return TheoremReport("order_2g_plus_1", curve_spec(curve),
                         field_spec(field), 1, violations,
                         time.perf_counter() - start,
                         params={"g": g, "b": str(b)})


def check_notheta(curve, budget=4096):
    """Doubling a class of degree <= g - 1 meets the curve only at 0 (g >= 2).

    Scans the rational theta classes of degree up to g - 1 (a
    deterministic stride sample when there are more than budget) and
    flags any whose double reduces to degree <= 1 without being the
    identity.  For g = 2 additionally pins down the full intersection:
    the classes of Theta_1 whose double is again in Theta_1 are exactly
    the identity and the Weierstrass classes.
    """
    if curve.g < 2:
        raise ValueError("notheta needs genus >= 2, got %d" % curve.g)
    start = time.perf_counter()
    theta = enumerate_theta(curve, curve.g - 1)
    if len(theta) > budget:
        stride = -(-len(theta) // budget)
        sample = theta[::stride]
    else:
        sample = theta
    violations = []
    for a in sample:
        twice = double(a)
        if twice.U.degree <= 1 and not twice.is_identity():
            violations.append({"class": mumford_to_json(a),
                               "double": mumford_to_json(twice)})
    if curve.g == 2:
        theta_set = set(theta)
        stays = {a for a in theta if double(a) in theta_set}
        expected = {MumfordDivisor.identity(curve)}
        for alpha in curve.alphas:
            expected.add(embed_point(CurvePoint(curve, alpha,
                                                curve.field.zero())))
        for a in sorted(stays ^ expected, key=lambda d: str(d)):
            side = "extra" if a in stays else "missing"
            violations.append({"curve_after_doubling": side,
                               "class": mumford_to_json(a)})
    return TheoremReport("notheta", curve_spec(curve),
                         field_spec(curve.field), len(sample), violations,
                         time.perf_counter() - start)


def check_two_torsion_halving(curve):
    """Each Weierstrass class has 2^(2g) halves, all of order exactly 4.

    Works over the smallest extension where the square roots needed by
    the halving formulas exist. The halves are already proven by their
    certificate when they are built; the Cantor doubling here checks
    them again independently and adds the order statement.
    """
    start = time.perf_counter()
    violations = []
    checked = 0
    zero = curve.field.zero()
    for alpha in curve.alphas:
        W = CurvePoint(curve, alpha, zero)
        curve2, W2 = lift_to_sqrt_field(curve, W)
        target = embed_point(W2)
        halves = halve_point(curve2, W2)
        if len(halves) != 4 ** curve.g:
            violations.append({"weierstrass": str(W),
                               "halves_found": len(halves),
                               "halves_expected": 4 ** curve.g})
        for h in halves:
            checked += 1
            twice = double(h.mumford)
            order_is_4 = (twice == target and not twice.is_identity()
                          and double(twice).is_identity())
            if not order_is_4:
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

_CHECK_ORDER = ("small_order_absence", "notheta", "order_2g_plus_1",
                "two_torsion_halving")


def run_battery(config=None):
    """Run every configured check, in a fixed order, and collect reports.

    config maps check names to instance lists: curve spec strings for
    the curve-driven checks, [field_spec, g, b] triples for
    order_2g_plus_1.  Defaults to DEFAULT_CONFIG.
    """
    if config is None:
        config = DEFAULT_CONFIG
    unknown = set(config) - set(_CHECK_ORDER)
    if unknown:
        raise ValueError("unknown checks in config: %s" % ", ".join(sorted(unknown)))
    reports = []
    for key in _CHECK_ORDER:
        for entry in config.get(key, []):
            if key == "order_2g_plus_1":
                if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                    raise ValueError(
                        "order_2g_plus_1 entries are [field, g, b] triples")
                field = parse_field_spec(str(entry[0]))
                b = parse_element(field, str(entry[2]))
                reports.append(check_order_2g_plus_1(field, int(entry[1]), b))
            else:
                curve = parse_curve_spec(entry)
                if key == "small_order_absence":
                    reports.append(check_small_order_absence(curve))
                elif key == "notheta":
                    reports.append(check_notheta(curve))
                else:
                    reports.append(check_two_torsion_halving(curve))
    return reports
