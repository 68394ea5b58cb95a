"""The benchmark's seeded workloads: inputs, operations and output checks.

BENCHMARK.json lists halve_matrix, halve_lifted and cli_mix. recover_matrix
runs by name (--workload recover_matrix) and in the self-test only: a
fourth listed workload at 25 s a run would not fit the time a full
benchmark measurement may take.

Inputs come from random.Random(seed) and plain integer arithmetic; halfjac
receives only the finished inputs. Apart from halve_lifted, a seed other
than 0 maps each base curve through x -> v^2 x + c, y -> v^(2g+1) y. That
map is an isomorphism, so every seed has the same point counts, lift
pattern and group orders as seed 0 and the latency percentiles of
different seeds compare. Seed 0 keeps every curve as it is, which makes
halve_matrix at seed 0 exactly the acceptance family of tests/conftest.py.

The operation lists of the matrix workloads and of cli_mix are shuffled by
the seed, so that each kind of operation is timed across the whole pass
rather than in one stretch of it, where a change in machine speed would
move one percentile alone.

An operation is a module-level function called with the halfjac package
and the inputs. It looks halfjac functions up at call time, so the tracer
sees calls made after it has rebound them. `check` verifies an output in
full; `canonical` serialises it for the digest and for comparing later
passes with the verified first pass. Both run outside the timed region.
"""

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout

MATRIX_PRIMES = (7, 11, 13)
MATRIX_CAPS = ((1, 3), (2, 2), (3, 1))      # (genus, curves per prime)


# --- integer helpers, independent of halfjac ---

def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_qr(a, p):
    """True iff a is a nonzero square mod the odd prime p."""
    return a % p != 0 and pow(a, (p - 1) // 2, p) == 1


def sqrt_mod(a, p):
    """A square root of the nonzero square a mod p (Tonelli-Shanks)."""
    q, e = p - 1, 0
    while q % 2 == 0:
        q //= 2
        e += 1
    z = next(z for z in range(2, p) if not is_qr(z, p))
    c, t, r, m = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p), e
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def iso_params(rng, p, seed):
    """(v, c) of the isomorphism x -> v^2 x + c; the identity at seed 0."""
    if seed == 0:
        return 1, 0
    return rng.randrange(1, p), rng.randrange(p)


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def matrix_family(rng, seed):
    """(g, p, roots) for each curve of the acceptance family's shape."""
    out = []
    for g, cap in MATRIX_CAPS:
        for p in MATRIX_PRIMES:
            for roots in itertools.islice(
                    itertools.combinations(range(p), 2 * g + 1), cap):
                v, c = iso_params(rng, p, seed)
                out.append((g, p, [(v * v * a + c) % p for a in roots]))
    return out


# --- operations (timed) ---

def halve(halving, curve, P):
    curve2, P2 = halving.lift_to_sqrt_field(curve, P)
    return curve2, P2, halving.halve_point(curve2, P2)


def recover(halving, curve, U, V):
    return halving.recover_signs(curve, U, V)


def cli_call(hj, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = hj.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# --- shared checks ---

def halves_json(hj, curve2, P2, halves):
    ej, pj = hj.field.element_to_json, hj.poly.poly_to_json
    return {"curve": hj.jacobian.curve_spec(curve2),
            "point": [ej(P2.x), ej(P2.y)],
            "halves": [[[ej(r) for r in h.sign_vector.r],
                        pj(h.mumford.U), pj(h.mumford.V)] for h in halves]}


def check_halves(hj, curve, P, value):
    """None when value holds 4^g distinct proven halves of P, else why not."""
    J = hj.jacobian
    curve2, P2, halves = value
    if curve2 is curve:
        if P2 != P:
            return "the point changed without a lift"
    else:
        F2, emb = hj.field.quadratic_extension(curve.field)
        if (curve2.field != F2
                or list(curve2.alphas) != [emb(a) for a in curve.alphas]
                or P2.x != emb(P.x) or P2.y != emb(P.y)):
            return "the lift does not embed the input"
    if len(halves) != 4 ** curve.g:
        return "expected %d halves, got %d" % (4 ** curve.g, len(halves))
    if len({(h.mumford.U, h.mumford.V) for h in halves}) != len(halves):
        return "the halves are not pairwise distinct"
    target = J.embed_point(P2)
    for h in halves:
        d = h.mumford
        if d.curve != curve2 or not J.mumford_validate(d):
            return "a half is not a reduced Mumford pair on the curve"
        if J.double(d) != target:
            return "a half does not double to the point"
    return None


def is_exact_order(hj, d, n):
    """n*d = 0 and (n/l)*d != 0 for every prime l dividing n."""
    smul = hj.jacobian.scalar_mul
    if not isinstance(n, int) or n < 1 or not smul(n, d).is_identity():
        return False
    return all(not smul(n // l, d).is_identity() for l in prime_factors(n))


class Workload:
    """One set of inputs and the operation run on each of them."""

    name = None
    modules = ("halfjac",)
    setup_reps = 9
    fresh_inputs_each_pass = True   # rebuild between passes so caches start cold

    def build(self, hj, seed):
        raise NotImplementedError

    def operations(self, hj, inputs):
        raise NotImplementedError

    def canonical(self, hj, inputs, i, value):
        raise NotImplementedError

    def check(self, hj, inputs, i, value):
        raise NotImplementedError

    def output_bytes(self, value):
        return 0


class HalveMatrix(Workload):
    """Lift plus halve_point on every affine point of the matrix family."""

    name = "halve_matrix"

    def build(self, hj, seed):
        J, ff_make = hj.jacobian, hj.field.ff_make
        rng = random.Random(seed)
        points = []
        for _, p, roots in matrix_family(rng, seed):
            curve = J.curve_make(ff_make(p), roots)
            points.extend((curve, P) for P in J.enumerate_points(curve)[:-1])
        rng.shuffle(points)
        return points

    def operations(self, hj, inputs):
        return [(halve, (hj.halving, curve, P)) for curve, P in inputs]

    def canonical(self, hj, inputs, i, value):
        return canonical(halves_json(hj, *value))

    def check(self, hj, inputs, i, value):
        return check_halves(hj, *inputs[i], value)


class HalveLifted(HalveMatrix):
    """Lift plus halve_point on points that need F_(p^2), p drawn near 10^4.

    The points of one prime run back to back on a freshly built F_p, so
    the first one pays for building the extension and the rest run warm.
    """

    name = "halve_lifted"
    window = (9900, 10100)
    n_primes = 4
    points_per_prime = 5

    def build(self, hj, seed):
        J, F = hj.jacobian, hj.field
        rng = random.Random(seed)
        primes = sorted(rng.sample(
            [p for p in range(*self.window) if is_prime(p)], self.n_primes))
        points = []
        for p in primes:
            roots = rng.sample(range(p), 3)
            field = F.ff_make(p)
            curve = J.curve_make(field, roots)
            xs = set()
            while len(xs) < self.points_per_prime:
                x = rng.randrange(p)
                fx = (x - roots[0]) * (x - roots[1]) * (x - roots[2]) % p
                if x in xs or not is_qr(fx, p) \
                        or all(is_qr(x - a, p) for a in roots):
                    continue
                y = sqrt_mod(fx, p)
                y = y if rng.randrange(2) else p - y
                xs.add(x)
                points.append((curve, J.CurvePoint(curve, field(x), field(y))))
        return points


class RecoverMatrix(Workload):
    """recover_signs on g seeded halves of each point of the matrix family.

    g halves per point (not one) put the latency quartiles inside one genus
    instead of on the boundary between genus 1 and genus 2 operations.
    """

    name = "recover_matrix"
    setup_reps = 3                  # each set-up halves the family
    fresh_inputs_each_pass = False

    def build(self, hj, seed):
        J, H, ff_make = hj.jacobian, hj.halving, hj.field.ff_make
        rng = random.Random(seed)
        halves = []
        for g, p, roots in matrix_family(rng, seed):
            curve = J.curve_make(ff_make(p), roots)
            for P in J.enumerate_points(curve)[:-1]:
                curve2, P2 = H.lift_to_sqrt_field(curve, P)
                choices = H.sqrt_choices(curve2, P2)
                for k in sorted(rng.sample(range(len(choices)), g)):
                    halves.append((curve2, P2, H.half_from_signs(choices[k])))
        rng.shuffle(halves)
        return halves

    def operations(self, hj, inputs):
        return [(recover, (hj.halving, curve2, h.mumford.U, h.mumford.V))
                for curve2, _, h in inputs]

    def canonical(self, hj, inputs, i, value):
        ej = hj.field.element_to_json
        sv, point = value
        return canonical([[ej(r) for r in sv.r], ej(point.x), ej(point.y)])

    def check(self, hj, inputs, i, value):
        _, P2, h = inputs[i]
        sv, point = value
        if tuple(sv.r) != tuple(h.sign_vector.r) or point != P2:
            return "recovered (sign vector, point) differs from the halved one"
        return None


# A g = 2 point over F_101 that needs the lift. Its class has order 620 and
# its halves 1240; the CLI's order() adds one step at a time up to 620.
LARGE_ORDER = (101, (4, 7, 11, 27, 64), (1, 79))
LARGE_COPIES = 4
LIFTED_REPEATS = 16
SMALL_G2 = (7, (0, 1, 2, 3, 4))


def _curve_args(p, roots):
    return ["--field", str(p), "--alphas", ",".join(str(a) for a in roots)]


class CliMix(Workload):
    """In-process halfjac.cli.main calls with stdout captured.

    The README examples are fixed; the other curves are seeded isomorphic
    copies of fixed base curves. Of the 26 calls in a pass, 16 repeat the
    auto-lifted README example, so the median falls well inside its
    samples, and 4 halve isomorphic copies of one large-order point (15%),
    so the 90th percentile falls inside theirs.
    """

    name = "cli_mix"
    modules = ("halfjac", "halfjac.cli")
    fresh_inputs_each_pass = False

    def build(self, hj, seed):
        rng = random.Random(seed)
        mix = [("halve", 7, (0, 1, 6), (4, 2))] * LIFTED_REPEATS
        p, roots = SMALL_G2
        v, c = iso_params(rng, p, seed)
        small = tuple((v * v * a + c) % p for a in roots)
        mix += [("halve", 7, (3, 5, 6), (0, 1)),
                ("solve", 7, (0, 1, 6), (5, None)),
                ("two-torsion", p, small, None),
                ("theta", p, small, None),
                ("order", 7, (0, 1, 6), {"U": [0, 1], "V": []}),
                ("theorems", None, None, None)]
        p, roots, (x, y) = LARGE_ORDER
        for _ in range(LARGE_COPIES):
            v, c = iso_params(rng, p, seed)
            mix.append(("halve", p, tuple((v * v * a + c) % p for a in roots),
                        ((v * v * x + c) % p, pow(v, 5, p) * y % p)))
        rng.shuffle(mix)
        ops = []
        for kind, p, roots, arg in mix:
            if kind in ("halve", "solve"):
                x, y = arg
                argv = ["halve"] + _curve_args(p, roots) + [
                    "--point", "%d,%s" % (x, "?" if y is None else y)]
            elif kind == "theorems":
                argv = ["theorems"]
            elif kind == "two-torsion":
                argv = ["two-torsion"] + _curve_args(p, roots)
            elif kind == "theta":
                argv = ["enumerate"] + _curve_args(p, roots) + [
                    "theta", "--degree", "1"]
            else:
                argv = ["arith"] + _curve_args(p, roots) + [
                    "order", json.dumps(arg)]
            ops.append({"kind": kind, "p": p, "roots": roots, "arg": arg,
                        "argv": argv})
        return ops

    def operations(self, hj, inputs):
        return [(cli_call, (hj, op["argv"])) for op in inputs]

    def canonical(self, hj, inputs, i, value):
        code, out, _ = value
        return canonical([code, out])

    def output_bytes(self, value):
        return len(value[1].encode())

    def check(self, hj, inputs, i, value):
        op = inputs[i]
        code, out, err = value
        if code != 0:
            return "exit code %r: %s" % (code, err.strip()[:200])
        try:
            data = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        kind, p, roots, arg = op["kind"], op["p"], op["roots"], op["arg"]
        if kind == "theorems":
            return self._check_theorems(hj, data)
        J, F = hj.jacobian, hj.field
        field = F.ff_make(p)
        curve = J.curve_make(field, roots)
        if kind == "halve":
            return self._check_halve(hj, curve, arg, data)
        if kind == "solve":
            x = field(arg[0])
            fx = curve.f.eval(x)
            roots_fx = F.sqrt(fx)
            ys = sorted({roots_fx[0], roots_fx[1]}, key=field.index_of)
            expected = {"x": arg[0], "candidates": [F.element_to_json(y) for y in ys]}
            if data != expected or any(y * y != fx for y in ys):
                return "y candidates differ from the library's square roots"
            return None
        if kind == "two-torsion":
            classes = J.two_torsion_classes(curve)
            expected = {"curve": J.curve_spec(curve), "count": len(classes),
                        "classes": [J.mumford_to_json(d) for d in classes]}
        elif kind == "theta":
            classes = J.enumerate_theta(curve, 1)
            expected = {"curve": J.curve_spec(curve), "degree": 1,
                        "count": len(classes),
                        "classes": [J.mumford_to_json(d) for d in classes]}
        else:
            d = J.mumford_from_json(curve, arg)
            if set(data) != {"order"} or not is_exact_order(hj, d, data["order"]):
                return "reported order is not the exact order"
            return None
        return None if data == expected else "%s output differs from the library" % kind

    def _check_halve(self, hj, curve, point, data):
        J, F, ej = hj.jacobian, hj.field, hj.field.element_to_json
        field = curve.field
        P = J.CurvePoint(curve, field(point[0]), field(point[1]))
        curve2, P2 = hj.halving.lift_to_sqrt_field(curve, P)
        halves = hj.halving.halve_point(curve2, P2)
        expected = {"field": F.field_spec(curve2.field),
                    "curve": J.curve_spec(curve2),
                    "point": {"x": ej(P2.x), "y": ej(P2.y)},
                    "lifted": curve2 is not curve,
                    "halves": [{"r": [ej(r) for r in h.sign_vector.r],
                                "U": hj.poly.poly_to_json(h.mumford.U),
                                "V": hj.poly.poly_to_json(h.mumford.V)}
                               for h in halves]}
        got = dict(data, halves=[{k: e[k] for k in ("r", "U", "V")}
                                 for e in data.get("halves", [])])
        if got != expected:
            return "halves differ from the library's halve_point"
        for h, entry in zip(halves, data["halves"]):
            if not is_exact_order(hj, h.mumford, entry.get("order")):
                return "a reported half order is not the exact order"
        return None

    def _check_theorems(self, hj, data):
        reports = hj.theorems.run_battery()
        expected = []
        for r in reports:
            entry = r.to_json()
            entry["status"] = ("consistent with theorem" if r.passed()
                               else "violations found")
            expected.append(entry)
        if data != {"reports": expected,
                    "all_consistent": all(r.passed() for r in reports)}:
            return "theorems report differs from run_battery"
        if not data["all_consistent"]:
            return "the default battery found violations"
        return None


WORKLOADS = {w.name: w for w in (HalveMatrix, RecoverMatrix, HalveLifted, CliMix)}
