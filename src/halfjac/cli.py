"""Command-line front end: halving, Jacobian arithmetic, enumeration.

Output is machine-readable JSON by default (--output table gives a
human-oriented listing instead) and is byte-identical across runs of
the same invocation.  Exit codes: 0 on success, 1 on usage or
validation problems, 2 when a theorem battery reports violations.

The error boundary lives in main: it turns every HalfjacError, malformed
input (errors.InvalidInput) included, into click's "Error: ..." line and
exit code 1. A command catches an error only to add context to it.

JSON conventions, shared with the library serializers: a field element
of a prime field is an int, an extension element a little-endian
coefficient list; a polynomial is the little-endian list of its
coefficient values, so the zero polynomial is [] and x + 3 over F_7 is
[3, 1]; a Mumford pair is {"U": [..], "V": [..]}.
"""

import json
import sys

import click

from .errors import HalfjacError
from .field import (
    element_to_json,
    field_spec,
    parse_element,
    split_element_list,
    sqrt,
)
from .halving import halve_point, lift_to_sqrt_field
from .jacobian import (
    CurvePoint,
    add,
    curve_spec,
    double,
    embed_point,
    enumerate_points,
    enumerate_theta,
    mumford_from_json,
    mumford_to_json,
    neg,
    order,
    parse_curve,
    scalar_mul,
    two_torsion_classes,
)
from .poly import poly_to_json
from .theorems import run_battery


def _emit(payload, output, table):
    """Write the payload as JSON, or for --output table each line of
    table(), a string or an object whose str is the line. table is called
    only then, so JSON output formats no table line."""
    if output == "json":
        click.echo(json.dumps(payload, indent=2), file=sys.stdout)
    else:
        for line in table():
            click.echo(line, file=sys.stdout)


_FIELD = click.option("--field", "field_text", required=True,
                      help="Field spec: a prime p, or p^k:c0,..,c_{k-1}.")
_ALPHAS = click.option("--alphas", "alphas_text", required=True,
                       help="Comma-separated roots of f, all distinct.")
_OUTPUT = click.option("--output", type=click.Choice(["json", "table"]),
                       default="json", show_default=True,
                       help="Machine-readable JSON or a plain listing.")


def _show_help(ctx, param, value):
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color, file=sys.stdout)
        ctx.exit()


class _Command(click.Command):
    """A command whose --help writes to the sys.stdout of the moment.

    click's own help callback echoes with no file=, through a cache that
    keeps every sys.stdout it has seen alive for the life of the process."""

    def get_help_option(self, ctx):
        option = super().get_help_option(ctx)
        if option is not None:
            option.callback = _show_help
        return option


class _Group(_Command, click.Group):
    command_class = _Command


@click.group(cls=_Group)
def cli():
    """Exact division by 2 on Jacobians of odd-degree hyperelliptic curves."""


@cli.command()
@_FIELD
@_ALPHAS
@click.option("--point", "point_text", required=True,
              help="Affine point as x,y; use x,? to solve for y first.")
@click.option("--no-lift", is_flag=True,
              help="Fail instead of lifting to the quadratic extension.")
@_OUTPUT
def halve(field_text, alphas_text, point_text, no_lift, output):
    """List all 2^(2g) halves of a curve point."""
    curve = parse_curve(field_text, alphas_text)
    field = curve.field
    if point_text.strip().lower() in ("inf", "infinity"):
        raise click.ClickException(
            "the point at infinity is the identity; its halves are the "
            "two-torsion classes, see the two-torsion subcommand")
    parts = split_element_list(point_text)
    if len(parts) != 2:
        raise click.ClickException("--point expects x,y or x,?")
    x = parse_element(field, parts[0])
    if parts[1].strip() == "?":
        fx = curve.f.eval(x)
        pair = sqrt(fx)
        if pair is None:
            raise click.ClickException(
                "f(%s) = %s is not a square, no rational y; pick another x "
                "or work over the quadratic extension" % (x, fx))
        ys = list(dict.fromkeys(pair))      # sqrt(0) is (0, 0)
        payload = {"x": element_to_json(x),
                   "candidates": [element_to_json(y) for y in ys]}
        _emit(payload, output, lambda: [
            "x = %s" % x, "y candidates: %s" % ", ".join(str(y) for y in ys)])
        return 0
    y = parse_element(field, parts[1])
    P = CurvePoint(curve, x, y)
    curve2, P2 = lift_to_sqrt_field(curve, P)
    lifted = curve2 is not curve
    if lifted and (no_lift or field.base is not None):
        hint = ("rerun without --no-lift to allow it" if field.base is None
                else "a tower field with no text form; the automatic lift "
                     "works only over a prime field")
        raise click.ClickException(
            "some a - alpha_i is not a square in %r, so the halves need its "
            "quadratic extension (%s)" % (field, hint))
    halves = halve_point(curve2, P2)
    # 2h = target, so ord(h) is n0 or 2n0. It is n0 only when n0 is odd and
    # h = ((n0 + 1)/2) * 2h, and exactly one half equals that class. P is
    # rational over the input field and J(F_q) is a subgroup of J(F_q^2),
    # so n0 is taken on the input curve, in its cheaper arithmetic.
    n0 = order(embed_point(P))
    odd_half = scalar_mul((n0 + 1) // 2, embed_point(P2)) if n0 % 2 else None
    entries = []
    for h in halves:
        n = n0 if h.mumford == odd_half else 2 * n0
        entries.append({"r": [element_to_json(c) for c in h.sign_vector.r],
                        "U": poly_to_json(h.mumford.U),
                        "V": poly_to_json(h.mumford.V),
                        "order": n})
    payload = {"field": field_spec(curve2.field),
               "curve": curve_spec(curve2),
               "point": {"x": element_to_json(P2.x), "y": element_to_json(P2.y)},
               "lifted": lifted,
               "halves": entries}
    _emit(payload, output, lambda: [
        "curve: %s" % curve_spec(curve2),
        "point: %s%s" % (P2, "  (lifted)" if lifted else "")] + [
        "r = (%s); %s; order %d" % (", ".join(str(c) for c in h.sign_vector.r),
                                    h.mumford, e["order"])
        for h, e in zip(halves, entries)])
    return 0


@cli.command()
@_FIELD
@_ALPHAS
@click.argument("op", type=click.Choice(["add", "neg", "double", "smul", "order"]))
@click.argument("operands", nargs=-1)
@_OUTPUT
def arith(field_text, alphas_text, op, operands, output):
    """Jacobian arithmetic on Mumford pairs given as JSON."""
    curve = parse_curve(field_text, alphas_text)

    def pair(text):
        try:
            return mumford_from_json(curve, json.loads(text))
        except (HalfjacError, ValueError, RecursionError) as e:
            raise click.ClickException("invalid Mumford pair %s: %s" % (text, e))

    wanted = {"add": 2, "neg": 1, "double": 1, "smul": 2, "order": 1}[op]
    if len(operands) != wanted:
        raise click.UsageError("%s takes %d operand(s), got %d"
                               % (op, wanted, len(operands)))
    if op == "add":
        result = add(pair(operands[0]), pair(operands[1]))
    elif op == "neg":
        result = neg(pair(operands[0]))
    elif op == "double":
        result = double(pair(operands[0]))
    elif op == "smul":
        try:
            n = int(operands[0])
        except ValueError:
            raise click.UsageError("smul takes an integer first operand")
        result = scalar_mul(n, pair(operands[1]))
    else:
        n = order(pair(operands[0]))
        _emit({"order": n}, output, lambda: ["order = %d" % n])
        return 0
    _emit({"result": mumford_to_json(result)}, output, lambda: [result])
    return 0


@cli.command(name="two-torsion")
@_FIELD
@_ALPHAS
@_OUTPUT
def two_torsion(field_text, alphas_text, output):
    """List the 2^(2g) - 1 nonzero classes of order dividing 2."""
    curve = parse_curve(field_text, alphas_text)
    classes = two_torsion_classes(curve)
    payload = {"curve": curve_spec(curve),
               "count": len(classes),
               "classes": [mumford_to_json(d) for d in classes]}
    _emit(payload, output, lambda: classes)
    return 0


@cli.command()
@_FIELD
@_ALPHAS
@click.argument("what", type=click.Choice(["points", "theta"]))
@click.option("--degree", type=int, default=None,
              help="Theta stratum degree bound (default: the genus).")
@_OUTPUT
def enumerate(field_text, alphas_text, what, degree, output):
    """Enumerate rational curve points or a theta stratum."""
    curve = parse_curve(field_text, alphas_text)
    if what == "points":
        pts = enumerate_points(curve)
        entries = [{"infinity": True} if P.is_infinity
                   else {"x": element_to_json(P.x), "y": element_to_json(P.y)}
                   for P in pts]
        payload = {"curve": curve_spec(curve), "count": len(pts),
                   "points": entries}
        _emit(payload, output, lambda: pts)
        return 0
    d = curve.g if degree is None else degree
    classes = enumerate_theta(curve, d)
    payload = {"curve": curve_spec(curve), "degree": d,
               "count": len(classes),
               "classes": [mumford_to_json(a) for a in classes]}
    _emit(payload, output, lambda: classes)
    return 0


@cli.command()
@click.option("--config", "config_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON file mapping check names to instance lists.")
@_OUTPUT
def theorems(config_path, output):
    """Run the brute-force theorem battery and report consistency."""
    config = None
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            try:
                config = json.load(fh)
            except (ValueError, RecursionError) as e:   # bad UTF-8 or nesting
                raise click.ClickException("config is not valid JSON: %s" % e)
        if config is None:
            raise click.ClickException(
                "config is JSON null; omit --config to run the default battery")
    reports = run_battery(config)
    entries = []
    for r in reports:
        entry = r.to_json()
        entry["status"] = ("consistent with theorem" if r.passed()
                           else "violations found")
        entries.append(entry)
    payload = {"reports": entries,
               "all_consistent": all(r.passed() for r in reports)}
    _emit(payload, output, lambda: [
        "%-22s %-40s %6d checked  %s" % (r.theorem_id, r.curve_spec or r.field_spec,
                                          r.instances_checked, e["status"])
        for r, e in zip(reports, entries)])
    return 0 if payload["all_consistent"] else 2


def main(argv=None):
    """Entry point returning the exit code instead of raising SystemExit.

    The one place where a HalfjacError becomes exit code 1."""
    try:
        rv = cli.main(args=argv, prog_name="halfjac", standalone_mode=False)
    except click.exceptions.Exit as e:
        return e.exit_code
    except click.ClickException as e:
        e.show()
        return 1
    except click.exceptions.Abort:
        return 1
    except HalfjacError as e:
        click.ClickException(str(e)).show()
        return 1
    return rv if isinstance(rv, int) else 0
