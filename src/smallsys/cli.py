"""Command-line front end: every pipeline in the toolkit as a subcommand
emitting a human-readable table and a machine-readable JSON certificate.

The command line is `smallsys [global options] COMMAND [options]`: the
global options (--precision, --json, --quiet) come before the command, and
the command's own options and positionals in any order after it.  An option
takes its value as `--opt value` or `--opt=value`, and the value is read as
given even when it starts with "-"; a unique prefix of a long option names
it, and -h or --help prints USAGE.  The commands are one table, COMMANDS,
read by the standard library's getopt.

Exit codes: 0 when the certificate verdict is PASS, 1 on FAIL, 2 on input
errors, 3 on internal failures such as a precision ceiling.  Certificates
are reproducible byte for byte: exact values are serialized in the canonical
field-element text forms and numeric values are printed at fixed precision
(12 decimals, scientific below 1e-6) from interval midpoints.
"""

from __future__ import annotations

import getopt
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .arith import (
    GroupSample,
    conjugate_between_forms,
    integrality_scan,
    non_qa_certificate,
    trace_field_sample,
)
from .combin import (
    burnside_count,
    enumerate_balanced_bracelets,
    epsilon_budget,
    select_inequivalent,
)
from .congr import ZsqrtIdeal, in_principal_congruence, is_integral_matrix
from .exactfield import (MAX_PRECISION, MIN_PRECISION, KElem, RealInterval, embed,
                         escalate, parse_kelem, sqrt_k)
from .hypgeom import GeodesicHyperplane, dist_hyperplanes, systole_witness
from .lorentz import (
    SearchExhaustedError,
    block_g1,
    block_g2,
    eigenvalue_length,
    find_small_element,
    leading_eigenvalue,
    param_block,
    parse_isometry,
)
from .polyalg import epsilon_gap, min_mahler_above_one, minpoly_over_Q, product


# bracelets --m writes m words of 2^m letters each: 21 MB at m = 20
MAX_BRACELET_M = 20
# bracelets --length generates every canonical word: 1.8 s (median of 5 fresh
# runs) and 77 MB at 28 on a 2-core x86 host, and each step of 2 multiplies
# the count by about 3.6
MAX_BRACELET_LENGTH = 28
# mahler --D and budget --D search every degree up to D for the least Mahler
# measure above 1: 0.71 s at 12 and 5.7 s at 14 on a 2-core x86 host (best of
# 5 fresh runs)
MAX_MAHLER_D = 14


class InputError(ValueError):
    """Bad command-line input; maps to exit code 2."""


def _within_mahler_reach(D: int):
    if D > MAX_MAHLER_D:
        raise InputError(f"D = {D} is above {MAX_MAHLER_D}: the Mahler measure "
                         "search would run past its measured reach")


def _fmt(x) -> str:
    """12 decimals; nonzero values below 1e-6 in scientific form with 13
    significant digits, so that no epsilon budget prints as zero.  A Fraction,
    or a RealInterval's exact midpoint, is rounded half to even from its exact
    value, where a float underflows or overflows."""
    if isinstance(x, RealInterval):
        n, d = x.man_lo + x.man_hi, 2 << x.precision
    elif isinstance(x, Fraction):
        n, d = x.as_integer_ratio()
    else:                               # nan, inf and -0.0 print as floats do
        v = float(x)
        return f"{v:.12e}" if 0 < abs(v) < 1e-6 else f"{v:.12f}"
    sign, n, e = "-" * (n < 0), abs(n), 0
    if n and n < d and n / d < 1e-6:        # n / d overflows past 1.8e308
        e = math.floor(math.log10(n) - math.log10(d))   # 10^e <= n/d < 10^(e+1)
        e += (n * 10 ** (-e - 1) >= d) - (n * 10 ** -e < d)
    q, r = divmod(n * 10 ** (12 - e), d)
    q += 2 * r > d or (2 * r == d and q % 2)
    if e and q == 10 ** 13:                             # rounded up to 10^(e+1)
        q, e = q // 10, e + 1
    head, tail = divmod(q, 10 ** 12)
    return f"{sign}{head}.{tail:012d}" + (f"e{e:+03d}" if e else "")


class Certificate:
    """A command's inputs and the checks it has added so far."""

    __slots__ = ("command", "inputs", "checks")

    def __init__(self, command: str, inputs: dict):
        self.command, self.inputs, self.checks = command, inputs, []

    def add(self, name: str, claim: str, ok, exact=None, numeric=None,
            skip: bool = False):
        status = "SKIP" if skip else ("PASS" if ok else "FAIL")
        self.checks.append({
            "name": name,
            "status": status,
            "claim": claim,
            "exact_values": {k: str(v) for k, v in (exact or {}).items()},
            "numeric_values": {k: _fmt(v) for k, v in (numeric or {}).items()},
        })

    @property
    def verdict(self) -> str:
        return "FAIL" if any(c["status"] == "FAIL" for c in self.checks) else "PASS"

    def to_json(self) -> str:
        """The bytes that json.dumps(..., indent=2, sort_keys=True) + "\n"
        writes, laid out here for the one certificate format: every leaf is
        a str but schema, quoted by json's C encoder."""
        def obj(d: dict, pad: str) -> str:
            if not d:
                return "{}"
            rows = ",\n".join(f"{pad}  {_quote(k)}: {_quote(v)}" for k, v in sorted(d.items()))
            return f"{{\n{rows}\n{pad}}}"
        checks = ",\n".join(
            f'    {{\n      "claim": {_quote(c["claim"])},\n'
            f'      "exact_values": {obj(c["exact_values"], "      ")},\n'
            f'      "name": {_quote(c["name"])},\n'
            f'      "numeric_values": {obj(c["numeric_values"], "      ")},\n'
            f'      "status": {_quote(c["status"])}\n    }}' for c in self.checks)
        checks = f"[\n{checks}\n  ]" if checks else "[]"
        inputs = obj({k: str(v) for k, v in self.inputs.items()}, "  ")
        return (f'{{\n  "checks": {checks},\n'
                f'  "command": {_quote(self.command)},\n  "inputs": {inputs},\n'
                f'  "schema": 1,\n  "verdict": {_quote(self.verdict)}\n}}\n')

    def render(self) -> str:
        lines = [f"== {self.command} =="]
        for k, v in self.inputs.items():
            lines.append(f"   input {k} = {v}")
        for c in self.checks:
            lines.append(f"{c['status']:>4}  {c['name']}: {c['claim']}")
            for k, v in c["exact_values"].items():
                lines.append(f"        {k} = {v}")
            for k, v in c["numeric_values"].items():
                lines.append(f"        {k} ~ {v}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def _admissible_a(a: Fraction):
    if a <= 0:
        raise InputError(f"a = {a} must be positive")
    square, root = KElem(a).is_square()
    if square:
        raise InputError(f"a = {a} is a square in k (root {root})")


# ---------------------------------------------------------------------------
# verify: the rows of any two-block hybrid, then the worked instance's rows:
# the 7 row, a fact of one product, and g1's congruence rows, memberships of
# the integral block_g1 (a short block has the denominator 2t^4 - 1)
# ---------------------------------------------------------------------------

def hybrid_rows(cert: Certificate, g1, g2, precision: int):
    """Add the rows of the hybrid of g1 on diag(1, ..., 1, -rt2) and g2 on
    diag(a, 1, ..., 1, -rt2), with a = g2.c and n read off the blocks, and
    return g1's Isometry.  The rows hold for any two blocks, but
    lambda1_integral holds for block_g1, not for short blocks; the 7 row is
    decided on the instance's g2 = block_g2 only, else SKIPped."""
    iso1, iso2 = g1.to_isometry(), g2.to_isometry()
    cert.add("g1_isometry", "g1 preserves diag(1, ..., 1, -rt2) exactly",
             iso1.sheet_preserving,
             exact={"alpha": g1.alpha.to_text(), "gamma": g1.gamma.to_text()})
    cert.add("g2_isometry", "g2 preserves diag(a, 1, ..., 1, -rt2) exactly",
             iso2.sheet_preserving,
             exact={"alpha": g2.alpha.to_text(), "gamma": g2.gamma.to_text()})
    t1, t2 = g1.parameter(), g2.parameter()
    cert.add("parameter_roundtrip",
             "gamma/(alpha - 1) recovers the conic parameter of both blocks",
             all(param_block(g.c, t, g.n) == g for g, t in ((g1, t1), (g2, t2))),
             exact={"t1": t1.to_text(), "t2": t2.to_text()})

    lam1, lam2 = leading_eigenvalue(g1), leading_eigenvalue(g2)
    iv1, iv2 = embed(lam1, precision), embed(lam2, precision)
    len1, len2 = eigenvalue_length(iv1), eigenvalue_length(iv2)
    # alpha^2 - 1 = 4 c sqrt2 t^2 / (sqrt2 t^2 - c)^2 is never a square in k,
    # so each lambda = alpha + sqrt(alpha^2 - 1) is a TowerElem with u = alpha
    cert.add("eigenvalues", "leading eigenvalues solve x^2 - 2 alpha x + 1",
             all(lam * lam - 2 * g.alpha * lam + 1 == 0
                 for g, lam in ((g1, lam1), (g2, lam2))),
             exact={"trace1": (2 * lam1.u).to_text(),
                    "trace2": (2 * lam2.u).to_text()},
             numeric={"lambda1": iv1, "lambda2": iv2,
                      "length1": len1, "length2": len2})

    h1 = GeodesicHyperplane.coordinate(iso1.form)
    h2 = GeodesicHyperplane.coordinate(iso2.form)
    rel1 = dist_hyperplanes(h1, h1.image(iso1), precision)
    rel2 = dist_hyperplanes(h2, h2.image(iso2), precision)
    cert.add("hyperplane_distances",
             "{x1=0} and its block image are disjoint at distance arccosh(alpha)",
             rel1.cosh_sq == g1.alpha * g1.alpha and rel2.cosh_sq == g2.alpha * g2.alpha,
             numeric={"dist1": rel1.distance, "dist2": rel2.distance})

    witness = systole_witness(float(len1), float(len2))
    cert.add("systole_witness",
             "the glued double closes up a geodesic of length 2(len1 + len2)",
             witness > 0, numeric={"witness": witness})

    mp1 = minpoly_over_Q(lam1)
    cert.add("lambda1_integral", "lambda1 is an algebraic integer",
             mp1.is_integral(), exact={"minpoly_lambda1": mp1.to_text()})
    mp2 = minpoly_over_Q(lam2)
    cert.add("lambda2_nonintegral", "lambda2 is not an algebraic integer",
             not mp2.is_integral(), exact={"minpoly_lambda2": mp2.to_text()})
    prod_poly, prod_iv = product(lam1, lam2, precision)
    cert.add("product_nonintegral",
             "lambda1*lambda2 is not an algebraic integer",
             not prod_poly.is_integral(),
             exact={"minpoly_product": prod_poly.to_text()},
             numeric={"product": prod_iv})
    cert.add("product_denominator_seven",
             "the product minimal polynomial carries a denominator divisible by 7",
             any(c.denominator % 7 == 0 for c in prod_poly.coeffs),
             skip=g2 != block_g2(g2.n))

    ambient = GroupSample([iso1, conjugate_between_forms(iso2, g2.c.a)], 2)
    sub_fd = trace_field_sample(GroupSample([iso1], 3))
    amb_fd = trace_field_sample(ambient)
    sub_wit = sub_fd.witnesses[0] if sub_fd.witnesses else ("", "")
    cert.add("subgroup_trace_field", "the one-generator sample has trace field k",
             sub_fd.level == "k",
             exact={"level": sub_fd.level, "witness_word": sub_wit[0],
                    "witness_trace": sub_wit[1]})
    cert.add("ambient_trace_field",
             "the mixed sample has trace field K = k(sqrt a) at word length 2",
             amb_fd.level == "K",
             exact={"level": amb_fd.level,
                    **{f"witness_{w}": t for w, t in amb_fd.witnesses}})
    report = non_qa_certificate(g2.c.a, sub_fd, amb_fd)
    cert.add("non_quasi_arithmetic",
             "trace field k inside trace field K rules out quasi-arithmeticity",
             report.passed, exact={"failures": "; ".join(report.failures) or "none"})

    scan = integrality_scan(ambient)
    cert.add("nonintegral_trace_sample",
             "the mixed sample exhibits nonintegral adjoint traces",
             bool(scan), exact={"count": len(scan)})
    return iso1


def cmd_verify(a: Fraction, n: int, precision: int) -> Certificate:
    _admissible_a(a)
    if n < 2:
        raise InputError("dimension n must be at least 2")
    cert = Certificate("verify", {"a": a, "n": n, "precision": precision})
    if a == 3:
        g2 = block_g2(n)
    else:
        # the least t >= 1 with sqrt2 t^2 > a = p/q, i.e. 2 q^2 t^4 > p^2
        t = math.isqrt(math.isqrt(a.numerator ** 2 // (2 * a.denominator ** 2))) + 1
        g2 = param_block(KElem(a), KElem(t), n)
    iso1 = hybrid_rows(cert, block_g1(n), g2, precision)
    for level_text, expect_in in (("0+1*rt2", True), ("2", True), ("7", False)):
        ideal = ZsqrtIdeal.parse(level_text)
        got = in_principal_congruence(iso1, ideal)
        cert.add(f"congruence_level_{level_text.replace('*', '').replace('+', '_')}",
                 f"g1 {'lies in' if expect_in else 'avoids'} the principal "
                 f"congruence subgroup of level ({level_text})",
                 got == expect_in, exact={"member": got})
    return cert


def cmd_search(c_text: str, eps: float, height_bound: int, precision: int) -> Certificate:
    try:
        c = parse_kelem(c_text)
    except ValueError as exc:
        raise InputError(f"not an element of k: {c_text!r}") from exc
    if c.sign() <= 0:
        raise InputError(f"c = {c.to_text()} must be positive")
    if not (math.isfinite(eps) and eps > 0):
        raise InputError("epsilon must be positive and finite")
    if height_bound < 1:
        raise InputError("height bound must be at least 1")
    cert = Certificate("search", {"c": c.to_text(), "epsilon": eps,
                                  "height_bound": height_bound,
                                  "precision": precision})
    try:
        g = find_small_element(c, eps, height_bound)
    except SearchExhaustedError as exc:
        best = exc.best
        cert.add("small_element",
                 f"some block of translation length below {eps} has parameter "
                 f"height at most {height_bound}", False,
                 exact={"best_t": best.parameter().to_text() if best else "none"},
                 numeric={"best_length": float("nan") if best is None else exc.best_length})
        return cert
    lam = leading_eigenvalue(g)

    def decided(bits):      # a length near 0 needs more bits
        lam_iv = embed(lam, bits)
        ell = eigenvalue_length(lam_iv)
        return None if eps in ell else (lam_iv, ell)
    lam_iv, ell = escalate(decided, precision,
                           f"translation length undecided at {MAX_PRECISION} bits")
    cert.add("small_element",
             f"the block at t = {g.parameter().to_text()} has translation "
             f"length below {eps}",
             ell.hi < Fraction(eps),
             exact={"t": g.parameter().to_text(), "alpha": g.alpha.to_text()},
             numeric={"lambda": lam_iv, "length": ell})
    return cert


def cmd_mahler(D: int) -> Certificate:
    if D < 1:
        raise InputError("degree bound D must be at least 1")
    _within_mahler_reach(D)
    cert = Certificate("mahler", {"D": D})
    value, wit = min_mahler_above_one(D)
    cert.add("minimum_above_one",
             f"the smallest Mahler measure above 1 at degree <= {D} "
             f"is attained by {wit.to_text()}",
             value > 1,
             exact={"witness": wit.to_text()},
             numeric={"measure": value, "systole_gap": epsilon_gap(D)})
    return cert


def cmd_bracelets(length: int | None, m: int | None) -> Certificate:
    if (length is None) == (m is None):
        raise InputError("give exactly one of --length or --m")
    if m is not None:
        if m < 1:
            raise InputError("m must be at least 1")
        if m > MAX_BRACELET_M:
            raise InputError(f"m = {m} is above {MAX_BRACELET_M}: each of the "
                             f"{m} words would have 2^{m} letters")
        cert = Certificate("bracelets", {"m": m})
        sel = select_inequivalent(m)
        cert.add("inequivalent_selection",
                 f"{m} pairwise inequivalent balanced cyclic sequences of "
                 f"length 2^{m}",
                 len(set(sel)) == m,
                 exact={"sequences": ", ".join(sel)})
        return cert
    if length < 2 or length % 2:
        raise InputError("length must be a positive even number")
    if length > MAX_BRACELET_LENGTH:
        raise InputError(f"length = {length} is above {MAX_BRACELET_LENGTH}: "
                         "every canonical word of that length would be generated")
    cert = Certificate("bracelets", {"length": length})
    words = enumerate_balanced_bracelets(length)
    count = burnside_count(length)
    cert.add("burnside_agreement",
             "orbit enumeration and the Burnside count agree",
             len(words) == count,
             exact={"count": count,
                    "sequences": ", ".join(words[:16])
                    + (", ..." if len(words) > 16 else "")})
    return cert


def cmd_congruence(matrix_path: str, level_text: str) -> Certificate:
    try:
        with open(matrix_path, "r", encoding="utf-8") as fh:
            iso = parse_isometry(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read matrix file: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"bad matrix file: {exc}") from exc
    try:
        ideal = ZsqrtIdeal.parse(level_text)
    except ValueError as exc:
        raise InputError(f"bad level: {exc}") from exc
    cert = Certificate("congruence", {"matrix": matrix_path, "level": level_text})
    cert.add("isometry_verified", "the matrix preserves its declared form", True,
             exact={"form": iso.form.header()})
    integral = is_integral_matrix(iso)
    cert.add("integral_entries", "all entries lie in Z[sqrt 2]", integral)
    if integral:
        member = in_principal_congruence(iso, ideal)
        cert.add("membership",
                 f"membership in the principal congruence subgroup of level "
                 f"({level_text}) is decided",
                 True, exact={"member": member})
    else:
        cert.add("membership", "membership undefined for non-integral matrices",
                 True, skip=True)
    return cert


def cmd_minpoly(trace_text: str, norm_text: str, precision: int) -> Certificate:
    try:
        trace = parse_kelem(trace_text)
        norm = parse_kelem(norm_text)
        lam = trace / 2 + sqrt_k(trace * trace / 4 - norm)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    cert = Certificate("minpoly", {"trace": trace.to_text(), "norm": norm.to_text()})
    mp = minpoly_over_Q(lam)
    cert.add("minimal_polynomial",
             "the monic minimal polynomial over Q of the + root of "
             "x^2 - trace x + norm",
             mp.is_monic(),
             exact={"minpoly": mp.to_text(),
                    "algebraic_integer": mp.is_integral()},
             numeric={"value": embed(lam, precision)})
    return cert


def cmd_budget(m: int, D: int) -> Certificate:
    if m < 1:
        raise InputError("m must be at least 1")
    if D < 1:
        raise InputError("D must be at least 1")
    _within_mahler_reach(D)
    cert = Certificate("budget", {"m": m, "D": D})
    gap = epsilon_gap(D)
    eps = epsilon_budget(m, gap)
    cert.add("epsilon_budget",
             f"2^(-{m}) * min(1/{m}, systole gap at degree {D})",
             eps > 0,
             numeric={"systole_gap": gap, "epsilon": eps,
                      "glued_length_bound": eps * 2 ** (m - 1)})
    return cert


# ---------------------------------------------------------------------------
# argument plumbing: one table of the commands, read by getopt
# ---------------------------------------------------------------------------

USAGE = """\
usage: smallsys [--precision BITS] [--json PATH] [--quiet] COMMAND [OPTIONS]

exact certificates for the small-systole gluing toolkit

global options, given before the command:
  --precision BITS     working precision in bits (default 128)
  --json PATH          write the certificate as JSON
  --quiet              suppress the table
  -h, --help           print this text

commands:
  verify [--a A] [--n N]
      the full standard-instance certificate; tower parameter a (default 3),
      dimension n (default 2)
  search --epsilon EPS [--c C] [--height-bound H]
      a block of translation length below EPS; first spatial coefficient c
      (default 1), parameter height bound H (default 10000)
  mahler --D D
      the least Mahler measure above 1 at degree <= D
  bracelets --length L | --m M
      balanced bracelets of length L, or the first M pairwise inequivalent
      balanced sequences of length 2^M
  congruence MATRIX --level LEVEL
      principal congruence membership of the isometry in file MATRIX at the
      level generator LEVEL, e.g. "0+1*rt2"
  minpoly --trace T --norm N
      the minimal polynomial over Q of the + root of x^2 - T x + N
  budget --m M --D D
      the epsilon budget 2^(-M) min(1/M, systole gap at degree D)

An option takes its value as --opt VALUE or --opt=VALUE, the value read as
given even when it starts with "-"; any unique prefix of a long option
names it.
"""

_REQUIRED = object()        # the default of a required option

# command -> (the name of the cmd_* it runs, its positionals, its long
# options as {name: (type, default)}, whether it takes --precision).  The
# cmd_* is looked up by name when it runs, so that a rebinding of it in this
# module is what runs, and is called with the positionals, then the options
# in table order, then the precision.
COMMANDS = {
    "verify": ("cmd_verify", (), {"a": (_parse_rational, Fraction(3)), "n": (int, 2)},
               True),
    "search": ("cmd_search", (), {"c": (str, "1"), "epsilon": (float, _REQUIRED),
                                "height-bound": (int, 10000)}, True),
    "mahler": ("cmd_mahler", (), {"D": (int, _REQUIRED)}, False),
    "bracelets": ("cmd_bracelets", (), {"length": (int, None), "m": (int, None)}, False),
    "congruence": ("cmd_congruence", ("matrix",), {"level": (str, _REQUIRED)}, False),
    "minpoly": ("cmd_minpoly", (), {"trace": (str, _REQUIRED), "norm": (str, _REQUIRED)},
                True),
    "budget": ("cmd_budget", (), {"m": (int, _REQUIRED), "D": (int, _REQUIRED)}, False),
}
_GLOBAL_OPTIONS = ["precision=", "json=", "quiet", "help"]
_HELP = ("-h", "--help")


def _value(name: str, kind, text: str):
    try:
        return kind(text)
    except InputError:
        raise
    except ValueError:
        raise InputError(f"option --{name}: invalid {kind.__name__} value: "
                         f"{text!r}") from None


def _parse(argv):
    """(cmd_* name, its arguments, --quiet, --json) for argv, or None when -h or
    --help asks for the usage.  getopt reads the global options up to the
    command, gnu_getopt the command's own anywhere after it; every error
    raises getopt.GetoptError or InputError."""
    opts, rest = getopt.getopt(argv, "h", _GLOBAL_OPTIONS)
    precision, json_path, quiet = 128, None, False
    for opt, text in opts:
        if opt in _HELP:
            return None
        if opt == "--precision":
            precision = _value("precision", int, text)
        elif opt == "--json":
            json_path = text
        else:
            quiet = True
    if not rest:
        raise InputError(f"no command given; the commands are {', '.join(COMMANDS)}")
    if rest[0] not in COMMANDS:
        raise InputError(f"unknown command {rest[0]!r}; the commands are "
                         f"{', '.join(COMMANDS)}")
    command, positionals, options, precise = COMMANDS[rest[0]]
    opts, given = getopt.gnu_getopt(rest[1:], "h",
                                    ["help", *(name + "=" for name in options)])
    values = {name: default for name, (_, default) in options.items()}
    for opt, text in opts:
        if opt in _HELP:
            return None
        values[opt[2:]] = _value(opt[2:], options[opt[2:]][0], text)
    missing = [f"--{name}" for name, v in values.items() if v is _REQUIRED]
    if missing:
        raise InputError(f"{rest[0]} needs {' and '.join(missing)}")
    if len(given) != len(positionals):
        raise InputError(f"{rest[0]} takes {len(positionals)} positional "
                         f"argument(s), got {len(given)}: {given}")
    if precision < MIN_PRECISION:
        raise InputError(f"precision must be at least {MIN_PRECISION} bits")
    args = (*given, *values.values()) + ((precision,) if precise else ())
    return command, args, quiet, json_path


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else argv)
    except (getopt.GetoptError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if parsed is None:
        print(USAGE, end="")
        return 0
    command, args, quiet, json_path = parsed
    try:
        cert = globals()[command](*args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if not quiet:
        print(cert.render())
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(cert.to_json())
    return 0 if cert.verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
