"""Command-line front end: every pipeline in the toolkit as a subcommand
emitting a human-readable table and a machine-readable JSON certificate.

Exit codes: 0 when the certificate verdict is PASS, 1 on FAIL, 2 on input
errors, 3 on internal failures such as a precision ceiling.  Certificates
are reproducible byte for byte: exact values are serialized in the canonical
field-element text forms and numeric values are printed at fixed precision
(12 decimals, scientific below 1e-6) from interval midpoints.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

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
from .exactfield import KElem, escalate, parse_kelem
from .hypgeom import GeodesicHyperplane, dist_hyperplanes, systole_witness
from .lorentz import (
    QuadForm,
    SearchExhaustedError,
    block_g1,
    block_g2,
    find_small_element,
    leading_eigenvalue,
    param_block,
    parse_isometry,
    translation_length,
)
from .polyalg import (
    QuadAlgNum,
    epsilon_gap,
    min_mahler_above_one,
    minpoly_over_Q,
    product,
)


class InputError(ValueError):
    """Bad command-line input; maps to exit code 2."""


def _fmt(x) -> str:
    """12 decimals; nonzero values below 1e-6 in scientific form, so that a
    small epsilon budget does not print as zero."""
    v = float(x)
    return f"{v:.12e}" if 0 < abs(v) < 1e-6 else f"{v:.12f}"


@dataclass
class Certificate:
    command: str
    inputs: dict
    checks: list = field(default_factory=list)

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

    def to_dict(self) -> dict:
        return {
            "schema": 1,
            "command": self.command,
            "inputs": {k: str(v) for k, v in self.inputs.items()},
            "checks": self.checks,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

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
# verify: the full certificate for the standard two-form instance
# ---------------------------------------------------------------------------

def cmd_verify(a: Fraction, n: int, precision: int) -> Certificate:
    _admissible_a(a)
    if n < 2:
        raise InputError("dimension n must be at least 2")
    cert = Certificate("verify", {"a": a, "n": n, "precision": precision})
    is_standard = (a == 3)

    f1 = QuadForm.standard(1, n)
    f2 = QuadForm.standard(KElem(a), n)
    g1 = block_g1(n)
    if is_standard:
        g2 = block_g2(n)
    else:
        # the least t >= 1 with sqrt2 t^2 > a = p/q, i.e. 2 q^2 t^4 > p^2
        t = math.isqrt(math.isqrt(a.numerator ** 2 // (2 * a.denominator ** 2))) + 1
        g2 = param_block(KElem(a), KElem(t), n)

    iso1, iso2 = g1.to_isometry(f1), g2.to_isometry(f2)
    cert.add("g1_isometry", "g1 preserves diag(1, ..., 1, -rt2) exactly",
             iso1.sheet_preserving,
             exact={"alpha": g1.alpha.to_text(), "gamma": g1.gamma.to_text()})
    cert.add("g2_isometry", "g2 preserves diag(a, 1, ..., 1, -rt2) exactly",
             iso2.sheet_preserving,
             exact={"alpha": g2.alpha.to_text(), "gamma": g2.gamma.to_text()})
    cert.add("parameter_roundtrip",
             "gamma/(alpha - 1) recovers the conic parameter of both blocks",
             g1.parameter() == KElem(1)
             and param_block(g2.c, g2.parameter(), n).alpha == g2.alpha,
             exact={"t1": g1.parameter().to_text(), "t2": g2.parameter().to_text()})

    lam1 = leading_eigenvalue(g1)
    lam2 = leading_eigenvalue(g2)
    len1 = translation_length(g1, precision)
    len2 = translation_length(g2, precision)
    cert.add("eigenvalues", "leading eigenvalues solve x^2 - 2 alpha x + 1",
             lam1.trace == 2 * g1.alpha and lam2.trace == 2 * g2.alpha,
             exact={"trace1": lam1.trace.to_text(), "trace2": lam2.trace.to_text()},
             numeric={"lambda1": lam1.numeric(precision),
                      "lambda2": lam2.numeric(precision),
                      "length1": len1, "length2": len2})

    h1 = GeodesicHyperplane.coordinate(f1)
    h2 = GeodesicHyperplane.coordinate(f2)
    rel1 = dist_hyperplanes(h1, h1.image(iso1), precision)
    rel2 = dist_hyperplanes(h2, h2.image(iso2), precision)
    cert.add("hyperplane_distances",
             "{x1=0} and its block image are disjoint at distance arccosh(alpha)",
             rel1.kind == "disjoint" and rel1.cosh_sq == g1.alpha * g1.alpha
             and rel2.kind == "disjoint" and rel2.cosh_sq == g2.alpha * g2.alpha,
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
    dens = {c.denominator for c in prod_poly.coeffs}
    cert.add("product_nonintegral",
             "lambda1*lambda2 is not an algebraic integer",
             not prod_poly.is_integral(),
             exact={"minpoly_product": prod_poly.to_text()},
             numeric={"product": prod_iv})
    cert.add("product_denominator_seven",
             "the product minimal polynomial carries a denominator divisible by 7",
             any(d % 7 == 0 for d in dens), skip=not is_standard)

    ambient = GroupSample([iso1, conjugate_between_forms(iso2, a)], 2)
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
    report = non_qa_certificate(a, sub_fd, amb_fd)
    cert.add("non_quasi_arithmetic",
             "trace field k inside trace field K rules out quasi-arithmeticity",
             report.passed, exact={"failures": "; ".join(report.failures) or "none"})

    scan = integrality_scan(ambient)
    cert.add("nonintegral_trace_sample",
             "the mixed sample exhibits nonintegral adjoint traces",
             bool(scan), exact={"count": len(scan)})

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
        ell = translation_length(g, bits)
        return None if eps in ell else (ell, bits)
    ell, precision = escalate(decided, precision,
                              "translation length undecided at 4096 bits")
    cert.add("small_element",
             f"the block at t = {g.parameter().to_text()} has translation "
             f"length below {eps}",
             ell.hi < Fraction(eps),
             exact={"t": g.parameter().to_text(), "alpha": g.alpha.to_text()},
             numeric={"lambda": lam.numeric(precision), "length": ell})
    return cert


def cmd_mahler(D: int) -> Certificate:
    if D < 1:
        raise InputError("degree bound D must be at least 1")
    cert = Certificate("mahler", {"D": D})
    value, wit = min_mahler_above_one(D)
    cert.add("minimum_above_one",
             f"the smallest Mahler measure above 1 at degree <= {D} "
             f"is attained by {wit.to_text()}",
             value > 1,
             exact={"witness": wit.to_text()},
             numeric={"measure": value, "systole_gap": math.log(value)})
    return cert


def cmd_bracelets(length: int | None, m: int | None) -> Certificate:
    if (length is None) == (m is None):
        raise InputError("give exactly one of --length or --m")
    if m is not None:
        if m < 1:
            raise InputError("m must be at least 1")
        cert = Certificate("bracelets", {"m": m})
        sel = select_inequivalent(m)
        cert.add("inequivalent_selection",
                 f"{m} pairwise inequivalent balanced cyclic sequences of "
                 f"length 2^{m}",
                 len(set(sel)) == m,
                 exact={"sequences": ", ".join(str(s) for s in sel)})
        return cert
    if length < 2 or length % 2:
        raise InputError("length must be a positive even number")
    cert = Certificate("bracelets", {"length": length})
    seqs = enumerate_balanced_bracelets(length)
    count = burnside_count(length)
    cert.add("burnside_agreement",
             "orbit enumeration and the Burnside count agree",
             len(seqs) == count,
             exact={"count": count,
                    "sequences": ", ".join(str(s) for s in seqs[:16])
                    + (", ..." if len(seqs) > 16 else "")})
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
        lam = QuadAlgNum(trace, norm, 1)
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
             numeric={"value": lam.numeric(precision)})
    return cert


def cmd_budget(m: int, D: int) -> Certificate:
    if m < 1:
        raise InputError("m must be at least 1")
    if D < 1:
        raise InputError("D must be at least 1")
    cert = Certificate("budget", {"m": m, "D": D})
    gap = epsilon_gap(D)
    # decided on min(1/m, gap): 2^(-m) underflows to 0.0 for m > 1074
    bound = min(1.0 / m, gap)
    cert.add("epsilon_budget",
             f"2^(-{m}) * min(1/{m}, systole gap at degree {D})",
             bound > 0,
             numeric={"systole_gap": gap, "epsilon": epsilon_budget(m, gap),
                      "glued_length_bound": bound / 2})
    return cert


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="smallsys",
        description="exact certificates for the small-systole gluing toolkit")
    p.add_argument("--precision", type=int, default=128,
                   help="working precision in bits (default 128)")
    p.add_argument("--json", metavar="PATH", help="write the certificate as JSON")
    p.add_argument("--quiet", action="store_true", help="suppress the table")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the full standard-instance certificate")
    v.add_argument("--a", default="3", help="tower parameter (default 3)")
    v.add_argument("--n", type=int, default=2, help="dimension (default 2)")

    s = sub.add_parser("search", help="find a block of small translation length")
    s.add_argument("--c", default="1", help="first spatial coefficient")
    s.add_argument("--epsilon", type=float, required=True)
    s.add_argument("--height-bound", type=int, default=10000)

    mh = sub.add_parser("mahler", help="minimum Mahler measure above 1")
    mh.add_argument("--D", type=int, required=True, help="degree bound")

    b = sub.add_parser("bracelets", help="balanced bracelet enumeration")
    b.add_argument("--length", type=int)
    b.add_argument("--m", type=int)

    c = sub.add_parser("congruence", help="principal congruence membership")
    c.add_argument("matrix", help="matrix file in the form-header serialization")
    c.add_argument("--level", required=True, help='level generator, e.g. "0+1*rt2"')

    mp = sub.add_parser("minpoly", help="minimal polynomial of a k-quadratic number")
    mp.add_argument("--trace", required=True)
    mp.add_argument("--norm", required=True)

    bd = sub.add_parser("budget", help="epsilon budget for the m-family")
    bd.add_argument("--m", type=int, required=True)
    bd.add_argument("--D", type=int, required=True)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.precision < 16:
        print("error: precision must be at least 16 bits", file=sys.stderr)
        return 2
    try:
        if args.command == "verify":
            cert = cmd_verify(_parse_rational(args.a), args.n, args.precision)
        elif args.command == "search":
            cert = cmd_search(args.c, args.epsilon,
                              args.height_bound, args.precision)
        elif args.command == "mahler":
            cert = cmd_mahler(args.D)
        elif args.command == "bracelets":
            cert = cmd_bracelets(args.length, args.m)
        elif args.command == "congruence":
            cert = cmd_congruence(args.matrix, args.level)
        elif args.command == "minpoly":
            cert = cmd_minpoly(args.trace, args.norm, args.precision)
        elif args.command == "budget":
            cert = cmd_budget(args.m, args.D)
        else:                                        # pragma: no cover
            raise InputError(f"unknown command {args.command!r}")
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if not args.quiet:
        print(cert.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(cert.to_json())
    return 0 if cert.verdict == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
