"""Independent checks of every certificate the benchmark collects.

Nothing here imports smallsys.  Transcendental values come from mpmath at
256 bits, minimal polynomials from sympy, bracelet counts from a numpy
brute force over all balanced words, and congruence membership from
integer arithmetic in Z[sqrt2].  Expected values are computed once per job
and outside every timed region.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

import mpmath
import numpy as np

_K_RE = re.compile(r"^([+-]?\d+(?:/\d+)?)(?:([+-])(\d+(?:/\d+)?)\*rt2)?$")
_PREC = 256
# certificate numerics are interval midpoints printed with 12 decimals
_NUM_TOL = 1e-10


def parse_k(text: str):
    """'p/q', 'p/q+r/s*rt2' or 'p/q-r/s*rt2' as a pair of Fractions."""
    m = _K_RE.match(text.replace(" ", ""))
    if not m:
        raise ValueError(f"not a k-element: {text!r}")
    b = Fraction(m.group(3) or 0)
    return Fraction(m.group(1)), -b if m.group(2) == "-" else b


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _k_value(pair):
    return _mp(pair[0]) + _mp(pair[1]) * mpmath.sqrt(2)


def _alpha_at(c, t):
    """alpha of the corner block at conic parameter t (both mp values)."""
    s = mpmath.sqrt(2) * t * t
    return (c + s) / (s - c)


def _close(printed: str, exact) -> bool:
    return abs(mpmath.mpf(printed) - exact) <= _NUM_TOL * max(1, abs(exact))


def _poly_list(text: str):
    """'[c0, c1, ...]' (constant first) as Fractions."""
    return [Fraction(c.strip()) for c in text.strip()[1:-1].split(",")]


def least_rotation(s: str) -> str:
    """Lexicographically least rotation of s (Booth's algorithm)."""
    d = s + s
    f = [-1] * len(d)
    k = 0
    for j in range(1, len(d)):
        sj = d[j]
        i = f[j - k - 1]
        while i != -1 and sj != d[k + i + 1]:
            if sj < d[k + i + 1]:
                k = j - i - 1
            i = f[i]
        if sj != d[k + i + 1]:
            if sj < d[k]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    return d[k:k + len(s)]


def dihedral_canonical(s: str) -> str:
    return min(least_rotation(s), least_rotation(s[::-1]))


def balanced_bracelets(length: int):
    """Canonical balanced words of the given length over {1, 2}, sorted, by
    brute force over every balanced word and all 2L dihedral images."""
    mask = (1 << length) - 1
    words = np.arange(1 << length, dtype=np.int64)
    pop = np.zeros_like(words)
    for bit in range(length):
        pop += (words >> bit) & 1
    words = words[pop == length // 2]
    rev = np.zeros_like(words)
    for bit in range(length):
        rev |= ((words >> bit) & 1) << (length - 1 - bit)
    best = words.copy()
    for w in (words, rev):
        for r in range(length):
            best = np.minimum(best, ((w << r) | (w >> (length - r))) & mask)
    reps = np.unique(best)
    # bit 0 is the letter 1 and bit 1 the letter 2, most significant first,
    # so numeric order is the words' lexicographic order
    return [format(int(w), f"0{length}b").translate(str.maketrans("01", "12"))
            for w in reps]


def _zsqrt_divides(level, x) -> bool:
    p, q = level
    x1, x2 = x
    norm = p * p - 2 * q * q
    return (x1 * p - 2 * x2 * q) % norm == 0 and (x2 * p - x1 * q) % norm == 0


def digest(cert_text: str) -> str:
    return hashlib.sha256(cert_text.encode("utf-8")).hexdigest()


class Oracle:
    """Checks certificates against independently computed expectations;
    `check` returns the list of problems found (empty when correct)."""

    def __init__(self, golden=None):
        self.golden = golden or {}
        self._minpolys = {}
        self._bracelets = {}
        with mpmath.workprec(_PREC):
            phi = (1 + mpmath.sqrt(5)) / 2
            theta0 = mpmath.findroot(lambda x: x ** 3 - x - 1, 1.3247)
        self._gap_constant = {1: mpmath.mpf(2), 2: phi, 3: theta0, 4: theta0}

    # -- expectations, cached per input --------------------------------------

    def minpoly(self, trace, norm):
        """Monic minimal polynomial over Q (constant first) of the + root of
        x^2 - trace x + norm, trace and norm given as Fraction pairs."""
        key = (tuple(trace), tuple(norm))
        if key not in self._minpolys:
            import sympy
            x = sympy.Symbol("x")
            r2 = sympy.sqrt(2)
            t = sympy.Rational(trace[0]) + sympy.Rational(trace[1]) * r2
            n = sympy.Rational(norm[0]) + sympy.Rational(norm[1]) * r2
            root = (t + sympy.sqrt(sympy.expand(t * t - 4 * n))) / 2
            poly = sympy.minimal_polynomial(root, x, polys=True).monic()
            self._minpolys[key] = [Fraction(int(c.p), int(c.q))
                                   for c in reversed(poly.all_coeffs())]
        return self._minpolys[key]

    def bracelets(self, length):
        if length not in self._bracelets:
            self._bracelets[length] = balanced_bracelets(length)
        return self._bracelets[length]

    # -- checks ----------------------------------------------------------------

    def check(self, job, rc, cert_text, error=None):
        if error:
            return [f"raised: {error.strip().splitlines()[-1]}"]
        if cert_text is None:
            return [f"exit code {rc} and no certificate"]
        try:
            cert = json.loads(cert_text)
        except json.JSONDecodeError as exc:
            return [f"certificate is not JSON: {exc}"]
        problems = []
        want = self.golden.get(job["id"])
        if want is not None and digest(cert_text) != want:
            problems.append("certificate bytes differ from the golden digest")
        try:
            with mpmath.workprec(_PREC):
                expect_pass = getattr(self, "_" + job["kind"])(job["inputs"], cert,
                                                               problems)
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            problems.append(f"certificate malformed: {exc!r}")
            return problems
        verdict = "PASS" if expect_pass else "FAIL"
        if cert.get("verdict") != verdict:
            problems.append(f"verdict {cert.get('verdict')}, expected {verdict}")
        if rc != (0 if expect_pass else 1):
            problems.append(f"exit code {rc}, expected {0 if expect_pass else 1}")
        return problems

    @staticmethod
    def _inputs(cert, problems, **want):
        want = {k: str(v) for k, v in want.items()}
        if cert["inputs"] != want:
            problems.append(f"inputs {cert['inputs']}, expected {want}")

    @staticmethod
    def _numeric(check, key, exact, problems):
        if not _close(check["numeric_values"][key], exact):
            problems.append(f"{check['name']}.{key} = {check['numeric_values'][key]}, "
                            f"oracle {mpmath.nstr(exact, 15)}")

    def _verify(self, inp, cert, problems):
        a, n = inp["a"], inp["n"]
        self._inputs(cert, problems, a=a, n=n, precision=128)
        checks = {c["name"]: c for c in cert["checks"]}
        skips = set() if a == 3 else {"product_denominator_seven"}
        for name, c in checks.items():
            want = "SKIP" if name in skips else "PASS"
            if c["status"] != want:
                problems.append(f"{name} is {c['status']}, expected {want}")
        for i in (1, 2):
            alpha = parse_k(checks[f"g{i}_isometry"]["exact_values"]["alpha"])
            trace = parse_k(checks["eigenvalues"]["exact_values"][f"trace{i}"])
            if trace != (2 * alpha[0], 2 * alpha[1]):
                problems.append(f"trace{i} is not 2 alpha{i}")
            al = _k_value(alpha)
            self._numeric(checks["eigenvalues"], f"lambda{i}",
                          al + mpmath.sqrt(al * al - 1), problems)
            self._numeric(checks["eigenvalues"], f"length{i}", mpmath.acosh(al), problems)
            self._numeric(checks["hyperplane_distances"], f"dist{i}",
                          mpmath.acosh(al), problems)
            got = _poly_list(checks[f"lambda{i}_{'' if i == 1 else 'non'}integral"]
                             ["exact_values"][f"minpoly_lambda{i}"])
            if got != self.minpoly(trace, (Fraction(1), Fraction(0))):
                problems.append(f"minpoly_lambda{i} differs from sympy")
        return True

    def _search(self, inp, cert, problems):
        c_pair, eps, bound = parse_k(inp["c"]), inp["eps"], inp["height_bound"]
        self._inputs(cert, problems, c=inp["c"], epsilon=eps, height_bound=bound,
                     precision=128)
        c, eps_mp = _k_value(c_pair), mpmath.mpf(eps)
        check = cert["checks"][0]
        # alpha falls as t^2 grows, so the parameter of height <= bound with
        # the shortest length is bound + bound*rt2
        t_max = bound * (1 + mpmath.sqrt(2))
        expect_hit = mpmath.acosh(_alpha_at(c, t_max)) < eps_mp
        if not expect_hit:
            best = parse_k(check["exact_values"]["best_t"])
            if abs(best[0]) != bound or best[1] != best[0]:
                problems.append(f"best_t {check['exact_values']['best_t']}, "
                                f"expected +-({bound}+{bound}*rt2)")
            self._numeric(check, "best_length", mpmath.acosh(_alpha_at(c, t_max)),
                          problems)
            return False
        t = parse_k(check["exact_values"]["t"])
        alpha = _k_value(parse_k(check["exact_values"]["alpha"]))
        if abs(alpha - _alpha_at(c, _k_value(t))) > mpmath.mpf(2) ** (-_PREC + 16) * alpha:
            problems.append("alpha does not match the block at t")
        length = mpmath.acosh(alpha)
        if not length < eps_mp:
            problems.append(f"length {mpmath.nstr(length, 10)} is not below {eps}")
        self._numeric(check, "length", length, problems)
        if t[1] == 0 and t[0].denominator == 1 and t[0] > 1:
            prev = mpmath.mpf(int(t[0]) - 1)
            if mpmath.sqrt(2) * prev * prev > c and \
                    mpmath.acosh(_alpha_at(c, prev)) < eps_mp:
                problems.append(f"t - 1 = {prev} already has length below {eps}")
        return True

    def _mahler(self, inp, cert, problems):
        D = inp["D"]
        self._inputs(cert, problems, D=D)
        check = cert["checks"][0]
        coeffs = [int(c) for c in json.loads(check["exact_values"]["witness"])]
        if not 1 <= len(coeffs) - 1 <= D or coeffs[-1] != 1:
            problems.append(f"witness {coeffs} is not monic of degree <= {D}")
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=_PREC)
        measure = mpmath.fprod(max(1, abs(r)) for r in roots)
        want = self._gap_constant[D]
        if abs(measure - want) > 1e-8:
            problems.append(f"witness measure {mpmath.nstr(measure, 12)}, "
                            f"expected {mpmath.nstr(want, 12)}")
        self._numeric(check, "measure", want, problems)
        self._numeric(check, "systole_gap", mpmath.log(want), problems)
        return True

    def _budget(self, inp, cert, problems):
        m, D = inp["m"], inp["D"]
        self._inputs(cert, problems, m=m, D=D)
        check = cert["checks"][0]
        gap = mpmath.log(self._gap_constant[D])
        eps = mpmath.ldexp(min(mpmath.mpf(1) / m, gap), -m)
        self._numeric(check, "systole_gap", gap, problems)
        self._numeric(check, "epsilon", eps, problems)
        self._numeric(check, "glued_length_bound", mpmath.ldexp(eps, m) / 2, problems)
        return True

    def _bracelets_length(self, inp, cert, problems):
        length = inp["length"]
        self._inputs(cert, problems, length=length)
        reps = self.bracelets(length)
        values = cert["checks"][0]["exact_values"]
        if int(values["count"]) != len(reps):
            problems.append(f"count {values['count']}, brute force {len(reps)}")
        listed = values["sequences"].split(", ")
        want = reps[:16] + (["..."] if len(reps) > 16 else [])
        if listed != want:
            problems.append("listed sequences differ from the brute force")
        return True

    def _bracelets_m(self, inp, cert, problems):
        m = inp["m"]
        self._inputs(cert, problems, m=m)
        seqs = cert["checks"][0]["exact_values"]["sequences"].split(", ")
        if len(seqs) != m or len(set(seqs)) != m:
            problems.append(f"{len(set(seqs))} distinct sequences, expected {m}")
        for s in seqs:
            if len(s) != 2 ** m or s.count("1") != len(s) // 2 or set(s) - {"1", "2"}:
                problems.append(f"sequence {s[:16]}... is not a balanced word of "
                                f"length 2^{m}")
            elif dihedral_canonical(s) != s:
                problems.append(f"sequence {s[:16]}... is not canonical")
        return True

    def _minpoly(self, inp, cert, problems):
        (u, v), (p, q) = inp["trace"], inp["norm"]
        trace, norm = (Fraction(u), Fraction(v)), (Fraction(p), Fraction(q))
        check = cert["checks"][0]
        want = self.minpoly(trace, norm)
        got = _poly_list(check["exact_values"]["minpoly"])
        if got != want:
            problems.append(f"minpoly {got}, sympy {want}")
        integral = all(x.denominator == 1 for x in want)
        if check["exact_values"]["algebraic_integer"] != str(integral):
            problems.append(f"algebraic_integer should be {integral}")
        t, nm = _k_value(trace), _k_value(norm)
        self._numeric(check, "value", (t + mpmath.sqrt(t * t - 4 * nm)) / 2, problems)
        return True

    def _congruence(self, inp, cert, problems):
        level, n = inp["level"], inp["n"]
        level_text = f"{level[0]}{'+' if level[1] >= 0 else '-'}{abs(level[1])}*rt2"
        self._inputs(cert, problems, matrix=f"g1_n{n}.mat", level=level_text)
        # entries of g1 - Id that are not zero
        member = all(_zsqrt_divides(level, x) for x in ((2, 2), (4, 2)))
        checks = {c["name"]: c for c in cert["checks"]}
        header = "form: diag(" + ", ".join(["1"] * n) + ", -rt2)"
        if checks["isometry_verified"]["exact_values"]["form"] != header:
            problems.append("form header differs")
        if [c["status"] for c in cert["checks"]] != ["PASS"] * 3:
            problems.append("expected three PASS checks")
        if checks["membership"]["exact_values"]["member"] != str(member):
            problems.append(f"member should be {member}")
        return True
