"""Seeded job lists for the three benchmark workloads.

A job is one `smallsys` command line.  Every job has a stable id, the argv
handed to `smallsys.cli.main`, its kind and inputs (for the oracle), and a
`fixed` flag: fixed jobs are the anchors every seed shares, seeded jobs are
drawn from `random.Random(seed)`.  The program sees only the argv and, for
`congruence`, a matrix file the benchmark writes (`MATRIX_FILES`).
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("certify", "search", "gap")
DEFAULT_SEED = 0

# integers a <= 30 that are not squares in k = Q(sqrt2) (squares there are
# s^2 and 2 s^2).  a = 12 is left out: its verify certificate is FAIL,
# because the chosen g2 block then has an integral leading eigenvalue.
ADMISSIBLE_A = tuple(a for a in range(3, 31)
                     if not any(a in (s * s, 2 * s * s) for s in range(1, 6))
                     and a != 12)

SEARCH_C = {"1": 1.0, "2": 2.0, "3": 3.0, "1+1*rt2": 1 + math.sqrt(2)}
# seeded search targets: eps is set so that the first hit lies at a
# parameter height t drawn from one of eight equal log-strata of this band
# (the cost of a search grows linearly with t); each c is used twice
SEARCH_T_BAND = (300, 700)
SEARCH_TARGETS = 8

# the warm-up job every pass process runs before it reports ready; no
# workload contains it, so it fills no cache a timed job could hit
WARMUP_ARGV = ["--quiet", "minpoly", "--trace=2", "--norm=-1"]

# g1 = the corner block at t = 1 on diag(1, ..., 1, -rt2)
MATRIX_FILES = {
    n: "form: diag(" + ", ".join(["1"] * n) + ", -rt2)\n"
       + "".join("row: " + ", ".join(row) + "\n" for row in (
           [["3+2*rt2"] + ["0"] * (n - 1) + ["4+2*rt2"]]
           + [["0"] * i + ["1"] + ["0"] * (n - i) for i in range(1, n)]
           + [["2+2*rt2"] + ["0"] * (n - 1) + ["3+2*rt2"]]))
    for n in (2, 3)
}


def _job(jid, argv, kind, fixed=False, **inputs):
    return {"id": jid, "argv": argv, "kind": kind, "fixed": fixed,
            "inputs": inputs}


def _ktext(u: int, v: int) -> str:
    return f"{u}{'+' if v >= 0 else '-'}{abs(v)}*rt2"


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def _is_square_in_k(a: int, b: int) -> bool:
    """Whether a + b sqrt2 (integers) is a square (x + y sqrt2)^2 in k."""
    if b == 0:                                  # x = 0 or y = 0
        return _is_square(a) or (a % 2 == 0 and _is_square(a // 2))
    # x^2 + 2y^2 = a, 2xy = b: a^2 - 2b^2 = s^2 and x^2 = (a +- s)/2
    norm = a * a - 2 * b * b
    if not _is_square(norm):
        return False
    s = math.isqrt(norm)
    return any(m > 0 and _is_square(2 * m) for m in (a + s, a - s))


def _certify(rng: random.Random, smoke: bool):
    jobs = [_job("verify_n2", ["verify", "--a", "3", "--n", "2"], "verify",
                 True, a=3, n=2)]
    if not smoke:
        jobs += [
            _job("verify_n6", ["verify", "--a", "3", "--n", "6"], "verify",
                 True, a=3, n=6),
            _job("verify_a17", ["verify", "--a", "17", "--n", "2"], "verify",
                 True, a=17, n=2),
        ]
        pool = [a for a in ADMISSIBLE_A if a not in (3, 17)]
        for n, a in zip((2, 3), rng.sample(pool, 2)):
            jobs.append(_job(f"verify_a{a}_n{n}",
                             ["verify", "--a", str(a), "--n", str(n)],
                             "verify", a=a, n=n))
    seen = {(2, 0, -1, 0)}
    want = 2 if smoke else 12
    while len(seen) <= want:
        u, v, p, q = (rng.randint(-3, 3), rng.randint(1, 3) * rng.choice((-1, 1)),
                      rng.randint(-3, 3), rng.randint(-3, 3))
        # the + root must be real, disc = T^2 - 4N > 0 with T = u + v rt2,
        # and of degree 4 over Q: T is irrational and disc is no square in k
        disc = (u * u + 2 * v * v - 4 * p, 2 * u * v - 4 * q)
        if (u, v, p, q) in seen or _is_square_in_k(*disc) or \
                disc[0] + disc[1] * math.sqrt(2) <= 1e-9:
            continue
        seen.add((u, v, p, q))
        trace, norm = _ktext(u, v), _ktext(p, q)
        jobs.append(_job(f"minpoly_{len(seen) - 1:02d}",
                         ["minpoly", f"--trace={trace}", f"--norm={norm}"],
                         "minpoly", trace=[u, v], norm=[p, q]))
    levels = set()
    want = 1 if smoke else 3
    while len(levels) < want:
        p, q = rng.randint(-3, 3), rng.randint(-2, 2)
        if p * p - 2 * q * q != 0:
            levels.add((p, q))
    for i, (p, q) in enumerate(sorted(levels)):
        n = 2 if smoke else 2 + i % 2
        jobs.append(_job(f"congruence_{i}",
                         ["congruence", f"g1_n{n}.mat", f"--level={_ktext(p, q)}"],
                         "congruence", level=[p, q], n=n))
    return jobs


def _search(rng: random.Random, smoke: bool):
    if smoke:
        return [
            _job("search_eps1e-2", ["search", "--c", "1", "--epsilon", "0.01"],
                 "search", True, c="1", eps=0.01, height_bound=10000),
            _job("search_exhausted", ["search", "--c", "1", "--epsilon", "0.001",
                                      "--height-bound", "4"],
                 "search", True, c="1", eps=0.001, height_bound=4),
        ]
    jobs = [
        _job("search_eps1e-3", ["search", "--c", "1", "--epsilon", "0.001"],
             "search", True, c="1", eps=0.001, height_bound=10000),
        _job("search_exhausted", ["search", "--c", "1", "--epsilon", "0.001",
                                  "--height-bound", "25"],
             "search", True, c="1", eps=0.001, height_bound=25),
    ]
    cs = list(SEARCH_C) * (SEARCH_TARGETS // len(SEARCH_C))
    rng.shuffle(cs)
    lo, hi = (math.log(x) for x in SEARCH_T_BAND)
    for i, c in enumerate(cs):
        t = math.exp(lo + (hi - lo) * (i + rng.random()) / SEARCH_TARGETS)
        # the first hit is near t when eps ~ 2 sqrt(c / sqrt2) / t
        eps = float(f"{2 * math.sqrt(SEARCH_C[c] / math.sqrt(2)) / t:.3g}")
        jobs.append(_job(f"search_{i}", ["search", "--c", c, "--epsilon", repr(eps)],
                         "search", c=c, eps=eps, height_bound=10000))
    return jobs


def _gap(rng: random.Random, smoke: bool):
    if smoke:
        mahler_d, bracelet_m, bracelet_len = (3,), (4,), (8,)
        budgets = [(rng.randint(1, 12), 3)]
    else:
        mahler_d, bracelet_m, bracelet_len = (2, 3, 4), (8, 10, 12), (16, 18, 20)
        ms = rng.sample(range(1, 13), 4)
        budgets = [(m, 3) for m in ms[:3]] + [(ms[3], 4)]
    jobs = [_job(f"mahler_D{d}", ["mahler", "--D", str(d)], "mahler", True, D=d)
            for d in mahler_d]
    jobs += [_job(f"bracelets_m{m}", ["bracelets", "--m", str(m)], "bracelets_m",
                  True, m=m) for m in bracelet_m]
    jobs += [_job(f"bracelets_len{n}", ["bracelets", "--length", str(n)],
                  "bracelets_length", True, length=n) for n in bracelet_len]
    jobs += [_job(f"budget_D{d}_m{m}", ["budget", "--m", str(m), "--D", str(d)],
                  "budget", m=m, D=d) for m, d in budgets]
    return jobs


def generate(workload: str, seed: int, smoke: bool = False):
    """The job list of one workload; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs = {"certify": _certify, "search": _search, "gap": _gap}[workload](rng, smoke)
    ids = [j["id"] for j in jobs]
    if len(set(ids)) != len(ids) or len({tuple(j["argv"]) for j in jobs}) != len(jobs):
        raise AssertionError("a job repeats within a pass")
    return jobs


# named job timings, each the median over passes of the summed wall time of
# the jobs whose id matches the predicate
NAMED_JOBS = {
    "certify": {
        "verify_n2_s": lambda jid: jid == "verify_n2",
        "verify_n6_s": lambda jid: jid == "verify_n6",
        "verify_a17_s": lambda jid: jid == "verify_a17",
    },
    "search": {
        "search_eps1e-3_s": lambda jid: jid == "search_eps1e-3",
        "search_exhausted_s": lambda jid: jid == "search_exhausted",
    },
    "gap": {
        "mahler_D4_s": lambda jid: jid == "mahler_D4",
        "budget_D4_s": lambda jid: jid.startswith("budget_D4_"),
        "bracelets_s": lambda jid: jid.startswith("bracelets_"),
    },
}
