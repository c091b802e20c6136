"""The smallsys benchmark.

    python3 bench/run.py --workload {certify,search,gap} [--seed N]
                         [--seconds S] [--trace 0|1] [--smoke]

Run from anywhere; the repository root is this file's parent directory.
Load is a closed loop with one client: each *pass* is a fresh interpreter
(`bench/worker.py`) that runs the workload's whole job list once, one job
after the other.  A run makes set-up-only spawns, then passes until
`--seconds` have gone by; per-job figures are medians over the passes.
Every certificate is checked by `bench/oracle.py` after its pass, outside
the timed region; for the default seed its SHA-256 must also match
`bench/golden.json`.  With `--trace 1` one more pass runs under
`bench/tracer.py` and the per-layer metrics come from it.

Human-readable lines go first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.  The full
record, environment included, is written to `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import mpmath
import numpy

from oracle import Oracle, digest
from workloads import DEFAULT_SEED, MATRIX_FILES, NAMED_JOBS, WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
SETUP_SPAWNS = 5
PASS_TIMEOUT_S = 150
# Calibrated times are wall times scaled by (CAL_REF_S / p) ** CAL_EXPONENT,
# p the median probe time (worker.SpeedProbe) around and during the job,
# which takes out the shared host's swings in CPU speed.  CAL_REF_S is the
# probe's time on the reference machine, a 2-vCPU Intel Xeon with Python
# 3.11, in its fast state.  The program slows less than the probe when the
# host is slow: over 30 runs, fixed-job wall time grew as the probe time to
# the power 0.77-0.85.
CAL_REF_S = 0.0012
CAL_EXPONENT = 0.8
# the program is single-threaded; numpy's BLAS would otherwise start one
# spinning thread per core in every pass process
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {            # name -> unit; BENCHMARK.json lists the same
    "setup_s": "s",
    "certs_per_s": "1/s",
    "cert_p50_s": "s",
    "fixed_s": "s",
    "peak_rss_mb": "MB",
}


class PassError(RuntimeError):
    pass


def run_pass(workdir: Path, jobs_file: str, spans_file: str | None = None):
    """Spawn one pass and return the worker's record, with set-up and job
    times calibrated (`setup_ref_s`, `ref_seconds`) next to the wall times."""
    out_file = workdir / f"out-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(ROOT), jobs_file, str(out_file)]
    if spans_file:
        cmd.append(spans_file)
    with open(workdir / "worker.err", "a", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=workdir, stdout=subprocess.PIPE,
                                stderr=err, text=True, env={**os.environ, **WORKER_ENV})
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            proc.communicate(timeout=PASS_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        tail = (workdir / "worker.err").read_text(encoding="utf-8")[-2000:]
        raise PassError(f"pass process exited with {proc.returncode}: {tail}")
    with open(out_file, encoding="utf-8") as fh:
        record = json.load(fh)
    out_file.unlink()
    record["setup_s"] = setup - record["setup"]["probe_spent_s"]
    record["setup_ref_s"] = record["setup_s"] * _speed_factor(record["setup"]["probe_s"])
    for r in record["jobs"]:
        r["ref_seconds"] = r["seconds"] * _speed_factor(r["probe_s"])
    return record


def _speed_factor(probes):
    return (CAL_REF_S / statistics.median(probes)) ** CAL_EXPONENT


def _git_sha(root: Path):
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    return {"git_sha": _git_sha(ROOT), "python": platform.python_version(),
            "mpmath": mpmath.__version__, "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "worker_env": WORKER_ENV, "loadavg_start": os.getloadavg()}


def tail_percentile(samples):
    """(p, value): the highest of p99.9/p99/p95/p90/p75/p50 with at least ten
    samples beyond it, or None when there are fewer than 20 samples."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            ordered = sorted(samples)
            return p, ordered[min(n - 1, int(n * p / 100))]
    return None


def describe(name, samples):
    line = f"{name:<24} median {statistics.median(samples):.6f} s"
    tail = tail_percentile(samples)
    if tail:
        line += f"  p{tail[0]:g} {tail[1]:.6f} s"
    return line + f"  (n={len(samples)})"


def check_passes(jobs, records, oracle, reference=None, first=0):
    """Oracle problems keyed by (pass index, job id).  A certificate whose
    bytes differ from `reference`'s (by default the first record's) for the
    same job is a problem too.  Each problem is one failed attempt."""
    reference = reference or records[0]
    expected = {r["id"]: r["cert"] for r in reference["jobs"]}
    by_id = {j["id"]: j for j in jobs}
    problems = {}
    for k, rec in enumerate(records, first):
        if [r["id"] for r in rec["jobs"]] != list(by_id):
            raise PassError("a pass did not run the job list in order")
        for r in rec["jobs"]:
            found = oracle.check(by_id[r["id"]], r["rc"], r["cert"], r["error"])
            if r["cert"] != expected[r["id"]]:
                found.append("certificate bytes differ from the reference pass")
            if found:
                problems[(k, r["id"])] = found
    return problems


def end_to_end(jobs, passes, setups, key="ref_seconds", setup_key="setup_ref_s"):
    """End-to-end metrics from calibrated times (the default) or from plain
    wall times (`key="seconds", setup_key="setup_s"`)."""
    fixed = {j["id"] for j in jobs if j["fixed"]}
    walls = [sum(r[key] for r in p["jobs"]) for p in passes]
    return {
        "setup_s": statistics.median(s[setup_key] for s in setups),
        "certs_per_s": statistics.median(len(jobs) / w for w in walls),
        "cert_p50_s": statistics.median(statistics.median(p["jobs"][i][key] for p in passes)
                                        for i in range(len(jobs))),
        "fixed_s": statistics.median(sum(r[key] for r in p["jobs"] if r["id"] in fixed)
                                     for p in passes),
        "peak_rss_mb": max(p["maxrss_kb"] for p in passes) / 1024,
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(summary, overhead_ratio):
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    calls, incl, cnt = summary["calls"], summary["inclusive_s"], summary["counts"]

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def s(*names):
        return sum(incl.get(n, 0.0) for n in names)

    out = {}

    def timed(metric, *names):
        out[f"{metric}.calls"] = (c(*names), "count")
        out[f"{metric}.s"] = (s(*names), "s")

    out["exactfield.kelem_mul.calls"] = (c("exactfield.KElem.__mul__"), "count")
    out["exactfield.kelem_add.calls"] = (c("exactfield.KElem.__add__"), "count")
    out["exactfield.kelem_sign.calls"] = (c("exactfield.KElem.sign"), "count")
    out["exactfield.tower_mul.calls"] = (c("exactfield.TowerElem.__mul__"), "count")
    out["exactfield.interval_fn.calls"] = (c(*(f"exactfield.RealInterval.{f}" for f in
                                               ("log", "exp", "cosh", "acosh", "acos",
                                                "sqrt"))), "count")
    embeds = c("exactfield.KElem.embed")
    out["exactfield.embed.calls"] = (embeds, "count")
    out["exactfield.embed.max_bits"] = (cnt.get("embed_max_bits", 0), "bits")
    out["exactfield.embed.escalated_ratio"] = (
        _ratio(cnt.get("embed_escalated", 0), embeds), "ratio")
    timed("lorentz.is_isometry", "lorentz.is_isometry")
    timed("lorentz.mat_mul", "lorentz.mat_mul")
    out["lorentz.isometry_mul.calls"] = (
        c("lorentz.Isometry.__mul__", "lorentz.Isometry.inverse"), "count")
    out["lorentz.param_block.calls"] = (c("lorentz.param_block"), "count")
    out["lorentz.search.hit_ratio"] = (
        _ratio(cnt.get("search_hits", 0), c("lorentz.param_block")), "ratio")
    timed("lorentz.translation_length", "lorentz.translation_length")
    timed("polyalg.minpoly_over_Q", "polyalg.minpoly_over_Q")
    timed("polyalg.product", "polyalg.product")
    timed("polyalg.enumerate_bounded", "polyalg.enumerate_bounded")
    box = cnt.get("box_polys", 0)
    out["polyalg.enumerate_bounded.box_polys"] = (box, "count")
    out["polyalg.enumerate_bounded.polys_per_s"] = (
        _ratio(box, s("polyalg.enumerate_bounded")), "1/s")
    out["polyalg.enumerate_bounded.accept_ratio"] = (
        _ratio(cnt.get("accepted", 0), box), "ratio")
    out["polyalg.enumerate_bounded.repeat_ratio"] = (
        _ratio(cnt.get("box_polys_repeated", 0), box), "ratio")
    timed("polyalg.is_measure_one", "polyalg.is_measure_one")
    timed("polyalg.mahler_measure", "polyalg.mahler_measure")
    timed("arith.evaluate", "arith.GroupSample.evaluate")
    timed("arith.adjoint_trace", "arith.adjoint_trace")
    out["arith.integrality_scan.s"] = (s("arith.integrality_scan"), "s")
    out["arith.trace_field_sample.s"] = (s("arith.trace_field_sample"), "s")
    out["hypgeom.dist_hyperplanes.calls"] = (c("hypgeom.dist_hyperplanes"), "count")
    out["congr.in_principal_congruence.calls"] = (
        c("congr.in_principal_congruence"), "count")
    for fn in ("enumerate_balanced_bracelets", "burnside_count", "select_inequivalent"):
        out[f"combin.{fn}.s"] = (s(f"combin.{fn}"), "s")
    out["combin.bracelets.count"] = (cnt.get("bracelets", 0), "count")
    for layer, value in summary["self_s"].items():
        out[f"{layer}.self_s"] = (value, "s")
    out["trace.job_wall_s"] = (summary["job_wall_s"], "s")
    out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return out


def update_golden(workload, passes):
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden["seed"] = DEFAULT_SEED
    golden[workload] = {r["id"]: digest(r["cert"]) for r in passes[0]["jobs"]}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass of a tiny seeded subset of the workload")
    ap.add_argument("--update-golden", action="store_true",
                    help="rewrite this workload's digests in bench/golden.json")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "smallsys" / "cli.py").is_file():
        print(f"error: no smallsys sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.update_golden and (args.seed != DEFAULT_SEED or args.smoke):
        print("error: golden digests are for the default seed's full job list",
              file=sys.stderr)
        return 2

    env = environment()
    jobs = generate(args.workload, args.seed, args.smoke)
    golden = {}
    if args.seed == DEFAULT_SEED and not args.smoke and not args.update_golden \
            and GOLDEN.is_file():
        golden = json.loads(GOLDEN.read_text()).get(args.workload, {})
    oracle = Oracle(golden)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        (workdir / "jobs.json").write_text(json.dumps(jobs))
        (workdir / "none.json").write_text("[]")
        for n, text in MATRIX_FILES.items():
            (workdir / f"g1_n{n}.mat").write_text(text)

        # set-up: one spawn to warm the file cache, then timed spawns
        setups = []
        for k in range(0 if args.smoke else SETUP_SPAWNS + 1):
            rec = run_pass(workdir, "none.json")
            if k:
                setups.append(rec)
        passes = []
        start = time.perf_counter()
        while not passes or (not args.smoke and time.perf_counter() - start < args.seconds):
            rec = run_pass(workdir, "jobs.json")
            setups.append(rec)
            passes.append(rec)
        problems = check_passes(jobs, passes, oracle)
        e2e = {k: (v, END_TO_END[k]) for k, v in end_to_end(jobs, passes, setups).items()}
        wall = {k: (v, END_TO_END[k]) for k, v in
                end_to_end(jobs, passes, setups, "seconds", "setup_s").items()}
        layers = {}
        attempted = len(jobs) * len(passes)
        trace = None
        if args.trace:
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            traced = run_pass(workdir, "jobs.json", str(spans_file))
            trace = traced["trace"]
            problems.update(check_passes(jobs, [traced], oracle, reference=passes[0],
                                         first=len(passes)))
            attempted += len(jobs)
            # the tracer's cost, from calibrated times of the same jobs
            untraced = statistics.median(sum(r["ref_seconds"] for r in p["jobs"])
                                         for p in passes)
            overhead = sum(r["ref_seconds"] for r in traced["jobs"]) / untraced
            layers = per_layer(trace, overhead)
        if args.update_golden and not problems:
            update_golden(args.workload, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(problems)
    env["loadavg_end"] = os.getloadavg()
    named = {}
    for name, match in NAMED_JOBS[args.workload].items():
        per_pass = [sum(r["seconds"] for r in p["jobs"] if match(r["id"])) for p in passes]
        if any(per_pass):
            named[name] = per_pass
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "passes": len(passes), "jobs": [j["argv"] for j in jobs],
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": {f"pass{k}/{jid}": v for (k, jid), v in sorted(problems.items())},
        "job_seconds": {r["id"]: [p["jobs"][i]["seconds"] for p in passes]
                        for i, r in enumerate(passes[0]["jobs"])},
        "named_s": named, "setup_samples_s": [s["setup_s"] for s in setups],
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "end_to_end_wall": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
    }
    if trace:
        record["trace_summary"] = trace
    result_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload}  seed {args.seed}  {len(jobs)} jobs x "
          f"{len(passes)} passes  attempted {attempted}  failed {failed}  "
          f"fail_ratio {failed / attempted:.4f}")
    for key, found in sorted(problems.items()):
        print(f"FAILED pass{key[0]}/{key[1]}: {'; '.join(found)}")
    print("wall-clock timings:")
    print(describe("setup_s", [s["setup_s"] for s in setups]))
    print(describe("cert_s", [r["seconds"] for p in passes for r in p["jobs"]]))
    for name, samples in named.items():
        print(describe(name, samples))
    for name, (value, unit) in wall.items():
        print(f"  {name:<42} {value:.6g} {unit}")
    print(f"calibrated metrics (gated; probe reference {CAL_REF_S} s, "
          f"exponent {CAL_EXPONENT}):")
    for name, (value, unit) in {**e2e, **layers}.items():
        print(f"  {name:<42} {value:.6g} {unit}")
    print(f"record written to {result_file.relative_to(ROOT)}")
    metrics = layers if args.trace else e2e
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
