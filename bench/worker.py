"""One pass of a workload in a fresh interpreter.

    python3 bench/worker.py ROOT JOBS.json OUT.json [SPANS.json]

Imports `smallsys.cli` from ROOT/src, runs the untimed warm-up job, prints
`ready` (the parent times set-up up to that line), then runs every job of
JOBS.json once, in order, through `smallsys.cli.main`, each writing its
certificate to `<job id>.json` in the working directory.  OUT.json gets
each job's exit code, wall time, certificate text, error and speed-probe
samples, plus the process's peak RSS.  With SPANS.json the jobs run under
the tracer (and without the probe timer); the trace summary goes into
OUT.json and the spans into SPANS.json.
"""

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

PROBE_INTERVAL_S = 0.05
# probes right before and right after each job: a job shorter than the
# timer interval has only these
PROBES_AROUND_JOB = 2


class SpeedProbe:
    """Samples how fast the shared CPU runs at the moment: the time of a
    fixed ~1 ms pure-Python Fraction kernel, taken on demand and, once
    started, from a SIGALRM timer every PROBE_INTERVAL_S, so that a long job
    is sampled while it runs.  `spent` tallies the probes' own time so that
    it can be taken out of the wall time they interrupted."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._busy = False

    def sample(self, *_):
        if self._busy:                  # the timer fired inside a probe
            return
        self._busy = True
        t0 = time.perf_counter()
        a, b = Fraction(3, 7), Fraction(5, 11)
        for i in range(150):
            a = (a * b + Fraction(i, 13)) / (a + 1)
            a = Fraction(a.numerator % 10007, a.denominator % 10009 + 1)
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _call(main, argv):
    """Run one command line; returns (exit code, stderr, traceback or None)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return main(argv), err.getvalue(), None
        except SystemExit as exc:                     # argparse rejects input
            return (exc.code if isinstance(exc.code, int) else 2), err.getvalue(), None
        except Exception:                             # noqa: BLE001 - record, go on
            return None, err.getvalue(), traceback.format_exc()


def main(argv):
    root, job_path, out_path = argv[1:4]
    spans_path = argv[4] if len(argv) > 4 else None
    probe = SpeedProbe()
    if not spans_path:
        probe.start()
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WARMUP_ARGV
    from smallsys.cli import main as cli_main

    rc, err, exc = _call(cli_main, WARMUP_ARGV)
    if rc != 0:
        print(f"warm-up failed: {err}{exc or ''}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    spent = probe.spent
    probe.sample()
    setup = {"probe_s": list(probe.samples), "probe_spent_s": spent}

    with open(job_path, encoding="utf-8") as fh:
        jobs = json.load(fh)
    tracer = None
    if spans_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    for job in jobs:
        cert_path = f"{job['id']}.json"
        job_argv = ["--quiet", "--json", cert_path] + job["argv"]
        scope = tracer.job(job["id"]) if tracer else contextlib.nullcontext()
        first = len(probe.samples)
        for _ in range(PROBES_AROUND_JOB):
            probe.sample()
        spent = probe.spent
        t0 = time.perf_counter()
        with scope:
            rc, err, exc = _call(cli_main, job_argv)
        seconds = time.perf_counter() - t0 - (probe.spent - spent)
        for _ in range(PROBES_AROUND_JOB):
            probe.sample()
        cert = None
        if os.path.exists(cert_path):
            with open(cert_path, encoding="utf-8") as fh:
                cert = fh.read()
            os.remove(cert_path)
        results.append({"id": job["id"], "rc": rc, "seconds": seconds, "cert": cert,
                        "stderr": err, "error": exc, "probe_s": probe.samples[first:]})
    probe.stop()
    out = {"jobs": results, "setup": setup,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.summary()
        tracer.write_spans(spans_path)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
