"""Tests of the benchmark itself (not part of the repository's tier-1 suite):

    python3 -m pytest bench/tests -q
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench_run  # noqa: E402
from oracle import (Oracle, balanced_bracelets, dihedral_canonical,  # noqa: E402
                    least_rotation, parse_k)
from tracer import LAYERS, Tracer, box_polys  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                         capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_end_to_end_metric(workload):
    res = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                 "--trace", "0", "--smoke")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert bench_run.END_TO_END == _units("end_to_end")


def test_traced_smoke_run_emits_every_per_layer_metric():
    res = _bench("--workload", "certify", "--seed", "5", "--seconds", "1",
                 "--trace", "1", "--smoke")
    assert res["correct"] and res["failed"] == 0
    assert {k: v["unit"] for k, v in res["metrics"].items()} == _units("per_layer")
    m = {k: v["value"] for k, v in res["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in LAYERS) + m["harness.self_s"]
    assert layers == pytest.approx(m["trace.job_wall_s"], rel=1e-9)
    assert m["trace.overhead_ratio"] > 0 and m["exactfield.kelem_mul.calls"] > 0


def test_corrupted_certificate_counts_in_fail_ratio(tmp_path):
    jobs = generate("gap", 5, smoke=True)
    (tmp_path / "jobs.json").write_text(json.dumps(jobs))
    good = bench_run.run_pass(tmp_path, "jobs.json")
    oracle = Oracle()
    assert bench_run.check_passes(jobs, [good], oracle) == {}
    bad = json.loads(json.dumps(good))
    rec = next(r for r in bad["jobs"] if r["id"] == "mahler_D3")
    assert '"1.324717957245"' in rec["cert"]
    rec["cert"] = rec["cert"].replace('"1.324717957245"', '"1.324717957255"')
    # exactly one failed attempt out of the 2 * len(jobs) attempted
    assert list(bench_run.check_passes(jobs, [good, bad], oracle)) == [(1, "mahler_D3")]
    # a certificate that no longer parses, or a wrong exit code, fails too
    rec["cert"], rec["rc"] = "{", 0
    assert "certificate is not JSON" in bench_run.check_passes(
        jobs, [good, bad], oracle)[(1, "mahler_D3")][0]


def test_golden_digest_mismatch_is_a_problem():
    job = generate("gap", 5, smoke=True)[0]
    cert = json.dumps({"inputs": {"D": "3"}, "verdict": "PASS", "checks": [
        {"name": "minimum_above_one", "status": "PASS",
         "exact_values": {"witness": "[-1, -1, 0, 1]"},
         "numeric_values": {"measure": "1.324717957245",
                            "systole_gap": "0.281199574323"}}]})
    assert Oracle().check(job, 0, cert) == []
    assert Oracle({job["id"]: "0" * 64}).check(job, 0, cert) == [
        "certificate bytes differ from the golden digest"]


def _bindings():
    """Every smallsys module attribute and class dict entry, by identity."""
    out = {}
    for name, module in sys.modules.items():
        if name.startswith("smallsys"):
            for attr, obj in vars(module).items():
                out[(name, attr)] = id(obj)
                if inspect.isclass(obj):
                    for key, desc in vars(obj).items():
                        out[(name, attr, key)] = id(desc)
    return out


def test_tracer_wraps_and_fully_unwraps(tmp_path):
    cli = importlib.import_module("smallsys.cli")
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert getattr(cli.minpoly_over_Q, "__bench_traced__", False)
        assert getattr(cli.KElem.__mul__, "__bench_traced__", False)
        with tracer.job("j"):
            assert cli.main(["--quiet", "minpoly", "--trace=6+4*rt2", "--norm=1"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    assert _bindings() == before
    summary = tracer.summary()
    assert summary["calls"]["cli.main"] == summary["calls"]["cli.cmd_minpoly"] == 1
    assert summary["calls"]["polyalg.minpoly_over_Q"] >= 1
    assert sum(summary["self_s"].values()) == pytest.approx(summary["job_wall_s"])
    # every span is filled in, carries the job id and lies inside its parent
    spans = tracer.spans
    assert spans[0][0] == "job" and all(s[4] == "j" for s in spans)
    for name, t0, t1, parent, _ in spans[1:]:
        assert spans[parent][1] <= t0 <= t1 <= spans[parent][2]


def test_certificate_bytes_unchanged_by_tracing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli = importlib.import_module("smallsys.cli")
    argv = ["--quiet", "--json", "c.json", "search", "--epsilon", "0.01"]
    assert cli.main(argv) == 0
    plain = (tmp_path / "c.json").read_bytes()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.job("j"):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert (tmp_path / "c.json").read_bytes() == plain
    assert tracer.counts["search_hits"] == 1


def test_box_size_matches_the_docstring_bound():
    assert box_polys(4, 1.4) == 6432


def test_bracelet_brute_force_matches_known_counts():
    # balanced binary bracelets of length 2n, n = 1..10 (OEIS A005648)
    known = [1, 2, 3, 8, 16, 50, 133, 440, 1387, 4752]
    assert [len(balanced_bracelets(2 * n)) for n in range(1, 11)] == known
    assert balanced_bracelets(4) == ["1122", "1212"]


def test_canonical_words():
    assert least_rotation("2211") == "1122"
    assert least_rotation("21211") == "11212"
    assert dihedral_canonical("1121222122") == min(
        min(w[i:] + w[:i] for i in range(len(w))) for w in ("1121222122", "2212221211"))


def test_parse_k():
    assert parse_k("3+2*rt2") == (3, 2)
    assert parse_k("-1/7-40/7*rt2") == (parse_k("-1/7")[0], -parse_k("40/7")[0])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_lists_are_seeded_and_never_repeat_a_job(workload):
    a, b = generate(workload, 11), generate(workload, 11)
    assert a == b
    assert len({tuple(j["argv"]) for j in a}) == len(a)
    fixed = [j["id"] for j in a if j["fixed"]]
    assert fixed == [j["id"] for j in generate(workload, 12) if j["fixed"]]
    assert a != generate(workload, 12)
