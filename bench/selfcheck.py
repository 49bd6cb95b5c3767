"""Self-tests of the benchmark's own parts: python3 bench/selfcheck.py

Run from the repository root.  Checks the oracle against high-precision
decimals, the tracer's self-time accounting, that BENCHMARK.json names exactly
the metrics run.py reports, and, on a short job list, that two traced runs
give identical call counts and that traced and untraced runs write
byte-identical artifacts.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys
import time
from decimal import Decimal, getcontext
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bootstrap  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def check_oracle() -> None:
    getcontext().prec = 80
    roots = {"golden": ((1 + Decimal(5).sqrt()) / 2, (1 - Decimal(5).sqrt()) / 2),
             "sqrt2": (Decimal(2).sqrt(), -Decimal(2).sqrt())}
    rng = random.Random(7)
    for _ in range(20000):
        field = rng.choice(sorted(roots))
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        s = rng.choice((oracle.PHYSICAL, oracle.INTERNAL))
        r = Fraction(rng.randint(0, 600), rng.randint(1, 16))
        theta = roots[field][0 if s == oracle.PHYSICAL else 1]
        want = abs(a + b * theta) <= Decimal(r.numerator) / Decimal(r.denominator)
        assert oracle.abs_leq(field, a, b, s, r) == want, (field, a, b, s, r)
    # boundary cases decided exactly: |1| <= 1, |theta| against its own bound
    assert oracle.abs_leq("golden", 1, 0, oracle.INTERNAL, Fraction(1))
    assert not oracle.abs_leq("sqrt2", 0, 1, oracle.PHYSICAL, Fraction(141421, 100000))
    assert oracle.zs_points((2, 3), (1, 1), 1) == {Fraction(n, 6) for n in range(-6, 7)}
    # the golden unit window at R = 100 holds 181 points (a known count)
    assert len(oracle.patch_coeffs("golden", 100, 1)) == 181
    # a patch artifact equal to the oracle's set passes; one point less fails
    patch = {
        "type": "patch",
        "scheme": {"kind": "galois", "dim": 1, "physical_root_index": 1, "field": {"min_poly": [-2, 0, 1]}},
        "window": {"real": ["17/16"], "padic": []},
        "radius": "40",
        "points": [[[str(a), str(b)]] for a, b in sorted(oracle.patch_coeffs("sqrt2", 40, Fraction(17, 16)))],
    }
    assert oracle.check_patch(patch) is None
    del patch["points"][3]
    assert oracle.check_patch(patch) is not None


def check_tracer() -> None:
    tracer = bootstrap.Tracer()

    def leaf():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_leaf()
        traced_leaf()

    traced_leaf = tracer.wrap(leaf, "exactnum.eval_embedding", None)
    traced_outer = tracer.wrap(outer, "verify.min_separation", None)
    traced_outer()
    calls, total, own = tracer.agg["verify.min_separation"]
    leaf_calls, leaf_total, _ = tracer.agg["exactnum.eval_embedding"]
    assert calls == 1 and leaf_calls == 2
    assert abs(own - (total - leaf_total)) < 1e-9
    assert 0.005 < own < 0.05 and leaf_total >= 0.04
    assert not tracer.stack
    # both spans belong to the outermost grouped span's group
    assert abs(tracer.group_time["verify_eval"] - total) < 1e-9


def check_benchmark_json(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    want = [{"name": n, "unit": u, "better": b} for n, u, b in run.per_layer_spec()]
    assert spec["per_layer"] == want, "per_layer list out of date with run.per_layer_spec()"
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.WORKLOADS)


def check_traced_runs(root: str) -> None:
    """Two traced passes: identical call counts; traced bytes == untraced bytes."""
    runner = run.Runner(root)
    work = os.path.join(root, run.WORK_DIR, f"selfcheck-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        jobs = [
            run.workloads.Job("gen", ["cps", "generate", "--scheme", "galois:golden", "--window", "1",
                                      "--radius", "30", "--json", "gen.json"], output="gen.json"),
            run.workloads.Job("certify", ["cps", "certify", "--scheme", "galois:sqrt2", "--window", "1",
                                          "--radius", "10", "--json", "cert.json"], output="cert.json"),
            run.workloads.Job("hcert", ["heis", "certify", "--field", "sqrt2", "--window", "1,1,2",
                                        "--json", "hcert.json"], output="hcert.json"),
        ]
        plain = run.run_pass(runner, jobs, os.path.join(work, "plain"), 0, False)
        first = run.run_pass(runner, jobs, os.path.join(work, "traced-0"), 0, True)
        second = run.run_pass(runner, jobs, os.path.join(work, "traced-1"), 1, True)
        for result in (plain, first, second):
            assert all(o.code == 0 for o in result), [o.last_line for o in result]
        for job in jobs:
            ref = run._read(os.path.join(work, "plain", job.output))
            for name in ("traced-0", "traced-1"):
                assert run._read(os.path.join(work, name, job.output)) == ref, (job.name, name)
        counts = []
        for result in (first, second):
            counts.append({k: v for k, v in run.layer_counts([o.trace for o in result]).items()
                           if k.endswith(".calls") or k.endswith(".points") or k.endswith(".bytes")})
        assert counts[0] == counts[1], "call counts differ between two traced runs"
        assert counts[0]["exactnum.abs_embedding_leq.calls"] > 0
        assert counts[0]["serialize.save_json.bytes"] == sum(
            os.path.getsize(os.path.join(work, "plain", j.output)) for j in jobs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, run.WORK_DIR))
        except OSError:
            pass


def main() -> int:
    root = os.getcwd()
    for check in (check_oracle, check_tracer, lambda: check_benchmark_json(root), lambda: check_traced_runs(root)):
        check()
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
