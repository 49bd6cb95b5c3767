"""meyerlab benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload abelian-build --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 24   # every workload, one table each

Run it from the repository root.  The benchmark drives the `meyerlab` CLI from
outside: a closed loop with one client, one job per child process
(`python3 -m meyerlab.cli ...` with PYTHONPATH=src), one job at a time.  A
fresh process per job is what a CLI user gets; it also keeps per-process
state (environment variables the CLI sets, per-field caches) from carrying
over between jobs.

A run: set-up at least three times (setup_s is the median); then passes over the
seed's job list until --seconds is used up, at least two, alternating
PYTHONHASHSEED 0 and 1; then an untimed check pass (artifact checks against
bench/oracle.py, byte-identical artifacts across passes, `verify replay` of
every artifact).  total_s and cpu_s sum each job's median over the passes.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it holds the per-layer
metrics recorded by bench/bootstrap.py.  bench/DESIGN.md explains the choices.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402

MIN_SETUP_REPS = 3
MAX_SETUP_REPS = 100
SETUP_BUDGET_S = 1.0  # a cheap set-up repeats until this much time is spent
MIN_PASSES = 2
JOB_TIMEOUT_S = 60
WORK_DIR = ".bench_work"

REPLAY_TYPES = (
    "patch", "approximate_lattice", "intersection", "projection", "heis_patch",
    "heis_cover", "center_intersection", "schreiber_hull", "meyer_commensurability",
    "sum_product", "sum_product_rejection", "poly_translate_cover", "delone_report",
    "patch_cover", "cell_cover",
)
COMMANDS = (
    "cps.generate", "cps.certify", "cps.intersect", "cps.project", "pisot.certify",
    "pisot.polycover", "heis.certify", "heis.center", "heis.hull", "heis.commensurate",
    "verify.delone", "verify.cover", "verify.replay",
)

# span groups of bench/bootstrap.py, reported as share.<group>
SHARE_GROUPS = ("enumerate_leq", "verify_eval", "replay")

END_TO_END = (
    ("setup_s", "s"),
    ("total_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_kb", "KiB"),
)


@dataclass
class Outcome:
    job: workloads.Job
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    last_line: str
    trace: dict | None = None
    problem: str | None = None


class Runner:
    """Spawns CLI children from the checkout root and reaps them with wait4."""

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("MEYERLAB_MAX_PRECISION", None)
        self.bootstrap = os.path.join(root, "bench", "bootstrap.py")

    def spawn(self, argv, cwd, hashseed, trace_out=None) -> tuple[int, float, float, int, str]:
        """Run one job; (exit code, wall s, user+sys s, max RSS KiB, last output line)."""
        env = dict(self.env, PYTHONHASHSEED=str(hashseed))
        if trace_out:
            cmd = [sys.executable, self.bootstrap] + argv
            env["BENCH_TRACE_OUT"] = trace_out
        else:
            cmd = [sys.executable, "-m", "meyerlab.cli"] + argv
        log_path = os.path.join(cwd, ".job.log")
        with open(log_path, "w+") as log:
            start = perf_counter()
            env["BENCH_SPAWN_T"] = repr(time.time())
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            log.seek(0)
            text = log.read()
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, _last_line(text)

    def batch(self, commands, cwd, hashseed) -> list[tuple[int, str]]:
        """Run commands in one child (bench/batch.py); (exit code, output) each."""
        commands_path = os.path.join(cwd, ".batch-commands.json")
        results_path = os.path.join(cwd, ".batch-results.json")
        with open(commands_path, "w") as handle:
            json.dump(commands, handle)
        argv = [os.path.join(self.root, "bench", "batch.py"), commands_path, results_path]
        code = subprocess.run([sys.executable] + argv, cwd=cwd, timeout=JOB_TIMEOUT_S,
                              env=dict(self.env, PYTHONHASHSEED=str(hashseed))).returncode
        if code != 0:
            raise RuntimeError(f"batch runner exited {code}")
        with open(results_path) as handle:
            results = json.load(handle)
        os.unlink(commands_path)
        os.unlink(results_path)
        return [(r["code"], r["output"]) for r in results]


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def run_setup(runner: Runner, name: str, seed: int, setup_dir: str, hashseed: int):
    """One set-up: job list for the seed, input files, prebuilt artifacts."""
    os.makedirs(setup_dir)

    def run_cli(commands):
        """Run (argv, expected exit code) pairs in one process, in order."""
        results = runner.batch([argv for argv, _ in commands], setup_dir, hashseed)
        for (argv, expect), (code, text) in zip(commands, results):
            if code != expect:
                raise RuntimeError(f"set-up command {' '.join(argv)} exited {code}:\n{text}")

    return workloads.WORKLOADS[name](random.Random(seed), setup_dir, run_cli)


def run_pass(runner: Runner, jobs, pass_dir: str, hashseed: int, traced: bool) -> list[Outcome]:
    """One pass over the job list, one job at a time."""
    os.makedirs(pass_dir)
    outcomes = []
    for i, job in enumerate(jobs):
        trace_out = os.path.join(pass_dir, f".trace-{i}.json") if traced else None
        outcomes.append(Outcome(job, *runner.spawn(job.argv, pass_dir, hashseed, trace_out)))
    if traced:
        for i, outcome in enumerate(outcomes):
            with open(os.path.join(pass_dir, f".trace-{i}.json")) as handle:
                outcome.trace = json.load(handle)
    return outcomes


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def outcome_problem(outcome: Outcome) -> str | None:
    job = outcome.job
    if outcome.code != job.expect:
        return f"exit {outcome.code}, expected {job.expect}: {outcome.last_line[:200]}"
    if job.argv[:2] == ["verify", "replay"]:
        verdict = "replay ok" if job.expect == 0 else "replay FAILED"
        if not outcome.last_line.startswith(verdict):
            return f"replay printed {outcome.last_line[:200]!r}"
    return None


def is_known_defect(outcome: Outcome) -> bool:
    """The failure is exactly the recorded defect: a tampered artifact replayed as ok."""
    return bool(outcome.job.known_defect) and outcome.code == 0 and outcome.last_line.startswith("replay ok")


def check_passes(runner: Runner, passes, pass_dirs, check_dir: str) -> None:
    """Fill in `problem` for every job execution.

    Exit codes and replay verdicts of every job; on the first pass the
    artifact checks and, untimed, `verify replay` of every artifact; the other
    passes (other hash seed, or traced) must write byte-identical artifacts.
    """
    first_dir = pass_dirs[0]
    for k, (pass_outcomes, pass_dir) in enumerate(zip(passes, pass_dirs)):
        for outcome in pass_outcomes:
            job = outcome.job
            problem = outcome_problem(outcome)
            if problem is None and job.output:
                path = os.path.join(pass_dir, job.output)
                if k > 0:
                    if _read(path) != _read(os.path.join(first_dir, job.output)):
                        problem = "artifact bytes differ from the first pass"
                else:
                    problem = workloads.check_artifact(path, job.check, job.param)
            outcome.problem = problem
    to_replay = [o for o in passes[0] if o.problem is None and o.job.output]
    if to_replay:
        os.makedirs(check_dir)
        replays = [["verify", "replay", os.path.join(first_dir, o.job.output)] for o in to_replay]
        for outcome, argv, (code, text) in zip(to_replay, replays, runner.batch(replays, check_dir, 0)):
            problem = outcome_problem(Outcome(workloads.Job(outcome.job.name, argv), code, 0.0, 0.0, 0, _last_line(text)))
            if problem:
                outcome.problem = f"verify replay of the artifact: {problem}"


def check_setups(setup_dirs) -> list[str]:
    """Set-up artifacts: oracle checks, and identical bytes across hash seeds."""
    first, second = setup_dirs[0], setup_dirs[1]
    problems = workloads.check_corpus(first)
    for name in sorted(os.listdir(first)):
        if name.endswith(".json") and _read(os.path.join(first, name)) != _read(os.path.join(second, name)):
            problems.append(f"set-up artifact {name} differs across hash seeds")
    return problems


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def job_list_sum(passes, attr: str) -> float:
    """Sum over jobs of each job's median across passes.

    Machine speed can drift during a run; a per-job median drops the passes a
    slow spell hit, which a median of a few pass totals does not.
    """
    per_job = zip(*([getattr(o, attr) for o in p] for p in passes))
    return sum(statistics.median(values) for values in per_job)


def end_to_end(setup_times, passes, jobs, pass_dir) -> dict:
    artifact_bytes = 0
    for job in jobs:
        if job.output:
            artifact_bytes += os.path.getsize(os.path.join(pass_dir, job.output))
        elif job.argv[:2] == ["verify", "replay"]:
            artifact_bytes += os.path.getsize(job.argv[2])
    return {
        "setup_s": statistics.median(setup_times),
        "total_s": job_list_sum(passes, "wall_s"),
        "cpu_s": job_list_sum(passes, "cpu_s"),
        "peak_rss_mb": statistics.median(max(o.maxrss_kb for o in p) for p in passes) / 1024,
        "artifact_kb": artifact_bytes / 1024,
    }


def _slope(xs, ys) -> float:
    """Least-squares slope of ys against xs (0 with fewer than two distinct xs)."""
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_counts(traces) -> dict:
    """Per-layer values of one traced pass; the keys are the per-layer metric names."""
    agg = {}
    for t in traces:
        for name, (calls, total, own) in t["agg"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += own
    calls = lambda n: agg.get(n, [0, 0.0, 0.0])[0]  # noqa: E731
    own = lambda n: agg.get(n, [0, 0.0, 0.0])[2]  # noqa: E731
    records = [(t, r) for t in traces for r in t["records"]]

    def extra(r, key):
        return (r[4] or {}).get(key, 0)

    enum = [r for _, r in records if r[0] == "cps.enumerate_window_elements"]
    enum_points = sum(extra(r, "points") for r in enum)
    enum_leq = sum((extra(r, "nested") or {}).get("exactnum.abs_embedding_leq", 0) for r in enum)
    grown = [(math.log(extra(r, "points")), math.log(r[1])) for r in enum if extra(r, "points") >= 2]
    enumerations = sum(
        1 for t, r in records
        if r[0] == "cps.enumerate_window_elements" and r[3] >= 0 and t["records"][r[3]][0] == "cps.cover_dimension"
    )
    covers = [r for _, r in records if r[0] == "verify.greedy_cover"]
    translates = sum(extra(r, "translates") for r in covers)
    replays = [r for _, r in records if r[0] == "serialize.replay"]
    cli_total = sum(t["cli_s"] for t in traces)

    m = {
        "exactnum.abs_embedding_leq.calls": calls("exactnum.abs_embedding_leq"),
        "exactnum.abs_embedding_leq.self_s": own("exactnum.abs_embedding_leq"),
        "exactnum.compare_abs_to_one.calls": calls("exactnum.compare_abs_to_one"),
        "exactnum.eval_embedding.calls": calls("exactnum.eval_embedding"),
        "exactnum.eval_embedding.self_s": own("exactnum.eval_embedding"),
        "exactnum.RealEmbeddingInterval.refined.calls": calls("exactnum.RealEmbeddingInterval.refined"),
        "exactnum.nf_mul.calls": calls("exactnum.nf_mul"),
        "exactnum.nf_mul.self_s": own("exactnum.nf_mul"),
        "cps.enumerate_window_elements.calls": calls("cps.enumerate_window_elements"),
        "cps.enumerate_window_elements.self_s": own("cps.enumerate_window_elements"),
        "cps.enumerate_window_elements.points": enum_points,
        "cps.enumerate_window_elements.accept_ratio": _ratio(enum_points, enum_leq),
        "cps.enumerate_window_elements.growth_exp": _slope([g[0] for g in grown], [g[1] for g in grown]),
        "cps.cover_dimension.calls": calls("cps.cover_dimension"),
        "cps.cover_dimension.self_s": own("cps.cover_dimension"),
        "cps.cover_dimension.enumerations": enumerations,
        "cps.greedy_interval_cover.self_s": own("cps.greedy_interval_cover"),
    }
    for name in ("model_set_patch", "approximate_lattice_certificate", "intersect_with_subgroup", "project_to_quotient"):
        m[f"cps.{name}.self_s"] = own(f"cps.{name}")
    m["places.s_integer_membership.calls"] = calls("places.s_integer_membership")
    for name in ("s_integer_membership", "pvs_certify_set", "polynomial_translate_cover"):
        m[f"places.{name}.self_s"] = own(f"places.{name}")
    for name in ("heis_model_set", "schreiber_hull", "meyer_commensurability", "center_intersection",
                 "heis_covering_certificate", "HeisCoverCertificate.replay"):
        m[f"heis.{name}.self_s"] = own(f"heis.{name}")
    m["heis.heis_mul.calls"] = calls("heis.heis_mul")
    m.update({
        "verify.min_separation.calls": calls("verify.min_separation"),
        "verify.min_separation.self_s": own("verify.min_separation"),
        "verify.min_separation.pairs": sum(extra(r, "pairs") for _, r in records if r[0] == "verify.min_separation"),
        "verify.covering_radius.self_s": own("verify.covering_radius"),
        "verify.NearestScan.dist_hi.calls": calls("verify.NearestScan.dist_hi"),
        "verify.NearestScan.nearest_index.self_s": own("verify.NearestScan.nearest_index"),
        "verify.greedy_cover.self_s": own("verify.greedy_cover"),
        "verify.greedy_cover.translates": translates,
        "verify.greedy_cover.reuse_ratio": _ratio(sum(extra(r, "scope") for r in covers), translates),
        "verify.point_norm_hi.calls": calls("verify.point_norm_hi"),
        "serialize.replay.calls": calls("serialize.replay"),
        "serialize.replay.self_s": own("serialize.replay"),
        "serialize.replay.rebuild_s": sum(t["rebuild_s"] for t in traces),
        "serialize.save_json.bytes": sum(extra(r, "bytes") for _, r in records if r[0] == "serialize.save_json"),
        "serialize.canonical_json.self_s": own("serialize.canonical_json"),
        "cli.startup_s": sum(t["startup_s"] for t in traces),
    })
    for kind in REPLAY_TYPES:
        m[f"serialize.replay.{kind}.s"] = sum(r[1] for r in replays if extra(r, "type") == kind)
    for command in COMMANDS:
        m[f"cli.{command}.s"] = sum(t["cli_s"] for t in traces if t["cmd"] == command)
    for group in SHARE_GROUPS:
        m[f"share.{group}"] = _ratio(sum(t["groups"][group] for t in traces), cli_total)
    return m


PER_LAYER_UNITS = {"calls": "count", "points": "count", "enumerations": "count", "pairs": "count",
                   "translates": "count", "bytes": "bytes", "accept_ratio": "ratio",
                   "reuse_ratio": "ratio", "growth_exp": "exponent"}
HIGHER_IS_BETTER = {"points", "accept_ratio", "reuse_ratio"}


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order.

    The names come from layer_counts on an empty trace, so this list and the
    reported values cannot disagree.
    """
    empty = {"agg": {}, "records": [], "cli_s": 0.0, "startup_s": 0.0, "rebuild_s": 0.0,
             "cmd": "", "groups": dict.fromkeys(SHARE_GROUPS, 0.0)}
    names = list(layer_counts([empty]))
    names += ["trace.total_s", "trace.overhead_s"]
    spec = []
    for name in names:
        last = name.rsplit(".", 1)[-1]
        if name.startswith("share."):
            unit = "ratio"
        else:
            unit = PER_LAYER_UNITS.get(last, "s")
        spec.append((name, unit, "higher" if last in HIGHER_IS_BETTER else "lower"))
    return spec


def per_layer(traced_passes, untraced_passes) -> dict:
    """Counts from the first traced pass; times as medians over traced passes."""
    per_pass = [layer_counts([o.trace for o in p]) for p in traced_passes]
    out = {}
    for name, unit, _ in per_layer_spec()[:-2]:
        values = [m[name] for m in per_pass]
        out[name] = values[0] if unit in ("count", "bytes") else statistics.median(values)
    traced_total = job_list_sum(traced_passes, "wall_s")
    out["trace.total_s"] = traced_total
    out["trace.overhead_s"] = traced_total - job_list_sum(untraced_passes, "wall_s")
    return out


# ---------------------------------------------------------------------------
# Running a workload.
# ---------------------------------------------------------------------------


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner(root)
    work = os.path.join(root, WORK_DIR, f"{name}-{os.getpid()}")
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(work)
    try:
        setup_dirs, setup_times = [], []
        while len(setup_times) < MIN_SETUP_REPS or (
            sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUP_REPS
        ):
            setup_dirs.append(os.path.join(work, f"setup-{len(setup_dirs)}"))
            start = perf_counter()
            jobs = run_setup(runner, name, seed, setup_dirs[-1], len(setup_times) % 2)
            setup_times.append(perf_counter() - start)

        passes, traced_passes, pass_dirs = [], [], []
        start = perf_counter()
        last = 0.0
        # start another pass while at most half of one would run past --seconds
        while len(passes) < MIN_PASSES or perf_counter() - start + last / 2 <= seconds:
            t0 = perf_counter()
            hashseed = len(passes) % 2
            pass_dirs.append(os.path.join(work, f"pass-{len(pass_dirs)}"))
            passes.append(run_pass(runner, jobs, pass_dirs[-1], hashseed, False))
            if trace:
                pass_dirs.append(os.path.join(work, f"pass-{len(pass_dirs)}"))
                traced_passes.append(run_pass(runner, jobs, pass_dirs[-1], hashseed, True))
            last = perf_counter() - t0

        all_passes = [p for pair in zip(passes, traced_passes) for p in pair] if trace else passes
        check_passes(runner, all_passes, pass_dirs, os.path.join(work, "check"))
        setup_problems = check_setups(setup_dirs)
        outcomes = [o for p in all_passes for o in p]
        failed = [o for o in outcomes if o.problem]

        if trace:
            values = per_layer(traced_passes, passes)
            units = {n: u for n, u, _ in per_layer_spec()}
        else:
            values = end_to_end(setup_times, passes, jobs, pass_dirs[0])
            units = dict(END_TO_END)
        for problem in setup_problems:
            print(f"[{name}] set-up FAILED: {problem}", file=sys.stderr)
        for o in failed:
            tag = f"known defect ({o.job.known_defect})" if is_known_defect(o) else "FAILED"
            print(f"[{name}] {tag}: {o.job.name}: {o.problem}", file=sys.stderr)
        return {
            # correct: nothing failed except the known defects the replay workload keeps
            "correct": not setup_problems and all(is_known_defect(o) for o in failed),
            "attempted": len(outcomes),
            "failed": len(failed),
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in values},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass


def print_table(name: str, result: dict) -> None:
    share = result["failed"] / result["attempted"]
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_share={share:.4f}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:52s} {entry['value']:>16.6f} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "meyerlab", "cli.py")):
        print("bench: run from the repository root (src/meyerlab not found)", file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        print_table(name, results[name])
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
