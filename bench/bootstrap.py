"""Traced child entry: python3 bench/bootstrap.py <meyerlab arguments...>

Runs one `meyerlab` command like `python3 -m meyerlab.cli` does, after
wrapping public functions and methods at the layer boundaries of the
program.  Each call opens a span (name, start, end, parent) in memory; as it
closes it is folded into per-name call count, total time and self time
(duration minus the time child spans cover).  Spans of the coarser functions
are also kept as records (name, duration, self time, parent record, extra
data such as points returned), which the benchmark uses for nesting questions.
When the command returns, the summary is written as JSON to the file named by
BENCH_TRACE_OUT; BENCH_SPAWN_T carries the parent's wall clock at spawn, so
the start-up time up to `cli.run` can be measured.

Nothing here changes what the command computes or writes: the wrappers call
the original function with the original arguments and return its result.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from time import perf_counter


def _extra_points(args, kwargs, result):
    return {"points": len(result)}


def _extra_pairs(args, kwargs, result):
    points = args[0] if args else kwargs.get("points")
    n = len(points) if hasattr(points, "__len__") else 0
    return {"pairs": n * (n - 1) // 2}


def _extra_cover(args, kwargs, result):
    cover = result[0]
    if cover is None:
        return {"translates": 0, "scope": 0}
    return {"translates": len(cover.translates), "scope": cover.scope_points}


def _extra_type(args, kwargs, result):
    data = args[0] if args else kwargs.get("data")
    return {"type": data.get("type") if isinstance(data, dict) else None}


def _extra_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


# (module, attribute or Class.method, hook giving the span's extra data, or None)
SPANS = [
    ("exactnum", "abs_embedding_leq", None),
    ("exactnum", "compare_abs_to_one", None),
    ("exactnum", "eval_embedding", None),
    ("exactnum", "nf_mul", None),
    ("exactnum", "RealEmbeddingInterval.refined", None),
    ("cps", "enumerate_window_elements", _extra_points),
    ("cps", "cover_dimension", None),
    ("cps", "greedy_interval_cover", None),
    ("cps", "model_set_patch", None),
    ("cps", "approximate_lattice_certificate", None),
    ("cps", "intersect_with_subgroup", None),
    ("cps", "project_to_quotient", None),
    ("places", "s_integer_membership", None),
    ("places", "pvs_certify_set", None),
    ("places", "polynomial_translate_cover", None),
    ("heis", "heis_mul", None),
    ("heis", "heis_model_set", None),
    ("heis", "schreiber_hull", None),
    ("heis", "meyer_commensurability", None),
    ("heis", "center_intersection", None),
    ("heis", "heis_covering_certificate", None),
    ("heis", "HeisCoverCertificate.replay", None),
    ("verify", "min_separation", _extra_pairs),
    ("verify", "covering_radius", None),
    ("verify", "delone_certify", None),
    ("verify", "NearestScan.dist_hi", None),
    ("verify", "NearestScan.nearest_index", None),
    ("verify", "greedy_cover", _extra_cover),
    ("verify", "point_norm_hi", None),
    ("serialize", "replay", _extra_type),
    ("serialize", "save_json", _extra_bytes),
    ("serialize", "canonical_json", None),
    ("serialize", "intersection_summary", None),
    ("serialize", "projection_summary", None),
    ("serialize", "center_summary", None),
    ("serialize", "hull_summary", None),
    ("serialize", "cellcover_summary", None),
]

# Leaf spans called thousands of times: folded only, never kept as records.
HOT = {
    "exactnum.abs_embedding_leq",
    "exactnum.compare_abs_to_one",
    "exactnum.eval_embedding",
    "exactnum.nf_mul",
    "exactnum.RealEmbeddingInterval.refined",
    "places.s_integer_membership",
    "heis.heis_mul",
    "verify.NearestScan.dist_hi",
    "verify.NearestScan.nearest_index",
    "verify.point_norm_hi",
}

# Self time of every span is attributed to the group of its outermost grouped
# ancestor (itself included), so the groups' times are disjoint: an
# eval_embedding inside abs_embedding_leq counts as enumeration, one inside
# min_separation as metric work, and everything under a replay as replay.
GROUPS = {
    "enumerate_leq": {"cps.enumerate_window_elements", "exactnum.abs_embedding_leq"},
    "verify_eval": {
        "verify.min_separation",
        "verify.covering_radius",
        "verify.delone_certify",
        "verify.NearestScan.dist_hi",
        "verify.NearestScan.nearest_index",
        "verify.greedy_cover",
        "verify.point_norm_hi",
        "exactnum.eval_embedding",
    },
    "replay": {"serialize.replay"},
}
GROUP_OF = {name: group for group, names in GROUPS.items() for name in names}

# Functions that build an artifact; inside a replay span their time is rebuild time.
BUILDERS = {
    "cps.model_set_patch",
    "cps.approximate_lattice_certificate",
    "heis.heis_model_set",
    "places.pvs_certify_set",
    "verify.delone_certify",
    "serialize.intersection_summary",
    "serialize.projection_summary",
    "serialize.center_summary",
    "serialize.hull_summary",
    "serialize.cellcover_summary",
}




class Tracer:
    """In-memory span recorder with self-time accounting."""

    def __init__(self):
        self.stack = []  # open frames: [name, start, child_time, record, calls_at_start, group]
        self.agg = {}  # name -> [calls, total_s, self_s]
        self.records = []  # [name, duration, self, parent record or -1, extra]
        self.group_time = {g: 0.0 for g in GROUPS}
        self.replay_depth = 0
        self.rebuild_depth = 0
        self.rebuild_start = 0.0
        self.rebuild_time = 0.0

    def _hot_calls(self):
        return {name: self.agg[name][0] for name in HOT if name in self.agg}

    def enter(self, name):
        now = perf_counter()
        group = self.stack[-1][5] if self.stack and self.stack[-1][5] else GROUP_OF.get(name)
        if name == "serialize.replay":
            self.replay_depth += 1
        if name in BUILDERS and self.replay_depth > 0:
            if self.rebuild_depth == 0:
                self.rebuild_start = now
            self.rebuild_depth += 1
        record = None
        snapshot = None
        if name not in HOT:
            record = len(self.records)
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), -1)
            self.records.append([name, 0.0, 0.0, parent, None])
            snapshot = self._hot_calls()
        frame = [name, 0.0, 0.0, record, snapshot, group]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def exit(self, frame, extra):
        end = perf_counter()
        name, start, child_time, record, snapshot, group = frame
        duration = end - start
        popped = self.stack.pop()
        assert popped is frame, "span stack out of order"
        if self.stack:
            self.stack[-1][2] += duration
        own = duration - child_time
        stats = self.agg.setdefault(name, [0, 0.0, 0.0])
        stats[0] += 1
        stats[1] += duration
        stats[2] += own
        if record is not None:
            nested = {
                n: calls - snapshot.get(n, 0)
                for n, calls in self._hot_calls().items()
                if calls != snapshot.get(n, 0)
            }
            if nested:
                extra = dict(extra or {}, nested=nested)
            self.records[record][1:3] = [duration, own]
            self.records[record][4] = extra
        if name in BUILDERS and self.rebuild_depth > 0:
            self.rebuild_depth -= 1
            if self.rebuild_depth == 0:
                self.rebuild_time += end - self.rebuild_start
        if name == "serialize.replay":
            self.replay_depth -= 1
        if group:
            self.group_time[group] += own

    def wrap(self, fn, name, extra_hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(frame, None)
                raise
            tracer.exit(frame, extra_hook(args, kwargs, result) if extra_hook else None)
            return result

        return traced


def install(tracer: Tracer) -> None:
    """Replace each listed function in every meyerlab module that looks it up."""
    import meyerlab.cli  # noqa: F401  (imports every other meyerlab module)

    modules = [m for key, m in sys.modules.items() if key.startswith("meyerlab.")]
    for module_name, attr, extra_hook in SPANS:
        module = sys.modules[f"meyerlab.{module_name}"]
        name = f"{module_name}.{attr}"
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, tracer.wrap(getattr(cls, method), name, extra_hook))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(original, name, extra_hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def main(argv) -> int:
    spawn_t = float(os.environ["BENCH_SPAWN_T"])
    out_path = os.environ["BENCH_TRACE_OUT"]
    from meyerlab import cli

    tracer = Tracer()
    install(tracer)
    command = ".".join(a for a in argv[:2] if not a.startswith("-"))
    startup_s = time.time() - spawn_t
    start = perf_counter()
    code = cli.run(argv)
    cli_s = perf_counter() - start
    summary = {
        "cmd": command,
        "startup_s": startup_s,
        "cli_s": cli_s,
        "agg": tracer.agg,
        "records": tracer.records,
        "groups": tracer.group_time,
        "rebuild_s": tracer.rebuild_time,
    }
    with open(out_path, "w") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
