"""Seeded benchmark of the ohb package: one closed-loop client, one process.

    python3 perfbench/run.py --workload sym-long-chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere; the package is imported from `src/` of the checkout
that holds this file, and the run refuses to start without it.  Each
task starts after the previous one ends; there are no threads.

--trace 0 prints the end-to-end metrics; --trace 1 spends half the time
untraced and half traced and prints the per-layer metrics.  Either way
the last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}.  The bounded time metrics
are divided by the host slowdown that speed probes (speed.py), taken
between tasks and around each set-up, measure at the same moment.
Every output is checked against the reference code in reference.py; a
wrong answer prints "correct": false and exits 1.  --smoke runs one
task of every workload with all checks and no timing.  Run records and
spans go to `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from speed import NOMINAL_S, slowdown, speed_probe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("sym-long-chain", "sym-wide", "search", "cli")
SETUP_REPEATS = 9
WARMUP_S = 1.0
TAIL_BEYOND = 10
SPEED_PROBE_EVERY_S = 0.1  # one speed probe (speed.py) per this much task time

# per-layer metrics: name -> (span name, unit, scale, per item)
LAYER_TIMES = {
    "fields.init_ms": ("fields.init", "ms", 1e3, False),
    "fields.op_ns": ("fields.op", "ns", 1e9, True),
    "space.rank_us": ("space.rank", "us", 1e6, True),
    "space.unrank_us": ("space.unrank", "us", 1e6, True),
    "space.weight_us": ("space.weight", "us", 1e6, True),
    "space.distance_us": ("space.distance", "us", 1e6, True),
    "space.dist_ranks_ns": ("space.dist_ranks", "ns", 1e9, True),
    "space.sub_ranks_ns": ("space.sub_ranks", "ns", 1e9, True),
    "space.distance_matrix_ms": ("space.distance_matrix", "ms", 1e3, False),
    "space.weight_array_ms": ("space.weight_array", "ms", 1e3, False),
    "space.parse_us": ("space.parse", "us", 1e6, True),
    "space.format_us": ("space.format", "us", 1e6, True),
    "chains.random_ms": ("chains.random", "ms", 1e3, False),
    "chains.apply_us": ("chains.apply", "us", 1e6, True),
    "chains.rank_table_ms": ("chains.rank_table", "ms", 1e3, False),
    "chains.compose_ms": ("chains.compose", "ms", 1e3, False),
    "chains.invert_ms": ("chains.invert", "ms", 1e3, False),
    "chains.decompose_ms": ("chains.decompose", "ms", 1e3, False),
    "symmetry.random_ms": ("symmetry.random", "ms", 1e3, False),
    "symmetry.apply_us": ("symmetry.apply", "us", 1e6, True),
    "symmetry.as_rank_table_ms": ("symmetry.as_rank_table", "ms", 1e3, False),
    "symmetry.compose_ms": ("symmetry.compose", "ms", 1e3, False),
    "symmetry.invert_ms": ("symmetry.invert", "ms", 1e3, False),
    "symmetry.decompose_ms": ("symmetry.decompose", "ms", 1e3, False),
    "symmetry.reject_ms": ("symmetry.reject", "ms", 1e3, False),
    "symmetry.translation_ms": ("symmetry.translation", "ms", 1e3, False),
    "oracle.count_ms": ("oracle.count", "ms", 1e3, False),
    "automorphisms.enumerate_ms": ("automorphisms.enumerate", "ms", 1e3, False),
    "codes.equivalent_ms": ("codes.equivalent", "ms", 1e3, False),
    "codes.invariants_ms": ("codes.invariants", "ms", 1e3, False),
    "codes.apply_to_code_ms": ("codes.apply_to_code", "ms", 1e3, False),
    "cli.interp_ms": ("cli.interp", "ms", 1e3, False),
    "cli.import_ms": ("cli.import", "ms", 1e3, False),
    "cli.call_ms": ("cli.call.", "ms", 1e3, False),
}
CLI_SUBCOMMANDS = ("weight", "dist", "sym.gen", "sym.apply", "sym.compose", "sym.invert",
                   "sym.verify", "sym.decompose", "order", "aut", "equiv", "report")
for _sub in CLI_SUBCOMMANDS:
    LAYER_TIMES[f"cli.call_ms.{_sub}"] = (f"cli.call.{_sub}", "ms", 1e3, False)
# per-layer counts: name -> (span name, tally key, unit)
LAYER_COUNTS = {
    "symmetry.unwitnessed_rejections": ("symmetry.reject", "unwitnessed", "count"),
    "oracle.isometries": ("oracle.count", "isometries", "count"),
    "automorphisms.found": ("automorphisms.enumerate", "found", "count"),
    "codes.nodes": ("codes.equivalent", "nodes", "count"),
    "codes.inconclusive": ("codes.equivalent", "inconclusive", "count"),
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def inside_src(path) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
from speed import speed_probe
before = speed_probe()
t0 = time.perf_counter()
import ohb
for p, e, pi in json.loads(sys.argv[1]):
    ohb.SpaceConfig(ohb.Field(p, e), len(pi), len(pi[0]), pi)
dt = time.perf_counter() - t0
print(json.dumps({"setup_s": dt, "probes": [before, speed_probe()],
                  "ohb": ohb.__file__, "executable": sys.executable}))
"""


def measure_setup(spaces, env, repeats):
    """Median over fresh interpreters of `import ohb` plus building the
    workload's fields and spaces, each divided by the host slowdown the
    child's own speed probes just before and after it give; each child
    must import ohb from src/ with this interpreter, as the CLI
    subprocesses do.  Returns the normalized and the raw median."""
    times, raw = [], []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", SETUP_CHILD, json.dumps(spaces), str(Path(__file__).parent)],
                             env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        doc = json.loads(out.stdout)
        if not inside_src(doc["ohb"]) or doc["executable"] != sys.executable:
            fail(f"a child process imported ohb from {doc['ohb']} with {doc['executable']}")
        times.append(doc["setup_s"] / slowdown(*doc["probes"]))
        raw.append(doc["setup_s"])
    return statistics.median(times), statistics.median(raw)


def environment():
    try:
        model = next(line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo", encoding="utf-8")
                     if line.startswith("model name"))
    except (OSError, StopIteration):
        model = platform.processor() or "unknown"
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": model,
        "git_commit": git.stdout.strip() if git.returncode == 0 else None,
        "src_sha256": source_hash(SRC / "ohb"),
    }


def source_hash(*dirs):
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def make_workload(name, seed, env):
    import workloads

    if name == "sym-long-chain":
        return workloads.SymWorkload(name, 2, 1, 13, 256, seed)
    if name == "sym-wide":
        return workloads.SymWorkload(name, 4, 4, 2, 1024, seed)
    if name == "search":
        return workloads.SearchWorkload(name, seed)
    return workloads.CliWorkload(name, seed, str(ROOT), env)


def setup_spaces(wl):
    """(p, e, pi) of the Field and SpaceConfig objects the workload builds."""
    return [(c.field.p, c.field.e, [list(r) for r in c.pi]) for c in wl.configs()]


class Phase:
    """Tasks run back to back until the deadline, then on to the end of the
    workload's round, so that every phase measures whole rounds of its
    fixed task list.  Checks run between tasks and are not timed.  After
    every SPEED_PROBE_EVERY_S of task time a speed probe runs, also untimed."""

    def __init__(self):
        self.durations = []
        self.speed = []
        self.counters = []
        self.problems = []

    def run(self, wl, tr, seconds, round_size=None, min_tasks=1, tag=""):
        """Task ids in spans are the task index, or `tag` plus the index."""
        from workloads import new_counters

        round_size = round_size or wl.round_size
        end = time.perf_counter() + seconds
        i, due = 0, 0.0
        while i < min_tasks or i % round_size or time.perf_counter() < end:
            tr.task = f"{tag}{i}" if tag else i
            inp = wl.inputs(i)
            start = time.perf_counter()
            try:
                res = tr.call("task." + wl.kind(i), wl.run, inp, tr)
                raised = False
            except Exception:  # an unexpected error is a failed task, not a wrong answer
                traceback.print_exc(file=sys.stderr)
                raised = True
            self.durations.append(time.perf_counter() - start)
            due += self.durations[-1]
            while due >= SPEED_PROBE_EVERY_S:
                self.speed.append(speed_probe())
                due -= SPEED_PROBE_EVERY_S
            if raised:
                counters, problems = new_counters(), []
                counters["raised"] = 1
            else:
                counters, problems = wl.check(inp, res)
                if tr.enabled:
                    tr.task = f"{tag}{i}/layers"
                    wl.layers(inp, res, tr, problems)
            self.counters.append(counters)
            self.problems += [f"{tag}task {i}: {p}" for p in problems]
            i += 1
        if not self.speed:
            self.speed.append(speed_probe())
        return self

    @property
    def host(self):
        """How much slower than nominal the host ran during this phase."""
        return slowdown(*self.speed)

    def rate(self):
        """Tasks per second of task time, at nominal host speed."""
        return len(self.durations) / sum(self.durations) * self.host

    def totals(self):
        out = {}
        for c in self.counters:
            for k, v in c.items():
                out[k] = out.get(k, 0) + v
        return out

    @property
    def failed(self):
        t = self.totals()
        return t["refused"] + t["raised"]


def tail(durations):
    """The highest percentile with at least TAIL_BEYOND samples above it."""
    s = sorted(durations)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[-TAIL_BEYOND - 1], 100.0 * (len(s) - TAIL_BEYOND) / len(s)


def end_to_end(wl, phase, setup_s):
    d = phase.durations
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.name == "cli":
        rss = max(rss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    tail_s, pct = tail(d)
    host = phase.host
    totals = phase.totals()
    failed_share = (totals["refused"] + totals["inconclusive"] + totals["raised"]) / len(d)
    metrics = {
        "tasks_per_s_norm": (phase.rate(), "1/s"),
        "peak_rss_mb": (rss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    # Printed, not in the JSON.  The raw times follow the host's speed,
    # which drifts by more than any bound BENCHMARK.json may set; the
    # median and tail, even normalized, move with the seed's task mix on
    # search by more than a third of the largest bound.
    notes = {
        "host_slowdown": f"{host:.4f} (mean of {len(phase.speed)} speed probes / {NOMINAL_S} s)",
        "tasks_per_s": f"{len(d) / sum(d):.6g} 1/s",
        "task_p50_ms": f"{statistics.median(d) * 1e3:.6g} ms, normalized {statistics.median(d) / host * 1e3:.6g} ms",
        "task_tail_ms": f"{tail_s * 1e3:.6g} ms, normalized {tail_s / host * 1e3:.6g} ms "
                        f"(p{pct:.1f} of {len(d)} tasks)",
        "failed_share": f"{failed_share:.4f} (refused {totals['refused']}, inconclusive "
                        f"{totals['inconclusive']}, raised {totals['raised']} of {len(d)}); "
                        "inconclusive verdicts are not counted in `failed`",
    }
    return metrics, notes


def per_layer(tr, untraced, traced):
    """Layer metrics from the spans of the workload's own tasks; a layer the
    workload never reaches is measured on the probe (one CLI session)."""

    def probe(task):
        return isinstance(task, str) and task.startswith("probe")

    def own(task):
        return not probe(task)

    metrics, notes = {}, {}
    for name, (span, unit, scale, per_item) in LAYER_TIMES.items():
        spans = tr.select(span, own) or tr.select(span, probe)
        if not spans:
            raise RuntimeError(f"no spans for {name}")
        total = sum(s[2] - s[1] for s in spans) / 1e9
        count = sum(s[5] for s in spans) if per_item else len(spans)
        metrics[name] = (total / count * scale, unit)
        if probe(spans[0][4]):
            notes[name] = "probe"
    for name, (span, key, unit) in LAYER_COUNTS.items():
        spans = tr.select(span, own) or tr.select(span, probe)
        metrics[name] = (sum(s[6][key] for s in spans), unit)
        if spans and probe(spans[0][4]):
            notes[name] = "probe"
    spans = tr.select("oracle.count", own) or tr.select("oracle.count", probe)
    metrics["oracle.isometries_per_s"] = (
        sum(s[6]["isometries"] for s in spans) / (sum(s[2] - s[1] for s in spans) / 1e9), "1/s")
    queries = tr.select("codes.equivalent", own) or tr.select("codes.equivalent", probe)
    metrics["codes.nodes_per_query"] = (sum(s[6]["nodes"] for s in queries) / len(queries), "count")
    for name, used in (("oracle.isometries_per_s", spans), ("codes.nodes_per_query", queries)):
        if probe(used[0][4]):
            notes[name] = "probe"
    rate_u, rate_t = untraced.rate(), traced.rate()
    metrics["trace.tasks_per_s_delta"] = (rate_t - rate_u, "1/s")
    notes["trace.tasks_per_s_delta"] = f"traced {rate_t:.4f} - untraced {rate_u:.4f} tasks/s, both normalized"
    self_s = tr.self_times(lambda t: isinstance(t, int))
    return metrics, notes, self_s


def check_counters(name, seed, phases):
    """Counters of one task index must agree between executions in this
    run and with any earlier run of the same seed on the same package and
    benchmark source."""
    seen, problems = {}, []
    for phase in phases:
        for k, c in enumerate(phase.counters):
            prev = seen.setdefault(k, c)
            if prev != c:
                problems.append(f"task {k}: counters {c} != {prev} on a repeat with the same seed")
    key = source_hash(SRC / "ohb", Path(__file__).parent)[:16]
    path = OUT / "counters" / f"{name}-seed{seed}-{key}.json"
    if path.exists():
        earlier = {int(k): v for k, v in json.loads(path.read_text()).items()}
        for k in sorted(set(earlier) & set(seen)):
            if earlier[k] != seen[k]:
                problems.append(f"task {k}: counters {seen[k]} != {earlier[k]} from an earlier run")
        seen = {**earlier, **seen}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({str(k): v for k, v in sorted(seen.items())}))
    os.replace(tmp, path)
    return problems


def emit(metrics, notes, correct, attempted, failed):
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value:.6g} {unit}{extra}")
    for name, text in notes.items():
        if name not in metrics:
            print(f"{name} = {text}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))


def run_workload(args, env):
    from spans import Tracer

    wl = make_workload(args.workload, args.seed, env)
    try:
        setup_s, setup_raw_s = measure_setup(setup_spaces(wl), env, SETUP_REPEATS)
        tr = Tracer(False)
        warm = Phase().run(wl, tr, WARMUP_S, round_size=1)
        if args.trace:
            main = Phase().run(wl, tr, args.seconds / 2)
            tr = Tracer(True)
            traced = Phase().run(wl, tr, args.seconds / 2)
            phases = [warm, main, traced]
        else:
            main = Phase().run(wl, tr, args.seconds, min_tasks=wl.min_rounds * wl.round_size)
            phases = [warm, main]
        problems = warm.problems + main.problems
        problems += check_counters(args.workload, args.seed, phases)
        if args.trace:
            problems += traced.problems
            if args.workload != "cli":
                import workloads

                probe = workloads.CliWorkload("cli", args.seed, str(ROOT), env)
                try:
                    problems += Phase().run(probe, tr, 0, tag="probe ").problems
                finally:
                    probe.close()
            metrics, notes, self_s = per_layer(tr, main, traced)
            for layer, seconds in sorted(self_s.items()):
                notes[f"self_s.{layer}"] = f"{seconds:.6f} s of self time in traced tasks"
            OUT.mkdir(exist_ok=True)
            (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(tr.to_json()))
        else:
            metrics, notes = end_to_end(wl, main, setup_s)
            notes["setup_raw_s"] = f"{setup_raw_s:.6g} s"
    finally:
        wl.close()
    totals = main.totals()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "counters": totals, "attempted": len(main.durations),
        "task_s": main.durations, "speed_probe_s": main.speed,
        "metrics": {n: v for n, (v, _) in metrics.items()}, "notes": notes, "problems": problems,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(f"environment = {json.dumps(record['environment'], sort_keys=True)}")
    print(f"counters = {json.dumps(totals, sort_keys=True)}")
    for p in problems[:20]:
        print(f"WRONG: {p}", file=sys.stderr)
    emit(metrics, notes, not problems, len(main.durations), main.failed)
    return 0 if not problems else 1


def smoke(env):
    """One task of every workload with every check, traced, untimed."""
    from spans import Tracer

    problems, attempted, failed = [], 0, 0
    for name in WORKLOADS:
        wl = make_workload(name, 0, env)
        try:
            phase = Phase().run(wl, Tracer(True), 0, round_size=1)
        finally:
            wl.close()
        problems += [f"{name}: {p}" for p in phase.problems]
        attempted += len(phase.durations)
        failed += phase.failed
        print(f"{name}: {len(phase.durations)} task, {len(phase.problems)} problems")
    for p in problems:
        print(f"WRONG: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one checked task per workload, no timing")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not (SRC / "ohb" / "__init__.py").is_file():
        fail(f"no ohb package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ohb

    if not inside_src(ohb.__file__):
        fail(f"ohb was imported from {ohb.__file__}, not from {SRC}")
    # workloads.py imports ohb, so it is imported only past this point
    env = child_env()
    if args.smoke:
        return smoke(env)
    return run_workload(args, env)


if __name__ == "__main__":
    sys.exit(main())
