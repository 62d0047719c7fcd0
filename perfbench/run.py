"""milnor-forge benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
./src, nothing needs installing.  Workloads and metrics are described in
perfbench/NOTES.md and listed in BENCHMARK.json.

A run repeats passes over the workload's fixed op list for about S seconds
(at least MIN_PASSES).  Every pass is a fresh interpreter, so the library's context and K-group caches start cold as they do for a user;
for cli_batch every op is its own `milnor-forge` process.  Each op's
latency is its median over the untraced passes, reported at reference
speed (see calibrate.py) and raw.  --trace 1 alternates
untraced and traced passes and reports the per-layer metrics instead of
the end-to-end ones.  The last line of stdout is the JSON result; details
go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402

MIN_PASSES = 3
SETUP_PROBES = 8
TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy, "cpu_model": cpu}


def spawn(argv, env):
    """Run one child to completion: (exit code, stdout, peak RSS KiB, s)."""
    with open(os.path.join(OUT, "stderr.txt"), "ab") as err:
        t0 = time.monotonic()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                             env=env, cwd=ROOT)
        try:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        elapsed = time.monotonic() - t0
        p.stdout.close()
        p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out, usage.ru_maxrss, elapsed


def worker(env, workload, ops_path, traced) -> dict:
    """One in-process pass, or a set-up probe when ops_path is `-`."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), workload,
            ops_path, repr(time.monotonic()), "1" if traced else "0"]
    code, out, _, _ = spawn(argv, env)
    if code != 0:
        raise BenchError(f"worker for {workload} exited {code}; "
                         f"see {OUT}/stderr.txt")
    return json.loads(out.decode().strip().splitlines()[-1])


def cli_ok(op, code, out: str) -> bool:
    lines = out.strip().splitlines()
    return (code == 0 and bool(lines) and lines[-1].startswith("summary ")
            and lines[-1].endswith(" ok=true")
            and all(e in out for e in op["expect"]))


def cli_pass(env, op_list, traced, pass_index) -> dict:
    latencies, failures, spans, stats, refs = [], [], [], [], []
    digest = hashlib.sha256()
    peak = nonzero = 0
    start = time.monotonic()
    for i, op in enumerate(op_list):
        refs.append(calibrate.reference_s())
        argv = [sys.executable, os.path.join(HERE, "launch.py")]
        stats_path = os.path.join(OUT, "cli", f"stats-{pass_index}-{i}.json")
        if traced:
            argv += ["--trace", stats_path]
        argv += ["--format", "records"] + op["argv"]
        t0 = time.monotonic() - start
        code, out, rss, elapsed = spawn(argv, dict(env, **op["env"]))
        text = out.decode()
        latencies.append(elapsed)
        spans.append([i, " ".join(op["argv"][2:5]), t0, t0 + elapsed])
        digest.update(out)
        peak = max(peak, rss)
        nonzero += code != 0
        if not cli_ok(op, code, text):
            failures.append({"index": i, "argv": op["argv"], "exit": code,
                             "tail": text[-300:]})
        if traced:
            with open(stats_path) as f:
                stats.append(json.load(f))
            os.remove(stats_path)
    refs.append(calibrate.reference_s())
    r = {"wall_s": sum(latencies), "latencies_s": latencies, "refs_s": refs,
         "op_refs_s": [(a + b) / 2 for a, b in zip(refs, refs[1:])],
         "failures": failures, "digest": digest.hexdigest(),
         "peak_rss_kb": peak, "layers": None, "spans": None}
    if traced:
        r["layers"] = tracer.merge(s["layers"] for s in stats)
        r["spans"] = spans
        r["cli"] = {"cli.import_s": statistics.median(s["import_s"]
                                                      for s in stats),
                    "cli.invocations": len(op_list),
                    "cli.nonzero_exits": nonzero}
    return r


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples above it:
    (seconds, percentile, sample count)."""
    xs = sorted(latencies)
    idx = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs)


def pass_layer_metrics(p) -> dict:
    m = tracer.layer_metrics(p["layers"])
    m.update(p.get("cli") or {"cli.import_s": 0.0, "cli.invocations": 0,
                              "cli.nonzero_exits": 0})
    return m


def is_time(name: str) -> bool:
    return name.endswith("_s")


def run(args, spec) -> tuple[dict, dict]:
    os.makedirs(os.path.join(OUT, "cli"), exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    op_list = inputs.generate(args.workload, args.seed)
    ops_path = os.path.join(OUT, f"ops-{args.workload}-{args.seed}.json")
    with open(ops_path, "w") as f:
        json.dump(op_list, f)
    in_process = args.workload != "cli_batch"

    load_before = os.getloadavg()
    setups = [worker(env, args.workload, "-", False)
              for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    t0 = time.monotonic()
    pass_s = 0.0
    # stop once the next pass would end more than half a pass past --seconds
    while (len(plain) < MIN_PASSES or (args.trace and not traced)
           or time.monotonic() - t0 + pass_s / 2 < args.seconds):
        started = time.monotonic()
        trace_this = bool(args.trace) and len(traced) < len(plain)
        if in_process:
            p = worker(env, args.workload, ops_path, trace_this)
            if not trace_this:
                setups.append(p)
        else:
            p = cli_pass(env, op_list, trace_this, len(plain) + len(traced))
        (traced if trace_this else plain).append(p)
        pass_s = time.monotonic() - started
    measured = time.monotonic() - t0
    load_after = os.getloadavg()

    passes = plain + traced
    digests = sorted({p["digest"] for p in passes})
    failed = sum(len(p["failures"]) for p in passes)
    attempted = len(op_list) * len(passes)
    # Times at reference speed (see calibrate.py): each op latency scaled
    # by the reference workload timed just before and after it, then the
    # median over the untraced passes; each set-up scaled by the reference
    # timed right after it in the same process.
    op_s = [statistics.median(calibrate.REF_S * p["latencies_s"][i]
                              / p["op_refs_s"][i] for p in plain)
            for i in range(len(op_list))]
    tail_s, tail_pct, tail_n = tail(op_s)
    # raw wall-clock figures: each op's median over the untraced passes
    op_raw_s = [statistics.median(p["latencies_s"][i] for p in plain)
                for i in range(len(op_list))]
    metrics = {
        "wall_s": sum(op_s),
        "op_p50_ms": 1e3 * statistics.median(op_s),
        "op_tail_ms": 1e3 * tail_s,
        "setup_s": statistics.median(
            w["setup_s"] * calibrate.REF_S / statistics.fmean(w["setup_refs_s"])
            for w in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in plain)
        / 1024,
        "wall_raw_s": sum(op_raw_s),
        "op_p50_raw_ms": 1e3 * statistics.median(op_raw_s),
        "op_tail_raw_ms": 1e3 * tail(op_raw_s)[0],
        "setup_raw_s": statistics.median(w["setup_s"] for w in setups),
    }
    problems = []
    if len(digests) != 1:
        problems.append("passes of one seed gave different answers")
    if failed:
        problems.append(f"{failed} of {attempted} ops failed")

    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_facts(),
        "loadavg_before": load_before, "loadavg_after": load_after,
        "measured_s": measured, "ops_per_pass": len(op_list),
        "speed_vs_reference": calibrate.REF_S / statistics.fmean(
            r for p in plain for r in p["refs_s"]),
        "passes": len(plain), "traced_passes": len(traced),
        "end_to_end": metrics,
        "failed_ratio": failed / attempted,
        "op_tail_percentile": tail_pct, "op_tail_samples": tail_n,
        "digest": digests[0] if len(digests) == 1 else digests,
        "setup_samples_s": [w["setup_s"] for w in setups],
        "pass_wall_s": [p["wall_s"] for p in plain],
        "failures": [f for p in passes for f in p["failures"]][:20],
        "waiting": "none: the engine is single-threaded and has no queues",
    }
    if args.trace:
        per_pass = [pass_layer_metrics(p) for p in traced]
        counts = [{k: v for k, v in m.items() if not is_time(k)}
                  for m in per_pass]
        if any(c != counts[0] for c in counts):
            problems.append("traced passes disagree on per-layer counts")
        layer = dict(counts[0])
        for k in per_pass[0]:
            if is_time(k):
                layer[k] = statistics.median(m[k] for m in per_pass)
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    / statistics.median(p["wall_s"] for p in plain) - 1)
        detail.update(per_layer=layer, trace_overhead_ratio=overhead)
        with open(os.path.join(
                OUT, f"trace-{args.workload}-{args.seed}.json"), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "per_layer": layer, "trace_overhead_ratio": overhead,
                       "aggregates": [p["layers"] for p in traced],
                       "spans": [p["spans"] for p in traced]}, f)
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = metrics
    missing = [n for n in names if n not in values]
    if missing:
        raise BenchError(f"BENCHMARK.json names unknown metrics {missing}")
    detail["problems"] = problems
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed,
              "metrics": {n: {"value": values[n], "unit": units[n]}
                          for n in names}}
    return result, detail


def report(result, detail):
    """Human-readable lines; the JSON result line comes after them."""
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"passes {detail['passes']}+{detail['traced_passes']} traced  "
          f"ops/pass {detail['ops_per_pass']}  "
          f"load {detail['loadavg_before'][0]:.2f}->"
          f"{detail['loadavg_after'][0]:.2f}")
    for name, m in detail["end_to_end"].items():
        print(f"  {name:<16} {m:12.4f}")
    print(f"  {'failed_ratio':<16} {detail['failed_ratio']:12.4f}  "
          f"({result['failed']} of {result['attempted']} ops)")
    print(f"  op_tail_ms is p{detail['op_tail_percentile']:.1f} of "
          f"{detail['op_tail_samples']} ops")
    if "per_layer" in detail:
        for name, v in detail["per_layer"].items():
            print(f"  {name:<40} {v}")
        print(f"  trace overhead vs untraced wall_s: "
              f"{100 * detail['trace_overhead_ratio']:.1f}%")
    for problem in detail["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still kills and reaps its child (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "milnorforge",
                                           "__init__.py")):
            raise BenchError(f"no milnorforge sources under {ROOT}/src")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        result, detail = run(args, spec)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as f:
        json.dump(dict(detail, result=result), f, indent=1)
    report(result, detail)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
