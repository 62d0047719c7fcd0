"""One pass of an in-process workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <ops.json | -> <spawned> <trace 0|1>

Imports milnorforge and builds the workload's rings (set-up), then reads
the op list that run.py wrote and runs every op once, timing each, with
calibrate.py's reference workload timed between ops.  With `-` it stops
after set-up: a set-up probe.  Prints one JSON object.
`spawned` is the parent's CLOCK_MONOTONIC just before it started this
process, so set-up includes interpreter start.
"""

import hashlib
import json
import resource
import sys
import time

import calibrate


def main(argv):
    workload, ops_path, spawned, traced = argv[0], argv[1], float(argv[2]), \
        argv[3] == "1"
    if workload == "cli_batch":
        import milnorforge.cli  # noqa: F401
    else:
        import milnorforge  # noqa: F401
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import inputs
    import ops

    ctxs = ops.build_contexts(inputs.CONTEXTS[workload])
    out = {"setup_s": time.monotonic() - spawned,
           "setup_refs_s": [calibrate.reference_s() for _ in range(3)]}
    if ops_path == "-":
        sys.stdout.write(json.dumps(out) + "\n")
        return

    with open(ops_path) as f:
        op_list = json.load(f)
    latencies, failures, answers, spans, segment = [], [], [], [], []
    refs = [calibrate.reference_s()]
    next_ref = time.perf_counter() + calibrate.EVERY_S
    start = time.perf_counter()
    for i, op in enumerate(op_list):
        t0 = time.perf_counter()
        try:
            ok, answer = ops.run_op(ctxs, op)
        except Exception as e:  # a raised op is a failed op, not a crash
            ok, answer = False, f"raised {type(e).__name__}: {e}"
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        segment.append(len(refs) - 1)
        if tracer is not None:
            spans.append([i, op["kind"], t0 - start, t1 - start])
        if not ok:
            failures.append({"index": i, "kind": op["kind"],
                             "answer": answer[:300]})
        answers.append(answer)
        if t1 >= next_ref:
            refs.append(calibrate.reference_s())
            next_ref = time.perf_counter() + calibrate.EVERY_S
    refs.append(calibrate.reference_s())
    out.update(
        wall_s=sum(latencies), latencies_s=latencies, refs_s=refs,
        op_refs_s=[(refs[k] + refs[k + 1]) / 2 for k in segment],
        failures=failures,
        digest=hashlib.sha256("\n".join(answers).encode()).hexdigest(),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        layers=tracer.aggregates() if tracer else None,
        spans=spans if tracer else None)
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
