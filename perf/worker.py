"""The program process of one benchmark run.

Usage: worker.py SPEC.json SPAWN_TIME

SPAWN_TIME is the monotonic clock just before the harness started this
process, so set-up covers interpreter start plus ``import tpg``.  The worker
drives the program only through ``tpg.cli.run``, in-process.  It runs one
cold round, then warm rounds until the run's time is up, and times the
reference kernel before each operation and after the last.  It writes its
records to the result file named in the spec.
"""

import sys
import time

# warm rounds per run, however slow the machine is; certify has more, as
# its dihedral call, most of a round, varies most from round to round
MIN_WARM = {"normals": 3, "certify": 4, "enumerate": 3}


def main() -> None:
    spawn = float(sys.argv[2])
    import tpg.cli

    setup_s = time.monotonic() - spawn
    # imported only now, so that set-up measures the program's own imports
    import contextlib
    import io
    import json
    import resource
    from pathlib import Path

    spec = json.loads(Path(sys.argv[1]).read_text())
    result = {"setup_s": setup_s}
    if spec["mode"] == "setup":
        Path(spec["result"]).write_text(json.dumps(result))
        return

    import reference
    import workloads

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    rundir = Path(spec["rundir"])
    records = []
    cold_trace = None
    begin = time.perf_counter()
    round_no = 0
    reference.measure(3)  # warm the kernel's own code and data
    while True:
        ref = reference.measure()
        for key, argv in workloads.operations(spec["workload"], rundir,
                                              spec["seed"], round_no):
            buf = io.StringIO()
            rec = {"round": round_no, "key": key, "argv": argv, "rc": None,
                   "error": None}
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rec["rc"] = tpg.cli.run(argv)
            except Exception as exc:  # a traceback is a failed operation
                rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["t"] = time.perf_counter() - t0
            after = reference.measure()
            rec["ref"] = (ref + after) / 2
            ref = after
            rec["stdout"] = buf.getvalue()
            records.append(rec)
        if tracer is not None and round_no == 0:
            cold_trace = tracer.metrics()
        round_no += 1
        if (round_no > MIN_WARM[spec["workload"]]
                and time.perf_counter() - begin >= spec["seconds"]):
            break

    numpy = sys.modules.get("numpy")
    result.update({
        "records": records,
        "rounds": round_no,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": getattr(numpy, "__version__", None),
    })
    if tracer is not None:
        result["cold_trace"] = cold_trace
        result["trace"] = tracer.metrics()
        result["absent"] = tracer.absent
        tracer.write_spans(rundir / "spans.txt")
    Path(spec["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
