"""One benchmark worker: a fresh process that runs one workload once.

    python3 perfbench/worker.py setup   --genus G
    python3 perfbench/worker.py cli     --genus G [--trace] -- <atlas args>
    python3 perfbench/worker.py queries --genus G [--trace] < stream.json

``setup`` imports the engine and builds ``siegel_context(G)``.  ``cli`` does
the same and then runs the ``atlas`` command line in-process, which finds the
context already built; its output goes to stdout, and stdout is closed as
soon as the output is written so the runner can time the last byte.
``queries`` answers the JSON query stream read from stdin.

The worker reports to the file descriptor named by ``PERFBENCH_REPORT_FD``:
one JSON object with the start stamp and set-up time, the peak RSS, for
``queries`` the CLOCK_MONOTONIC stamp of the last answer (comparable across
processes) and the per-query latencies, the speed probes (``probe.py``,
running from the worker's start to its end), and with ``--trace`` the layer
aggregates.
"""

import time

T0 = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import probe  # noqa: E402

probe.start()


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_mb() -> float:
    """Peak RSS without the speed probe's data."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - probe.footprint_mb()


def start(genus: int, trace: bool):
    """Import the engine (under the tracer if asked) and build the context."""
    tracer = seen = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        seen = tracing.install(tracer)
    from ekor_atlas.siegel import siegel_context
    ctx = siegel_context(genus)
    return ctx, tracer, seen


def run_cli(argv) -> int:
    from ekor_atlas.cli import main
    code = main(argv)
    sys.stdout.flush()
    sys.stdout.close()
    os.close(1)
    return code


def run_queries(ctx, entries, seed) -> dict:
    import stream as qs

    tops = qs.translation_points(ctx)
    results = []
    latencies = []
    clock = time.perf_counter
    spent = probe.spent_s
    for word, top in entries:
        t0 = clock()
        p0 = spent()
        results.append(qs.answer(ctx, tops, word, top))
        latencies.append(clock() - t0 - (spent() - p0))
    done = now()
    rss = peak_rss_mb()

    group = ctx.group
    digest = hashlib.sha256()
    sample = set(qs.oracle_sample(seed, len(entries)))
    cache: dict = {}
    failed = 0
    for i, ((x, answers), (_, top)) in enumerate(zip(results, entries)):
        line = json.dumps(qs.answer_json(group, x, answers), separators=(",", ":"))
        digest.update(line.encode("ascii") + b"\n")
        if not qs.check(ctx, tops, x, answers, top, i in sample, cache):
            failed += 1
    return {"done": done, "rss_mb": rss, "latencies_s": latencies,
            "digest": digest.hexdigest(), "failed_queries": failed}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "cli", "queries"])
    parser.add_argument("--genus", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    argv = sys.argv[1:]
    cut = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:cut])
    cli_argv = argv[cut + 1:]

    entries = json.load(sys.stdin) if args.mode == "queries" else None
    ctx, tracer, seen = start(args.genus, args.trace)
    report = {"t0": T0, "setup_s": now() - T0}
    code = 0
    if args.mode == "setup":
        report["rss_mb"] = peak_rss_mb()
    elif args.mode == "cli":
        code = run_cli(cli_argv)
        report["rss_mb"] = peak_rss_mb()
    else:
        report.update(run_queries(ctx, entries, args.seed))
    report["probes"] = probe.stop()
    if tracer is not None:
        import tracing
        report["layers"] = tracing.layer_values(tracer, seen, ctx.group)
        report["trace"] = tracer.dump()
    with os.fdopen(int(os.environ["PERFBENCH_REPORT_FD"]), "w") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
