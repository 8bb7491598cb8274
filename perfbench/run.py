#!/usr/bin/env python3
"""Benchmark runner for ekor-atlas.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all              # every workload

Run it from the repository root or anywhere else; it finds ``src/`` next to
its own directory.  Every measurement is a fresh worker process
(``worker.py``), started one at a time, with ``PYTHONHASHSEED`` fixed and
no other ``PYTHON*`` variable from the caller.  A discarded genus-2 warm-up
run comes first and leaves the bytecode cache in ``src/``, so compilation is
never timed.  Workers then run back to back until the next one would end after
``--seconds``, at least once; the end-to-end figures are medians over them.
Set-up-only workers top the ``setup_s`` samples up to three.  Times are in
reference seconds: each worker runs the speed probe (``probe.py``), and its
measured intervals are scaled by the host's speed during them.  The raw
wall-clock medians are printed in the summary.

With ``--trace 1`` one more worker runs under the tracer (``tracing.py``)
and the per-layer metrics come from it; the tracing overhead is its wall
time minus the untraced median.  Per-function aggregates and call edges are
written to ``perfbench/results/``.

Outputs are checked on every run: stdout digests of the CLI workloads are
pinned, the element-queries answers are self-checked in the worker (and
their digest is pinned for seed 0).  Any wrong answer makes the result
``"correct": false`` and the exit code 1.  Without the engine sources the
runner exits with code 2 and prints no result.

The last line of stdout is the JSON result; the lines before it, marked
``#``, are for people.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from probe import reference_s
from stream import make_stream
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

GENUS = 5
WARMUP_GENUS = 2
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

CLI_ARGS = {
    "iwahori-classify": ["classify", "--level", "iwahori", "--format", "json"],
    "hyperspecial-compare": ["compare", "--level", "hyperspecial"],
}
WORKLOADS = ("iwahori-classify", "hyperspecial-compare", "element-queries")

# sha256 of the output at the pinned inputs, taken on the seed commit.
# CLI workloads: stdout of `atlas <args> --g 5`; element-queries: the answer
# lines of the stream for (genus 5, seed 0).
PINNED = {
    "iwahori-classify": "63dd5c70dfba9852cc280f8097b8bca4b4b72933ec2de1513ebc8d8adc6cbc86",
    "hyperspecial-compare": "5982a81513b14b9c03c11c8baf421598525b13af060dd2a0cd9feeb81389838e",
    "element-queries": "573b7e1c952b92e6855ec67df328d21a9c96336a80d72b1673d59d990684c620",
}
PINNED_SEED = 0

# |Adm(mu)| for the Siegel cocharacter, by genus
ADM_SIZE = {1: 3, 2: 13, 3: 79, 4: 633, 5: 6331}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    """The benchmark cannot run at all; no result is printed."""


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Sample:
    """One worker run."""

    wall_s: float = 0.0
    setup_s: float = 0.0
    raw_wall_s: float = 0.0
    raw_setup_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 1
    failed: int = 0
    output_bytes: int = 0
    digest: str = ""
    latencies_s: list = field(default_factory=list)
    report: dict = field(default_factory=dict)
    problem: str = ""

    def timed(self, start: float, end: float | None = None) -> None:
        """Take the times from the report: raw, and in reference seconds
        (``probe.py``); the wall time runs from ``start`` to ``end``."""
        rep = self.report
        probes = rep["probes"]
        self.raw_setup_s = rep["setup_s"]
        self.setup_s = reference_s(probes, rep["t0"], rep["t0"] + rep["setup_s"])
        if end is not None:
            self.raw_wall_s = end - start
            self.wall_s = reference_s(probes, start, end)


def spawn(mode: str, genus: int, deadline: float, seed: int = 0, argv=(),
          stdin: bytes | None = None, trace: bool = False):
    """Run one worker; returns (exit code, spawn stamp, stdout EOF stamp,
    stdout digest, stdout size, report dict)."""
    rfd, wfd = os.pipe()
    # the caller's PYTHON* settings (such as PYTHONDONTWRITEBYTECODE, which
    # would make every worker compile the engine again) must not change what
    # is timed
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PERFBENCH_REPORT_FD=str(wfd))
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--genus", str(genus),
           "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    cmd += ["--", *argv]
    digest = hashlib.sha256()
    size = 0
    chunks = []
    start = now()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, pass_fds=(wfd,),
                            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    os.close(wfd)
    eof = None
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        with selectors.DefaultSelector() as sel, os.fdopen(rfd, "rb", buffering=0) as rep:
            sel.register(proc.stdout, selectors.EVENT_READ, "out")
            sel.register(rep, selectors.EVENT_READ, "report")
            while sel.get_map():
                left = deadline - now()
                if left <= 0:
                    raise BenchError(f"{mode} worker passed the time limit")
                for key, _ in sel.select(left):
                    data = os.read(key.fileobj.fileno(), 1 << 16)
                    if not data:
                        sel.unregister(key.fileobj)
                        if key.data == "out":
                            eof = now()
                    elif key.data == "out":
                        digest.update(data)
                        size += len(data)
                    else:
                        chunks.append(data)
        code = proc.wait(timeout=max(1.0, deadline - now()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    raw = b"".join(chunks)
    report = json.loads(raw) if raw else {}
    return code, start, eof, digest.hexdigest(), size, report


def cli_run(name: str, genus: int, deadline: float, trace: bool = False) -> Sample:
    argv = CLI_ARGS[name] + ["--g", str(genus)]
    code, start, eof, digest, size, report = spawn("cli", genus, deadline,
                                                   argv=argv, trace=trace)
    s = Sample(report=report, output_bytes=size, digest=digest)
    want = PINNED[name] if genus == GENUS else ""
    if code != 0 or not report:
        s.problem = f"exit code {code}"
    elif want and digest != want:
        s.problem = f"stdout digest {digest} differs from the pinned {want}"
    else:
        s.timed(start, eof)
        s.rss_mb = report["rss_mb"]
    s.failed = int(bool(s.problem))
    return s


def query_run(seed: int, genus: int, deadline: float, trace: bool = False) -> Sample:
    entries = make_stream(seed, genus)
    payload = json.dumps(entries).encode("ascii")
    code, start, _, _, _, report = spawn("queries", genus, deadline, seed=seed,
                                         stdin=payload, trace=trace)
    s = Sample(report=report, attempted=len(entries), digest=report.get("digest", ""))
    want = PINNED["element-queries"] if (genus, seed) == (GENUS, PINNED_SEED) else ""
    if code != 0 or not report:
        s.problem = f"exit code {code}"
    elif want and report["digest"] != want:
        s.problem = f"answer digest {report['digest']} differs from the pinned {want}"
    if s.problem:
        s.failed = s.attempted
        return s
    s.failed = report["failed_queries"]
    if s.failed:
        s.problem = f"{s.failed} of {s.attempted} answers failed their checks"
    s.timed(start, report["done"])
    s.rss_mb = report["rss_mb"]
    s.latencies_s = report["latencies_s"]
    return s


def one_run(name: str, seed: int, genus: int, deadline: float, trace: bool = False) -> Sample:
    if name == "element-queries":
        return query_run(seed, genus, deadline, trace)
    return cli_run(name, genus, deadline, trace)


def expected_counts(name: str, genus: int) -> dict:
    """Structural counts a traced run must reproduce exactly."""
    order = 2 ** genus
    for k in range(2, genus + 1):
        order *= k
    want = {"affine.finite_order": order}
    if name == "iwahori-classify":
        want.update({"admissible.adm_elements": ADM_SIZE[genus],
                     "ekor.records": ADM_SIZE[genus]})
    elif name == "hyperspecial-compare":
        want.update({"admissible.adm_elements": ADM_SIZE[genus],
                     "ekor.records": 2 ** genus,
                     "ekor.basic_records": 2 ** (genus // 2)})
    else:
        want.update({"admissible.adm_elements": 0, "ekor.records": 0})
    return want


def percentile(values: list, q: int) -> float:
    """q-th percentile by statistics.quantiles with 100 cut points."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


@dataclass
class Outcome:
    """Everything one benchmark run measured."""

    name: str
    samples: list
    setups: list
    traced: Sample | None = None

    @property
    def attempted(self) -> int:
        runs = self.samples + ([self.traced] if self.traced else [])
        return sum(s.attempted for s in runs)

    @property
    def failed(self) -> int:
        runs = self.samples + ([self.traced] if self.traced else [])
        return sum(s.failed for s in runs) + sum(1 for s in self.setups if s.problem)

    @property
    def problems(self) -> list:
        runs = self.samples + self.setups + ([self.traced] if self.traced else [])
        return [s.problem for s in runs if s.problem]

    def good(self) -> list:
        return [s for s in self.samples if not s.problem]

    def end_to_end(self) -> dict:
        good = self.good()
        setups = [s.setup_s for s in good + self.setups if not s.problem]
        return {
            "wall_s": statistics.median(s.wall_s for s in good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s.rss_mb for s in good),
        }

    def per_layer(self) -> dict:
        """The traced run's layer figures; self times are scaled to
        reference seconds by the run's own reference-to-raw ratio."""
        out = dict(self.traced.report["layers"])
        speed = self.traced.wall_s / self.traced.raw_wall_s
        for key, unit, _ in PER_LAYER:
            if unit == "s" and key in out:
                out[key] *= speed
        out["cli.output_bytes"] = self.traced.output_bytes
        out["trace.wall_s"] = self.traced.wall_s
        out["trace.overhead_s"] = self.traced.wall_s - self.end_to_end()["wall_s"]
        return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 genus: int = GENUS) -> Outcome:
    deadline = now() + DEADLINE_S
    warm = one_run(name, seed, WARMUP_GENUS, deadline)
    if warm.problem:
        raise BenchError(f"warm-up run failed: {warm.problem}")
    stop = now() + seconds
    samples = []
    while True:
        t0 = now()
        samples.append(one_run(name, seed, genus, deadline))
        took = now() - t0
        if samples[-1].problem or now() + took > stop:
            break
    setups = []
    for _ in range(SETUP_SAMPLES - len(samples)):
        code, start, _, _, _, report = spawn("setup", genus, deadline)
        setup = Sample(report=report)
        if code == 0 and report:
            setup.timed(start)
        else:
            setup.problem = f"exit code {code}"
        setups.append(setup)
    out = Outcome(name, samples, setups)
    if trace and not out.problems:
        traced = one_run(name, seed, genus, deadline, trace=True)
        if not traced.problem:
            want = expected_counts(name, genus)
            got = {k: traced.report["layers"][k] for k in want}
            if got != want:
                traced.problem = f"structural counts {got}, expected {want}"
                traced.failed = traced.attempted
        out.traced = traced
    return out


def environment() -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip()
    tree = hashlib.sha256()
    for path in sorted((SRC / "ekor_atlas").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit or "unknown",
        "src_sha256": tree.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def summary(out: Outcome, trace: bool, seed: int) -> list:
    lines = []
    good = out.good()
    e2e = out.end_to_end() if good else {}
    for key, unit in END_TO_END:
        if key in e2e:
            lines.append(f"# {out.name} {key} = {e2e[key]:.4f} {unit}")
    if good:
        raw_wall = statistics.median(s.raw_wall_s for s in good)
        raw_setup = statistics.median(s.raw_setup_s for s in good + out.setups if not s.problem)
        lines.append(f"# {out.name} raw wall clock: wall {raw_wall:.4f} s, setup {raw_setup:.4f} s")
    frac = out.failed / out.attempted
    lines.append(f"# {out.name} failed_frac = {frac:.4f} ({out.failed}/{out.attempted})")
    if out.name == "element-queries" and good:
        p50 = statistics.median(percentile(s.latencies_s, 50) for s in good) * 1e3
        p99 = statistics.median(percentile(s.latencies_s, 99) for s in good) * 1e3
        n = len(good[0].latencies_s)
        lines.append(f"# {out.name} query_p50_ms = {p50:.4f} ms, query_p99_ms = {p99:.4f} ms "
                     f"({n} queries a run, {n // 100} beyond p99)")
    lines.append(f"# {out.name} runs: {len(out.samples)} timed "
                 f"(wall_s {[round(s.wall_s, 3) for s in good]}, "
                 f"raw {[round(s.raw_wall_s, 3) for s in good]}), "
                 f"setup samples {len(good) + len(out.setups)}, "
                 f"output digest {good[0].digest if good else '-'}")
    if trace and out.traced is not None and not out.traced.problem:
        layers = out.per_layer()
        lines += [f"# {out.name} {k} = {layers[k]:.6g} {u}" for k, u, _ in PER_LAYER]
        lines.append(f"# {out.name} tracing overhead = {layers['trace.overhead_s']:.4f} s "
                     f"(traced {layers['trace.wall_s']:.4f} s)")
        RESULTS.mkdir(exist_ok=True)
        dump = RESULTS / f"trace-{out.name}-seed{seed}.json"
        dump.write_text(json.dumps({"layers": layers, **out.traced.report["trace"]},
                                   indent=1, sort_keys=True))
        lines.append(f"# {out.name} trace aggregates written to {dump.relative_to(ROOT)}")
    for problem in out.problems:
        lines.append(f"# {out.name} FAILED: {problem}")
    return lines


def result(out: Outcome, trace: bool) -> dict:
    correct = not out.problems
    metrics = {}
    if correct:
        if trace:
            values = out.per_layer()
            metrics = {k: {"value": values[k], "unit": u} for k, u, _ in PER_LAYER}
        else:
            values = out.end_to_end()
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}
    return {"correct": correct, "attempted": out.attempted, "failed": out.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ekor_atlas" / "cli.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(environment(), sort_keys=True), flush=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    last = None
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        for line in summary(out, bool(args.trace), args.seed):
            print(line, flush=True)
        last = result(out, bool(args.trace))
        ok = ok and last["correct"]
    print(f"# loadavg at the end {[round(x, 2) for x in os.getloadavg()]}")
    if args.workload != "all":
        print(json.dumps(last))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
