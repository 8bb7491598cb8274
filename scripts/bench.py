"""Per-stage times of the Siegel pipeline, one fresh process per genus.

    python3 scripts/bench.py --out BENCH_N.json [--max-g 5] [--label change]

For each genus 1..max-g (6 adds about 15 s, most of it in its ``bruhat``
stage; 7 adds about 7 minutes and a 770 MB peak on a 2-vCPU host, about
5.5 of those minutes in ``bruhat``) a new process runs, in order:

* ``import``: importing the engine's command line module, which imports
  every engine module;
* ``context``: ``siegel_context(g)``, the finite Weyl table and generators;
* ``adm``: the admissible set and its canonical order: ``admissible_set``
  (the vertex rule) and then ``adm.elements`` (the reduced words and sort
  of the whole set, which ``admissible_set`` leaves to ``kw_elements``).
  So the stage times the same work as the ``adm`` stage of BENCH_6.json
  to BENCH_13.json, and the words and sort do not move into ``newton``.
  The set keeps no sorted copy, so the order is read here once and the
  ``words``, ``newton`` and ``bruhat`` stages iterate that tuple;
* ``kw``: the level filter ``group.left_minimal`` over the unsorted set at
  hyperspecial level and at the level {0}, which is valid for every
  genus.  It reads the rows the ``adm`` stage built and fills no memo, so
  the report stages below time what they timed before it existed;
* ``words``: the group law on the memoised reduced words: every admissible
  element is rebuilt from its word and length-zero part by
  ``evaluate_word``, and a mismatch stops the worker with an error;
* ``newton``: ``newton_vector`` of every admissible element, from an empty
  Newton memo, which is emptied again afterwards so that the report below
  computes its Newton points as it did before this stage existed;
* ``iwahori_report``: ``stratum_report`` at Iwahori level;
* ``hyperspecial_report``: ``stratum_report`` at hyperspecial level;
* ``serialization``: the Iwahori report already built, written as the JSON
  of ``classify --format json`` (``cli.record_to_json``, the command line's
  record writer) to ``os.devnull``;
* ``classify_json``: ``atlas classify --g g --level iwahori --format json``
  through the command line entry, written to ``os.devnull``.  The context
  and the admissible set are cached by then, so this is the Iwahori report
  again plus its serialization;
* ``bruhat``: every admissible element compared with ``adm.maxima`` in
  turn until the first one above it, as ``atlas check`` does.  One pass
  asks no pair twice, so the Bruhat memo is emptied after each element and
  never holds more than its 2^g pairs.

Times are wall-clock seconds (``time.perf_counter``) on whatever machine
runs the script; ``peak_rss_mb`` is the process's ``ru_maxrss``, which
now includes the ``bruhat`` stage (BENCH_20.json and earlier files have no
such stage).  The workers get ``PYTHONPATH`` and a fixed
``PYTHONHASHSEED`` and no other ``PYTHON*`` variable of the caller, so a
``PYTHONDONTWRITEBYTECODE`` does not put compilation into the import
stage.  The run is stored in the output file under ``--label`` with the
machine, the Python version and a digest of the engine's source, next to
the runs already there, so one file can hold a before/after pair.
``--out`` has no default, so no run lands by accident in a stage file that
holds another's figures.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def measure(g: int) -> dict:
    clock = time.perf_counter
    t0 = clock()
    from ekor_atlas import cli
    from ekor_atlas.ekor import stratum_report
    from ekor_atlas.siegel import siegel_context
    t1 = clock()
    ctx = siegel_context(g)
    t2 = clock()
    adm = ctx.adm()
    elements = adm.elements
    t3 = clock()
    group = ctx.group
    for label in (ctx.hyperspecial, frozenset({0})):
        group.left_minimal(adm.found, label)
    t3k = clock()
    for x in elements:
        rd = group.reduced_word(x)
        if group.evaluate_word(rd.word, rd.omega) != x:
            raise SystemExit(f"a reduced word of genus {g} evaluates to another element")
    t4 = clock()
    for x in elements:
        group.newton_vector(x)
    t5 = clock()
    group._newton.clear()
    t6 = clock()
    report = stratum_report(adm, ctx.iwahori)
    t7 = clock()
    basic = sum(rec.basic for rec in stratum_report(adm, ctx.hyperspecial))
    t8 = clock()
    with open(os.devnull, "w", encoding="ascii") as out:
        out.writelines(cli._json_list(cli.record_to_json(group, rec) for rec in report))
    strata = len(report)
    del report  # the command line builds its own: one report alive at a time
    t9 = clock()
    code = cli.main(["classify", "--g", str(g), "--level", "iwahori",
                     "--format", "json", "--out", os.devnull])
    t10 = clock()
    if code != 0:
        raise SystemExit(f"classify --g {g} exited {code}")
    for x in elements:
        if not any(group.bruhat_leq(x, top) for top in adm.maxima):
            raise SystemExit(f"an admissible element of genus {g} is below no maximum")
        group._bruhat.clear()
    t11 = clock()
    stages = {"import": t1 - t0, "context": t2 - t1, "adm": t3 - t2,
              "kw": t3k - t3, "words": t4 - t3k, "newton": t5 - t4,
              "iwahori_report": t7 - t6,
              "hyperspecial_report": t8 - t7, "serialization": t9 - t8,
              "classify_json": t10 - t9, "bruhat": t11 - t10}
    return {
        "g": g,
        "adm": len(adm),
        "iwahori_strata": strata,
        "hyperspecial_basic": basic,
        "stages_s": {k: round(v, 4) for k, v in stages.items()},
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ekor_atlas").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-g", type=int, default=5, choices=range(1, 8))
    parser.add_argument("--out", help="stage file to add the run to (required)")
    parser.add_argument("--label", default="change")
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker is not None:
        json.dump(measure(args.worker), sys.stdout)
        return 0
    if args.out is None:
        parser.error("the following arguments are required: --out")

    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    genera = []
    for g in range(1, args.max_g + 1):
        done = subprocess.run([sys.executable, __file__, "--worker", str(g)],
                              env=env, capture_output=True, text=True, check=True)
        row = json.loads(done.stdout)
        genera.append(row)
        print(json.dumps(row), flush=True)
    run = {
        "machine": {"platform": platform.platform(), "processor": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(),
        "source_sha256": source_digest(),
        "genera": genera,
    }
    out = pathlib.Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    data["runs"][args.label] = run
    out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
