"""Tests of the benchmark itself, at small genus so they stay fast.

    python3 -m pytest perfbench/tests -q
"""

import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import probe  # noqa: E402
import run  # noqa: E402
import stream  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

COUNT_METRICS = [name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")]


def traced(name, genus, seed=0):
    sample = run.one_run(name, seed, genus, run.now() + 120, trace=True)
    assert not sample.problem, sample.problem
    return sample


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_stream_is_deterministic_per_seed():
    a = stream.make_stream(7, 3)
    assert a == stream.make_stream(7, 3)
    assert a != stream.make_stream(8, 3)
    assert len(a) == stream.QUERIES
    for word, top in a:
        assert len(word) <= stream.MAX_WORD and all(0 <= c <= 3 for c in word)
        assert 0 <= top < 2 ** 3
    # every distinct entry is asked exactly twice (short words may coincide)
    counts = {}
    for entry in a:
        key = json.dumps(entry)
        counts[key] = counts.get(key, 0) + 1
    assert all(c % 2 == 0 for c in counts.values())
    assert sum(len(w) for w, _ in a) == sum(len(w) for w, _ in stream.make_stream(8, 3))


@pytest.mark.parametrize("genus", [2, 3])
def test_structural_counts_of_the_cli_workloads(genus):
    for name in ("iwahori-classify", "hyperspecial-compare"):
        layers = traced(name, genus).report["layers"]
        want = run.expected_counts(name, genus)
        assert {k: layers[k] for k in want} == want


def test_genus_five_counts_are_the_documented_ones():
    assert run.expected_counts("iwahori-classify", 5) == {
        "affine.finite_order": 3840, "admissible.adm_elements": 6331,
        "ekor.records": 6331}
    assert run.expected_counts("hyperspecial-compare", 5) == {
        "affine.finite_order": 3840, "admissible.adm_elements": 6331,
        "ekor.records": 32, "ekor.basic_records": 4}


def test_call_counts_repeat_exactly():
    for name in run.WORKLOADS:
        genus = 2 if name == "element-queries" else 3
        first = traced(name, genus).report["layers"]
        second = traced(name, genus).report["layers"]
        assert {k: first[k] for k in COUNT_METRICS if k in first} == \
            {k: second[k] for k in COUNT_METRICS if k in second}


def test_layers_run_where_the_workload_says():
    queries = traced("element-queries", 2).report["layers"]
    assert queries["admissible.adm_elements"] == 0
    assert queries["affine.bruhat_leq_calls"] == stream.QUERIES
    assert queries["affine.newton_calls"] == stream.QUERIES
    classify = traced("iwahori-classify", 3).report["layers"]
    assert classify["cli.serialize_s"] > 0 and classify["ekor.dl_datum_s"] > 0
    compare = traced("hyperspecial-compare", 3).report["layers"]
    assert compare["siegel.eo_strata_s"] > 0 and compare["affine.parabolic_elements"] > 0


@pytest.mark.parametrize("name", ["iwahori-classify", "hyperspecial-compare"])
def test_worker_output_is_the_command_line_output(name):
    argv = run.CLI_ARGS[name] + ["--g", "3"]
    direct = subprocess.run([sys.executable, "-m", "ekor_atlas", *argv], cwd=ROOT,
                            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                            capture_output=True, check=True).stdout
    sample = run.one_run(name, 0, 3, run.now() + 60)
    assert not sample.problem
    assert sample.report["probes"] and sample.wall_s > 0 and sample.setup_s > 0
    assert sample.digest == hashlib.sha256(direct).hexdigest()
    assert sample.output_bytes == len(direct)


def test_reference_seconds_follow_the_probe():
    ref = probe.REF_S
    probes = [[1.0, ref], [2.0, ref / 2], [9.0, 1.0]]
    # the two probes inside [0, 3] ran at speeds 1 and 2: mean 1.5
    assert probe.reference_s(probes, 0.0, 3.0) == pytest.approx((3.0 - 1.5 * ref) * 1.5)
    # a probe twice as slow as the reference halves the time
    assert probe.reference_s([[5.0, 2 * ref]], 4.0, 6.0) == pytest.approx((2.0 - 2 * ref) / 2)
    # no probe inside: left as measured
    assert probe.reference_s(probes, 3.0, 4.0) == 1.0


def test_wrong_digest_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "GENUS", 2)
    monkeypatch.setattr(run, "WARMUP_GENUS", 1)
    monkeypatch.setitem(run.PINNED, "hyperspecial-compare", "0" * 64)
    monkeypatch.setattr(run, "run_workload", functools.partial(run.run_workload, genus=2))
    code = run.main(["--workload", "hyperspecial-compare", "--seconds", "0"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert last["correct"] is False and last["failed"] == last["attempted"] == 1


def test_query_checks_catch_wrong_answers():
    from ekor_atlas.siegel import siegel_context

    ctx = siegel_context(2)
    tops = stream.translation_points(ctx)
    word, top = [0, 1, 2, 1], 1
    x, answers = stream.answer(ctx, tops, word, top)
    assert stream.check(ctx, tops, x, answers, top, True, {})
    length, rd, supp, basic, newton, iset, below = answers
    bad = [
        (length + 1, rd, supp, basic, newton, iset, below),
        (length, rd, supp, basic, newton, iset ^ {1}, below),
        (length, rd, supp, basic, newton, iset, not below),
    ]
    for wrong in bad:
        assert not stream.check(ctx, tops, x, wrong, top, True, {})


def test_without_the_engine_no_result_is_printed(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "element-queries", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
