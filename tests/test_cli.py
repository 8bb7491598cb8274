import itertools
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from ekor_atlas import cli
from ekor_atlas.admissible import admissible_set, parahoric_label
from ekor_atlas.affine import ExtendedAffineWeylGroup, GroupError
from ekor_atlas.cli import main
from ekor_atlas.ekor import stratum_report
from ekor_atlas.siegel import SiegelContext, siegel_context, siegel_datum
from helpers import (build_b2, build_g2, build_gl, build_gl2_restriction, record_dict,
                     refuse_group_law, siegel_levels)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- adm


def test_adm_text(capsys):
    code, out, err = run_cli(capsys, "adm", "--g", "2")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "13 elements: 1/3/5/4 by length 0..3"
    assert len(lines) == 14
    assert lines[1] == "len=0 tau"
    assert all(line.startswith("len=") for line in lines[1:])


def test_adm_json(capsys):
    code, out, _ = run_cli(capsys, "adm", "--g", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert isinstance(data, list) and len(data) == 13
    assert {"t", "w"} <= set(data[0])


def test_adm_dot(capsys):
    code, out, _ = run_cli(capsys, "adm", "--g", "1", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count(" -> ") == 2


# ------------------------------------------------------------- classify


def test_classify_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "--g", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "13 strata, 5 basic"
    assert len(lines) == 14


def test_classify_hyperspecial(capsys):
    code, out, _ = run_cli(capsys, "classify", "--g", "2",
                           "--level", "hyperspecial")
    assert code == 0
    assert out.splitlines()[0] == "4 strata, 2 basic"


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--g", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 13
    assert sum(1 for rec in data if rec["basic"]) == 5
    for rec in data:
        assert (rec["dl"] is None) == (not rec["basic"])


def test_classify_dot_doubles_basic(capsys):
    code, out, _ = run_cli(capsys, "classify", "--g", "2", "--format", "dot")
    assert code == 0
    assert out.count("peripheries=2") == 5


# -------------------------------------------------------------- dl-data


def test_dl_data_text(capsys):
    code, out, _ = run_cli(capsys, "dl-data", "--g", "2",
                           "--level", "hyperspecial")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2 basic strata"
    assert len(lines) == 3


def test_dl_data_json(capsys):
    code, out, _ = run_cli(capsys, "dl-data", "--g", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 5
    assert all(rec["dl"] is not None for rec in data)


# --------------------------------------------------------------- compare


def test_compare_iwahori(capsys):
    code, out, _ = run_cli(capsys, "compare", "--g", "2")
    assert code == 0
    assert out.splitlines()[0] == "mode=gortz-yu g=2 strata=13 basic=5 expected=5 ok"


def test_compare_hyperspecial(capsys):
    code, out, _ = run_cli(capsys, "compare", "--g", "2",
                           "--level", "hyperspecial")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "mode=hoeve g=2 strata=4 basic=2 expected=2 ok"
    assert [ln.strip() for ln in lines[1:]] == ["c0:e", "c1:s2"]


def test_compare_json(capsys):
    code, out, _ = run_cli(capsys, "compare", "--g", "3",
                           "--level", "hyperspecial", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["basic"] == data["expected"] == 2


def test_gortz_yu_dimension_is_a_hard_check(capsys, monkeypatch):
    """A longest basic Iwahori stratum off the Goertz-Yu dimension is an
    internal mismatch: exit 1 and nothing on stdout."""
    monkeypatch.setattr(SiegelContext, "gortz_yu_dimension", lambda self: 3)
    code, out, err = run_cli(capsys, "compare", "--g", "2")
    assert code == 1 and out == ""
    assert "length 2" in err and "Goertz-Yu dimension is 3" in err


# ----------------------------------------------------------------- check


def test_check_runs(capsys):
    code, out, _ = run_cli(capsys, "check", "--g", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "all checks passed"
    assert all(line.startswith("ok: ") for line in lines[:-1])
    assert len(lines) >= 5


def _ball_one_too_far(monkeypatch):
    ball = cli.cayley_ball

    def far(group, radius, omegas):
        dist = ball(group, radius, omegas)
        x = next(x for x, r in dist.items() if r)
        return {**dist, x: dist[x] + 1}
    monkeypatch.setattr(cli, "cayley_ball", far)


@pytest.mark.parametrize("tamper, message", [
    (lambda mp: mp.setattr(cli, "coxeter_group_size", lambda *args, cap: 7),
     "finite group size 7, expected 8"),
    (_ball_one_too_far, "but word distance"),
    (lambda mp: mp.setattr(cli, "bruhat_leq_subword", lambda *args: False),
     "admissible element fails the subword test"),
    (lambda mp: mp.setattr(ExtendedAffineWeylGroup, "bruhat_leq", lambda self, x, y: False),
     "admissible element fails the order test"),
    # every Newton point is then least only against itself
    (lambda mp: mp.setattr(ExtendedAffineWeylGroup, "newton_leq", lambda self, a, b: a == b),
     "no unique basic Newton point"),
], ids=["order", "length", "subword", "bruhat", "straight_classes"])
def test_check_fails_on_a_tampered_side(capsys, monkeypatch, tamper, message):
    """Each check of the battery fails when the oracle or the engine is
    tampered with: exit 1 and nothing on stdout.  The context is a fresh
    one, not the cached one."""
    monkeypatch.setattr(cli, "siegel_context", SiegelContext)
    tamper(monkeypatch)
    code, out, err = run_cli(capsys, "check", "--g", "2")
    assert code == 1 and out == ""
    assert message in err


# ------------------------------------------------- no general products


def _strata_argvs(g):
    """Every command that writes strata, in every format it offers, at the
    named levels and at one level given by its nodes."""
    levels = [("--level", level) for level in ("iwahori", "hyperspecial", "0")]
    for command, fmts, command_levels in (("adm", ("text", "json", "dot"), [()]),
                                          ("classify", ("text", "json", "dot"), levels),
                                          ("dl-data", ("text", "json"), levels),
                                          ("compare", ("text", "json"), levels[:2])):
        for level in command_levels:
            for fmt in fmts:
                yield (command, "--g", str(g)) + level + ("--format", fmt)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_commands_form_no_general_product(capsys, monkeypatch, g):
    """With mult, inv and the finite-part products they use refused, each
    command on a fresh context prints the bytes of the cached context
    unrefused: no command path forms a general group product."""
    argvs = list(_strata_argvs(g))
    want = [run_cli(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(cli, "siegel_context", SiegelContext)
    refuse_group_law(monkeypatch)
    for argv, (code, out, err) in zip(argvs, want):
        assert code == 0 and out, argv
        assert run_cli(capsys, *argv) == (code, out, err), argv


# ------------------------------------------------------------ exit codes


@pytest.mark.parametrize("argv", [
    ("adm", "--g", "0"),
    ("classify", "--g", "2", "--level", "bogus"),
    ("classify", "--g", "2", "--level", "9"),
    ("check", "--g", "4"),
    ("compare", "--g", "2", "--level", "0,1"),
])
def test_config_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("g", [8, 12, 1500, 10 ** 6])
def test_oversized_genus_refused(capsys, monkeypatch, g):
    """Refused before any context is built.  The count is printed for
    moderate genera; at g = 1500 it has over 4,300 digits and is not
    formed at all."""
    def build(genus):
        raise AssertionError("context built for an oversized genus")
    monkeypatch.setattr("ekor_atlas.cli.siegel_context", build)
    code, out, err = run_cli(capsys, "adm", "--g", str(g))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    if g <= 12:
        assert f"{2 ** g * math.factorial(g)} elements" in err
    else:
        assert f"2^{g} * {g}! elements" in err


@pytest.mark.parametrize("g", [4, 7])
def test_check_refuses_large_genus_before_building(capsys, monkeypatch, g):
    """check stops at genus 3 without building the genus-g context."""
    def build(genus):
        raise AssertionError("context built for a refused check")
    monkeypatch.setattr("ekor_atlas.cli.siegel_context", build)
    code, out, err = run_cli(capsys, "check", "--g", str(g))
    assert code == 2
    assert out == ""
    assert err == "error: check supports g up to 3; larger genera take too long\n"


@pytest.mark.parametrize("g", [5, 7])
def test_dot_refuses_large_genus_before_building(capsys, monkeypatch, g):
    """A Hasse diagram stops at genus 4 without building the genus-g
    context: genus 5 compares millions of pairs."""
    def build(genus):
        raise AssertionError("context built for a refused dot output")
    monkeypatch.setattr("ekor_atlas.cli.siegel_context", build)
    for command in ("adm", "classify"):
        code, out, err = run_cli(capsys, command, "--g", str(g), "--format", "dot")
        assert code == 2
        assert out == ""
        assert err == "error: dot output supports g up to 4; larger genera take too long\n"


@pytest.mark.parametrize("argv", [
    ("adm", "--g", "1", "--level", "bogus"),
    ("check", "--g", "1", "--level", "iwahori"),
    ("check", "--g", "1", "--format", "json"),
    ("compare", "--g", "2", "--format", "dot"),
    ("dl-data", "--g", "2", "--format", "dot"),
])
def test_options_unread_by_a_command_exit_two(capsys, argv):
    """--level and --format exist only where the command reads them, and
    --format offers dot only to adm and classify."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--g", "2"])
    assert exc.value.code == 2


def test_missing_genus_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["adm"])
    assert exc.value.code == 2


# ------------------------------------------------------------ file output


def test_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "adm.json"
    code, out, _ = run_cli(capsys, "adm", "--g", "2", "--format", "json")
    assert code == 0
    code2, out2, _ = run_cli(capsys, "adm", "--g", "2", "--format", "json",
                             "--out", str(target))
    assert code2 == 0 and out2 == ""
    assert target.read_text(encoding="ascii") == out


def test_closed_pipe_exits_quietly():
    """A reader that stops after one line (``| head -1``) ends the command
    with status 141 (128 + SIGPIPE) and nothing on stderr.  The JSON is
    several times a pipe's buffer, so the writer must meet the closed end."""
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    with subprocess.Popen(
            [sys.executable, "-m", "ekor_atlas", "classify", "--g", "4", "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first == b"[\n"
    assert err == b"" and code == 141


@pytest.mark.parametrize("target", ["missing/adm.json", "."])
def test_unwritable_out_exits_two(tmp_path, capsys, monkeypatch, target):
    """A missing directory or a directory as --out fails before any work."""
    monkeypatch.setattr(cli, "siegel_context", None)
    code, out, err = run_cli(capsys, "adm", "--g", "1", "--out",
                             str(tmp_path / target))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and "Traceback" not in err


def test_runs_are_deterministic(capsys):
    outputs = set()
    for _ in range(3):
        _, out, _ = run_cli(capsys, "classify", "--g", "2",
                            "--format", "json")
        outputs.add(out)
    assert len(outputs) == 1


# ------------------------------------------------------------ streaming


@pytest.mark.parametrize("items", [[], [{"a": [1, {"b": []}]}],
                                   [{"x": 1}, [], {"y": {"z": [2, 3]}}]])
def test_json_list_matches_whole_dump(items):
    streamed = "".join(cli._json_list(map(cli._indented, items)))
    assert streamed == json.dumps(items, indent=2, sort_keys=True) + "\n"


def _indented_dump(d):
    return json.dumps(d, indent=2, sort_keys=True).replace("\n", "\n  ")


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_record_writer_matches_indented_dump(g):
    """The record writer against ``json.dumps(indent=2, sort_keys=True)`` of
    the record as a dict, record by record and for the whole classify and
    dl-data JSON: at every level for g <= 3, at Iwahori and hyperspecial
    level for g = 4."""
    ctx = siegel_context(g)
    levels = siegel_levels(g) if g <= 3 else [ctx.iwahori, ctx.hyperspecial]
    flags = set()
    for level in levels:
        recs = stratum_report(ctx.adm(), level)
        dicts = [record_dict(ctx.group, rec) for rec in recs]
        for rec, d in zip(recs, dicts):
            assert cli.record_to_json(ctx.group, rec) == _indented_dump(d)
        basic = [d for d in dicts if d["basic"]]
        flags |= {d["basic"] for d in dicts}
        for command, want in ((cli._cmd_classify, dicts), (cli._cmd_dl_data, basic)):
            text = "".join(command(ctx, level, "json"))
            assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert flags == {True, False}


def test_record_writer_memo_grows_with_shared_fields():
    """The writer keeps one text per combination of the fields that records
    share, one per translation and one per Newton tuple, none per record:
    the genus-4 Iwahori report (633 records) leaves 66 entries on a fresh
    group, and writing it again adds none.  A key that took in the element
    or the word would give the same bytes and one text per record."""
    group = ExtendedAffineWeylGroup(siegel_datum(4))
    recs = stratum_report(admissible_set(group, (1,) * 4 + (0,) * 4), frozenset())
    assert len(recs) == 633
    texts = [cli.record_to_json(group, rec) for rec in recs]
    shared = {(r.datum, r.stable_subset, r.level, r.support) for r in recs}
    translations = {r.element.trans for r in recs}
    newtons = {id(r.newton) for r in recs}
    assert (len(shared), len(translations), len(newtons)) == (36, 16, 14)
    size = len(group._json_texts)
    assert size == len(shared) + len(translations) + len(newtons) == 66
    assert [cli.record_to_json(group, rec) for rec in recs] == texts
    assert len(group._json_texts) == size


def test_record_writer_reuses_its_texts():
    """The writer's memo gives the same bytes when warm: the genus-3 report
    at every level, again in reverse level order, then the genus-2 report,
    on fresh groups in one process.  The stable subset of a basic record is
    written at two indents, as ``i_set`` and as the flag datum's
    ``parabolic``, and the genus-2 group follows the genus-3 one."""
    both_indents = set()
    for g in (3, 2):
        group = ExtendedAffineWeylGroup(siegel_datum(g))
        adm = admissible_set(group, (1,) * g + (0,) * g)
        levels = siegel_levels(g)
        for level in levels + levels[::-1] if g == 3 else levels:
            for rec in stratum_report(adm, level):
                d = record_dict(group, rec)
                assert cli.record_to_json(group, rec) == _indented_dump(d)
                if rec.basic and rec.stable_subset:
                    both_indents.add(rec.stable_subset)
    assert len(both_indents) > 1


def test_record_writer_tells_a_translation_from_a_twist(ctx2):
    """A translation whose lattice coordinates equal the twist, a tuple of
    the same length at the same indent, still gets its own text."""
    group = ctx2.group
    for rec in stratum_report(ctx2.adm(), frozenset()):
        if rec.basic:
            moved = rec._replace(element=group.from_parts(rec.support.twist, rec.element.w))
            for r in (rec, moved):
                assert cli.record_to_json(group, r) == _indented_dump(record_dict(group, r))


def test_record_writer_rows_form_and_null_dl():
    """A finite part that is no permutation is written as {"rows": ...}:
    split B2 and G2 on their coroot lattices at Iwahori level, where most
    finite parts are no permutation matrix, with and without a flag datum."""
    for group, mu, rows, rows_dl in ((build_b2(), (1, 1), 14, 10),
                                     (build_g2(), (2, 1), 34, 14)):
        dicts = []
        for rec in stratum_report(admissible_set(group, mu), frozenset()):
            d = record_dict(group, rec)
            assert cli.record_to_json(group, rec) == _indented_dump(d)
            dicts.append(d)
        with_rows = [d for d in dicts if isinstance(d["w"]["w"], dict)]
        assert len(with_rows) == rows
        assert sum(d["dl"] is not None for d in with_rows) == rows_dl


@pytest.mark.parametrize("build, mu, sizes", [
    (build_gl2_restriction, (1, 0, 1, 0), (9, 3, 17, 13)),
    (lambda: build_gl(4, twisted=True), (1, 0, 0, 0), (15, 7, 61, 31)),
    (lambda: build_gl(4, twisted=True), (1, 1, 0, 0), (33, 7, 119, 89)),
], ids=["gl2-restriction", "gl4-twisted-1000", "gl4-twisted-1100"])
def test_record_writer_twisted_data(build, mu, sizes):
    """The writer on data whose sigma moves nodes: the Weil restriction of
    GL2, which swaps the two factors, and GL4 with the duality twist, at
    every level that ``parahoric_label`` accepts.  Their flag data carry a
    non-identity ``frobenius`` and their Newton points, averaged over sigma,
    have non-integer coordinates."""
    group = build()
    adm = admissible_set(group, mu)
    levels = []
    for r in range(group.num_nodes + 1):
        for nodes in itertools.combinations(range(group.num_nodes), r):
            try:
                levels.append(parahoric_label(group, nodes))
            except GroupError:
                pass
    recs = [rec for level in levels for rec in stratum_report(adm, level)]
    assert (len(adm), len(levels), len(recs), sum(r.basic for r in recs)) == sizes
    for rec in recs:
        assert cli.record_to_json(group, rec) == _indented_dump(record_dict(group, rec))
    identity = tuple(range(group.num_nodes))
    assert any(rec.datum is not None and rec.support.twist != identity for rec in recs)
    assert any(c.denominator != 1 for rec in recs for c in rec.newton)


def test_record_writer_empty_report(capsys, monkeypatch):
    monkeypatch.setattr(SiegelContext, "report", lambda self, level: ())
    for command in ("classify", "dl-data"):
        code, out, _ = run_cli(capsys, command, "--g", "2", "--format", "json")
        assert code == 0 and out == "[]\n" == json.dumps([], indent=2) + "\n"


def test_failure_leaves_stdout_empty(capsys, monkeypatch):
    def broken(self, level):
        raise GroupError("broken report")
    monkeypatch.setattr(SiegelContext, "report", broken)
    code, out, err = run_cli(capsys, "classify", "--g", "2", "--format", "json")
    assert code == 1 and out == "" and "broken report" in err


def test_workflow_commands_parse():
    """Every ``python -m ekor_atlas`` command of the CI workflow is accepted
    by the parser, so a renamed flag cannot break a digest step unseen.  A
    regex, not a YAML parser: CI installs only pytest and hypothesis."""
    workflow = pathlib.Path(__file__).resolve().parents[1] / ".github/workflows/tier1.yml"
    text = workflow.read_text()
    commands = re.findall(r"python -m ekor_atlas ([^|)\n]*)", text)
    assert commands and len(commands) == text.count("-m ekor_atlas")
    for command in commands:
        cli.build_parser().parse_args(shlex.split(command))
