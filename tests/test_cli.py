import itertools
import json
import math

import pytest

from ekor_atlas import cli
from ekor_atlas.affine import GroupError
from ekor_atlas.cli import main
from ekor_atlas.ekor import record_to_json, stratum_report
from ekor_atlas.siegel import SiegelContext, siegel_context


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


# ------------------------------------------------------------ exit codes


@pytest.mark.parametrize("argv", [
    ("adm", "--g", "0"),
    ("classify", "--g", "2", "--level", "bogus"),
    ("classify", "--g", "2", "--level", "9"),
    ("check", "--g", "4"),
    ("compare", "--g", "2", "--level", "0,1"),
    ("compare", "--g", "2", "--format", "dot"),
    ("dl-data", "--g", "2", "--format", "dot"),
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
])
def test_options_unread_by_a_command_exit_two(capsys, argv):
    """--level and --format exist only where the command reads them."""
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
    streamed = "".join(cli._json_list(items, lambda item: item))
    assert streamed == json.dumps(items, indent=2, sort_keys=True) + "\n"


def _indented_dump(d):
    return json.dumps(d, indent=2, sort_keys=True).replace("\n", "\n  ")


def _levels(g):
    """Every level: the node sets that leave out at least one node."""
    return [frozenset(c) for r in range(g + 1)
            for c in itertools.combinations(range(g + 1), r)]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_record_writer_matches_indented_dump(g):
    """The record writer against ``json.dumps(indent=2, sort_keys=True)``,
    record by record and for the whole classify and dl-data JSON: at every
    level for g <= 3, at Iwahori and hyperspecial level for g = 4."""
    ctx = siegel_context(g)
    levels = _levels(g) if g <= 3 else [ctx.iwahori, ctx.hyperspecial]
    flags = set()
    for level in levels:
        dicts = [record_to_json(ctx.group, rec)
                 for rec in stratum_report(ctx.adm(), level)]
        for d in dicts:
            assert cli._record_text(d) == _indented_dump(d)
        basic = [d for d in dicts if d["basic"]]
        flags |= {d["basic"] for d in dicts}
        for command, want in ((cli._cmd_classify, dicts), (cli._cmd_dl_data, basic)):
            text = "".join(command(ctx, level, "json"))
            assert text == json.dumps(want, indent=2, sort_keys=True) + "\n"
    assert flags == {True, False}


def test_record_writer_rows_form_and_null_dl(ctx2):
    """A finite part that is no permutation is written as {"rows": ...}."""
    rec = stratum_report(ctx2.adm(), ctx2.iwahori)[0]
    d = record_to_json(ctx2.group, rec)
    d["w"] = {"t": [1, -2, 0, 3], "w": {"rows": [[0, 1, 0, 0], [-1, 0, 0, 0],
                                                 [0, 0, 1, 0], [0, 0, 0, 1]]}}
    d["dl"] = None
    d["newton"] = ["1/2", "-1", "0"]
    assert cli._record_text(d) == _indented_dump(d)


def test_record_writer_empty_report(capsys, monkeypatch):
    monkeypatch.setattr(cli, "stratum_report", lambda adm, level: ())
    for command in ("classify", "dl-data"):
        code, out, _ = run_cli(capsys, command, "--g", "2", "--format", "json")
        assert code == 0 and out == "[]\n" == json.dumps([], indent=2) + "\n"


def test_failure_leaves_stdout_empty(capsys, monkeypatch):
    def broken(adm, level):
        raise GroupError("broken report")
    monkeypatch.setattr(cli, "stratum_report", broken)
    code, out, err = run_cli(capsys, "classify", "--g", "2", "--format", "json")
    assert code == 1 and out == "" and "broken report" in err
