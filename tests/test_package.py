import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import types
from collections import Counter

import pytest

import ekor_atlas

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_package_root_defines_no_engine_name():
    """Callers import each name from its submodule, so the package root
    holds its docstring and nothing else; pyproject.toml has the version."""
    stray = [name for name, value in vars(ekor_atlas).items()
             if not name.startswith("__") and not isinstance(value, types.ModuleType)]
    assert not stray
    assert not hasattr(ekor_atlas, "__all__")
    assert not hasattr(ekor_atlas, "__version__")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def test_no_unused_imports():
    """In src/, tests/ and scripts/."""
    unused = []
    paths = [*(ROOT / "src" / "ekor_atlas").glob("*.py"),
             *(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    for path in sorted(paths):
        tree = ast.parse(path.read_text())
        spare = set(_imported_names(tree)) - _used_names(tree)
        unused += [f"{path.relative_to(ROOT)}: {name}" for name in sorted(spare)]
    assert not unused


def _name_refs(tree) -> Counter:
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """Top-level functions and classes, and the methods of those classes
    other than dunders, with their qualified names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


def test_no_dead_definitions():
    """Every top-level function and class in src/, and every method of such
    a class other than dunders, is referenced outside its own body,
    somewhere in src/, tests/, scripts/ or perfbench/."""
    refs: Counter = Counter()
    for folder in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            refs.update(_name_refs(ast.parse(path.read_text())))
    dead = []
    for path in sorted((ROOT / "src" / "ekor_atlas").glob("*.py")):
        for qualname, node in _definitions(ast.parse(path.read_text())):
            if refs[node.name] <= _name_refs(node)[node.name]:
                dead.append(f"{path.name}: {qualname}")
    assert not dead


def run_script(*args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_survey_basic_runs():
    done = run_script("scripts/survey_basic.py", "--max-g", "2")
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 4


def test_bench_runs(tmp_path):
    out = tmp_path / "bench.json"
    done = run_script("scripts/bench.py", "--max-g", "2", "--out", str(out),
                      "--label", "probe")
    assert done.returncode == 0, done.stderr
    run = json.loads(out.read_text())["runs"]["probe"]
    assert [row["adm"] for row in run["genera"]] == [3, 13]
    assert set(run["genera"][0]["stages_s"]) == {
        "import", "context", "adm", "kw", "words", "newton", "iwahori_report",
        "hyperspecial_report", "serialization", "classify_json", "bruhat"}
    assert run["genera"][1]["peak_rss_mb"] > 0


def test_bench_needs_out(tmp_path):
    """With no --out, a copy of the script in an empty tree exits 2 and
    writes no stage file there."""
    script = tmp_path / "scripts" / "bench.py"
    script.parent.mkdir()
    script.write_bytes((ROOT / "scripts" / "bench.py").read_bytes())
    done = run_script(str(script), "--max-g", "1")
    assert done.returncode == 2
    assert "--out" in done.stderr
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bench.py", "scripts"]


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_bench_words_stage_refuses_a_wrong_word(monkeypatch):
    """The words stage stops the worker when a reduced word evaluates to
    another element."""
    from ekor_atlas.affine import ExtendedAffineWeylGroup
    bench = load_bench()
    monkeypatch.setattr(ExtendedAffineWeylGroup, "evaluate_word",
                        lambda self, word, omega=None: self.identity)
    with pytest.raises(SystemExit, match="genus 2 evaluates to another element"):
        bench.measure(2)


def test_bench_bruhat_stage_empties_the_memo():
    """The bruhat stage empties the Bruhat memo after each element, so it
    holds at most one pair per maximum and ends empty."""
    from ekor_atlas.siegel import siegel_context
    load_bench().measure(2)
    assert not siegel_context(2).group._bruhat


def test_cli_import_loads_no_dataclasses():
    """Importing the engine stays cheap: no module imports ``dataclasses``
    (with ``inspect``, ``ast`` and ``dis`` behind it)."""
    done = run_script("-c", "import sys, ekor_atlas.cli; "
                            "print('dataclasses' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_element_repr():
    from ekor_atlas.siegel import siegel_context
    group = siegel_context(2).group
    assert repr(group.simple_reflections[0]) == "ExtAffineElement(trans=(-1, 0, 0), w=5)"
    assert repr(group.identity) == "ExtAffineElement(trans=(0, 0, 0), w=0)"


def test_elements_of_two_groups_on_one_datum():
    """An element equals, and hashes as, its (translation, finite index)
    pair, so elements of two groups built from one datum are
    interchangeable, as keys and as arguments."""
    from ekor_atlas.affine import ExtendedAffineWeylGroup
    from ekor_atlas.siegel import siegel_context
    group = siegel_context(2).group
    other = ExtendedAffineWeylGroup(group.datum)
    for x, y in zip(group.simple_reflections, other.simple_reflections):
        assert x == y == (x.trans, x.w) and hash(x) == hash(y) == hash((x.trans, x.w))
        assert {x: 1}[y] == {(x.trans, x.w): 1}[y] == 1
        assert group.length(y) == 1
    assert group.simple_reflections[0] != group.simple_reflections[1]
    assert group.length(other.identity) == 0


def test_test_only_code_is_out_of_src():
    """The saturation, double coset minima and the ambient dominantize are
    test helpers now (tests/helpers.py).  The Kottwitz map and the Smith
    form are gone: kappa is constant on Adm(mu), which lies in one W_a
    coset, and the Newton frame reads the coroot kernel by row reduction.
    The finite table keeps one permutation per element: no sparse lattice
    or ambient rows, and no helpers to build or apply them.  Lookups that
    only tests and oracles called are gone: the index of a lattice matrix,
    the node of a reflection, the lattice dominantize, the root sign, the
    translation by an ambient weight, the list of descents, the one-node
    descent test (the verdicts are read by ``first_descent``,
    ``left_minimal`` and the Bruhat walk), the basic test of an element,
    the Frobenius image of an element (``oracles.sigma``) and the
    per-element left-minimality test (``oracles.is_left_minimal``, twin
    of ``group.left_minimal``).  The descent rule is derived once, on the
    group's one row memo keyed by translation: no pairing, length-row,
    radical or per-element length memo beside it, and no second
    derivation in ``admissible``.  The admissible set keeps no per-level
    memo: ``kw_elements`` words and sorts on every call."""
    from ekor_atlas import admissible, affine, ekor, lattice
    from ekor_atlas.rootdata import RootDatum
    from ekor_atlas.siegel import siegel_context
    for name in ("saturated_set", "double_coset_minima", "is_right_minimal",
                 "is_left_minimal", "left_minimal", "_level_tests"):
        assert not hasattr(admissible, name)
    assert not hasattr(affine, "_descends")
    assert not hasattr(affine.ExtendedAffineWeylGroup, "dominantize")
    group = siegel_context(1).group
    for name in ("kottwitz", "pi1_gamma"):
        assert not hasattr(affine.ExtendedAffineWeylGroup, name)
        assert not hasattr(group, name)
    for name in ("smith_normal_form", "AbelianQuotient", "Pi1Class"):
        assert not hasattr(lattice, name)
    for name in ("_RowProducts", "_sparse", "_dense", "_apply", "_is_permutation"):
        assert not hasattr(affine, name)
    for name in ("weyl_index", "reflection_node", "dominantize_lattice",
                 "translation", "descents", "sigma", "is_descent"):
        assert not hasattr(affine.ExtendedAffineWeylGroup, name)
    assert not hasattr(ekor, "is_basic_element")
    fresh = affine.ExtendedAffineWeylGroup(group.datum)
    for name in ("_wrows", "_wambient", "_node_of_reflection", "_frob_inv",
                 "_pairs", "_length_rows", "_radical", "_length"):
        assert not hasattr(fresh, name)
    for name in ("root_sign", "_positive_index"):
        assert not hasattr(RootDatum, name)
        assert not hasattr(group.datum, name)
    assert not hasattr(siegel_context(1).adm(), "_levels")
