import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from ekor_atlas.affine import ExtendedAffineWeylGroup
from ekor_atlas.coxeter import format_finite_type
from ekor_atlas.lattice import identity_matrix, solve_linear
from ekor_atlas.rootdata import RootDatum, RootDatumError
from ekor_atlas.siegel import siegel_datum
from helpers import build_g2, build_gl, build_gl2_gl3, build_gl3_twisted

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_siegel_cartan_g2():
    datum = siegel_datum(2)
    # long root in the last slot: entries <coroot_i, root_j>
    assert datum.cartan == ((2, -2), (-1, 2))
    assert format_finite_type(datum.finite_coxeter.finite_type(
        frozenset({0, 1}))) == "C2"


def test_siegel_positive_roots():
    for g in (1, 2, 3):
        datum = siegel_datum(g)
        assert len(datum.positive_roots) == g * g


def test_siegel_g2_root_values():
    datum = siegel_datum(2)
    # functionals on the basis (b1, b2, b3): x1-x2, x2-x3, x1-x3, x1-x4
    assert set(datum.positive_roots) == {
        (1, -1, 0), (0, 2, -1), (1, 1, -1), (2, 0, -1)}


def test_theta_is_highest():
    datum = siegel_datum(2)
    assert datum.theta == ((2, 0, -1),)
    # highest coroot is short: e_1 - e_2g
    coroot = datum.positive_coroots[datum.positive_roots.index(datum.theta[0])]
    assert coroot == (1, 0, 0)
    assert datum.from_lattice(coroot) == (1, 0, 0, -1)


def test_two_rho_pairs_to_length():
    datum = siegel_datum(1)
    # single positive root x1 - x2
    assert datum.two_rho == (2, -1)


def test_to_lattice_rejects_outside_span():
    datum = siegel_datum(2)
    with pytest.raises(RootDatumError):
        datum.to_lattice((1, 0, 0, 0))  # unequal pair sums
    with pytest.raises(RootDatumError):
        datum.to_lattice((1, 1, 1, 3))  # in span over Q only


def _coords_by_solving(datum, v):
    """Lattice coordinates of v by one Fraction solve, None off the span."""
    sol = solve_linear(datum.basis, v)
    if sol is None or datum.from_lattice(sol) != tuple(v):
        return None
    return tuple(sol)


@pytest.mark.parametrize("build", [
    lambda: siegel_datum(2), lambda: siegel_datum(3), lambda: siegel_datum(4),
    lambda: build_gl3_twisted().datum, lambda: build_gl2_gl3().datum,
    lambda: build_g2().datum,
], ids=["siegel2", "siegel3", "siegel4", "gl3_twisted", "gl2_gl3", "g2"])
def test_to_lattice_against_solving(build):
    """Integral, rational and out-of-span vectors: the coordinates, the
    span check and the integrality check of one Fraction solve each."""
    datum = build()
    rng = random.Random(17)
    for _ in range(150):
        coords = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
                       for _ in range(datum.rank))
        shift = tuple(rng.choice((0, 0, 0, 1, -1)) for _ in range(datum.dim))
        for v in (datum.from_lattice(tuple(map(int, coords))),
                  datum.from_lattice(coords),
                  tuple(a + b for a, b in zip(datum.from_lattice(coords), shift))):
            want = _coords_by_solving(datum, v)
            if want is None:
                with pytest.raises(RootDatumError):
                    datum.to_lattice(v)
                continue
            if all(c.denominator == 1 for c in want):
                got = datum.to_lattice(v)
                assert got == want and all(type(c) is int for c in got)
            else:
                with pytest.raises(RootDatumError):
                    datum.to_lattice(v)
    with pytest.raises(RootDatumError):
        datum.to_lattice((0,) * (datum.dim + 1))


def test_lattice_round_trip():
    datum = siegel_datum(3)
    for v in [(1, 1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 0), (2, 1, 0, 2, 1, 0)]:
        assert datum.from_lattice(datum.to_lattice(v)) == v


def test_cartan_diagonal_enforced():
    with pytest.raises(RootDatumError):
        RootDatum(dim=2, basis=((1, 0), (0, 1)),
                  simple_roots=((1, -1),), simple_coroots=((2, -2),))


@pytest.mark.parametrize("cartan", [
    ((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),  # affine A2: an infinite closure
    ((2, 0), (-1, 2)),  # zero against nonzero: s_0 s_1 has infinite order
    ((2, -1, 0), (-2, 2, -1), (0, -3, 2)),  # the path 4-6: hyperbolic
], ids=["affine_a2", "zero_against_nonzero", "path_4_6"])
def test_cartan_outside_finite_type_rejected(cartan):
    """The root closure is finite only for a Cartan matrix of finite type;
    anything else is refused when the datum is built.  The datum is built
    in a child process with a timeout, so a closure that never ends fails
    the test instead of stalling the suite."""
    code = ("from helpers import build_from_cartan\n"
            "from ekor_atlas.rootdata import RootDatumError\n"
            "try:\n"
            f"    build_from_cartan({cartan!r})\n"
            "except RootDatumError:\n"
            "    print('refused')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.stdout == "refused\n", done.stderr


I2 = ((1, 0), (0, 1))


@pytest.mark.parametrize("kwargs, message", [
    (dict(dim=2, basis=I2, simple_roots=((1, 0),), simple_coroots=()),
     "parallel lists"),
    (dict(dim=2, basis=((1, 0, 0), (0, 1)), simple_roots=(), simple_coroots=()),
     "ambient length"),
    (dict(dim=2, basis=(), simple_roots=(), simple_coroots=()),
     "empty basis"),
    (dict(dim=2, basis=I2, simple_roots=((2, -2), (-2, 2)), simple_coroots=I2),
     "pairing of simple roots 0, 1 is not of finite crystallographic type"),
    # <coroot 0, root 1> = -1 against <coroot 1, root 0> = 0: not a
    # generalized Cartan matrix, refused before any root is closed
    (dict(dim=2, basis=I2, simple_roots=((2, 0), (-1, 2)), simple_coroots=I2),
     "pairing of simple roots 0, 1 is not of finite crystallographic type"),
    (dict(dim=3, basis=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
          simple_roots=((2, -1, -1), (-1, 2, -1), (-1, -1, 2)),
          simple_coroots=((1, 0, 0), (0, 1, 0), (0, 0, 1))),
     "Cartan matrix is not of finite type"),
    (dict(dim=2, basis=I2, simple_roots=((1, -1),), simple_coroots=((1, -1),),
          ambient_weyl=[]),
     "one d x d matrix per simple reflection"),
    (dict(dim=2, basis=I2, simple_roots=(), simple_coroots=(),
          frobenius=((1, 0),)),
     "frobenius must be a d x d integer matrix"),
    (dict(dim=2, basis=I2, simple_roots=(), simple_coroots=(),
          frobenius=((2, 0), (0, 1))),
     "frobenius is not an automorphism of X"),
    (dict(dim=2, basis=I2, simple_roots=((2, 0),), simple_coroots=((1, 0),),
          frobenius=((1, 1), (0, 1))),
     "frobenius acts inconsistently on roots and coroots"),
    # a unipotent matrix: no power is the identity
    (dict(dim=2, basis=I2, simple_roots=(), simple_coroots=(),
          frobenius=((1, 1), (0, 1))),
     "frobenius has unreasonably large order on X"),
], ids=["parallel_lists", "ambient_length", "empty_basis", "crystallographic",
        "asymmetric_zero", "finite_type", "matrix_count", "frobenius_shape",
        "not_automorphism", "inconsistent", "order"])
def test_root_datum_refusals(kwargs, message):
    """Each refusal of the constructor, named by its message."""
    with pytest.raises(RootDatumError, match=message):
        RootDatum(**kwargs)


def test_dependent_basis_rejected():
    with pytest.raises(RootDatumError):
        RootDatum(dim=2, basis=((1, 0), (2, 0)),
                  simple_roots=((1, -1),), simple_coroots=((1, -1),))


def test_ambient_weyl_must_restrict():
    d = siegel_datum(1)
    bad = (((0, 1), (1, 0)),)  # swaps coordinates but datum has one reflection
    # swapping coordinates 0,1 does restrict to the reflection on X for g=1,
    # so craft an actually wrong matrix instead
    wrong = (((1, 0), (0, 1)),)
    with pytest.raises(RootDatumError):
        RootDatum(dim=2, basis=d.basis, simple_roots=d.simple_roots,
                  simple_coroots=d.simple_coroots, ambient_weyl=wrong)
    RootDatum(dim=2, basis=d.basis, simple_roots=d.simple_roots,
              simple_coroots=d.simple_coroots, ambient_weyl=bad)
    # genus 2: two reflections, and X of rank 3 below d = 4.  The short
    # reflection must swap coordinates 0, 1 together with the mirror pair
    # 2, 3; the swap of 0, 1 alone does not restrict to it on X.
    d = siegel_datum(2)
    swap01 = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    with pytest.raises(RootDatumError):
        RootDatum(dim=4, basis=d.basis, simple_roots=d.simple_roots,
                  simple_coroots=d.simple_coroots,
                  ambient_weyl=(swap01,) + d.reflections_ambient[1:])
    RootDatum(dim=4, basis=d.basis, simple_roots=d.simple_roots,
              simple_coroots=d.simple_coroots, ambient_weyl=d.reflections_ambient)


SINGLE_PATH_DATA = {
    **{f"siegel{g}": (lambda g=g: siegel_datum(g)) for g in (1, 2, 3)},
    "gl3": lambda: build_gl(3).datum,
}


def _rebuild(datum, **kwargs):
    """The same roots, coroots and lattice, with the given optional data."""
    return RootDatum(dim=datum.dim, basis=datum.basis,
                     simple_roots=datum.simple_roots,
                     simple_coroots=datum.simple_coroots, **kwargs)


@pytest.mark.parametrize("name", sorted(SINGLE_PATH_DATA))
def test_omitted_frobenius_is_the_identity(name):
    """An omitted Frobenius is the identity matrix on the one checked path:
    the same lattice matrix, order and diagram twist as the identity
    passed explicitly."""
    datum = SINGLE_PATH_DATA[name]()
    walls = datum.reflections_ambient
    omitted = _rebuild(datum, ambient_weyl=walls)
    passed = _rebuild(datum, ambient_weyl=walls,
                      frobenius=identity_matrix(datum.dim))
    assert omitted.frobenius_lattice == passed.frobenius_lattice \
        == identity_matrix(datum.rank)
    assert omitted.frobenius_order == passed.frobenius_order == 1
    assert ExtendedAffineWeylGroup(omitted).sigma_diagram \
        == ExtendedAffineWeylGroup(passed).sigma_diagram \
        == tuple(range(datum.nsimple + len(datum.components)))


@pytest.mark.parametrize("name", sorted(SINGLE_PATH_DATA))
def test_omitted_ambient_weyl_is_the_formula(name):
    """Omitted ambient reflections are the matrices of v - <v, a_i> a_i^vee
    on the one checked path: the same as those matrices passed."""
    datum = SINGLE_PATH_DATA[name]()
    d = datum.dim
    formula = tuple(
        tuple(tuple(int(r == c) - coroot[r] * root[c] for c in range(d))
              for r in range(d))
        for root, coroot in zip(datum.simple_roots, datum.simple_coroots))
    omitted = _rebuild(datum)
    assert omitted.reflections_ambient == formula
    assert _rebuild(datum, ambient_weyl=formula).reflections_ambient == formula


def test_frobenius_must_permute_coroots():
    with pytest.raises(RootDatumError):
        RootDatum(
            dim=3, basis=((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            simple_roots=((1, -1, 0), (0, 1, -1)),
            simple_coroots=((1, -1, 0), (0, 1, -1)),
            frobenius=((0, 0, 1), (0, 1, 0), (1, 0, 0)),  # reversal alone
        )


def test_frobenius_twist_accepted(gl3_twisted):
    datum = gl3_twisted.datum
    assert gl3_twisted.sigma_diagram == (0, 2, 1)
    assert datum.frobenius_order == 2
