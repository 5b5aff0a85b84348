"""Every witness that a fixture report prints, re-checked from the bundle's
own tensors, and caught once one of its entries is bumped.

The maps are read from the JSON reports of cli.run and the structure from
the loaded bundle's tables through the dense oracles of conftest; every
identity is a dense matrix equation, and no check of the package is
imported.  An identity in A (x)_B A (or in M (x)_B A) is compared under
the functionals that vanish on the relations, found by kernel_of.
"""

import pathlib

from hopfgalois import cli, io_json
from hopfgalois.comodule import regular_bmodule, tensor_over_B
from hopfgalois.linalg import Matrix

from conftest import (dense_actions, dense_comul, dense_mul, dense_rho,
                      kernel_of, scatter_legs)

FIXTURES = pathlib.Path(io_json.__file__).parent / "fixtures"
GALOIS = ["cp2", "cp4", "cp_minus1", "dual_kc2", "h4", "h4_f5", "kc2", "kc4",
          "m2_graded", "m2_graded_f3"]


def _printed(form, key):
    """(fixture, comodule algebra, details of the JSON report of form) for
    each fixture whose report prints key."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")):
        report, code = cli.run([*form, str(path), "--output", "json"])
        if code != 2 and key in report.details:
            (ca,) = io_json.load_bundle(path).comodule_algebras.values()
            out.append((path.stem, ca, report.to_dict()["details"]))
    return out


def _matrix(field, printed):
    return io_json._matrix(field, printed["entries"], printed["rows"],
                           printed["cols"], "witness")


def _bumped(mat, nonzero=True):
    """mat with one more in its first nonzero entry, or in its first zero
    entry."""
    f = mat.field
    k = next(i for i, x in enumerate(mat.data) if (x != f.zero) == nonzero)
    data = list(mat.data)
    data[k] = f.add(data[k], f.one)
    return Matrix(f, mat.rows, mat.cols, data)


class Dense:
    """The dense maps of a comodule algebra A over H, from its tables."""

    def __init__(self, ca):
        f, alg, hopf = ca.field, ca.algebra, ca.hopf
        self.f, self.da, self.dh = f, alg.dim, hopf.dim
        self.mul, self.hmul = dense_mul(alg), dense_mul(hopf.algebra)
        self.comul = dense_comul(hopf.coalgebra)
        self.counit = hopf.coalgebra.counit
        self.rho = dense_rho(f, ca.coaction_table, hopf.dim)
        self.unit = Matrix(f, alg.dim, 1, list(alg.unit))
        self.hunit = Matrix(f, hopf.dim, 1, list(hopf.algebra.unit))
        self.antipode, self.sbar = hopf.antipode, hopf.antipode_inv

    def id(self, n):
        return Matrix.identity(self.f, n)

    def lmul(self, y):          # a -> y a, for y an A x 1 matrix
        return self.mul @ y.kron(self.id(self.da))

    def rmul(self, y):          # a -> a y
        return self.mul @ self.id(self.da).kron(y)

    def convolve(self, x, y):   # x * y for maps H -> A
        return self.mul @ x.kron(y) @ self.comul

    def coinvariant(self, x):   # rho x = x (x) 1
        return self.rho @ x == self.id(self.da).kron(self.hunit) @ x

    def annihilator(self, relations):
        """The functionals, as the rows of a matrix, that vanish on the
        columns of the relation maps."""
        n = relations[0].rows
        ker = kernel_of(Matrix.from_rows(self.f, [
            rel.col(c) for rel in relations for c in range(rel.cols)]))
        return Matrix(self.f, len(ker), n, [x for v in ker for x in v])


# -- the identities each witness must satisfy --------------------------------


def _failed(*checks):
    return [name for name, holds in checks if not holds]


def clefting_failures(d, t, u):
    """t colinear, t(1) = 1 and t * u = u * t = eta o eps."""
    unit_eps = d.unit @ d.counit
    return _failed(("colinear", d.rho @ t == t.kron(d.id(d.dh)) @ d.comul),
                   ("t(1)=1", t @ d.hunit == d.unit),
                   ("t*u", d.convolve(t, u) == unit_eps),
                   ("u*t", d.convolve(u, t) == unit_eps))


def algebra_map_failures(d, t):
    return _failed(("t(1)=1", t @ d.hunit == d.unit),
                   ("t(hk)=t(h)t(k)", t @ d.hmul == d.mul @ t.kron(t)))


def translation_failures(d, b, g):
    """(1.2.1)-(1.2.7) for the representative g: H -> A (x) A of gamma,
    with B spanned by the columns of b."""
    da, dh, ia, ih = d.da, d.dh, d.id(d.da), d.id(d.dh)
    bs = [Matrix(d.f, da, 1, b.col(k)) for k in range(b.cols)]
    # A (x)_B A: the relations a b (x) a' - a (x) b a'
    q = d.annihilator([d.rmul(y).kron(ia) - ia.kron(d.lmul(y)) for y in bs])
    qh = q.kron(ih)
    return _failed(
        ("B is coinvariant", d.coinvariant(b)),
        ("1.2.1", d.mul.kron(ih) @ ia.kron(d.rho) @ g == d.unit.kron(ih)),
        ("1.2.2", all(q @ d.lmul(y).kron(ia) @ g == q @ ia.kron(d.rmul(y)) @ g
                      for y in bs)),
        ("1.2.3", qh @ g.kron(ih) @ d.comul == qh @ ia.kron(d.rho) @ g),
        ("1.2.4", qh @ g.kron(d.antipode) @ scatter_legs(
            d.comul, (dh, dh), (1, 0)) == qh @ scatter_legs(
            d.rho.kron(ia) @ g, (da, dh, da), (0, 2, 1))),
        ("1.2.5", d.mul @ g == d.unit @ d.counit),
        ("1.2.6", q @ d.mul.kron(ia) @ ia.kron(g) @ d.rho
         == q @ d.unit.kron(ia)),
        ("1.2.6a", q @ ia.kron(d.mul) @ g.kron(ia) @ d.sbar.kron(ia)
         @ scatter_legs(d.rho, (da, dh), (1, 0)) == q @ ia.kron(d.unit)),
        ("1.2.7", q @ g @ d.hmul == q @ d.mul.kron(d.mul) @ scatter_legs(
            g.kron(g), (da, da, da, da), (2, 0, 1, 3))))


def cocycle_failures(d, b, v):
    """v: H -> B for the trivial action h.b = eps(h) b, with B spanned by
    the columns of b: v(1) = 1 and v(hk) = (h1.v(k)) v(h2) = v(k) v(h)."""
    w = b @ v
    return _failed(("B is coinvariant", d.coinvariant(b)),
                   ("v(1)=1", w @ d.hunit == d.unit),
                   ("cocycle law", w @ d.hmul == d.mul @ scatter_legs(
                       w.kron(w), (d.da, d.da), (1, 0))))


def intertwiner_failures(d, b, m, free, w):
    """w: M (x) H -> M (x)_B A, in the coordinates of the classes of the
    e_free[q], is invertible, B-linear and colinear; B is spanned by the
    columns of b and acts on M by m.action_table."""
    f, dm, ia, ih = d.f, m.dim, d.id(d.da), d.id(d.dh)
    im = d.id(dm)
    acts = dense_actions(f, m.action_table, b.cols)
    bs = [Matrix(f, d.da, 1, b.col(k)) for k in range(b.cols)]
    # M (x)_B A: the relations m.b (x) a - m (x) b a
    q = d.annihilator([act.kron(ia) - im.kron(d.lmul(y))
                       for act, y in zip(acts, bs)])
    section = Matrix.from_cols(f, [[f.one if i == j else f.zero
                                    for i in range(dm * d.da)]
                                   for j in free], nrows=dm * d.da)
    rep, qh = section @ w, q.kron(ih)
    return _failed(
        ("B is coinvariant", d.coinvariant(b)),
        ("the section is a basis", not kernel_of(q @ section)),
        ("invertible", w.rows == w.cols and not kernel_of(w)),
        ("B-linear", all(q @ im.kron(d.rmul(y)) @ rep
                         == q @ rep @ act.kron(ih)
                         for act, y in zip(acts, bs))),
        ("colinear", qh @ im.kron(d.rho) @ rep
         == qh @ rep.kron(ih) @ im.kron(d.comul)))


# -- the fixture reports ------------------------------------------------------


def test_cleft_prints_a_clefting_datum():
    cases = _printed(["cleft"], "t")
    assert [name for name, _, _ in cases] == GALOIS
    for name, ca, details in cases:
        d = Dense(ca)
        t, u = (_matrix(ca.field, details[k]) for k in ("t", "u"))
        assert clefting_failures(d, t, u) == [], name
        assert clefting_failures(d, _bumped(t), u), name
        assert clefting_failures(d, t, _bumped(u)), name


def test_smash_check_prints_an_algebra_map():
    cases = _printed(["smash-check"], "t")
    # no rational square root of 2 or of -1
    assert [name for name, _, _ in cases] == [
        n for n in GALOIS if n not in ("cp2", "cp_minus1")]
    for name, ca, details in cases:
        d, t = Dense(ca), _matrix(ca.field, details["t"])
        assert algebra_map_failures(d, t) == [], name
        assert algebra_map_failures(d, _bumped(t)), name


def test_translation_map_prints_gamma():
    cases = _printed(["translation-map"], "gamma")
    assert [name for name, _, _ in cases] == GALOIS
    for name, ca, details in cases:
        d, g = Dense(ca), _matrix(ca.field, details["gamma"])
        b = ca.coinvariants().inclusion
        assert translation_failures(d, b, g) == [], name
        assert translation_failures(d, b, _bumped(g)), name


def test_cohomology_prints_cocycles():
    cases = _printed(["cohomology", "h1"], "cocycles")
    # H_4 is not cocommutative
    assert [name for name, _, _ in cases] == sorted(
        [n for n in GALOIS if n not in ("h4", "h4_f5")]
        + ["trivial_kxk", "trivial_kxk_f3"])
    for name, ca, details in cases:
        d, b = Dense(ca), ca.coinvariants().inclusion
        for printed in details["cocycles"]:
            v = _matrix(ca.field, printed)
            assert cocycle_failures(d, b, v) == [], name
            assert cocycle_failures(d, b, _bumped(v)), name


def test_lift_prints_an_intertwiner():
    cases = _printed(["lift", "--module", "regular"], "witness")
    assert [name for name, _, _ in cases] == GALOIS
    for name, ca, details in cases:
        d, m = Dense(ca), regular_bmodule(ca)
        b, free = ca.coinvariants().inclusion, tensor_over_B(
            m, ca).quotient.free
        w = _matrix(ca.field, details["witness"])
        assert intertwiner_failures(d, b, m, free, w) == [], name
        # a bump inside the support can stay an intertwiner: scaling a
        # homogeneous block of w does
        assert intertwiner_failures(d, b, m, free, _bumped(w, False)), name
