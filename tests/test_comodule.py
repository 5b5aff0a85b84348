from hopfgalois.comodule import (adjunction_unit, algebra_as_bmodule,
                                 tensor_over_B)
from hopfgalois.fields import QQ
from hopfgalois.linalg import NoSolution, _nonzero, basis_vec

from conftest import module_b, module_k
from test_linalg import dense_col, rref_solve
from test_quotient import dense_projection, dense_section


def test_graded_m2_coinvariants_are_diagonal(m2_q):
    # frozen oracle: B = diagonal k x k, dimension 2
    b = m2_q.coinvariants()
    assert b.dim == 2
    # inclusion lands in span(e11, e22) (ambient indices 0 and 3)
    for j in range(2):
        col = b.inclusion.col(j)
        assert col[1] == QQ.zero and col[2] == QQ.zero


def test_regular_h4_coinvariants_are_scalars(h4_q):
    # A = H4 with rho = Delta: B = k.1
    b = h4_q.coinvariants()
    assert b.dim == 1
    assert b.inclusion.col(0) == h4_q.algebra.unit


def test_trivial_coaction_coinvariants_everything(kxk_q):
    assert kxk_q.coinvariants().dim == kxk_q.algebra.dim


def test_comodule_validators(m2_q, h4_q, cp_minus1, kxk_q):
    for ca in (m2_q, h4_q, cp_minus1, kxk_q):
        assert ca.validate().passed


def test_quotient_projection_section(m2_q):
    ind = tensor_over_B(algebra_as_bmodule(m2_q), m2_q)
    q = ind.quotient
    from hopfgalois.linalg import Matrix
    assert dense_projection(q) @ dense_section(q) == Matrix.identity(QQ, q.dim)
    # A (x)_B A for graded M2: 4*4 ambient, dim 8 quotient
    assert q.dim == 8


def test_bmodule_validate(m2_f3):
    assert module_b(m2_f3).validate().passed
    assert module_k(m2_f3).validate().passed


def test_relative_hopf_module_structure(m2_q):
    m = module_b(m2_q)
    ind = tensor_over_B(m, m2_q)
    assert ind.module.validate(m2_q).passed


def test_adjunction_unit_bijective_on_galois(m2_q):
    m = module_b(m2_q)
    eta, _, bij = adjunction_unit(m, m2_q, tensor_over_B(m, m2_q))
    assert bij
    # M (x)_B A has dim 4 for M = B over graded M2
    assert eta.rows == 4 and eta.cols == 2


def test_from_ambient_uses_one_factorization(m2_q, h4_q, kxk_q, m2_f3):
    """coords, the one solve against B's factorization, on vectors of B
    and on every basis vector of A, one column each; a vector outside B
    is flagged as bad."""
    outside = 0
    for ca in (m2_q, h4_q, kxk_q, m2_f3):
        b, f = ca.coinvariants(), ca.field
        da = ca.algebra.dim
        for coords in ([f.from_int(i - 1) for i in range(b.dim)],
                       [f.from_int(3)] + [f.zero] * (b.dim - 1)):
            v = b.to_ambient(coords)
            (x,), bad = b.coords([_nonzero(v)])
            assert bad is None
            assert dense_col(f, b.dim, x) == rref_solve(b.inclusion, v) \
                == coords
        x, bad = b.coords([[(i, f.one)] for i in range(da)])
        first_bad = None
        for i in range(da):
            e = basis_vec(f, da, i)
            try:
                want = rref_solve(b.inclusion, e)
            except NoSolution:
                outside += 1
                first_bad = i if first_bad is None else first_bad
            else:
                assert dense_col(f, b.dim, x[i]) == want
        assert bad == first_bad
    assert outside > 0
