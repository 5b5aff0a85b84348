import pytest

from hopfgalois.comodule import (InternalInvariant, adjunction_unit,
                                 algebra_as_bmodule, tensor_over_B)
from hopfgalois.fields import QQ
from hopfgalois.linalg import NoSolution, basis_vec

from conftest import module_b, module_k
from test_linalg import rref_solve
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
    eta, _, bij = adjunction_unit(m, m2_q)
    assert bij
    # M (x)_B A has dim 4 for M = B over graded M2
    assert eta.rows == 4 and eta.cols == 2


def test_from_ambient_uses_one_factorization(m2_q, h4_q, kxk_q, m2_f3):
    outside = 0
    for ca in (m2_q, h4_q, kxk_q, m2_f3):
        b, f = ca.coinvariants(), ca.field
        da = ca.algebra.dim
        for coords in ([f.from_int(i - 1) for i in range(b.dim)],
                       [f.from_int(3)] + [f.zero] * (b.dim - 1)):
            v = b.to_ambient(coords)
            assert b.from_ambient(v) == rref_solve(b.inclusion, v) == coords
        # an ambient vector outside B still raises
        for i in range(da):
            e = basis_vec(f, da, i)
            try:
                want = rref_solve(b.inclusion, e)
            except NoSolution:
                outside += 1
                with pytest.raises(InternalInvariant):
                    b.from_ambient(e)
            else:
                assert b.from_ambient(e) == want
    assert outside > 0
