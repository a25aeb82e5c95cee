import cmath
import hashlib
import json
from fractions import Fraction

import pytest

from mfal import checks, modforms, numeric, sl2, vvmf
from mfal.linalg import Matrix
from mfal.quasimodular import QuasiPoly

checks.load("all")  # the rows of every suite


def test_phi0_is_identity():
    op = vvmf.phi(0)
    assert op.matrix.size == 1
    assert op.matrix[0, 0] == QuasiPoly.const(1)


def test_phi1_entries():
    op = vvmf.phi(1)
    y = QuasiPoly.monomial((0, 1, 0, 0, -1), Fraction(1, 12))
    tau = QuasiPoly.var("tau")
    assert op.matrix[0, 0] == tau * y + 1
    assert op.matrix[0, 1] == tau
    assert op.matrix[1, 0] == y
    assert op.matrix[1, 1] == QuasiPoly.const(1)


def test_right_column_is_tau_powers():
    for n in (1, 2, 3):
        op = vvmf.phi(n)
        tau = QuasiPoly.var("tau")
        for i in range(n + 1):
            assert op.matrix[i, n] == tau ** (n - i)


def test_determinants():
    for n in range(7):
        assert vvmf.phi(n).determinant() == QuasiPoly.const(1)


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def _matrix_json(m):
    return [[e.to_json() for e in row] for row in m.rows]


def test_phi_outputs_byte_for_byte():
    # Phi_10, Phi_6^-1 and Phi_6's characteristic polynomial, pinned so that
    # a change to QuasiPoly's arithmetic shows as a byte change of its JSON
    assert _digest(_matrix_json(vvmf.phi(10).matrix)) == (
        "4ae4f79f1908c2ab6f6620a1d59543166ef8901be3a081a120bef4b5f64abf1a"
    )
    m = vvmf.phi(6).matrix
    assert _digest(_matrix_json(m.inverse())) == (
        "43920235918a79b326163f86e4c4136f9814000efde8946ade7b954fd597d455"
    )
    assert _digest([c.to_json() for c in m.charpoly()]) == (
        "09839df8ad643c077acd3ce436287c8cc44f8bcdb3514a57074ffa4aa905d9d1"
    )


def test_weights_vector():
    assert vvmf.phi(2).weights == [2, 0, -2]


def test_T_equivariance_exact():
    assert checks.check_identity("vvmf.phi_T_exact", 64)[0]


def phi_numeric(n, tau, order=64):
    """Phi_n(tau) over the complex numbers: the closed-form factors exp(tau E)
    and exp(y F) of ``sl2.unipotents`` at y = 2 pi i E2(tau) / 12, times each
    other.  A numeric oracle independent of the S substitution."""
    y = 2j * cmath.pi * numeric.eval_numeric(modforms.eisenstein(2, order).series, tau) / 12
    upper, lower = sl2.unipotents(n, tau, y)
    return Matrix(upper) * Matrix(lower)


def gamma_residual(n, gamma, tau, order=64):
    """Max entry residual of Phi_n(gamma tau) diag((c tau + d)^-k_j) -
    rho_n(gamma) Phi_n(tau), k_j the weight of column j."""
    (a, b), (c, d) = gamma
    image = phi_numeric(n, (a * tau + b) / (c * tau + d), order)
    target = Matrix(vvmf.rho_matrix(n, gamma)) * phi_numeric(n, tau, order)
    return max(abs(image[i, j] * (c * tau + d) ** -k - target[i, j])
               for i in range(n + 1) for j, k in enumerate(vvmf.phi(n).weights))


def test_S_equivariance_numeric():
    # the exact S law of the vvmf.phi_S_numeric row, seen by the oracle at
    # the two points the row evaluated when it was a float residual
    for n in (1, 2, 3):
        for tau in (1j, 0.3 + 1.1j):
            assert gamma_residual(n, vvmf.S_GAMMA, tau) < 1e-8


def test_general_gamma_equivariance_numeric():
    # words in S and T beyond the generators themselves
    gammas = [
        ((0, -1), (1, 1)),   # S T
        ((1, 0), (1, 1)),    # lower unitriangular
        ((2, 1), (1, 1)),
    ]
    for gamma in gammas:
        for n in (1, 2):
            assert gamma_residual(n, gamma, 0.2 + 1.3j) < 1e-8


def test_oracle_sees_rho_of_T_in_place_of_rho_of_S(monkeypatch):
    rho = vvmf.rho_matrix
    monkeypatch.setattr(vvmf, "rho_matrix", lambda n, gamma: rho(n, vvmf.T_GAMMA))
    for n in (1, 2, 3):
        assert gamma_residual(n, vvmf.S_GAMMA, 1j) > 1e-2


def test_functoriality():
    assert checks.check_identity("vvmf.phi_functoriality", 64)[0]


def test_hilbert_scalar_gamma1():
    h = vvmf.hilbert_scalar("Gamma(1)")
    dims = [h.coefficient(k) for k in range(0, 13, 2)]
    assert dims == [1, 0, 1, 1, 1, 1, 2]


def test_hilbert_gamma2():
    h = vvmf.hilbert_scalar("Gamma(2)")
    # free on two weight-2 generators: dim M_2k = k + 1
    assert [h.coefficient(k) for k in (0, 2, 4, 6)] == [1, 2, 3, 4]


def test_hilbert_vvmf_n2():
    h = vvmf.hilbert_vvmf(2, "Gamma(1)")
    # the (t^-2 + 1 + t^2) / ((1-t^4)(1-t^6)) series from scalar weight counts
    expected = {
        -2: 1, 0: 1, 2: 2, 4: 2, 6: 3, 8: 3, 10: 4, 12: 4,
    }
    for k, d in expected.items():
        assert h.coefficient(k) == d
    assert h.coefficient(-1) == 0


def test_hilbert_vvmf_n1_odd_weights():
    h = vvmf.hilbert_vvmf(1, "Gamma(1)")
    assert h.coefficient(-1) == 1
    assert h.coefficient(0) == 0


def test_hilbert_vvmf_gamma2():
    h = vvmf.hilbert_vvmf(2, "Gamma(2)")
    # (t^-2 + 1 + t^2) / (1-t^2)^2
    assert h.coefficient(-2) == 1
    assert h.coefficient(0) == 3
    assert h.coefficient(2) == 6


def test_hilbert_brute_force_agreement():
    for n in range(5):
        h = vvmf.hilbert_vvmf(n, "Gamma(1)")
        coeffs = h.coefficients(40)
        for k in range(-n, 41):
            assert coeffs.get(k, 0) == vvmf.brute_force_vvmf_dim(n, k)


def test_hilbert_unknown_group():
    with pytest.raises(ValueError):
        vvmf.hilbert_scalar("Gamma(3)")


def test_rho_matrix_s_squared_is_minus_one_power():
    # S^2 = -Id, so Sym^n(S)^2 = (-1)^n Id
    for n in (1, 2, 3):
        s = vvmf.rho_matrix(n, vvmf.S_GAMMA)
        dim = n + 1
        sq = [
            [sum(s[i][k] * s[k][j] for k in range(dim)) for j in range(dim)]
            for i in range(dim)
        ]
        for i in range(dim):
            for j in range(dim):
                assert sq[i][j] == ((-1) ** n if i == j else 0)
