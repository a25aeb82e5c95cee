"""The symmetric powers Sym^n C^2 of the defining sl2 representation.

``SymRep`` holds the standard triple (h, e, f) on Sym^n as int matrices,
``sym_power_matrix`` is Sym^n of a 2x2 matrix over any ring and
``unipotents`` the exponentials exp(s E) and exp(t F) in closed form: the
pieces of Phi_n (``mfal.vvmf``) and of the evaluation representations
(``mfal.loopext``).  The module imports no other mfal module; the root
systems and Chevalley tables are ``mfal.liealg``.
"""

from math import comb


class SymRep:
    """Sym^n C^2 in the basis binom(n,i) x^(n-i) y^i, i = 0..n.

    H = diag(n, n-2, ..., -n); E and F raise and lower with the integer
    entries that make exp(tau*E) carry right column (tau^n, ..., tau, 1).
    The three matrices are lists of int rows.
    """

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("n must be nonnegative")
        self.n = n
        dim = n + 1
        self.h = [[n - 2 * i if i == j else 0 for j in range(dim)] for i in range(dim)]
        self.e = [[0] * dim for _ in range(dim)]
        self.f = [[0] * dim for _ in range(dim)]
        for i in range(1, dim):
            self.e[i - 1][i] = n - i + 1
        for i in range(dim - 1):
            self.f[i + 1][i] = i + 1

    @property
    def dim(self) -> int:
        return self.n + 1

    def weights(self):
        """H-eigenvalue of each basis vector, top to bottom."""
        return [self.n - 2 * i for i in range(self.n + 1)]


def sym_power_matrix(n: int, entries):
    """Functorial Sym^n of a 2x2 matrix over any commutative ring.

    ``entries`` is ((a, b), (c, d)); returns the (n+1)x(n+1) matrix in the
    scaled monomial basis.  Works for any ring of the ``mfal.linalg`` protocol;
    each term's coefficient C(n,j) C(n-j,u) C(j,v) / C(n,i) is the int
    C(i,u) C(n-i,j-v), so an int matrix has an int Sym^n.
    """
    (a, b), (c, d) = entries
    rows = [[None] * (n + 1) for _ in range(n + 1)]
    for j in range(n + 1):
        # image of basis vector j: binom(n,j) (a x + c y)^(n-j) (b x + d y)^j
        contributions = {}
        for u in range(n - j + 1):
            for v in range(j + 1):
                i = u + v
                coeff = comb(i, u) * comb(n - i, j - v)
                term = a ** (n - j - u) * c ** u * b ** (j - v) * d ** v * coeff
                if i in contributions:
                    contributions[i] = contributions[i] + term
                else:
                    contributions[i] = term
        for i in range(n + 1):
            rows[i][j] = contributions.get(i)
    zero = a * 0
    return [[zero if x is None else x for x in row] for row in rows]


def unipotents(n: int, s, t):
    """(exp(s E), exp(t F)) on Sym^n, as lists of rows over the ring of s and t.

    They are Sym^n of [[1, s], [0, 1]] and [[1, 0], [t, 1]], in closed form:
    exp(s E) has C(n-i, k) s^k at (i, i+k) and exp(t F) has C(i+k, k) t^k at
    (i+k, i), so each costs n - 1 products for the powers and one scaling by
    an int per entry on or above the diagonal, with no matrix power.  exp(t F)
    is exp(t E) with the basis reversed, i -> n - i.
    """

    def upper(x):
        zero = x * 0
        powers = [zero + 1, x]
        for _ in range(n - 1):
            powers.append(powers[-1] * x)
        return [[powers[j - i] * comb(n - i, j - i) if j >= i else zero for j in range(n + 1)]
                for i in range(n + 1)]

    return upper(s), [row[::-1] for row in reversed(upper(t))]
