"""Exact linear algebra over the package's coefficient rings.

Entries may be ``Fraction`` or any ``mfal.poly.Ring`` (the ``sparse.Sparse``
rings ``QuasiPoly``, ``loopext.Laurent``, ``jpoly.JPoly`` and
``cyclotomic.CycloNumber``, and ``RatFunc``), or any other type with the
same minimal protocol:

* ``+``, ``-`` and ``*`` between entries, and with the integers 0 and 1
  (``x * 0`` is the zero of x's ring, ``x * 0 + 1`` its one);
* a truth value that is false exactly for zero, and one zero per type (a
  ``QSeries`` zero carries its truncation, so series are not entries);
* ``1 / x`` for nonzero x, needed only by the field routines ``rref``,
  ``rank`` and ``solve``.  Int entries are exact there too: an int pivot p
  divides as ``Fraction(1, p)``, never as the float ``1 / p``.

Matrices are stored densely, but zeros are never multiplied: a product
reads each row of its right factor once as its nonzero (column, entry)
pairs, so it costs one ring multiplication per pair of nonzero entries
that meet, and ``scale``, ``+`` and ``-`` do no ring operation on a zero
entry.  Every entry still holds what the dense formula gives, of the same
type: a skipped zero is the zero of the ring the dense sum or product lands
in.  ``+``, ``-`` and ``*`` raise ``ValueError`` on operands whose shapes
do not fit.

A ring with a fused ``dot`` (``sparse.Sparse.dot``) sums the products of
each dot product in one call that makes one canonical element, and skips
the pairs with a zero factor itself: each entry of a matrix product is one
such dot of a row and a column, and so is each dot product of Berkowitz's
algorithm.  Any other ring (int, Fraction and complex entries, RatFunc)
adds its products one by one.

Determinants and adjugates use Berkowitz's algorithm (S. J. Berkowitz,
Inf. Process. Lett. 18, 1984): O(n^4) ring operations and no division,
which matters because Q[tau, P, Q, R, s, 1/s] has no exact division.
``det`` pays that per diagonal block of the matrix's support graph: a
Killing matrix, say, is the Cartan block and one 2x2 block per pair of roots
+-a, up to a simultaneous permutation of rows and columns.
Polynomials over the same rings use the one kernel ``mfal.poly``.
"""

from fractions import Fraction


def dot(xs, ys, zero):
    """sum x*y over the pairs where both factors are nonzero.

    A ring with a fused ``dot`` (``sparse.Sparse``) sums the products
    itself, with one canonical step; any other ring adds them one by one.
    """
    fused = getattr(type(zero), "dot", None)
    if fused:
        return fused(zip(xs, ys))
    acc = None
    for x, y in zip(xs, ys):
        if x and y:
            acc = x * y if acc is None else acc + x * y
    return zero if acc is None else acc


def _plus(a, b):
    """a + b; no ring operation when one side is a zero of the other's type."""
    if type(a) is type(b):
        if not b:
            return a
        if not a:
            return b
    return a + b


def _minus(a, b):
    """a - b, skipping zeros as ``_plus`` does."""
    if type(a) is type(b):
        if not b:
            return a
        if not a:
            return -b
    return a - b


def _det(c):
    """det A = (-1)^n cn from the characteristic coefficients of A."""
    return c[-1] if len(c) % 2 == 0 else -c[-1]


class Matrix:
    """Matrix over a commutative ring, kept as dense rows; operations return
    the same class."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [list(row) for row in rows]

    @classmethod
    def identity(cls, n: int, one=1) -> "Matrix":
        zero = one * 0
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @property
    def size(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple:
        return len(self.rows), len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    __hash__ = None

    def _fits(self, other, op, ok):
        if not ok:
            raise ValueError(f"cannot {op} matrices of shapes {self.shape} and {other.shape}")

    def __add__(self, other):
        self._fits(other, "add", self.shape == other.shape)
        return type(self)([[_plus(a, b) for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        self._fits(other, "subtract", self.shape == other.shape)
        return type(self)([[_minus(a, b) for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self):
        return type(self)([[-a for a in row] for row in self.rows])

    def scale(self, c) -> "Matrix":
        zeros = {}  # type of a zero entry -> c times it

        def times(a):
            if a:
                return c * a
            kind = type(a)
            if kind not in zeros:
                zeros[kind] = c * a
            return zeros[kind]

        return type(self)([[times(a) for a in row] for row in self.rows])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return self.scale(other)
        self._fits(other, "multiply", self.shape[1] == other.size)
        zero = self.rows[0][0] * 0
        fused = getattr(type(zero), "dot", None)
        if fused:
            # one fused dot per entry; it skips the pairs with a zero factor
            cols = list(zip(*other.rows))
            return type(self)([[fused(zip(row, col)) for col in cols] for row in self.rows])
        width = other.shape[1]
        sparse = [[(j, y) for j, y in enumerate(row) if y] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [None] * width
            for x, pairs in zip(row, sparse):
                if x:
                    for j, y in pairs:
                        acc[j] = x * y if acc[j] is None else acc[j] + x * y
            out.append([zero if a is None else a for a in acc])
        return type(self)(out)

    def __rmul__(self, other):
        return self.scale(other)

    def commutator(self, other) -> "Matrix":
        return self * other - other * self

    def kron(self, other) -> "Matrix":
        """Kronecker product; every product of entries is formed, so a zero
        factor costs what the ring's ``*`` makes it cost (a ``sparse.Sparse``
        ring, ``CycloNumber`` say, returns its zero factor at once, cheaper
        than a zero test per pair here)."""
        return type(self)(
            [[a * b for a in ra for b in rb] for ra in self.rows for rb in other.rows]
        )

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.rows)

    def map(self, fn) -> "Matrix":
        return type(self)([[fn(e) for e in row] for row in self.rows])

    def charpoly(self) -> list:
        """[c1, ..., cn] with det(x I - A) = x^n + c1 x^(n-1) + ... + cn.

        Berkowitz: if A_k is the leading k x k block of A, with column C and
        row R beside it and corner a, the coefficient vector of A_(k+1) is
        the lower-triangular Toeplitz matrix with first column
        (1, -a, -R C, -R A_k C, ..., -R A_k^(k-1) C) applied to that of A_k.
        The leading coefficient 1 is kept implicit.
        """
        a = self.rows
        zero = a[0][0] * 0
        coeffs = []
        for k in range(len(a)):
            block = [row[:k] for row in a[:k]]
            row = a[k][:k]
            v = [a[i][k] for i in range(k)]
            t = [-a[k][k]]  # t[m] is the Toeplitz entry t_(m+1)
            for m in range(k):
                if m:
                    v = [dot(b, v, zero) for b in block]
                t.append(-dot(row, v, zero))
            new = []
            for j in range(1, k + 2):
                # c'_j = t_j + c_j + sum_(1 <= i < j) t_(j-i) c_i
                acc = t[j - 1] + dot(coeffs[: j - 1], reversed(t[: j - 1]), zero)
                new.append(acc + coeffs[j - 1] if j <= k else acc)
            coeffs = new
        return coeffs

    def det(self):
        """The product of the Berkowitz determinants of the diagonal blocks.

        The blocks are the connected components of the graph with an edge
        i ~ j when a_ij or a_ji is nonzero: permuting rows and columns alike
        keeps the determinant and takes A to the direct sum of its blocks.
        The search makes at most n^2 zero tests, and n - 1 on a dense matrix,
        which is one block and takes Berkowitz's algorithm whole.
        """
        a, d = self.rows, None
        left = set(range(len(a)))
        while left:
            block = [left.pop()]
            for i in block:  # a breadth-first search: block grows as it is read
                near = [j for j in left if a[i][j] or a[j][i]]
                left.difference_update(near)
                block += near
            if len(block) == len(a):
                break
            # the block in the order found: a simultaneous permutation of it
            b = _det(type(self)([[a[i][j] for j in block] for i in block]).charpoly())
            d = b if d is None else d * b
        return _det(self.charpoly()) if d is None else d

    def det_adjugate(self):
        """(det A, adj A) from one characteristic polynomial.

        Cayley-Hamilton gives A B = -cn I for
        B = A^(n-1) + c1 A^(n-2) + ... + c(n-1) I, so adj A = (-1)^(n+1) B.
        """
        c = self.charpoly()
        n = len(c)
        b = type(self).identity(n, self.rows[0][0] * 0 + 1)
        for m in range(n - 1):
            b = self * b if m else type(self)(self.rows)
            for i in range(n):
                b.rows[i][i] = b.rows[i][i] + c[m]
        return _det(c), (-b if n % 2 == 0 else b)


# ----------------------------------------------------------------------
# Gauss-Jordan elimination over a field
# ----------------------------------------------------------------------

def rref(rows):
    """Reduced row echelon form: (nonzero reduced rows, pivot columns).

    Each column's pivot is the first row at or below the current one with a
    nonzero entry.  The reduced form is unique, so it does not depend on
    that choice.
    """
    a = [list(row) for row in rows]
    pivots = []
    ncols = len(a[0]) if a else 0
    r = 0
    for c in range(ncols):
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pivot = a[r][c]
        inv = Fraction(1, pivot) if isinstance(pivot, int) else 1 / pivot
        pivot_row = a[r] = [x * inv for x in a[r]]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and f:
                a[i] = [x - f * y if y else x for x, y in zip(row, pivot_row)]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def solve(mat, rhs):
    """One solution x of mat x = rhs over a field, free variables 0; None if
    the system is inconsistent."""
    ncols = len(mat[0]) if mat else 0
    reduced, pivots = rref([row + [b] for row, b in zip(mat, rhs)])
    if pivots and pivots[-1] == ncols:
        return None
    zero = rhs[0] * 0 if rhs else 0
    sol = [zero] * ncols
    for row, c in zip(reduced, pivots):
        sol[c] = row[-1]
    return sol
