"""Structure-constant tables, and root systems, Chevalley bases and graded
triples for types A1, A2, B2, G2.

Roots are integer coordinate tuples in the simple-root basis; the bilinear
form is the Gram matrix of the simple roots.  Structure constants come from
Carter's recursion: +(p + 1) on extraspecial pairs, and every other
constant follows from those in closed form.

A Chevalley table holds its constants as ints, so its brackets of int
vectors and its Killing matrix are ints too.  ``Fraction`` appears only
where a division does: inside Carter's recursion and in
``GradedTriple.standard_triple``.  The symmetric powers of sl2 are
``mfal.sl2``.

``linalg`` is imported only by the code that eliminates or forms matrices:
``GradedTriple.standard_triple``, ``BracketTable.killing`` and
``killing_lemmas``.  A table over Q[j] reads only a triple's grading, so
``import mfal.liealg`` and ``mfal alia`` compile no elimination.
"""

import itertools
from fractions import Fraction

from .poly import add_term


class NoRationalTriple(ValueError):
    """No rational nilpotent triple found for the requested grading."""


class OddLabel(ValueError):
    """Even grading demanded but an odd Dynkin label was supplied."""


_GRAM = {
    # alpha1 short, alpha2 long for B2; alpha1 long, alpha2 short for G2,
    # matching the label tables this package certifies against
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "B2": ((2, -2), (-2, 4)),
    "G2": ((6, -3), (-3, 2)),
}

ORBIT_LABELS = {
    ("A1", "principal"): (2,),
    ("A2", "principal"): (2, 2),
    ("B2", "subregular"): (0, 2),
    ("B2", "principal"): (2, 2),
    ("G2", "subregular"): (2, 0),
    ("G2", "principal"): (2, 2),
}


class RootSystem:
    """Roots, Cartan data and string lengths for one simple type."""

    def __init__(self, type_label: str):
        if type_label not in _GRAM:
            raise ValueError(f"unsupported type {type_label!r}")
        self.type_label = type_label
        self.gram = _GRAM[type_label]
        self.rank = len(self.gram)
        self.simple = [
            tuple(1 if j == i else 0 for j in range(self.rank))
            for i in range(self.rank)
        ]
        self.roots = self._generate_roots()
        self.root_set = set(self.roots)
        self.positive = sorted(
            (r for r in self.roots if self._is_positive(r)), key=self._order_key
        )

    def _generate_roots(self):
        roots = set(self.simple) | {tuple(-x for x in a) for a in self.simple}
        changed = True
        while changed:
            changed = False
            for beta in list(roots):
                for i, alpha in enumerate(self.simple):
                    c = self.pairing(beta, alpha)
                    refl = tuple(b - c * a for b, a in zip(beta, alpha))
                    if refl not in roots:
                        roots.add(refl)
                        changed = True
        return sorted(roots, key=self._order_key)

    @staticmethod
    def _is_positive(root) -> bool:
        for x in root:
            if x > 0:
                return True
            if x < 0:
                return False
        return False

    @staticmethod
    def _order_key(root):
        return (sum(root), root)

    def inner(self, a, b):
        return sum(
            a[i] * b[j] * self.gram[i][j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    def pairing(self, beta, alpha) -> int:
        """Cartan integer <beta, alpha^vee> = 2 (beta, alpha) / (alpha, alpha)."""
        val = Fraction(2 * self.inner(beta, alpha), self.inner(alpha, alpha))
        if val.denominator != 1:
            raise ValueError("non-integral Cartan pairing")
        return int(val)

    def string_down(self, alpha, beta) -> int:
        """Largest p with beta - p*alpha a root."""
        p = 0
        current = tuple(b - a for b, a in zip(beta, alpha))
        while current in self.root_set:
            p += 1
            current = tuple(c - a for c, a in zip(current, alpha))
        return p

    def coroot_coefficients(self, alpha):
        """Integers c_i with alpha^vee = sum c_i alpha_i^vee."""
        norm = self.inner(alpha, alpha)
        coeffs = []
        for i in range(self.rank):
            c = Fraction(alpha[i] * self.inner(self.simple[i], self.simple[i]), norm)
            if c.denominator != 1:
                raise ValueError("coroot is not integral in simple coroots")
            coeffs.append(int(c))
        return tuple(coeffs)


def _neg(root):
    return tuple(-x for x in root)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


class BracketTable:
    """Antisymmetric structure constants over any ring of the linalg protocol.

    ``table`` maps each index pair (i, j) with i < j to the nonzero
    coefficients {k: c} of [x_i, x_j]; absent pairs commute.  Coefficients
    need ``+``, ``-``, ``*`` (also with the integer 1) and a truth value that
    is false exactly for zero, so brackets drop zero coefficients and two
    vectors are equal exactly when their dicts are.
    """

    def __init__(self, dim: int, table: dict):
        self.dim = dim
        self._table = table
        self._killing = None

    def bracket_indices(self, i: int, j: int) -> dict:
        if i == j:
            return {}
        if i < j:
            return self._table.get((i, j), {})
        flipped = self._table.get((j, i), {})
        return {k: -c for k, c in flipped.items()}

    def bracket(self, x: dict, y: dict) -> dict:
        """Bracket of two vectors given as basis-index -> coefficient maps."""
        out: dict = {}
        for i, a in x.items():
            for j, b in y.items():
                ab = a * b
                if not ab:
                    continue
                for k, c in self.bracket_indices(i, j).items():
                    add_term(out, k, ab * c)
        return out

    def jacobiator(self, i: int, j: int, k: int) -> dict:
        """[[x,y],z] + [[y,z],x] + [[z,x],y] for basis vectors x_i, x_j, x_k."""
        acc: dict = {}
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for idx, v in self.bracket(self.bracket_indices(a, b), {c: 1}).items():
                add_term(acc, idx, v)
        return acc

    def jacobi_ok(self) -> bool:
        """The Jacobiator vanishes on every basis triple."""
        return not any(self.jacobiator(*t) for t in itertools.combinations(range(self.dim), 3))

    def killing(self):
        """Matrix of tr(ad x_a ad x_b) over the basis x_0..x_(dim-1).

        Column k of ad x_a is the stored bracket [x_a, x_k], so entry (a, b)
        is one dot product of the (i, k) entries of ad x_a with the (k, i)
        entries of ad x_b, over the pairs where both are nonzero.  It starts
        from the zero of the coefficients' ring (the int 0 when every bracket
        is zero), so the entries lie in that ring: ints for a Chevalley table.
        """
        if self._killing is None:
            from .linalg import dot

            dim = self.dim
            # ad[a][k] is [x_a, x_k]; its coefficient at i is the (i, k) entry of ad x_a
            ad = [[self.bracket_indices(a, k) for k in range(dim)] for a in range(dim)]
            zero = next((c * 0 for row in ad for img in row for c in img.values()), 0)
            km = [[zero] * dim for _ in range(dim)]
            for a in range(dim):
                for b in range(a, dim):
                    xs, ys = [], []
                    for k, img in enumerate(ad[a]):
                        for i, c in img.items():
                            d = ad[b][i].get(k)
                            if d:
                                xs.append(c)
                                ys.append(d)
                    km[a][b] = km[b][a] = dot(xs, ys, zero)
            self._killing = km
        return self._killing

    def killing_form(self, x: dict, y: dict):
        km = self.killing()
        total = km[0][0] * 0
        for i, a in x.items():
            for j, b in y.items():
                if km[i][j]:
                    total = total + a * b * km[i][j]
        return total


class ChevalleyStructure(BracketTable):
    """Basis {H_i} + {A_alpha} with integral structure constants, stored as
    ints.

    Brackets:
      [H_i, H_j] = 0
      [H_i, A_a] = <a, alpha_i^vee> A_a
      [A_a, A_-a] = sum of coroot coefficients times H_i
      [A_a, A_b] = eps(a, b) A_{a+b} when a + b is a root, else 0.
    """

    def __init__(self, root_system: RootSystem):
        self.rs = root_system
        self.eps = _carter_constants(root_system)
        self.basis = [("H", i) for i in range(self.rs.rank)] + [
            ("A", r) for r in self.rs.roots
        ]
        self.index = {b: i for i, b in enumerate(self.basis)}
        super().__init__(len(self.basis), self._build_table())

    def sl2_triple(self, root):
        """The vectors e, f, h of the sl2 of `root`: e = A_root, f = A_-root
        and h = [e, f], its coroot (Carter 4.1), so [h, e] = 2e, [h, f] = -2f."""
        e, f = {self.index["A", root]: 1}, {self.index["A", _neg(root)]: 1}
        return e, f, self.bracket(e, f)

    def _build_table(self):
        table = {}
        rs = self.rs
        for i, x in enumerate(self.basis):
            for j, y in enumerate(self.basis):
                if i >= j:
                    continue
                acc: dict[int, int] = {}
                kx, vx = x
                ky, vy = y
                if kx == "H" and ky == "H":
                    pass
                elif kx == "H" and ky == "A":
                    c = rs.pairing(vy, rs.simple[vx])
                    if c:
                        acc[j] = c
                elif kx == "A" and ky == "A":
                    if vy == _neg(vx):
                        for idx, c in enumerate(rs.coroot_coefficients(vx)):
                            if c:
                                acc[self.index[("H", idx)]] = c
                    else:
                        s = _add(vx, vy)
                        if s in rs.root_set:
                            acc[self.index[("A", s)]] = self.eps[(vx, vy)]
                if acc:
                    table[(i, j)] = acc
        return table


def _carter_constants(rs: RootSystem):
    """eps(a, b) for every root pair with a + b a root, by Carter's recursion.

    R. W. Carter, Simple Groups of Lie Type (Wiley 1972), 4.1-4.2.  A pair
    (a, b) of positive roots with a before b in ``rs.positive`` and a + b a
    root is special; of the special pairs of one sum xi, the one with the
    earliest a is extraspecial, and it gets +(p + 1).  Relation (iv) on
    zeta + eta - a - b = 0, (zeta, eta) extraspecial, gives every other
    special pair (a, b) of xi from pairs of lower height.  N(b, a) = -N(a, b),
    N(-a, -b) = -N(a, b) and the rotation rule (ii) reduce any pair to a
    special one.  Every constant must be an integer of magnitude p + 1
    (Carter (iii)); that is checked.
    """
    norm = {r: rs.inner(r, r) for r in rs.roots}
    positive = set(rs.positive)
    special: dict = {}

    def n(a, b):
        c = _add(a, b)
        if c not in norm:
            return 0
        if (a, b) in special:
            return special[(a, b)]
        if (b, a) in special:
            return -special[(b, a)]
        t = _neg(c)
        if (a in positive) + (b in positive) + (t in positive) < 2:
            return -n(_neg(a), _neg(b))
        # rotation (ii) on a + b + t = 0: N(a,b)/(t,t) = N(b,t)/(a,a) = N(t,a)/(b,b)
        if b in positive:
            return n(b, t) * Fraction(norm[t], norm[a])
        return n(t, a) * Fraction(norm[t], norm[b])

    def term(r, s, t, u):
        """N(r, s) N(t, u) / (r + s, r + s), a term of relation (iv)."""
        c = _add(r, s)
        return n(r, s) * n(t, u) / norm[c] if c in norm else 0

    for xi in rs.positive:
        pairs = [
            (a, b) for i, a in enumerate(rs.positive)
            for b in rs.positive[i + 1:] if _add(a, b) == xi
        ]
        if not pairs:
            continue
        (zeta, eta), others = pairs[0], pairs[1:]
        special[(zeta, eta)] = Fraction(rs.string_down(zeta, eta) + 1)
        for a, b in others:
            # (iv) with r, s, t, u = a, b, -zeta, -eta; its first term is
            # -N(a, b) N(zeta, eta) / (xi, xi)
            mz, me = _neg(zeta), _neg(eta)
            special[(a, b)] = (term(b, mz, a, me) + term(mz, a, b, me)) * (
                norm[xi] / special[(zeta, eta)]
            )

    eps = {}
    for a in rs.roots:
        for b in rs.roots:
            if _add(a, b) in norm:
                v = n(a, b)
                if v.denominator != 1 or abs(v) != rs.string_down(a, b) + 1:
                    raise AssertionError(f"N{(a, b)} = {v} breaks Carter (iii)")
                eps[(a, b)] = int(v)
    return eps


_CHEVALLEY_CACHE: dict[str, ChevalleyStructure] = {}


def chevalley(type_label: str) -> ChevalleyStructure:
    if type_label not in _CHEVALLEY_CACHE:
        _CHEVALLEY_CACHE[type_label] = ChevalleyStructure(RootSystem(type_label))
    return _CHEVALLEY_CACHE[type_label]


def jacobi_lemmas(order):
    """The ``liealg.jacobi`` row: each basis Jacobiator of A1, A2, B2, G2 is 0."""
    for t in ("A1", "A2", "B2", "G2"):
        st = chevalley(t)
        for i, j, k in itertools.combinations(range(st.dim), 3):
            yield f"Jacobi on x_{i}, x_{j}, x_{k} in {t}", st.jacobiator(i, j, k), {}


def killing_lemmas(order, types=("A1", "A2", "B2", "G2")):
    """The ``liealg.killing_associativity`` row: K = K^T and ad(x)^T K + K ad(x)
    = 0 for every basis vector x of g.

    With K(u, v) = u^T K v and [x, u] = ad(x) u, the second lemma is
    K([x,y],z) + K(y,[x,z]) = 0, for every x by linearity; with the first it
    gives K([x,y],z) = -K([y,x],z) = K(x,[y,z]) on every triple.
    """
    from .linalg import Matrix

    for t in types:
        st = chevalley(t)
        k = Matrix(st.killing())
        yield f"K = K^T in {t}", Matrix(zip(*k.rows)), k
        for a in range(st.dim):
            # row i of ad_t is column i of ad(x_a): the coordinates of [x_a, x_i]
            brackets = [st.bracket_indices(a, i) for i in range(st.dim)]
            ad_t = Matrix([[row.get(j, 0) for j in range(st.dim)] for row in brackets])
            yield (f"ad(x_{a})^T K + K ad(x_{a}) = 0 in {t}",
                   ad_t * k + k * Matrix(zip(*ad_t.rows)), k * 0)


class GradedTriple:
    """Grading from Dynkin labels, and a rational standard triple (H, E, F).

    The grading and the ``OddLabel`` check are built at once; the triple is
    solved on each call of ``standard_triple``.
    """

    def __init__(self, type_label: str, labels):
        labels = tuple(labels)
        self.structure = chevalley(type_label)
        rs = self.structure.rs
        if len(labels) != rs.rank:
            raise ValueError("one label per simple root")
        if any(l % 2 for l in labels):
            raise OddLabel(f"labels {labels} are not all even")
        self.labels = labels
        self.grading = {r: sum(n * l for n, l in zip(r, labels)) for r in rs.roots}

    def standard_triple(self):
        """The vectors (H, E, F) with [H, E] = 2E, [H, F] = -2F, [E, F] = H,
        or (H, None, None) for zero labels; raises ``NoRationalTriple`` when
        no triple is found."""
        from .linalg import solve

        st = self.structure
        simple = st.rs.simple
        # alpha_i(H) = label_i, where alpha_i(H_j) = <alpha_i, alpha_j^vee>: the
        # Cartan matrix, which is invertible
        h = solve([[Fraction(st.rs.pairing(a, b)) for b in simple] for a in simple],
                  [Fraction(l) for l in self.labels])
        h_vector = {st.index["H", i]: c for i, c in enumerate(h) if c}
        return h_vector, *(self._solve_e_f(h_vector) if any(self.labels) else (None, None))

    def _solve_e_f(self, h_vector):
        """E from the small coefficient vectors on the grade-2 roots, each in
        turn, and F from [E, F] = H, which is linear in F once E is fixed."""
        from .linalg import solve

        st = self.structure
        up, down = ([st.index["A", r] for r in sorted(self.grading) if self.grading[r] == g]
                    for g in (2, -2))
        if not up:
            raise NoRationalTriple("no grade-2 root vectors available")
        for coeffs in _small_coefficient_vectors(len(up)):
            e_vec = {i: Fraction(c) for i, c in zip(up, coeffs)}
            cols = [st.bracket(e_vec, {i: Fraction(1)}) for i in down]
            rows = sorted({i for img in cols for i in img} | set(h_vector))
            sol = solve([[img.get(i, Fraction(0)) for img in cols] for i in rows],
                        [h_vector.get(i, Fraction(0)) for i in rows])
            if sol is not None:
                f_vec = {i: c for i, c in zip(down, sol) if c}
                if st.bracket(e_vec, f_vec) == h_vector:
                    return e_vec, f_vec
        raise NoRationalTriple(f"no rational triple for labels {self.labels}")


_TRIPLE_CACHE: dict[tuple, GradedTriple] = {}


def graded_triple(type_label: str, orbit: str) -> GradedTriple:
    """The triple of an orbit, built once per process: its readers only read it."""
    key = (type_label, orbit)
    if key not in ORBIT_LABELS:
        raise ValueError(f"unknown orbit {type_label}:{orbit}")
    if key not in _TRIPLE_CACHE:
        _TRIPLE_CACHE[key] = GradedTriple(type_label, ORBIT_LABELS[key])
    return _TRIPLE_CACHE[key]


def _small_coefficient_vectors(n: int):
    """Deterministic stream of small positive coefficient vectors, each once,
    from (1, ..., 1)."""
    return itertools.product((1, 2, 3, 5, 7), repeat=n)
