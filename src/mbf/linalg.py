"""Exact dense linear algebra over Q(zeta_n).

Matrices are plain list-of-rows of Cyclo entries, all of one conductor.
Everything here is fraction-free in spirit but uses exact field division,
so results are certified: a None from solve() means genuinely inconsistent.

The one routine outside Q(zeta_n), `rank_mod_p`, counts the rank of sparse
vectors of residues mod a prime.  `graded` feeds it the δ columns of a charge
sector reduced straight from each object's differential coefficients
(`bifact.differential_residues`), where it is a certified lower bound on the
exact rank; the dense `Cyclo` matrices are built only for the sectors that
bound does not settle.
"""

from __future__ import annotations

from .exactalg import Cyclo


def _clone(rows):
    return [list(r) for r in rows]


def rref(rows):
    """Reduced row echelon form.  Returns (rref_rows, pivot_columns)."""
    m = _clone(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if not m[i][c].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c].inverse()
        m[r] = [e if e.is_zero() else e * inv for e in m[r]]
        support = [not p.is_zero() for p in m[r]]
        for i in range(nrows):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [
                    e - f * p if live else e
                    for e, p, live in zip(m[i], m[r], support)
                ]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def rank_mod_p(vectors, p: int) -> int:
    """Rank over F_p of sparse vectors {index: residue}, residues in [0, p).

    The vectors may be the rows or the columns of a matrix, since
    rank(M) = rank(M^T).  Fed the residues of a matrix over Q(zeta_n) under a
    ring map Z[zeta_n] -> F_p (`exactalg.modular_prime`), it is a lower bound
    on the exact rank: every minor of the reduced matrix is the image of the
    same minor, so a non-zero minor mod p is non-zero over the field.  It can
    fall short of it (an entry p reduces to 0).
    """
    pivots = {}  # pivot index -> reduced vector {index: value}, pivot value 1
    for vector in vectors:
        v = {k: x for k, x in vector.items() if x}
        while v:
            c = min(v)
            piv = pivots.get(c)
            if piv is None:
                inv = pow(v[c], -1, p)
                pivots[c] = {k: x * inv % p for k, x in v.items()}
                break
            f = v.pop(c)
            for k, x in piv.items():
                if k != c:
                    y = (v.get(k, 0) - f * x) % p
                    if y:
                        v[k] = y
                    else:
                        v.pop(k, None)
    return len(pivots)


def nullspace(rows, conductor: int, ncols: int | None = None):
    """Basis of {x : A x = 0} as a list of length-ncols vectors."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if ncols == 0:
        return []
    if not rows:
        rows = [[Cyclo.zero(conductor)] * ncols]
    m, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    zero, one = Cyclo.zero(conductor), Cyclo.one(conductor)
    basis = []
    for fc in free:
        v = [zero] * ncols
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -m[i][fc]
        basis.append(v)
    return basis


def solve(rows, rhs, conductor: int):
    """One solution of A x = rhs (free coordinates zero), or None."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    zero = Cyclo.zero(conductor)
    if nrows == 0:
        return [zero] * ncols
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    m, pivots = rref(aug)
    if ncols in pivots:
        return None  # pivot in the constants column: inconsistent
    x = [zero] * ncols
    for i, pc in enumerate(pivots):
        x[pc] = m[i][ncols]
    return x


class Echelon:
    """Growing row-echelon basis supporting incremental rank queries."""

    def __init__(self):
        self.rows = []  # kept sorted by pivot column; rows are pivot-normalized

    @property
    def rank(self) -> int:
        return len(self.rows)

    def insert(self, vector) -> bool:
        """Reduce vector against the basis; add the residue if independent."""
        v = list(vector)
        for pc, row in self.rows:
            f = v[pc]
            if f.is_zero():
                continue
            v = [e if p.is_zero() else e - f * p for e, p in zip(v, row)]
        pivot = next((c for c, e in enumerate(v) if not e.is_zero()), None)
        if pivot is None:
            return False
        inv = v[pivot].inverse()
        v = [e if e.is_zero() else e * inv for e in v]
        self.rows.append((pivot, v))
        self.rows.sort(key=lambda t: t[0])
        return True
