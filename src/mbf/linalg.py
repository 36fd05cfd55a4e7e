"""Exact linear algebra over Q(zeta_n), and ranks over F_p.

One sparse elimination, `Echelon.insert`, does all of it.  A vector is
{index: value}, zeros skipped; a sequence is read as its `enumerate`.  The
field is the one parameter: `Cyclo` values by default, residues in [0, p)
given a prime p.  `rank_mod_p` is the rank of an `Echelon(p)`; `rref`,
`nullspace` and `solve` read an exact one, back-substituted where they
need the reduced row echelon form.  That form is unique, so their
results do not depend on the row order, and a None from `solve` is a proof.
"""

from __future__ import annotations

from .exactalg import Cyclo


def _items(vector):
    return vector.items() if isinstance(vector, dict) else enumerate(vector)


class Echelon:
    """Growing row-echelon basis over Q(zeta_n), or over F_p given p."""

    def __init__(self, p: int | None = None):
        self.p = p
        self.rows = {}  # pivot index -> {index: value}, pivot value 1

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _subtract(self, v: dict, f, row: dict, pivot):
        """v -= f * row in place, away from the pivot of `row`."""
        p = self.p
        for k, x in row.items():
            if k != pivot:
                y = v[k] - f * x if k in v else -f * x
                if p is not None:
                    y %= p
                if y:
                    v[k] = y
                else:
                    del v[k]

    def insert(self, vector) -> bool:
        """Reduce vector against the basis; add the residue if independent."""
        p, rows = self.p, self.rows
        v = {k: x for k, x in _items(vector) if x}
        while v:
            c = min(v)
            row = rows.get(c)
            if row is None:
                if p is None:
                    inv = v[c].inverse()
                    rows[c] = {k: x * inv for k, x in v.items()}
                else:
                    inv = pow(v[c], -1, p)
                    rows[c] = {k: x * inv % p for k, x in v.items()}
                return True
            self._subtract(v, v.pop(c), row, c)
        return False

    def reduced(self) -> list:
        """The basis back-substituted, in place, to the reduced row echelon
        form: [(pivot, row)] by pivot."""
        rows = sorted(self.rows.items())
        for t in range(len(rows) - 1, 0, -1):
            c, row = rows[t]
            for _, above in rows[:t]:
                if c in above:
                    self._subtract(above, above.pop(c), row, c)
        return rows


def _echelon(rows, p: int | None = None) -> Echelon:
    ech = Echelon(p)
    for row in rows:
        ech.insert(row)
    return ech


def rref(rows):
    """Reduced row echelon form of equal-length rows: (rows, pivot columns),
    as many rows as given, zero rows last."""
    ncols = len(rows[0]) if rows else 0
    zero = rows[0][0] - rows[0][0] if ncols else None
    reduced = _echelon(rows).reduced()
    out = [[row.get(c, zero) for c in range(ncols)] for _, row in reduced]
    out += [[zero] * ncols for _ in range(len(rows) - len(out))]
    return out, [c for c, _ in reduced]


def rank_mod_p(vectors, p: int) -> int:
    """Rank over F_p of vectors of residues in [0, p).

    The vectors may be the rows or the columns of a matrix, since
    rank(M) = rank(M^T).  Fed the residues of a matrix over Q(zeta_n) under a
    ring map Z[zeta_n] -> F_p (`exactalg.modular_prime`), it is a lower bound
    on the exact rank: every minor of the reduced matrix is the image of the
    same minor, so a non-zero minor mod p is non-zero over the field.  It can
    fall short of it (an entry p reduces to 0).
    """
    return _echelon(vectors, p).rank


def nullspace(rows, conductor: int, ncols: int | None = None):
    """Basis of {x : A x = 0} as a list of length-ncols vectors, one per
    free column; ncols defaults to the length of the first row."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    reduced = _echelon(rows).reduced()
    pivots = {c for c, _ in reduced}
    zero, one = Cyclo.zero(conductor), Cyclo.one(conductor)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [zero] * ncols
            v[fc] = one
            for pc, row in reduced:
                if fc in row:
                    v[pc] = -row[fc]
            basis.append(v)
    return basis


def solve(rows, rhs, conductor: int, ncols: int | None = None):
    """One solution of A x = rhs (free coordinates zero), or None; rhs is a
    vector over the rows, ncols defaults to the length of the first row."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    rhs = dict(_items(rhs))
    ech = _echelon({**dict(_items(row)), ncols: rhs.get(i, 0)} for i, row in enumerate(rows))
    if ncols in ech.rows:
        return None  # pivot in the constants column: inconsistent
    zero = Cyclo.zero(conductor)
    x = [zero] * ncols
    for pc, row in ech.reduced():
        x[pc] = row.get(ncols, zero)
    return x
