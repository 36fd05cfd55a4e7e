"""Matrix bi-factorisations over free polynomial slot chains.

An object lives on a chain of polynomial slots R ⊗ R ⊗ ... ⊗ R; the outer
slots carry the left/right variable groups (a, b), internal slots are
junction variables x1, x2, ....  Maps between such chains are formal sums of
generator words built from a handful of primitives (multiplication, variable
substitution, divided transfer, division with remainder, coefficient
extraction), each of which commutes with the outer bimodule action.  That
invariant is what makes equality decidable here:

* any two operators agree iff they agree on all internal-slot monomials, and
* from a 2-slot source there are no internal slots, so comparing images of
  the rank generators is a complete, exact test.

Operators from sources with internal slots are compared structurally after
word normalization (substitution merging, multiplier merging and pushing)
and, failing that, pointwise on internal monomials up to a total degree:
evidence, not proof.  Only `op_equal` and `morphism_equal` take that degree
(`cutoff`); every check built on them sweeps to `DEFAULT_CUTOFF`.

An `Operator` is an immutable sparse matrix, {(row, col): tuple of words},
built once by its one constructor.  Because it cannot change, it caches its
normal form (which is its own normal form) and its multiplier matrix; an
operator made by `Operator.from_poly_matrix` starts with the matrix it was
given.  Objects cache nothing: `tensor_obj` builds its product on every call
(no workload asks for the same product twice often enough to pay for a
cache).
"""

from __future__ import annotations

from types import MappingProxyType

from ._rat import Rat
from .exactalg import Cyclo
from .polycalc import MultiPoly, PolyMatrix, Ring

DEFAULT_CUTOFF = 30

_RING_CACHE: dict = {}
_UNSET = object()  # an operator's multiplier matrix before it is computed


def _slot_names(nslots: int, nvars: int, slot: int) -> tuple:
    if nslots == 1:
        base = "t"
    elif slot == 0:
        base = "a"
    elif slot == nslots - 1:
        base = "b"
    else:
        base = f"x{slot}"
    if nvars == 1:
        return (base,)
    if base[0] == "x":
        return tuple(f"{base}_{j}" for j in range(1, nvars + 1))
    return tuple(f"{base}{j}" for j in range(1, nvars + 1))


class SlotShape:
    """A chain of nslots polynomial slots, nvars variables per slot."""

    __slots__ = ("nslots", "nvars", "conductor")

    def __init__(self, nslots: int, nvars: int, conductor: int):
        if nslots < 1 or nvars < 1:
            raise ValueError("need at least one slot and one variable")
        object.__setattr__(self, "nslots", nslots)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "conductor", conductor)

    def __setattr__(self, *a):
        raise AttributeError("SlotShape is immutable")

    def _key(self):
        return (self.nslots, self.nvars, self.conductor)

    def __eq__(self, other):
        return isinstance(other, SlotShape) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"SlotShape({self.nslots}, nvars={self.nvars}, zeta_{self.conductor})"

    def slot_names(self, slot: int) -> tuple:
        return _slot_names(self.nslots, self.nvars, slot)

    def left_names(self) -> tuple:
        return self.slot_names(0)

    def right_names(self) -> tuple:
        return self.slot_names(self.nslots - 1)

    def internal_names(self) -> tuple:
        out = []
        for s in range(1, self.nslots - 1):
            out.extend(self.slot_names(s))
        return tuple(out)

    def ring(self) -> Ring:
        key = self._key()
        r = _RING_CACHE.get(key)
        if r is None:
            names = []
            for s in range(self.nslots):
                names.extend(self.slot_names(s))
            r = _RING_CACHE.setdefault(key, Ring(names, self.conductor))
        return r

    def glue(self, other: "SlotShape") -> "SlotShape":
        if self.nvars != other.nvars or self.conductor != other.conductor:
            raise ValueError("incompatible shapes for gluing")
        return SlotShape(self.nslots + other.nslots - 1, self.nvars, self.conductor)

    def drop_slot(self, slot: int) -> "SlotShape":
        if slot <= 0 or slot >= self.nslots - 1:
            raise ValueError("only internal slots can be dropped")
        return SlotShape(self.nslots - 1, self.nvars, self.conductor)

    def one(self) -> Cyclo:
        return Cyclo.one(self.conductor)


class FreeBimod:
    """Free module on `rank` copies of a slot chain."""

    __slots__ = ("shape", "rank")

    def __init__(self, shape: SlotShape, rank: int):
        if rank < 0:
            raise ValueError("negative rank")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, *a):
        raise AttributeError("FreeBimod is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, FreeBimod)
            and self.shape == other.shape
            and self.rank == other.rank
        )

    def __hash__(self):
        return hash((self.shape, self.rank))

    def __repr__(self):
        return f"FreeBimod({self.shape}, rank={self.rank})"


# -- primitives -------------------------------------------------------------


def _embed_names(inner: SlotShape, ambient: SlotShape, offset: int) -> dict:
    out = {}
    for s in range(inner.nslots):
        for vi, va in zip(inner.slot_names(s), ambient.slot_names(offset + s)):
            out[vi] = va
    return out


class PMul:
    """Multiply by a fixed polynomial of the (unchanged) slot ring."""

    __slots__ = ("shape", "poly")

    def __init__(self, shape: SlotShape, poly: MultiPoly):
        if poly.ring != shape.ring():
            raise ValueError("multiplier not in the slot ring")
        self.shape = shape
        self.poly = poly

    src = property(lambda self: self.shape)
    dst = property(lambda self: self.shape)

    def apply(self, p: MultiPoly) -> MultiPoly:
        return p * self.poly

    def signature(self):
        return ("mul", self.shape, self.poly)

    def lift(self, left: int, right: int, asrc: SlotShape, adst: SlotShape) -> "PMul":
        return PMul(asrc, self.poly.rename(_embed_names(self.shape, asrc, left), asrc.ring()))


class PSubst:
    """Ring map var -> scalar * var between slot rings.

    Outer slots must map to the corresponding outer slots with scalar 1;
    internal variables may go anywhere with any scalar.  That keeps every
    substitution a bimodule map for the outer action.
    """

    __slots__ = ("src", "dst", "mapping")

    def __init__(self, src: SlotShape, dst: SlotShape, mapping: dict):
        sring = src.ring()
        one = Cyclo.one(src.conductor)
        norm = {}
        for v in sring.vars:
            if v not in mapping:
                raise ValueError(f"substitution must be total; missing {v!r}")
            c, w = mapping[v]
            cc = c if isinstance(c, Cyclo) else Cyclo.from_rat(src.conductor, c)
            dst.ring().index(w)
            norm[v] = (cc, w)
        for sv, dv in zip(src.left_names(), dst.left_names()):
            c, w = norm[sv]
            if w != dv or c != one:
                raise ValueError(f"outer-left variable {sv!r} must map to {dv!r} untwisted")
        for sv, dv in zip(src.right_names(), dst.right_names()):
            c, w = norm[sv]
            if w != dv or c != one:
                raise ValueError(f"outer-right variable {sv!r} must map to {dv!r} untwisted")
        self.src = src
        self.dst = dst
        self.mapping = norm

    def apply(self, p: MultiPoly) -> MultiPoly:
        return p.subst_scale(self.mapping, self.dst.ring())

    def is_identity(self) -> bool:
        if self.src != self.dst:
            return False
        one = Cyclo.one(self.src.conductor)
        return all(w == v and c == one for v, (c, w) in self.mapping.items())

    def merge(self, then: "PSubst") -> "PSubst":
        # self applied first, `then` second
        m = {}
        for v, (c, w) in self.mapping.items():
            c2, u = then.mapping[w]
            m[v] = (c * c2, u)
        return PSubst(self.src, then.dst, m)

    def signature(self):
        return ("subst", self.src, self.dst, frozenset(self.mapping.items()))

    def lift(self, left: int, right: int, asrc: SlotShape, adst: SlotShape) -> "PSubst":
        src_emb = _embed_names(self.src, asrc, left)
        dst_emb = _embed_names(self.dst, adst, left)
        m = {src_emb[v]: (c, dst_emb[w]) for v, (c, w) in self.mapping.items()}
        one = Cyclo.one(asrc.conductor)
        for s in range(left):
            for sv, dv in zip(asrc.slot_names(s), adst.slot_names(s)):
                m[sv] = (one, dv)
        for t in range(right):
            ss = left + self.src.nslots + t
            ds = left + self.dst.nslots + t
            for sv, dv in zip(asrc.slot_names(ss), adst.slot_names(ds)):
                m[sv] = (one, dv)
        return PSubst(asrc, adst, m)


class PTDiv:
    """Divided transfer: p ↦ (p − p[v1→v2]) / (v1 − v2), shape preserved."""

    __slots__ = ("shape", "v1", "v2")

    def __init__(self, shape: SlotShape, v1: str, v2: str):
        ring = shape.ring()
        ring.index(v1), ring.index(v2)
        self.shape = shape
        self.v1 = v1
        self.v2 = v2

    src = property(lambda self: self.shape)
    dst = property(lambda self: self.shape)

    def apply(self, p: MultiPoly) -> MultiPoly:
        return p.divided_difference(self.v1, self.v2)

    def signature(self):
        return ("tdiv", self.shape, self.v1, self.v2)

    def lift(self, left, right, asrc, adst):
        emb = _embed_names(self.shape, asrc, left)
        return PTDiv(asrc, emb[self.v1], emb[self.v2])


class PQuo:
    """One part of division with remainder by a divisor monic in one variable.

    `part` is "quo" for the quotient or "rem" for the remainder.
    """

    __slots__ = ("shape", "modulus", "var", "part")

    def __init__(self, shape: SlotShape, modulus: MultiPoly, var: str, part: str):
        if modulus.ring != shape.ring():
            raise ValueError("modulus not in the slot ring")
        if part not in ("quo", "rem"):
            raise ValueError(f"division part must be 'quo' or 'rem', not {part!r}")
        self.shape = shape
        self.modulus = modulus
        self.var = var
        self.part = part

    src = property(lambda self: self.shape)
    dst = property(lambda self: self.shape)

    def apply(self, p: MultiPoly) -> MultiPoly:
        quo, rem = p.divmod_in_var(self.modulus, self.var)
        return quo if self.part == "quo" else rem

    def signature(self):
        return (self.part, self.shape, self.modulus, self.var)

    def lift(self, left, right, asrc, adst):
        emb = _embed_names(self.shape, asrc, left)
        return PQuo(asrc, self.modulus.rename(emb, asrc.ring()), emb[self.var], self.part)


class PCoeff:
    """Extract the coefficient of var^k and drop that internal slot."""

    __slots__ = ("shape", "dst_shape", "var", "k", "slot")

    def __init__(self, shape: SlotShape, var: str, k: int):
        if shape.nvars != 1:
            raise ValueError("coefficient extraction implemented for one-variable slots")
        slot = None
        for s in range(1, shape.nslots - 1):
            if shape.slot_names(s)[0] == var:
                slot = s
        if slot is None:
            raise ValueError(f"{var!r} is not an internal slot variable")
        self.shape = shape
        self.dst_shape = shape.drop_slot(slot)
        self.var = var
        self.k = k
        self.slot = slot

    src = property(lambda self: self.shape)
    dst = property(lambda self: self.dst_shape)

    def _rename(self) -> dict:
        out = {}
        for s in range(self.shape.nslots):
            if s == self.slot:
                continue
            d = s if s < self.slot else s - 1
            for vi, va in zip(self.shape.slot_names(s), self.dst_shape.slot_names(d)):
                out[vi] = va
        return out

    def apply(self, p: MultiPoly) -> MultiPoly:
        part = p.coefficients_in(self.var).get(self.k)
        if part is None:
            return self.dst_shape.ring().zero()
        return part.rename(self._rename(), self.dst_shape.ring())

    def signature(self):
        return ("coeff", self.shape, self.var, self.k)

    def lift(self, left, right, asrc, adst):
        emb = _embed_names(self.shape, asrc, left)
        return PCoeff(asrc, emb[self.var], self.k)


# -- words -------------------------------------------------------------------


class Word:
    """One generator word: scalar coefficient and a chain of primitives
    applied left to right."""

    __slots__ = ("coeff", "prims", "src", "dst")

    def __init__(self, coeff: Cyclo, prims: tuple, src: SlotShape, dst: SlotShape):
        self.coeff = coeff
        self.prims = prims
        self.src = src
        self.dst = dst

    @staticmethod
    def identity(shape: SlotShape) -> "Word":
        return Word(Cyclo.one(shape.conductor), (), shape, shape)

    @staticmethod
    def of(prim) -> "Word":
        return Word(Cyclo.one(prim.src.conductor), (prim,), prim.src, prim.dst)

    def apply(self, p: MultiPoly) -> MultiPoly:
        for prim in self.prims:
            p = prim.apply(p)
        return p if self.coeff.is_one() else p * self.coeff

    def then(self, other: "Word") -> "Word":
        if self.dst != other.src:
            raise ValueError("word shapes do not chain")
        return Word(self.coeff * other.coeff, self.prims + other.prims, self.src, other.dst)

    def scaled(self, c: Cyclo) -> "Word":
        return Word(self.coeff * c, self.prims, self.src, self.dst)

    def normalized(self):
        """Merged/pushed normal form; None if the word is zero."""
        coeff = self.coeff
        if coeff.is_zero():
            return None
        stack: list = []

        def push(prim):
            nonlocal coeff
            if isinstance(prim, PMul):
                cv = prim.poly.constant_value()
                if cv is not None:
                    coeff = coeff * cv
                    return
                if stack and isinstance(stack[-1], PMul):
                    top = stack.pop()
                    merged = PMul(prim.shape, top.poly * prim.poly)
                    push(merged)
                else:
                    stack.append(prim)
            elif isinstance(prim, PSubst):
                if stack and isinstance(stack[-1], PMul):
                    m = stack.pop()
                    push(prim)
                    push(PMul(prim.dst, prim.apply(m.poly)))
                elif stack and isinstance(stack[-1], PSubst):
                    merged = stack.pop().merge(prim)
                    if not merged.is_identity():
                        stack.append(merged)
                elif not prim.is_identity():
                    stack.append(prim)
            else:
                stack.append(prim)

        for prim in self.prims:
            push(prim)
            if coeff.is_zero():
                return None
        return Word(coeff, tuple(stack), self.src, self.dst)

    def signature(self):
        return (self.src, self.dst, tuple(p.signature() for p in self.prims))

    def lift(self, left: int, right: int) -> "Word":
        asrc = SlotShape(left + self.src.nslots + right, self.src.nvars, self.src.conductor)
        adst = SlotShape(left + self.dst.nslots + right, self.dst.nvars, self.dst.conductor)
        prims = []
        for prim in self.prims:
            ps = SlotShape(left + prim.src.nslots + right, prim.src.nvars, prim.src.conductor)
            pd = SlotShape(left + prim.dst.nslots + right, prim.dst.nvars, prim.dst.conductor)
            prims.append(prim.lift(left, right, ps, pd))
        return Word(self.coeff, tuple(prims), asrc, adst)

    def __repr__(self):
        inner = "∘".join(p.signature()[0] for p in reversed(self.prims)) or "id"
        return f"({self.coeff})*{inner}"


def w_mul(shape: SlotShape, poly: MultiPoly) -> Word:
    return Word.of(PMul(shape, poly))


def w_insert(src: SlotShape, position: int) -> Word:
    """r ⊗ s ↦ r ⊗ 1 ⊗ s: a new internal slot at `position`."""
    dst = SlotShape(src.nslots + 1, src.nvars, src.conductor)
    one = Cyclo.one(src.conductor)
    m = {}
    for s in range(src.nslots):
        d = s if s < position else s + 1
        for sv, dv in zip(src.slot_names(s), dst.slot_names(d)):
            m[sv] = (one, dv)
    return Word.of(PSubst(src, dst, m))


def w_then_mul(word: Word, poly: MultiPoly) -> Word:
    """`word`, then multiplication by `poly` on its target chain; a constant
    `poly` scales `word` instead.  After `w_insert` this is [p]^ ∘ J: insert a
    middle slot, then multiply by p(a, x1, b)."""
    cv = poly.constant_value()
    if cv is not None:
        return word.scaled(cv)
    return word.then(w_mul(word.dst, poly))


def w_collapse(src: SlotShape, pair_left: int, scalar=None, twist_on: str = "left") -> Word:
    """Merge slots pair_left, pair_left+1; the twisted side picks up `scalar`."""
    dst = SlotShape(src.nslots - 1, src.nvars, src.conductor)
    one = Cyclo.one(src.conductor)
    sc = one if scalar is None else scalar
    m = {}
    for s in range(src.nslots):
        d = s if s <= pair_left else s - 1
        if s == pair_left:
            c = sc if twist_on == "left" else one
        elif s == pair_left + 1:
            c = sc if twist_on == "right" else one
        else:
            c = one
        for sv, dv in zip(src.slot_names(s), dst.slot_names(d)):
            m[sv] = (c, dv)
    return Word.of(PSubst(src, dst, m))


def w_transfer(shape: SlotShape, var: str, into: str) -> Word:
    """Full transfer x ↦ target variable, keeping the slot chain."""
    one = Cyclo.one(shape.conductor)
    m = {v: (one, v) for v in shape.ring().vars}
    m[var] = (one, into)
    return Word.of(PSubst(shape, shape, m))


def w_tdiv(shape: SlotShape, var: str, into: str) -> Word:
    return Word.of(PTDiv(shape, var, into))


def w_quo(shape: SlotShape, modulus: MultiPoly, var: str) -> Word:
    return Word.of(PQuo(shape, modulus, var, "quo"))


def w_rem(shape: SlotShape, modulus: MultiPoly, var: str) -> Word:
    return Word.of(PQuo(shape, modulus, var, "rem"))


def w_coeff(shape: SlotShape, var: str, k: int) -> Word:
    return Word.of(PCoeff(shape, var, k))


# -- operators ----------------------------------------------------------------


class Operator:
    """Sparse matrix of formal word sums between free slot modules.

    `cells` maps (row, col) to the tuple of words summed in that entry, in
    row-major key order; a missing key is a zero entry.  The one constructor
    copies what it is given into a read-only view, so an operator never
    changes: its normal form and its multiplier matrix are computed at most
    once and cached, and a normal form is its own normal form.
    """

    # _normal: None until computed, True on a normal form, else the normal form
    __slots__ = ("src", "dst", "cells", "_normal", "_pm")

    def __init__(self, src: FreeBimod, dst: FreeBimod, cells=None):
        cells = {k: tuple(ws) for k, ws in sorted(cells.items()) if ws} if cells else {}
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "cells", MappingProxyType(cells))
        object.__setattr__(self, "_normal", None)
        object.__setattr__(self, "_pm", _UNSET)

    def __setattr__(self, *a):
        raise AttributeError("Operator is immutable")

    @staticmethod
    def identity(mod: FreeBimod) -> "Operator":
        return Operator(mod, mod, {(i, i): (Word.identity(mod.shape),) for i in range(mod.rank)})

    @staticmethod
    def from_poly_matrix(src: FreeBimod, dst: FreeBimod, pm: PolyMatrix) -> "Operator":
        """Multiplication by `pm`, which is cached as the multiplier matrix."""
        if pm.rows != dst.rank or pm.cols != src.rank:
            raise ValueError("matrix shape mismatch")
        if src.shape != dst.shape:
            raise ValueError("from_poly_matrix needs equal shapes")
        op = Operator(src, dst, {
            (i, j): (w_mul(src.shape, p),)
            for i, row in enumerate(pm.entries) for j, p in enumerate(row) if not p.is_zero()
        })
        object.__setattr__(op, "_pm", pm)
        return op

    def compose(self, first: "Operator") -> "Operator":
        """self ∘ first (apply `first`, then self)."""
        if first.dst != self.src:
            raise ValueError(f"cannot compose {first.dst} into {self.src}")
        by_col: dict = {}
        for (i, k), ws in self.cells.items():
            by_col.setdefault(k, []).append((i, ws))
        out: dict = {}
        for (k, j), wfs in first.cells.items():  # k ascending in every cell
            for i, wss in by_col.get(k, ()):
                acc = out.setdefault((i, j), [])
                for wf in wfs:
                    for ws in wss:
                        acc.append(wf.then(ws))
        return Operator(first.src, self.dst, out)

    def __add__(self, other: "Operator") -> "Operator":
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("operator shape mismatch in sum")
        out = dict(self.cells)
        for k, ws in other.cells.items():
            out[k] = out[k] + ws if k in out else ws
        return Operator(self.src, self.dst, out)

    def scale(self, c) -> "Operator":
        cc = c if isinstance(c, Cyclo) else Cyclo.from_rat(self.src.shape.conductor, c)
        return Operator(self.src, self.dst, {
            k: tuple(w.scaled(cc) for w in ws) for k, ws in self.cells.items()})

    def __neg__(self) -> "Operator":
        return self.scale(-1)

    def __sub__(self, other: "Operator") -> "Operator":
        return self + (-other)

    def normalized(self) -> "Operator":
        """Normalize every word, then merge words that differ only in a
        trailing multiplier by summing the multiplier polynomials."""
        if self._normal is True:
            return self
        if self._normal is None:
            n = Operator(self.src, self.dst,
                         {k: _normal_words(ws) for k, ws in self.cells.items()})
            object.__setattr__(n, "_normal", True)
            object.__setattr__(self, "_normal", n)
        return self._normal

    def apply(self, element) -> list:
        sring = self.src.shape.ring()
        if any(p.ring != sring for p in element if not p.is_zero()):
            raise ValueError("element not in the source ring")
        out = [self.dst.shape.ring().zero() for _ in range(self.dst.rank)]
        for (i, j), ws in self.cells.items():
            p = element[j]
            if p.is_zero():
                continue
            for w in ws:
                out[i] = out[i] + w.apply(p)
        return out

    def apply_basis(self, copy: int, exps: dict) -> list:
        ring = self.src.shape.ring()
        elem = [ring.zero()] * self.src.rank
        elem[copy] = ring.monomial(exps)
        return self.apply(elem)

    def generator_images(self) -> list:
        """Images of the copy generators (complete data for 2-slot sources)."""
        return [self.apply_basis(j, {}) for j in range(self.src.rank)]

    def generator_matrix(self) -> PolyMatrix:
        if self.src.shape.nslots > 2:
            raise ValueError("generator matrix is only faithful for 2-slot sources")
        cols = self.generator_images()
        ring = self.dst.shape.ring()
        return PolyMatrix(
            ring, [[cols[j][i] for j in range(self.src.rank)] for i in range(self.dst.rank)]
        )

    def pure_mul_matrix(self):
        """PolyMatrix of multipliers if every word is a plain multiplication,
        else None; computed once from the normal form."""
        if self._pm is _UNSET:
            object.__setattr__(self, "_pm", self._multipliers())
        return self._pm

    def _multipliers(self):
        if self.src.shape != self.dst.shape:
            return None
        ring = self.src.shape.ring()
        rows = [[ring.zero()] * self.src.rank for _ in range(self.dst.rank)]
        for (i, j), ws in self.normalized().cells.items():
            p = ring.zero()
            for w in ws:
                if len(w.prims) == 0:
                    p = p + ring.const(w.coeff)
                elif len(w.prims) == 1 and isinstance(w.prims[0], PMul):
                    p = p + w.prims[0].poly * w.coeff
                else:
                    return None
            rows[i][j] = p
        return PolyMatrix._raw(ring, rows)


def _normal_words(words) -> list:
    """One cell of `Operator.normalized`: the normal form of every word, with
    words that share all but a trailing multiplier merged, in first-seen order."""
    groups: dict = {}
    for w in words:
        nw = w.normalized()
        if nw is None:
            continue
        if nw.prims and isinstance(nw.prims[-1], PMul):
            prefix = nw.prims[:-1]
            poly = nw.prims[-1].poly * nw.coeff
        else:
            prefix = nw.prims
            poly = nw.dst.ring().const(nw.coeff)
        key = (nw.src, nw.dst, tuple(p.signature() for p in prefix))
        prev = groups.get(key)
        groups[key] = (prefix, poly if prev is None else prev[1] + poly, nw.src, nw.dst)
    ws = []
    for prefix, poly, srcs, dsts in groups.values():
        if poly.is_zero():
            continue
        cv = poly.constant_value()
        if cv is not None:
            ws.append(Word(cv, prefix, srcs, dsts))
        else:
            ws.append(Word(Cyclo.one(dsts.conductor), prefix + (PMul(dsts, poly),), srcs, dsts))
    return ws


def _internal_monomials(shape: SlotShape, cutoff: int):
    names = shape.internal_names()
    if not names:
        yield {}
        return
    def rec(i, remaining, acc):
        if i == len(names):
            yield dict(acc)
            return
        for k in range(remaining + 1):
            acc.append((names[i], k))
            yield from rec(i + 1, remaining - k, acc)
            acc.pop()
    yield from rec(0, cutoff, [])


def op_equal(A: Operator, B: Operator, cutoff: int = DEFAULT_CUTOFF):
    """Tiered operator equality: (equal, mode).

    Tiers: structural cancellation of the difference; pure-multiplier
    comparison (faithful on any chain); generator images (complete for
    sources without internal slots); pointwise on internal monomials up to
    `cutoff` total degree.  Verdicts from the first three tiers are exact;
    a True from the last, "verified-to-cutoff", is evidence, and a False
    carries the failing basis element in the mode.  A negative `cutoff`
    would sweep no monomial at all, so it raises ValueError.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if A.src != B.src or A.dst != B.dst:
        raise ValueError("operator shape mismatch")
    diff = (A - B).normalized()
    if not diff.cells:
        return True, "exact-structural"
    pm = diff.pure_mul_matrix()
    if pm is not None:
        return pm.is_zero(), "exact-multiplier"
    zero_dst = [diff.dst.shape.ring().zero()] * diff.dst.rank
    if diff.src.shape.nslots <= 2:
        eq = all(diff.apply_basis(j, {}) == zero_dst for j in range(diff.src.rank))
        return eq, "exact-generator"
    for copy in range(diff.src.rank):
        for exps in _internal_monomials(diff.src.shape, cutoff):
            if diff.apply_basis(copy, exps) != zero_dst:
                return False, f"counterexample at copy {copy}, monomial {exps}"
    return True, "verified-to-cutoff"


def _kron(op: Operator, ident: FreeBimod, op_first: bool, glue: bool = True) -> Operator:
    """op ⊗ id (op_first) or id ⊗ op, with id the identity of `ident`.

    Kronecker placement: copy (n, q) of op ⊗ id sits at n·rank(ident) + q and
    copy (p, n) of id ⊗ op at p·rank(op) + n.  With `glue` the two factors
    live on separate slot chains that are glued, and every word is lifted
    into the glued chain; without it both share op's chain and the words are
    placed as they are.
    """
    k = ident.rank
    lrank, rrank = (1, k) if op_first else (k, 1)
    shift = ident.shape.nslots - 1
    lslots, rslots = (0, shift) if op_first else (shift, 0)

    def module(m: FreeBimod) -> FreeBimod:
        shape = m.shape
        if glue:
            shape = shape.glue(ident.shape) if op_first else ident.shape.glue(shape)
        return FreeBimod(shape, k * m.rank)

    cells = {}
    for (n, m), words in op.cells.items():
        if glue:
            words = [w.lift(lslots, rslots) for w in words]
        for p in range(lrank):
            for q in range(rrank):
                cells[(p * op.dst.rank + n) * rrank + q, (p * op.src.rank + m) * rrank + q] = words
    return Operator(module(op.src), module(op.dst), cells)


def _block_operator(src: FreeBimod, dst: FreeBimod, blocks, col_mods, row_mods) -> Operator:
    """Stitch a 2x2 grid of Operators (or None) into one Operator; block
    (bi, bj) has row_mods[bi] rows and col_mods[bj] columns."""
    cells = {}
    roff = 0
    for bi, rm in enumerate(row_mods):
        coff = 0
        for bj, cm in enumerate(col_mods):
            blk = blocks[bi][bj]
            if blk is not None:
                if blk.src.rank != cm or blk.dst.rank != rm:
                    raise ValueError("block rank mismatch")
                for (i, j), words in blk.cells.items():
                    cells[roff + i, coff + j] = words
            coff += cm
        roff += rm
    return Operator(src, dst, cells)


# -- objects and morphisms ------------------------------------------------------


class MBF:
    """Matrix bi-factorisation: two modules, two differentials, a potential.

    `grading` is None or the pair (charges of the D0 copies, charges of the
    D1 copies): exact R-charges in units of q_x = 2/d (see `graded`).  Only
    the x^d family is graded; `charges` raises ValueError on other objects.
    """

    __slots__ = ("m0", "m1", "d0", "d1", "w", "grading")

    def __init__(self, m0: FreeBimod, m1: FreeBimod, d0: Operator, d1: Operator, w: MultiPoly,
                 grading=None):
        if m0.shape != m1.shape:
            raise ValueError("component modules must share the slot shape")
        if d0.src != m0 or d0.dst != m1 or d1.src != m1 or d1.dst != m0:
            raise ValueError("differential endpoints inconsistent")
        if len(w.ring.vars) != m0.shape.nvars:
            raise ValueError("potential variable count mismatch")
        if grading is not None:
            c0, c1 = grading
            if len(c0) != m0.rank or len(c1) != m1.rank:
                raise ValueError("charge vector length does not match rank")
            grading = (tuple(Rat(c) for c in c0), tuple(Rat(c) for c in c1))
        self.m0 = m0
        self.m1 = m1
        self.d0 = d0
        self.d1 = d1
        self.w = w
        self.grading = grading

    @property
    def shape(self) -> SlotShape:
        return self.m0.shape

    def w_difference(self) -> MultiPoly:
        ring = self.shape.ring()
        left = dict(zip(self.w.ring.vars, self.shape.left_names()))
        right = dict(zip(self.w.ring.vars, self.shape.right_names()))
        return self.w.rename(left, ring) - self.w.rename(right, ring)

    def component(self, parity: int) -> FreeBimod:
        return self.m0 if parity % 2 == 0 else self.m1

    def differential_from(self, parity: int) -> Operator:
        return self.d0 if parity % 2 == 0 else self.d1

    def charges(self, parity: int) -> tuple:
        """R-charges of the copies of component `parity`."""
        if self.grading is None:
            raise ValueError("object carries no R-charge grading")
        return self.grading[parity % 2]


def mbf_from_polys(shape: SlotShape, d0_entries, d1_entries, w: MultiPoly,
                   grading=None) -> MBF:
    ring = shape.ring()
    pm0 = PolyMatrix(ring, d0_entries)
    pm1 = PolyMatrix(ring, d1_entries)
    m0 = FreeBimod(shape, pm0.cols)
    m1 = FreeBimod(shape, pm0.rows)
    if pm1.rows != m0.rank or pm1.cols != m1.rank:
        raise ValueError("d0/d1 shapes inconsistent")
    return MBF(m0, m1, Operator.from_poly_matrix(m0, m1, pm0),
               Operator.from_poly_matrix(m1, m0, pm1), w, grading)


class ValidationReport:
    __slots__ = ("ok", "mode", "violations")

    def __init__(self, ok, mode, violations):
        self.ok = ok
        self.mode = mode
        self.violations = violations

    def __bool__(self):
        return self.ok

    def to_json(self):
        return {"ok": self.ok, "mode": self.mode, "violations": self.violations}

    def __repr__(self):
        return f"ValidationReport(ok={self.ok}, mode={self.mode!r})"


def validate_mbf(D: MBF) -> ValidationReport:
    """Check d1∘d0 = (W(a)−W(b))·id on D0 and d0∘d1 likewise on D1."""
    wdiff = w_mul(D.shape, D.w_difference())
    violations = []
    modes = []
    for name, got, mod in (
        ("d1*d0", D.d1.compose(D.d0), D.m0),
        ("d0*d1", D.d0.compose(D.d1), D.m1),
    ):
        want = Operator(mod, mod, {(i, i): (wdiff,) for i in range(mod.rank)})
        eq, mode = op_equal(got, want)
        modes.append(mode)
        if not eq:
            diff = (got - want).normalized()
            detail = None
            if diff.cells:
                i, j = next(iter(diff.cells))
                pm = diff.pure_mul_matrix()
                detail = {
                    "block": [i, j],
                    "difference": str(pm[i, j]) if pm is not None else "non-multiplier word",
                }
            violations.append({"which": name, "mode": mode, "detail": detail})
    mode = "exact" if all(m.startswith("exact") for m in modes) else "verified-to-cutoff"
    return ValidationReport(not violations, mode, violations)


class Morphism:
    """Even or odd map of bi-factorisations, stored as the two parity legs."""

    __slots__ = ("src", "dst", "parity", "opE", "opO")

    def __init__(self, src: MBF, dst: MBF, parity: int, opE: Operator, opO: Operator):
        parity %= 2
        if opE.src != src.m0 or opO.src != src.m1:
            raise ValueError("morphism sources inconsistent")
        if opE.dst != dst.component(parity) or opO.dst != dst.component(1 + parity):
            raise ValueError("morphism targets inconsistent")
        self.src = src
        self.dst = dst
        self.parity = parity
        self.opE = opE
        self.opO = opO

    @staticmethod
    def identity(D: MBF) -> "Morphism":
        return Morphism(D, D, 0, Operator.identity(D.m0), Operator.identity(D.m1))

    @staticmethod
    def zero(src: MBF, dst: MBF, parity: int = 0) -> "Morphism":
        return Morphism(
            src, dst, parity,
            Operator(src.m0, dst.component(parity)),
            Operator(src.m1, dst.component(1 + parity)),
        )

    @staticmethod
    def from_poly_blocks(src: MBF, dst: MBF, parity: int, mat_even, mat_odd) -> "Morphism":
        ring = src.shape.ring()
        pe = PolyMatrix(ring, mat_even)
        po = PolyMatrix(ring, mat_odd)
        return Morphism(
            src, dst, parity,
            Operator.from_poly_matrix(src.m0, dst.component(parity), pe),
            Operator.from_poly_matrix(src.m1, dst.component(1 + parity), po),
        )

    def op_from(self, parity: int) -> Operator:
        return self.opE if parity % 2 == 0 else self.opO

    def compose(self, first: "Morphism") -> "Morphism":
        if first.dst is not self.src and (
            first.dst.m0 != self.src.m0 or first.dst.m1 != self.src.m1
        ):
            raise ValueError("morphism composition endpoint mismatch")
        par = (self.parity + first.parity) % 2
        opE = self.op_from(first.parity).compose(first.opE)
        opO = self.op_from(1 + first.parity).compose(first.opO)
        return Morphism(first.src, self.dst, par, opE, opO)

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.parity != other.parity:
            raise ValueError("cannot add morphisms of different parity")
        return Morphism(self.src, self.dst, self.parity, self.opE + other.opE, self.opO + other.opO)

    def scale(self, c) -> "Morphism":
        return Morphism(self.src, self.dst, self.parity, self.opE.scale(c), self.opO.scale(c))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def delta(self) -> "Morphism":
        """D′∘φ − (−1)^{|φ|} φ∘D."""
        X, Y = self.src, self.dst
        if self.parity == 0:
            opE = Y.d0.compose(self.opE) - self.opO.compose(X.d0)
            opO = Y.d1.compose(self.opO) - self.opE.compose(X.d1)
        else:
            opE = Y.d1.compose(self.opE) + self.opO.compose(X.d0)
            opO = Y.d0.compose(self.opO) + self.opE.compose(X.d1)
        return Morphism(X, Y, 1 + self.parity, opE, opO)

    def is_closed(self):
        z = Morphism.zero(self.src, self.dst, 1 + self.parity)
        return morphism_equal(self.delta(), z)


def morphism_equal(f: Morphism, g: Morphism, cutoff: int = DEFAULT_CUTOFF):
    if f.parity != g.parity:
        return False, "parity mismatch"
    eq1, m1 = op_equal(f.opE, g.opE, cutoff)
    if not eq1:
        return False, m1
    eq2, m2 = op_equal(f.opO, g.opO, cutoff)
    if not eq2:
        return False, m2
    order = {"exact-structural": 0, "exact-generator": 1}
    worst = max((m1, m2), key=lambda m: order.get(m, 2))
    return True, worst


# -- tensor structure ----------------------------------------------------------


def _tensor_blocks(parity: int):
    return ((0, 0), (1, 1)) if parity % 2 == 0 else ((1, 0), (0, 1))


def _block_offset(X: MBF, Y: MBF, parity: int, i: int, j: int) -> int:
    off = 0
    for (bi, bj) in _tensor_blocks(parity):
        if (bi, bj) == (i, j):
            return off
        off += X.component(bi).rank * Y.component(bj).rank
    raise ValueError("block not in this parity part")


def _tensor(X: MBF, Y: MBF, glue: bool) -> MBF:
    """X ⊗ Y with the derivation-style signs d_X ⊗ 1 + (−1)^i 1 ⊗ d_Y on X_i.

    A source block X_i Y_j maps by d_X to X_{1−i} Y_j and by d_Y to X_i Y_{1−j};
    blocks are ordered as in _tensor_blocks, and within a block the copy of
    X_i ⊗ Y_j is X-major (as _kron places it).  If both factors are graded,
    a copy's charge is the sum of its factors' charges.  `glue` is passed to
    _kron.
    """
    shape = X.shape.glue(Y.shape) if glue else X.shape
    r = lambda i, j: X.component(i).rank * Y.component(j).rank
    mods = [FreeBimod(shape, sum(r(i, j) for i, j in _tensor_blocks(p))) for p in (0, 1)]
    diffs = []
    for parity in (0, 1):
        src_blocks, dst_blocks = _tensor_blocks(parity), _tensor_blocks(1 + parity)
        blocks = [[None, None], [None, None]]
        for c, (i, j) in enumerate(src_blocks):
            blocks[dst_blocks.index((1 - i, j))][c] = _kron(
                X.differential_from(i), Y.component(j), True, glue)
            dy = _kron(Y.differential_from(j), X.component(i), False, glue)
            blocks[dst_blocks.index((i, 1 - j))][c] = dy.scale(-1) if i else dy
        diffs.append(_block_operator(
            mods[parity], mods[1 - parity], blocks,
            [r(i, j) for i, j in src_blocks], [r(i, j) for i, j in dst_blocks],
        ))
    grading = None
    if X.grading is not None and Y.grading is not None:
        grading = tuple([cx + cy for i, j in _tensor_blocks(p)
                         for cx in X.charges(i) for cy in Y.charges(j)] for p in (0, 1))
    return MBF(mods[0], mods[1], diffs[0], diffs[1], X.w, grading)


def tensor_obj(X: MBF, Y: MBF) -> MBF:
    """Slot-glued tensor product with the derivation-style sign pattern."""
    if X.w != Y.w:
        raise ValueError("potential mismatch")
    return _tensor(X, Y, glue=True)


def tensor_mor(f: Morphism, g: Morphism) -> Morphism:
    """f ⊗ g with the sign (−1)^{|g|·i} on the X_i-source blocks."""
    X, Y, Xp, Yp = f.src, g.src, f.dst, g.dst
    src = tensor_obj(X, Y)
    dst = tensor_obj(Xp, Yp)
    par = (f.parity + g.parity) % 2
    ops = {}
    for sp in (0, 1):
        tp = (sp + par) % 2
        src_blocks, dst_blocks = _tensor_blocks(sp), _tensor_blocks(tp)
        blocks = [[None, None], [None, None]]
        for c, (i, j) in enumerate(src_blocks):
            fi, gj = f.op_from(i), g.op_from(j)
            ip, jp = (i + f.parity) % 2, (j + g.parity) % 2
            piece = _kron(fi, Yp.component(jp), True).compose(_kron(gj, X.component(i), False))
            blocks[dst_blocks.index((ip, jp))][c] = piece.scale(-1) if g.parity and i else piece
        ops[sp] = _block_operator(
            src.component(sp), dst.component(tp), blocks,
            [X.component(i).rank * Y.component(j).rank for i, j in src_blocks],
            [Xp.component(i).rank * Yp.component(j).rank for i, j in dst_blocks],
        )
    return Morphism(src, dst, par, ops[0], ops[1])


def _triple_layout(X: MBF, Y: MBF, Z: MBF, parity: int, left_bracketed: bool):
    """Copy order of ((X⊗Y)⊗Z) or (X⊗(Y⊗Z)) as (i,j,k,ci,cj,ck) tuples."""
    out = []
    if left_bracketed:
        for (p, k) in _tensor_blocks(parity):
            for (i, j) in _tensor_blocks(p):
                for ci in range(X.component(i).rank):
                    for cj in range(Y.component(j).rank):
                        for ck in range(Z.component(k).rank):
                            out.append((i, j, k, ci, cj, ck))
    else:
        for (i, q) in _tensor_blocks(parity):
            for ci in range(X.component(i).rank):
                for (j, k) in _tensor_blocks(q):
                    for cj in range(Y.component(j).rank):
                        for ck in range(Z.component(k).rank):
                            out.append((i, j, k, ci, cj, ck))
    return out


def _associator(X: MBF, Y: MBF, Z: MBF, forward: bool) -> Morphism:
    """(X⊗Y)⊗Z → X⊗(Y⊗Z) if `forward`, else back: a pure copy permutation."""
    left = tensor_obj(tensor_obj(X, Y), Z)
    right = tensor_obj(X, tensor_obj(Y, Z))
    src, dst = (left, right) if forward else (right, left)
    ident = Word.identity(src.shape)
    ops = {}
    for parity in (0, 1):
        s_layout = _triple_layout(X, Y, Z, parity, forward)
        t_pos = {t: n for n, t in enumerate(_triple_layout(X, Y, Z, parity, not forward))}
        ops[parity] = Operator(src.component(parity), dst.component(parity),
                               {(t_pos[key], col): (ident,) for col, key in enumerate(s_layout)})
    return Morphism(src, dst, 0, ops[0], ops[1])


def associator(X: MBF, Y: MBF, Z: MBF) -> Morphism:
    """(X⊗Y)⊗Z → X⊗(Y⊗Z): a pure copy permutation, no signs."""
    return _associator(X, Y, Z, True)


def associator_inv(X: MBF, Y: MBF, Z: MBF) -> Morphism:
    """X⊗(Y⊗Z) → (X⊗Y)⊗Z, the inverse permutation."""
    return _associator(X, Y, Z, False)


# -- the x^d defect family -------------------------------------------------------


def fermat_potential(d: int) -> MultiPoly:
    ring = Ring(("t",), d)
    return ring.var("t") ** d


def charge_matrix_ps(d: int, j: int):
    """Charge vectors of P_S with |S| = j + 1, in q_x units.

    They depend only on |S|: p_{S^c} has degree d - 1 - j and p_S degree
    j + 1, and both differentials must carry charge d/2.
    """
    if j < 0 or j > d - 2:
        raise ValueError("need 0 <= j <= d-2 for a proper residue set")
    return (Rat(-j, 2),), (Rat(j - d + 2, 2),)


def ps_object(d: int, S) -> MBF:
    """P_S = (R⊗R, R⊗R, p_{S^c}, p_S) for W = x^d, graded."""
    S = sorted(set(i % d for i in S))
    if not S or len(S) == d:
        raise ValueError("S must be a proper nonempty residue set")
    shape = SlotShape(2, 1, d)
    ring = shape.ring()
    Sc = [i for i in range(d) if i not in S]
    return mbf_from_polys(shape, [[ring.p_S(Sc)]], [[ring.p_S(S)]], fermat_potential(d),
                          charge_matrix_ps(d, len(S) - 1))


def twist_object(D: MBF, m: int, n: int) -> MBF:
    """Substitute a → η^{−m} a, b → η^{−n} b in the differentials (W = x^d);
    the charges are kept."""
    pm0 = D.d0.pure_mul_matrix()
    pm1 = D.d1.pure_mul_matrix()
    if pm0 is None or pm1 is None:
        raise ValueError("twisting needs multiplier-only differentials")
    shape = D.shape
    if shape.nvars != 1 or shape.nslots != 2:
        raise ValueError("twisting implemented for one-variable 2-slot objects")
    ring = shape.ring()
    eta = ring.root(1)
    tw = {"a": (eta ** (-m % shape.conductor), "a"), "b": (eta ** (-n % shape.conductor), "b")}
    sub = lambda p: p.subst_scale(tw, ring)
    return MBF(
        D.m0, D.m1,
        Operator.from_poly_matrix(D.m0, D.m1, pm0.map(sub)),
        Operator.from_poly_matrix(D.m1, D.m0, pm1.map(sub)),
        D.w, D.grading,
    )


def twist_iso_ps(d: int, S, m: int, n: int):
    """(twisted P_S, iso to P_{S+(m−n)}, target object)."""
    S = sorted(set(i % d for i in S))
    T = twist_object(ps_object(d, S), m, n)
    target = ps_object(d, [i + m - n for i in S])
    eta = SlotShape(2, 1, d).ring().root(1)
    phi1 = eta ** ((-m * len(S)) % d)
    iso = Morphism.from_poly_blocks(
        T, target, 0,
        [[target.shape.ring().one()]],
        [[target.shape.ring().const(phi1)]],
    )
    return T, iso, target


# -- unit object and unit isomorphisms ---------------------------------------------


def tensor_prime(X: MBF, Y: MBF) -> MBF:
    """Same-ring tensor (no junction slot): Kronecker blocks, same signs."""
    if X.shape != Y.shape:
        raise ValueError("tensor_prime factors must share the slot shape")
    return _tensor(X, Y, glue=False)


def unit_object(w: MultiPoly) -> MBF:
    """The identity defect for the potential w (any number of variables).

    One variable: rank-1 pair with the divided difference and a−b; for
    t^d, with d the conductor, these are the differentials of P_{0} and the
    object is graded like it.  Several variables: the left-bracketed
    junction-free product of the per-variable difference-quotient
    factorisations, ungraded.
    """
    if w.total_degree() < 2:
        raise ValueError("potential must have degree at least 2")
    N = len(w.ring.vars)
    shape = SlotShape(2, N, w.ring.conductor)
    ring = shape.ring()
    a_names, b_names = shape.left_names(), shape.right_names()
    grading = None
    if w.terms == {(shape.conductor,): shape.one()}:  # t^d
        grading = charge_matrix_ps(shape.conductor, 0)
    factors = []
    for i in range(N):
        assign = {w.ring.vars[j]: b_names[j] if j < i else a_names[j] for j in range(N)}
        head = w.rename(assign, ring)
        delta_i = head.divided_difference(a_names[i], b_names[i])
        lin = ring.var(a_names[i]) - ring.var(b_names[i])
        factors.append(mbf_from_polys(shape, [[delta_i]], [[lin]], w, grading))
    out = factors[0]
    for F in factors[1:]:
        out = tensor_prime(out, F)
    return out


def unit_isos(D: MBF):
    """(λ_D: I⊗D → D, ρ_D: D⊗I → D), multiplication as untwisted collapse."""
    I = unit_object(D.w)
    ID = tensor_obj(I, D)
    DI = tensor_obj(D, I)
    cl = w_collapse(ID.shape, 0)
    cr = w_collapse(DI.shape, D.shape.nslots - 1)

    def proj(src_obj, src_parity, left_block_parities, word, dst_mod, unit_left):
        i, j = left_block_parities
        off = _block_offset(*( (I, D) if unit_left else (D, I) ), src_parity, i, j)
        unit_copies = I.component(i if unit_left else j).rank
        # copies ordered (unit copy, D copy) or (D copy, unit copy); the unit
        # generator is copy 0
        step = 1 if unit_left else unit_copies
        return Operator(src_obj.component(src_parity), dst_mod,
                        {(c, off + c * step): (word,) for c in range(dst_mod.rank)})

    lam = Morphism(
        ID, D, 0,
        proj(ID, 0, (0, 0), cl, D.m0, True),
        proj(ID, 1, (0, 1), cl, D.m1, True),
    )
    rho = Morphism(
        DI, D, 0,
        proj(DI, 0, (0, 0), cr, D.m0, False),
        proj(DI, 1, (1, 0), cr, D.m1, False),
    )
    return lam, rho


def unit_isos_inverse(D: MBF):
    """(λ_D⁻¹, ρ_D⁻¹) via the divided-difference pattern; one variable only."""
    if D.shape.nvars != 1 or D.shape.nslots != 2:
        raise ValueError("inverse unit isomorphisms: one-variable 2-slot objects only")
    pm0 = D.d0.pure_mul_matrix()
    pm1 = D.d1.pure_mul_matrix()
    if pm0 is None or pm1 is None:
        raise ValueError("inverse unit isomorphisms need multiplier-only differentials")
    I = unit_object(D.w)
    ID = tensor_obj(I, D)
    DI = tensor_obj(D, I)
    ins = w_insert(D.shape, 1)
    ring3 = ID.shape.ring()
    lift = lambda p: p.rename({}, ring3)

    def dd_into_x(p):  # (p(a,b) − p(x1,b)) / (a − x1)
        return lift(p).divided_difference("a", "x1")

    def dd_from_b(p):  # (p(a,x1) − p(a,b)) / (x1 − b)
        return lift(p).rename({"b": "x1"}, ring3).divided_difference("x1", "b")

    r0, r1 = D.m0.rank, D.m1.rank
    minus = Cyclo.from_rat(D.shape.conductor, -1)

    def leg(src_mod, corr, diag_at, corr_at, negate=False):
        # insert on the diagonal of the block at row diag_at and ±corr∘insert
        # in the block at row corr_at of a tensor parity part (ID and DI
        # share the 3-slot shape)
        cells = {(diag_at + c, c): (ins,) for c in range(src_mod.rank)}
        for i, row in enumerate(corr):
            for j, p in enumerate(row):
                if not p.is_zero():
                    w = ins.then(w_mul(ID.shape, p))
                    cells[corr_at + i, j] = (w.scaled(minus) if negate else w,)
        return Operator(src_mod, FreeBimod(ID.shape, r0 + r1), cells)

    q0 = [[dd_into_x(pm0[i, j]) for j in range(r0)] for i in range(r1)]
    q1 = [[dd_into_x(pm1[i, j]) for j in range(r1)] for i in range(r0)]
    # even part into (I0 D0, I1 D1), odd part into (I1 D0, I0 D1)
    lam_inv = Morphism(D, ID, 0, leg(D.m0, q0, 0, r0), leg(D.m1, q1, r0, 0))
    s0 = [[dd_from_b(pm0[i, j]) for j in range(r0)] for i in range(r1)]
    s1 = [[dd_from_b(pm1[i, j]) for j in range(r1)] for i in range(r0)]
    # even part into (D0 I0, D1 I1), odd part into (D1 I0, D0 I1)
    rho_inv = Morphism(D, DI, 0, leg(D.m0, s0, 0, r0), leg(D.m1, s1, 0, r1, negate=True))
    return lam_inv, rho_inv


def homotopy_psi(D: MBF, side: str) -> Morphism:
    """The odd divided-transfer homotopy for λ (side='left') or ρ (side='right')."""
    if D.shape.nvars != 1 or D.shape.nslots != 2:
        raise ValueError("homotopy witnesses: one-variable 2-slot objects only")
    I = unit_object(D.w)
    r0, r1 = D.m0.rank, D.m1.rank
    if side == "left":
        ID = tensor_obj(I, D)
        td = (w_tdiv(ID.shape, "x1", "a"),)
        opE = Operator(ID.m0, ID.m1, {(c, c): td for c in range(r0)})  # I0 D0 → I1 D0
        opO = Operator(ID.m1, ID.m0, {(r0 + c, r0 + c): td for c in range(r1)})  # I0 D1 → I1 D1
        return Morphism(ID, ID, 1, opE, opO)
    if side == "right":
        DI = tensor_obj(D, I)
        td = w_tdiv(DI.shape, "x1", "b")
        minus = (td.scaled(Cyclo.from_rat(DI.shape.conductor, -1)),)
        opE = Operator(DI.m0, DI.m1, {(r1 + c, c): minus for c in range(r0)})  # D0 I0 → D0 I1, sign −
        opO = Operator(DI.m1, DI.m0, {(r0 + c, c): (td,) for c in range(r1)})  # D1 I0 → D1 I1
        return Morphism(DI, DI, 1, opE, opO)
    raise ValueError("side must be 'left' or 'right'")


def unit_coincidence_check(d: int):
    """Left and right unit maps agree on the unit object itself, certified by
    exact composites: λ_I∘λ_I⁻¹ = id and ρ_I∘λ_I⁻¹ = id."""
    I = unit_object(fermat_potential(d))
    lam, rho = unit_isos(I)
    lam_inv, _ = unit_isos_inverse(I)
    ident = Morphism.identity(I)
    ok1, mode1 = morphism_equal(lam.compose(lam_inv), ident)
    ok2, mode2 = morphism_equal(rho.compose(lam_inv), ident)
    return {
        "lam_after_laminv": {"ok": ok1, "mode": mode1},
        "rho_after_laminv": {"ok": ok2, "mode": mode2},
        "ok": ok1 and ok2,
    }


def mu_relation_check(w: MultiPoly):
    """Collapse-to-a-point relations of the unit: μ∘ι₀ = [∂W]∘μ and μ∘ι₁ = 0."""
    I = unit_object(w)
    if I.shape.nvars != 1:
        raise ValueError("one-variable potentials only")
    two = I.shape
    one_slot = SlotShape(1, 1, two.conductor)
    onesr = one_slot.ring()
    m = {"a": (Cyclo.one(two.conductor), "t"), "b": (Cyclo.one(two.conductor), "t")}
    mu_word = Word.of(PSubst(two, one_slot, m))
    src0 = FreeBimod(two, 1)
    tgt = FreeBimod(one_slot, 1)
    mu = Operator(src0, tgt, {(0, 0): (mu_word,)})
    dw = w.rename({w.ring.vars[0]: "t"}, onesr).derivative("t")
    want = Operator(src0, tgt, {(0, 0): (mu_word.then(w_mul(one_slot, dw)),)})
    ok0, mode0 = op_equal(mu.compose(I.d0), want)
    ok1, mode1 = op_equal(mu.compose(I.d1), Operator(src0, tgt))
    return {"mu_iota0": {"ok": ok0, "mode": mode0}, "mu_iota1": {"ok": ok1, "mode": mode1}}


# -- coherence checks --------------------------------------------------------------


def triangle_check(X: MBF, Y: MBF):
    """(id_X ⊗ λ_Y) ∘ α_{X,I,Y} = ρ_X ⊗ id_Y."""
    I = unit_object(X.w)
    lam_Y, _ = unit_isos(Y)
    _, rho_X = unit_isos(X)
    alpha = associator(X, I, Y)
    lhs = tensor_mor(Morphism.identity(X), lam_Y).compose(alpha)
    rhs = tensor_mor(rho_X, Morphism.identity(Y))
    eq, mode = morphism_equal(lhs, rhs)
    return {"ok": eq, "mode": mode}


def pentagon_check(W: MBF, X: MBF, Y: MBF, Z: MBF):
    lhs = associator(W, X, tensor_obj(Y, Z)).compose(associator(tensor_obj(W, X), Y, Z))
    rhs = (
        tensor_mor(Morphism.identity(W), associator(X, Y, Z))
        .compose(associator(W, tensor_obj(X, Y), Z))
        .compose(tensor_mor(associator(W, X, Y), Morphism.identity(Z)))
    )
    eq, mode = morphism_equal(lhs, rhs)
    return {"ok": eq, "mode": mode}


def rxa_lemma_check(d: int, phi: MultiPoly | None = None):
    """The three divided-transfer identities on a 3-slot chain."""
    shape = SlotShape(3, 1, d)
    ring = shape.ring()
    mod = FreeBimod(shape, 1)
    a, x = ring.var("a"), ring.var("x1")
    single = lambda word: Operator(mod, mod, {(0, 0): (word,)})
    td = single(w_tdiv(shape, "x1", "a"))
    mul_ax = single(w_mul(shape, a - x))
    transfer = single(w_transfer(shape, "x1", "a"))
    ident = Operator.identity(mod)
    report = {}
    eq, mode = op_equal(td.compose(mul_ax), ident.scale(-1))
    report["i"] = {"ok": eq, "mode": mode}
    eq, mode = op_equal(mul_ax.compose(td), transfer - ident)
    report["ii"] = {"ok": eq, "mode": mode}
    if phi is None:
        phi = ring.p_S([1], "x1", "b") * ring.var("b") + ring.var("x1") ** 2
    else:
        phi = phi.rename({}, ring)
    mul_phi = single(w_mul(shape, phi))
    lhs = td.compose(mul_phi) - mul_phi.compose(td)
    dd_phi = phi.rename({"x1": "a", "a": "a"}, ring).divided_difference("a", "x1")
    rhs = single(w_transfer(shape, "x1", "a").then(w_mul(shape, dd_phi)))
    eq, mode = op_equal(lhs, rhs)
    report["iii"] = {"ok": eq, "mode": mode}
    report["ok"] = all(report[k]["ok"] for k in ("i", "ii", "iii"))
    return report
