"""Matrix bi-factorisations over free polynomial slot chains.

An object lives on a chain of polynomial slots R ⊗ R ⊗ ... ⊗ R; the outer
slots carry the left/right variable groups (a, b), internal slots are
junction variables x1, x2, ....  Maps between such chains are formal sums of
generator words built from a handful of primitives (multiplication, variable
substitution, divided transfer, division with remainder, coefficient
extraction), each of which commutes with the outer bimodule action.  That
invariant is what makes equality decidable here:

* any two operators agree iff they agree on all internal-slot monomials, and
* from a 2-slot source there are no internal slots, so the images of the
  copy generators (`Operator.matrix`) describe a map completely and
  comparing them is an exact test.

Operators between two 2-slot chains are matrix-held: they compose by
the matrix product.  `op_equal` compares any two operators out of a 2-slot
source by their generator matrices, whatever the target (for matrix-held
operators these are their rows), and normalises no word.  A pair out of a
source with internal slots goes through two tiers: structurally after word
normalization (substitution merging, multiplier merging and pushing), then
pointwise on internal monomials up to a total degree: evidence, not
proof.  Only `op_equal` and `morphism_equal` take
that degree (`cutoff`); the checks built on them sweep to 30
(`DEFAULT_CUTOFF`), the homotopy witnesses of `mbf compare fusion` to 2d.
With one internal variable the sweep of a copy stops at that copy's
shift-annihilator order N when N <= cutoff + 1 (`_annihilator_orders`): the
values on x^k obey a monic recurrence of order N, so N zeros prove the rest,
and those N are the full sweep's first, so every verdict and counterexample
is the full sweep's.  A True keeps the label `verified-to-cutoff` and no
report changes; the benchmark's digests hash that label, so a label of its
own waits for a change of the benchmark.

An `Operator` is an immutable sparse matrix, {(row, col): tuple of words}.
Because it cannot change, it caches its normal form and its generator
matrix, a tuple of row tuples of polynomials, and keeps each of its lifts
(`Operator.lift`).  `Operator.from_poly_matrix` is the one place that
checks such a matrix (its shape and its ring).  An operator made from rows
holds only those rows and is its own normal form; its words are built on
the first read of `cells`.

`Operator.apply_basis`, the image of one monomial in one copy, is the one
evaluation: the sweep, `matrix()` and the probes of `fusion` all go
through it, and it is shared by every operator of the process.  A word
prefix's image on a monomial is read from one trie per source shape and
exponent tuple (`_IMAGE_ROOTS`), whose steps are keyed by primitive
tokens (`_prim_token`): primitives that compute the same images share one
token, so the witnesses of different fusion pairs, each built anew, find
the prefixes they have in common already evaluated, and a quotient and a
remainder by one modulus share one division.  The memo is bounded: it is
emptied once it has made `_IMAGE_BOUND` nodes, while the token table
(`_token_of`) is never emptied, so a primitive keeps its token.  Each
target row is summed in one dict.  A substitution and a coefficient
extraction prepare their index maps on their first `apply` and keep
them.  Annihilator orders read each word's factors from
`_ANNIHILATOR_CACHE`, one entry per process for each source shape,
internal variable and tuple of non-multiplier tokens.  Every
other process memo is a functools cache (`Operator.identity`,
`_ps_object`, `_token_of`, reporting through `cache_info()`) or an
attribute of the interned object that owns it (a `SlotShape`'s ring); the
module dicts `_SHAPES`, `_ANNIHILATOR_CACHE`, `_IMAGE_ROOTS` and the weak
`_TENSOR_CACHE` say why they are dicts.
An `MBF` is immutable too, and so is a `Morphism`.  `ps_object` memoises
P_S, one object per (d, S).  `tensor_obj` hands out one product per pair of
factors for as long as something else holds it (`_TENSOR_CACHE`, a
`weakref.WeakValueDictionary` keyed by the factors): the junction checks ask
for the same products over and over, while a strong cache would keep every
product of a fusion sweep alive with its evaluation memos.  A product builds
only its modules and charges at once: the differential is built on its first
read.  Most products only name the endpoints of a tensor product of maps or
an associator and never have it read.

One routine, `_tensor_legs`, builds every f ⊗ g, the differential
d_X ⊗ 1 + 1 ⊗ d_Y of X ⊗ Y included; `tensor_copy` is the one copy index
of X ⊗ Y, which the associator, the unit maps and `fusion.reduce_tensor`
read.  `slot_map` builds every renaming from one slot chain to another: a
lift into a glued chain, inserting, collapsing or dropping a junction slot.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from operator import add as _add
from types import MappingProxyType

from ._rat import Rat
from .exactalg import Cyclo, modular_prime
from .polycalc import MultiPoly, Ring, RingMismatch, product_terms, subst_plan

DEFAULT_CUTOFF = 30

# (nslots, nvars, conductor) -> its one SlotShape.  A dict, not a functools
# cache, because interning happens in `SlotShape.__new__`.
_SHAPES: dict = {}


class SlotShape:
    """A chain of nslots polynomial slots, nvars variables per slot.

    Interned: one instance per (nslots, nvars, conductor) for the process
    (`_SHAPES`), so equality is identity, the default `==`, and the tuple
    keys of the evaluation memos that hold shapes compare without a Python
    call.  The hash stays that of the key tuple.  Each shape builds its
    ring once, when it is made, and `ring()` returns it.
    """

    __slots__ = ("nslots", "nvars", "conductor", "_ring", "_hash")

    def __new__(cls, nslots: int, nvars: int, conductor: int):
        key = (nslots, nvars, conductor)
        self = _SHAPES.get(key)
        if self is None:
            if nslots < 1 or nvars < 1:
                raise ValueError("need at least one slot and one variable")
            self = object.__new__(cls)
            object.__setattr__(self, "nslots", nslots)
            object.__setattr__(self, "nvars", nvars)
            object.__setattr__(self, "conductor", conductor)
            object.__setattr__(self, "_hash", hash(key))
            names = [v for s in range(nslots) for v in self.slot_names(s)]
            object.__setattr__(self, "_ring", Ring(names, conductor))
            self = _SHAPES.setdefault(key, self)
        return self

    def __setattr__(self, *a):
        raise AttributeError("SlotShape is immutable")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"SlotShape({self.nslots}, nvars={self.nvars}, zeta_{self.conductor})"

    def slot_names(self, slot: int) -> tuple:
        if self.nslots == 1:
            base = "t"
        elif slot == 0:
            base = "a"
        elif slot == self.nslots - 1:
            base = "b"
        else:
            base = f"x{slot}"
        if self.nvars == 1:
            return (base,)
        if base[0] == "x":
            return tuple(f"{base}_{j}" for j in range(1, self.nvars + 1))
        return tuple(f"{base}{j}" for j in range(1, self.nvars + 1))

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
        return self._ring

    def widen(self, left: int, right: int) -> "SlotShape":
        """This chain with `left` slots glued on before it and `right` after."""
        return SlotShape(left + self.nslots + right, self.nvars, self.conductor)

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


def slot_map(src: SlotShape, dst: SlotShape, place) -> dict:
    """{variable of `src`: variable of `dst`}: the variables of slot s of
    `src` go to those of slot place(s) of `dst`, in order; a slot placed at
    None is dropped.  Every renaming between two slot chains is made here."""
    out = {}
    for s in range(src.nslots):
        d = place(s)
        if d is not None:
            out.update(zip(src.slot_names(s), dst.slot_names(d)))
    return out


class PMul:
    """Multiply by a fixed polynomial of the (unchanged) slot ring."""

    __slots__ = ("shape", "poly", "_token")

    def __init__(self, shape: SlotShape, poly: MultiPoly):
        ring = shape.ring()
        if poly.ring is not ring and poly.ring != ring:
            raise ValueError("multiplier not in the slot ring")
        self.shape = shape
        self.poly = poly
        self._token = None

    src = property(lambda self: self.shape)
    dst = property(lambda self: self.shape)

    def apply(self, p: MultiPoly) -> MultiPoly:
        return p * self.poly

    def signature(self):
        return ("mul", self.shape, self.poly)

    def lift(self, left: int, asrc: SlotShape, adst: SlotShape) -> "PMul":
        names = slot_map(self.shape, asrc, lambda s: left + s)
        return PMul(asrc, self.poly.rename(names, asrc.ring()))


class PSubst:
    """Ring map var -> scalar * var between slot rings.

    Outer slots must map to the corresponding outer slots with scalar 1;
    internal variables may go anywhere with any scalar.  That keeps every
    substitution a bimodule map for the outer action.  The first `apply`
    prepares the map (`polycalc.subst_plan`) and keeps it; most
    substitutions are built, merged or lifted and never applied.
    """

    __slots__ = ("src", "dst", "mapping", "_signature", "_plan", "_token")

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
        for side, snames, dnames in (("left", src.left_names(), dst.left_names()),
                                     ("right", src.right_names(), dst.right_names())):
            for sv, dv in zip(snames, dnames):
                c, w = norm[sv]
                if w != dv or c != one:
                    raise ValueError(f"outer-{side} variable {sv!r} must map to {dv!r} untwisted")
        self.src = src
        self.dst = dst
        self.mapping = norm
        self._signature = ("subst", src, dst, frozenset(norm.items()))
        self._plan = None
        self._token = None

    def apply(self, p: MultiPoly) -> MultiPoly:
        if self._plan is None:
            sring, dring = self.src.ring(), self.dst.ring()
            self._plan = (sring, dring, subst_plan(sring, self.mapping, dring))
        sring, dring, plan = self._plan
        if p.ring is not sring and p.ring != sring:
            raise RingMismatch(f"{p.ring} vs {sring}")
        return p.substituted(plan, dring)

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
        return self._signature

    def lift(self, left: int, asrc: SlotShape, adst: SlotShape) -> "PSubst":
        # glued slots map untwisted, those after the chain past its target
        end, grow = left + self.src.nslots, self.dst.nslots - self.src.nslots
        glued = slot_map(asrc, adst, lambda s: s if s < left else s + grow if s >= end else None)
        src_emb = slot_map(self.src, asrc, lambda s: left + s)
        dst_emb = slot_map(self.dst, adst, lambda s: left + s)
        one = Cyclo.one(asrc.conductor)
        m = {v: (one, w) for v, w in glued.items()}
        m.update((src_emb[v], (c, dst_emb[w])) for v, (c, w) in self.mapping.items())
        return PSubst(asrc, adst, m)


class PTDiv:
    """Divided transfer: p ↦ (p − p[v1→v2]) / (v1 − v2), shape preserved."""

    __slots__ = ("shape", "v1", "v2", "_token")

    def __init__(self, shape: SlotShape, v1: str, v2: str):
        ring = shape.ring()
        ring.index(v1), ring.index(v2)
        if v1 == v2:
            raise ValueError(f"a divided transfer needs two variables, got {v1!r} twice")
        self.shape = shape
        self.v1 = v1
        self.v2 = v2
        self._token = None

    src = property(lambda self: self.shape)
    dst = property(lambda self: self.shape)

    def apply(self, p: MultiPoly) -> MultiPoly:
        return p.divided_difference(self.v1, self.v2)

    def signature(self):
        return ("tdiv", self.shape, self.v1, self.v2)

    def lift(self, left, asrc, adst):
        emb = slot_map(self.shape, asrc, lambda s: left + s)
        return PTDiv(asrc, emb[self.v1], emb[self.v2])


class PQuo:
    """One part of division with remainder by a divisor monic in one variable.

    `part` is "quo" for the quotient or "rem" for the remainder.
    """

    __slots__ = ("shape", "modulus", "var", "part", "_token")

    def __init__(self, shape: SlotShape, modulus: MultiPoly, var: str, part: str):
        ring = shape.ring()
        if modulus.ring is not ring and modulus.ring != ring:
            raise ValueError("modulus not in the slot ring")
        if part not in ("quo", "rem"):
            raise ValueError(f"division part must be 'quo' or 'rem', not {part!r}")
        self.shape = shape
        self.modulus = modulus
        self.var = var
        self.part = part
        self._token = None

    src = property(lambda self: self.shape)
    dst = property(lambda self: self.shape)

    def apply(self, p: MultiPoly) -> MultiPoly:
        quo, rem = p.divmod_in_var(self.modulus, self.var)
        return quo if self.part == "quo" else rem

    def signature(self):
        return (self.part, self.shape, self.modulus, self.var)

    def lift(self, left, asrc, adst):
        emb = slot_map(self.shape, asrc, lambda s: left + s)
        return PQuo(asrc, self.modulus.rename(emb, asrc.ring()), emb[self.var], self.part)


class PCoeff:
    """Extract the coefficient of var^k and drop that internal slot.

    With one variable per slot, the slot of `var` is its index in the ring,
    and the target ring is the source ring without it (`to_dst`).  So
    `apply` copies the terms whose exponent in `var` is k, with that index
    dropped, in one pass: distinct terms stay distinct and none is zero.
    The rings and the index are looked up on the first `apply`.
    """

    __slots__ = ("shape", "dst_shape", "var", "k", "_at", "_token")

    def __init__(self, shape: SlotShape, var: str, k: int):
        if shape.nvars != 1:
            raise ValueError("coefficient extraction implemented for one-variable slots")
        if var not in shape.internal_names():
            raise ValueError(f"{var!r} is not an internal slot variable")
        self.shape = shape
        self.dst_shape = SlotShape(shape.nslots - 1, 1, shape.conductor)
        self.var = var
        self.k = k
        self._at = None
        self._token = None

    src = property(lambda self: self.shape)
    dst = property(lambda self: self.dst_shape)

    @property
    def to_dst(self) -> dict:
        """{source variable: target variable}; `var` is dropped."""
        slot = self.shape.ring().index(self.var)
        return slot_map(self.shape, self.dst_shape,
                        lambda s: s if s < slot else s - 1 if s > slot else None)

    def apply(self, p: MultiPoly) -> MultiPoly:
        if self._at is None:
            sring = self.shape.ring()
            self._at = (sring, self.dst_shape.ring(), sring.index(self.var))
        sring, dring, i = self._at
        if p.ring is not sring and p.ring != sring:
            raise RingMismatch(f"{p.ring} vs {sring}")
        k, j = self.k, i + 1
        return MultiPoly._raw(dring, {e[:i] + e[j:]: c for e, c in p.terms.items() if e[i] == k})

    def signature(self):
        return ("coeff", self.shape, self.var, self.k)

    def lift(self, left, asrc, adst):
        emb = slot_map(self.shape, asrc, lambda s: left + s)
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
        """The word applied to p, primitive by primitive, with no memo: the
        reference for `Operator.apply_basis`."""
        for prim in self.prims:
            p = prim.apply(p)
        return p if self.coeff.is_one() else p * self.coeff

    def then(self, other: "Word") -> "Word":
        if self.dst != other.src:
            raise ValueError("word shapes do not chain")
        # a word without primitives is an identity times its coefficient
        if not other.prims and other.coeff.is_one():
            return self
        if not self.prims and self.coeff.is_one():
            return other
        return Word(self.coeff * other.coeff, self.prims + other.prims, self.src, other.dst)

    def scaled(self, c: Cyclo) -> "Word":
        return Word(self.coeff * c, self.prims, self.src, self.dst)

    def normalized(self):
        """Merged/pushed normal form; None if the word is zero."""
        coeff = self.coeff
        if coeff.is_zero():
            return None
        stack: list = []
        for first in self.prims:
            # primitives still to push, last one next: a substitution pushed
            # past a multiplier is pushed before the moved multiplier
            todo = [first]
            while todo:
                prim = todo.pop()
                if isinstance(prim, PMul):
                    cv = prim.poly.constant_value()
                    if cv is not None:
                        coeff = coeff * cv
                    elif stack and isinstance(stack[-1], PMul):
                        todo.append(PMul(prim.shape, stack.pop().poly * prim.poly))
                    else:
                        stack.append(prim)
                elif isinstance(prim, PSubst):
                    if stack and isinstance(stack[-1], PMul):
                        todo.append(PMul(prim.dst, prim.apply(stack.pop().poly)))
                        todo.append(prim)
                    elif stack and isinstance(stack[-1], PSubst):
                        merged = stack.pop().merge(prim)
                        if not merged.is_identity():
                            stack.append(merged)
                    elif not prim.is_identity():
                        stack.append(prim)
                else:
                    stack.append(prim)
            if coeff.is_zero():
                return None
        return Word(coeff, tuple(stack), self.src, self.dst)

    def signature(self):
        return (self.src, self.dst, tuple(p.signature() for p in self.prims))

    def lift(self, left: int, right: int) -> "Word":
        prims = tuple(p.lift(left, p.src.widen(left, right), p.dst.widen(left, right))
                      for p in self.prims)
        return Word(self.coeff, prims, self.src.widen(left, right), self.dst.widen(left, right))

    def __repr__(self):
        inner = "∘".join(p.signature()[0] for p in reversed(self.prims)) or "id"
        return f"({self.coeff})*{inner}"


def w_mul(shape: SlotShape, poly: MultiPoly) -> Word:
    return Word.of(PMul(shape, poly))


def w_insert(src: SlotShape, position: int) -> Word:
    """r ⊗ s ↦ r ⊗ 1 ⊗ s: a new internal slot at `position`."""
    dst = SlotShape(src.nslots + 1, src.nvars, src.conductor)
    one = Cyclo.one(src.conductor)
    names = slot_map(src, dst, lambda s: s if s < position else s + 1)
    return Word.of(PSubst(src, dst, {v: (one, w) for v, w in names.items()}))


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
    if twist_on not in ("left", "right"):
        raise ValueError(f"twist_on must be 'left' or 'right', got {twist_on!r}")
    dst = SlotShape(src.nslots - 1, src.nvars, src.conductor)
    one = Cyclo.one(src.conductor)
    names = slot_map(src, dst, lambda s: s if s <= pair_left else s - 1)
    m = {v: (one, w) for v, w in names.items()}
    if scalar is not None:
        for v in src.slot_names(pair_left + (twist_on == "right")):
            m[v] = (scalar, names[v])
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


def _holds_rows(src: FreeBimod, dst: FreeBimod) -> bool:
    """Whether an operator src -> dst is held as its matrix: both ends lie on
    one 2-slot chain, where a map is multiplication by its generator matrix."""
    return src.shape.nslots == 2 and dst.shape == src.shape


def _row_product(A: tuple, B: tuple, ncols: int, ring: Ring) -> tuple:
    """The matrix product A·B of two tuples of row tuples of polynomials in
    `ring`, B with `ncols` columns; each entry's terms accumulate in one dict."""
    out = []
    for row in A:
        new = []
        for j in range(ncols):
            acc: dict = {}
            for p, brow in zip(row, B):
                q = brow[j]
                if p.terms and q.terms:
                    for ea, ca in p.terms.items():
                        for eb, cb in q.terms.items():
                            e = tuple(map(_add, ea, eb))
                            s = acc.get(e)
                            acc[e] = ca * cb if s is None else s + ca * cb
            new.append(MultiPoly(ring, acc))
        out.append(tuple(new))
    return tuple(out)


class Operator:
    """Sparse matrix of formal word sums between free slot modules.

    `cells` maps (row, col) to the tuple of words summed in that entry, in
    row-major key order; a missing key is a zero entry.  The constructor
    copies what it is given into a read-only view, so an operator never
    changes: its normal form and its generator matrix are computed at most
    once and cached, and a normal form is its own normal form.

    Between two 2-slot chains of one shape an operator is matrix-held
    (`matrix_held`): every primitive commutes with the outer bimodule
    action, so such a map is multiplication by its generator matrix, and its
    algebra works on the rows.  `compose` multiplies two of them; a
    composite whose ends are 2-slot but which passes through internal slots
    (proj∘incl, λ∘λ⁻¹) is composed word by word and evaluated to rows once,
    through `matrix()`.  `+`, `-` and `scale` act entry by entry, `identity`
    is the identity matrix and `op_equal` compares rows.  An operator made
    from rows (`from_poly_matrix`, or the algebra above) holds only its rows
    and is its own normal form; the first read of `cells` builds one
    normal-form word per non-zero entry.  Only `lift`, `compose` of a word
    operator with it, `_kron` and `validate_mbf`'s violation detail read
    those words.

    `apply_basis` is the one evaluation: it reads each word prefix's image
    from the process's trie of the input monomial (`_shared_root`,
    `_prefix_image`), so each prefix is evaluated once per monomial across
    every cell, call and operator until the shared memo reaches its bound
    and is emptied.  A `quo` and a `rem` by one modulus on one input share
    one `divmod_in_var`.  `lift` keeps each lift it makes in `_lifts`.
    """

    # _cells: the read-only cells, or None on an operator made from rows
    # until `cells` is first read
    # _normal: None until computed, True on a normal form, else the normal form
    # _plan: None until the first evaluation, then per source copy the
    # (row, its words' `_word_steps`) of each cell of that column
    __slots__ = ("src", "dst", "_cells", "_normal", "_pm", "_plan", "_lifts")

    def __init__(self, src: FreeBimod, dst: FreeBimod, cells=None):
        cells = {k: tuple(ws) for k, ws in sorted(cells.items()) if ws} if cells else {}
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "_cells", MappingProxyType(cells))
        object.__setattr__(self, "_normal", None)
        object.__setattr__(self, "_pm", None)
        object.__setattr__(self, "_plan", None)
        object.__setattr__(self, "_lifts", {})

    def __setattr__(self, *a):
        raise AttributeError("Operator is immutable")

    @classmethod
    def _of_rows(cls, src: FreeBimod, dst: FreeBimod, pm: tuple) -> "Operator":
        """Multiplication by the unchecked matrix `pm`, a tuple of row tuples,
        kept as its `matrix()`; the operator is its own normal form and has
        no words until `cells` is read."""
        op = cls(src, dst)
        object.__setattr__(op, "_cells", None)
        object.__setattr__(op, "_pm", pm)
        object.__setattr__(op, "_normal", True)
        return op

    @property
    def cells(self):
        """The read-only {(row, col): tuple of words}.  On an operator made
        from rows the words are built on the first read, in normal form: a
        constant entry as a coefficient and any other as one multiplication."""
        if self._cells is None:
            shape, cells = self.src.shape, {}
            for i, row in enumerate(self._pm):
                for j, p in enumerate(row):
                    if p.terms:
                        cv = p.constant_value()
                        cells[i, j] = (w_mul(shape, p) if cv is None else Word(cv, (), shape, shape),)
            object.__setattr__(self, "_cells", MappingProxyType(cells))
        return self._cells

    @property
    def matrix_held(self) -> bool:
        """Whether both ends lie on one 2-slot chain, so the algebra of this
        operator works on its rows."""
        return _holds_rows(self.src, self.dst)

    @staticmethod
    @functools.cache
    def identity(mod: FreeBimod) -> "Operator":
        """The identity of `mod`: one identity word per copy, and on a 2-slot
        chain the identity matrix too.  It is immutable, so there is one per
        module and process (a functools cache)."""
        return _diagonal(mod, mod.shape.ring().one())

    @staticmethod
    def from_poly_matrix(src: FreeBimod, dst: FreeBimod, rows) -> "Operator":
        """Multiplication by the matrix `rows`, kept as the operator's `matrix()`.

        This is the one check of a matrix: dst.rank rows of src.rank entries
        (else ValueError), each in the ring of the shared shape (else
        RingMismatch).  The operator is built in normal form (`_of_rows`)."""
        if src.shape != dst.shape:
            raise ValueError("from_poly_matrix needs equal shapes")
        ring = src.shape.ring()
        pm = tuple(tuple(row) for row in rows)
        if len(pm) != dst.rank or any(len(row) != src.rank for row in pm):
            raise ValueError("matrix shape mismatch")
        for row in pm:
            for p in row:
                if p.ring is not ring and p.ring != ring:
                    raise RingMismatch(f"entry ring {p.ring} vs {ring}")
        return Operator._of_rows(src, dst, pm)

    def compose(self, first: "Operator") -> "Operator":
        """self ∘ first (apply `first`, then self): the product of the rows
        if all three chains are one 2-slot chain, else the words composed,
        evaluated to rows if the ends are matrix-held."""
        if first.dst != self.src:
            raise ValueError(f"cannot compose {first.dst} into {self.src}")
        src, dst = first.src, self.dst
        held = _holds_rows(src, dst)
        if held and self.src.shape == src.shape:
            return Operator._of_rows(src, dst, _row_product(
                self.matrix(), first.matrix(), src.rank, src.shape.ring()))
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
        op = Operator(src, dst, out)
        return Operator._of_rows(src, dst, op.matrix()) if held else op

    def __add__(self, other: "Operator") -> "Operator":
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("operator shape mismatch in sum")
        if _holds_rows(self.src, self.dst):
            return Operator._of_rows(self.src, self.dst, tuple(
                tuple(p + q for p, q in zip(r, s)) for r, s in zip(self.matrix(), other.matrix())))
        out = dict(self.cells)
        for k, ws in other.cells.items():
            out[k] = out[k] + ws if k in out else ws
        return Operator(self.src, self.dst, out)

    def scale(self, c) -> "Operator":
        cc = c if isinstance(c, Cyclo) else Cyclo.from_rat(self.src.shape.conductor, c)
        if _holds_rows(self.src, self.dst):
            return Operator._of_rows(self.src, self.dst, tuple(
                tuple(p * cc for p in row) for row in self.matrix()))
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

    def lift(self, left: int, right: int) -> "Operator":
        """The same map on the chain with `left` slots glued on before and
        `right` after: every word lifted once, and the lift kept, since the
        operator cannot change (`_lifts`)."""
        op = self._lifts.get((left, right))
        if op is None:
            mod = lambda m: FreeBimod(m.shape.widen(left, right), m.rank)
            op = self._lifts[left, right] = Operator(mod(self.src), mod(self.dst), {
                k: [w.lift(left, right) for w in ws] for k, ws in self.cells.items()})
        return op

    def apply_basis(self, copy: int, exps: dict) -> list:
        """The image of the monomial `exps` in copy `copy`, one polynomial per
        target row: that of summing `Word.apply` over each cell of column
        `copy`, term order included.

        Each target row is one dict: each word's prefix image
        (`_prefix_image`) is multiplied by its trailing multiplier and its
        coefficient on the way in and added term by term, a sum that
        vanishes deleting its term, as `+` of the word images in cell order
        would.  The first call prepares every word once (`_word_steps`),
        grouped by source copy (`_plan`)."""
        if self._plan is None:
            plan = [[] for _ in range(self.src.rank)]
            for (i, j), ws in self.cells.items():
                plan[j].append((i, tuple(_word_steps(w) for w in ws if not w.coeff.is_zero())))
            object.__setattr__(self, "_plan", tuple(map(tuple, plan)))
        root = _shared_root(self.src.shape, self.src.shape.ring().monomial(exps))
        rows = [{} for _ in range(self.dst.rank)]
        for i, words in self._plan[copy]:
            acc = rows[i]
            for steps, mul, c in words:
                terms = self._prefix_image(steps, root).terms
                if mul is not None:
                    terms = product_terms(terms, mul)
                for e, v in terms.items():
                    if c is not None:
                        v = v * c
                    s = acc.get(e)
                    if s is None:
                        acc[e] = v
                    else:
                        s = s + v
                        if s.is_zero():
                            del acc[e]
                        else:
                            acc[e] = s
        ring = self.dst.shape.ring()
        return [MultiPoly._raw(ring, acc) for acc in rows]

    @staticmethod
    def _prefix_image(steps: tuple, node: tuple) -> MultiPoly:
        """The image of a word prefix, given as its `_word_steps`, on the
        input of the trie node `node`.

        Each node is (image, children): the children of a prefix's node are
        keyed by the token of the next primitive (`_prim_token`), so words
        of any operator that share primitives share their images.  A `quo`
        and a `rem` by one modulus have the tokens 2t and 2t + 1, and one
        `divmod_in_var` fills both.
        """
        for key, prim in steps:
            p, children = node
            node = children.get(key)
            if node is None:
                if type(prim) is PQuo:
                    quo, rem = p.divmod_in_var(prim.modulus, prim.var)
                    children[key & -2] = (quo, {})
                    children[key | 1] = (rem, {})
                    node = children[key]
                    _count_images(2)
                else:
                    node = children[key] = (prim.apply(p), {})
                    _count_images(1)
        return node[0]

    def matrix(self) -> tuple:
        """The images of the copy generators as a tuple of row tuples: column
        j is the image of copy j.

        From a 2-slot source this is the whole map; an operator made from
        rows returns them, any other evaluates each generator once
        (`apply_basis`).  From a source with internal slots the images are
        not faithful, so without rows that raises ValueError.
        """
        if self._pm is None:
            if self.src.shape.nslots > 2:
                raise ValueError("generator matrix is only faithful for 2-slot sources")
            cols = [self.apply_basis(j, {}) for j in range(self.src.rank)]
            object.__setattr__(self, "_pm", tuple(
                tuple(col[i] for col in cols) for i in range(self.dst.rank)))
        return self._pm


def _word_steps(w: Word) -> tuple:
    """A word prepared for `Operator.apply_basis`: (its prefix as (token,
    primitive) pairs, the terms of a trailing multiplier or None, the
    coefficient or None if it is 1)."""
    prims, mul = w.prims, None
    if prims and isinstance(prims[-1], PMul):
        prims, mul = prims[:-1], prims[-1].poly.terms
    steps = tuple((_prim_token(p), p) for p in prims)
    return steps, mul, None if w.coeff.is_one() else w.coeff


# -- the shared image memo ------------------------------------------------------

# Word-prefix images on monomial inputs, shared by every operator of the
# process: (source shape, exponent tuple) -> the root (monomial, children)
# of a trie as in `Operator._prefix_image`.  Operators of different fusion
# pairs evaluate the same prefixes on the same monomials, so the memo must
# outlive an operator; it is bounded instead, and emptied once _IMAGE_BOUND
# nodes have been made since it was last emptied.  A dict, not a functools
# cache, because it is a trie that counts its nodes.  The bound holds the
# 1,364 nodes of all 144 witnesses at d = 4; the 900 at d = 6 make 9,342,
# which kept whole would add about 8 MB.
_IMAGE_ROOTS: dict = {}
_IMAGE_BOUND = 2048
_image_nodes = 0  # nodes made since the memo was last emptied
_image_epoch = 0  # how often it has been emptied
_NEXT_TOKEN = itertools.count(0, 2)


def _shared_root(shape: SlotShape, p: MultiPoly) -> tuple:
    """The shared trie root of the monomial p, with coefficient one."""
    (e,) = p.terms
    key = (shape, e)
    node = _IMAGE_ROOTS.get(key)
    if node is None:
        node = _IMAGE_ROOTS[key] = (p, {})
        _count_images(1)
    return node


def _count_images(n: int):
    """Count n new trie nodes, and empty the memo once past its bound.  A
    walk in progress keeps the nodes it holds, but the process's table
    starts again."""
    global _image_nodes
    _image_nodes += n
    if _image_nodes > _IMAGE_BOUND:
        _clear_image_memo()


def _clear_image_memo():
    """Empty the shared image memo.  The token table is kept, so a token
    names one computation for the life of the process."""
    global _image_nodes, _image_epoch
    _IMAGE_ROOTS.clear()
    _image_nodes = 0
    _image_epoch += 1


@functools.cache
def _token_of(key) -> int:
    """The even token of what a primitive computes, see `_prim_token`, or
    of an annihilator factor ("factor", f), see `_annihilator_orders`."""
    return next(_NEXT_TOKEN)


def _prim_token(prim) -> int:
    """An integer that names what `prim` computes: two primitives get one
    token when they compute the same images, term order included.  That is
    their signature, except that a multiplier's polynomial is compared with
    its term order, which orders its products, and that a division's part is
    left out: its `quo` takes an even token t and its `rem` t + 1.  The
    table is never emptied, so a primitive keeps its token, and a `quo` and
    a `rem` by one modulus share a division whenever they were made."""
    t = prim._token
    if t is None:
        kind = type(prim)
        if kind is PQuo:
            key = ("div", prim.shape, prim.modulus, prim.var)
        elif kind is PMul:
            key = ("mul", prim.shape, tuple(prim.poly.terms.items()))
        else:
            key = prim.signature()
        t = _token_of(key)
        if kind is PQuo and prim.part == "rem":
            t += 1
        prim._token = t
    return t


def _diagonal(mod: FreeBimod, poly: MultiPoly) -> Operator:
    """Multiplication by `poly` on every copy of `mod`: the diagonal matrix on
    a 2-slot chain, else one word per copy."""
    n, shape = mod.rank, mod.shape
    if shape.nslots == 2:
        zero = shape.ring().zero()
        return Operator._of_rows(mod, mod, tuple(
            tuple(poly if i == j else zero for j in range(n)) for i in range(n)))
    word = (w_then_mul(Word.identity(shape), poly),)
    return Operator(mod, mod, {(i, i): word for i in range(n)})


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


# (source shape, internal variable, tokens of a word's non-PMul primitives)
# -> its factors from `_word_annihilator` as (token, order, multiplicity),
# or None.  Two tokens are equal exactly when the signatures are
# (`_prim_token`), and two factors share a token (`_token_of`) exactly when
# they are equal, so a lookup and a cell's merge compare integers, not
# polynomials.  A dict, not a functools cache: the value is computed from a
# word, which the key does not hold.
_ANNIHILATOR_CACHE: dict = {}


def _annihilator_orders(op: Operator, x: str) -> dict:
    """{copy: N} such that op(x^k in that copy) = 0 for every k once it is 0
    for k < N, or None when a word of that copy is unbounded.  `x` is the one
    internal variable of the source.

    Proof.  Fix a copy and a row; s_k, the image of x^k, lies in the target
    slot ring, a polynomial ring over the field Q(zeta_n) and so a domain.
    If a monic A(E) = E^N + c_{N-1}E^{N-1} + ... + c_0 with coefficients in
    that ring, constant in k, satisfies sum_i c_i s_{k+i} = 0 for every k,
    then s_0 = ... = s_{N-1} = 0 forces every s_k = 0 by induction on k
    (C-finite sequences: Kauers and Paule, The Concrete Tetrahedron, ch. 4).
    A is kept as a tuple of monic factors, each the tuple (c_0, ..., c_{n-1})
    of its lower coefficients.  A word is read left to right from x^k,
    annihilated by E - x, keeping its values t_k annihilated; coefficients
    commute with E, so factors may be reordered:
      * PMul by p: p*t_k is annihilated by the same A (the ring commutes);
      * PSubst σ, a ring map: σ(t_k) is annihilated by σ(A);
      * PTDiv v1 -> v2 (v1 != v2, as its constructor checks): with
        σ: v1 ↦ v2, A·σ(A) kills t_k - σ(t_k) = (v1 - v2)·u_k, hence u_k in
        a domain; A alone if σ(A) = A;
      * PQuo by q in v, q̂ = q/lead with v read as E (a lead that is not a
        constant is unbounded, and the sweep raises on it): quo
        and rem are linear over the polynomials free of v, so
        an A free of v is kept; on A = E - v, t_k = v^k t_0 and
        q̂(v) ≡ 0 mod q, so rem(t_k) is killed by q̂ and q·quo(t_k) =
        t_k - rem(t_k) by (E - v)·q̂, hence quo(t_k) in a domain; any
        other A is unbounded;
      * PCoeff (v, m): linear over the polynomials free of v, so an A free of
        v is renamed into the target ring; any other A is unbounded.
    A cell sums its words, so it takes the product over distinct factors of
    each to the largest multiplicity any word has: a common monic multiple
    of every word's A.  A copy is bounded by the largest order of its rows.
    """
    shape = op.src.shape
    start = ((-shape.ring().var(x),),)
    orders = dict.fromkeys(range(op.src.rank), 0)
    for (_, j), ws in op.cells.items():
        if orders[j] is None:
            continue
        cell: dict = {}
        for w in ws:
            # words that differ only in multipliers share one annihilator
            key = (shape, x, tuple(_prim_token(p) for p in w.prims if not isinstance(p, PMul)))
            try:
                mult = _ANNIHILATOR_CACHE[key]
            except KeyError:
                fs = _word_annihilator(w, start)
                mult = _ANNIHILATOR_CACHE[key] = None if fs is None else tuple(
                    (_token_of(("factor", f)), len(f), fs.count(f)) for f in dict.fromkeys(fs))
            if mult is None:
                orders[j] = None
                break
            for t, n, m in mult:
                if m > cell.get(t, (0, 0))[1]:
                    cell[t] = n, m
        else:
            orders[j] = max(orders[j], sum(n * m for n, m in cell.values()))
    return orders


def _word_annihilator(w: Word, fs: tuple):
    """The factors annihilating w(t_k) when `fs` annihilates t_k, by the
    rules of `_annihilator_orders`; None when a rule does not apply."""
    for prim in w.prims:
        if isinstance(prim, PMul):
            continue
        if isinstance(prim, PSubst):
            fs = tuple(tuple(prim.apply(c) for c in f) for f in fs)
            continue
        if isinstance(prim, PTDiv):
            ring = prim.shape.ring()
            moved = tuple(tuple(c.rename({prim.v1: prim.v2}, ring) for c in f) for f in fs)
            if moved != fs:
                fs += moved
            continue
        if not isinstance(prim, (PQuo, PCoeff)):
            return None
        v = prim.var
        if all(c.degree_in(v) < 1 for f in fs for c in f):
            if isinstance(prim, PCoeff):
                ring, names = prim.dst.ring(), prim.to_dst
                fs = tuple(tuple(c.rename(names, ring) for c in f) for f in fs)
            continue
        if isinstance(prim, PCoeff) or fs != ((-prim.shape.ring().var(v),),):
            return None
        q = prim.modulus.coefficients_in(v)
        n = max(q, default=0)
        lead = q[n].constant_value() if q else None
        if lead is None:
            return None
        zero, inv = prim.shape.ring().zero(), lead.inverse()
        qhat = (tuple(q.get(i, zero) * inv for i in range(n)),)
        fs = qhat if prim.part == "rem" else fs + qhat
    return fs


def op_equal(A: Operator, B: Operator, cutoff: int = DEFAULT_CUTOFF):
    """Tiered operator equality: (equal, mode).

    Two operators out of a source without internal slots (a 2-slot chain)
    are compared by their generator matrices, `matrix()`: the images of the
    copy generators describe such a map completely, whatever its target.
    The verdict is (True, "exact-structural") if they agree, else (False,
    "exact-generator"); no word is normalised, and an operator made from
    rows builds none.  Between two 2-slot chains the matrices are the rows
    the operators hold.  The verdict is that of the word tiers below: the
    words of an operator made from rows are one normal-form word per entry
    (a coefficient or one multiplication), so their normalised difference
    is empty exactly when the rows agree; on operators held as words, an
    equality the tiers would have settled by the generator matrix (a
    difference whose words do not cancel but whose images do) reads
    "exact-structural".

    A pair out of a source with internal slots goes through two tiers:
    structural cancellation of the normalised difference, which is exact,
    then pointwise on internal monomials up to `cutoff` total degree.  A
    True from the sweep, "verified-to-cutoff", is evidence, and a False
    carries the failing basis element in the mode.  A negative `cutoff`
    would sweep no monomial at all, so it raises ValueError.

    With one internal variable x, the sweep of each copy stops after its
    first N monomials x^0..x^(N-1), N the copy's annihilator order from
    `_annihilator_orders`, when N <= cutoff + 1: they are the first N that
    the full sweep checks, in the same order, so a zero prefix proves what
    the full sweep would say and a non-zero one gives its first
    counterexample.  With no bound (an unbounded word, two or more internal
    variables) or a larger N the sweep runs to `cutoff`.  Both read
    "verified-to-cutoff"; a label of its own for the proved case waits for
    a change of the benchmark, whose digests hash it.
    """
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    if A.src != B.src or A.dst != B.dst:
        raise ValueError("operator shape mismatch")
    if A.src.shape.nslots <= 2:
        if A.matrix() == B.matrix():
            return True, "exact-structural"
        return False, "exact-generator"
    diff = (A - B).normalized()
    if not diff.cells:
        return True, "exact-structural"
    names = diff.src.shape.internal_names()
    orders = _annihilator_orders(diff, names[0]) if len(names) == 1 else {}
    for copy in range(diff.src.rank):
        # a copy's first N monomials are the full sweep's first N, so past
        # its annihilator order N the sweep could find no counterexample;
        # islice stops there, or never when N is None or past the cutoff
        monomials = _internal_monomials(diff.src.shape, cutoff)
        for exps in itertools.islice(monomials, orders.get(copy)):
            if any(diff.apply_basis(copy, exps)):
                return False, f"counterexample at copy {copy}, monomial {exps}"
    return True, "verified-to-cutoff"


def joint_mode(modes) -> str:
    """"exact" if every op_equal mode in `modes` is exact, else "verified-to-cutoff"."""
    return "exact" if all(m.startswith("exact") for m in modes) else "verified-to-cutoff"


def _kron(F: Operator, G: Operator) -> Operator:
    """F ⊗ G on one chain: G, then F.

    Copy (n, p) of the product sits at n·rank + p, with rank that of G's
    module on the same side, as `tensor_copy` places it within a block.  The
    cell of (n, p) and (m, q) holds each word of G[p, q] followed by each
    word of F[n, m].
    """
    if G.dst.shape != F.src.shape:
        raise ValueError("Kronecker factors do not chain")
    gs, gd = G.src.rank, G.dst.rank
    cells = {}
    for (n, m), fws in F.cells.items():
        for (p, q), gws in G.cells.items():
            cells[n * gd + p, m * gs + q] = [wg.then(wf) for wg in gws for wf in fws]
    return Operator(FreeBimod(G.src.shape, F.src.rank * gs),
                    FreeBimod(F.dst.shape, F.dst.rank * gd), cells)


# -- objects and morphisms ------------------------------------------------------


_UNREDUCED = object()  # `MBF._residues` before `differential_residues` runs


class MBF:
    """Matrix bi-factorisation: two modules, two differentials, a potential.

    `grading` is None or the pair (charges of the D0 copies, charges of the
    D1 copies): exact R-charges in units of q_x = 2/d (see `graded`).  Only
    the x^d family is graded; `charges` raises ValueError on other objects.

    An object is immutable, since `ps_object` hands the same P_S to every
    caller.  A tensor product is made by `_deferred`: its differentials are
    built on the first read of `d0` or `d1`, and their endpoints checked then.
    `validate_mbf` keeps its report in `_report`, `graded.graded_validate`
    its report in `_graded_report`, and `differential_residues` its residue
    tables in `_residues`.
    """

    __slots__ = ("m0", "m1", "w", "grading", "_d", "_build", "_report", "_graded_report",
                 "_residues", "__weakref__")

    def __init__(self, m0: FreeBimod, m1: FreeBimod, d0: Operator, d1: Operator, w: MultiPoly,
                 grading=None):
        self._set_modules(m0, m1, w, grading)
        self._set_differentials(d0, d1)

    @classmethod
    def _deferred(cls, m0: FreeBimod, m1: FreeBimod, w: MultiPoly, grading, build) -> "MBF":
        """The object whose differentials are `build()`, called on first read."""
        D = cls.__new__(cls)
        D._set_modules(m0, m1, w, grading)
        object.__setattr__(D, "_build", build)
        return D

    def _set_modules(self, m0, m1, w, grading):
        if m0.shape != m1.shape:
            raise ValueError("component modules must share the slot shape")
        if len(w.ring.vars) != m0.shape.nvars:
            raise ValueError("potential variable count mismatch")
        if grading is not None:
            c0, c1 = grading
            if len(c0) != m0.rank or len(c1) != m1.rank:
                raise ValueError("charge vector length does not match rank")
            grading = (tuple(Rat(c) for c in c0), tuple(Rat(c) for c in c1))
        object.__setattr__(self, "m0", m0)
        object.__setattr__(self, "m1", m1)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "grading", grading)
        object.__setattr__(self, "_report", None)
        object.__setattr__(self, "_graded_report", None)
        object.__setattr__(self, "_residues", _UNREDUCED)

    def _set_differentials(self, d0, d1):
        if d0.src != self.m0 or d0.dst != self.m1 or d1.src != self.m1 or d1.dst != self.m0:
            raise ValueError("differential endpoints inconsistent")
        object.__setattr__(self, "_d", (d0, d1))
        object.__setattr__(self, "_build", None)

    def __setattr__(self, *a):
        raise AttributeError("MBF is immutable")

    def _differentials(self) -> tuple:
        """(d0, d1), built on the first call if the object was `_deferred`."""
        if self._build is not None:
            self._set_differentials(*self._build())
        return self._d

    d0 = property(lambda self: self._differentials()[0])
    d1 = property(lambda self: self._differentials()[1])

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


def mbf_from_polys(shape: SlotShape, d0_rows, d1_rows, w: MultiPoly,
                   grading=None) -> MBF:
    """The object with differentials d0_rows and d1_rows; d0_rows fixes the ranks."""
    m0 = FreeBimod(shape, len(d0_rows[0]) if d0_rows else 0)
    m1 = FreeBimod(shape, len(d0_rows))
    return MBF(m0, m1, Operator.from_poly_matrix(m0, m1, d0_rows),
               Operator.from_poly_matrix(m1, m0, d1_rows), w, grading)


class ValidationReport:
    __slots__ = ("ok", "mode", "violations")

    def __init__(self, ok, mode, violations):
        self.ok = ok
        self.mode = mode
        self.violations = violations

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"ValidationReport(ok={self.ok}, mode={self.mode!r})"


def validate_mbf(D: MBF) -> ValidationReport:
    """Check d1∘d0 = (W(a)−W(b))·id on D0 and d0∘d1 likewise on D1.

    On a 2-slot object every operator here is matrix-held: each composite is
    the product of the rows of the differentials, compared with the diagonal
    matrix of W(a)−W(b) row by row, and no word is composed or normalised.
    On a chain with internal slots the words are composed and `op_equal`
    runs its tiers.

    An `MBF` is immutable, so the report is memoised on the object: each
    `ps_object` is checked once per process, and a reduced tensor built with
    `reduce_tensor(check=True)` keeps the report of that check.
    """
    if D._report is not None:
        return D._report
    wdiff = D.w_difference()
    violations = []
    modes = []
    for name, got, mod in (
        ("d1*d0", D.d1.compose(D.d0), D.m0),
        ("d0*d1", D.d0.compose(D.d1), D.m1),
    ):
        want = _diagonal(mod, wdiff)
        eq, mode = op_equal(got, want)
        modes.append(mode)
        if not eq:
            diff = (got - want).normalized()
            detail = None
            if diff.cells:
                i, j = next(iter(diff.cells))
                detail = {"block": [i, j], "difference": str(diff.apply_basis(j, {})[i])}
            violations.append({"which": name, "mode": mode, "detail": detail})
    rep = ValidationReport(not violations, joint_mode(modes), violations)
    object.__setattr__(D, "_report", rep)
    return rep


def differential_residues(D: MBF):
    """The coefficients of d0 and d1 in F_p at `modular_prime`'s (p, r) for
    D's conductor, or None when p divides the denominator of one of them.

    The tables are (d0, d1), each a tuple of rows whose entries map the
    exponents of a term of `matrix()` to its residue (`Cyclo.reduce_mod`),
    zeros included.  An `MBF` is immutable, so the result is memoised on the
    object: each object is reduced once per process.
    """
    if D._residues is _UNREDUCED:
        p, r = modular_prime(D.shape.conductor)
        tables = tuple(
            tuple(tuple({e: c.reduce_mod(p, r) for e, c in poly.terms.items()} for poly in row)
                  for row in op.matrix())
            for op in (D.d0, D.d1))
        reduced = all(None not in entry.values()
                      for table in tables for row in table for entry in row)
        object.__setattr__(D, "_residues", tables if reduced else None)
    return D._residues


class Morphism:
    """Even or odd map of bi-factorisations, stored as the two parity legs.

    A morphism is immutable, since `fusion.lam` hands the same one to every
    caller."""

    __slots__ = ("src", "dst", "parity", "opE", "opO")

    def __init__(self, src: MBF, dst: MBF, parity: int, opE: Operator, opO: Operator):
        parity %= 2
        if opE.src != src.m0 or opO.src != src.m1:
            raise ValueError("morphism sources inconsistent")
        if opE.dst != dst.component(parity) or opO.dst != dst.component(1 + parity):
            raise ValueError("morphism targets inconsistent")
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "opE", opE)
        object.__setattr__(self, "opO", opO)

    def __setattr__(self, *a):
        raise AttributeError("Morphism is immutable")

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
    def from_poly_blocks(src: MBF, dst: MBF, parity: int, rows_even, rows_odd) -> "Morphism":
        return Morphism(
            src, dst, parity,
            Operator.from_poly_matrix(src.m0, dst.component(parity), rows_even),
            Operator.from_poly_matrix(src.m1, dst.component(1 + parity), rows_odd),
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


def tensor_copy(X: MBF, Y: MBF, i: int, ci: int, j: int, cj: int) -> int:
    """Position of copy ci of X_i ⊗ copy cj of Y_j in component i + j of X ⊗ Y.

    The blocks of a component are ordered as in _tensor_blocks, so the block
    with j = 1 comes second; within a block the copies are X-major.
    """
    off = X.component(1 - i).rank * Y.m0.rank if j % 2 else 0
    return off + ci * Y.component(j).rank + cj


def _tensor_legs(f: Morphism, g: Morphism, glue: bool = True) -> list:
    """The two legs of f ⊗ g, with the sign (−1)^{|g|·i} on the X_i-source blocks.

    With `glue` every leg of f and g is lifted once into the glued chain;
    without it both factors already share one chain.  The block of X_i Y_j
    is the Kronecker product of f's leg from X_i and g's leg from Y_j.
    """
    X, Y, Xp, Yp = f.src, g.src, f.dst, g.dst
    F, G = [f.opE, f.opO], [g.opE, g.opO]
    if glue:
        F = [op.lift(0, Yp.shape.nslots - 1) for op in F]
        G = [op.lift(X.shape.nslots - 1, 0) for op in G]
    minus = Cyclo.from_rat(X.shape.conductor, -1)
    legs = []
    for sp in (0, 1):
        cells, rows, cols = {}, 0, 0
        for i, j in _tensor_blocks(sp):
            ip, jp = (i + f.parity) % 2, (j + g.parity) % 2
            roff, coff = tensor_copy(Xp, Yp, ip, 0, jp, 0), tensor_copy(X, Y, i, 0, j, 0)
            K = _kron(F[i], G[j])
            for (r, c), ws in K.cells.items():
                cells[roff + r, coff + c] = [w.scaled(minus) for w in ws] if g.parity and i else ws
            rows, cols = rows + K.dst.rank, cols + K.src.rank
        legs.append(Operator(FreeBimod(K.src.shape, cols), FreeBimod(K.dst.shape, rows), cells))
    return legs


def _tensor(X: MBF, Y: MBF, glue: bool) -> MBF:
    """X ⊗ Y with the differential d_X ⊗ 1 + 1 ⊗ d_Y, each d an odd
    endomorphism, so 1 ⊗ d_Y carries the sign (−1)^i on X_i.

    The modules and charges are built at once, the differential on its first
    read (`MBF._deferred`).  If both factors are graded, a copy's charge is
    the sum of its factors' charges.  `glue` is passed to _tensor_legs.
    """
    shape = X.shape.widen(0, Y.shape.nslots - 1) if glue else X.shape
    m0, m1 = (FreeBimod(shape, sum(X.component(i).rank * Y.component(j).rank
                                   for i, j in _tensor_blocks(p))) for p in (0, 1))
    grading = None
    if X.grading is not None and Y.grading is not None:
        grading = tuple([cx + cy for i, j in _tensor_blocks(p)
                         for cx in X.charges(i) for cy in Y.charges(j)] for p in (0, 1))

    def build():
        dx = _tensor_legs(Morphism(X, X, 1, X.d0, X.d1), Morphism.identity(Y), glue)
        dy = _tensor_legs(Morphism.identity(X), Morphism(Y, Y, 1, Y.d0, Y.d1), glue)
        return dx[0] + dy[0], dx[1] + dy[1]

    return MBF._deferred(m0, m1, X.w, grading, build)


# (X, Y) -> tensor_obj(X, Y), for as long as something else holds the
# product.  Not a functools cache, whose values would be strong.
_TENSOR_CACHE = weakref.WeakValueDictionary()


def tensor_obj(X: MBF, Y: MBF) -> MBF:
    """Slot-glued tensor product with the derivation-style sign pattern.

    Objects are immutable, so one product of X and Y serves every caller
    while it lives (`_TENSOR_CACHE`, keyed by the factors themselves); a
    product nothing holds is freed with its evaluation memos."""
    T = _TENSOR_CACHE.get((X, Y))
    if T is None:
        if X.w != Y.w:
            raise ValueError("potential mismatch")
        T = _TENSOR_CACHE[X, Y] = _tensor(X, Y, glue=True)
    return T


def tensor_mor(f: Morphism, g: Morphism) -> Morphism:
    """f ⊗ g with the sign (−1)^{|g|·i} on the X_i-source blocks."""
    opE, opO = _tensor_legs(f, g)
    return Morphism(tensor_obj(f.src, g.src), tensor_obj(f.dst, g.dst),
                    f.parity + g.parity, opE, opO)


def _associator(X: MBF, Y: MBF, Z: MBF, forward: bool) -> Morphism:
    """(X⊗Y)⊗Z → X⊗(Y⊗Z) if `forward`, else back: a pure copy permutation."""
    XY, YZ = tensor_obj(X, Y), tensor_obj(Y, Z)
    left, right = tensor_obj(XY, Z), tensor_obj(X, YZ)
    src, dst = (left, right) if forward else (right, left)
    ident = (Word.identity(src.shape),)
    cells = ({}, {})
    for i, j, k in itertools.product((0, 1), repeat=3):
        ranks = (X.component(i).rank, Y.component(j).rank, Z.component(k).rank)
        for ci, cj, ck in itertools.product(*map(range, ranks)):
            lpos = tensor_copy(XY, Z, (i + j) % 2, tensor_copy(X, Y, i, ci, j, cj), k, ck)
            rpos = tensor_copy(X, YZ, i, ci, (j + k) % 2, tensor_copy(Y, Z, j, cj, k, ck))
            cells[(i + j + k) % 2][(rpos, lpos) if forward else (lpos, rpos)] = ident
    return Morphism(src, dst, 0, *(
        Operator(src.component(p), dst.component(p), cells[p]) for p in (0, 1)))


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
    """P_S = (R⊗R, R⊗R, p_{S^c}, p_S) for W = x^d, graded.

    One object per (d, S): at most 2^d − 2 for each d, built on first use
    (`_ps_object`).  S is normalised and checked on every call, so an
    improper S always raises ValueError."""
    S = tuple(sorted(set(i % d for i in S)))
    if not S or len(S) == d:
        raise ValueError("S must be a proper nonempty residue set")
    return _ps_object(d, S)


@functools.cache
def _ps_object(d: int, S: tuple) -> MBF:
    """P_S for a sorted proper residue tuple S, once per process."""
    shape = SlotShape(2, 1, d)
    ring = shape.ring()
    Sc = [i for i in range(d) if i not in S]
    return mbf_from_polys(shape, [[ring.p_S(Sc)]], [[ring.p_S(S)]], fermat_potential(d),
                          charge_matrix_ps(d, len(S) - 1))


def twist_object(D: MBF, m: int, n: int) -> MBF:
    """Substitute a → η^{−m} a, b → η^{−n} b in the differentials (W = x^d);
    the charges are kept."""
    shape = D.shape
    if shape.nvars != 1 or shape.nslots != 2:
        raise ValueError("twisting implemented for one-variable 2-slot objects")
    ring = shape.ring()
    eta = ring.root(1)
    tw = {"a": (eta ** (-m % shape.conductor), "a"), "b": (eta ** (-n % shape.conductor), "b")}
    sub = lambda op: [[p.subst_scale(tw, ring) for p in row] for row in op.matrix()]
    return mbf_from_polys(shape, sub(D.d0), sub(D.d1), D.w, D.grading)


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


def _unit_side(I: MBF, D: MBF, left: bool):
    """(I ⊗ D if `left`, else D ⊗ I; at) with at(k, p, c) the position of
    copy c of D_p beside copy 0 of I_k, the unit generator for k = 0."""
    if left:
        return tensor_obj(I, D), lambda k, p, c: tensor_copy(I, D, k, 0, p, c)
    return tensor_obj(D, I), lambda k, p, c: tensor_copy(D, I, p, c, k, 0)


def unit_isos(D: MBF):
    """(λ_D: I⊗D → D, ρ_D: D⊗I → D), multiplication as untwisted collapse
    of copy c of D_p beside the unit generator onto copy c."""
    I = unit_object(D.w)
    isos = []
    for left in (True, False):
        T, at = _unit_side(I, D, left)
        word = (w_collapse(T.shape, 0 if left else D.shape.nslots - 1),)
        isos.append(Morphism(T, D, 0, *(
            Operator(T.component(p), D.component(p),
                     {(c, at(0, p, c)): word for c in range(D.component(p).rank)})
            for p in (0, 1))))
    return tuple(isos)


def unit_isos_inverse(D: MBF):
    """(λ_D⁻¹, ρ_D⁻¹) via the divided-difference pattern; one variable only.

    Copy c of D_p goes to its copy beside I_0 by the insertion of a middle
    slot, and to D_{1−p} beside I_1 by the divided difference of d_p into
    the middle slot after it (negated on ρ's odd leg).
    """
    if D.shape.nvars != 1 or D.shape.nslots != 2:
        raise ValueError("inverse unit isomorphisms: one-variable 2-slot objects only")
    I = unit_object(D.w)
    ins = w_insert(D.shape, 1)
    ring3 = ins.dst.ring()
    # D on the outer slots (the map of `ins`) and on the first two slots
    outer = slot_map(D.shape, ins.dst, lambda s: 2 * s)
    first = slot_map(D.shape, ins.dst, lambda s: s)
    # (p(a,b) − p(x1,b)) / (a − x1) and (p(a,x1) − p(a,b)) / (x1 − b)
    dd_into_x = lambda p: p.rename(outer, ring3).divided_difference("a", "x1")
    dd_from_b = lambda p: p.rename(first, ring3).divided_difference("x1", "b")
    minus = Cyclo.from_rat(D.shape.conductor, -1)

    def leg(T, at, dd, p, negate):
        cells = {(at(0, p, c), c): (ins,) for c in range(D.component(p).rank)}
        for i, row in enumerate(D.differential_from(p).matrix()):
            for j, entry in enumerate(row):
                q = dd(entry)
                if not q.is_zero():
                    w = w_then_mul(ins, q)
                    cells[at(1, 1 - p, i), j] = (w.scaled(minus) if negate else w,)
        return Operator(D.component(p), T.component(p), cells)

    inverses = []
    for left, dd in ((True, dd_into_x), (False, dd_from_b)):
        T, at = _unit_side(I, D, left)
        inverses.append(Morphism(D, T, 0, leg(T, at, dd, 0, False), leg(T, at, dd, 1, not left)))
    return tuple(inverses)


def homotopy_psi(D: MBF, side: str) -> Morphism:
    """The odd divided-transfer homotopy for λ (side='left') or ρ (side='right'):
    copy c of D_p beside I_0 goes to the same copy beside I_1."""
    if D.shape.nvars != 1 or D.shape.nslots != 2:
        raise ValueError("homotopy witnesses: one-variable 2-slot objects only")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    T, at = _unit_side(unit_object(D.w), D, side == "left")
    td = w_tdiv(T.shape, "x1", "a" if side == "left" else "b")
    # ρ's even leg carries the sign −
    even = td if side == "left" else td.scaled(Cyclo.from_rat(T.shape.conductor, -1))
    return Morphism(T, T, 1, *(
        Operator(T.component(p), T.component(1 + p),
                 {(at(1, p, c), at(0, p, c)): ((even, td)[p],) for c in range(D.component(p).rank)})
        for p in (0, 1)))


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
    mu_word = w_collapse(I.shape, 0)
    one_slot = mu_word.dst
    src0 = FreeBimod(I.shape, 1)
    tgt = FreeBimod(one_slot, 1)
    mu = Operator(src0, tgt, {(0, 0): (mu_word,)})
    dw = w.rename({w.ring.vars[0]: "t"}, one_slot.ring()).derivative("t")
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
