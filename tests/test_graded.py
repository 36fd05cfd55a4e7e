import random

import pytest
from hypothesis import given, settings, strategies as st

from mbf._rat import Rat
from mbf.exactalg import Cyclo, modular_prime
from mbf import VerificationError, cli
from mbf import bifact, graded
from mbf.fusion import fuse, reduce_tensor
from mbf.bifact import (
    MBF,
    Morphism,
    Operator,
    charge_matrix_ps,
    fermat_potential,
    mbf_from_polys,
    morphism_equal,
    op_equal,
    ps_object,
    tensor_obj,
    twist_object,
    unit_object,
    validate_mbf,
)
from mbf.graded import (
    NotHomogeneous,
    graded_validate,
    hom_space,
    is_null_homotopic,
    morphism_charge,
    zero_charge_structure_check,
)
from mbf.polycalc import Ring


def graded_ps(d, i, j):
    """P_{i, ..., i+j} for x^d."""
    return ps_object(d, [(i + t) % d for t in range(j + 1)])


def graded_unit(d):
    return unit_object(fermat_potential(d))


def shifted_p01():
    """P_{0,1} at d = 5 with its even charge shifted from -1/2 to 0."""
    g = graded_ps(5, 0, 1)
    return MBF(g.m0, g.m1, g.d0, g.d1, g.w, ((Rat(0),), g.charges(1)))


def diag_morphism(g, text):
    ring = g.shape.ring()
    p = ring.parse(text)
    return Morphism.from_poly_blocks(g, g, 0, [[p]], [[p]])


class TestChargeMatrix:
    def test_unit_charges(self):
        # j=0: generator charges (0, (2-d)/2)
        for d in (3, 4, 7):
            c0, c1 = charge_matrix_ps(d, 0)
            assert c0 == (Rat(0),)
            assert c1 == (Rat(2 - d, 2),)

    def test_d4_pair(self):
        assert charge_matrix_ps(4, 1) == ((Rat(-1, 2),), (Rat(-1, 2),))

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_offset_independent(self, d):
        for j in range(d - 1):
            ref = graded_ps(d, 0, j)
            for i in range(1, d):
                g = graded_ps(d, i, j)
                assert g.grading == ref.grading

    def test_range_guard(self):
        with pytest.raises(ValueError):
            charge_matrix_ps(4, 3)


class TestGradedValidate:
    @pytest.mark.parametrize("d", list(range(3, 9)))
    def test_consecutive_family(self, d):
        """Every P_{i..i+j} satisfies the charge-1 differential condition."""
        for i in range(d):
            for j in range(d - 1):
                assert graded_validate(graded_ps(d, i, j))["ok"]

    def test_wrong_charge_flagged(self):
        g, bad = graded_ps(5, 0, 1), shifted_p01()
        report = graded_validate(bad)
        assert not report["ok"]
        assert report["violations"][0]["which"] in ("d0", "d1")
        # the same factor inside a 3-slot tensor product is flagged too
        assert not graded_validate(tensor_obj(bad, g))["ok"]
        assert not graded_validate(tensor_obj(g, bad))["ok"]

    def test_report_is_memoised(self, monkeypatch):
        """The report is kept on the object: hom_space reads it again
        without recomputing a charge."""
        g = graded_ps(5, 0, 1)
        X = MBF(g.m0, g.m1, g.d0, g.d1, g.w, g.grading)
        calls, charge = [], graded.operator_charge_units

        def counted(*a):
            calls.append(a)
            return charge(*a)

        monkeypatch.setattr(graded, "operator_charge_units", counted)
        report = graded_validate(X)
        assert report["ok"] and len(calls) == 2
        hom_space(X, X)
        assert graded_validate(X) is report and len(calls) == 2

    def test_tensor_inherits_grading(self):
        # blockwise charge sums keep the differential at charge 1
        gI = graded_unit(4)
        gP = graded_ps(4, 1, 1)
        assert graded_validate(tensor_obj(gI, gP))["ok"]
        assert graded_validate(tensor_obj(gP, gP))["ok"]


class TestMorphismCharge:
    def test_identity_is_charge_zero(self):
        for d, j in ((3, 0), (5, 2)):
            g = graded_ps(d, 0, j)
            assert morphism_charge(Morphism.identity(g)) == 0

    @pytest.mark.parametrize("d,i", [(3, 1), (5, 2), (7, 4)])
    def test_unit_endomorphism_charge(self, d, i):
        gI = graded_unit(d)
        phi = diag_morphism(gI, f"a^{i}")
        assert morphism_charge(phi) == Rat(2 * i, d)

    def test_mixed_sectors_flagged(self):
        gI = graded_unit(5)
        phi = diag_morphism(gI, "a + a^2")
        assert morphism_charge(phi) is NotHomogeneous

    def test_zero_morphism_defaults_to_zero(self):
        gI = graded_unit(5)
        z = Morphism.zero(gI, gI, 0)
        assert morphism_charge(z) == 0


class TestHomSpace:
    @pytest.mark.parametrize("d", list(range(3, 11)))
    def test_unit_endomorphisms(self, d):
        """Hom(I,I) has dimension d-1 with classes diag(a^k, a^k) at 2k/d."""
        gI = graded_unit(d)
        H = hom_space(gI, gI, "all")
        assert H.total_dim() == d - 1
        assert H.charges() == [Rat(2 * k, d) for k in range(d - 1)]
        for k, sector in enumerate(H.sectors):
            assert sector.dim == 1
            (rep,) = sector.representatives
            want = [["1" if k == 0 else ("a" if k == 1 else f"a^{k}")]]
            for op in (rep.opE, rep.opO):
                assert [[str(p) for p in row] for row in op.matrix()] == want

    def test_singleton_to_pair_d5(self):
        H = hom_space(graded_ps(5, 0, 0), graded_ps(5, 0, 1), "all")
        assert H.total_dim() == 3
        assert H.charges() == [Rat(1, 5), Rat(3, 5), Rat(1)]

    @pytest.mark.parametrize("d", [3, 4, 5, 7])
    def test_distinct_singletons_disjoint(self, d):
        g0 = graded_ps(d, 0, 0)
        g1 = graded_ps(d, 1, 0)
        assert hom_space(g0, g1, Rat(0)).sectors[0].dim == 0
        assert hom_space(g0, g1, "all").total_dim() == 0

    @pytest.mark.parametrize("d,u", [(5, 1), (6, 2), (8, 3)])
    def test_charge_spectrum(self, d, u):
        H = hom_space(graded_ps(d, 0, 0), graded_ps(d, 0, u), "all")
        assert H.charges() == [Rat(2 * k + u, d) for k in range(d - u - 1)]
        assert all(s.dim == 1 for s in H.sectors)

    @pytest.mark.parametrize("d", list(range(3, 9)))
    def test_i_shift_invariance(self, d):
        for j in range(d - 1):
            ref = hom_space(graded_ps(d, 0, 0), graded_ps(d, 0, j), "all")
            for i in (1, d - 1):
                H = hom_space(graded_ps(d, i, 0), graded_ps(d, i, j), "all")
                assert H.total_dim() == ref.total_dim()
                assert H.charges() == ref.charges()

    @pytest.mark.parametrize("d,sample", [(3, None), (4, 12)])
    def test_scan_limit_misses_no_sector(self, d, sample):
        """hom_space("all") solves the sectors inside the Serre window; a scan
        of entry degrees up to 4d finds nothing more, and the dimensions are
        the |S&T|*|neither| (even) and |S-T|*|T-S| (odd) the hom_space
        docstring derives."""
        from mbf.graded import _solve_sector

        sets = [(i, j) for i in range(d) for j in range(d - 1)]
        pairs = [(s, t) for s in sets for t in sets]
        if sample:
            pairs = random.Random(4).sample(pairs, sample)
        for (i, j), (k, m) in pairs:
            S = {(i + t) % d for t in range(j + 1)}
            T = {(k + t) % d for t in range(m + 1)}
            gs, gt = graded_ps(d, i, j), graded_ps(d, k, m)
            units = {deg + ci - cj for leg in (0, 1) for ci in gt.charges(leg)
                     for cj in gs.charges(leg) for deg in range(4 * d + 1)}
            wide = [u * Rat(2, d) for u in sorted(units) if _solve_sector(gs, gt, u)[0]]
            H = hom_space(gs, gt, "all")
            assert H.charges() == wide
            assert H.total_dim() == len(S & T) * (d - len(S | T))
            assert hom_space(gs, gt, "all", 1).total_dim() == len(S - T) * len(T - S)

    def test_representatives_closed_and_nontrivial(self):
        gs, gt = graded_ps(6, 0, 0), graded_ps(6, 0, 2)
        H = hom_space(gs, gt, "all")
        assert H.total_dim() == 3
        for s in H.sectors:
            for rep in s.representatives:
                ok, how = rep.is_closed()
                assert ok and how == "exact-structural"
                assert is_null_homotopic(rep) is None

    def test_json_shape(self):
        gI = graded_unit(4)
        doc = hom_space(gI, gI, "all").to_json()
        assert set(doc) == {"sectors"}
        assert [s["charge"] for s in doc["sectors"]] == ["0", "1/2", "1"]
        assert all(
            set(b) == {"even", "odd"} for s in doc["sectors"] for b in s["basis"]
        )

    def test_explicit_charge_keeps_empty_sector(self):
        gI = graded_unit(4)
        H = hom_space(gI, gI, Rat(1, 4))
        assert [s.dim for s in H.sectors] == [0]

    def test_ill_graded_object_raises(self, monkeypatch):
        # left unchecked, the endomorphisms of the shifted P_{0,1} come out
        # in 4 sectors of total dimension 10, where the graded object has 6
        g, bad = graded_ps(5, 0, 1), shifted_p01()
        assert hom_space(g, g).total_dim() == 6
        for X, Y in ((bad, bad), (bad, g), (g, bad)):
            with pytest.raises(VerificationError, match="differential off charge d/2"):
                hom_space(X, Y)
        monkeypatch.setattr(graded, "graded_validate", lambda D: {"ok": True})
        H = hom_space(bad, bad)
        assert (len(H.sectors), H.total_dim()) == (4, 10)

    def test_delta_image_leaving_its_sector_raises(self, monkeypatch):
        # past the grading check, P_{0} at d = 3 with its even charge raised
        # by 1 sends delta of the sector below outside the sector solved
        P = graded_ps(3, 0, 0)
        raised = MBF(P.m0, P.m1, P.d0, P.d1, P.w,
                     (tuple(c + 1 for c in P.charges(0)), P.charges(1)))
        monkeypatch.setattr(graded, "graded_validate", lambda D: {"ok": True})
        with pytest.raises(VerificationError, match="delta image left the charge sector"):
            hom_space(raised, raised)


def _dims(X, Y, parity):
    """{charge: dim} of the non-empty sectors of H(X, Y)."""
    return {s.charge: s.dim for s in hom_space(X, Y, "all", parity).sectors}


def _scanned_charges(X, Y, parity, reach):
    """Charges of the non-empty sectors with entry degrees up to `reach`,
    each solved on its own, with no window."""
    from mbf.graded import _solve_sector

    d = X.shape.conductor
    units = {deg + ci - cj for leg in (0, 1) for ci in Y.charges(leg + parity)
             for cj in X.charges(leg) for deg in range(reach + 1)}
    return [u * Rat(2, d) for u in sorted(units) if _solve_sector(X, Y, u, parity)[0]]


def _reduced_tensors(d, count, seed):
    """`count` seeded reduced tensors P_S1 ⊗ P_S2 of rank > 1, each with a
    seeded P_T."""
    sets = [tuple((i + t) % d for t in range(j + 1)) for i in range(d) for j in range(d - 1)]
    rng = random.Random(seed)
    out = []
    for S1, S2 in rng.sample([(a, b) for a in sets for b in sets], len(sets) ** 2):
        R = fuse(d, S1, S2)[0].reduced
        if len(R.charges(0)) > 1:
            out.append((R, ps_object(d, rng.choice(sets))))
        if len(out) == count:
            return out


class TestSerreWindow:
    """H^q(X, Y) ≅ H^(ĉ-q)(Y, X)^* with ĉ = 2 - 4/d and the same parity, the
    duality `graded._charge_window` rests on."""

    @pytest.mark.parametrize("d,sample", [(3, None), (4, None), (5, 40)])
    def test_duality_on_consecutive_pairs(self, d, sample):
        """Every ordered pair of consecutive P_S at d = 3 and 4, and a seeded
        sample at d = 5, in both parities; the sectors of Y -> X reflected
        through any other ĉ do not match."""
        objs = [graded_ps(d, i, j) for i in range(d) for j in range(d - 1)]
        pairs = [(a, b) for a in range(len(objs)) for b in range(a, len(objs))]
        if sample:
            pairs = random.Random(5).sample(pairs, sample)
        chat = 2 - Rat(4, d)
        nonempty = 0
        for a, b in pairs:
            X, Y = objs[a], objs[b]
            for parity in (0, 1):
                there, back = _dims(X, Y, parity), _dims(Y, X, parity)
                assert {chat - q: n for q, n in there.items()} == back
                if there:
                    nonempty += 1
                    assert {chat + Rat(2, d) - q: n for q, n in there.items()} != back
        assert nonempty

    @pytest.mark.parametrize("d,count,scanned", [(3, 6, 4), (4, 6, 1)])
    def test_reduced_tensors(self, d, count, scanned):
        """Seeded reduced tensors of rank > 1 against a P_T, in both orders and
        parities: duality holds, and on the first `scanned` of them the
        window's sectors are those a scan of entry degrees up to 3d finds."""
        chat = 2 - Rat(4, d)
        for k, (R, P) in enumerate(_reduced_tensors(d, count, seed=13)):
            for parity in (0, 1):
                there, back = _dims(R, P, parity), _dims(P, R, parity)
                assert {chat - q: n for q, n in there.items()} == back
                if k < scanned:
                    for X, Y, dims in ((R, P, there), (P, R, back)):
                        assert _scanned_charges(X, Y, parity, 3 * d) == sorted(dims)

    @pytest.mark.parametrize("S,T,parity", [((0, 1), (0, 1), 0), ((0, 1), (2, 3), 1)])
    def test_window_cannot_shrink(self, monkeypatch, S, T, parity):
        """At d = 4 the top sector of these pairs sits on the window's edge;
        a window one unit narrower misses it."""
        X, Y = ps_object(4, S), ps_object(4, T)
        top = graded._charge_window(X, Y, parity)
        full = hom_space(X, Y, "all", parity).charges()
        assert full == _scanned_charges(X, Y, parity, 16)
        assert full[-1] == top * Rat(1, 2)
        window = graded._charge_window
        monkeypatch.setattr(graded, "_charge_window", lambda *a: window(*a) - 1)
        assert hom_space(X, Y, "all", parity).charges() == full[:-1]

    def test_edge_count_d3(self):
        """The top sector reaches the window's edge in 12 of the hom spaces
        between consecutive P_S at d = 3, both parities counted."""
        objs = [graded_ps(3, i, j) for i in range(3) for j in range(2)]
        edge = 0
        for X in objs:
            for Y in objs:
                for parity in (0, 1):
                    H = hom_space(X, Y, "all", parity)
                    top = graded._charge_window(X, Y, parity) * Rat(2, 3)
                    edge += bool(H.sectors) and H.charges()[-1] == top
        assert edge == 12


def _consecutive_sets(d):
    return [tuple(sorted((i + t) % d for t in range(j + 1)))
            for i in range(d) for j in range(d - 1)]


def _rescaled(P, even, odd, w=None):
    """P with d0 scaled by `even` and d1 by `odd`, the same grading, and the
    potential `w` (default P's)."""
    (e,), = P.d0.matrix()
    (o,), = P.d1.matrix()
    return mbf_from_polys(P.shape, [[e * even]], [[o * odd]], P.w if w is None else w,
                          P.grading)


def _hom_docs(pairs):
    return [hom_space(X, Y, "all", parity).to_json() for X, Y in pairs for parity in (0, 1)]


def _counted_sectors(m, count):
    """Count in `count["sectors"]` the sectors with a non-empty ansatz that
    `hom_space` solves while `m` (a monkeypatch context) is active."""
    solve = graded._solve_sector

    def counted(gs, gt, units, parity=0):
        count["sectors"] += bool(len(graded._Ansatz(gs, gt, parity, units)))
        return solve(gs, gt, units, parity)

    m.setattr(graded, "_solve_sector", counted)


def _exact_docs(monkeypatch, pairs):
    """`_hom_docs` with every sector forced through the exact solve: the
    certificate is handed no residues, as when p divides a denominator.
    The hook must fire once per sector with a non-empty ansatz."""
    count = {"sectors": 0, "hook": 0}

    def no_residues(gs, gt):
        count["hook"] += 1

    with monkeypatch.context() as m:
        _counted_sectors(m, count)
        m.setattr(graded, "_residues", no_residues)
        docs = _hom_docs(pairs)
    assert count["hook"] == count["sectors"] > 0
    return docs


def _consecutive_pairs(d):
    objs = [ps_object(d, S) for S in _consecutive_sets(d)]
    return [(X, Y) for X in objs for Y in objs]


class TestEmptinessCertificate:
    """`_solve_sector` proves a sector empty when its ranks modulo a prime
    account for every ansatz variable; the exact solve does the rest."""

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_consecutive_pairs_match_the_exact_solve(self, monkeypatch, d):
        pairs = _consecutive_pairs(d)
        assert _hom_docs(pairs) == _exact_docs(monkeypatch, pairs)

    def test_reduced_tensors_match_the_exact_solve(self, monkeypatch):
        """P_T -> X and X -> P_T for 8 seeded reduced tensors X at d = 4."""
        found = _reduced_tensors(4, 8, seed=13)
        assert len(found) == 8
        pairs = [(P, R) for R, P in found] + [(R, P) for R, P in found]
        assert _hom_docs(pairs) == _exact_docs(monkeypatch, pairs)

    def test_settled_sector_count_d4(self, monkeypatch):
        """Of the 1,120 sectors with a non-empty ansatz over every ordered
        pair of consecutive P_S at d = 4 and both parities, the certificate
        settles 856; the other 264 are exactly the non-empty ones."""
        count = {"sectors": 0, "residues": 0, "exact": 0}

        def counted(key, fn):
            def call(*a, **k):
                count[key] += 1
                return fn(*a, **k)
            return call

        _counted_sectors(monkeypatch, count)
        monkeypatch.setattr(graded, "_residues", counted("residues", graded._residues))
        monkeypatch.setattr(graded, "nullspace", counted("exact", graded.nullspace))
        nonempty = sum(len(doc["sectors"]) for doc in _hom_docs(_consecutive_pairs(4)))
        assert (count["sectors"], count["exact"], nonempty) == (1120, 264, 264)
        assert count["residues"] == count["sectors"]

    def test_overstated_rank_is_caught(self, monkeypatch):
        """Negative control: a rank bound one too high proves non-empty
        sectors empty, and the equivalence with the exact solve fails."""
        pairs = _consecutive_pairs(4)
        exact = _exact_docs(monkeypatch, pairs)
        rank, calls = graded.rank_mod_p, []

        def overstated(vectors, p):
            calls.append(p)
            return rank(vectors, p) + 1

        monkeypatch.setattr(graded, "rank_mod_p", overstated)
        assert _hom_docs(pairs) != exact
        assert calls

    def test_denominator_divisible_by_p_falls_back(self, monkeypatch):
        """P_{0,1} at d = 4 with d0 divided by p and d1 multiplied by p is
        isomorphic to P_{0,1}; its coefficients do not reduce mod p, so it
        memoises no residues and every sector with a non-empty ansatz is
        solved exactly, with the same charges and dims."""
        P = ps_object(4, (0, 1))
        p, _ = modular_prime(4)
        Q = _rescaled(P, Rat(1, p), p)
        count = {"sectors": 0, "exact": 0}
        found = []
        residues, nullspace = graded._residues, graded.nullspace

        def recorded(gs, gt):
            found.append(residues(gs, gt))
            return found[-1]

        def exact(*a, **k):
            count["exact"] += 1
            return nullspace(*a, **k)

        sectors = lambda X, parity: [(s.charge, s.dim) for s in hom_space(X, X, "all", parity).sectors]
        want = [sectors(P, parity) for parity in (0, 1)]
        _counted_sectors(monkeypatch, count)
        monkeypatch.setattr(graded, "_residues", recorded)
        monkeypatch.setattr(graded, "nullspace", exact)
        assert [sectors(Q, parity) for parity in (0, 1)] == want
        assert bifact.differential_residues(Q) is None
        assert found and set(found) == {None}
        assert len(found) == count["exact"] == count["sectors"]

    def test_non_factorisation_raises(self):
        """P_{0,1} at d = 5 with d0 doubled keeps its grading but d1∘d0 = 2W:
        delta^2 != 0, and left unchecked hom_space answered sectors (0, 1),
        (2/5, 2), (4/5, 2), (6/5, 1) for it."""
        g = graded_ps(5, 0, 1)
        bad = _rescaled(g, 2, 1)
        assert graded_validate(bad)["ok"] and not validate_mbf(bad)
        for X, Y in ((bad, bad), (bad, g), (g, bad)):
            with pytest.raises(VerificationError, match="not an exact factorisation"):
                hom_space(X, Y)

    def test_different_potentials_raise(self):
        g = graded_ps(4, 0, 1)
        doubled = _rescaled(g, 2, 1, g.w * 2)
        assert validate_mbf(doubled) and validate_mbf(doubled).mode == "exact"
        for X, Y in ((g, doubled), (doubled, g)):
            with pytest.raises(VerificationError, match="potentials differ"):
                hom_space(X, Y)
        assert hom_space(doubled, doubled).total_dim() == hom_space(g, g).total_dim()


class TestResidueColumns:
    """The certificate's sparse columns over F_p against the `Cyclo` ones."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_columns_are_the_reduced_cyclo_columns(self, monkeypatch, d):
        """For every sector with a non-empty ansatz over every ordered pair of
        consecutive P_S and both parities, M and I read from the residue
        tables equal the entrywise `reduce_mod` of the exact sparse columns."""
        from mbf.graded import _Ansatz, _delta_columns, _image_columns

        solved = []
        solve = graded._solve_sector

        def recorded(gs, gt, units, parity=0):
            solved.append((gs, gt, units, parity))
            return solve(gs, gt, units, parity)

        monkeypatch.setattr(graded, "_solve_sector", recorded)
        _hom_docs(_consecutive_pairs(d))
        p, r = modular_prime(d)
        checked, images = {0: 0, 1: 0}, 0
        for gs, gt, units, parity in solved:
            ansatz = _Ansatz(gs, gt, parity, units)
            if not len(ansatz):
                continue
            residues = graded._residues(gs, gt)
            index, index_p = {}, {}
            exact = _delta_columns(ansatz, index)
            assert _delta_columns(ansatz, index_p, residues) == [
                {k: c.reduce_mod(p, r) for k, c in col.items()} for col in exact]
            assert index_p == index
            lower = _Ansatz(gs, gt, 1 - parity, units - Rat(d, 2))
            image = _image_columns(ansatz, lower, residues)
            assert image == [{t: c.reduce_mod(p, r) for t, c in col.items()}
                             for col in _image_columns(ansatz, lower)]
            checked[parity] += 1
            images += bool(image)
        assert sum(checked.values()) == {3: 180, 4: 1120}[d]
        assert min(checked.values()) and images

    def test_hom_space_twice_gives_the_same_document(self):
        """The second run reads the residues memoised by the first."""
        P = graded_ps(5, 0, 1)
        X = mbf_from_polys(P.shape, P.d0.matrix(), P.d1.matrix(), P.w, P.grading)
        Y = reduce_tensor(graded_ps(5, 0, 0), graded_ps(5, 1, 1)).reduced
        for gs, gt in ((X, Y), (Y, X)):
            first = hom_space(gs, gt).to_json()
            tables = bifact.differential_residues(gs), bifact.differential_residues(gt)
            assert None not in tables
            assert hom_space(gs, gt).to_json() == first
            assert (bifact.differential_residues(gs), bifact.differential_residues(gt)) == tables
            assert all(a is b for a, b in zip(tables, (gs._residues, gt._residues)))


def _leg_terms(phi):
    """{(leg, i, j, exponents): coefficient} of a morphism between 2-slot objects."""
    out = {}
    for leg, op in enumerate((phi.opE, phi.opO)):
        for i, row in enumerate(op.matrix()):
            for j, entry in enumerate(row):
                for e, c in entry.terms.items():
                    out[(leg, i, j, e)] = c
    return out


class TestDeltaColumns:
    @pytest.mark.parametrize("d", [3, 4])
    def test_columns_match_morphism_delta(self, d):
        """Each column of _delta_columns is delta(e_k) as Morphism.delta gives
        it, on rank-one P_S and on reduced tensor products of rank 2 and 3;
        with the sign of the source-differential part flipped it is not."""
        from mbf.graded import _Ansatz, _delta_columns

        P = [graded_ps(d, 0, 0), graded_ps(d, 1, d - 2)]
        R = [reduce_tensor(graded_ps(d, 0, 0), graded_ps(d, 0, j)).reduced
             for j in range(1, d - 1)]
        pairs = [(P[0], P[1]), (P[1], P[1]), (P[0], R[0]), (R[-1], P[1]), (R[-1], R[0])]
        one, zero = Cyclo.one(d), Cyclo.zero(d)
        flipped = 0
        for gs, gt in pairs:
            for parity in (0, 1):
                sectors = [_Ansatz(gs, gt, parity, Rat(u, 2)) for u in range(-4 * d, 4 * d)]
                sectors = [a for a in sectors if len(a)][:3]
                assert len(sectors) >= 2
                for ansatz in sectors:
                    index = {}
                    columns = _delta_columns(ansatz, index)
                    coordinate = {r: key for key, r in index.items()}
                    for k, (col, (leg, *_)) in enumerate(zip(columns, ansatz.vars)):
                        e_k = [one if t == k else zero for t in range(len(ansatz))]
                        want = _leg_terms(ansatz.morphism(e_k).delta())
                        got = {coordinate[r]: c for r, c in col.items()}
                        assert got == want
                        if any(key[0] != leg for key in got):
                            flip = {key: c if key[0] == leg else -c for key, c in got.items()}
                            assert flip != want
                            flipped += 1
        assert flipped


class TestNullHomotopy:
    def test_exact_generator_has_witness(self):
        gI = graded_unit(3)
        phi = diag_morphism(gI, "a - b")
        psi = is_null_homotopic(phi)
        assert psi is not None
        assert morphism_equal(psi.delta(), phi)[0]

    def test_unit_class_is_not_exact(self):
        gI = graded_unit(3)
        assert is_null_homotopic(Morphism.identity(gI)) is None

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_potential_derivative_is_exact(self, d):
        gI = graded_unit(d)
        phi = diag_morphism(gI, f"{d}*a^{d - 1}")
        psi = is_null_homotopic(phi)
        assert psi is not None
        assert morphism_equal(psi.delta(), phi)[0]

    def test_zero_gets_zero_witness(self):
        gI = graded_unit(4)
        psi = is_null_homotopic(Morphism.zero(gI, gI, 0))
        for op in (psi.opE, psi.opO):
            assert op_equal(op, Operator(op.src, op.dst)) == (True, "exact-structural")

    def test_rejects_mixed_input(self):
        gI = graded_unit(5)
        with pytest.raises(ValueError):
            is_null_homotopic(diag_morphism(gI, "1 + a"))

    @settings(max_examples=20, deadline=None)
    @given(
        d=st.integers(min_value=3, max_value=6),
        j=st.integers(min_value=0, max_value=3),
        data=st.data(),
    )
    def test_delta_images_always_witnessed(self, d, j, data):
        """Anything built as delta(psi) must come back with a witness."""
        j = j % (d - 1)
        gs, gt = graded_ps(d, 0, 0), graded_ps(d, 0, j)
        ring = gs.shape.ring()
        degE = data.draw(st.integers(min_value=0, max_value=3), label="degE")
        cE = data.draw(st.integers(min_value=-3, max_value=3), label="cE")
        parity = data.draw(st.integers(min_value=0, max_value=1), label="parity")
        psi = Morphism.from_poly_blocks(
            gs,
            gt,
            parity,
            [[ring.monomial({"a": degE}, cE)]],
            [[ring.zero()]],
        )
        phi = psi.delta()
        if not any(p for op in (phi.opE, phi.opO) for row in op.matrix() for p in row):
            return
        witness = is_null_homotopic(phi)
        assert witness is not None
        assert morphism_equal(witness.delta(), phi)[0]


class TestZeroChargeStructure:
    @pytest.mark.parametrize("d", [3, 4])
    def test_structure_maps_are_charge_zero(self, d):
        report = zero_charge_structure_check(d)
        assert report["ok"]
        by_name = {c["which"]: c for c in report["checks"]}
        for name in ("lambda", "rho", "associator"):
            assert by_name[name]["charge"] == "0"
        assert by_name["negative-control"]["charge"] == "NotHomogeneous"


def _blockwise(gx, gy):
    """Charges of X ⊗ Y from the factors' (even, odd) charges: blocks
    (X0 Y0, X1 Y1) and (X1 Y0, X0 Y1), X-major inside a block."""
    out = []
    for blocks in (((0, 0), (1, 1)), ((1, 0), (0, 1))):
        out.append(tuple(cx + cy for i, j in blocks for cx in gx[i] for cy in gy[j]))
    return tuple(out)


class TestGradingOnObjects:
    def test_charge_vector_length_checked(self):
        P = graded_ps(4, 0, 1)
        with pytest.raises(ValueError, match="charge vector length"):
            MBF(P.m0, P.m1, P.d0, P.d1, P.w, ((Rat(0), Rat(1)), (Rat(0),)))
        ring = P.shape.ring()
        with pytest.raises(ValueError, match="charge vector length"):
            mbf_from_polys(P.shape, [[ring.one()]], [[ring.one()]], P.w, ((), (Rat(0),)))

    @pytest.mark.parametrize("d", range(3, 9))
    def test_unit_is_graded_like_singleton(self, d):
        I, P0 = graded_unit(d), graded_ps(d, 0, 0)
        assert I.grading == P0.grading == charge_matrix_ps(d, 0)
        assert I.d0.matrix() == P0.d0.matrix()
        assert I.d1.matrix() == P0.d1.matrix()

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_tensor_and_reduced_charges(self, d):
        objs = [graded_ps(d, 0, j) for j in range(d - 1)] + [graded_ps(d, 1, d - 2), graded_unit(d)]
        for X in objs:
            for Y in objs:
                T = tensor_obj(X, Y)
                assert T.grading == _blockwise(X.grading, Y.grading)
                assert graded_validate(T)["ok"]
        X, Y, Z = objs[0], objs[-2], objs[1]
        left = tensor_obj(tensor_obj(X, Y), Z)
        right = tensor_obj(X, tensor_obj(Y, Z))
        assert left.grading == _blockwise(_blockwise(X.grading, Y.grading), Z.grading)
        assert right.grading == _blockwise(X.grading, _blockwise(Y.grading, Z.grading))
        assert graded_validate(left)["ok"] and graded_validate(right)["ok"]
        # two rank-2 factors whose charge gaps differ (2 - d and 4 - d), so the
        # X-major copy order inside a block shows
        XX, YY = tensor_obj(objs[0], objs[0]), tensor_obj(objs[1], objs[1])
        four = tensor_obj(XX, YY)
        assert four.grading == _blockwise(XX.grading, YY.grading)
        assert graded_validate(four)["ok"]
        # P ⊕ Q with charges 0 and -(d-2)/2 on its even copies, so the copy
        # order of a reduced object shows
        P, Q = objs[0], objs[-2]
        z = P.shape.ring().zero()
        e = lambda D, k: D.differential_from(k).matrix()[0][0]
        dsum = mbf_from_polys(P.shape, [[e(P, 0), z], [z, e(Q, 0)]], [[e(P, 1), z], [z, e(Q, 1)]],
                              P.w, tuple(P.charges(p) + Q.charges(p) for p in (0, 1)))
        for A in objs + [dsum]:
            for B in objs:
                for R in (A, reduce_tensor(A, B, check=False).reduced):
                    red = reduce_tensor(R, B, check=False).reduced
                    g = B.d1.matrix()[0][0].degree_in("a")
                    want = tuple(tuple(c + B.charges(0)[0] + j for c in R.charges(p) for j in range(g))
                                 for p in (0, 1))
                    assert red.grading == want
                    assert graded_validate(red)["ok"]

    def test_twist_keeps_charges(self):
        P = graded_ps(5, 0, 1)
        T = twist_object(P, 1, 3)
        assert T.grading == P.grading and graded_validate(T)["ok"]

    def test_ungraded_object_raises(self, monkeypatch, capsys):
        ring = Ring(("x", "y"), 3)
        I = unit_object(ring.var("x") ** 3 + ring.var("y") ** 3)
        assert I.grading is None
        with pytest.raises(ValueError, match="no R-charge grading"):
            morphism_charge(Morphism.identity(I))
        with pytest.raises(ValueError, match="no R-charge grading"):
            hom_space(I, I)
        with pytest.raises(ValueError, match="no R-charge grading"):
            graded_validate(tensor_obj(I, I))
        # the same ValueError reaches `mbf hom` as a usage error, not a traceback
        monkeypatch.setattr(cli, "ps_object", lambda d, S: I)
        assert cli.main(["hom", "--d", "3", "--source", "0", "--target", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "no R-charge grading" in err
        assert "Traceback" not in err
