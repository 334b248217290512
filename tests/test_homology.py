"""Homology: oriented boundaries, Betti numbers, torsion, and the box/Hom
agreement check, validated against a dense rational-arithmetic oracle."""

import json

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form

import hombox as hb
from hombox import InputError, homology
from hombox.cellcx import canon_bytes

from conftest import CORPUS_NAMES, stellar_stage


def rp2():
    """The 6-vertex triangulation of the real projective plane."""
    tris = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]
    return hb.CellComplex.from_simplices([frozenset(t) for t in tris])


def sphere2():
    return hb.CellComplex.from_simplices(
        [frozenset("abcd") - {v} for v in "abcd"])


def hexagon():
    verts = "uvwxyz"
    return hb.CellComplex.from_simplices(
        [frozenset((verts[i], verts[(i + 1) % 6])) for i in range(6)])


def dunce_hat():
    """A triangle whose three sides are glued as a a a^-1: each side is the
    path 1-2-3-1, so the boundary 9-gon reads 1 2 3 1 2 3 1 3 2.  It is
    the cone on that 9-gon from a centre o, subdivided once (the spokes at
    s_i, the glued edges at m_ab, the cone triangles at t_i), so that the
    glued cells stay simplices."""
    ring = "123123132"
    tris = []
    for i in range(9):
        a, b = ring[i], ring[(i + 1) % 9]
        sa, sb, t = "s%d" % i, "s%d" % ((i + 1) % 9), "t%d" % i
        m = "m" + "".join(sorted(a + b))
        tris += [("o", sa, t), ("o", sb, t), (a, sa, t), (a, m, t),
                 (b, m, t), (b, sb, t)]
    return hb.CellComplex.from_simplices([frozenset(x) for x in tris])


def three_components():
    """A 2-sphere, a hexagon and a solid triangle, side by side."""
    return hb.CellComplex.from_simplices(
        [frozenset("abcd") - {v} for v in "abcd"]
        + [frozenset((v, w)) for v, w in zip("uvwxyz", "vwxyzu")]
        + [frozenset("pqr")])


def oracle_homology(K):
    """Betti numbers and torsion by dense rational ranks and Smith normal
    form, independent of the package's elimination."""
    D = K.max_dim
    ids_of = [K.cells_of_dim(d) for d in range(D + 1)]
    ranks = [0] * (D + 2)
    invs = [[] for _ in range(D + 2)]
    for d in range(1, D + 1):
        rows = {r: k for k, r in enumerate(ids_of[d - 1])}
        mat = sympy.zeros(len(ids_of[d - 1]), len(ids_of[d]))
        for j, i in enumerate(ids_of[d]):
            p = K.payloads[i]
            if isinstance(p, frozenset):
                faces = [p - {v} for v in sorted(p, key=canon_bytes)]
            else:
                faces = [p[:t] + p[t + 1:] for t in range(len(p))]
            for t, fp in enumerate(faces):
                mat[rows[K.index[fp]], j] = (-1) ** t
        ranks[d] = mat.rank()
        if ranks[d]:
            snf = smith_normal_form(mat, domain=sympy.ZZ)
            diag = [abs(snf[k, k]) for k in range(min(snf.shape))]
            invs[d] = sorted(int(x) for x in diag if x)
    bettis = [len(ids_of[d]) - ranks[d] - ranks[d + 1] for d in range(D + 1)]
    torsion = [[f for f in invs[d + 1] if f > 1] for d in range(D + 1)]
    # Z/2 ranks follow from the invariant factors: factors that stay odd
    # survive reduction mod 2
    r2 = [sum(1 for f in invs[d] if f % 2) for d in range(D + 2)]
    bettis2 = [len(ids_of[d]) - r2[d] - r2[d + 1] for d in range(D + 1)]
    return bettis, torsion, bettis2


def oracle_cases():
    pt = hb.CellComplex.from_simplices([frozenset("a")])
    seg = hb.CellComplex.from_simplices([frozenset("ab")])
    solid = hb.CellComplex.from_simplices([frozenset("abc")])
    hollow = hb.CellComplex.from_simplices(
        [frozenset("ab"), frozenset("bc"), frozenset("ca")])
    both = hb.CellComplex.from_simplices(
        [frozenset("abc"), frozenset("pq"), frozenset("qr"), frozenset("rp")])
    return [("point", pt), ("segment", seg), ("solid", solid),
            ("hollow", hollow), ("sphere", sphere2()), ("rp2", rp2()),
            ("hexagon", hexagon()), ("union", both),
            ("dunce", dunce_hat()), ("three", three_components())]


# -- oriented boundaries -----------------------------------------------------


@pytest.mark.parametrize("name,K", oracle_cases())
def test_boundary_squares_to_zero(name, K):
    bnd = hb.oriented_boundary(K)
    for i in range(len(K)):
        if K.dims[i] < 2:
            continue
        acc = {}
        for f, s in bnd[i].items():
            for f2, s2 in bnd[f].items():
                acc[f2] = acc.get(f2, 0) + s * s2
        assert all(v == 0 for v in acc.values()), (name, i)


def test_boundary_squares_to_zero_on_chains(solid_triangle):
    sd = hb.order_complex(solid_triangle)
    bnd = hb.oriented_boundary(sd)
    for i in range(len(sd)):
        if sd.dims[i] < 2:
            continue
        acc = {}
        for f, s in bnd[i].items():
            for f2, s2 in bnd[f].items():
                acc[f2] = acc.get(f2, 0) + s * s2
        assert all(v == 0 for v in acc.values())


def test_boundary_shape(solid_triangle):
    bnd = hb.oriented_boundary(solid_triangle)
    for i in range(len(solid_triangle)):
        col = bnd[i]
        assert set(col) == set(solid_triangle.down[i])
        assert sorted(col.values()) == sorted(
            (-1) ** t for t in range(len(col)))


def test_boundary_rejects_cone_payloads(corpus):
    # a stellar stage names the cells it appends by cone payloads
    # ("*c", apex, base), which are neither simplices nor products
    hom = hb.hom_complex(corpus["K_3^2"])
    top = hom.cx.up_degrees().index(0)
    K = stellar_stage(hom.cx, hb.trivial_action(hom.cx), top).final
    with pytest.raises(InputError, match="cannot orient"):
        hb.oriented_boundary(K)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_hom_boundary_is_product_boundary(name, corpus):
    # every Hom cell is a product of simplices: its oriented faces are
    # exactly its covers, and the boundary squares to zero
    cx = hb.hom_complex(corpus[name]).cx
    bnd = hb.oriented_boundary(cx)
    for i in range(len(cx)):
        assert set(bnd[i]) == set(cx.down[i]), (name, i)
        acc = {}
        for f, s in bnd[i].items():
            for f2, s2 in bnd[f].items():
                acc[f2] = acc.get(f2, 0) + s * s2
        assert all(v == 0 for v in acc.values()), (name, i)


def test_product_boundary_signs(corpus):
    # a square, the product of two segments: d(ab x cd) has the factor
    # dimension 1 in the sign of the faces of the second factor
    cx = hb.hom_complex(corpus["K_4^2"]).cx
    sq = next(i for i, p in enumerate(cx.payloads)
              if [len(q) for q in p] == [2, 2])
    (a, b), (c, d) = (sorted(q, key=canon_bytes) for q in cx.payloads[sq])
    want = {(frozenset([b]), frozenset([c, d])): 1,
            (frozenset([a]), frozenset([c, d])): -1,
            (frozenset([a, b]), frozenset([d])): -1,
            (frozenset([a, b]), frozenset([c])): 1}
    got = {cx.payloads[j]: s for j, s in hb.oriented_boundary(cx)[sq].items()}
    assert got == want


# -- Betti numbers against the oracle ----------------------------------------


@pytest.mark.parametrize("name,K", oracle_cases())
def test_betti_matches_oracle(name, K):
    ob, ot, ob2 = oracle_homology(K)
    b, t = hb.betti(K, "z")
    assert b == ob, name
    assert [sorted(row) for row in t] == ot, name
    b2, t2 = hb.betti(K, "z2")
    assert b2 == ob2, name
    assert all(row == [] for row in t2)


def test_betti_box_matches_oracle(corpus):
    box = hb.box_edge(corpus["K_4^3"])
    ob, ot, _ = oracle_homology(box.cx)
    b, t = hb.betti(box.cx, "z")
    assert (b, [sorted(r) for r in t]) == (ob, ot) == ([1, 13], [[], []])
    # and so does its order complex, whose cells are int-tuple chains
    assert hb.betti(hb.order_complex(box.cx), "z") == (b, t)


def test_betti_hom_matches_order_complex_oracle(corpus):
    # the Hom complex is oriented by its product cells, not subdivided
    hom = hb.hom_complex(corpus["K_4^3"])
    oc = hb.order_complex(hom.cx)
    ob, ot, ob2 = oracle_homology(oc)
    b, t = hb.betti(hom.cx, "z")
    assert b == ob and [sorted(r) for r in t] == ot
    assert b == [1, 13]
    assert hb.betti(hom.cx, "z2")[0] == ob2


def test_betti_known_values():
    assert hb.betti(hb.CellComplex.from_simplices([frozenset("a")])) == (
        [1], [[]])
    assert hb.betti(hexagon()) == ([1, 1], [[], []])
    assert hb.betti(sphere2()) == ([1, 0, 1], [[], [], []])
    assert hb.betti(hb.CellComplex([], [], [])) == ([], [])


def test_rp2_torsion():
    K = rp2()
    # sanity of the fixture: a closed surface, every edge in two triangles
    for e in K.cells_of_dim(1):
        assert len(K.up[e]) == 2
    assert hb.betti(K, "z") == ([1, 0, 0], [[], [2], []])
    assert hb.betti(K, "z2") == ([1, 1, 1], [[], [], []])


def test_sd_rp2_torsion():
    sd = hb.order_complex(rp2())
    assert hb.betti(sd, "z") == ([1, 0, 0], [[], [2], []])
    assert hb.betti(sd, "z2") == ([1, 1, 1], [[], [], []])


def test_dunce_hat_has_no_free_face():
    # no pair can go before a seed vertex does: every edge lies in at
    # least two triangles, and some in three
    K = dunce_hat()
    degrees = [len(K.up[e]) for e in K.cells_of_dim(1)]
    assert min(degrees) == 2 and max(degrees) == 3
    assert hb.betti(K, "z") == ([1, 0, 0], [[], [], []])
    assert hb.betti(K, "z2") == ([1, 0, 0], [[], [], []])


def test_betti_of_three_components():
    K = three_components()
    assert hb.betti(K, "z") == ([3, 1, 1], [[], [], []])
    assert hb.betti(K, "z2") == ([3, 1, 1], [[], [], []])


@pytest.mark.parametrize("which", ["box", "hom"])
def test_reduction_leaves_few_cells_to_rank(which, corpus, monkeypatch):
    # the ranks see only the cells that the pass by zero-fill pairs leaves;
    # without it they would see every cell of positive dimension
    cx = {"box": hb.box_edge, "hom": hb.hom_complex}[which](corpus["K_5^3"]).cx
    seen = []

    def counting(rank):
        def counted(columns):
            seen.append(len(columns))
            return rank(columns)
        return counted

    for name in ("_snf_invariants", "_rank_gf2"):
        monkeypatch.setattr(homology, name, counting(getattr(homology, name)))
    assert hb.betti(cx, "z") == ([1, 0, 29] + [0] * (cx.max_dim - 2),
                                 [[]] * (cx.max_dim + 1))
    assert 0 < sum(seen) < len(cx) / 10
    seen.clear()
    assert hb.betti(cx, "z2")[0] == [1, 0, 29] + [0] * (cx.max_dim - 2)
    assert 0 < sum(seen) < len(cx) / 10


def test_betti_invariant_under_subdivision():
    for K in (rp2(), sphere2(), hexagon()):
        sd = hb.order_complex(K)
        assert hb.betti(sd, "z") == hb.betti(K, "z")
        assert hb.betti(sd, "z2") == hb.betti(K, "z2")


def test_betti_additive_on_disjoint_union():
    both = hb.CellComplex.from_simplices(
        [frozenset("abc"), frozenset("pq"), frozenset("qr"), frozenset("rp")])
    b, t = hb.betti(both)
    assert b == [2, 1, 0]
    assert t == [[], [], []]


BOX_BETTI = {
    "K_2^2": [2],
    "K_3^2": [1, 1],
    "K_4^2": [1, 0, 1, 0],
    "K_3^3": [6],
    "K_4^3": [1, 13],
    "K_5^3": [1, 0, 29, 0],
    "K3_112": [6, 0],
    "K3_122": [6, 0, 0, 0],
}


@pytest.mark.parametrize("name", sorted(BOX_BETTI))
def test_betti_of_corpus_boxes(name, corpus):
    box = hb.box_edge(corpus[name])
    b, t = hb.betti(box.cx, "z")
    assert b == BOX_BETTI[name]
    assert all(row == [] for row in t)


def test_betti_rejects_bad_coeff(solid_triangle):
    with pytest.raises(InputError):
        hb.betti(solid_triangle, "q")


# -- reports and agreement ---------------------------------------------------


def test_homology_report_is_json_ready():
    rep = hb.homology_report(rp2())
    assert json.loads(json.dumps(rep)) == rep
    assert rep == {"betti": [1, 0, 0], "torsion": [[], [2], []]}


@pytest.mark.parametrize("name", ["K_3^2", "K_4^3", "K3_112"])
def test_homology_agreement(name, corpus):
    out = hb.homology_agreement(corpus[name])
    assert out.agree
    assert out.box_report == out.hom_report
    assert out.box_report["betti"] == BOX_BETTI[name]


def test_homology_agreement_z2(corpus):
    out = hb.homology_agreement(corpus["K_3^2"], coeff="z2")
    assert out.agree
    assert out.box_report["betti"] == [1, 1]
    assert all(row == [] for row in out.box_report["torsion"])


@pytest.mark.parametrize("name", ["K_4^3", "K3_122"])
def test_homology_agreement_reuses_matching(name, corpus, matchings,
                                            monkeypatch):
    # homology reads no group action, so none is built for it
    built = []
    init = hb.GroupAction.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(hb.GroupAction, "__init__", counting_init)
    alone = hb.homology_agreement(corpus[name])
    assert built == []
    M = matchings[name]
    reused = hb.homology_agreement(corpus[name], complexes=(M.hom, M.box))
    assert built == []
    assert alone == reused and alone.agree
