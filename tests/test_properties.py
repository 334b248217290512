"""Properties that hold for every r-graph, checked on random small ones:
the theorem certificate builds and replays, box and Hom homology agree, and
the Hom complex oriented by its product cells has the homology of its order
complex."""

from hypothesis import given, settings

import hombox as hb

from conftest import small_rgraphs

# Graphs whose sd B_edge(H) has more chains than this are skipped, to keep
# the suite fast; most graphs on at most 5 vertices stay under it.
CHAIN_CAP = 2000


def matching_or_none(H):
    try:
        return hb.build_matching(H, max_cells=CHAIN_CAP)
    except hb.SizeGuard:
        return None


@settings(max_examples=25, derandomize=True, deadline=None)
@given(small_rgraphs())
def test_theorem_certificate_builds_and_replays(H):
    M = matching_or_none(H)
    if M is None:
        return
    cert = hb.main_theorem_certificate(H, matching=M)
    assert hb.replay_main_theorem(H, cert.to_json_obj(), matching=M) is True


@settings(max_examples=25, derandomize=True, deadline=None)
@given(small_rgraphs())
def test_homology_agrees_and_hom_needs_no_subdivision(H):
    M = matching_or_none(H)
    if M is None:
        return
    assert hb.homology_agreement(H, matching=M).agree
    assert hb.homology_agreement(H, coeff="z2", matching=M).agree
    sd_hom = hb.order_complex(M.hom.cx)
    for coeff in ("z", "z2"):
        assert hb.betti(M.hom.cx, coeff) == hb.betti(sd_hom, coeff)
