"""Properties that hold for every r-graph, checked on random small ones:
the theorem certificate builds and replays, box and Hom homology agree,
the Hom complex oriented by its product cells has the homology of its order
complex, and S_r acts freely on Hom, box and sd box.  Homology agrees with
a dense oracle on random simplicial complexes.  And a property of
replay: a theorem certificate with any one field changed is rejected with a
HomboxError."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hombox as hb

from conftest import replays, small_rgraphs
from test_homology import oracle_homology

FIXTURES = Path(__file__).resolve().parent / "fixtures"

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
    if matching_or_none(H) is None:
        return
    cert = hb.main_theorem_certificate(H)
    replays(H, cert.to_json_obj())


@settings(max_examples=25, derandomize=True, deadline=None)
@given(small_rgraphs())
def test_homology_agrees_and_hom_needs_no_subdivision(H):
    M = matching_or_none(H)
    if M is None:
        return
    assert hb.homology_agreement(H, complexes=(M.hom, M.box)).agree
    assert hb.homology_agreement(H, coeff="z2", complexes=(M.hom, M.box)).agree
    sd_hom = hb.order_complex(M.hom.cx)
    for coeff in ("z", "z2"):
        assert hb.betti(M.hom.cx, coeff) == hb.betti(sd_hom, coeff)


# 6 to 14 facets of 1 to 4 vertices among 8: of the 100 drawn, a quarter
# are disconnected and half have 1-cycles.
simplicial_complexes = st.lists(
    st.frozensets(st.integers(0, 7), min_size=1, max_size=4),
    min_size=6, max_size=14).map(hb.CellComplex.from_simplices)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(simplicial_complexes)
def test_betti_matches_the_dense_oracle(K):
    # the pass by zero-fill pairs and seed vertices is exact over Z and Z/2
    ob, ot, ob2 = oracle_homology(K)
    b, t = hb.betti(K, "z")
    assert (b, [sorted(row) for row in t]) == (ob, ot)
    assert hb.betti(K, "z2") == (ob2, [[] for _ in ob2])


@settings(max_examples=25, derandomize=True, deadline=None)
@given(small_rgraphs())
def test_actions_are_free(H):
    # a cell that a transposition (i j) fixes would need f(i) = f(j), an
    # edge with a repeated vertex; the orbit kernel of collapse relies on it
    try:
        hom = hb.hom_complex(H, max_cells=CHAIN_CAP)
        box = hb.box_edge(H, max_cells=CHAIN_CAP)
        sd = hb.order_complex(box.cx, max_cells=CHAIN_CAP)
    except hb.SizeGuard:
        return
    assert hom.action.is_free() and box.action.is_free()
    assert hb.lift_action_to_order_complex(box.action, sd).is_free()


def _fields(obj, path=()):
    """The paths of every field inside the JSON value obj, containers
    included."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


_CERTS = {}


def _certificate(name, version, certificates):
    """A corpus graph's theorem certificate of the given version, as JSON
    text, and the paths of its fields: version 6 built here, versions 1 to
    5 the fixtures of K3_122, which replay refuses by their version."""
    if (name, version) not in _CERTS:
        if version < 6:
            text = (FIXTURES / ("theorem_v%d_%s.json"
                                % (version, name.replace("^", "_")))
                    ).read_text()
        else:
            text = json.dumps(certificates[name].to_json_obj())
        _CERTS[name, version] = text, list(_fields(json.loads(text)))
    return _CERTS[name, version]


def _tampered(value, kind, shift):
    """value replaced by a different one of the given kind."""
    if kind == "shift":
        return value + shift
    if kind == "negative":
        return -1
    if kind == "bool":
        return value is not True
    if kind == "none":
        return None
    if kind == "string":
        return "tampered"
    return [] if value != [] else [0]


# K_4^3's expand-to-sd-box stage has no step; K3_122's has 58.  A tamper
# of an old certificate's version field can make it read as version 6.
# Versions 1 to 5 are the fixtures of K3_122.
@pytest.mark.parametrize("name, version", [
    pytest.param("K3_122", 1, id="1"), pytest.param("K3_122", 2, id="2"),
    pytest.param("K_4^3", 6, id="6"),
    pytest.param("K3_122", 3, id="K3_122-3"),
    pytest.param("K3_122", 4, id="K3_122-4"),
    pytest.param("K3_122", 5, id="K3_122-5"),
    pytest.param("K3_122", 6, id="K3_122-6")])
@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_single_field_tamper_is_rejected(corpus, certificates, name,
                                            version, data):
    text, paths = _certificate(name, version, certificates)
    obj = json.loads(text)
    path = data.draw(st.sampled_from(paths), label="field")
    *up, key = path
    parent = obj
    for k in up:
        parent = parent[k]
    value = parent[key]
    kinds = ["negative", "bool", "none", "string", "list"]
    if isinstance(value, int) and not isinstance(value, bool):
        kinds.append("shift")
    if isinstance(parent, dict):
        kinds.append("drop")
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "drop":
        del parent[key]
    else:
        shift = data.draw(st.integers(1, 3) | st.integers(-3, -1),
                          label="shift")
        new = _tampered(value, kind, shift)
        if new == value and type(new) is type(value):
            return
        parent[key] = new
    with pytest.raises(hb.HomboxError):
        hb.replay_main_theorem(corpus[name], obj)
