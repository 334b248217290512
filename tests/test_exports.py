"""The public names: every name in hombox.__all__ resolves and is
documented in README.md, and the names removed from the API stay removed."""

import ast
import inspect
import re
from pathlib import Path

import hombox as hb
from hombox import boxcx, cellcx, collapse, errors, homcx, morse, rgraph

README = Path(__file__).resolve().parent.parent / "README.md"
REFERENCE = Path(__file__).resolve().parent / "stellar_reference.py"

# deletion and independently_free: every orbit step, built or replayed, is
# checked by apply_orbit_step, which also tells a free pair from a non-free
# one.  _presentation: every action is
# given by a presentation, so no presentation is searched for.
# critical_complex: the stage-3 check builds the critical subcomplex, and
# the collapse of a matching ends at its fingerprint without building it.
# stellar_g_subdivision, _stellar_cells and _is_simplicial: every stellar
# cell is named by a cone payload, on vertex sets and products alike.
# _boxes, _spanning_subsets and _multihom_encoder: multihoms, spanning
# subsets and their encodings are built on integer ids (homcx and boxcx).
# elementary_g_collapse, GCollapse and free_facet: apply_orbit_step on a
# CollapseState is the one elementary collapse, and it finds a pair that is
# not free.  closed_star and maximal_ids: no caller; a complex's maximal
# cells are those whose up tuple is empty.  verify_acyclic and _find_cycle:
# a matching is proven acyclic by its collapse (Matching.verify).  hom_leq:
# the multihom order is componentwise inclusion, the covers of the Hom
# complex.
# generates_complete and EmptyPart: contains_complete_sub is the one
# complete-subgraph test.  _flatten_map and
# _check_iso: verify_iso_ids is the one isomorphism checker, on id tables;
# _unfold reads the table of a stellar end complex from its cells' members,
# and verify_isomorphism is the payload front of verify_iso_ids.
# classify_chain, mu and NotInSigma, which only mu raised: build_matching
# applies the one matching rule, and test_morse keeps the item-by-item form
# as its oracle.  remove and add, of CollapseState and the cell store:
# set_alive moves the cells of a whole orbit step at once.  _carry and
# _facet_clash: every orbit an orbit step or a cone pairing reads is free,
# and is read down the action's word table; an orbit that is not free is
# refused, so no orbit is searched along the generators for its stabilizer.
# stellar_subdivision_poset, stellar_deformation_certificate, StellarStage
# and orbit_star_data: the stellar stage (collapse._stellar_stage) is the
# library's one stellar subdivision, and its star is the private
# collapse._orbit_star; the tests hold the stage to a direct subdivision of
# their own (tests/stellar_reference.py).  _unfold: the unfold of a stellar
# end complex onto sd K is a step the caller runs once sd K exists, the
# public unfold_subdivision.  barycentric_subdivision: a second name for
# order_complex, the one name for sd K, which the benchmark's tracer wraps.
# canon_key: a second name for canon_bytes, which is the sort key.
# enumerate_multihoms: the multihoms of H are the payloads of
# hom_complex(H).cx, and the tests check them against two oracles of their
# own; a list built by the same code as the Hom complex checked nothing.
# hom_dim, action_on_multihoms and s_r_labels: only tests called them; a
# Hom cell's dimension is its complex's dims entry, the action is
# homcx.coordinate_map, and the tests keep small helpers of their own.
# empty, of CellComplex: CellComplex([], [], []) is the empty complex.
# _part_digest, _APEX_TAG and _CONE_TAG: every cell digests its payload,
# one way, and no cell a stellar stage appends is digested.  _check_ends
# and _iso_stage: an isomorphism stage holds its kind and name only, as
# replay builds both of its complexes.
REMOVED = ("deletion", "independently_free", "_presentation",
           "critical_complex", "stellar_g_subdivision", "_stellar_cells",
           "_is_simplicial", "_boxes", "_spanning_subsets",
           "_multihom_encoder", "elementary_g_collapse", "GCollapse",
           "free_facet", "closed_star", "maximal_ids", "verify_acyclic",
           "hom_leq", "generates_complete", "EmptyPart", "_flatten_map",
           "_check_iso", "classify_chain", "mu", "NotInSigma", "remove",
           "add", "_carry", "_facet_clash", "_find_cycle",
           "stellar_subdivision_poset", "stellar_deformation_certificate",
           "StellarStage", "orbit_star_data", "_unfold",
           "barycentric_subdivision", "canon_key", "enumerate_multihoms",
           "hom_dim", "action_on_multihoms", "s_r_labels", "empty",
           "_part_digest", "_APEX_TAG", "_CONE_TAG", "_check_ends",
           "_iso_stage")
# Names added to the API, each with the module that defines it.
ADDED = (("kneser_rgraph", rgraph), ("unfold_subdivision", collapse))


def test_every_exported_name_resolves():
    assert len(set(hb.__all__)) == len(hb.__all__)
    assert [name for name in hb.__all__ if not hasattr(hb, name)] == []


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in hb.__all__
        assert not hasattr(hb, name)
        for module in (boxcx, cellcx, collapse, errors, homcx, morse,
                       rgraph):
            assert not hasattr(module, name)
        for cls in (cellcx.CellComplex, collapse.CollapseState,
                    collapse._CellStore, morse.Matching):
            assert not hasattr(cls, name)


def test_every_exported_name_is_documented():
    words = set(re.findall(r"\w+", README.read_text()))
    assert [name for name in hb.__all__ if name not in words] == []


def test_added_names_are_exported():
    for name, module in ADDED:
        assert name in hb.__all__
        assert getattr(hb, name) is getattr(module, name)


def test_one_isomorphism_checker():
    # collapse imports the checker by name, as the benchmark's tracer finds
    # it there
    assert hb.verify_iso_ids is cellcx.verify_iso_ids
    assert collapse.verify_iso_ids is cellcx.verify_iso_ids


def test_removed_fields():
    # old2new of CriticalIso, and collapse_run of a main theorem
    # certificate: nothing read them.  Matching's to_json_obj (the
    # chain listing) and summary: `hombox verify --certificate` writes and
    # replays the collapse certificate of the theorem's stage 4, and prints
    # the counts it reports.  Other classes keep their to_json_obj.
    # sd, sd_action and iso of SdDeformation: sd_deformation builds no sd K,
    # and its unfold onto sd K is unfold_subdivision.  matching, hom_def and
    # box_def of a main theorem certificate: the build lets each go when
    # it is done with it, and the certificate carries the Hom and box
    # bundles (hom, box) that the CLI's homology reads.
    assert "old2new" not in hb.CriticalIso._fields
    assert hb.SdDeformation._fields == ("certificate", "final",
                                        "final_action")
    assert not hasattr(hb.Matching, "to_json_obj")
    assert not hasattr(hb.Matching, "summary")
    assert hasattr(hb.DeformationCertificate, "to_json_obj")
    cert = hb.main_theorem_certificate(hb.complete_rgraph(3, 2))
    for name in ("collapse_run", "matching", "hom_def", "box_def"):
        assert not hasattr(cert, name), name
    assert (cert.hom.cx.fingerprint, cert.box.cx.fingerprint) \
        == cert.endpoints
    # digests of the cell store: the store's cells are never digested, and
    # a complex copied out of it digests its payloads when one is read
    store = collapse._CellStore(cert.box.cx, cert.box.action)
    assert not hasattr(store, "digests")
    assert not hasattr(store, "fingerprint")


def test_main_theorem_certificate_takes_the_graph_and_the_guard():
    # no caller passes a prebuilt matching: the build makes its own, and
    # lets it go when stage 4 is done with it
    params = inspect.signature(hb.main_theorem_certificate).parameters
    assert list(params) == ["H", "max_cells"]
    assert params["max_cells"].default is None


def test_stellar_reference_shares_no_code_with_the_stage():
    # the oracle that the stellar stage is held to takes from hombox only
    # the complex class, the payload tags and the clash error, so a fault
    # in the stage's star or cones cannot hide in code both share
    allowed = {"CellComplex", "BARY", "CONE", "OrbitCofaceClash"}
    taken = []
    for node in ast.walk(ast.parse(REFERENCE.read_text())):
        if isinstance(node, ast.Import):
            taken += [a.name for a in node.names
                      if a.name.split(".")[0] == "hombox"]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "hombox"):
            taken += [a.name for a in node.names]
    assert taken and set(taken) <= allowed, taken
