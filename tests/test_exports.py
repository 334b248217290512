"""The public names: every name in hombox.__all__ resolves, and the names
removed from the API stay removed."""

import hombox as hb
from hombox import boxcx, cellcx, collapse, homcx, rgraph

# deletion and independently_free: folded into elementary_g_collapse, which
# checks its step with apply_orbit_step.  _presentation: every action is
# given by a presentation, so no presentation is searched for.
# critical_complex: the stage-3 check builds the critical subcomplex, and
# the collapse of a matching ends at its fingerprint without building it.
# stellar_g_subdivision, _stellar_cells and _is_simplicial: every stellar
# cell is named by a cone payload, on vertex sets and products alike, so
# stellar_subdivision_poset is the one reference subdivision.
# _boxes, _spanning_subsets and _multihom_encoder: multihoms, spanning
# subsets and their encodings are built on integer ids (homcx and boxcx).
REMOVED = ("deletion", "independently_free", "_presentation",
           "critical_complex", "stellar_g_subdivision", "_stellar_cells",
           "_is_simplicial", "_boxes", "_spanning_subsets",
           "_multihom_encoder")
# Names added to the API, each with the module that defines it.
ADDED = (("kneser_rgraph", rgraph),)


def test_every_exported_name_resolves():
    assert len(set(hb.__all__)) == len(hb.__all__)
    assert [name for name in hb.__all__ if not hasattr(hb, name)] == []


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in hb.__all__
        assert not hasattr(hb, name)
        for module in (boxcx, cellcx, collapse, homcx):
            assert not hasattr(module, name)


def test_added_names_are_exported():
    for name, module in ADDED:
        assert name in hb.__all__
        assert getattr(hb, name) is getattr(module, name)
