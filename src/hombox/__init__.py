"""hombox: box complexes, Hom complexes, equivariant discrete Morse matching,
S_r-collapsing, and machine-checkable simple-homotopy certificates for small
r-uniform hypergraphs."""

from .boxcx import (BoxComplex, box_edge, count_spanning, i_image_ids,
                    ip_fixed, ip_tables, iso_criterion, map_i, map_p)
from .cellcx import (CellComplex, GroupAction, canon_bytes,
                     lift_action_to_order_complex, order_complex,
                     trivial_action, verify_iso_ids, verify_isomorphism)
from .collapse import (CollapseRun, CollapseState, CriticalIso,
                       DeformationCertificate, MainTheoremCertificate,
                       SdDeformation, apply_orbit_step,
                       main_theorem_certificate, matching_to_collapse,
                       replay_collapse_certificate,
                       replay_main_theorem, replay_sd_deformation,
                       sd_deformation, unfold_subdivision,
                       verify_critical_isomorphism)
from .errors import (DegenerateEdge, DuplicateEdge, EdgeWrongArity,
                     HomboxError, InputError, InvalidParams, MatchingInvalid,
                     NotFree, OrbitCofaceClash,
                     OrbitNotIndependentlyFree, SizeGuard, Stuck,
                     UnknownVertex, VerificationError, WrongCodimension)
from .homcx import HomComplex, hom_complex, s_r_generators
from .homology import (HomologyAgreement, betti, homology_agreement,
                       homology_report, oriented_boundary)
from .morse import Matching, build_matching
from .rgraph import (RGraph, complete_multipartite, complete_rgraph,
                     contains_complete_sub, kneser_rgraph, load_rgraph,
                     new_rgraph)

__version__ = "0.1.0"

__all__ = [
    "BoxComplex", "box_edge", "count_spanning", "i_image_ids", "ip_fixed",
    "ip_tables", "iso_criterion", "map_i", "map_p",
    "CellComplex", "GroupAction", "canon_bytes",
    "lift_action_to_order_complex", "order_complex", "trivial_action",
    "verify_iso_ids", "verify_isomorphism",
    "CollapseRun", "CollapseState", "CriticalIso", "DeformationCertificate",
    "MainTheoremCertificate", "SdDeformation",
    "apply_orbit_step", "main_theorem_certificate", "matching_to_collapse",
    "replay_collapse_certificate", "replay_main_theorem",
    "replay_sd_deformation", "sd_deformation", "unfold_subdivision",
    "verify_critical_isomorphism",
    "DegenerateEdge", "DuplicateEdge", "EdgeWrongArity",
    "HomboxError", "InputError", "InvalidParams", "MatchingInvalid",
    "NotFree", "OrbitCofaceClash", "OrbitNotIndependentlyFree",
    "SizeGuard", "Stuck", "UnknownVertex", "VerificationError",
    "WrongCodimension",
    "HomComplex", "hom_complex", "s_r_generators",
    "HomologyAgreement", "betti", "homology_agreement", "homology_report",
    "oriented_boundary",
    "Matching", "build_matching",
    "RGraph", "complete_multipartite", "complete_rgraph",
    "contains_complete_sub", "kneser_rgraph",
    "load_rgraph", "new_rgraph",
]
