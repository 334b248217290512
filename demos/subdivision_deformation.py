"""Stellar subdivisions as certified zig-zags of expansions and collapses,
composed into a deformation from K to its barycentric subdivision.

Run:  python3 demos/subdivision_deformation.py
"""

import hombox as hb

# the hollow triangle with its rotation action
K = hb.CellComplex.from_simplices(
    [frozenset("ab"), frozenset("bc"), frozenset("ca")])
rot = {"a": "b", "b": "c", "c": "a"}
A = hb.GroupAction.from_payload_maps(
    K, [lambda p: frozenset(rot[v] for v in p)], ["r"], order=3,
    relations=[((0, 0, 0), ())])
print("K: %d cells %s with a free Z_3 action (%d orbits)"
      % (len(K), K.dim_counts(), len(A.orbits())))

# K deforms to (a complex isomorphic to) sd K, one stellar stage per orbit
# of positive dimension.  Here the one such orbit is the edge orbit, so
# the deformation is a single stage: expansions into a cone universe, then
# collapses onto the stellar subdivision at the three edges, each new cell
# named as a cone ("*c", apex, base) from an apex ("*b", edge)
d = hb.sd_deformation(K, A)
[(_, _, steps)] = d.certificate.runs
# The unfold onto sd K is a step of its own: the caller subdivides K once,
# lifts the action, and checks the end complex against that subdivision
sd = hb.order_complex(K)
sd_action = hb.lift_action_to_order_complex(A, sd)
iso = hb.unfold_subdivision(d.final, d.final_action, sd_action)
print("starring the edge orbit: %d cells -> %d (sd K has %d chains), "
      "certified in %d steps: %s" % (len(K), len(d.final), len(sd),
                                     len(steps), [s[0] for s in steps]))
hb.verify_iso_ids(d.final, sd, iso, d.final_action, sd_action)
print("endpoint is Z_3-isomorphic to sd K (explicit table verified)")

# a replay re-derives every cone universe in one cell store, checks its
# fingerprint and re-checks every step
final, action = hb.replay_sd_deformation(K, A, d.certificate)
assert final.fingerprint_hex == d.final.fingerprint_hex
print("replay ok; certificates compose backwards too:"
      " reversed endpoints %s" % (d.certificate.reversed().endpoints ==
                                  d.certificate.endpoints[::-1]))

# the same machinery runs on polytopal (product) cells: the box complex of
# K3_122 with its full S_3 action
box = hb.box_edge(hb.complete_multipartite([1, 2, 2]))
d2 = hb.sd_deformation(box.cx, box.action)
sd_box = hb.order_complex(box.cx)
hb.unfold_subdivision(d2.final, d2.final_action,
                      hb.lift_action_to_order_complex(box.action, sd_box))
print("box(K3_122): %d cells deform to sd with %d chains in %d steps"
      % (len(box.cx), len(sd_box), len(d2.certificate)))

# hombox certifies free actions only, as S_r acts on the paper's complexes:
# a cell that a transposition (i j) fixes would need an edge with a
# repeated vertex.  Orbit steps and cone pairings are read down the
# action's word table, one image per group element, so an orbit with a
# stabilizer is refused instead of producing an unverified deformation.
# Here S_3 acts by the transpositions a <-> b and b <-> c, and a <-> b
# fixes the edge ab
A6 = hb.GroupAction.symmetric(
    K, [lambda p, m=m: frozenset(m.get(v, v) for v in p)
        for m in ({"a": "b", "b": "a"}, {"b": "c", "c": "b"})],
    hb.s_r_generators(3))
try:
    hb.sd_deformation(K, A6)
except hb.Stuck as e:
    print("full S_3 on the triangle is refused: %s" % e)
