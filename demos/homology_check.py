"""Integral homology of box and Hom complexes, and the agreement check
that pairs them with the collapse machinery.

Run:  python3 demos/homology_check.py
"""

import hombox as hb

# Betti numbers of box complexes over the corpus
NAMES = ["K_2^2", "K_3^2", "K_4^2", "K_3^3", "K_4^3", "K_5^3",
         "K3_112", "K3_122"]


def make(name):
    if name.startswith("K3_"):
        return hb.complete_multipartite([int(c) for c in name[3:]])
    n, r = name[2:].split("^")
    return hb.complete_rgraph(int(n), int(r))


print("box complex homology over Z:")
for name in NAMES:
    box = hb.box_edge(make(name))
    b, t = hb.betti(box.cx)
    print("  %-8s %4d cells  betti %-12s torsion %s" % (name, len(box.cx), b, t))

# torsion shows up where it should: a triangulated projective plane
tris = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)]
rp2 = hb.CellComplex.from_simplices([frozenset(t) for t in tris])
b, t = hb.betti(rp2)
print("projective plane: betti %s torsion %s" % (b, t))
b2, _ = hb.betti(rp2, coeff="z2")
print("projective plane over Z/2: betti %s" % b2)

# Hom complexes have product cells; betti() orients each one as a product
# of simplices, so the Hom complex is taken as it is, not subdivided
hom = hb.hom_complex(hb.complete_rgraph(3, 2))
b, t = hb.betti(hom.cx)
print("Hom(K_2^2, K_3^2): %d cells, betti %s (a circle)" % (len(hom.cx), b))

# the agreement check: box and Hom report identical homology, as the
# certified deformation says they must
for name in ["K_3^2", "K_4^3", "K3_122"]:
    ag = hb.homology_agreement(make(name))
    assert ag.agree
    print("%-8s box == hom: betti %s torsion %s"
          % (name, ag.box_report["betti"], ag.box_report["torsion"]))

# the same check is available from the command line:
#   python3 -m hombox theorem --input graph.json --coeff z
print("done; see `python3 -m hombox theorem --help` for the CLI form")
