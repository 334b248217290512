"""The stellar subdivision of a complex at a cell orbit, built directly from
its definition: the oracle that the tests hold the stellar stage
(collapse._stellar_stage) to.  It shares no code with the stage: the orbit
is sigma closed under the generator permutations, and the open and closed
stars are read from the covers (K.down) alone.  From hombox it takes only
the complex class, the two payload tags and the clash error, and
test_exports checks that it imports nothing more."""

from itertools import combinations

from hombox import CellComplex, OrbitCofaceClash
from hombox.cellcx import BARY, CONE


def closure(K, i):
    """Cell i of K and all its faces, read down the covers."""
    seen, todo = {i}, [i]
    while todo:
        for j in K.down[todo.pop()]:
            if j not in seen:
                seen.add(j)
                todo.append(j)
    return seen


def orbit(A, sigma):
    """The orbit of cell sigma: sigma closed under the generators of A, as
    a sorted list."""
    seen, todo = {sigma}, [sigma]
    while todo:
        x = todo.pop()
        for p in A.perms:
            if p[x] not in seen:
                seen.add(p[x])
                todo.append(p[x])
    return sorted(seen)


def stellar_subdivision(K, A, sigma):
    """The simultaneous stellar subdivision of K at the orbit of sigma, for
    any complex, vertex sets and products alike.

    The open star of a member m is the set of cells above it (m included),
    its closed star the faces of those cells, and its ring the closed star
    minus the open star.  Cells in no open star survive.  Each open star is
    replaced by the cone from a fresh apex (BARY, payload of m) over the
    ring: per ring cell b, the cone cell (CONE, apex, payload of b), one
    dimension up, covered by b and by the cones over the covers of b (by
    the apex, for a vertex b).  Raises OrbitCofaceClash if two members share
    a coface, as their cones would then overlap.
    """
    n = len(K.payloads)
    faces = [closure(K, c) for c in range(n)]
    members = orbit(A, sigma)
    star = {m: {c for c in range(n) if m in faces[c]} for m in members}
    for a, b in combinations(members, 2):
        if star[a] & star[b]:
            raise OrbitCofaceClash("orbit members %d and %d share a coface"
                                   % (a, b))
    gone = set().union(*star.values())
    pay = K.payloads
    cells = [(pay[i], K.dims[i], [pay[j] for j in K.down[i]])
             for i in range(n) if i not in gone]
    for m in members:
        apex = (BARY, pay[m])
        cells.append((apex, 0, []))
        ring = set().union(*(faces[c] for c in star[m])) - star[m]
        for b in ring:
            below = ([apex] if K.dims[b] == 0
                     else [(CONE, apex, pay[j]) for j in K.down[b]])
            cells.append(((CONE, apex, pay[b]), K.dims[b] + 1,
                          [pay[b]] + below))
    return CellComplex.from_graded_cells(cells)
