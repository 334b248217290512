"""G-collapsing and machine-checkable simple-G-homotopy certificates.

Three layers live here:

* Elementary G-collapses: remove a free cell orbit together with its facets
  (elementary_g_collapse), and a greedy whole-orbit engine that executes an
  equivariant acyclic matching as a sequence of such collapses
  (matching_to_collapse).

* Stellar deformations: a stellar G-subdivision K -> sd_sigma(K) is certified
  as a zig-zag through the auxiliary complex L = K + cones over the closed
  stars of the orbit members.  Leg A collapses all cone cells of L back onto
  K (recorded reversed, as expansions K -> L); leg B collapses the open stars
  and their cone tops, L -> sd_sigma(K).  Composing one stage per orbit of K
  (dimension descending) yields sd_deformation: a certificate from K to a
  complex isomorphic to the barycentric subdivision sd K.  All stages of one
  deformation, built or replayed, run in one append-only cell store: a stage
  appends its apex and cone cells and then works on alive flags, so it costs
  about its star, not the whole complex.  A step names a cell by its id in
  the stage's L: its rank among the live cells, which L lists first in
  store order, or its place after them for a cell the stage appended.

* Certificates: a DeformationCertificate is a replayable list of orbit steps
  (collapse or expand) with 128-bit state fingerprints before and after each
  step.  Replay never trusts the certificate: parsing checks its schema,
  every step re-verifies freeness, codimension, orbit closure and
  equivariant facet alignment against a freshly built state, and every
  fingerprint is recomputed.  A failure names the step and its cell.

main_theorem_certificate chains these into a single machine-checkable
witness that Hom(K_r^r, H) and B_edge(H) are simple-S_r-homotopy equivalent:
Hom ~ sd Hom = order complex of products = critical cells of the matching
on sd B_edge(H), which expands to sd B_edge(H) ~ B_edge(H).
"""

import heapq
from bisect import bisect_left
from collections import namedtuple
from contextlib import contextmanager
from itertools import compress

from .boxcx import i_image_ids
from .cellcx import (
    BARY,
    CONE,
    CellComplex,
    GroupAction,
    _canon_join,
    _canon_members,
    _cell_digest,
    _check_iso,
    barycentric_subdivision,
    canon_bytes,
    canon_key,
    fmt_payload,
    free_facet,
    lift_action_to_order_complex,
    orbit_star_data,
    verify_isomorphism,
)
from .errors import (
    InputError,
    NotFree,
    OrbitNotIndependentlyFree,
    SizeGuard,
    Stuck,
    VerificationError,
    WrongCodimension,
)

_MASK128 = (1 << 128) - 1
_BARY_ENC = canon_bytes(BARY)
_CONE_ENC = canon_bytes(CONE)


# ---------------------------------------------------------------------------
# collapse state and verified orbit steps


class CollapseState:
    """Mutable alive-set of a fixed universe complex.

    Tracks, per cell, the number of alive cells covering it (updeg) and the
    order-independent fingerprint of the alive set, both maintained
    incrementally under removals and additions.
    """

    def __init__(self, universe, alive=None):
        self.cx = universe
        n = len(universe.payloads)
        if alive is None:
            self.alive = [True] * n
            self.updeg = list(map(len, universe.up))
        else:
            aset = set(alive)
            self.alive = [i in aset for i in range(n)]
            self.updeg = [0] * n
            for i in compress(range(n), self.alive):
                for j in universe.down[i]:
                    self.updeg[j] += 1
        self.n_alive = sum(self.alive)
        self.fingerprint = sum(compress(universe.digests,
                                        self.alive)) & _MASK128

    @property
    def fingerprint_hex(self):
        return "%032x" % self.fingerprint

    def remove(self, i):
        self.alive[i] = False
        self.n_alive -= 1
        self.fingerprint = (self.fingerprint - self.cx.digests[i]) & _MASK128
        for j in self.cx.down[i]:
            self.updeg[j] -= 1

    def add(self, i):
        self.alive[i] = True
        self.n_alive += 1
        self.fingerprint = (self.fingerprint + self.cx.digests[i]) & _MASK128
        for j in self.cx.down[i]:
            self.updeg[j] += 1

    def alive_ids(self):
        return [i for i, a in enumerate(self.alive) if a]


def _label(K, i):
    return fmt_payload(K.payloads[i])


def _check_step_shape(state, action, step):
    """Structural checks shared by both step directions.

    Verifies the orbit is ascending, closed under the action and a single
    orbit, and that the facet assignment is equivariant; raises
    WrongCodimension if any facet is not one dimension above its cell,
    OrbitNotIndependentlyFree if facets repeat."""
    K = state.cx
    orbit = step["orbit"]
    facets = step["facets"]
    if len(orbit) != len(facets):
        raise VerificationError("orbit and facet lists differ in length")
    if list(orbit) != sorted(set(orbit)):
        raise VerificationError("step orbit is not an ascending id list")
    if step["sigma"] != orbit[0]:
        raise VerificationError("step sigma is not the orbit representative")
    if len(set(facets)) != len(facets):
        raise OrbitNotIndependentlyFree("facets of one orbit coincide")
    for m, f in zip(orbit, facets):
        if K.dims[f] != K.dims[m] + 1:
            raise WrongCodimension(
                "facet %s of cell %s has codimension %d"
                % (_label(K, f), _label(K, m), K.dims[f] - K.dims[m]))
        if m not in K.down[f]:
            raise VerificationError("cell %s is not a cover of cell %s"
                                    % (_label(K, f), _label(K, m)))
    if action is None:
        return
    # Search the orbit along the generators from orbit[0], checking closure
    # and the facets on each edge; an edge back to a cell already met is
    # rechecked, which covers the stabilizers, unless the orbit is free.
    fac = dict(zip(orbit, facets))
    free = len(orbit) == action.order
    gens = list(zip(action.labels, action.perms))
    todo = [orbit[0]]
    seen = {orbit[0]}
    for x in todo:
        fx = fac[x]
        for s, p in gens:
            y = p[x]
            if y not in seen:
                if fac.get(y) != p[fx]:
                    raise _step_clash(s, y in fac)
                seen.add(y)
                todo.append(y)
            elif not free and fac[y] != p[fx]:
                raise _step_clash(s, True)
    if len(todo) != len(orbit):
        raise VerificationError(
            "step orbit is not a single group orbit: the generators do not "
            "reach cell %s from cell %s"
            % (_label(K, min(set(orbit) - seen)), _label(K, orbit[0])))


def _step_clash(s, closed):
    if not closed:
        return VerificationError(
            "step orbit not closed under generator %r" % (s,))
    return VerificationError("facet assignment of the step is not "
                             "equivariant under generator %r" % (s,))


def _carry(L, orbit, value, move, clash):
    """{cell: value} on the orbit of orbit[0], searched along the
    generators, where orbit[0] gets value and generator p takes the value v
    at x to p[x] as move(p, v).  A cell met again must get the same value
    again, which covers the stabilizers, or clash(generator label, cell) is
    raised; a free orbit (|G| cells) has no stabilizer to recheck."""
    free = len(orbit) == L.order
    family = {orbit[0]: value}
    todo = [orbit[0]]
    for x in todo:
        for s, p in zip(L.labels, L.perms):
            if p[x] not in family:
                family[p[x]] = move(p, family[x])
                todo.append(p[x])
            elif not free and family[p[x]] != move(p, family[x]):
                raise clash(s, p[x])
    return family


def apply_orbit_step(state, action, step):
    """Verify all preconditions of an orbit step against the current state,
    then apply it.  Returns the list of cell ids removed (or added)."""
    _check_step_shape(state, action, step)
    orbit = step["orbit"]
    facets = step["facets"]
    K = state.cx
    if step["direction"] == "collapse":
        for m, f in zip(orbit, facets):
            if not (state.alive[m] and state.alive[f]):
                raise NotFree(
                    "collapse step touches dead cell %s" % _label(K, m))
            if state.updeg[f] != 0:
                raise NotFree(
                    "facet %s is not maximal in the alive set" % _label(K, f))
            if state.updeg[m] != 1:
                raise NotFree(
                    "cell %s has %d alive cofacets, so it is not free"
                    % (_label(K, m), state.updeg[m]))
        touched = list(facets) + list(orbit)
        for x in touched:
            state.remove(x)
        return touched
    if step["direction"] == "expand":
        for m, f in zip(orbit, facets):
            if state.alive[m] or state.alive[f]:
                raise VerificationError("expand step re-adds alive cell")
            if state.updeg[m] != 0 or state.updeg[f] != 0:
                raise VerificationError(
                    "expansion of cell %s would leave a dangling cofacet"
                    % _label(K, m))
            for j in K.down[m]:
                if not state.alive[j]:
                    raise VerificationError(
                        "expansion of cell %s lacks face %s"
                        % (_label(K, m), _label(K, j)))
            for j in K.down[f]:
                if j != m and not state.alive[j]:
                    raise VerificationError(
                        "expansion of facet %s lacks face %s"
                        % (_label(K, f), _label(K, j)))
        touched = list(orbit) + list(facets)
        for x in touched:
            state.add(x)
        return touched
    raise InputError("unknown step direction %r" % (step["direction"],))


def _flip_step(step):
    out = dict(step)
    out["direction"] = "expand" if step["direction"] == "collapse" else "collapse"
    return out


def _map_step(step, f):
    """A copy of step with every cell id passed through f."""
    out = dict(step)
    out["sigma"] = f(step["sigma"])
    out["orbit"] = [f(x) for x in step["orbit"]]
    out["facets"] = [f(x) for x in step["facets"]]
    return out


def _replay_steps(state, action, entries, first, to_state):
    """Apply certificate entries (before, after, step), numbered from
    `first`, to state.  to_state(step) checks the step's ids and returns it
    in state ids.  The state fingerprint must match before and after each
    step; a failure names the step, its direction and its cell."""
    for i, (before, after, step) in enumerate(entries, first):
        s = None
        try:
            s = to_state(step)
            if state.fingerprint != before:
                raise VerificationError("fingerprint drift before the step")
            apply_orbit_step(state, action, s)
            if state.fingerprint != after:
                raise VerificationError("fingerprint drift after the step")
        except (InputError, VerificationError) as e:
            cell = "cell %s" % (step["sigma"],)
            if s is not None:
                cell += " " + fmt_payload(state.cx.payloads[s["sigma"]])
            raise type(e)("step %d (%s at %s): %s"
                          % (i, step["direction"], cell, e)) from e


# ---------------------------------------------------------------------------
# deformation certificates


class DeformationCertificate:
    """A replayable zig-zag of elementary G-collapses and G-expansions.

    stages is a list of (fp_before, fp_after, step) with 128-bit integer
    state fingerprints; endpoints are the fingerprints of the two end
    complexes.  Steps acting inside an auxiliary universe carry its
    fingerprint under the "universe" key.
    """

    def __init__(self, endpoints, stages):
        self.endpoints = tuple(endpoints)
        self.stages = list(stages)

    def __len__(self):
        return len(self.stages)

    def __eq__(self, other):
        return (isinstance(other, DeformationCertificate)
                and self.endpoints == other.endpoints
                and self.stages == other.stages)

    def reversed(self):
        stages = [(a, b, _flip_step(s)) for (b, a, s) in reversed(self.stages)]
        return DeformationCertificate(
            (self.endpoints[1], self.endpoints[0]), stages)

    def to_json_obj(self):
        return {
            "endpoints": ["%032x" % f for f in self.endpoints],
            "stages": [["%032x" % b, "%032x" % a, step]
                       for (b, a, step) in self.stages],
        }

    @classmethod
    def from_json_obj(cls, obj):
        """Parse the JSON form; raises InputError unless every field has
        its type: hex fingerprints, and steps with a direction and
        non-negative integer cell ids."""
        what = "deformation"
        _need(isinstance(obj, dict), what, "not an object")
        endpoints = _fingerprints(obj.get("endpoints"), what, "endpoints")
        rows = obj.get("stages")
        _need(isinstance(rows, list), what, "stages is not a list")
        stages = []
        for k, row in enumerate(rows):
            where = "step %d" % k
            _need(isinstance(row, list) and len(row) == 3, what,
                  "%s is not a [before, after, step] triple" % where)
            before, after = _fingerprints(row[:2], what, where)
            stages.append((before, after, _parse_step(row[2], where)))
        return cls(endpoints, stages)

    def total_cells_moved(self):
        return sum(2 * len(s["orbit"]) for _, _, s in self.stages)


def _need(ok, what, msg):
    if not ok:
        raise InputError("malformed %s certificate: %s" % (what, msg))


def _is_id(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _fingerprints(obj, what, where):
    """A pair of hex fingerprint strings, as integers."""
    _need(isinstance(obj, list) and len(obj) == 2
          and all(isinstance(f, str) for f in obj),
          what, "%s is not a pair of hex strings" % where)
    try:
        return tuple(int(f, 16) for f in obj)
    except ValueError as e:
        raise InputError("malformed %s certificate: %s: %s" % (what, where, e))


def _parse_step(step, where):
    what = "deformation"
    _need(isinstance(step, dict), what, "%s is not an object" % where)
    _need(step.get("direction") in ("collapse", "expand"), what,
          '%s: direction is not "collapse" or "expand"' % where)
    _need(_is_id(step.get("sigma")), what,
          "%s: sigma is not a cell id" % where)
    for key in ("orbit", "facets"):
        ids = step.get(key)
        _need(isinstance(ids, list) and ids and all(map(_is_id, ids)), what,
              "%s: %s is not a nonempty list of cell ids" % (where, key))
    _need(isinstance(step.get("universe", ""), str), what,
          "%s: universe is not a fingerprint string" % where)
    return dict(step)


# ---------------------------------------------------------------------------
# greedy whole-orbit engine


def _run_greedy(state, action, mu, universe_hex=None):
    """Collapse every matched pair of mu (cell -> facet), whole orbits at a
    time, smallest representative first among the ready orbits.

    Readiness of an orbit is monotone (a ready orbit stays ready until it is
    consumed), so taking the minimal ready representative each time
    reproduces a deterministic scan of the matched cells in id order.
    Returns the recorded stages; raises Stuck if unmatched readiness never
    arrives (which is exactly a cycle in the matching digraph).
    """
    sigma_ids = sorted(mu)
    orbs = action.orbits(sigma_ids)
    members, facets = [], []
    member_orbit, facet_orbit = {}, {}
    for k, ob in enumerate(orbs):
        ms = list(ob)
        fs = []
        for m in ms:
            if m not in mu:
                raise Stuck(
                    "matched set is not closed under the action at cell %d" % m)
            fs.append(mu[m])
            member_orbit[m] = k
        members.append(ms)
        facets.append(fs)
        for f in fs:
            if f in facet_orbit or f in member_orbit:
                raise Stuck("cell %d appears in two matched pairs" % f)
            facet_orbit[f] = k

    def ready(k):
        return (all(state.alive[m] and state.updeg[m] == 1 for m in members[k])
                and all(state.alive[f] and state.updeg[f] == 0
                        for f in facets[k]))

    done = [False] * len(orbs)
    heap = []
    for k in range(len(orbs)):
        if ready(k):
            heapq.heappush(heap, (members[k][0], k))
    stages = []
    remaining = len(orbs)
    while heap:
        _, k = heapq.heappop(heap)
        if done[k] or not ready(k):
            continue
        before = state.fingerprint
        step = {"direction": "collapse", "sigma": members[k][0],
                "orbit": list(members[k]), "facets": list(facets[k])}
        if universe_hex is not None:
            step["universe"] = universe_hex
        removed = apply_orbit_step(state, action, step)
        stages.append((before, state.fingerprint, step))
        done[k] = True
        remaining -= 1
        seen = set()
        for x in removed:
            for y in state.cx.down[x]:
                if y in seen or not state.alive[y]:
                    continue
                seen.add(y)
                j = member_orbit.get(y)
                if j is not None and not done[j] and state.updeg[y] == 1:
                    heapq.heappush(heap, (members[j][0], j))
                j = facet_orbit.get(y)
                if j is not None and not done[j] and state.updeg[y] == 0:
                    heapq.heappush(heap, (members[j][0], j))
    if remaining:
        left = [members[k][0] for k in range(len(orbs)) if not done[k]]
        raise Stuck(
            "collapse stuck with %d orbit(s) remaining (first representative "
            "cell %d): the matching is not acyclic on the alive set"
            % (remaining, min(left)))
    return stages


# ---------------------------------------------------------------------------
# elementary G-collapse and the matching-driven collapse


GCollapse = namedtuple("GCollapse", "cx action old2new orbit facets")


def _restrict_action(A, old2new, sub):
    """A on the subcomplex sub; old2new, as subcomplex returns it, maps the
    kept ids in ascending order to 0, 1, ..."""
    keep = list(old2new)
    return A.transport(sub, [list(map(old2new.__getitem__,
                                      map(p.__getitem__, keep)))
                             for p in A.perms])


def elementary_g_collapse(K, A, sigma):
    """Remove the orbit of the free cell sigma together with its free facets.

    The facets come from free_facet, and the step is checked and applied by
    apply_orbit_step: it raises NotFree if an orbit member is not a free
    cell, WrongCodimension if its free facet is more than one dimension up,
    and OrbitNotIndependentlyFree if two orbit members share their facet.
    Returns GCollapse(cx, action, old2new, orbit, facets); exactly 2*|orbit|
    cells are removed.
    """
    orbit = list(A.orbit(sigma))
    facets = []
    for m in orbit:
        f = free_facet(K, m)
        if f is None:
            raise NotFree("cell %s is not a free cell" % _label(K, m))
        facets.append(f)
    state = CollapseState(K)
    apply_orbit_step(state, A, {"direction": "collapse", "sigma": orbit[0],
                                "orbit": orbit, "facets": facets})
    sub, old2new = K.subcomplex(state.alive_ids())
    return GCollapse(sub, _restrict_action(A, old2new, sub), old2new,
                     orbit, facets)


CollapseRun = namedtuple("CollapseRun", "certificate final final_action old2new")


def matching_to_collapse(K, A, M):
    """Execute the verified matching M on K = sd B_edge(H) as a sequence of
    elementary S_r-collapses, yielding a replayable certificate whose end
    complex is the critical subcomplex.

    Removes exactly |Sigma| + |mu(Sigma)| cells in whole-orbit steps;
    raises Stuck if the greedy scan cannot finish (impossible for an acyclic
    matching).
    """
    state = CollapseState(K)
    stages = _run_greedy(state, A, M.mu)
    moved = sum(2 * len(s["orbit"]) for _, _, s in stages)
    expect = len(M.sigma()) + len(M.upper)
    if moved != expect:
        raise VerificationError(
            "bookkeeping: removed %d cells, expected |Sigma|+|mu(Sigma)| = %d"
            % (moved, expect))
    if state.alive_ids() != sorted(M.critical):
        raise VerificationError(
            "collapse endpoint differs from the critical subcomplex")
    final, old2new = K.subcomplex(state.alive_ids())
    cert = DeformationCertificate((K.fingerprint, final.fingerprint), stages)
    return CollapseRun(cert, final, _restrict_action(A, old2new, final),
                       old2new)


CriticalIso = namedtuple(
    "CriticalIso", "sd_hom sd_hom_action critical critical_action old2new map")


def critical_complex(M):
    """The critical subcomplex of M.sd with its restricted action."""
    crit, old2new = M.sd.subcomplex(M.critical)
    return crit, _restrict_action(M.action, old2new, crit), old2new


def verify_critical_isomorphism(M, max_cells=None):
    """Check that chains of products (the critical cells) form a complex
    S_r-isomorphic to sd Hom(K_r^r, H), via the itemwise product map i."""
    sdh = barycentric_subdivision(M.hom.cx, max_cells=max_cells)
    sdh_action = lift_action_to_order_complex(M.hom.action, sdh)
    iids = i_image_ids(M.hom, M.box)
    crit, crit_action, old2new = critical_complex(M)
    f = verify_isomorphism(
        sdh, crit,
        lambda ch: tuple(iids[h] for h in ch),
        sdh_action, crit_action)
    return CriticalIso(sdh, sdh_action, crit, crit_action, old2new, f)


def replay_collapse_certificate(universe, action, cert, start_alive=None):
    """Replay a single-universe certificate from the given alive set (default
    all cells), re-verifying fingerprints and every step precondition.
    Returns the final CollapseState."""
    state = CollapseState(universe, alive=start_alive)
    if state.fingerprint != cert.endpoints[0]:
        raise VerificationError(
            "certificate start fingerprint %032x does not match the state %s"
            % (cert.endpoints[0], state.fingerprint_hex))
    n = len(universe.payloads)

    def in_universe(step):
        orbit, facets = step["orbit"], step["facets"]
        if not (0 <= step["sigma"] < n and min(orbit) >= 0 and max(orbit) < n
                and min(facets) >= 0 and max(facets) < n):
            raise InputError("a cell id is outside the %d-cell universe" % n)
        return step

    _replay_steps(state, action, cert.stages, 0, in_universe)
    if state.fingerprint != cert.endpoints[1]:
        raise VerificationError("certificate end fingerprint does not match")
    return state


# ---------------------------------------------------------------------------
# stellar deformation stages


def _is_simplicial(K):
    return all(isinstance(p, frozenset) for p in K.payloads)


class _CellStore(CollapseState):
    """The append-only cells of one stellar deformation.

    It starts as a copy of K and its action A.  Each stellar stage appends
    its apex and cone cells, with their digests and the generators'
    permutation entries, and then collapses and expands on the store's
    alive flags; no id ever moves.
    The live cells in id order are the current complex, and the cells a
    stage appends come after all of them.  Cells that died give up their
    payloads, index entries and up links when the next stage settles the
    store.

    The store is the state, the universe complex and the group action that
    apply_orbit_step, _run_greedy and orbit_star_data work on, so it borrows
    the methods they call from CellComplex and GroupAction.
    """

    faces = CellComplex.faces
    cofaces = CellComplex.cofaces
    orbit = GroupAction.orbit
    orbits = GroupAction.orbits
    transport = GroupAction.transport
    _check_automorphisms = GroupAction._check_automorphisms
    _check_relations = GroupAction._check_relations

    def __init__(self, K, A):
        n = len(K.payloads)
        self.cx = self
        self.labels, self.order, self.relations = (A.labels, A.order,
                                                   A.relations)
        self.payloads = list(K.payloads)
        self.dims = list(K.dims)
        self.down = list(K.down)
        self.up = [list(u) for u in K.up]
        self.digests = list(K.digests)
        self.canon = [None] * n  # canon_bytes of payloads, see encoding()
        self.index = dict(K.index)
        self.perms = [list(p) for p in A.perms]
        self.alive = [True] * n
        self.n_alive = n
        self.updeg = [len(u) for u in K.up]
        self.fingerprint = K.fingerprint
        self.dead = []        # ascending ids of the settled dead cells
        self.n_settled = n    # cells appended after this are not settled
        self.removed = []     # ids removed since the last settle

    def remove(self, i):
        CollapseState.remove(self, i)
        self.removed.append(i)

    def encoding(self, i):
        """canon_bytes of cell i's payload, encoded once per cell.  Cells
        a stage appends come with theirs, joined from those of the cells
        they are built on."""
        enc = self.canon[i]
        if enc is None:
            enc = self.canon[i] = canon_bytes(self.payloads[i])
        return enc

    def extend(self, cells):
        """Append (payload, dim, down, encoding) cells, dead, with their
        digests and up links.  Returns their ids."""
        first = len(self.payloads)
        for payload, dim, down, enc in cells:
            if payload in self.index:
                raise InputError(
                    "duplicate cell payload: %s" % fmt_payload(payload))
            self.index[payload] = len(self.payloads)
            self.payloads.append(payload)
            self.dims.append(dim)
            self.down.append(tuple(down))
            self.canon.append(enc)
        new = range(first, len(self.payloads))
        self.up.extend([] for _ in new)
        self.digests.extend(None for _ in new)
        self.alive.extend(False for _ in new)
        self.updeg.extend(0 for _ in new)
        for i in new:
            for j in self.down[i]:
                self.up[j].append(i)
        for i in sorted(new, key=self.dims.__getitem__):
            self.digests[i] = _cell_digest(
                self.canon[i], self.dims[i],
                [self.digests[j] for j in self.down[i]])
        return new

    def settle(self):
        """Forget the cells that died since the last settle, or were
        appended and never came alive."""
        fresh = range(self.n_settled, len(self.payloads))
        gone = sorted({i for i in self.removed if not self.alive[i]}
                      | {i for i in fresh if not self.alive[i]})
        self.removed = []
        self.n_settled = len(self.payloads)
        for i in gone:
            del self.index[self.payloads[i]]
            for j in self.down[i]:
                if self.alive[j]:
                    self.up[j].remove(i)
            self.payloads[i] = self.canon[i] = None
            self.down[i] = self.up[i] = ()
        # A new list: a stage's _Universe keeps the one it started with.
        self.dead = sorted(self.dead + gone)

    def complex(self, ids):
        """The complex on the ascending, downward closed store ids `ids`,
        and the action restricted to it."""
        new = {o: k for k, o in enumerate(ids)}
        cx = CellComplex([self.payloads[o] for o in ids],
                         [self.dims[o] for o in ids],
                         [[new[j] for j in self.down[o]] for o in ids],
                         digests=[self.digests[o] for o in ids])
        return cx, _restrict_action(self, new, cx)


class _Universe:
    """One stage's universe L inside a store: the live cells in store
    order, then the cells the stage appended (`new`).  Certificates name
    cells by their ids in L; this converts them to store ids and back."""

    def __init__(self, store, new, fingerprint):
        self.dead = store.dead
        self.new = new
        self.n_live = store.n_alive
        self.size = store.n_alive + len(new)
        self.fingerprint_hex = "%032x" % fingerprint

    def __len__(self):
        return self.size

    def local_id(self, s):
        return s - bisect_left(self.dead, s)

    def store_id(self, k):
        if not _is_id(k) or k >= self.size:
            raise InputError(
                "cell id %r is outside the %d-cell universe" % (k, self.size))
        if k >= self.n_live:
            return k + len(self.dead)
        # The k-th live cell is k + j for the least j with dead[j] - j > k.
        dead = self.dead
        lo, hi = 0, len(dead)
        while lo < hi:
            mid = (lo + hi) // 2
            if dead[mid] - mid > k:
                hi = mid
            else:
                lo = mid + 1
        return k + lo

    def to_local(self, step):
        return _map_step(step, self.local_id)

    def to_store(self, step):
        return _map_step(step, self.store_id)


def _cone_universe(store, orbit, cof, ring, simplicial, max_cells):
    """Append to the store, dead, the cells L adds to the live complex K:
    per orbit member m an apex, and a cone cell over every cell of the
    closed star of m.  They come in a fixed order, the apexes in orbit order
    and then each member's cones by base id, and each generator moves them
    with their members and bases; on them it is checked as an automorphism,
    and the relations are checked.  Returns (L as a _Universe, apex_id,
    cone_id) in store ids.
    """
    star_list = {m: sorted(cof[m] | ring[m]) for m in orbit}
    size = store.n_alive + sum(1 + len(s) for s in star_list.values())
    if max_cells is not None and size > max_cells:
        raise SizeGuard(
            "cone universe needs %d cells, over the %d-cell guard"
            % (size, max_cells), needed=size, limit=max_cells)
    first = len(store.payloads)
    apex_id = {m: first + k for k, m in enumerate(orbit)}
    cone_id = {}
    for m in orbit:
        for b in star_list[m]:
            cone_id[(m, b)] = first + len(orbit) + len(cone_id)
    # Each new cell comes with its payload's encoding, joined from those of
    # the cells it is built on.
    enc = store.encoding
    toks = {m: ((BARY, store.payloads[m]),
                _canon_join(b"T", (_BARY_ENC, enc(m)))) for m in orbit}
    cells = []
    for m in orbit:
        tok, tok_enc = toks[m]
        if simplicial:
            cells.append((frozenset([tok]), 0, (),
                          _canon_join(b"F", [tok_enc])))
        else:
            cells.append((tok, 0, (), tok_enc))
    for m in orbit:
        tok, tok_enc = toks[m]
        for b in star_list[m]:
            bp = store.payloads[b]
            if store.dims[b] == 0:
                down = [b, apex_id[m]]
            else:
                down = [b] + [cone_id[(m, j)] for j in store.down[b]]
            if simplicial:
                # tok is a new vertex, not a member of bp
                cells.append((bp | {tok}, store.dims[b] + 1, down, _canon_join(
                    b"F", sorted(_canon_members(enc(b)) + [tok_enc]))))
            else:
                cells.append(((CONE, tok, bp), store.dims[b] + 1, down,
                              _canon_join(b"T", (_CONE_ENC, tok_enc, enc(b)))))
    new = store.extend(cells)

    for p in store.perms:
        p.extend(apex_id[p[m]] for m in orbit)
        p.extend(cone_id.get((p[m], p[b]))
                 for m in orbit for b in star_list[m])
    store._check_automorphisms(new)
    store._check_relations(new)
    fingerprint = (store.fingerprint
                   + sum(store.digests[i] for i in new)) & _MASK128
    return _Universe(store, new, fingerprint), apex_id, cone_id


def _conepartner(B, tstar, sstar):
    """Partner of a cone-base payload under the anchored pairing: toggle the
    anchor in the first non-anchor coordinate of a product, recursing through
    nested cones; None means the empty base (the partner is the bare apex).
    """
    if isinstance(B, tuple) and len(B) == 2 and B[0] == BARY:
        return (CONE, B, sstar)
    if isinstance(B, tuple) and len(B) == 3 and B[0] == CONE:
        q = _conepartner(B[2], tstar, sstar)
        return B[1] if q is None else (CONE, B[1], q)
    if isinstance(B, tuple) and all(isinstance(q, frozenset) for q in B):
        for j, part in enumerate(B):
            tj = tstar[j]
            if len(part) == 1 and tj in part:
                continue
            new = part - {tj} if tj in part else part | {tj}
            return B[:j] + (new,) + B[j + 1:]
        return None
    raise InputError("no pairing rule for cone base %r" % (B,))


def _leg_a_pairs(L, orbit, cof, ring, apex_id, cone_id, simplicial):
    """Perfect matching on the cone cells of the store L (pairing each with
    its anchor toggle), whose collapse retracts L back onto K.

    The anchor is the minimal vertex under the representative orbit[0].
    The pairing is built on the representative's cone cells only and then
    carried along the generators (_carry), with the anchor: a per-member
    construction would break equivariance whenever a group element reorders
    product coordinates.  Raises Stuck when a stabilizer moves the anchor
    (then no equivariant matching of this shape exists), or the pairing
    escapes the cone cells, fails to be a perfect involution, or clashes
    with a stabilizer."""
    rep = orbit[0]
    pay = L.payloads[rep]
    if isinstance(pay, frozenset):
        a_pay = frozenset([min(pay, key=canon_key)])
    elif isinstance(pay, tuple) and all(isinstance(q, frozenset) for q in pay):
        a_pay = tuple(frozenset([min(q, key=canon_key)]) for q in pay)
    else:
        raise InputError(
            "no anchor rule for payloads of shape %r" % (type(pay).__name__,))
    if a_pay not in L.index:
        raise Stuck("anchor vertex %r is not a cell" % (a_pay,))
    _carry(L, orbit, L.index[a_pay], list.__getitem__, lambda s, m: Stuck(
        "the stabilizer of cell %s moves its anchor vertex: the cone cells "
        "admit no equivariant matching" % fmt_payload(L.payloads[m])))
    apex = apex_id[rep]
    tstar = () if simplicial else tuple(next(iter(q)) for q in a_pay)
    partner_rep = {}
    for cid in [apex] + [cone_id[(rep, b)]
                         for b in sorted(cof[rep] | ring[rep])]:
        X = L.payloads[cid]
        if simplicial:
            q_pay = X ^ a_pay
        elif cid == apex:
            q_pay = (CONE, X, a_pay)
        else:
            qb = _conepartner(X[2], tstar, a_pay)
            q_pay = X[1] if qb is None else (CONE, X[1], qb)
        if q_pay not in L.index:
            raise Stuck("anchor toggle leaves the cone cells at cell %s"
                        % fmt_payload(X))
        partner_rep[cid] = L.index[q_pay]
    cone_cells = set()
    for m in orbit:
        cone_cells.add(apex_id[m])
        cone_cells.update(cone_id[(m, b)] for b in cof[m] | ring[m])
    partner = {}
    for part in _carry(
            L, orbit, partner_rep,
            lambda p, d: dict(zip(map(p.__getitem__, d),
                                  map(p.__getitem__, d.values()))),
            lambda s, m: Stuck("a stabilizer of cell %s is incompatible "
                               "with its cone pairing"
                               % fmt_payload(L.payloads[m]))).values():
        partner.update(part)
    mu = {}
    for x, y in partner.items():
        if y not in partner or partner[y] != x or y not in cone_cells:
            raise Stuck("cone pairing is not an involution at cell %s"
                        % fmt_payload(L.payloads[x]))
        if L.dims[y] == L.dims[x] + 1:
            mu[x] = y
        elif L.dims[y] != L.dims[x] - 1:
            raise Stuck("cone pairing is not a facet pairing at cell %s"
                        % fmt_payload(L.payloads[x]))
    if 2 * len(mu) != len(cone_cells):
        raise Stuck("cone pairing does not cover the cone cells")
    return mu


def _leg_b_pairs(cof, cone_id):
    """Pair every open-star cell with its cone; collapsing these takes L to
    the stellar subdivision."""
    mu = {}
    for m, cells in cof.items():
        for b in cells:
            mu[b] = cone_id[(m, b)]
    return mu


def _stellar_stage(store, rep, simplicial, max_cells, replay=None):
    """One stellar stage, at the orbit of store cell rep: K (the live cells)
    ~ L (K plus the cells _cone_universe appends) ~ sd_rep(K).

    To build (replay None): leg A collapses the cone cells of L back onto K
    and is recorded reversed, as expansions K -> L; the cone cells are then
    restored, and leg B collapses the open stars and their cones, L ->
    sd_rep(K).  To replay, `replay` is (universe fingerprint hex, entries,
    index of the first entry): L's fingerprint is checked and the entries
    applied from K.  Either way the store's live cells end as the stage's
    end complex.  Returns (L as a _Universe, the stage's certificate entries
    in L's ids).
    """
    store.settle()
    if not store.alive[rep]:
        raise VerificationError(
            "schedule cell %d vanished before its stage" % rep)
    orbit, cof, ring = orbit_star_data(store, store, rep)
    U, apex_id, cone_id = _cone_universe(
        store, orbit, cof, ring, simplicial, max_cells)
    if replay is not None:
        uhex, entries, first = replay
        if U.fingerprint_hex != uhex:
            raise VerificationError(
                "step %d: universe fingerprint mismatch at schedule cell %d %s"
                % (first, rep, fmt_payload(store.payloads[rep])))
        _replay_steps(store, store, entries, first, U.to_store)
        return U, entries

    mu_a = _leg_a_pairs(store, orbit, cof, ring, apex_id, cone_id,
                        simplicial)
    for x in U.new:
        store.add(x)
    stages_a = _run_greedy(store, store, mu_a, U.fingerprint_hex)
    if any(store.alive[x] for x in U.new):
        raise Stuck("cone collapse did not retract the universe onto K")
    for x in U.new:
        store.add(x)
    stages_b = _run_greedy(store, store, _leg_b_pairs(cof, cone_id),
                           U.fingerprint_hex)
    expand = [(a, b, _flip_step(s)) for (b, a, s) in reversed(stages_a)]
    return U, [(b, a, U.to_local(s)) for b, a, s in expand + stages_b]


StellarStage = namedtuple(
    "StellarStage",
    "certificate universe universe_action final final_action old2new")


def stellar_deformation_certificate(K, A, sigma, max_cells=None):
    """Certify K ~ stellar G-subdivision of K at the orbit of sigma, as
    expansions K -> L followed by collapses L -> sd_sigma(K).

    The end complex equals the output of stellar_g_subdivision (simplicial
    payloads) or stellar_subdivision_poset (otherwise), cell for cell.
    """
    store = _CellStore(K, A)
    _, stages = _stellar_stage(store, sigma, _is_simplicial(K), max_cells)
    L, LA = store.complex(range(len(store.payloads)))
    final, old2new = L.subcomplex(store.alive_ids())
    cert = DeformationCertificate((K.fingerprint, final.fingerprint), stages)
    return StellarStage(cert, L, LA, final,
                        _restrict_action(LA, old2new, final), old2new)


# ---------------------------------------------------------------------------
# full subdivision deformation


SdDeformation = namedtuple(
    "SdDeformation", "certificate final final_action sd sd_action iso")


def _schedule(K, A):
    """Orbits of K, dimension descending, representatives ascending."""
    orbs = A.orbits()
    return sorted(orbs, key=lambda ob: (-K.dims[ob[0]], ob[0]))


def _flatten_map(K, simplicial):
    """Payload map from fully subdivided cells (apexes and nested cones over
    cells of K) to chains of K-ids, i.e. cells of sd K."""
    if simplicial:
        def flat(p):
            ids = []
            for tok in p:
                if not (isinstance(tok, tuple) and len(tok) == 2
                        and tok[0] == BARY):
                    raise VerificationError(
                        "cell %r is not fully subdivided" % (p,))
                ids.append(K.index[tok[1]])
            return tuple(sorted(ids))
        return flat

    def flat(p):
        if isinstance(p, tuple) and len(p) == 2 and p[0] == BARY:
            return (K.index[p[1]],)
        if isinstance(p, tuple) and len(p) == 3 and p[0] == CONE:
            return tuple(sorted(flat(p[2]) + flat(p[1])))
        raise VerificationError("cell %r is not fully subdivided" % (p,))
    return flat


def sd_deformation(K, A, sd_action, max_cells=None):
    """Certify K ~ (a complex isomorphic to) sd K by composing one stellar
    stage per orbit of K, dimension descending, all in one cell store.

    sd_action is A lifted to sd = sd_action.cx, the barycentric subdivision
    of K, which the caller builds once (barycentric_subdivision, then
    lift_action_to_order_complex).  Verifies that the end complex is
    G-isomorphic to sd and returns
    SdDeformation(certificate, final, final_action, sd, sd_action, iso).
    """
    simplicial = _is_simplicial(K)
    store = _CellStore(K, A)
    stages = []
    for ob in _schedule(K, A):
        stages.extend(
            _stellar_stage(store, ob[0], simplicial, max_cells)[1])
    cur, cur_action = store.complex(store.alive_ids())
    cert = DeformationCertificate((K.fingerprint, cur.fingerprint), stages)
    sd = sd_action.cx
    iso = verify_isomorphism(cur, sd, _flatten_map(K, simplicial),
                             cur_action, sd_action)
    return SdDeformation(cert, cur, cur_action, sd, sd_action, iso)


def replay_sd_deformation(K, A, cert, max_cells=None):
    """Replay an sd_deformation certificate: rebuild each cone universe from
    the deterministic schedule, check its fingerprint against the steps'
    "universe" key, re-verify and apply every step, and check the chained
    state fingerprints.  Returns (final complex, final action)."""
    if cert.endpoints[0] != K.fingerprint:
        raise VerificationError("certificate does not start at this complex")
    runs = []
    for st in cert.stages:
        u = st[2].get("universe")
        if u is None:
            raise VerificationError("subdivision step lacks a universe mark")
        if runs and runs[-1][0] == u:
            runs[-1][1].append(st)
        else:
            runs.append((u, [st]))
    schedule = _schedule(K, A)
    if len(runs) != len(schedule):
        raise VerificationError(
            "certificate has %d stages but the schedule needs %d"
            % (len(runs), len(schedule)))
    simplicial = _is_simplicial(K)
    store = _CellStore(K, A)
    first = 0
    for ob, (uhex, steps) in zip(schedule, runs):
        _stellar_stage(store, ob[0], simplicial, max_cells,
                       (uhex, steps, first))
        first += len(steps)
    cur, cur_action = store.complex(store.alive_ids())
    if cur.fingerprint != cert.endpoints[1]:
        raise VerificationError("certificate end fingerprint does not match")
    return cur, cur_action


# ---------------------------------------------------------------------------
# the main theorem certificate


def verify_iso_ids(K1, K2, pairs, A1=None, A2=None):
    """Check that an explicit id-pair list is a (G-)isomorphism K1 -> K2.

    Raises VerificationError with the offending cell; returns the map as a
    list indexed by K1 ids."""
    n = len(K1.payloads)
    if len(K2.payloads) != n:
        raise VerificationError("cell counts differ: %d vs %d"
                                % (n, len(K2.payloads)))
    if len(pairs) != n:
        raise VerificationError("isomorphism table has %d rows, expected %d"
                                % (len(pairs), n))
    f = [None] * n
    seen = set()
    for i, j in pairs:
        if not (0 <= i < n and 0 <= j < n) or f[i] is not None or j in seen:
            raise VerificationError("isomorphism table is not a bijection")
        f[i] = j
        seen.add(j)
    return _check_iso(K1, K2, f, A1, A2)


class MainTheoremCertificate:
    """A six-stage machine-checkable witness that Hom(K_r^r, H) and
    B_edge(H) are simple-S_r-homotopy equivalent.

    Stages (deformation certificates alternating with explicit isomorphism
    tables):
      1. subdivide-hom          Hom  ~>  E_hom  (stellar stages)
      2. unfold-hom-subdivision E_hom ≅ sd Hom
      3. products-into-sd-box   sd Hom ≅ critical subcomplex of sd B_edge
      4. expand-to-sd-box       critical  ~>  sd B_edge  (reversed collapse)
      5. fold-box-subdivision   sd B_edge ≅ E_box
      6. desubdivide-box        E_box  ~>  B_edge  (reversed stellar stages)
    """

    def __init__(self, endpoints, stages):
        self.endpoints = tuple(endpoints)
        self.stages = list(stages)

    def __eq__(self, other):
        return (isinstance(other, MainTheoremCertificate)
                and self.endpoints == other.endpoints
                and self.stages == other.stages)

    def to_json_obj(self):
        return {"endpoints": ["%032x" % f for f in self.endpoints],
                "stages": self.stages}

    @classmethod
    def from_json_obj(cls, obj):
        """Parse the JSON form; raises InputError unless every stage is an
        object with a name and a kind, and carries what its kind needs: a
        well-formed deformation certificate, or the from and to
        fingerprints and a map of cell id pairs."""
        what = "main theorem"
        _need(isinstance(obj, dict), what, "not an object")
        endpoints = _fingerprints(obj.get("endpoints"), what, "endpoints")
        stages = obj.get("stages")
        _need(isinstance(stages, list), what, "stages is not a list")
        for k, s in enumerate(stages, 1):
            _need(isinstance(s, dict) and isinstance(s.get("name"), str),
                  what, "stage %d is not an object with a name" % k)
            where = "stage %d (%s)" % (k, s["name"])
            if s.get("kind") == "deformation":
                _need("certificate" in s, what,
                      "%s has no certificate" % where)
                try:
                    DeformationCertificate.from_json_obj(s["certificate"])
                except InputError as e:
                    raise InputError("%s: %s" % (where, e)) from e
            elif s.get("kind") == "isomorphism":
                _need(isinstance(s.get("from"), str)
                      and isinstance(s.get("to"), str),
                      what, "%s lacks its from and to fingerprints" % where)
                pairs = s.get("map")
                _need(isinstance(pairs, list)
                      and all(isinstance(p, list) and len(p) == 2
                              and _is_id(p[0]) and _is_id(p[1])
                              for p in pairs),
                      what, "%s: map is not a list of cell id pairs" % where)
            else:
                _need(False, what, "%s has kind %r" % (where, s.get("kind")))
        return cls(endpoints, list(stages))


# The six stages of a main theorem certificate, by name and kind.
_STAGES = [
    ("subdivide-hom", "deformation"),
    ("unfold-hom-subdivision", "isomorphism"),
    ("products-into-sd-box", "isomorphism"),
    ("expand-to-sd-box", "deformation"),
    ("fold-box-subdivision", "isomorphism"),
    ("desubdivide-box", "deformation"),
]


@contextmanager
def _stage(name):
    """Prefix the stage name to input and verification errors raised
    inside."""
    try:
        yield
    except (InputError, VerificationError) as e:
        raise type(e)("%s: %s" % (name, e)) from e


def _iso_stage(name, K1, K2, f):
    return {"kind": "isomorphism", "name": name,
            "from": K1.fingerprint_hex, "to": K2.fingerprint_hex,
            "map": [[i, j] for i, j in enumerate(f)]}


def main_theorem_certificate(H, max_cells=None, matching=None):
    """Build (and fully verify while building) the six-stage certificate for
    H.  Pass a prebuilt verified matching to avoid reconstructing it.

    Each complex is subdivided once: sd B_edge(H) is the matching's M.sd,
    and verify_critical_isomorphism builds sd Hom while it checks stage 3.
    The two sd-deformations unfold onto these, with their lifted actions.
    The returned object also carries the working pieces as attributes
    (matching, hom_def, box_def, collapse_run) for callers that want them.
    """
    from .morse import build_matching

    M = matching if matching is not None else build_matching(H, max_cells)
    crit = verify_critical_isomorphism(M, max_cells)
    hom_def = sd_deformation(M.hom.cx, M.hom.action, crit.sd_hom_action,
                             max_cells=max_cells)
    run = matching_to_collapse(M.sd, M.action, M)
    if run.final.fingerprint != crit.critical.fingerprint:
        raise VerificationError(
            "collapse endpoint fingerprint differs from critical subcomplex")
    box_def = sd_deformation(M.box.cx, M.box.action, M.action,
                             max_cells=max_cells)
    inv3 = [None] * len(box_def.iso)
    for i, j in enumerate(box_def.iso):
        inv3[j] = i
    stages = [
        {"kind": "deformation", "name": "subdivide-hom",
         "certificate": hom_def.certificate.to_json_obj()},
        _iso_stage("unfold-hom-subdivision", hom_def.final, hom_def.sd,
                   hom_def.iso),
        _iso_stage("products-into-sd-box", crit.sd_hom, crit.critical,
                   crit.map),
        {"kind": "deformation", "name": "expand-to-sd-box",
         "certificate": run.certificate.reversed().to_json_obj()},
        _iso_stage("fold-box-subdivision", M.sd, box_def.final, inv3),
        {"kind": "deformation", "name": "desubdivide-box",
         "certificate": box_def.certificate.reversed().to_json_obj()},
    ]
    cert = MainTheoremCertificate(
        (M.hom.cx.fingerprint, M.box.cx.fingerprint), stages)
    cert.matching = M
    cert.hom_def = hom_def
    cert.box_def = box_def
    cert.collapse_run = run
    return cert


def replay_main_theorem(H, cert, max_cells=None, matching=None):
    """Re-verify a main theorem certificate against a fresh build for H.

    Every deformation is replayed step by step (preconditions and
    fingerprints re-checked), every isomorphism table is re-verified
    including equivariance, and all stage endpoints must chain.  Returns
    True; raises VerificationError (or a subclass) on any mismatch, and
    InputError on a malformed certificate, with the stage name first in the
    message.  Stage 6 is replayed from its end, so a step number there
    counts from the end of its step list."""
    from .morse import build_matching

    if not isinstance(cert, MainTheoremCertificate):
        cert = MainTheoremCertificate.from_json_obj(cert)
    M = matching if matching is not None else build_matching(H, max_cells)
    if cert.endpoints != (M.hom.cx.fingerprint, M.box.cx.fingerprint):
        raise VerificationError(
            "certificate endpoints do not match Hom and box complexes")
    names = [s.get("name") for s in cert.stages]
    want = [name for name, _ in _STAGES]
    if names != want:
        raise VerificationError("certificate stages are %r, expected %r"
                                % (names, want))
    for s, (name, kind) in zip(cert.stages, _STAGES):
        if s.get("kind") != kind:
            raise VerificationError("stage %s has kind %r, expected %r"
                                    % (name, s.get("kind"), kind))
    s = cert.stages

    with _stage("subdivide-hom"):
        c0 = DeformationCertificate.from_json_obj(s[0]["certificate"])
        e_hom, e_hom_action = replay_sd_deformation(
            M.hom.cx, M.hom.action, c0, max_cells=max_cells)

    with _stage("unfold-hom-subdivision"):
        sdh = barycentric_subdivision(M.hom.cx, max_cells=max_cells)
        sdh_action = lift_action_to_order_complex(M.hom.action, sdh)
        if (s[1]["from"], s[1]["to"]) != (e_hom.fingerprint_hex,
                                          sdh.fingerprint_hex):
            raise VerificationError("endpoints do not match")
        verify_iso_ids(e_hom, sdh, s[1]["map"], e_hom_action, sdh_action)

    with _stage("products-into-sd-box"):
        crit, crit_action, _ = critical_complex(M)
        if (s[2]["from"], s[2]["to"]) != (sdh.fingerprint_hex,
                                          crit.fingerprint_hex):
            raise VerificationError("endpoints do not match")
        verify_iso_ids(sdh, crit, s[2]["map"], sdh_action, crit_action)

    with _stage("expand-to-sd-box"):
        c3 = DeformationCertificate.from_json_obj(s[3]["certificate"])
        if c3.endpoints != (crit.fingerprint, M.sd.fingerprint):
            raise VerificationError("endpoints do not match")
        replay_collapse_certificate(M.sd, M.action, c3,
                                    start_alive=M.critical)

    # Stage 6 is replayed from its end, so its step numbers count from there.
    with _stage("desubdivide-box, replayed reversed"):
        c5 = DeformationCertificate.from_json_obj(s[5]["certificate"])
        e_box, e_box_action = replay_sd_deformation(
            M.box.cx, M.box.action, c5.reversed(), max_cells=max_cells)
        if c5.endpoints != (e_box.fingerprint, M.box.cx.fingerprint):
            raise VerificationError("endpoints do not match")

    with _stage("fold-box-subdivision"):
        if (s[4]["from"], s[4]["to"]) != (M.sd.fingerprint_hex,
                                          e_box.fingerprint_hex):
            raise VerificationError("endpoints do not match")
        verify_iso_ids(M.sd, e_box, s[4]["map"], M.action, e_box_action)
    return True
