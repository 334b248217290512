"""G-collapsing and machine-checkable simple-G-homotopy certificates.

Three layers live here:

* Elementary G-collapses: one primitive, apply_orbit_step, removes a free
  cell orbit together with its facets (or adds them back), and checks every
  orbit step, built or replayed: given the orbit's least cell and its
  facet, it regenerates the orbit and the other facets down the action's
  word table, trusting the action's order |G| (cellcx.GroupAction), and
  moves them in one update of the alive set.  hombox certifies free
  actions only, and refuses an orbit that is not free: a cell of
  Hom(K_r^r, H) or B_edge(H) that a transposition (i j) fixes would need
  f(i) = f(j), an edge with a repeated vertex, so S_r acts freely on both,
  on sd B_edge(H), and on every stellar cone universe, whose apexes and
  cone cells move with their members.  Each acyclic matching
  collapses whole orbit by whole orbit, in the order of a key that its
  acyclicity proof gives, a linear extension of its modified Hasse diagram
  (Forman, "Morse theory for cell complexes", Adv. Math. 1998; Kozlov,
  Combinatorial Algebraic Topology, 2008, ch. 11):

  1. the matching on sd B_edge(H): chain length descending, then the box
     dimension of the chain's topmost non-product x descending, since a
     gradient path strictly lowers x (morse);
  2. leg B of a stellar stage: the open-star cell's dimension descending;
  3. leg A: cone-cell dimension descending, then ascending in the
     coordinate j that the anchor toggle changes (_conepartner), since a
     pair waits on one of its own dimension only if that one toggles a
     coordinate k < j.

  Build and replay apply every step through apply_orbit_step, so a wrong
  key fails there.

* Stellar deformations: a stellar G-subdivision K -> sd_sigma(K) is certified
  as a zig-zag through the auxiliary complex L = K + cones over the closed
  stars of the orbit members.  Leg A collapses all cone cells of L back onto
  K (recorded reversed, as expansions K -> L); leg B collapses the open stars
  and their cone tops, L -> sd_sigma(K).  Composing one stage per orbit of K
  of positive dimension (dimension descending) yields sd_deformation: a
  certificate from K to a complex isomorphic to the barycentric subdivision
  sd K.  Starring at a vertex only renames it, so no stage stars a vertex
  orbit: the end complex keeps each vertex of K, and the isomorphism onto
  sd K, a step of its own (unfold_subdivision), maps it to its one-element
  chain, an apex of m to (m,), and a cone from that apex to its base's
  chain with m inserted.  All stages of one deformation, built or
  replayed, run in one append-only cell store: a stage appends its apex
  and cone cells, each with its member m, and then works on alive flags,
  so it costs about its star, not the whole complex.
  A step names a cell by its id in the stage's L: its rank among the live
  cells, which L lists first in store order, or its place after them for a
  cell the stage appended.

  A cell a stage appends gets its digest from its parts, and its payload is
  never encoded: an apex digests the tag b"A" and its member's digest, a
  cone cell the tag b"C", its apex's digest and its base's digest.  Every
  other cell digests canon_bytes of its payload, which starts with b"I",
  b"S", b"T" or b"F", so no hash input of one kind is one of the other.
  Within a kind the input determines the cell: an apex is determined by its
  member, and a cone cell by its apex and its base, which are cells with
  digests of their own.  So two different cells get one digest only by a
  collision of the 128-bit hash.

* Certificates: a DeformationCertificate is a replayable list of orbit steps
  (collapse or expand), one short row each: direction, the orbit's least
  cell and its facet.  The steps of one stellar stage form a run that names
  its cone universe once, and each run holds the fingerprint of the state
  at its end.  Replay never trusts the certificate: parsing checks its
  schema, every step regenerates its orbit and re-verifies freeness,
  codimension and equivariant facet alignment against a freshly built
  state, and every fingerprint is recomputed.  A step that is not a valid
  orbit step fails at its index, naming its cell; a valid step other than
  the one the build took fails at its run's end, naming the run and its
  schedule cell.  Certificates are of format version 5; versions 1-4 are
  refused.

  A fingerprint is a sum of 128-bit digests, so equal fingerprints name a
  set of cells without proving it: a set whose digests sum to 0 changes
  no sum.  Each fingerprint a replay compares, and what it rests on:

  - the certificate's endpoints, against the Hom and box complexes that
    replay builds for H: they bind the certificate to H;
  - the two fingerprints of an isomorphism stage, against two complexes
    that replay built itself, between which verify_iso_ids then checks
    the map cell by cell;
  - a stellar run's universe and end, and a deformation's end: replay
    carries the real cell store from stage to stage, and stages 2 and 5
    check the end complex cell by cell against the sd that replay built,
    so these locate a wrong step at its run's end and prove nothing more;
  - the run ends of a collapse certificate: they locate a wrong step;
  - the end of stage 4, sd B_edge(H): the one place where the sum alone
    would stand for a set, so replay_critical_expansion also requires
    every cell of sd B_edge(H) alive at the stage's end.

main_theorem_certificate chains these into a single machine-checkable
witness that Hom(K_r^r, H) and B_edge(H) are simple-S_r-homotopy equivalent:
Hom ~ sd Hom = order complex of products = critical cells of the matching
on sd B_edge(H), which expands to sd B_edge(H) ~ B_edge(H).
"""

import hashlib
from bisect import bisect_left, bisect_right
from collections import namedtuple
from contextlib import contextmanager
from itertools import combinations, compress

from .boxcx import box_edge, i_image_ids, ip_tables
from .cellcx import (
    BARY,
    CONE,
    CellComplex,
    GroupAction,
    _is_id,
    _label,
    _order_complex_size,
    _paused_collector,
    canon_bytes,
    fmt_payload,
    lift_action_to_order_complex,
    order_complex,
    verify_iso_ids,
    verify_isomorphism,
)
from .errors import (
    InputError,
    NotFree,
    OrbitCofaceClash,
    OrbitNotIndependentlyFree,
    SizeGuard,
    Stuck,
    VerificationError,
    WrongCodimension,
)
from .homcx import hom_complex

_MASK128 = (1 << 128) - 1
# The certificate format version this module builds, writes and replays.
VERSION = 5
# Step directions as certificates write them, with their names, and the
# direction that undoes each.
_DIRECTIONS = {"c": "collapse", "e": "expand"}
_FLIP = {"c": "e", "e": "c"}
# Digest tags of the apexes and cone cells a stellar stage appends; see the
# module docstring.
_APEX_TAG = b"A"
_CONE_TAG = b"C"


# ---------------------------------------------------------------------------
# collapse state and verified orbit steps


class CollapseState:
    """Mutable alive-set of a fixed universe complex.

    Tracks, per cell, the number of alive cells covering it (updeg) and the
    order-independent fingerprint of the alive set, both maintained
    incrementally by set_alive, one call per orbit step.  With every cell
    alive, updeg starts as a copy of the universe's up-degree count.
    """

    def __init__(self, universe, alive=None):
        self.cx = universe
        n = len(universe.payloads)
        if alive is None:
            self.alive = [True] * n
            self.updeg = universe.up_degrees()
        else:
            self.alive = [False] * n
            for i in alive:
                self.alive[_cell_id(i, n)] = True
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

    def set_alive(self, ids, alive):
        """Set the flag of the distinct cells ids, a list of cells that
        each have the other flag now, to alive (True) or dead (False)."""
        flags, updeg, down = self.alive, self.updeg, self.cx.down
        step = 1 if alive else -1
        for i in ids:
            flags[i] = alive
            for j in down[i]:
                updeg[j] += step
        self.n_alive += step * len(ids)
        self.fingerprint = (self.fingerprint + step * sum(
            map(self.cx.digests.__getitem__, ids))) & _MASK128

    def alive_ids(self):
        return [i for i, a in enumerate(self.alive) if a]


def apply_orbit_step(state, action, direction, sigma, facet):
    """Verify an orbit step against the current state, then apply it.

    The step moves the orbit of cell sigma with one facet per member: sigma
    gets `facet`, and a generator carries a member's facet to its image's.
    The orbit must be free, as every orbit of the paper's complexes is
    (GroupAction).  It and its facets come from the action's word table,
    one list index per cell: the member sigma.w gets the facet facet.w, for
    each word w of the table, in the order a search from sigma meets the
    orbit (GroupAction._orbit_list).  While the table is unknown, the
    members come from a search of sigma's orbit, which reads the table if
    it finds |G| cells.  The orbit is free iff the members are |G| distinct
    cells, and then they are all of it: this trusts `order` = |G|.
    direction "c" collapses the orbit with its facets, "e" expands them.
    Every check runs before any cell moves, and the state then changes in
    one set_alive call.

    Raises InputError for another direction; WrongCodimension if facet is
    not one dimension above sigma; VerificationError if it does not cover
    sigma or if sigma is not the least cell of its orbit;
    OrbitNotIndependentlyFree if the orbit is not free or two members share
    their facet; NotFree if a collapsed cell is not free in the alive set;
    and VerificationError for an expansion whose cells are alive or lack a
    face.  Returns the orbit as {member: facet}.
    """
    if direction not in ("c", "e"):
        raise InputError("unknown step direction %r" % (direction,))
    K = state.cx
    if K.dims[facet] != K.dims[sigma] + 1:
        raise WrongCodimension(
            "facet %s of cell %s has codimension %d"
            % (_label(K, facet), _label(K, sigma),
               K.dims[facet] - K.dims[sigma]))
    if sigma not in K.down[facet]:
        raise VerificationError("cell %s is not a cover of cell %s"
                                % (_label(K, facet), _label(K, sigma)))
    orbit = dict(zip(action._orbit_list(sigma), action._orbit_list(facet)))
    if len(orbit) != action.order:
        raise OrbitNotIndependentlyFree(
            "the orbit of cell %s is not free" % _label(K, sigma))
    if min(orbit) != sigma:
        raise VerificationError("step sigma is not the orbit representative")
    if len(set(orbit.values())) != len(orbit):
        raise OrbitNotIndependentlyFree("facets of one orbit coincide")
    alive, updeg = state.alive, state.updeg
    if direction == "c":
        for m, f in orbit.items():
            if not (alive[m] and alive[f]):
                raise NotFree(
                    "collapse step touches dead cell %s" % _label(K, m))
            if updeg[f] != 0:
                raise NotFree(
                    "facet %s is not maximal in the alive set" % _label(K, f))
            if updeg[m] != 1:
                raise NotFree(
                    "cell %s has %d alive cofacets, so it is not free"
                    % (_label(K, m), updeg[m]))
        state.set_alive([*orbit, *orbit.values()], False)
        return orbit
    for m, f in orbit.items():
        if alive[m] or alive[f]:
            raise VerificationError("expand step re-adds alive cell")
        if updeg[m] != 0 or updeg[f] != 0:
            raise VerificationError(
                "expansion of cell %s would leave a dangling cofacet"
                % _label(K, m))
        for j in K.down[m]:
            if not alive[j]:
                raise VerificationError("expansion of cell %s lacks face %s"
                                        % (_label(K, m), _label(K, j)))
        for j in K.down[f]:
            if j != m and not alive[j]:
                raise VerificationError(
                    "expansion of facet %s lacks face %s"
                    % (_label(K, f), _label(K, j)))
    state.set_alive([*orbit, *orbit.values()], True)
    return orbit


def _apply_steps(state, action, steps, first, to_state, end=None,
                 where=None):
    """Apply certificate steps, numbered from `first`, to state; unless end
    is None, then check that it ends at the fingerprint `end` of their run,
    named by `where`.  to_state(k) is the state id of certificate cell id k,
    or raises InputError.  A failing step is named with its direction and
    its cell."""
    for i, (direction, sigma, facet) in enumerate(steps, first):
        s = None
        try:
            s = to_state(sigma)
            apply_orbit_step(state, action, direction, s, to_state(facet))
        except (InputError, VerificationError) as e:
            cell = "cell %s" % (sigma,)
            if s is not None:
                cell += " " + fmt_payload(state.cx.payloads[s])
            raise type(e)("step %d (%s at %s): %s"
                          % (i, _DIRECTIONS.get(direction, repr(direction)),
                             cell, e)) from e
    if end is not None and state.fingerprint != end:
        raise VerificationError(
            "%s: the state after step %d is not the run's end fingerprint"
            % (where, first + len(steps) - 1))


def _same(k):
    return k


def _undo(steps):
    """The steps undone, last first, each the opposite step."""
    return [(_FLIP[d], sigma, facet) for d, sigma, facet in reversed(steps)]


# ---------------------------------------------------------------------------
# deformation certificates


class DeformationCertificate:
    """A replayable zig-zag of elementary G-collapses and G-expansions.

    endpoints are the 128-bit fingerprints of the two end complexes.  runs
    is a list of (universe, end, steps), each with at least one step: the
    steps of one stellar stage act in its cone universe, whose fingerprint
    the run holds once; a collapse in a complex the caller names has one run
    with universe None, or none if it has no step.  end is the fingerprint
    of the state after the run's last step; the state before a run is the
    previous run's end, or endpoints[0].  A step is the tuple (direction,
    sigma, facet): "c" (collapse) or "e" (expand), the least cell of the
    orbit and its facet; replay regenerates the orbit and the other
    members' facets from the action.
    """

    def __init__(self, endpoints, runs):
        self.endpoints = tuple(endpoints)
        self.runs = list(runs)

    def __len__(self):
        return sum(len(steps) for _, _, steps in self.runs)

    def __eq__(self, other):
        return (isinstance(other, DeformationCertificate)
                and self.endpoints == other.endpoints
                and self.runs == other.runs)

    def reversed(self):
        """This certificate run backwards, each step undone: a run undone
        ends where the run before it ended, or at endpoints[0].  Raises
        VerificationError unless the last run ends at endpoints[1], since
        no run of the reversed form holds that fingerprint."""
        runs, before = [], self.endpoints[0]
        for universe, end, steps in self.runs:
            runs.append((universe, before, _undo(steps)))
            before = end
        if before != self.endpoints[1]:
            raise VerificationError(
                "the last run does not end at the end fingerprint")
        return DeformationCertificate(self.endpoints[::-1], runs[::-1])

    def to_json_obj(self):
        """A run is [universe, end, step, ...] and a step [direction,
        sigma, facet]."""
        return {
            "endpoints": [_hex(f) for f in self.endpoints],
            "runs": [[None if u is None else _hex(u), _hex(end)]
                     + [list(step) for step in steps]
                     for u, end, steps in self.runs],
        }

    @classmethod
    def from_json_obj(cls, obj):
        """Parse the JSON form; raises InputError for a field it does not
        know, or unless every field has its type: hex fingerprints, and
        steps with a direction and non-negative integer cell ids."""
        what = "deformation"
        _need(isinstance(obj, dict), what, "not an object")
        _need(set(obj) <= {"endpoints", "runs"}, what,
              "fields %s, not endpoints, runs" % sorted(obj))
        endpoints = _fingerprints(obj.get("endpoints"), what, "endpoints")
        rows = obj.get("runs")
        _need(isinstance(rows, list), what, "runs is not a list")
        runs = []
        k = 0
        for j, row in enumerate(rows):
            _need(isinstance(row, list) and len(row) > 2, what,
                  "run %d is not a [universe, end, step, ...] list" % j)
            universe = row[0]
            if universe is not None:
                universe = _fingerprint(universe, what, "run %d universe" % j)
            end = _fingerprint(row[1], what, "run %d end" % j)
            for step in row[2:]:
                _need(isinstance(step, list) and len(step) == 3
                      and step[0] in ("c", "e") and _is_id(step[1])
                      and _is_id(step[2]), what,
                      "step %d is not a [direction, sigma, facet] row" % k)
                k += 1
            runs.append((universe, end, [tuple(step) for step in row[2:]]))
        return cls(endpoints, runs)


def _hex(fingerprint):
    return "%032x" % fingerprint


def _need(ok, what, msg):
    if not ok:
        raise InputError("malformed %s certificate: %s" % (what, msg))


def _cell_id(k, n):
    """k, if it is the id of a cell of an n-cell universe; else InputError."""
    if not _is_id(k) or k >= n:
        raise InputError("cell id %r is outside the %d-cell universe" % (k, n))
    return k


def _fingerprint(x, what, where):
    """A fingerprint as the 32 lowercase hex digits it is written as."""
    _need(isinstance(x, str) and len(x) == 32
          and x.strip("0123456789abcdef") == "",
          what, "%s is not a 32-digit hex fingerprint" % where)
    return int(x, 16)


def _fingerprints(obj, what, where):
    """A pair of hex fingerprint strings, as integers."""
    _need(isinstance(obj, list) and len(obj) == 2, what,
          "%s is not a pair of hex strings" % where)
    return tuple(_fingerprint(f, what, where) for f in obj)


# ---------------------------------------------------------------------------
# collapse order


def _orbit_steps(action, mu, key):
    """The collapse steps of the matching mu (cell -> facet), one per orbit,
    as DeformationCertificate holds them: ("c", least member, its facet),
    sorted by key(orbit), a sorted tuple, then by least member.  Raises
    Stuck, naming the cell, if a cell lies in two pairs, or if mu is not
    equivariant: not closed under the action, or a member rep.w of an
    orbit not matched with mu(rep).w, for a word w of the action's table."""
    K = action.cx
    cells = set(mu)
    for f in mu.values():
        if f in cells:
            raise Stuck("cell %s appears in two matched pairs" % _label(K, f))
        cells.add(f)
    orbs = action.orbits(mu)
    for ob in orbs:
        for m in ob:
            if m not in mu:
                raise Stuck("matched set is not closed under the action "
                            "at cell %s" % _label(K, m))
        rep = ob[0]
        for m, f in zip(action._orbit_list(rep), action._orbit_list(mu[rep])):
            if mu[m] != f:
                raise Stuck("matching is not equivariant at cell %s: it is "
                            "matched with %s, the action gives %s"
                            % (_label(K, m), _label(K, mu[m]), _label(K, f)))
    orbs.sort(key=key)
    return [("c", ob[0], mu[ob[0]]) for ob in orbs]


# ---------------------------------------------------------------------------
# the matching-driven collapse


def _restrict_action(A, old2new, sub):
    """A on the subcomplex sub; old2new, as subcomplex returns it, maps the
    kept ids in ascending order to 0, 1, ... and the others to None."""
    keep = [o for o, n in enumerate(old2new) if n is not None]
    return A.transport(sub, [list(map(old2new.__getitem__,
                                      map(p.__getitem__, keep)))
                             for p in A.perms])


# cells_moved counts the cells the collapse removed.
CollapseRun = namedtuple("CollapseRun", "certificate cells_moved")


@_paused_collector
def matching_to_collapse(K, A, M):
    """Collapse the matching M on K = M.sd = sd B_edge(H), with A =
    M.action, in checked orbit steps, in the order of the first key in the
    module docstring: the proof that M is an equivariant acyclic matching
    (morse), and a replayable certificate whose end is the critical
    subcomplex.  The collapse must remove |Sigma| + |mu(Sigma)| cells and
    leave M.critical, whose fingerprint, as a subcomplex keeps its cells'
    digests, is the state's: no end complex is built.  Raises
    VerificationError (a subclass), naming a cell, where M fails, and
    InputError for a K or A that is not M's own.
    """
    if K is not M.sd:
        raise InputError("K is not the matching's complex M.sd")
    if A is not M.action:
        raise InputError("A is not the matching's action M.action")
    pay, box_dims = K.payloads, M.box.cx.dims

    def key(ob):
        # mu inserts c(x) directly after x, the topmost non-product
        s, t = pay[ob[0]], pay[M.mu[ob[0]]]
        k = next((k for k, (a, b) in enumerate(zip(s, t)) if a != b), len(s))
        return -len(s), -box_dims[s[k - 1]]

    state = CollapseState(K)
    steps = _orbit_steps(A, M.mu, key)
    _apply_steps(state, A, steps, 0, _same)
    moved = len(K.payloads) - state.n_alive
    expect = len(M.sigma()) + len(M.upper)
    if moved != expect:
        raise VerificationError(
            "bookkeeping: removed %d cells, expected |Sigma|+|mu(Sigma)| = %d"
            % (moved, expect))
    alive = state.alive_ids()
    if alive != M.critical:
        k = min(set(alive).symmetric_difference(M.critical))
        raise VerificationError(
            "collapse endpoint differs from the critical subcomplex at "
            "cell %s" % _label(K, k))
    cert = DeformationCertificate(
        (K.fingerprint, state.fingerprint),
        [(None, state.fingerprint, steps)] if steps else [])
    return CollapseRun(cert, moved)


CriticalIso = namedtuple(
    "CriticalIso", "sd_hom sd_hom_action critical critical_action map")


@_paused_collector
def verify_critical_isomorphism(M, max_cells=None):
    """Check that chains of products (the critical cells of the matching M)
    form a complex S_r-isomorphic to sd Hom(K_r^r, H), via the itemwise
    product map i.  Each complex and action of the CriticalIso returned is
    built once, here."""
    return _critical_iso(M.hom, M.box, M.sd, M.action, M.critical, max_cells)


def _critical_iso(hom, box, sd, action, critical, max_cells):
    """verify_critical_isomorphism on the parts of a matching."""
    sdh = order_complex(hom.cx, max_cells=max_cells)
    sdh_action = lift_action_to_order_complex(hom.action, sdh)
    iids = i_image_ids(hom, box)
    crit, old2new = sd.subcomplex(critical)
    crit_action = _restrict_action(action, old2new, crit)
    f = verify_isomorphism(
        sdh, crit,
        lambda ch: tuple(iids[h] for h in ch),
        sdh_action, crit_action)
    return CriticalIso(sdh, sdh_action, crit, crit_action, f)


@_paused_collector
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
    first = 0
    for j, (universe_fp, end, steps) in enumerate(cert.runs):
        if universe_fp is not None:
            raise VerificationError(
                "step %d names a stellar universe in a collapse certificate"
                % first)
        _apply_steps(state, action, steps, first,
                     lambda k: _cell_id(k, n), end, "run %d" % j)
        first += len(steps)
    if state.fingerprint != cert.endpoints[1]:
        raise VerificationError("certificate end fingerprint does not match")
    return state


# ---------------------------------------------------------------------------
# stellar deformation stages


class _CellStore(CollapseState):
    """The append-only cells of one stellar deformation.

    It starts as a copy of K and its action A; sd_deformation and
    replay_sd_deformation run all their stages in one.  Each stage appends
    its apex and cone cells, dead, with their digests and the generators'
    permutation entries, then expands them and collapses its open stars on
    the store's alive flags, in one step loop for build and replay; no id
    ever moves.
    The live cells in id order are the current complex, and the cells a
    stage appends come after all of them, so store order lists every cell
    after its faces.  Cells that died give up their payloads, members,
    index entries and up links when the next stage settles the store.

    Like its digest, each cell gets its member when it is appended, the id
    in K that unfold_subdivision reads: v for a vertex v of K, m for the
    apex of m and for a cone from it, and None for a cell of K of positive
    dimension.

    The cells of K keep their digests.  An appended cell's digest comes from
    its parts (_cone_universe): the tag b"A" and its member's digest for an
    apex, the tag b"C", its apex's digest and its base's digest for a cone
    cell.  Its payload is never encoded.  A cone cell is determined by its
    apex and its base and an apex by its member, and the cells of K digest
    payload encodings that start with another byte, so two different cells
    share a digest only if the hash collides.  The store still refuses a
    payload it already holds.

    The store is the state, the universe complex and the group action that
    apply_orbit_step, _orbit_steps and _orbit_star work on, so it borrows
    the methods they call from CellComplex and GroupAction.  As a state and
    an action it is its own complex, cx; a class property gives it, since
    an attribute self.cx = self would be a reference cycle, and the store,
    with its index and per-cell lists, would then wait for the cyclic
    collector to be freed.
    """

    cx = property(lambda self: self)
    faces = CellComplex.faces
    cofaces = CellComplex.cofaces
    orbit = GroupAction.orbit
    orbits = GroupAction.orbits
    _orbit_list = GroupAction._orbit_list
    _search = GroupAction._search
    _set_words = GroupAction._set_words
    transport = GroupAction.transport
    _check_automorphisms = GroupAction._check_automorphisms
    _check_relations = GroupAction._check_relations

    def __init__(self, K, A):
        n = len(K.payloads)
        self.labels, self.order, self.relations = (A.labels, A.order,
                                                   A.relations)
        self.payloads = list(K.payloads)
        self.dims = list(K.dims)
        self.down = list(K.down)
        self.up = [list(u) for u in K.up]
        self.digests = list(K.digests)
        self.members = [i if d == 0 else None for i, d in enumerate(K.dims)]
        self.index = dict(K.index)
        self.perms = [list(p) for p in A.perms]
        self._set_words(A.words)
        self.alive = [True] * n
        self.n_alive = n
        self.updeg = K.up_degrees()
        self.fingerprint = K.fingerprint
        self.dead = []        # ascending ids of the settled dead cells
        self.n_settled = n    # cells appended after this are not settled
        self.removed = []     # ids removed since the last settle

    def set_alive(self, ids, alive):
        CollapseState.set_alive(self, ids, alive)
        if not alive:
            self.removed += ids

    def extend(self, cells):
        """Append (payload, dim, down, digest, member) cells, dead, with
        their up links; down is a tuple.  Returns their ids."""
        first = len(self.payloads)
        payloads, dims, downs, digests, members = zip(*cells)
        new = range(first, first + len(cells))
        index = self.index
        for i, payload in zip(new, payloads):
            if index.setdefault(payload, i) != i:
                raise InputError(
                    "duplicate cell payload: %s" % fmt_payload(payload))
        self.payloads += payloads
        self.dims += dims
        self.down += downs
        self.digests += digests
        self.members += members
        self.up += [[] for _ in new]
        self.alive += [False] * len(new)
        self.updeg += [0] * len(new)
        up = self.up
        for i, down in zip(new, downs):
            for j in down:
                up[j].append(i)
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
            self.payloads[i] = self.members[i] = None
            self.down[i] = self.up[i] = ()
        # A new list: a stage's _Universe keeps the one it started with.
        self.dead = sorted(self.dead + gone)

    def complex(self, ids):
        """The complex on the downward closed store ids `ids`, with the
        members of its cells as cx.members, and the action restricted to
        it.  CellComplex.subcomplex copies the cells out: payloads,
        dimensions, covers and digests, with ids mapped through a list.  It
        builds no payload index until one is read (CellComplex.index); the
        stage-2 and stage-5 checks read none."""
        cx, old2new = CellComplex.subcomplex(self, ids)
        cx.members = [m for m, n in zip(self.members, old2new)
                      if n is not None]
        return cx, _restrict_action(self, old2new, cx)

    def end_complex(self):
        """The live complex and its action, as complex() copies them, after
        the last stage.  The payload index, the up links and the up-degrees
        go first, as only a stage reads them, so that the copy reuses their
        memory; the store runs no stage after."""
        self.index = self.up = self.updeg = None
        return self.complex(self.alive_ids())


class _Universe:
    """One stage's universe L inside a store: the live cells in store
    order, then the cells the stage appended (`new`).  Certificates name
    cells by their ids in L; this converts them to store ids and back."""

    def __init__(self, store, new, fingerprint):
        self.dead = store.dead
        self.new = new
        self.n_live = store.n_alive
        self.size = store.n_alive + len(new)
        self.fingerprint = fingerprint

    def __len__(self):
        return self.size

    def local_id(self, s):
        return s - bisect_left(self.dead, s)

    def store_id(self, k):
        _cell_id(k, self.size)
        dead = self.dead
        if k >= self.n_live:
            return k + len(dead)
        # The k-th live cell is k + j for the least j with dead[j] - j > k.
        return k + bisect_right(range(len(dead)), k,
                                key=lambda j: dead[j] - j)


def _part_digest(prefix, digest):
    """The digest of a cell a stellar stage appends: prefix is its tag,
    followed by its apex's digest for a cone cell, and digest that of its
    member (apex) or base (cone cell).  Digests enter as 16 bytes."""
    return int.from_bytes(hashlib.blake2b(
        prefix + digest.to_bytes(16, "big"), digest_size=16).digest(), "big")


def _orbit_star(store, rep):
    """The open and closed stars of the orbit of store cell rep, which a
    stellar stage cones: (orbit, cof, ring), where cof[m] is the set of
    cofaces of the member m (m included), its open star, and ring[m] the
    cells that share a coface with m but are not above m, the boundary of
    its closed star and the base of the cone replacing the open star.
    Raises OrbitCofaceClash if two orbit members share a coface.
    """
    orbit = store.orbit(rep)
    cof = {m: store.cofaces(m) for m in orbit}
    for a, b in combinations(orbit, 2):
        common = cof[a] & cof[b]
        if common:
            raise OrbitCofaceClash(
                "cells %d and %d of one orbit share coface %d"
                % (a, b, min(common)))
    ring = {}
    for m in orbit:
        star = set()
        for c in cof[m]:
            star |= store.faces(c)
        ring[m] = star - cof[m]
    return orbit, cof, ring


def _cone_universe(store, orbit, cof, ring, max_cells):
    """Append to the store, dead, the cells L adds to the live complex K:
    per orbit member m an apex (BARY, payload of m), and over every cell b
    of the closed star of m a cone cell (CONE, apex, payload of b), whether
    the cells of K are vertex sets or products.  They come in a fixed
    order, the apexes in orbit order and then each member's cones by base
    id, and each generator moves them with their members and bases; on
    them it is checked as an automorphism, and the relations are checked.
    Each gets its digest from its parts.  Returns (L as a _Universe,
    apex_id, cone_id) in store ids.
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
    digests = store.digests
    toks = {}
    cells = []
    for m in orbit:
        tok = (BARY, store.payloads[m])
        toks[m] = tok, _part_digest(_APEX_TAG, digests[m])
        cells.append((tok, 0, (), toks[m][1], m))
    for m in orbit:
        tok, apex = toks[m]
        prefix = _CONE_TAG + apex.to_bytes(16, "big")
        for b in star_list[m]:
            if store.dims[b] == 0:
                down = (b, apex_id[m])
            else:
                down = (b, *[cone_id[(m, j)] for j in store.down[b]])
            cells.append(((CONE, tok, store.payloads[b]), store.dims[b] + 1,
                          down, _part_digest(prefix, digests[b]), m))
    new = store.extend(cells)

    for p in store.perms:
        p += [apex_id[p[m]] for m in orbit]
        p += [cone_id.get((p[m], p[b])) for m in orbit for b in star_list[m]]
    store._check_automorphisms(new)
    store._check_relations(new)
    fingerprint = (store.fingerprint
                   + sum(store.digests[i] for i in new)) & _MASK128
    return _Universe(store, new, fingerprint), apex_id, cone_id


def _conepartner(B, tstar, sstar):
    """Partner of a payload B under the anchored pairing, and the coordinate
    j its toggle changes; sstar is the anchor vertex's payload, and tstar,
    for a product anchor, its vertex in each coordinate.  An apex pairs with
    its cone over the anchor, and a cone with the cone from its apex over
    its base's partner, recursing through nested cones, so the innermost
    base gives j.  A cell of K toggles the anchor: a vertex set B gives B ^
    sstar, j = 0, and a product toggles tstar[j] in its first coordinate j
    that is not tstar[j] alone.  None means the empty base: a cone over the
    anchor alone pairs with its bare apex.
    """
    if isinstance(B, tuple) and len(B) == 2 and B[0] == BARY:
        return (CONE, B, sstar), 0
    if isinstance(B, tuple) and len(B) == 3 and B[0] == CONE:
        q, j = _conepartner(B[2], tstar, sstar)
        return B[1] if q is None else (CONE, B[1], q), j
    if isinstance(B, frozenset):
        return B ^ sstar or None, 0
    if isinstance(B, tuple) and all(isinstance(q, frozenset) for q in B):
        for j, part in enumerate(B):
            tj = tstar[j]
            if len(part) == 1 and tj in part:
                continue
            new = part - {tj} if tj in part else part | {tj}
            return B[:j] + (new,) + B[j + 1:], j
        return None, 0
    raise InputError("no pairing rule for cone base %r" % (B,))


def _leg_a_pairs(L, orbit, cof, ring, apex_id, cone_id):
    """Perfect matching on the cone cells of the store L (pairing each with
    its anchor toggle, _conepartner), whose collapse retracts L back onto K.

    The anchor is the minimal vertex under the representative orbit[0]: of
    a vertex set, its least vertex; of a product, its least vertex in each
    coordinate.
    The pairing is built on the representative's cone cells only and then
    read down the word table with them (GroupAction._orbit_list): the cone
    cell c.w pairs with q.w for each pair (c, q) of the representative and
    each word w.  A per-member construction would break equivariance
    whenever a group element reorders product coordinates.  This needs a
    free orbit; the orbits of the paper's complexes are (GroupAction).
    Raises Stuck if the orbit is not free, or the pairing escapes the cone
    cells or fails to be a perfect involution.  Returns the matching (cell
    -> facet) and the key of its collapse order on orbits."""
    rep = orbit[0]
    pay = L.payloads[rep]
    tstar = None
    if isinstance(pay, frozenset):
        a_pay = frozenset([min(pay, key=canon_bytes)])
    elif isinstance(pay, tuple) and all(isinstance(q, frozenset) for q in pay):
        tstar = tuple(min(q, key=canon_bytes) for q in pay)
        a_pay = tuple(frozenset([t]) for t in tstar)
    else:
        raise InputError(
            "no anchor rule for payloads of shape %r" % (type(pay).__name__,))
    if a_pay not in L.index:
        raise Stuck("anchor vertex %r is not a cell" % (a_pay,))
    if len(orbit) != L.order:
        raise Stuck("the orbit of cell %s is not free" % fmt_payload(pay))
    partner_rep, toggled = {}, {}
    for cid in [apex_id[rep]] + [cone_id[(rep, b)]
                                 for b in sorted(cof[rep] | ring[rep])]:
        X = L.payloads[cid]
        q_pay, toggled[cid] = _conepartner(X, tstar, a_pay)
        if q_pay not in L.index:
            raise Stuck("anchor toggle leaves the cone cells at cell %s"
                        % fmt_payload(X))
        partner_rep[cid] = L.index[q_pay]
    cone_cells = set()
    for m in orbit:
        cone_cells.add(apex_id[m])
        cone_cells.update(cone_id[(m, b)] for b in cof[m] | ring[m])
    partner = {}
    for cid, q in partner_rep.items():
        partner.update(zip(L._orbit_list(cid), L._orbit_list(q)))
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

    def key(ob):
        # the third key of the module docstring, read at rep's pair
        return -L.dims[ob[0]], next(toggled[x] for x in ob if x in toggled)
    return mu, key


def _leg_b_pairs(cof, cone_id):
    """Pair every open-star cell with its cone; collapsing these takes L to
    the stellar subdivision."""
    mu = {}
    for m, cells in cof.items():
        for b in cells:
            mu[b] = cone_id[(m, b)]
    return mu


def _stellar_stage(store, rep, max_cells, replay=None):
    """One stellar stage, at the orbit of store cell rep: K (the live cells)
    ~ L (K plus the cells _cone_universe appends) ~ sd_rep(K).

    To build (replay None): the steps are leg A's collapse undone, as
    expansions K -> L, then leg B's collapse of the open stars and their
    cones, L -> sd_rep(K), each in the order of its key (module docstring);
    they are applied as a replay applies them.  To replay, `replay` is the
    stage's run (universe fingerprint, end fingerprint, steps), the number
    of its first step and the run's number: L's fingerprint is checked, the
    steps applied from K and the end checked.  Either way the store's live
    cells end as the stage's end complex, the stellar subdivision of K at
    the orbit: the cells of K above no member, and per member m the apex
    (BARY, payload of m) and a cone (CONE, apex, payload of b) over each
    cell b of ring[m] (_orbit_star).  This is the library's one stellar
    subdivision.  Returns L as a _Universe and the stage's run, its steps
    in L's ids.
    """
    store.settle()
    if not store.alive[rep]:
        raise VerificationError(
            "schedule cell %d vanished before its stage" % rep)
    orbit, cof, ring = _orbit_star(store, rep)
    U, apex_id, cone_id = _cone_universe(store, orbit, cof, ring, max_cells)
    if replay is not None:
        run, first, j = replay
        where = _run_name(j, store, rep)
        if U.fingerprint != run[0]:
            raise VerificationError(
                "%s: universe fingerprint mismatch" % where)
        _apply_steps(store, store, run[2], first, U.store_id, run[1], where)
        return U, run

    mu_a, key_a = _leg_a_pairs(store, orbit, cof, ring, apex_id, cone_id)
    steps = _undo(_orbit_steps(store, mu_a, key_a))
    _apply_steps(store, store, steps, 0, _same)
    if not all(map(store.alive.__getitem__, U.new)):
        raise Stuck("cone expansion did not fill the universe")
    leg_b = _orbit_steps(store, _leg_b_pairs(cof, cone_id),
                         lambda ob: -store.dims[ob[0]])
    _apply_steps(store, store, leg_b, len(steps), _same)
    local = U.local_id
    steps = [(d, local(s), local(f)) for d, s, f in steps + leg_b]
    return U, (U.fingerprint, store.fingerprint, steps)


# ---------------------------------------------------------------------------
# full subdivision deformation


SdDeformation = namedtuple("SdDeformation",
                           "certificate final final_action")


def _run_name(j, K, rep):
    """How replay names run j of a stellar deformation, the stage at cell
    rep of K (a complex or a cell store)."""
    return "run %d (schedule cell %d %s)" % (j, rep,
                                             fmt_payload(K.payloads[rep]))


def _schedule(K, A):
    """The orbits of K that the stellar stages of an sd-deformation star:
    those of positive dimension, dimension descending, representatives
    ascending.  Starring at a vertex v cones the link of v from a new apex,
    which is K again with v renamed, so each vertex of K stays bare."""
    orbs = [ob for ob in A.orbits() if K.dims[ob[0]] > 0]
    return sorted(orbs, key=lambda ob: (-K.dims[ob[0]], ob[0]))


def unfold_subdivision(E, EA, sd_action):
    """The id table of the G-isomorphism from E, the end complex of an
    sd-deformation of K with action EA, onto sd K = sd_action.cx, checked by
    verify_iso_ids: stages 2 and 5 of the main theorem certificate, which a
    caller runs once sd K and its lifted action exist (sd_deformation
    builds neither).  One pass reads it from E.members, as E lists every
    cell after its faces: a vertex v of K or an apex of m goes to the chain
    (v,) or (m,), whose id is v or m, and a cone from the apex of m to its
    base's (first cover's) chain with m inserted.  Raises
    VerificationError naming a cone over a cell of K of positive dimension,
    which has no image, or a cone whose image is not a chain of K."""
    chains, index = sd_action.cx.payloads, sd_action.cx.index
    f = []
    for i, (m, down) in enumerate(zip(E.members, E.down)):
        if down and m is not None:
            if f[down[0]] is None:
                raise VerificationError(
                    "cell %s is not fully subdivided: it is a cone over %s, "
                    "a cell of K" % (_label(E, i), _label(E, down[0])))
            ch = chains[f[down[0]]]
            k = bisect_left(ch, m)
            ch = ch[:k] + (m,) + ch[k:]
            m = index.get(ch)
            if m is None:
                raise VerificationError(
                    "cell %s maps to %s, which is not a chain of K"
                    % (_label(E, i), fmt_payload(ch)))
        f.append(m)
    return verify_iso_ids(E, sd_action.cx, f, EA, sd_action)


def sd_deformation(K, A, max_cells=None):
    """Certify K ~ (a complex isomorphic to) sd K by composing one stellar
    stage per orbit of K of positive dimension, dimension descending, all
    in one cell store (_schedule).  Returns
    SdDeformation(certificate, final, final_action): the end complex E,
    copied out of the store, which is freed on return, and its action.

    The isomorphism of E onto sd K, in which each vertex of K stands for
    its one-element chain, is a step of its own: unfold_subdivision(final,
    final_action, sd_action), with sd_action A lifted to the barycentric
    subdivision of K (order_complex, then lift_action_to_order_complex).
    """
    store = _CellStore(K, A)
    runs = [_stellar_stage(store, ob[0], max_cells)[1]
            for ob in _schedule(K, A)]
    cur, cur_action = store.end_complex()
    cert = DeformationCertificate((K.fingerprint, cur.fingerprint), runs)
    return SdDeformation(cert, cur, cur_action)


def replay_sd_deformation(K, A, cert, max_cells=None):
    """Replay an sd_deformation certificate: rebuild each cone universe from
    the deterministic schedule, check its fingerprint against its run's,
    re-verify and apply every step, and check the state at each run's end.
    Returns (final complex, final action)."""
    if cert.endpoints[0] != K.fingerprint:
        raise VerificationError("certificate does not start at this complex")
    if any(run[0] is None for run in cert.runs):
        raise VerificationError("subdivision step lacks a universe mark")
    schedule = _schedule(K, A)
    if len(cert.runs) != len(schedule):
        raise VerificationError(
            "certificate has %d stages but the schedule needs %d"
            % (len(cert.runs), len(schedule)))
    store = _CellStore(K, A)
    first = 0
    for j, (ob, run) in enumerate(zip(schedule, cert.runs)):
        _stellar_stage(store, ob[0], max_cells, (run, first, j))
        first += len(run[2])
    cur, cur_action = store.end_complex()
    if cur.fingerprint != cert.endpoints[1]:
        raise VerificationError("certificate end fingerprint does not match")
    return cur, cur_action


# ---------------------------------------------------------------------------
# the main theorem certificate


class MainTheoremCertificate:
    """A six-stage machine-checkable witness that Hom(K_r^r, H) and
    B_edge(H) are simple-S_r-homotopy equivalent.

    Stages (deformation certificates alternating with isomorphisms):
      1. subdivide-hom          Hom  ~>  E_hom  (stellar stages)
      2. unfold-hom-subdivision E_hom ≅ sd Hom
      3. products-into-sd-box   sd Hom ≅ critical subcomplex of sd B_edge
      4. expand-to-sd-box       critical  ~>  sd B_edge  (reversed collapse)
      5. fold-box-subdivision   sd B_edge ≅ E_box
      6. desubdivide-box        E_box  ~>  B_edge  (reversed stellar stages)

    Each stage is a dict with its "kind" and "name".  A deformation stage
    holds its DeformationCertificate under "certificate"; an isomorphism
    stage holds the fingerprints of its two complexes under "from" and
    "to".  It stores no map: replay regenerates each isomorphism as the
    build does (unfold_subdivision for stages 2 and 5, from the members of
    the end complex's cells; the product map i for stage 3) and checks it
    with verify_iso_ids.  The JSON form is of format version 5; see
    DeformationCertificate for its runs and steps.
    """

    def __init__(self, endpoints, stages):
        self.endpoints = tuple(endpoints)
        self.stages = list(stages)

    def __eq__(self, other):
        return (isinstance(other, MainTheoremCertificate)
                and self.endpoints == other.endpoints
                and self.stages == other.stages)

    def to_json_obj(self):
        """The JSON form, of format version 5."""
        stages = []
        for s in self.stages:
            if s["kind"] == "deformation":
                stages.append(
                    dict(s, certificate=s["certificate"].to_json_obj()))
            else:
                stages.append(dict(s, **{"from": _hex(s["from"]),
                                         "to": _hex(s["to"])}))
        return {"version": VERSION,
                "endpoints": [_hex(f) for f in self.endpoints],
                "stages": stages}

    @classmethod
    def from_json_obj(cls, obj):
        """Parse the JSON form of version 5; raises InputError for another
        version (one without a version field is version 1), for a field it
        does not know, or unless every stage is an object with a name, a
        kind and the fields its kind needs, and no others: a well-formed
        deformation certificate, or the from and to fingerprints."""
        what = "main theorem"
        _need(isinstance(obj, dict), what, "not an object")
        version = obj.get("version", 1)
        if version in (1, 2, 3, 4) and _is_id(version):
            raise InputError(
                "main theorem certificate of format version %d, which this "
                "hombox no longer replays: rebuild it with `hombox theorem`"
                % version)
        _need(version == VERSION and _is_id(version), what,
              "unknown version %r" % (version,))
        _need(set(obj) <= {"version", "endpoints", "stages"}, what,
              "fields %s, not version, endpoints, stages" % sorted(obj))
        endpoints = _fingerprints(obj.get("endpoints"), what, "endpoints")
        rows = obj.get("stages")
        _need(isinstance(rows, list), what, "stages is not a list")
        stages = []
        for k, s in enumerate(rows, 1):
            _need(isinstance(s, dict) and isinstance(s.get("name"), str),
                  what, "stage %d is not an object with a name" % k)
            where = "stage %d (%s)" % (k, s["name"])
            kind = s.get("kind")
            fields = _STAGE_FIELDS.get(kind) if isinstance(kind, str) else None
            _need(fields is not None, what, "%s has kind %r" % (where, kind))
            _need(set(s) == fields, what, "%s has the fields %s, not %s"
                  % (where, sorted(s), sorted(fields)))
            stage = {"kind": kind, "name": s["name"]}
            if kind == "deformation":
                try:
                    stage["certificate"] = DeformationCertificate \
                        .from_json_obj(s["certificate"])
                except InputError as e:
                    raise InputError("%s: %s" % (where, e)) from e
            else:
                stage["from"], stage["to"] = _fingerprints(
                    [s["from"], s["to"]], what, where)
            stages.append(stage)
        return cls(endpoints, stages)


# The fields of a main theorem certificate stage, by kind.
_STAGE_FIELDS = {
    "deformation": {"kind", "name", "certificate"},
    "isomorphism": {"kind", "name", "from", "to"},
}
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


def _iso_stage(name, K1, K2):
    return {"kind": "isomorphism", "name": name,
            "from": K1.fingerprint, "to": K2.fingerprint}


def _check_ends(stage, K1, K2):
    """An isomorphism stage must name K1 and K2 by their fingerprints."""
    if (stage["from"], stage["to"]) != (K1.fingerprint, K2.fingerprint):
        raise VerificationError("endpoints do not match")


@_paused_collector
def main_theorem_certificate(H, max_cells=None):
    """Build (and fully verify while building) the six-stage certificate for
    H.  Stage 4, the collapse of the matching, proves the matching.

    The steps run in the order of the lifetimes of the large structures
    they make, so that one at a time is alive:
      1. Hom(K_r^r, H) and B_edge(H), and the size guard of sd B_edge(H),
         counted before any stellar stage;
      2. the box stellar stages (stage 6), whose end complex E_box is
         copied out of the cell store, which is then freed;
      3. the matching on sd B_edge(H), from the same box bundle;
      4. stage 5, which unfolds E_box onto the matching's M.sd; E_box goes;
      5. stage 3, which builds sd Hom (verify_critical_isomorphism);
      6. the Hom stellar stages (stage 1) and stage 2, which unfolds their
         end onto that sd Hom; only their certificate and the two
         fingerprints stay;
      7. the matching's collapse (stage 4), and the assembly.
    Each complex is subdivided once.  The certificate returned carries the
    Hom and box bundles it certifies, as cert.hom and cert.box, for callers
    that want them.
    """
    from .morse import build_matching

    hom = hom_complex(H, max_cells=max_cells)
    box = box_edge(H, max_cells=max_cells)
    _order_complex_size(box.cx, max_cells)
    box_def = sd_deformation(box.cx, box.action, max_cells=max_cells)
    M = build_matching(H, max_cells, complexes=(hom, box))
    unfold_subdivision(box_def.final, box_def.final_action, M.action)
    fold = _iso_stage("fold-box-subdivision", M.sd, box_def.final)
    desubdivide = box_def.certificate.reversed()
    del box_def
    crit = verify_critical_isomorphism(M, max_cells)
    products = _iso_stage("products-into-sd-box", crit.sd_hom, crit.critical)
    hom_def = sd_deformation(hom.cx, hom.action, max_cells=max_cells)
    unfold_subdivision(hom_def.final, hom_def.final_action,
                       crit.sd_hom_action)
    unfold = _iso_stage("unfold-hom-subdivision", hom_def.final, crit.sd_hom)
    subdivide = hom_def.certificate
    del hom_def, crit
    run = matching_to_collapse(M.sd, M.action, M)
    stages = [
        {"kind": "deformation", "name": "subdivide-hom",
         "certificate": subdivide},
        unfold,
        products,
        {"kind": "deformation", "name": "expand-to-sd-box",
         "certificate": run.certificate.reversed()},
        fold,
        {"kind": "deformation", "name": "desubdivide-box",
         "certificate": desubdivide},
    ]
    cert = MainTheoremCertificate(
        (hom.cx.fingerprint, box.cx.fingerprint), stages)
    cert.hom, cert.box = hom, box
    return cert


def _product_chains(box, sd):
    """The ids of the chains of products in sd = sd B_edge(H): the chains
    whose items i∘p fixes (ip_tables), the critical cells of the matching
    on sd."""
    fixed = ip_tables(box)[0]
    return [k for k, ch in enumerate(sd.payloads)
            if all(map(fixed.__getitem__, ch))]


@_paused_collector
def replay_critical_expansion(hom, box, cert, max_cells=None, products=None):
    """Replay stages 3 and 4 of a main theorem certificate for the graph of
    the bundles hom and box: cert is stage 4, expand-to-sd-box, in the form
    `hombox verify --certificate` writes, and products, if given, stage 3.
    No matching is built: the critical cells are the chains of products,
    whose items i∘p fixes (ip_tables).  Their subcomplex must be
    S_r-isomorphic to sd Hom under i (_critical_iso), and cert is replayed
    from it to sd B_edge(H) step by step, to a state in which every cell of
    sd B_edge(H) is alive: the count of the live cells is checked, not only
    their fingerprint.  Errors name the stage first.  Returns the
    CriticalIso and the action lifted to sd B_edge(H)."""
    sd = order_complex(box.cx, max_cells=max_cells)
    action = lift_action_to_order_complex(box.action, sd)
    critical = _product_chains(box, sd)
    with _stage("products-into-sd-box"):
        crit = _critical_iso(hom, box, sd, action, critical, max_cells)
        if products is not None:
            _check_ends(products, crit.sd_hom, crit.critical)
    with _stage("expand-to-sd-box"):
        if cert.endpoints != (crit.critical.fingerprint, sd.fingerprint):
            raise VerificationError("endpoints do not match")
        state = replay_collapse_certificate(sd, action, cert,
                                            start_alive=critical)
        if state.n_alive != len(sd.payloads):
            raise VerificationError(
                "the expansion reaches %d of the %d cells of sd B_edge(H)"
                % (state.n_alive, len(sd.payloads)))
    return crit, action


@_paused_collector
def replay_main_theorem(H, cert, max_cells=None):
    """Re-verify a main theorem certificate against a fresh build for H.

    The endpoints are checked against Hom(K_r^r, H) and B_edge(H) before
    anything is subdivided, and the size guard of sd B_edge(H) before any
    stellar stage.  Every deformation is replayed step by step, every
    isomorphism is regenerated as the build does and re-verified, including
    equivariance, and all stage endpoints must chain; stages 3 and 4 go
    through replay_critical_expansion, which builds no matching.  Returns
    the (hom, box) bundles it checked; raises VerificationError (or a
    subclass) on any mismatch, and InputError on a malformed certificate,
    with the stage name first in the message.

    The stages are checked in the order in which the build makes their
    structures, so that one large structure at a time is alive: stage 6,
    whose end complex E_box is copied out of the cell store, which is then
    freed; stages 3 and 4, which build sd B_edge(H) and sd Hom; stage 5,
    after which E_box and sd B_edge(H) go; then stage 1, and stage 2, which
    needs the sd Hom of stage 3.  Stage 6 is replayed from its end, so a
    step or run number there counts from the end of its step or run
    list."""
    if not isinstance(cert, MainTheoremCertificate):
        cert = MainTheoremCertificate.from_json_obj(cert)
    hom = hom_complex(H, max_cells=max_cells)
    box = box_edge(H, max_cells=max_cells)
    if cert.endpoints != (hom.cx.fingerprint, box.cx.fingerprint):
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
    _order_complex_size(box.cx, max_cells)

    with _stage("desubdivide-box, replayed reversed"):
        c5 = s[5]["certificate"]
        if c5.runs and c5.runs[-1][1] != c5.endpoints[1]:
            # The stage's last run is the replay's run 0, whose schedule
            # cell reversed() cannot name.
            schedule = _schedule(box.cx, box.action)
            if schedule:
                raise VerificationError(
                    "%s: the stage's last run does not end at its end "
                    "fingerprint" % _run_name(0, box.cx, schedule[0][0]))
        e_box, e_box_action = replay_sd_deformation(
            box.cx, box.action, c5.reversed(), max_cells=max_cells)
        if c5.endpoints != (e_box.fingerprint, box.cx.fingerprint):
            raise VerificationError("endpoints do not match")

    crit, action = replay_critical_expansion(
        hom, box, s[3]["certificate"], max_cells, products=s[2])
    sd_hom, sd_hom_action = crit.sd_hom, crit.sd_hom_action
    del crit

    with _stage("fold-box-subdivision"):
        _check_ends(s[4], action.cx, e_box)
        unfold_subdivision(e_box, e_box_action, action)
    del e_box, e_box_action, action

    with _stage("subdivide-hom"):
        e_hom, e_hom_action = replay_sd_deformation(
            hom.cx, hom.action, s[0]["certificate"], max_cells=max_cells)

    with _stage("unfold-hom-subdivision"):
        _check_ends(s[1], e_hom, sd_hom)
        unfold_subdivision(e_hom, e_hom_action, sd_hom_action)
    return hom, box
