"""Shared fixtures: the standard graph corpus, session-cached matchings
and theorem certificates, a single stellar stage, and a hypothesis strategy
for small random r-graphs."""

from collections import namedtuple
from itertools import combinations, permutations

import pytest
from hypothesis import strategies as st

import hombox as hb
from hombox import collapse

CORPUS_NAMES = [
    "K_2^2", "K_3^2", "K_4^2", "K_3^3", "K_4^3", "K_5^3",
    "K3_112", "K3_122",
]


def make_graph(name):
    if name.startswith("K3_"):
        sizes = [int(c) for c in name.split("_")[1]]
        return hb.complete_multipartite(sizes)
    body = name[2:]
    n, r = body.split("^")
    return hb.complete_rgraph(int(n), int(r))


@pytest.fixture(scope="session")
def corpus():
    return {name: make_graph(name) for name in CORPUS_NAMES}


@pytest.fixture(scope="session")
def matchings(corpus):
    """Matchings for every corpus graph, built once per session; a test
    proves one by collapsing it (Matching.verify)."""
    return {name: hb.build_matching(H) for name, H in corpus.items()}


@pytest.fixture(scope="session")
def certificates(corpus):
    """The main theorem certificate of every corpus graph, built once per
    session.  A test that tampers with one tampers with its JSON form
    (to_json_obj builds a new one on each call)."""
    return {name: hb.main_theorem_certificate(H)
            for name, H in corpus.items()}


@pytest.fixture(scope="session")
def solid_triangle():
    return hb.CellComplex.from_simplices([frozenset("abc")])


@pytest.fixture(scope="session")
def hollow_triangle():
    return hb.CellComplex.from_simplices(
        [frozenset("ab"), frozenset("bc"), frozenset("ca")])


def replays(H, cert):
    """Replay the main theorem certificate cert (or its JSON form) for H, and
    check that the Hom and box bundles replay returns are the ones the
    certificate's endpoints name."""
    hom, box = hb.replay_main_theorem(H, cert)
    if not isinstance(cert, hb.MainTheoremCertificate):
        cert = hb.MainTheoremCertificate.from_json_obj(cert)
    assert (hom.cx.fingerprint, box.cx.fingerprint) == cert.endpoints
    return hom, box


def _runs(obj, k):
    """The runs of deformation stage k of a theorem certificate's JSON."""
    return obj["stages"][k]["certificate"]["runs"]


def _drop_last_run(k):
    def tamper(obj):
        _runs(obj, k).pop()
    return tamper


def _swap_first_runs(k):
    def tamper(obj):
        runs = _runs(obj, k)
        runs[0], runs[1] = runs[1], runs[0]
    return tamper


def _drop_last_steps(obj):
    [run] = _runs(obj, 3)
    del run[-3:]


# Edits of the structure of a theorem certificate (JSON), each valid in
# form, and the stage that a replay names first when it refuses one: the
# last run of stage 1 or 6 dropped, its first two runs swapped, and the
# last three steps of stage 4 dropped.  Stage 6 is replayed reversed.
STRUCTURED_TAMPERS = {
    "drop-run-stage-1": (_drop_last_run(0), "subdivide-hom"),
    "drop-run-stage-6": (_drop_last_run(5),
                         "desubdivide-box, replayed reversed"),
    "swap-runs-stage-1": (_swap_first_runs(0), "subdivide-hom"),
    "swap-runs-stage-6": (_swap_first_runs(5),
                          "desubdivide-box, replayed reversed"),
    "drop-steps-stage-4": (_drop_last_steps, "expand-to-sd-box"),
}


Stage = namedtuple("Stage", "run universe universe_action final final_action")


def stellar_stage(K, A, sigma):
    """One stellar stage of K at the orbit of cell sigma, run as
    sd_deformation runs each of its stages: collapse._stellar_stage in a
    fresh cell store of K and A, as run 0.  Returns the stage's run (its
    steps), its universe L and its end complex, the stellar subdivision,
    each with its action."""
    store = collapse._CellStore(K, A)
    run = collapse._stellar_stage(store, 0, sigma, None)[1]
    universe, universe_action = store.complex(range(len(store.payloads)))
    final, final_action = store.complex(store.alive_ids())
    return Stage(run, universe, universe_action, final, final_action)


def elements(A):
    """Every element of A's group as a permutation of the cells (a tuple),
    generated from A's generators by a breadth-first search."""
    found = [tuple(range(len(A.cx.payloads)))]
    seen = set(found)
    for q in found:
        for p in A.perms:
            qp = tuple(map(p.__getitem__, q))
            if qp not in seen:
                seen.add(qp)
                found.append(qp)
    return seen


def s_r_labels(r):
    """The elements of S_r as image tuples, identity first (lex order)."""
    return list(permutations(range(r)))


def itemwise_action(cx, maps):
    """The permutations of cx's cell ids by the payload maps, one by one."""
    return {tuple(cx.index[m(x)] for x in cx.payloads) for m in maps}


def z3_action(hollow, cycle="abc"):
    """Z_3 on the hollow triangle with vertices cycle, generated by the
    rotation r = cycle[0] -> cycle[1] -> cycle[2] -> cycle[0], r^3 = 1."""
    rot = dict(zip(cycle, cycle[1:] + cycle[0]))
    return hb.GroupAction.from_payload_maps(
        hollow, [lambda p: frozenset(rot[v] for v in p)], ["r"], order=3,
        relations=[((0, 0, 0), ())])


@st.composite
def small_rgraphs(draw):
    """r-graphs with r in {2, 3} on at most 5 vertices, with some edges."""
    r = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(r, 5))
    verts = ["v%d" % i for i in range(n)]
    possible = list(combinations(verts, r))
    keep = draw(st.lists(st.booleans(), min_size=len(possible),
                         max_size=len(possible)).filter(any))
    return hb.new_rgraph(r, verts,
                         [list(e) for e, k in zip(possible, keep) if k])
