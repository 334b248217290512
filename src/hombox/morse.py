"""Equivariant acyclic matching on chains of box simplices.

Cells of sd B_edge(H) are chains F_0 ⊂ ... ⊂ F_k of box simplices.  The map
c = i∘p is a closure operator on box simplices: F <= c(F), c is monotone and
c(c(F)) = c(F).  Its fixed points, the products, are the images i(f) of the
multihomomorphisms f.  D is the set of chains with a non-product item.

The rule is the closure-operator matching (Kozlov, Combinatorial Algebraic
Topology, 2008, ch. 11; Freij, "Equivariant discrete Morse theory", 2009).
For a chain in D let x be its topmost non-product item and toggle c(x).
Every item above x is a product containing x, hence containing c(x), so c(x)
belongs directly above x; being a product, it leaves x the topmost
non-product.  Thus

  Sigma = chains in D without c(x)     mu inserts c(x) directly above x,
  Upper = chains in D with c(x)        the partner drops c(x),

and the toggle is an involution, so D = Sigma ⊔ mu(Sigma).  The critical
cells are the chains of products, i.e. the order complex of the image of i,
which is sd Hom(K_r^r, H).

Through tails: a chain of length >= 2 is its bottom item i followed by
its tail t.  The toggle never touches the bottom item (c(x) goes directly
above x), and the topmost non-product x lies in t unless every item of t
is a product.  So, with t classified first (it has a smaller id): if t is
not critical, the chain takes t's tag and its partner is (i,) +
partner(t); otherwise it is critical if i is a product, upper if t starts
with c(i), and in Sigma with partner (i, c(i)) + t if not.  build_matching
applies the rule this way, finding partners through the blocks of the
order complex's ids (cellcx._chain_blocks); the tests apply it item by
item to chains of payloads, as the oracle they compare with.

Equivariance: S_r permutes the coordinates of ordered edges, which commutes
with p and with i, hence with c; the rule uses nothing else.

Acyclicity: a step of a gradient path goes from s in Sigma to a facet y != s
of mu(s) with y in Sigma.  Dropping any item other than x or c(x) leaves x
topmost with c(x) above it, which is upper.  So y drops x, and the topmost
non-product of y lies strictly below x.  Its box id therefore strictly
decreases along every path, and no path closes.

build_matching checks all of this explicitly (Matching.verify) and
raises MatchingInvalid with a counterexample chain if any check fails.
"""

from .boxcx import box_edge, i_image_ids, ip_tables
from .cellcx import _chain_blocks, _lift, barycentric_subdivision, canon_key
from .errors import MatchingInvalid
from .homcx import hom_complex

CRITICAL = "critical"
SIGMA = "sigma"
UPPER = "upper"


class Matching:
    """A verified equivariant acyclic matching on sd B_edge(H).

    Attributes (ids refer to cells of .sd unless stated otherwise):
      graph, hom, box   the r-graph and its Hom/box complex bundles
      sd, action        the subdivided box complex and its lifted S_r-action
      tags              per-cell tag: "sigma", "upper" or "critical"
      mu                dict id -> id on Sigma
      upper, critical   sorted id lists
    """

    def __init__(self, graph, hom, box, sd, action, tags, mu_map):
        self.graph = graph
        self.hom = hom
        self.box = box
        self.sd = sd
        self.action = action
        self.tags = tags
        self.mu = mu_map
        self.upper = [i for i, t in enumerate(tags) if t == UPPER]
        self.critical = [i for i, t in enumerate(tags) if t == CRITICAL]

    def sigma(self):
        return [i for i, t in enumerate(self.tags) if t == SIGMA]

    def d_cells(self):
        return [i for i, t in enumerate(self.tags) if t != CRITICAL]

    def _chain_payloads(self, i):
        return _chain_payloads(self.box, self.sd, i)

    def verify(self):
        """Re-run every structural check; raise MatchingInvalid on failure."""
        sd, mu_map = self.sd, self.mu
        sig = self.sigma()
        if sorted(mu_map) != sig:
            raise MatchingInvalid("mu domain differs from Sigma")
        seen = {}
        for x in sig:
            y = mu_map[x]
            if self.tags[y] != UPPER:
                raise MatchingInvalid(
                    "mu target of chain %r is %s, not upper"
                    % (self._chain_payloads(x), self.tags[y]))
            if x not in sd.down[y]:
                raise MatchingInvalid(
                    "mu(%r) does not cover it" % (self._chain_payloads(x),))
            if y in seen:
                raise MatchingInvalid(
                    "mu not injective: chains %r and %r share target %r"
                    % (self._chain_payloads(seen[y]),
                       self._chain_payloads(x), self._chain_payloads(y)))
            seen[y] = x
        for y in self.upper:
            if y not in seen:
                raise MatchingInvalid(
                    "upper chain %r not matched by any Sigma chain: "
                    "D is not partitioned" % (self._chain_payloads(y),))
        A, tags = self.action, self.tags
        mu_of = mu_map.__getitem__
        for g, p in enumerate(A.perms):
            act = p.__getitem__
            # each test runs at C speed; the loop after it finds the cell
            if list(map(tags.__getitem__, p)) != tags:
                for x, t in enumerate(tags):
                    if tags[p[x]] != t:
                        raise MatchingInvalid(
                            "classification not equivariant at %r under %r"
                            % (self._chain_payloads(x), A.labels[g]))
            if (list(map(mu_of, map(act, sig)))
                    != list(map(act, map(mu_of, sig)))):
                for x in sig:
                    if mu_map[p[x]] != p[mu_map[x]]:
                        raise MatchingInvalid(
                            "mu not equivariant at %r under %r"
                            % (self._chain_payloads(x), A.labels[g]))
        iP = set(i_image_ids(self.hom, self.box))
        for i, items in enumerate(sd.payloads):
            expect = iP.issuperset(items)
            if expect != (self.tags[i] == CRITICAL):
                raise MatchingInvalid(
                    "critical cells differ from chains of products at %r"
                    % (self._chain_payloads(i),))
        cyc = _find_cycle(self)
        if cyc is not None:
            raise MatchingInvalid(
                "matching digraph has a cycle through %r"
                % ([self._chain_payloads(x) for x in cyc],))
        return True


def _chain_payloads(box, sd, i):
    """Chain i of sd as a list of box simplex payloads, for messages."""
    pay = box.cx.payloads
    return [sorted(pay[x], key=canon_key) for x in sd.payloads[i]]


def _classify(box, sd, closure, blocks):
    """The tag of every chain of sd = sd B_edge(H) and mu on Sigma, by the
    rule applied through tails (module docstring), in id order; closure[i]
    is the box id of c(i), and blocks = cellcx._chain_blocks(sd).  A
    one-element chain (i,) is critical if i is a product, and in Sigma with
    partner (i, c(i)) if not.  A partner is found in the block of its lowest
    2-chain, and (i, c(i)) + t through (c(i),) + t.  Raises MatchingInvalid, naming the chain, if a
    partner is not a chain, i.e. closure is not a closure operator.
    """
    layers, ids, head, shift, pair = blocks
    down = sd.down
    tags = [None] * len(down)
    mu_map = {}

    def missing(x):
        return MatchingInvalid(
            "the toggle partner of chain %r is not a chain"
            % (_chain_payloads(box, sd, x),))

    for i in layers[0]:
        c = closure[i]
        if c == i:
            tags[i] = CRITICAL
        else:
            tags[i] = SIGMA
            mu_map[i] = pair.get((i, c))
            if mu_map[i] is None:
                raise missing(i)
    for layer, sh, up in zip(layers[1:], shift[1:], shift[2:] + [None]):
        for x in layer:
            t = down[x][-1]
            tag = tags[t]
            if tag == SIGMA:
                tags[x] = SIGMA
                mu_map[x] = ids[mu_map[t] + up[head[x]]]
            elif tag == UPPER:
                tags[x] = UPPER
            else:
                i, j = down[head[x]]
                c = closure[i]
                if c == i:
                    tags[x] = CRITICAL
                elif c == j:
                    tags[x] = UPPER
                else:
                    a, b = pair.get((c, j)), pair.get((i, c))
                    if a is None or b is None:
                        raise missing(x)
                    tags[x] = SIGMA
                    mu_map[x] = ids[t + sh[a] + up[b]]
    return tags, mu_map


def _find_cycle(M):
    """A cycle in the matching digraph (x -> y iff y != x, y in Sigma, y a
    facet of mu(x)), or None.  Kahn peeling; returns one cycle's node list."""
    sig = M.sigma()
    sigset = set(sig)
    succ = {}
    indeg = dict.fromkeys(sig, 0)
    for x in sig:
        outs = tuple([y for y in M.sd.down[M.mu[x]]
                      if y != x and y in sigset])
        succ[x] = outs
        for y in outs:
            indeg[y] += 1
    queue = [x for x in sig if indeg[x] == 0]
    done = 0
    while queue:
        x = queue.pop()
        done += 1
        for y in succ[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                queue.append(y)
    if done == len(sig):
        return None
    rest = {x for x in sig if indeg[x] > 0}
    x = min(rest)
    path, seen = [], {}
    while x not in seen:
        seen[x] = len(path)
        path.append(x)
        x = next(y for y in succ[x] if y in rest)
    return path[seen[x]:]


def build_matching(H, max_cells=None):
    """Construct and fully verify the matching on sd B_edge(H).

    The lift and the classification read the chains by bottom and tail
    from the covers of sd, through one set of tables (cellcx._chain_blocks)
    that they share and that is dropped before Matching.verify rechecks the
    result from the chains' payloads.

    Raises MatchingInvalid (with a counterexample chain in the message) if
    the rule fails any check of Matching.verify on this graph; raises
    SizeGuard via the complex constructors.
    """
    hom = hom_complex(H, max_cells=max_cells)
    box = box_edge(H, max_cells=max_cells)
    sd = barycentric_subdivision(box.cx, max_cells=max_cells)
    blocks = _chain_blocks(sd)
    action = _lift(box.action, sd, blocks)
    tags, mu_map = _classify(box, sd, ip_tables(box)[1], blocks)
    del blocks
    M = Matching(H, hom, box, sd, action, tags, mu_map)
    M.verify()
    return M
