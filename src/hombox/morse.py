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

The collapse is the proof.  build_matching checks that the critical chains
are the chains of products; Matching.verify collapses the matching, orbit
by orbit in the order of the acyclicity proof above, checking that mu is
equivariant, that each pair is free when taken, and that the critical
chains survive.  Elementary collapses in some order exist only for an
acyclic matching (Kozlov, ch. 11).
"""

from .boxcx import box_edge, ip_tables
from .cellcx import (_chain_blocks, _lift, _paused_collector, canon_bytes,
                     order_complex)
from .collapse import _product_chains, matching_to_collapse
from .errors import MatchingInvalid
from .homcx import hom_complex

CRITICAL = "critical"
SIGMA = "sigma"
UPPER = "upper"


class Matching:
    """An equivariant matching on sd B_edge(H) whose critical chains are the
    chains of products; verify proves it acyclic by collapsing it.

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

    def verify(self):
        """The matching's proof, its collapse: collapse.matching_to_collapse,
        which returns a CollapseRun or raises naming the cell that fails."""
        return matching_to_collapse(self.sd, self.action, self)


def _chain_payloads(box, sd, i):
    """Chain i of sd as a list of box simplex payloads, for messages."""
    pay = box.cx.payloads
    return [sorted(pay[x], key=canon_bytes) for x in sd.payloads[i]]


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


@_paused_collector
def build_matching(H, max_cells=None, complexes=None):
    """Construct the matching on sd B_edge(H); Matching.verify proves it.
    complexes, if given, is the (hom, box) pair of H's bundles, which the
    matching then keeps instead of building its own.

    The lift and the classification read the chains by bottom and tail
    from the covers of sd, through one set of tables (cellcx._chain_blocks)
    that they share.  Raises MatchingInvalid, naming the chain, if a toggle
    partner is not a chain or the critical chains are not the chains of
    products (collapse._product_chains); raises SizeGuard via the complex
    constructors.
    """
    if complexes is None:
        complexes = (hom_complex(H, max_cells=max_cells),
                     box_edge(H, max_cells=max_cells))
    hom, box = complexes
    sd = order_complex(box.cx, max_cells=max_cells)
    blocks = _chain_blocks(sd)
    action = _lift(box.action, sd, blocks)
    tags, mu_map = _classify(box, sd, ip_tables(box)[1], blocks)
    del blocks
    M = Matching(H, hom, box, sd, action, tags, mu_map)
    products = _product_chains(box, sd)
    if M.critical != products:
        k = min(set(M.critical).symmetric_difference(products))
        raise MatchingInvalid(
            "critical cells differ from chains of products at %r"
            % (_chain_payloads(box, sd, k),))
    return M
