"""The equivariant acyclic matching on sd B_edge(H) and its execution as a
certified sequence of whole-orbit collapses.

Run:  python3 demos/matching_and_collapse.py
"""

import json

import hombox as hb

H = hb.complete_multipartite([1, 2, 2])
print("graph: %r" % H)

M = hb.build_matching(H)
print("matching: %d chains, %d of them in D and %d critical"
      % (len(M.sd), len(M.d_cells()), len(M.critical)))
# verify proves the matching by its collapse into elementary S_3-collapses:
# mu equivariant, each pair free when it is taken, the critical cells left
run = M.verify()

# classification of a single chain, spelled out
x = M.sigma()[0]
chain = M.sd.payloads[x]
y = M.mu[x]
print()
print("a Sigma chain of length %d is matched with the chain of length %d"
      % (len(chain), len(M.sd.payloads[y])))
print("  chain ids  %s" % (chain,))
print("  mu(chain)  %s" % (M.sd.payloads[y],))
assert x in M.sd.down[y]

# the collapse, one certificate row per whole-orbit step
cert = run.certificate
print()
print("collapse: %d whole-orbit steps, %d cells moved (= |Sigma|+|mu(Sigma)|)"
      % (len(cert), run.cells_moved))
assert run.cells_moved == len(M.sigma()) + len(M.upper)

# the endpoint is the critical subcomplex, S_3-isomorphic to sd Hom(K_3^3, H)
iso = hb.verify_critical_isomorphism(M)
assert cert.endpoints[1] == iso.critical.fingerprint
print("endpoint: %d cells == critical subcomplex" % len(iso.critical))
print("sd Hom has %d chains; isomorphism onto the critical cells checked"
      % len(iso.map))

# the certificate is replayable JSON, one short row per step and the
# fingerprints of its two ends: replay regenerates each orbit from the
# action, re-verifies every step and checks the end
text = json.dumps(cert.to_json_obj())
back = hb.DeformationCertificate.from_json_obj(json.loads(text))
state = hb.replay_collapse_certificate(M.sd, M.action, back)
print("replayed %d steps from %d bytes of JSON; %d cells alive"
      % (len(back), len(text), state.n_alive))
print("first step [direction, sigma, facet]: %s"
      % json.dumps(back.to_json_obj()["runs"][0][0]))
assert state.alive_ids() == sorted(M.critical)

# tampering is detected: here the first step names another member of its
# orbit than the least
obj = back.to_json_obj()
step = obj["runs"][0][0]
step[1] = M.action.orbit(step[1])[-1]
try:
    hb.replay_collapse_certificate(
        M.sd, M.action, hb.DeformationCertificate.from_json_obj(obj))
except hb.VerificationError as e:
    print("tampered certificate rejected: %s" % e)
else:
    raise AssertionError("the tampered certificate replayed")
