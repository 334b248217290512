"""Layer tracing for the hombox benchmark, installed from outside the library.

`install(tracer)` rebinds the public functions of each hombox module to
timing wrappers.  A name is rebound in every hombox module namespace that
holds the original object, because callers import by name: `cellcx` calls
`order_complex` inside itself, `cli` imports `build_matching` and
`main_theorem_certificate` at load time, and `collapse` imports
`build_matching` at call time (so rebinding it in `morse` covers that path).
Methods are rebound on their class.

Each wrapped call records one span (name, start, end, parent span, run id).
A layer's self time is its span's duration minus the time its wrapped child
spans cover.  Counts are derived from return values, never from inside the
library.  Nothing under `src/` is modified.
"""

import json
import sys
from collections import defaultdict
from time import perf_counter

# Layers that are reported even when a workload never enters them, so every
# traced run prints the same metric set.
TIME_LAYERS = [
    "rgraph.load_s",
    "homcx.hom_complex_s",
    "boxcx.box_edge_s", "boxcx.ip_tables_s",
    "cellcx.order_complex_s", "cellcx.lift_action_s",
    "cellcx.group_action_s", "cellcx.complex_init_s", "cellcx.subcomplex_s",
    "morse.classify_s", "morse.verify_s",
    "collapse.critical_iso_s", "collapse.greedy_s",
    "collapse.replay_collapse_s",
    "collapse.sd_hom_s", "collapse.sd_box_s",
    "collapse.replay_sd_hom_s", "collapse.replay_sd_box_s",
    "collapse.assembly_s", "collapse.replay_main_s", "collapse.iso_check_s",
    "homology.agreement_s", "homology.betti_s",
    "cli.json_s",
]
COUNTS = [
    "homcx.cells", "boxcx.cells", "cellcx.sd_cells",
    "cellcx.group_actions", "cellcx.table_entries",
    "cellcx.complexes", "cellcx.cells_built", "cellcx.canon_memo_entries",
    "morse.chains", "morse.d_cells", "morse.critical", "morse.failures",
    "collapse.orbit_steps", "collapse.stellar_stages",
    "collapse.universe_cells", "collapse.sd_final_cells",
    "homology.cells",
]
STAGE_NAMES = [
    "subdivide-hom", "unfold-hom-subdivision", "products-into-sd-box",
    "expand-to-sd-box", "fold-box-subdivision", "desubdivide-box",
]
# A span with this layer charges its self time to the enclosing span's layer;
# it is wrapped only to count the work it returns.
INHERIT = None


class Tracer:
    """In-memory span recorder with per-layer self time and counts."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        # Seconds spent in the wrappers themselves, outside the wrapped call:
        # span bookkeeping and the count callbacks.
        self.wrapper_s = 0.0
        # Off while the benchmark checks outputs, so checks are not traced.
        self.enabled = True

    def wrap(self, layer, fn, count=None, fail=None):
        """Wrap fn so each call records a span under `layer`.

        `layer` is a name, INHERIT, or a function of the call's arguments
        returning a name.  `count(result, args, counts)` adds work counts;
        `fail(exc, counts)` counts a raised exception (which is re-raised).
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            enter = perf_counter()
            if callable(layer):
                name = layer(*args, **kwargs)
            elif layer is INHERIT:
                name = tracer.stack[-1][1]
            else:
                name = layer
            sid = len(tracer.spans)
            parent = tracer.stack[-1][0] if tracer.stack else None
            tracer.spans.append(None)
            frame = [sid, name, 0.0]
            tracer.stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if fail is not None:
                    fail(exc, tracer.counts)
                raise
            finally:
                end = perf_counter()
                tracer.stack.pop()
                dur = end - start
                tracer.self_s[name] += dur - frame[2]
                if tracer.stack:
                    tracer.stack[-1][2] += dur
                tracer.spans[sid] = (name, fn.__qualname__, start, end,
                                     parent, tracer.run_id)
            if count is not None:
                count(result, args, tracer.counts)
            tracer.wrapper_s += (start - enter) + (perf_counter() - end)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, fn, start, end, parent, run in self.spans:
                fh.write(json.dumps({"layer": name, "fn": fn, "start": start,
                                     "end": end, "parent": parent,
                                     "run": run}) + "\n")


def _rebind(original, wrapped):
    """Replace `original` by `wrapped` in every hombox module namespace."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "hombox"
                               or modname.startswith("hombox.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, wrapped)


class _JsonProxy:
    """Stands in for the `json` module inside `hombox.cli`, so the CLI's
    canonical dumps and certificate parse are timed as `cli.json_s`."""

    def __init__(self, tracer, module):
        self._module = module
        self.dumps = tracer.wrap("cli.json_s", module.dumps)
        self.load = tracer.wrap("cli.json_s", module.load)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _add(name, value_of):
    def count(result, args, counts):
        counts[name] += value_of(result, args)
    return count


def _both(*fns):
    def count(result, args, counts):
        for f in fns:
            f(result, args, counts)
    return count


def _is_box(K):
    # The box complex is simplicial (frozenset payloads); Hom is polytopal.
    return all(isinstance(p, frozenset) for p in K.payloads)


def install(tracer):
    """Wrap the public hombox functions and methods named by the benchmark's
    per-layer metrics.  Call after `import hombox`, before the timed job."""
    from hombox import (boxcx, cellcx, cli, collapse, homcx, homology, morse,
                        rgraph)
    from hombox.errors import MatchingInvalid

    w = tracer.wrap

    def fn(module, name, layer, count=None, fail=None):
        original = getattr(module, name)
        _rebind(original, w(layer, original, count, fail))

    def method(cls, name, layer, count=None):
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            setattr(cls, name, classmethod(w(layer, original.__func__, count)))
        else:
            setattr(cls, name, w(layer, original, count))

    for name in ("load_rgraph", "new_rgraph", "complete_rgraph"):
        fn(rgraph, name, "rgraph.load_s")
    fn(homcx, "hom_complex", "homcx.hom_complex_s",
       _add("homcx.cells", lambda r, a: len(r.cx)))
    fn(boxcx, "box_edge", "boxcx.box_edge_s",
       _add("boxcx.cells", lambda r, a: len(r.cx)))
    fn(boxcx, "ip_tables", "boxcx.ip_tables_s")

    fn(cellcx, "order_complex", "cellcx.order_complex_s",
       _add("cellcx.sd_cells", lambda r, a: len(r)))
    fn(cellcx, "lift_action_to_order_complex", "cellcx.lift_action_s")
    fn(cellcx, "verify_isomorphism", "collapse.iso_check_s")
    method(cellcx.GroupAction, "__init__", "cellcx.group_action_s",
           _both(_add("cellcx.group_actions", lambda r, a: 1),
                 _add("cellcx.table_entries",
                      lambda r, a: len(a[2]) ** 2 * len(a[1].payloads))))
    method(cellcx.CellComplex, "__init__", "cellcx.complex_init_s",
           _both(_add("cellcx.complexes", lambda r, a: 1),
                 _add("cellcx.cells_built", lambda r, a: len(a[0].payloads))))
    method(cellcx.CellComplex, "subcomplex", "cellcx.subcomplex_s")

    def matching_failed(exc, counts):
        counts["morse.failures"] += isinstance(exc, MatchingInvalid)

    fn(morse, "build_matching", "morse.classify_s",
       _both(_add("morse.chains", lambda r, a: len(r.sd)),
             _add("morse.d_cells", lambda r, a: len(r.d_cells())),
             _add("morse.critical", lambda r, a: len(r.critical))),
       fail=matching_failed)
    method(morse.Matching, "verify", "morse.verify_s")

    fn(collapse, "verify_critical_isomorphism", "collapse.critical_iso_s")
    fn(collapse, "matching_to_collapse", "collapse.greedy_s",
       _add("collapse.orbit_steps", lambda r, a: len(r.certificate)))
    fn(collapse, "replay_collapse_certificate", "collapse.replay_collapse_s")
    fn(collapse, "sd_deformation",
       lambda K, *a, **k: ("collapse.sd_box_s" if _is_box(K)
                           else "collapse.sd_hom_s"),
       _add("collapse.sd_final_cells", lambda r, a: len(r.final)))
    fn(collapse, "replay_sd_deformation",
       lambda K, *a, **k: ("collapse.replay_sd_box_s" if _is_box(K)
                           else "collapse.replay_sd_hom_s"),
       _add("collapse.sd_final_cells", lambda r, a: len(r[0])))
    # One cone universe per stellar stage, in build and in replay alike.
    fn(collapse, "_cone_universe", INHERIT,
       _both(_add("collapse.stellar_stages", lambda r, a: 1),
             _add("collapse.universe_cells", lambda r, a: len(r[0]))))
    fn(collapse, "verify_iso_ids", "collapse.iso_check_s")
    fn(collapse, "main_theorem_certificate", "collapse.assembly_s")
    fn(collapse, "replay_main_theorem", "collapse.replay_main_s")
    method(collapse.MainTheoremCertificate, "from_json_obj", "cli.json_s")

    fn(homology, "homology_agreement", "homology.agreement_s")
    fn(homology, "betti", "homology.betti_s",
       _add("homology.cells", lambda r, a: len(a[0].payloads)))

    cli.json = _JsonProxy(tracer, cli.json)


def layer_metrics(tracer, wall_s):
    """Per-layer self times and counts for one traced job of `wall_s`
    seconds, plus the layer sum and the unwrapped remainder `other`."""
    from hombox import cellcx

    out = {name: tracer.self_s.get(name, 0.0) for name in TIME_LAYERS}
    unknown = set(tracer.self_s) - set(TIME_LAYERS)
    if unknown:
        raise RuntimeError("spans outside the known layers: %s"
                           % sorted(unknown))
    out["trace.layers_s"] = sum(out.values())
    out["trace.other_s"] = wall_s - out["trace.layers_s"]
    out["trace.wrapper_s"] = tracer.wrapper_s
    counts = {name: tracer.counts.get(name, 0) for name in COUNTS}
    counts["cellcx.canon_memo_entries"] = len(
        getattr(cellcx, "_canon_memo", ()))
    return out, counts
