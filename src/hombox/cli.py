"""Command-line surface: build complexes, verify the chain matching, and
certify the simple-equivariant-homotopy theorem.

Exit codes: 0 success, 2 verification failure, 3 size guard exceeded,
4 input error (bad arguments, unreadable input, malformed JSON).
JSON outputs are canonical (sorted keys, compact separators, trailing
newline), so identical inputs produce byte-identical files.
"""

import argparse
import contextlib
import json
import os
import sys

from .boxcx import _box_cx, box_edge
from .cellcx import order_complex
from .collapse import (DeformationCertificate, MainTheoremCertificate,
                       main_theorem_certificate, matching_to_collapse,
                       replay_critical_expansion, replay_main_theorem,
                       verify_critical_isomorphism)
from .errors import InputError, SizeGuard, VerificationError
from .homcx import _hom_cx, hom_complex
from .homology import homology_agreement
from .morse import build_matching
from .rgraph import load_rgraph

DEFAULT_MAX_CELLS = 1_000_000


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _say(line):
    """Print a progress line.  When the reader of standard output has gone
    (a pipe into `grep -q`), the command goes on: it still writes its files
    and returns its own exit code, and its output goes to the null
    device."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        # Point the stream at the null device, so that writing out what it
        # still holds, at the latest when the interpreter exits, succeeds.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            with contextlib.suppress(AttributeError, OSError, ValueError):
                os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems by raising InputError (exit 4)."""

    def error(self, message):
        raise InputError(message)


def _add_common(p):
    p.add_argument("--input", required=True, metavar="PATH",
                   help="path to r-graph JSON")
    p.add_argument("--max-cells", type=int, default=DEFAULT_MAX_CELLS,
                   metavar="N", help="size guard (default %(default)s)")
    p.add_argument("--out", metavar="PATH", help="write the JSON report here")


def make_parser():
    p = _Parser(prog="hombox", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", metavar="command", required=True)

    b = sub.add_parser("build", help="build a complex and dump its cells")
    _add_common(b)
    b.add_argument("--complex", dest="complex_kind", default="box",
                   choices=["box", "hom", "sd-box", "sd-hom"],
                   help="which complex to build (default box)")
    b.add_argument("--dot", metavar="PATH",
                   help="write a DOT Hasse diagram of the face poset")

    v = sub.add_parser(
        "verify", help="build and verify the equivariant acyclic matching")
    _add_common(v)
    v.add_argument("--certificate", metavar="PATH",
                   help="collapse certificate of the matching: replayed if "
                        "present, written otherwise")

    t = sub.add_parser(
        "theorem",
        help="certify simple equivariant homotopy equivalence of box and Hom")
    _add_common(t)
    t.add_argument("--coeff", choices=["z", "z2"], default="z",
                   help="homology coefficients (default z)")
    t.add_argument("--certificate", metavar="PATH",
                   help="theorem certificate: replayed if present, "
                        "written otherwise")
    return p


def _write(path, text):
    """Write text to path through a temporary file beside the file path
    names, renamed onto it, so that a failed write leaves it as it was.  A
    symlink is followed, not replaced; an existing target that is not a
    regular file (a pipe, a device) is written in place."""
    tmp = None
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w") as fh:
                fh.write(text)
            return
        real = os.path.realpath(path)
        with open("%s.%d.tmp" % (real, os.getpid()), "x") as fh:
            tmp = fh.name
            fh.write(text)
        os.replace(tmp, real)
    except OSError as e:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise InputError("cannot write %s: %s" % (path, e))


def _read(path, what):
    """The JSON in the certificate file path; InputError if it cannot be
    read as text or parsed (JSON nested too deeply for the parser included)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as e:
        raise InputError("cannot read %s certificate %s: %s" % (what, path, e))


def _load(args):
    if args.max_cells < 1:
        raise InputError("--max-cells must be at least 1")
    return load_rgraph(args.input)


def cmd_build(args):
    H = _load(args)
    mc = args.max_cells
    kind = args.complex_kind
    build = _box_cx if kind in ("box", "sd-box") else _hom_cx
    cx = build(H, mc)
    if kind.startswith("sd-"):
        cx = order_complex(cx, max_cells=mc)
    _say("%s: %d cells" % (kind, len(cx)))
    for d, n in enumerate(cx.dim_counts()):
        _say("  dim %d: %d" % (d, n))
    if args.out:
        _write(args.out, canonical_json(cx.to_json_obj()))
    if args.dot:
        _write(args.dot, cx.to_dot())
    return 0


def cmd_verify(args):
    H = _load(args)
    mc = args.max_cells
    path = args.certificate
    replay = path and os.path.exists(path)
    if replay:
        obj = _read(path, "matching")
        if isinstance(obj, dict) and ("sigma" in obj or "critical" in obj):
            raise InputError("%s is a chain listing, which is no longer "
                             "checked: write it again with `hombox verify "
                             "--certificate`" % path)
        runs = obj.get("runs") if isinstance(obj, dict) else None
        if (isinstance(runs, list) and runs and isinstance(runs[0], list)
                and runs[0] and not isinstance(runs[0][0], list)):
            # a run of format 5 starts with its universe and its end
            raise InputError("%s is a matching certificate of format "
                             "version 5, which is no longer replayed: write "
                             "it again with `hombox verify --certificate`"
                             % path)
        crit, action = replay_critical_expansion(
            hom_complex(H, max_cells=mc), box_edge(H, max_cells=mc),
            DeformationCertificate.from_json_obj(obj), mc)
        cells, critical = len(action.cx), len(crit.critical)
    else:
        M = build_matching(H, max_cells=mc)
        verify_critical_isomorphism(M, max_cells=mc)
        # the collapse proves the matching acyclic; --certificate writes it
        run = matching_to_collapse(M.sd, M.action, M)
        cells, critical = len(M.sd), len(M.critical)
    # A verified collapse removes the cells of D in facet pairs.
    d_cells = cells - critical
    report = {"cells": cells, "d_cells": d_cells, "sigma": d_cells // 2,
              "critical": critical, "isomorphic_onto_critical": True}
    if not d_cells:
        _say("D empty; complexes isomorphic")
    else:
        _say("%(cells)d chains; D %(d_cells)d = sigma %(sigma)d + upper "
             "%(sigma)d; critical %(critical)d" % report)
    if replay:
        _say("matching certificate %s verified" % path)
    elif path:
        _write(path, canonical_json(run.certificate.reversed().to_json_obj()))
        _say("matching certificate written to %s" % path)
    if args.out:
        _write(args.out, canonical_json(report))
    return 0


def cmd_theorem(args):
    H = _load(args)
    mc = args.max_cells
    path = args.certificate
    if path and os.path.exists(path):
        cert = MainTheoremCertificate.from_json_obj(_read(path, "theorem"))
        complexes = replay_main_theorem(H, cert, max_cells=mc)
        _say("theorem certificate %s replayed: %d stages ok"
             % (path, len(cert.stages)))
    else:
        cert = main_theorem_certificate(H, max_cells=mc)
        complexes = (cert.hom, cert.box)
        _say("theorem certificate built: %d stages" % len(cert.stages))
        if path:
            _write(path, canonical_json(cert.to_json_obj()))
            _say("theorem certificate written to %s" % path)
    agree = homology_agreement(H, coeff=args.coeff, max_cells=mc,
                               complexes=complexes)
    if not agree.agree:
        raise VerificationError(
            "homology disagrees: box %r vs hom %r"
            % (agree.box_report, agree.hom_report))
    _say("homology agrees: betti %s torsion %s"
         % (agree.box_report["betti"], agree.box_report["torsion"]))
    if args.out:
        report = {
            "agree": True,
            "betti": agree.box_report["betti"],
            "torsion": agree.box_report["torsion"],
            "endpoints": ["%032x" % f for f in cert.endpoints],
        }
        _write(args.out, canonical_json(report))
    return 0


def main(argv=None):
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "build":
            return cmd_build(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_theorem(args)
    except SizeGuard as e:
        print("size guard: %s" % e, file=sys.stderr)
        return 3
    except VerificationError as e:
        print("verification failed: %s" % e, file=sys.stderr)
        return 2
    except InputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
