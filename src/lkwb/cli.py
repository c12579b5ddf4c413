"""Command-line front end: deterministic orchestration and report emission.

Subcommands: relations, det, kernel, certify, scan, closure, commutant,
persist.  Exit status is a pure function of the verdict set: 0 when every
verdict matches its expectation, 1 on a mismatch (with the report still
emitted) or a typed error (no report), 2 on invalid configuration.  Every
random draw flows from the single --seed, so reruns reproduce reports
byte-identically.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import cache

from .errors import DivisionByZero, InvalidConfig, IoFailure, LKWBError
from .linalg import commutant_basis, kernel
from .lkrep import (
    build_rep,
    LKParams,
    symbolic_rep,
    verify_relations,
    convention_report,
)
from .reducibility import (
    CATALOG,
    PERSISTENT_LOCI,
    certify,
    det_on_locus,
    exceptional_layering,
    expected_spectrum,
    kernel_k,
    minimal_invariant,
    named_locus,
    pair_chains,
    persistent_vector_check,
    rep_at,
    scan,
)
from .scalars import (
    CYCLOTOMIC_MODULI,
    cyclotomic_field,
    field_of,
    is_rat,
    parse_rat,
    scalar_to_text,
)

_MODE_CHOICES = ("symbolic", "substituted", "sampled")


@cache
def build_parser():
    """The argument parser, built once per process: parse_args keeps no state in it."""
    top = argparse.ArgumentParser(prog="lkwb", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, needs_r=False, locus=False, mode=False, takes_l=True):
        p.add_argument("--n", type=int, required=True, help="strand count (>= 3)")
        if not mode:
            # det's --mode keeps r symbolic or samples it from --seed: no --r
            p.add_argument("--r", help="rational p/q or cyclotomic:<phi12|phi20|phi24>",
                           required=needs_r)
        if takes_l:
            # certify and scan take l from the catalog or draw it: no --l
            p.add_argument("--l", help="rational l value (custom locus)")
        if locus:
            p.add_argument("--locus", choices=("generic", *CATALOG, "custom"), default="generic")
        if mode:
            p.add_argument("--mode", choices=_MODE_CHOICES, default="substituted")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("relations", help="verify the defining relations (the gate)")
    p.add_argument("--symbolic", action="store_true", help="fully symbolic over Q(l,r)")
    p.add_argument("--convention", action="store_true",
                   help="include the parameter-dictionary echo in the report")
    p.add_argument("--export-matrices", metavar="DIR",
                   help="write the g_i and e_i matrices to DIR in matrix text format")
    common(p)

    p = sub.add_parser("det", help="determinant verdict for M(n) on a locus")
    common(p, locus=True, mode=True)

    p = sub.add_parser("kernel", help="kernel K(n) and its dimension at a point")
    common(p, needs_r=True, locus=True)

    p = sub.add_parser("certify", help="certify the full dimension table at a point")
    p.add_argument("--jobs", type=int, default=1, help="worker processes, one locus each")
    common(p, needs_r=True, takes_l=False)

    p = sub.add_parser("scan", help="sweep catalog loci plus random non-locus l values")
    common(p, needs_r=True, takes_l=False)

    p = sub.add_parser("closure", help="minimal invariant subspace from a kernel vector")
    common(p, needs_r=True, locus=True)

    p = sub.add_parser("commutant", help="commutant dimension at a point")
    common(p, needs_r=True, locus=True)

    p = sub.add_parser("persist", help="persistent kernel vector check (K(5) to higher n)")
    p.add_argument("--n-max", type=int, default=7)
    common(p, needs_r=True, locus=True)

    return top


def parse_r(spec):
    """Exact r values only: 'p/q' or 'cyclotomic:<name>' (no decimals)."""
    if spec is None:
        raise InvalidConfig("--r is required for this command")
    spec = spec.strip()
    if spec.startswith("cyclotomic:"):
        name = spec.split(":", 1)[1]
        if name not in CYCLOTOMIC_MODULI:
            raise InvalidConfig(f"unknown cyclotomic modulus {name!r}; known: {sorted(CYCLOTOMIC_MODULI)}")
        return cyclotomic_field(name).gen()
    if "." in spec:
        raise InvalidConfig("decimal r values are not accepted; use an exact rational p/q")
    try:
        return parse_rat(spec)
    except (ValueError, DivisionByZero) as exc:
        raise InvalidConfig(f"cannot parse --r: {exc}")


def parse_l(spec):
    if spec is None:
        return None
    if "." in spec:
        raise InvalidConfig("decimal l values are not accepted; use an exact rational p/q")
    try:
        return parse_rat(spec)
    except (ValueError, DivisionByZero) as exc:
        raise InvalidConfig(f"cannot parse --l: {exc}")


def _locus_from_args(args):
    name = getattr(args, "locus", "generic")
    if args.l is not None and name not in ("generic", "custom"):
        raise InvalidConfig(f"--locus {name} fixes l; --l is for --locus custom or generic")
    if name == "custom":
        l_val = parse_l(args.l)
        if l_val is None:
            raise InvalidConfig("--locus custom requires --l")
        return named_locus("custom", args.n, custom_l=l_val)
    try:
        return named_locus(name, args.n)
    except ValueError as exc:
        raise InvalidConfig(str(exc))


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def emit_report(obj, fmt, out=None):
    """Serialize a report dict deterministically; byte-identical per input."""
    if fmt == "json":
        payload = json.dumps(obj, indent=2) + "\n"
    elif fmt == "text":
        payload = "\n".join(_render_text(obj)) + "\n"
    else:
        raise InvalidConfig(f"unknown format {fmt!r}")
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(payload)
        except OSError as exc:
            raise IoFailure(f"cannot write {out}: {exc}")
    return payload


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _finish(args, obj, ok):
    obj = {"command": args.command, "seed": args.seed, **obj}
    payload = emit_report(obj, args.format, args.out)
    if args.out:
        status = "ok" if ok else "MISMATCH"
        print(f"{args.command}: {status}; report written to {args.out}")
    else:
        sys.stdout.write(payload)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_relations(args):
    if args.symbolic:
        if args.r is not None or args.l is not None:
            raise InvalidConfig("--symbolic keeps l and r symbolic; it takes no --r or --l")
        rep = symbolic_rep(args.n)
    else:
        r_val = parse_r(args.r)
        l_val = parse_l(args.l)
        if l_val is None:
            raise InvalidConfig("point mode requires --l (or pass --symbolic)")
        rep = build_rep(LKParams(args.n, l_val, r_val, field_of(r_val)))
    report = verify_relations(rep)
    obj = report.to_json_obj()
    if args.convention:
        obj["convention"] = convention_report(rep)
    if args.export_matrices:
        obj["exported"] = _export_matrices(rep, args.export_matrices)
    return _finish(args, obj, report.all_passed)


def _export_matrices(rep, directory):
    import os

    try:
        os.makedirs(directory, exist_ok=True)
        written = []
        for i, (g, e) in enumerate(zip(rep.g, rep.e), start=1):
            for prefix, mat in (("g", g), ("e", e)):
                path = os.path.join(directory, f"{prefix}{i}.mat")
                with open(path, "w") as fh:
                    fh.write(mat.to_text())
                written.append(path)
        return written
    except OSError as exc:
        raise IoFailure(f"cannot export matrices: {exc}")


def _cmd_det(args):
    locus = _locus_from_args(args)
    if locus.is_generic and args.l is not None:
        raise InvalidConfig("det at the generic locus keeps l symbolic or samples it; "
                            "--l is for --locus custom")
    rng = random.Random(args.seed) if args.mode == "sampled" else None
    verdict = det_on_locus(args.n, locus, args.mode, rng=rng)
    expected = "nonzero" if locus.is_generic or locus.is_custom else "identically_zero"
    ok = verdict.verdict == expected
    obj = verdict.to_json_obj()
    obj["expected"] = expected
    return _finish(args, obj, ok)


def _cmd_kernel(args):
    locus = _locus_from_args(args)
    r_val = parse_r(args.r)
    l_val = parse_l(args.l)
    if locus.is_generic and l_val is None:
        raise InvalidConfig("kernel at generic parameters requires --l")
    report = kernel_k(args.n, locus, r_val, l_val=l_val)
    expected = expected_spectrum(args.n, locus, r_val)
    obj = report.to_json_obj()
    if expected is None:
        ok = True
        obj["expected_k"] = None
    else:
        ok = report.k == expected["k"] and (report.k == 0 or report.invariant)
        obj["expected_k"] = expected["k"]
        obj["expected_k_source"] = expected["k_source"]
    return _finish(args, obj, ok)


def _cmd_certify(args):
    r_val = parse_r(args.r)
    report = certify(args.n, r_val, seed=args.seed, jobs=args.jobs)
    return _finish(args, report.to_json_obj(), report.all_match)


def _cmd_scan(args):
    r_val = parse_r(args.r)
    if not is_rat(r_val):
        raise InvalidConfig("scan works at rational r only")
    report = scan(args.n, r_val, random.Random(args.seed), seed=args.seed)
    return _finish(args, report.to_json_obj(), report.all_match)


def _cmd_closure(args):
    locus = _locus_from_args(args)
    if locus.is_generic:
        raise InvalidConfig("closure needs a reducibility locus (or custom l)")
    r_val = parse_r(args.r)
    rep = rep_at(args.n, locus, r_val)
    ker = kernel(pair_chains(rep).w)
    if ker.dim == 0:
        obj = {"n": args.n, "locus": locus.name, "k": 0, "closure_dim": None}
        return _finish(args, obj, False)
    closure = minimal_invariant(rep, ker.vectors[0])
    contained = ker.contains_space(closure)
    expected = expected_spectrum(args.n, locus, r_val)
    # at exceptional points the closure may be all of a layered K(n)
    ok = (expected is None or exceptional_layering(args.n, locus, r_val)
          or closure.dim == expected["min_dim"])
    obj = {
        "n": args.n,
        "locus": locus.name,
        "l": scalar_to_text(rep.params.l),
        "r": scalar_to_text(rep.params.r),
        "k": ker.dim,
        "closure_dim": closure.dim,
        "expected_dim": None if expected is None else expected["min_dim"],
        "contained_in_kernel": contained,
    }
    return _finish(args, obj, ok and contained)


def _cmd_commutant(args):
    locus = _locus_from_args(args)
    r_val = parse_r(args.r)
    l_val = parse_l(args.l)
    if locus.is_generic and l_val is None:
        raise InvalidConfig("commutant at generic parameters requires --l")
    rep = rep_at(args.n, locus if not locus.is_generic else None, r_val, l_val=l_val)
    gate = verify_relations(rep)
    # e_1 leaves the commutant of a gated rep as it is (commutant_basis)
    basis = commutant_basis([*rep.g, rep.e[0]] if gate.all_passed else list(rep.g))
    obj = {
        "n": args.n,
        "locus": locus.name,
        "l": scalar_to_text(rep.params.l),
        "r": scalar_to_text(rep.params.r),
        "gate_passed": gate.all_passed,
        "commutant_dim": len(basis),
    }
    return _finish(args, obj, gate.all_passed)


def _cmd_persist(args):
    if args.n != 5:
        raise InvalidConfig("persist starts from K(5) at n = 5; --n must be 5")
    locus = _locus_from_args(args)
    if locus.name not in PERSISTENT_LOCI:
        raise InvalidConfig("persist runs at --locus l=r or l=-r3")
    r_val = parse_r(args.r)
    if args.n_max < 6:
        raise InvalidConfig("--n-max must be at least 6")
    report = persistent_vector_check(locus, args.n_max, r_val)
    return _finish(args, report.to_json_obj(), report.verified)


_DISPATCH = {
    "relations": _cmd_relations,
    "det": _cmd_det,
    "kernel": _cmd_kernel,
    "certify": _cmd_certify,
    "scan": _cmd_scan,
    "closure": _cmd_closure,
    "commutant": _cmd_commutant,
    "persist": _cmd_persist,
}


def _join_negative_values(argv):
    """Rewrite '--r -3/2' as '--r=-3/2': argparse takes '-3/2' for a flag."""
    out = []
    for tok in argv:
        if out and out[-1] in ("--r", "--l") and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on bad flags, matching InvalidConfig
        return int(exc.code or 0)
    try:
        if args.n < 3:
            raise InvalidConfig("n must be >= 3")
        return _DISPATCH[args.command](args)
    except InvalidConfig as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    except LKWBError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
