"""Command-line front end.

Commands: check, invariants, transform, construct, export, iso.
Exit codes are a stable contract: 0 success/valid, 1 semantic failure or
a broken stdout pipe, 2 malformed input.  All verdict output on stdout is
byte-identical across runs on identical input; timing goes to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

from . import constructions, files, geometric, toric, tutte
from .errors import DEFAULT_ATOM_CAP, AxiomViolation, MalformedInput, MschemeError
from .poset import find_isomorphism
from .scheme import (
    bases,
    circuits,
    contract,
    delete,
    flats,
    independence,
    is_simple,
    isthmuses,
    loops,
    restrict,
    scheme_isomorphism,
    scheme_rank,
)


def _echo(args: argparse.Namespace) -> str:
    return f"command: {args.command} " + " ".join(
        f"{k}={v}" for k, v in sorted(vars(args).items())
        if k not in ("command", "func") and v is not None)


def cmd_check(args) -> int:
    path = files.resolve_input(args.path)
    print(_echo(args))
    try:
        if args.kind == "scheme":
            m = files.load_scheme(path)
            print(f"verdict: valid scheme ({len(m.elements)} elements, "
                  f"rank {scheme_rank(m)})")
        elif args.kind == "geometric":
            rp = files.load_ranked_poset(path)
            gp = geometric.validate_geometric(rp, atom_cap=args.cap_atoms)
            print(f"verdict: geometric poset ({len(gp.elements)} elements)")
        else:
            sm = files.load_semimatroid(path)
            print(f"verdict: valid semimatroid ({len(sm.faces)} faces, "
                  f"rank {sm.max_rank()})")
        return 0
    except AxiomViolation as exc:
        print(f"verdict: violation of {exc.axiom}")
        print(f"witness: {_fmt_witness(exc.witness)}")
        return 1


def _fmt_witness(witness) -> str:
    if isinstance(witness, tuple):
        return "(" + ", ".join(_fmt_witness(w) for w in witness) + ")"
    if isinstance(witness, frozenset):
        return "{" + ", ".join(sorted(map(str, witness))) + "}"
    return str(witness)


def cmd_invariants(args) -> int:
    m = files.load_scheme(files.resolve_input(args.path))
    print(_echo(args))
    lps = sorted(loops(m), key=m.poset.idx)
    iths = sorted(isthmuses(m), key=m.poset.idx)
    t_direct = tutte.tutte_direct(m)
    t_delcon = tutte.tutte_delcon(m)
    if t_direct != t_delcon:  # pragma: no cover - equality is a theorem
        print("verdict: INTERNAL DISAGREEMENT between Tutte algorithms")
        return 1
    print(f"rank: {scheme_rank(m)}")
    print(f"elements: {len(m.elements)}")
    print(f"flats: {len(flats(m).elements)}")
    print(f"bases: {len(bases(m))}")
    print(f"circuits: {len(circuits(m))}")
    print(f"independent: {len(independence(m))}")
    print(f"loops: [{', '.join(lps)}]")
    print(f"isthmuses: [{', '.join(iths)}]")
    print(f"simple: {'yes' if is_simple(m) else 'no'}")
    print(f"tutte: {t_direct}")
    if lps:
        print("characteristic: undefined (scheme has loops)")
    else:
        print(f"characteristic: {tutte.charpoly_identity(m)}")
    return 0


def cmd_transform(args) -> int:
    m = files.load_scheme(files.resolve_input(args.path))
    print(_echo(args))
    try:
        if args.op == "delete":
            out = delete(m, _required(args.atom, "--atom"))
        elif args.op == "contract":
            out = contract(m, _required(args.element, "--element"))
        elif args.op == "restrict":
            atoms = _required(args.atoms, "--atoms").split(",")
            out = restrict(m, atoms)
        else:
            out = geometric.simplification(m, args.cap_atoms)
    except MalformedInput:
        raise
    except MschemeError as exc:
        print(f"verdict: {exc}")
        return 1
    dest = args.out or f"transformed_{args.op}.json"
    files.dump_doc(files.scheme_to_doc(out), dest)
    print(f"result: {len(out.elements)} elements, rank {scheme_rank(out)}")
    print(f"wrote: {dest}")
    return 0


def _required(value, flag):
    if value is None:
        raise MalformedInput(f"missing required option {flag}")
    return value


def cmd_construct(args) -> int:
    print(_echo(args))
    arity = {"uniform": 2, "linear": 1, "toric": 1}.get(args.kind, 0)
    if len(args.args) != arity or (args.kind == "uniform" and not all(
            a.removeprefix("-").isdecimal() for a in args.args)):
        raise MalformedInput(f"construct {args.kind}: bad arguments {args.args}")
    poset_doc = None
    if args.kind == "uniform":
        r, n = int(args.args[0]), int(args.args[1])
        out = constructions.scheme_from_matroid(constructions.uniform_matroid(r, n))
        default = f"constructed_uniform_{r}_{n}.json"
    elif args.kind == "linear":
        matrix, names = files.load_matrix(files.resolve_input(args.args[0]))
        out = constructions.scheme_from_matroid(constructions.linear_matroid(matrix, names))
        default = f"constructed_{_stem(args.args[0])}.json"
    elif args.kind == "dowling":
        n = _required(args.n, "-n")
        if not n.isdecimal():
            raise MalformedInput(f"construct dowling: -n must be a ground size, not {n!r}")
        gp, out = constructions.dowling_poset(int(n), _load_action(args),
                                              atom_cap=args.cap_atoms)
        print(f"geometric certificate: {len(gp.elements)} elements, "
              f"{len(gp.atoms())} atoms, rank {gp.max_rank()}")
        poset_doc = files.ranked_poset_to_doc(gp)
        default = f"constructed_dowling_{args.n}.json"
    elif args.kind == "quotient":
        sm = files.load_semimatroid(
            files.resolve_input(_required(args.semimatroid, "--semimatroid")))
        result = constructions.quotient_scheme(sm, _load_action(args))
        out = result.scheme
        print(f"quotient tutte: {result.tutte_action}")
        default = f"constructed_quotient_{_stem(args.semimatroid)}.json"
    else:  # toric
        arr = files.load_arrangement(files.resolve_input(args.args[0]))
        result = toric.layers_poset(arr, atom_cap=args.cap_atoms)
        out = result.scheme
        print(f"geometric certificate: {len(result.geometric.elements)} layers, "
              f"{len(result.geometric.atoms())} atoms, "
              f"rank {result.geometric.max_rank()}")
        poset_doc = files.ranked_poset_to_doc(result.geometric)
        default = f"constructed_{_stem(args.args[0])}.json"
    dest = args.out or default
    files.dump_doc(files.scheme_to_doc(out), dest)
    print(f"result: {len(out.elements)} elements, rank {scheme_rank(out)}")
    print(f"wrote: {dest}")
    if poset_doc is not None:
        poset_dest = dest.removesuffix(".json") + ".poset.json"
        files.dump_doc(poset_doc, poset_dest)
        print(f"wrote: {poset_dest}")
    return 0


def _load_action(args):
    """The --action file, over the --group file when one is given."""
    group = files.load_group(files.resolve_input(args.group)) if args.group else None
    return files.load_action(files.resolve_input(_required(args.action, "--action")), group)


def _stem(path: str) -> str:
    from pathlib import Path
    return Path(path).stem


def cmd_export(args) -> int:
    """A scheme's Hasse diagram with its labels, else the poset's with its
    ranks; the file is read once."""
    path = files.resolve_input(args.path)
    rp, rho = files.read_poset(path)
    try:
        m = files.as_scheme(rp, rho)
        text = files.to_dot(m.s, m.rhos)
    except MschemeError:
        text = files.to_dot(rp, files.as_ranked_poset(rp, rho, path).ranks)
    if args.out:
        files.write_text(text, args.out)
        print(f"wrote: {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _read(*paths):
    """Each scheme or poset file read once, in order, when the caller gets
    to it: (ranked poset, rho labels by id, resolved path)."""
    for path in map(files.resolve_input, paths):
        yield (*files.read_poset(path), path)


def cmd_iso(args) -> int:
    """Two schemes are compared as schemes; otherwise both files as ranked
    posets, each one's rho checked, in order, to be its graded rank.  Each
    file is read once, the second only after the first is decided, so a
    fault in reading a file is reported as its own."""
    print(_echo(args))
    reads = _read(args.path1, args.path2)
    read, schemes = [], []
    for rp, rho, path in reads:
        read.append((rp, rho, path))
        try:
            schemes.append(files.as_scheme(rp, rho))
        except MschemeError:
            break
    if len(schemes) == 2:
        phi = scheme_isomorphism(*schemes)
    else:  # the second file is read here if the first is no scheme
        phi = find_isomorphism(*(files.as_ranked_poset(*r)
                                 for r in itertools.chain(read, reads)))
    if phi is None:
        print("verdict: not isomorphic")
        return 1
    print("verdict: isomorphic")
    for k in phi:
        print(f"  {k} -> {phi[k]}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mscheme",
        description="Exact engine for matroid schemes, geometric posets, "
                    "and toric arrangements.")
    parser.add_argument("--cap-atoms", type=int, default=DEFAULT_ATOM_CAP,
                        help="atom cap for the exhaustive geometric sweep")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a scheme/geometric/semimatroid file")
    p.add_argument("kind", choices=["scheme", "geometric", "semimatroid"])
    p.add_argument("path")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("invariants", help="print rank, flats, Tutte, and more")
    p.add_argument("path")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("transform", help="delete/contract/restrict/simplify")
    p.add_argument("op", choices=["delete", "contract", "restrict", "simplify"])
    p.add_argument("path")
    p.add_argument("--atom", help="atom for delete")
    p.add_argument("--element", help="element for contract")
    p.add_argument("--atoms", help="comma-separated atoms for restrict")
    p.add_argument("--out", help="output scheme file")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("construct", help="build a scheme from a construction")
    p.add_argument("kind", choices=["uniform", "linear", "dowling", "quotient",
                                    "toric"])
    p.add_argument("args", nargs="*",
                   help="uniform: R N; linear: matrix file; toric: arrangement file")
    p.add_argument("-n", help="ground size for dowling")
    p.add_argument("--group", help="group file")
    p.add_argument("--action", help="action file")
    p.add_argument("--semimatroid", help="semimatroid file for quotient")
    p.add_argument("--out", help="output scheme file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("export", help="export a Hasse diagram")
    p.add_argument("format", choices=["dot"])
    p.add_argument("path")
    p.add_argument("--out", help="output file (stdout when omitted)")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("iso", help="search for an isomorphism between two files")
    p.add_argument("path1")
    p.add_argument("path2")
    p.set_defaults(func=cmd_iso)
    return parser


def _run(args: argparse.Namespace) -> int:
    try:
        if args.cap_atoms < 0:
            raise MalformedInput(f"--cap-atoms must be at least 0, not {args.cap_atoms}")
        return args.func(args)
    except MalformedInput as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except MschemeError as exc:
        print(f"error: {exc}")
        return 1


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone: what is still buffered goes to
        # devnull, so the flush at interpreter exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 1
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
