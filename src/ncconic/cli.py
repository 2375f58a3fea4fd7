"""Command-line front end.

Subcommands operate on presentation files (see presfile).  Conventions:
rel: lines give the graded relations (for conic commands the LAST rel is the
extra conic relation, the others present the ambient quantum plane); elem:
lines carry sequence entries or designated elements.  Exit codes: 2 when the
command refuses its input, which is a UsageError (parse errors included); 1
for a failed check or a mathematical outcome (verify: any FAIL or ERROR
line); 0 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import dataset
from .elements import (
    center_degree,
    find_normal_degree1,
    normalize_check,
    regularity_check,
)
from .findim import FiniteAlgebra, classify, from_presentation, is_frobenius
from .freealg import NcPoly, UsageError, _format_word
from .galgebra import GradedAlgebra, Presentation, build
from .geometry import (
    check_quadratic,
    k_matrix,
    minors_ideal,
    sigma_at,
    solve_projective,
)
from .homog import (
    RelationSequence,
    dehomogenize_algebra,
    homogenize_presentation,
)
from .cmap import compute_C, delta, nabla
from .presfile import (
    PresSyntaxError,
    PresentationFile,
    parse,
    parse_poly,
    print_poly,
    print_presentation,
)
from .quadratic import quadratic_dual


class CheckFailure(Exception):
    pass


def _at_least(low: int, what: str, text: str) -> int:
    """text as an integer >= low, or a UsageError, which argparse passes through."""
    try:
        d = int(text)
    except ValueError:
        d = None
    if d is None or d < low:
        raise UsageError(f"{what} must be an integer >= {low} (got {text!r})")
    return d


_truncation = functools.partial(_at_least, 2, "truncation degree")  # --max-deg, NCCONIC_MAX_DEG
_degree = functools.partial(_at_least, 0, "degree")  # --deg


def _load(path: str) -> PresentationFile:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeError) as e:
        raise UsageError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from None
    return parse(text)


def _load_quadratic(path: str) -> PresentationFile:
    """A presentation file whose relations are all homogeneous quadratic."""
    pf = _load(path)
    check_quadratic(pf.relations)
    return pf


def _build(pf: PresentationFile, D: int) -> GradedAlgebra:
    return build(Presentation(pf.ambient, pf.relations, pf.label), D)


def _split(pf: PresentationFile) -> tuple[Presentation, NcPoly]:
    if len(pf.relations) < 2:
        raise CheckFailure("need ambient relations plus one conic relation")
    return Presentation(pf.ambient, pf.relations[:-1], pf.label), pf.relations[-1]


def _print_finite(A: FiniteAlgebra, out):
    out.write(f"dim {A.dim}\n")
    out.write("basis " + ", ".join(A.labels) + "\n")
    out.write("unit " + ", ".join(str(c) for c in A.unit) + "\n")
    for a in range(A.dim):
        for b in range(A.dim):
            coeffs = ", ".join(str(c) for c in A.table[a][b])
            out.write(f"({A.labels[a]})*({A.labels[b]}) = [{coeffs}]\n")


def cmd_hilbert(args, out) -> int:
    A = _build(_load(args.file), args.max_deg)
    out.write(",".join(str(d) for d in A.dims[: args.max_deg + 1]) + "\n")
    return 0


def cmd_basis(args, out) -> int:
    A = _build(_load(args.file), max(args.deg, 2))
    words = A.basis(args.deg)
    out.write("\n".join(_format_word(A.ambient, w) for w in words) + "\n")
    return 0


def cmd_dual(args, out) -> int:
    pf = _load_quadratic(args.file)
    d = quadratic_dual(Presentation(pf.ambient, pf.relations, pf.label))
    out.write(print_presentation(PresentationFile(pf.spec, pf.ambient, d.relations)))
    return 0


def cmd_center(args, out) -> int:
    A = _build(_load(args.file), max(args.deg + 1, 2))
    basis = center_degree(A, args.deg)
    if not basis:
        out.write("0\n")
    for p in basis:
        out.write(print_poly(p) + "\n")
    return 0


def cmd_normal1(args, out) -> int:
    pf = _load_quadratic(args.file)
    if pf.ambient.n != 3:
        raise UsageError(f"normal1 needs exactly 3 generators (got {pf.ambient.n})")
    res = find_normal_degree1(_build(pf, args.max_deg))
    out.write(f"complete: {'yes' if res.complete else 'no'}\n")
    if res.residue:
        out.write(f"residue: {res.residue}\n")
    for c in res.certificates:
        kind = "central" if c.central else "normal"
        out.write(f"{print_poly(c.w)}  [{kind}, regular={c.regular}]\n")
    return 0


def cmd_homogenize(args, out) -> int:
    pf = _load(args.file)
    S = Presentation(pf.ambient, pf.relations, pf.label)
    F = RelationSequence(pf.ambient, pf.elems)
    H = homogenize_presentation(S, F)
    out.write(print_presentation(PresentationFile(pf.spec, H.ambient, H.relations)))
    return 0


def cmd_dehomogenize(args, out) -> int:
    pf = _load(args.file)
    A = _build(pf, args.max_deg)
    w = parse_poly(args.elem, pf.ambient)
    cert = normalize_check(A, w)
    if cert is None:
        raise CheckFailure(f"{args.elem} is not normal")
    cert = regularity_check(A, cert)
    if cert.regular != "yes":
        raise CheckFailure(f"{args.elem} not certified regular: {cert.regular}")
    _print_finite(dehomogenize_algebra(A, cert), out)
    return 0


def cmd_cmap(args, out) -> int:
    pf = _load_quadratic(args.file)
    A = _build(pf, args.max_deg)
    S, f = _split(pf)
    res = compute_C(A, split=(S, f))
    _print_finite(res.algebra, out)
    out.write(f"path: {res.path}\n")
    out.write(f"class: {classify(res.algebra)}\n")
    return 0


def cmd_classify(args, out) -> int:
    pf = _load(args.file)
    A = from_presentation(pf.ambient, pf.relations)
    out.write(f"dim {A.dim}\n")
    out.write(f"frobenius: {'yes' if is_frobenius(A) else 'no'}\n")
    out.write(f"class: {classify(A)}\n")
    return 0


def cmd_nabla(args, out) -> int:
    pf = _load(args.file)
    if not pf.elems:
        raise UsageError("nabla needs at least one elem: line (got none)")
    S = build(Presentation(pf.ambient, pf.relations, pf.label), args.max_deg)
    F = RelationSequence(pf.ambient, pf.elems)
    conic = nabla(S, F, args.max_deg)
    out.write(
        print_presentation(PresentationFile(pf.spec, conic.ambient, conic.presentation.relations))
    )
    return 0


def cmd_delta(args, out) -> int:
    pf = _load(args.file)
    if pf.ambient.n != 3:
        raise UsageError(f"delta needs exactly 3 generators (got {pf.ambient.n})")
    A = _build(pf, args.max_deg)
    res = delta(A)
    _print_finite(res.algebra, out)
    out.write(f"element: {print_poly(res.certificate.w)}\n")
    out.write(f"class: {classify(res.algebra)}\n")
    return 0


def cmd_pointscheme(args, out) -> int:
    pf = _load_quadratic(args.file)
    if pf.ambient.n != 3:
        raise UsageError(f"pointscheme needs exactly 3 generators (got {pf.ambient.n})")
    if len(pf.relations) < 3:
        raise UsageError(f"pointscheme needs at least 3 relations (got {len(pf.relations)})")
    M = minors_ideal(k_matrix(pf.relations))
    names = list(pf.ambient.names)
    for m in M:
        out.write("minor: " + m.format(names) + "\n")
    res = solve_projective(M)
    complete = "yes" if res.complete else "no"
    out.write(f"points: {len(res.solutions)} (complete over field: {complete})\n")
    if res.residue:
        out.write(f"residue: {res.residue}\n")
    for p in res.solutions:
        q = sigma_at(pf.relations, p)
        ps = ":".join(str(c) for c in p)
        qs = ":".join(str(c) for c in q) if q else "indeterminate"
        out.write(f"({ps}) -> ({qs})\n")
    return 0


def cmd_verify(args, out) -> int:
    report = dataset.verify(table=args.table, row=args.row, out=out)
    return 0 if report.ok else 1


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ncconic", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **extra):
        sp = sub.add_parser(name)
        sp.add_argument("file")
        # None: main reads NCCONIC_MAX_DEG on every call
        sp.add_argument("--max-deg", type=_truncation, default=None)
        for k, v in extra.items():
            sp.add_argument(k, **v)
        # by name: the parser is built once, and a wrapper installed on this
        # module after that (a tracer, a test) must be the one that runs
        sp.set_defaults(fn=fn.__name__)
        return sp

    add("hilbert", cmd_hilbert)
    add("basis", cmd_basis, **{"--deg": {"type": _degree, "required": True}})
    add("dual", cmd_dual)
    add("center", cmd_center, **{"--deg": {"type": _degree, "required": True}})
    add("normal1", cmd_normal1)
    add("homogenize", cmd_homogenize)
    add("dehomogenize", cmd_dehomogenize, **{"--elem": {"required": True}})
    add("cmap", cmd_cmap)
    add("classify", cmd_classify)
    add("nabla", cmd_nabla)
    add("delta", cmd_delta)
    add("pointscheme", cmd_pointscheme)
    sp = sub.add_parser("verify")
    sp.add_argument("--table", default=None)
    sp.add_argument("--row", default=None)
    sp.set_defaults(fn=cmd_verify.__name__)
    return p


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    try:
        if "max_deg" in args and args.max_deg is None:
            args.max_deg = _truncation(os.environ.get("NCCONIC_MAX_DEG") or "6")
        return globals()[args.fn](args, out)
    except PresSyntaxError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except CheckFailure as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def entry():
    raise SystemExit(main())
