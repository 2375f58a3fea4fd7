#!/usr/bin/env python3
"""Walk one central conic through the whole pipeline, printing each stage:
build, dual, center, degree-1 certificates, C(A), classification, geometry."""

from ncconic.cmap import compute_C, delta, dual_of
from ncconic.elements import center_degree, find_normal_degree1
from ncconic.findim import classify, is_frobenius
from ncconic.freealg import Ambient
from ncconic.galgebra import Presentation, build
from ncconic.geometry import k_matrix, minors_ideal, sigma_at, solve_projective
from ncconic.presfile import parse_poly, print_poly
from ncconic.scalars import QQ

TEXTS = ["y*z + z*y", "z*x + x*z", "x*y + y*x", "x^2 + y^2 + z^2"]


def main():
    amb = Ambient(("x", "y", "z"), QQ)
    rels = [parse_poly(t, amb) for t in TEXTS]
    print("conic:", ", ".join(print_poly(r) for r in rels))

    A = build(Presentation(amb, rels, "demo"), 6)
    print("H_A prefix:", A.dims)

    S = build(Presentation(amb, rels[:-1]), 4)
    print("Z(S)_2 basis:", [print_poly(p) for p in center_degree(S, 2)])

    dual = dual_of(A)
    print("H_A! prefix:", dual.dims)
    print("dual relations:", ", ".join(print_poly(r) for r in dual.presentation.relations))

    search = find_normal_degree1(dual)
    for c in search.certificates:
        kind = "central" if c.central else "normal"
        print(f"  degree-1 {kind} element {print_poly(c.w)}: regular = {c.regular}")

    res = compute_C(A, split=(Presentation(amb, rels[:-1]), rels[-1]), search=search)
    frob = is_frobenius(res.algebra)
    print(f"C(A) via {res.path}: dim {res.algebra.dim}, frobenius = {frob}")
    print("class:", classify(res.algebra))

    d = delta(A)
    print("Delta(A) basis:", d.algebra.labels, "-> class", classify(d.algebra))

    M = minors_ideal(k_matrix(rels))
    res = solve_projective(M)
    print(f"point scheme: {len(res.solutions)} points (complete over Q: {res.complete})")
    for p in res.solutions:
        q = sigma_at(rels, p)
        print("  sigma:", ":".join(str(c) for c in p), "->", ":".join(str(c) for c in q))


if __name__ == "__main__":
    main()
