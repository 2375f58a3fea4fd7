import pytest

from ncconic import dataset, galgebra
from ncconic.elements import center_degree
from ncconic.freealg import Ambient, NcPoly
from ncconic.galgebra import Presentation, build, hilbert_drop, quotient
from ncconic.homog import InconclusiveTruncation, is_regular_normal_sequence
from ncconic.quadratic import quadratic_dual
from ncconic.scalars import QQ, Scalar

AMB = Ambient(("x", "y", "z"), QQ)
X, Y, Z = (NcPoly.generator(AMB, i) for i in range(3))

S_RELS = [Y * Z + Z * Y, Z * X + X * Z, X * Y + Y * X]
COMM_RELS = [X * Y - Y * X, Y * Z - Z * Y, Z * X - X * Z]


def test_build_dims_examples():
    S = build(Presentation(AMB, S_RELS), 4)
    assert S.dims == [1, 3, 6, 10, 15]
    A = build(Presentation(AMB, S_RELS + [X * X]), 4)
    assert A.dims == [1, 3, 5, 7, 9]
    # the dual of the S/(x^2) conic has prefix (1,3,4,4,4)
    D = build(quadratic_dual(A.presentation), 4)
    assert D.dims == [1, 3, 4, 4, 4]


def test_regular_sequences():
    comm = build(Presentation(AMB, COMM_RELS), 6)
    v = is_regular_normal_sequence(comm, [X * X])
    assert v.all_regular_normal
    S = build(Presentation(AMB, S_RELS), 6)
    v2 = is_regular_normal_sequence(S, [X * X, Y * Y, Z * Z])
    assert v2.all_regular_normal
    q = build(Presentation(AMB, S_RELS + [X * X, Y * Y, Z * Z]), 6)
    assert q.dims[:5] == [1, 3, 3, 1, 0]


def test_repeated_element_not_regular():
    amb2 = Ambient(("x", "y"), QQ)
    x, y = NcPoly.generator(amb2, 0), NcPoly.generator(amb2, 1)
    kxy = build(Presentation(amb2, [x * y - y * x]), 6)
    v = is_regular_normal_sequence(kxy, [x * x, x * x])
    assert v.per_element[0].regular
    assert not v.per_element[1].regular
    assert not v.all_regular_normal


def test_hilbert_consistency_after_regular_quotient():
    # multiplying the quotient prefix back by 1/(1-t^d) recovers the ambient
    S = build(Presentation(AMB, S_RELS), 6)
    v = is_regular_normal_sequence(S, [X * X])
    assert v.all_regular_normal
    quo = quotient(S, X * X)
    recovered = []
    for m in range(7):
        acc = 0
        k = m
        while k >= 0:
            acc += quo.dims[k]
            k -= 2
        recovered.append(acc)
    assert recovered == S.dims[:7]


def test_quotient_composition():
    A = build(Presentation(AMB, S_RELS), 4)
    q1 = quotient(quotient(A, X * X), Y * Y)
    q2 = quotient(A, [X * X, Y * Y])
    assert q1.presentation.relations == q2.presentation.relations


def test_quotient_rejects_zero():
    A = build(Presentation(AMB, S_RELS), 4)
    with pytest.raises(ValueError):
        quotient(A, NcPoly.zero(AMB))


def test_quotient_by_a_relation_above_truncation_keeps_dims():
    # a homogeneous relation of degree 4 does not touch degrees up to D = 3
    A = build(Presentation(AMB, S_RELS), 3)
    assert quotient(A, X * X * Y * Y).dims == A.dims


# -- quotients extend A's rules: the same system as a completion from scratch ---


def assert_extension_is_completion(A, fs, Q):
    fs = [fs] if isinstance(fs, NcPoly) else fs
    ref = build(A.presentation.with_extra(fs), A.rs.truncation, A.rs.order)
    assert Q.presentation.relations == ref.presentation.relations
    assert Q.rs.rules == ref.rs.rules
    assert Q.rs.leads_by_len == ref.rs.leads_by_len
    assert Q.rs.confluent_up_to == ref.rs.confluent_up_to
    assert Q.dims == ref.dims


def recorded_quotients(monkeypatch) -> list:
    """Every (A, fs, A/(fs)) that galgebra.quotient returns while the test runs;
    hilbert_drop looks quotient up in galgebra, so its calls are recorded."""
    seen = []
    original = galgebra.quotient

    def recording(A, fs):
        Q = original(A, fs)
        seen.append((A, fs, Q))
        return Q

    monkeypatch.setattr(galgebra, "quotient", recording)
    return seen


def test_quotients_of_conic_duals_match_completion(monkeypatch):
    seen = recorded_quotients(monkeypatch)
    rows = {(r.table, r.label): r for r in dataset.load_rows()}
    for key in (("5", "A2"), ("12", "K2")):
        assert all(r.status == "PASS" for r in dataset.verify_row(rows[key]))
    assert len(seen) == 9
    for A, fs, Q in seen:
        assert_extension_is_completion(A, fs, Q)


def test_quotients_of_a_center_algebra_match_completion(monkeypatch):
    # table-3 row P1(1,1,-1) in generic coordinates: every central quadric,
    # then a chain of three, so that quotients of quotients are extended too
    row = next(r for r in dataset.load_rows() if (r.table, r.label) == ("3", "P1(1,1,-1)"))
    m = [[Scalar.of(v, QQ) for v in vs] for vs in ((1, 1, 1), (1, -1, 1), (1, 1, -1))]
    S = build(Presentation(AMB, [r.map_linear(m) for r in row.relations]), 5)
    center = center_degree(S, 2)
    assert len(center) == 4
    seen = recorded_quotients(monkeypatch)
    for w in center:
        hilbert_drop(S, w)
    is_regular_normal_sequence(S, center[:3])
    assert len(seen) == 7
    for A, fs, Q in seen:
        assert_extension_is_completion(A, fs, Q)


def test_quotient_evicts_a_rule_whose_lead_contains_the_new_lead():
    amb = Ambient(("x", "y"), QQ)
    x, y = NcPoly.generator(amb, 0), NcPoly.generator(amb, 1)
    A = build(Presentation(amb, [y * y * x - x * x * y]), 5)
    assert set(A.rs.rules) == {(1, 1, 0)}
    f = y * x - x * y
    Q = quotient(A, f)
    # yx is a subword of yyx, whose rule is evicted and re-added as xyy -> xxy
    assert set(Q.rs.rules) == {(1, 0), (0, 1, 1)}
    assert set(A.rs.rules) == {(1, 1, 0)}  # A's system is left as it was
    assert_extension_is_completion(A, f, Q)


def test_inconclusive_truncation():
    S = build(Presentation(AMB, S_RELS), 2)
    with pytest.raises(InconclusiveTruncation):
        is_regular_normal_sequence(S, [X * X])


def test_stable_prefix_detection():
    A = build(Presentation(AMB, S_RELS + [X * X]), 6)
    D = build(quadratic_dual(A.presentation), 6)
    assert D.stable_from() == (2, 4)
    assert A.stable_from() is None
