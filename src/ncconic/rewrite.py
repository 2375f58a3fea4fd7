"""Degree-truncated noncommutative Groebner bases by overlap completion.

Rules map a leading word to a reducer polynomial whose words are strictly
smaller; the rule set is kept inter-reduced (no lead is a subword of another
lead), so at most one rule applies at any position of a word.  Overlap
ambiguities are queued by total degree ascending with the monomial order of
the overlap word as tie-break, which makes completion reproducible.

A normal form rewrites the largest pending word first; the pending words sit
on a max-heap in the monomial order, each keyed once, and each is popped
once.  The loop runs on bare coefficients (scalars.boundary), unwrapped as
they enter it; each surviving term is wrapped once at the end.  Since the
loop no longer checks fields per product, a polynomial from another ambient
is refused on entry with AmbientMismatch.

extend adds relations to a finished system: by Bergman's diamond lemma
only the overlaps involving the new rules are resolved, which is how a graded
quotient A/(f) reuses the completion of A.

A relation that reduces to a nonzero constant stops completion with
UnitIdeal: the ideal is the whole algebra, and no rule has the empty lead.
A relation of degree above the truncation D is set aside as overflow; a
homogeneous one does not touch degrees up to D, so the system stays exact
there.  No relations at all give the free algebra: no rules.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .freealg import Ambient, AmbientMismatch, MonomialOrder, NcPoly, UsageError, Word
from .scalars import Scalar, boundary


class DegreeExceedsTruncation(UsageError):
    pass


class UnitIdeal(Exception):
    """A relation reduced to a nonzero constant: the quotient is the zero ring."""


@dataclass
class RewriteSystem:
    ambient: Ambient
    order: MonomialOrder
    rules: dict[Word, NcPoly]
    truncation: int
    confluent_up_to: int
    overflow: list[NcPoly]
    leads_by_len: dict[int, set[Word]]  # the leads of rules, by length


def _find_redex(w: Word, leads_by_len: dict[int, set[Word]]) -> tuple[int, Word] | None:
    """Leftmost position where some lead occurs as a subword of w."""
    n = len(w)
    for pos in range(n):
        for ln, leads in leads_by_len.items():
            if pos + ln <= n and w[pos : pos + ln] in leads:
                return pos, w[pos : pos + ln]
    return None


def _reduce(rs: RewriteSystem | _Engine, f: NcPoly) -> NcPoly:
    """Normal form of f under the rules of rs (a finished system or one being
    completed): rewrite the largest reducible word until none is left.

    Pending words wait on a heap under their negated order key, computed once
    per word.  A rewrite yields only words below the one rewritten, so each
    word is popped once, and an irreducible word is final when it is popped.
    The loop runs on bare coefficients: f's are unwrapped on entry, a rule's
    as it is applied, and each surviving term is wrapped once at the end."""
    if f.ambient is not rs.ambient and f.ambient != rs.ambient:
        raise AmbientMismatch(f"{f.ambient} vs {rs.ambient}")
    unwrap, wrap = boundary(rs.ambient.spec)
    work = {w: unwrap(c) for w, c in f.terms.items()}
    neg = tuple(-p for p in rs.order.precedence)
    heap = [(-len(w), tuple(neg[i] for i in w), w) for w in work]
    heapq.heapify(heap)
    out: dict[Word, Scalar] = {}
    while heap:
        w = heapq.heappop(heap)[2]
        c = work.pop(w)
        if not c:
            continue
        m = _find_redex(w, rs.leads_by_len)
        if m is None:
            s = f.terms.get(w)  # a term left untouched keeps its Scalar
            out[w] = s if s is not None and unwrap(s) is c else wrap(c)
            continue
        pos, lead = m
        a, b = w[:pos], w[pos + len(lead) :]
        for v, cv in rs.rules[lead].terms.items():
            nw = a + v + b
            p = c * unwrap(cv)
            if nw in work:
                work[nw] = work[nw] + p
            else:
                work[nw] = p
                heapq.heappush(heap, (-len(nw), tuple(neg[i] for i in nw), nw))
    return NcPoly(rs.ambient, out)


class _Engine:
    def __init__(self, ambient: Ambient, order: MonomialOrder, D: int):
        self.ambient = ambient
        self.order = order
        self.D = D
        self.rules: dict[Word, NcPoly] = {}
        self.leads_by_len: dict[int, set[Word]] = {}
        self.overlap_heap: list = []
        self.counter = 0
        self.overflow: list[NcPoly] = []

    def _remove_rule(self, lead: Word):
        del self.rules[lead]
        leads = self.leads_by_len[len(lead)]
        leads.discard(lead)
        if not leads:
            del self.leads_by_len[len(lead)]

    def _push_overlaps(self, u: Word):
        for v in list(self.rules):
            for a, s, b in _overlaps(u, v):
                self._queue(u, v, a, s, b)
            if v != u:
                for a, s, b in _overlaps(v, u):
                    self._queue(v, u, a, s, b)

    def _queue(self, u: Word, v: Word, a: Word, s: Word, b: Word):
        w = a + s + b
        if len(w) > self.D:
            return
        self.counter += 1
        heapq.heappush(self.overlap_heap, (len(w), self.order.key(w), self.counter, u, v, a, b))

    def add(self, f: NcPoly):
        f = _reduce(self, f)
        if f.is_zero():
            return
        if f.degree() == 0:
            raise UnitIdeal(f"the relations reduce to the constant {f}")
        if f.degree() > self.D:
            self.overflow.append(f)
            return
        f = f.monic(self.order)
        lead, _ = f.leading(self.order)
        rest = NcPoly.monomial(self.ambient, lead) - f
        # evict rules whose lead contains the new lead, requeue their full polys
        requeue = []
        for other in list(self.rules):
            if _contains(other, lead):
                requeue.append(NcPoly.monomial(self.ambient, other) - self.rules[other])
                self._remove_rule(other)
        self.rules[lead] = rest
        self.leads_by_len.setdefault(len(lead), set()).add(lead)
        self._push_overlaps(lead)
        for g in requeue:
            self.add(g)

    def run(self):
        while self.overlap_heap:
            _, _, _, u, v, a, b = heapq.heappop(self.overlap_heap)
            if u not in self.rules or v not in self.rules:
                continue
            left = _mul_word(self.rules[u], right=b)
            right = _mul_word(self.rules[v], left=a)
            self.add(left - right)
        # canonicalize: reducers in normal form w.r.t. the final rule set
        for lead in list(self.rules):
            self.rules[lead] = _reduce(self, self.rules[lead])


def _mul_word(p: NcPoly, left: Word = (), right: Word = ()) -> NcPoly:
    return NcPoly(p.ambient, {left + w + right: c for w, c in p.terms.items()})


def _contains(w: Word, sub: Word) -> bool:
    ls = len(sub)
    return any(w[i : i + ls] == sub for i in range(len(w) - ls + 1))


def _overlaps(u: Word, v: Word):
    """Proper overlaps u = a s, v = s b with nonempty s shorter than both."""
    for ls in range(1, min(len(u), len(v))):
        s = u[len(u) - ls :]
        if v[:ls] == s:
            yield u[: len(u) - ls], s, v[ls:]


def _system(eng: _Engine, rels: list[NcPoly]) -> RewriteSystem:
    """Add the nonzero rels to eng by degree, then leading word, resolve every
    queued overlap and assemble the system."""
    D, order = eng.D, eng.order
    rels = [r for r in rels if not r.is_zero()]
    for r in rels:
        if r.degree() < 1:
            raise UsageError(f"relation {r} has degree 0")
    for r in sorted(rels, key=lambda p: (p.degree(), order.key(p.leading(order)[0]))):
        eng.add(r)
    eng.run()
    confluent = D if not eng.overflow else min(D, min(f.degree() for f in eng.overflow) - 1)
    return RewriteSystem(eng.ambient, order, eng.rules, D, confluent, eng.overflow, eng.leads_by_len)


def complete(
    ambient: Ambient,
    relations: list[NcPoly],
    D: int,
    order: MonomialOrder | None = None,
) -> RewriteSystem:
    """Inter-reduced rewrite system of the relations in ambient, with all
    overlaps of degree <= D resolved.

    Graded presentations (galgebra.Presentation, which refuses relations
    that are not homogeneous) are the primary clients; inhomogeneous input
    comes only from the finite-dimensional closure in findim, where the
    resulting basis is cross-validated against the degree horizon."""
    if order is None:
        order = MonomialOrder.default(ambient.n)
    return _system(_Engine(ambient, order, D), relations)


def extend(rs: RewriteSystem, extra: list[NcPoly]) -> RewriteSystem:
    """The system of rs's relations and the homogeneous extra, at rs's
    truncation, without redoing rs's completion.

    The rules of rs are confluent up to the truncation, so by Bergman's
    diamond lemma only overlaps that involve a rule added here (an extra
    relation, or an evicted rule re-added) need resolving: the engine starts
    from a copy of rs's rules with no overlap queued.  A homogeneous
    truncated reduced basis is unique, so the rules equal those of a
    completion from scratch."""
    eng = _Engine(rs.ambient, rs.order, rs.truncation)
    eng.rules = dict(rs.rules)
    eng.leads_by_len = {n: set(leads) for n, leads in rs.leads_by_len.items()}
    eng.overflow = list(rs.overflow)
    return _system(eng, extra)


def normal_form(rs: RewriteSystem, f: NcPoly) -> NcPoly:
    if f.degree() > rs.confluent_up_to:
        raise DegreeExceedsTruncation(
            f"degree {f.degree()} exceeds confluent range {rs.confluent_up_to}"
        )
    return _reduce(rs, f)


def graded_basis(rs: RewriteSystem, d: int) -> list[Word]:
    """All degree-d words with no lead as subword, ascending in the order;
    none for d < 0."""
    if d < 0:
        return []
    if d > rs.confluent_up_to:
        raise DegreeExceedsTruncation(f"degree {d} exceeds {rs.confluent_up_to}")
    n = rs.ambient.n
    letters = sorted(range(n), key=lambda i: rs.order.precedence[i])
    out: list[Word] = []

    def ok_suffix(w: Word) -> bool:
        for ln, leads in rs.leads_by_len.items():
            if ln <= len(w) and w[len(w) - ln :] in leads:
                return False
        return True

    def rec(w: Word):
        if len(w) == d:
            out.append(w)
            return
        for i in letters:
            nw = w + (i,)
            if ok_suffix(nw):
                rec(nw)

    rec(())
    return out
