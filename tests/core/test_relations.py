"""Unit and property tests for the relational algebra."""

from collections.abc import Iterable, Iterator
from typing import FrozenSet, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relations import (
    Rel,
    linear_extensions,
    linear_extensions_with_last,
    total_order_extensions,
    union,
)

pairs_strategy = st.frozensets(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20
)
rel_strategy = pairs_strategy.map(Rel)


class TestBasics:
    def test_empty(self):
        assert not Rel.empty()
        assert len(Rel.empty()) == 0
        assert Rel.empty().is_acyclic()

    def test_identity(self):
        ident = Rel.identity([1, 2])
        assert (1, 1) in ident and (2, 2) in ident
        assert len(ident) == 2
        assert not ident.is_irreflexive()

    def test_cross(self):
        rel = Rel.cross([1, 2], [3])
        assert rel == Rel([(1, 3), (2, 3)])

    def test_union_intersection_difference(self):
        a, b = Rel([(1, 2), (2, 3)]), Rel([(2, 3), (3, 4)])
        assert a | b == Rel([(1, 2), (2, 3), (3, 4)])
        assert a & b == Rel([(2, 3)])
        assert a - b == Rel([(1, 2)])

    def test_composition(self):
        a, b = Rel([(1, 2), (2, 3)]), Rel([(2, 5), (3, 6)])
        assert a @ b == Rel([(1, 5), (2, 6)])

    def test_composition_through_identity(self):
        a = Rel([(1, 2), (2, 3)])
        ident = Rel.identity([2])
        # [A] acts as a filter on the codomain/domain.
        assert a @ ident == Rel([(1, 2)])
        assert ident @ a == Rel([(2, 3)])

    def test_inverse(self):
        assert Rel([(1, 2)]).inv() == Rel([(2, 1)])

    def test_plus(self):
        rel = Rel([(1, 2), (2, 3), (3, 4)])
        closed = rel.plus()
        assert (1, 4) in closed and (1, 3) in closed and (2, 4) in closed

    def test_domain_codomain(self):
        rel = Rel([(1, 2), (1, 3)])
        assert rel.domain() == {1}
        assert rel.codomain() == {2, 3}

    def test_restrict(self):
        rel = Rel([(1, 2), (3, 4)])
        assert rel.restrict(domain=[1]) == Rel([(1, 2)])
        assert rel.restrict(codomain=[4]) == Rel([(3, 4)])

    def test_acyclicity(self):
        assert Rel([(1, 2), (2, 3)]).is_acyclic()
        assert not Rel([(1, 2), (2, 1)]).is_acyclic()
        assert not Rel([(1, 1)]).is_acyclic()
        # Long cycle.
        assert not Rel([(1, 2), (2, 3), (3, 4), (4, 1)]).is_acyclic()

    def test_total_on(self):
        assert Rel([(1, 2), (2, 3), (1, 3)]).is_total_on([1, 2, 3])
        assert not Rel([(1, 2)]).is_total_on([1, 2, 3])

    def test_union_helper(self):
        assert union([Rel([(1, 2)]), Rel([(3, 4)])]) == \
            Rel([(1, 2), (3, 4)])

    def test_total_order_extensions(self):
        orders = list(total_order_extensions([1, 2, 3], first=1))
        assert len(orders) == 2
        for order in orders:
            assert (1, 2) in order and (1, 3) in order

    def test_repr_contains_pairs(self):
        assert "1->2" in repr(Rel([(1, 2)]))


class TestProperties:
    @given(rel_strategy, rel_strategy)
    def test_union_commutes(self, a, b):
        assert a | b == b | a

    @given(rel_strategy, rel_strategy, rel_strategy)
    def test_composition_associates(self, a, b, c):
        assert (a @ b) @ c == a @ (b @ c)

    @given(rel_strategy)
    def test_double_inverse(self, a):
        assert a.inv().inv() == a

    @given(rel_strategy)
    def test_plus_idempotent(self, a):
        assert a.plus().plus() == a.plus()

    @given(rel_strategy)
    def test_plus_contains_original(self, a):
        assert a.pairs <= a.plus().pairs

    @given(rel_strategy)
    def test_acyclic_iff_plus_irreflexive(self, a):
        assert a.is_acyclic() == a.plus().is_irreflexive()

    @given(rel_strategy, rel_strategy)
    def test_composition_distributes_over_union(self, a, b):
        c = Rel([(0, 1), (1, 2), (5, 3)])
        assert (a | b) @ c == (a @ c) | (b @ c)

    @given(rel_strategy)
    def test_inverse_of_composition(self, a):
        b = Rel([(2, 7), (3, 1)])
        assert (a @ b).inv() == b.inv() @ a.inv()


# ----------------------------------------------------------------------
# Linear extensions (the coherence-order search primitive)
# ----------------------------------------------------------------------
def _total_order_rel(seq):
    return Rel(
        (seq[i], seq[j])
        for i in range(len(seq))
        for j in range(i + 1, len(seq))
    )


def _brute_force_extensions(elems, partial):
    """Oracle: filter all permutations by the partial-order pairs."""
    import itertools

    members = set(elems)
    relevant = [(a, b) for a, b in partial
                if a in members and b in members and a != b]
    out = []
    for perm in itertools.permutations(elems):
        pos = {e: i for i, e in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in relevant):
            out.append(_total_order_rel(perm))
    return out


small_poset_strategy = st.tuples(
    st.integers(1, 5),
    st.frozensets(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                  max_size=8),
)


class TestLinearExtensions:
    @settings(max_examples=200, deadline=None)
    @given(small_poset_strategy)
    def test_matches_brute_force_permutation_filter(self, poset):
        n, partial = poset
        elems = list(range(n))
        got = list(linear_extensions(elems, partial))
        oracle = _brute_force_extensions(elems, partial)
        # Same multiset; each extension exactly once.
        assert len(got) == len(oracle)
        assert {g.pairs for g in got} == {o.pairs for o in oracle}

    def test_cyclic_partial_yields_nothing(self):
        assert list(linear_extensions([0, 1], [(0, 1), (1, 0)])) == []

    def test_no_constraints_is_all_permutations(self):
        import math

        assert len(list(linear_extensions(list(range(4)), []))) == \
            math.factorial(4)

    @settings(max_examples=200, deadline=None)
    @given(small_poset_strategy, st.integers(0, 5))
    def test_with_last_equals_filtered_extensions(self, poset, last):
        n, partial = poset
        elems = list(range(n))
        got = {r.pairs
               for r in linear_extensions_with_last(elems, partial,
                                                    last)}
        want = {
            r.pairs for r in linear_extensions(elems, partial)
            if all((e, last) in r for e in elems if e != last)
        } if last in set(elems) else set()
        assert got == want

    def test_with_last_absent_member_is_empty(self):
        assert list(linear_extensions_with_last([0, 1], [], 9)) == []

    def test_with_last_forced_before_is_empty(self):
        # partial forces 0 before 1, so 0 can never be placed last.
        assert list(
            linear_extensions_with_last([0, 1], [(0, 1)], 0)) == []


# ----------------------------------------------------------------------
# Differential test against the frozenset-of-pairs representation
# ----------------------------------------------------------------------
# The oracle is the frozenset-of-pairs Rel the bitmask rows replaced,
# copied verbatim (renamed PairRel, its union pair_union).
Pair = Tuple[int, int]


class PairRel:
    """An immutable binary relation over integer event ids.

    Supports the operators used in 'cat'-style model definitions:

    * ``a | b`` — union
    * ``a & b`` — intersection
    * ``a - b`` — difference
    * ``a @ b`` — sequential composition (``a ; b`` in cat syntax)
    * ``a.inv()`` — inverse (``a^-1``)
    * ``a.plus()`` — transitive closure (``a^+``)
    * ``a.is_irreflexive()`` / ``a.is_acyclic()``
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Pair] = ()):
        self.pairs: FrozenSet[Pair] = frozenset(pairs)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "PairRel":
        return _PAIR_EMPTY

    @staticmethod
    def identity(elements: Iterable[int]) -> "PairRel":
        """``[A]`` in cat notation: the identity relation on a set."""
        return PairRel((e, e) for e in elements)

    @staticmethod
    def cross(left: Iterable[int], right: Iterable[int]) -> "PairRel":
        """``A * B``: full cross product of two sets."""
        right_list = list(right)
        return PairRel((a, b) for a in left for b in right_list)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __or__(self, other: "PairRel") -> "PairRel":
        return PairRel(self.pairs | other.pairs)

    def __and__(self, other: "PairRel") -> "PairRel":
        return PairRel(self.pairs & other.pairs)

    def __sub__(self, other: "PairRel") -> "PairRel":
        return PairRel(self.pairs - other.pairs)

    def __matmul__(self, other: "PairRel") -> "PairRel":
        """Sequential composition ``self ; other``."""
        by_src: dict[int, list[int]] = {}
        for a, b in other.pairs:
            by_src.setdefault(a, []).append(b)
        out: set[Pair] = set()
        for a, b in self.pairs:
            for c in by_src.get(b, ()):
                out.add((a, c))
        return PairRel(out)

    def inv(self) -> "PairRel":
        return PairRel((b, a) for a, b in self.pairs)

    def plus(self) -> "PairRel":
        """Transitive closure via worklist saturation."""
        succ: dict[int, set[int]] = {}
        for a, b in self.pairs:
            succ.setdefault(a, set()).add(b)
        closure: set[Pair] = set(self.pairs)
        frontier = list(self.pairs)
        while frontier:
            a, b = frontier.pop()
            for c in succ.get(b, ()):
                if (a, c) not in closure:
                    closure.add((a, c))
                    frontier.append((a, c))
                    succ.setdefault(a, set()).add(c)
        return PairRel(closure)

    def opt(self, elements: Iterable[int]) -> "PairRel":
        """Reflexive closure over the given carrier set (``r?``)."""
        return self | PairRel.identity(elements)

    # ------------------------------------------------------------------
    # Restriction and projection
    # ------------------------------------------------------------------
    def restrict(self, domain: Iterable[int] | None = None,
                 codomain: Iterable[int] | None = None) -> "PairRel":
        """Keep only pairs whose endpoints lie in the given sets."""
        dom = set(domain) if domain is not None else None
        cod = set(codomain) if codomain is not None else None
        return PairRel(
            (a, b)
            for a, b in self.pairs
            if (dom is None or a in dom) and (cod is None or b in cod)
        )

    def domain(self) -> FrozenSet[int]:
        """``dom(S)``: the set of sources."""
        return frozenset(a for a, _ in self.pairs)

    def codomain(self) -> FrozenSet[int]:
        """``codom(S)``: the set of targets."""
        return frozenset(b for _, b in self.pairs)

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def is_irreflexive(self) -> bool:
        return all(a != b for a, b in self.pairs)

    def is_acyclic(self) -> bool:
        """True when the transitive closure is irreflexive.

        Implemented as a DFS cycle check rather than materializing the
        closure, since acyclicity is the hot predicate in consistency
        checking.
        """
        succ: dict[int, list[int]] = {}
        nodes: set[int] = set()
        for a, b in self.pairs:
            succ.setdefault(a, []).append(b)
            nodes.add(a)
            nodes.add(b)
        WHITE, GREY, BLACK = 0, 1, 2
        color = {n: WHITE for n in nodes}
        for root in nodes:
            if color[root] != WHITE:
                continue
            stack: list[tuple[int, Iterator[int]]] = [
                (root, iter(succ.get(root, ())))
            ]
            color[root] = GREY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    if color[nxt] == GREY:
                        return False
                    if color[nxt] == WHITE:
                        color[nxt] = GREY
                        stack.append((nxt, iter(succ.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return True

    def is_total_on(self, elements: Iterable[int]) -> bool:
        """True when the relation totally orders ``elements``."""
        elems = list(elements)
        for i, a in enumerate(elems):
            for b in elems[i + 1:]:
                if (a, b) not in self.pairs and (b, a) not in self.pairs:
                    return False
        return self.is_acyclic()

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[Pair]:
        return iter(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __bool__(self) -> bool:
        return bool(self.pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairRel):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}->{b}" for a, b in sorted(self.pairs))
        return f"PairRel({{{inner}}})"


_PAIR_EMPTY = PairRel(())


def pair_union(rels: Iterable[PairRel]) -> PairRel:
    """N-ary union, convenient when a model has many clauses."""
    pairs: set[Pair] = set()
    for rel in rels:
        pairs |= rel.pairs
    return PairRel(pairs)


#: Ids up to 70, so rows cross the 64-bit word boundary.
MAX_ID = 70
ids = st.integers(0, MAX_ID)
pair_sets = st.frozensets(st.tuples(ids, ids), max_size=40)
id_sets = st.frozensets(ids, max_size=12)


def both(pairs):
    return Rel(pairs), PairRel(pairs)


def agree(new, old):
    """Same relation: pairs, iteration order, len, bool and repr."""
    assert isinstance(new, Rel)
    assert new.pairs == old.pairs
    assert list(new) == list(old)
    assert len(new) == len(old)
    assert bool(new) == bool(old)
    assert repr(new) == repr(old).replace("PairRel", "Rel", 1)


class TestAgainstPairOracle:
    @settings(max_examples=150, deadline=None)
    @given(pair_sets, pair_sets)
    def test_binary_operators(self, a, b):
        (new_a, old_a), (new_b, old_b) = both(a), both(b)
        agree(new_a | new_b, old_a | old_b)
        agree(new_a & new_b, old_a & old_b)
        agree(new_a - new_b, old_a - old_b)
        agree(new_a @ new_b, old_a @ old_b)
        agree(union([new_a, new_b, new_a]),
              pair_union([old_a, old_b, old_a]))

    @settings(max_examples=150, deadline=None)
    @given(pair_sets, id_sets, st.one_of(st.none(), id_sets),
           st.one_of(st.none(), id_sets))
    def test_unary_operators(self, a, elems, dom, cod):
        new, old = both(a)
        agree(new, old)
        agree(new.inv(), old.inv())
        agree(new.plus(), old.plus())
        agree(new.opt(elems), old.opt(elems))
        agree(new.restrict(dom, cod), old.restrict(dom, cod))
        assert new.domain() == old.domain()
        assert new.codomain() == old.codomain()
        agree(Rel.identity(elems), PairRel.identity(elems))
        agree(Rel.cross(elems, sorted(elems)[:3]),
              PairRel.cross(elems, sorted(elems)[:3]))

    @settings(max_examples=150, deadline=None)
    @given(pair_sets, id_sets, st.tuples(ids, ids))
    def test_predicates(self, a, elems, probe):
        new, old = both(a)
        assert new.is_irreflexive() == old.is_irreflexive()
        assert new.is_acyclic() == old.is_acyclic()
        assert new.plus().is_acyclic() == old.plus().is_acyclic()
        assert new.is_total_on(sorted(elems)) == \
            old.is_total_on(sorted(elems))
        assert (probe in new) == (probe in old)
        for pair in old.pairs:
            assert pair in new

    @settings(max_examples=150, deadline=None)
    @given(pair_sets, pair_sets)
    def test_equality_and_hash(self, a, b):
        (new_a, old_a), (new_b, old_b) = both(a), both(b)
        assert (new_a == new_b) == (old_a == old_b)
        # Built in another order, or through the operators: equal
        # relations hash alike.
        again = Rel(sorted(a, reverse=True))
        assert again == new_a and hash(again) == hash(new_a)
        via_ops = (new_a | new_b) - (new_b - new_a)
        assert via_ops == new_a
        assert hash(via_ops) == hash(new_a)

    @settings(max_examples=100, deadline=None)
    @given(pair_sets)
    def test_totally_ordered_chains(self, a):
        # Dense chains (every id) and their closures stay identical.
        chain = [(i, i + 1) for i in range(MAX_ID)]
        new, old = both(chain + sorted(a))
        agree(new.plus(), old.plus())
        assert new.is_acyclic() == old.is_acyclic()
