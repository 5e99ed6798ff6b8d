"""Finite binary-relation algebra used by the axiomatic memory models.

The paper (and the herd 'cat' language it builds on) expresses memory
models as algebraic combinations of binary relations over events:
unions, compositions, inverses, transitive closures, and acyclicity
checks.  This module implements that algebra for *finite* relations over
non-negative integer event ids, stored as bitmask rows: ``rows[a]`` has
bit ``b`` set when ``(a, b)`` is in the relation (no empty rows).  ``@``
ORs rows over set bits, ``plus`` is Warshall on ints and acyclicity a
DFS over rows.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from typing import FrozenSet, Tuple

Pair = Tuple[int, int]


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _mask(elements: Iterable[int]) -> int:
    mask = 0
    for e in elements:
        mask |= 1 << e
    return mask


class Rel:
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

    __slots__ = ("rows",)

    def __init__(self, pairs: Iterable[Pair] = ()):
        rows: dict[int, int] = {}
        for a, b in pairs:
            rows[a] = rows.get(a, 0) | 1 << b
        self.rows = rows

    @classmethod
    def of_rows(cls, rows: dict[int, int]) -> "Rel":
        """Wrap ``rows`` (owned by the result, no zero rows) as a Rel."""
        rel = cls.__new__(cls)
        rel.rows = rows
        return rel

    @property
    def pairs(self) -> FrozenSet[Pair]:
        """The pairs as a frozenset, built on demand (for diagnostics
        and well-formedness checks; no hot path reads it)."""
        return frozenset(self)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "Rel":
        return _EMPTY

    @staticmethod
    def identity(elements: Iterable[int]) -> "Rel":
        """``[A]`` in cat notation: the identity relation on a set."""
        return Rel.of_rows({e: 1 << e for e in elements})

    @staticmethod
    def cross(left: Iterable[int], right: Iterable[int]) -> "Rel":
        """``A * B``: full cross product of two sets."""
        mask = _mask(right)
        return Rel.of_rows({a: mask for a in left} if mask else {})

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def __or__(self, other: "Rel") -> "Rel":
        return union((self, other))

    def __and__(self, other: "Rel") -> "Rel":
        orows = other.rows
        return Rel.of_rows({a: both for a, mask in self.rows.items()
                            if (both := mask & orows.get(a, 0))})

    def __sub__(self, other: "Rel") -> "Rel":
        orows = other.rows
        return Rel.of_rows({a: rest for a, mask in self.rows.items()
                            if (rest := mask & ~orows.get(a, 0))})

    def __matmul__(self, other: "Rel") -> "Rel":
        """Sequential composition ``self ; other``: each row ORs the
        rows of ``other`` at its set bits."""
        orows = other.rows
        out = {}
        for a, mask in self.rows.items():
            reach = 0
            while mask:
                low = mask & -mask
                reach |= orows.get(low.bit_length() - 1, 0)
                mask ^= low
            if reach:
                out[a] = reach
        return Rel.of_rows(out)

    def inv(self) -> "Rel":
        out: dict[int, int] = {}
        for a, mask in self.rows.items():
            bit = 1 << a
            for b in _bits(mask):
                out[b] = out.get(b, 0) | bit
        return Rel.of_rows(out)

    def plus(self) -> "Rel":
        """Transitive closure: Warshall over the rows."""
        rows = dict(self.rows)
        for k in self.rows:
            bit, via = 1 << k, rows[k]
            for a, mask in rows.items():
                if mask & bit:
                    rows[a] = mask | via
        return Rel.of_rows(rows)

    def opt(self, elements: Iterable[int]) -> "Rel":
        """Reflexive closure over the given carrier set (``r?``)."""
        return self | Rel.identity(elements)

    # ------------------------------------------------------------------
    # Restriction and projection
    # ------------------------------------------------------------------
    def restrict(self, domain: Iterable[int] | None = None,
                 codomain: Iterable[int] | None = None) -> "Rel":
        """Keep only pairs whose endpoints lie in the given sets."""
        rows = self.rows if domain is None \
            else {a: self.rows[a] for a in set(domain) if a in self.rows}
        cod = _mask(codomain) if codomain is not None else -1
        return Rel.of_rows({a: kept for a, mask in rows.items()
                            if (kept := mask & cod)})

    def domain(self) -> FrozenSet[int]:
        """``dom(S)``: the set of sources."""
        return frozenset(self.rows)

    def codomain(self) -> FrozenSet[int]:
        """``codom(S)``: the set of targets."""
        mask = 0
        for row in self.rows.values():
            mask |= row
        return frozenset(_bits(mask))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def is_irreflexive(self) -> bool:
        return not any(mask >> a & 1 for a, mask in self.rows.items())

    def is_acyclic(self) -> bool:
        """True when the transitive closure is irreflexive: an iterative
        DFS over the rows, with the grey path and the finished nodes
        held as masks (a successor with nothing left to visit is
        finished without being pushed)."""
        rows = self.rows
        done = 0
        for root, row in rows.items():
            if done >> root & 1:
                continue
            grey = 1 << root
            nodes, pending = [root], [row]
            while nodes:
                todo = pending[-1] & ~done
                if todo & grey:
                    return False
                if not todo:
                    bit = 1 << nodes.pop()
                    pending.pop()
                    grey ^= bit
                    done |= bit
                    continue
                low = todo & -todo
                pending[-1] = todo ^ low
                nxt = low.bit_length() - 1
                succ = rows.get(nxt, 0) & ~done
                if succ:
                    nodes.append(nxt)
                    pending.append(succ)
                    grey |= low
                else:
                    done |= low
        return True

    def is_total_on(self, elements: Iterable[int]) -> bool:
        """True when the relation totally orders ``elements``."""
        return all((a, b) in self or (b, a) in self
                   for a, b in itertools.combinations(elements, 2)) \
            and self.is_acyclic()

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __contains__(self, pair: Pair) -> bool:
        a, b = pair
        return bool(self.rows.get(a, 0) >> b & 1)

    def __iter__(self) -> Iterator[Pair]:
        rows = self.rows
        return ((a, b) for a in sorted(rows) for b in _bits(rows[a]))

    def __len__(self) -> int:
        return sum(mask.bit_count() for mask in self.rows.values())

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rel):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(frozenset(self.rows.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{a}->{b}" for a, b in self)
        return f"Rel({{{inner}}})"


_EMPTY = Rel(())


def union(rels: Iterable[Rel]) -> Rel:
    """N-ary union, convenient when a model has many clauses (put the
    largest first: its rows are copied, the others ORed in)."""
    out: dict[int, int] | None = None
    for rel in rels:
        if out is None:
            out = dict(rel.rows)
            continue
        for a, mask in rel.rows.items():
            out[a] = out.get(a, 0) | mask
    return _EMPTY if out is None else Rel.of_rows(out)


def total_order_extensions(elements: list[int], first: int | None = None):
    """Yield every strict total order of ``elements`` as a Rel, in
    permutation order.

    When ``first`` is given it is pinned to the front (used for the
    initialization write, which is co-before every other write).
    """
    pinned = [] if first is None else [(first, e) for e in elements]
    return linear_extensions(elements, pinned)


def linear_extensions(elements: list[int], partial: Iterable[Pair] | Rel):
    """Yield every strict total order of ``elements`` extending
    ``partial``, as a Rel (same shape as ``total_order_extensions``).

    ``partial`` is a Rel or any set of (before, after) pairs over
    ``elements``; pairs mentioning other ids are ignored.  Enumeration
    is a backtracking topological sort over predecessor masks, so each
    extension is produced exactly once and a cyclic ``partial`` yields
    nothing.  With no pairs this degenerates to all permutations; with a
    total order it yields the single compatible permutation — the staged
    enumerator's common case, where the forced coherence edges already
    pin every write.
    """
    elems = list(elements)
    members = _mask(elems)
    rows = partial.rows if isinstance(partial, Rel) else Rel(partial).rows
    pred = dict.fromkeys(elems, 0)
    for a in elems:
        for b in _bits(rows.get(a, 0) & members & ~(1 << a)):
            pred[b] |= 1 << a
    # (event, mask of the events placed after it), in placement order.
    placed_rows: list[tuple[int, int]] = []

    def rec(placed: int):
        if placed == members:
            yield Rel.of_rows(dict(placed_rows[:-1]))
            return
        for e in elems:
            bit = 1 << e
            if not placed & bit and not pred[e] & ~placed:
                after = placed | bit
                placed_rows.append((e, members & ~after))
                yield from rec(after)
                placed_rows.pop()

    return rec(0)


def linear_extensions_with_last(elements: list[int],
                                partial: Iterable[Pair] | Rel, last: int):
    """Linear extensions of ``partial`` that place ``last`` at the end.

    Equivalent to :func:`linear_extensions` with the extra constraints
    ``(e, last)`` for every other element — so a ``last`` that the
    partial order already forces before some element yields nothing.
    The coherence-class search uses this to ask "is there a total co
    where *this* write wins the location?" without filtering the full
    extension set.
    """
    if last not in elements:
        return iter(())
    partial = partial if isinstance(partial, Rel) else Rel(partial)
    return linear_extensions(elements,
                             partial | Rel.cross(elements, [last]))
