"""Memory models as relational terms, and the one evaluator.

The paper states its models in herd's cat style (Figures 5 and 6):
relations built from an execution's base relations, constrained by
``acyclic``/``irreflexive``/``empty`` axioms.  Here a model is that
data — :class:`MemoryModel` ``(name, arch, axioms)`` — and this module
is the only code that judges an execution against it.  Terms are
Python values, not a ``.cat`` parser: ``@`` is ``;`` (a set operand is
its identity ``[S]``), ``|`` ``&`` ``-`` as in cat, ``*`` the set
product, ``.plus()``/``.inv()``, ``dom``/``codom``.

Derived when a model is built, never written per model:

* **The static/communication split.**  A term is static when no rf/co
  relation occurs in it (its value is fixed by the trace combo's
  skeleton).  Each ``acyclic`` axiom's union is split into its static
  operands, one term evaluated once per skeleton through
  :meth:`Execution.invariant`, and the communication operands a
  candidate unions onto it.  Every other static compound is memoized
  the same way.
* **Plans and guards** (:meth:`MemoryModel.prefix_judge`).  An acyclic
  axiom whose communication operands are bare leaves has a plan: that
  same static term and the leaf names, which the rf search judges by
  difference.  ``empty(S & X)`` with ``S`` static is guarded by ``S``:
  it cannot fail on a combo where ``S`` is empty.
* **Staged soundness** (``supports_staged``).  The staged and DPOR
  enumerators run the axioms on a *prefix* of rf and the *forced
  subset* of co, and cut the subtree on a violation — sound only if the
  violation persists as rf and co grow.  Every operator but ``-`` is
  monotone and the three axioms only fail harder on more edges, so the
  precheck is sound iff no rf/co relation occurs on the right of a
  ``-``.  The search's rf prunes and forced coherence edges stand on
  ``SC_PER_LOC`` and ``ATOMICITY``, so a model qualifies only if it
  also states both.
* **The fingerprint**: class, name, arch and the axioms' canonical text.

A figure's closures are stated literally: ``irreflexive(r+)`` is checked
as ``acyclic(r)``, and ``acyclic(A ∪ B+)`` as ``acyclic(A ∪ B)`` (``B+``
relates exactly what paths of ``B`` relate).
"""

from __future__ import annotations

import hashlib
import operator
from functools import partialmethod
from operator import attrgetter

from ..events import Arch, Fence, Mode
from ..execution import Execution
from ..relations import Rel, union as union_rels

#: The base relations fixed by a candidate's rf and co; every other leaf
#: is fixed by its trace combo.
COMMUNICATION = frozenset({"rf", "rfe", "co", "coe", "fr", "fre"})

_INFIX = {"|": " | ", "&": " & ", "-": " - ", ";": ";", "*": " * "}


def _unary(op: str, sort: str):
    return lambda term: Term(op, (term,), sort)


class Term:
    """A leaf reading one relation or event set of an execution, or an
    operator over operand terms.  ``sort`` is ``rel``, ``set`` or
    ``axiom``; ``text`` is the canonical spelling (digested by the
    fingerprint, compared by structural checks); ``comm`` says whether
    rf or co occurs in it."""

    __slots__ = ("op", "args", "sort", "text", "comm")

    def __init__(self, op: str, args: tuple, sort: str, text: str = ""):
        self.op, self.args, self.sort = op, args, sort
        if op == "leaf":
            self.text, self.comm = text, text in COMMUNICATION
            return
        inner = ", ".join(a.text for a in args)
        self.text = f"({_INFIX[op].join(a.text for a in args)})" \
            if op in _INFIX else f"[{inner}]" if op == "[]" \
            else f"{inner}{op}" if op in ("+", "^-1") else f"{op}({inner})"
        self.comm = any(a.comm for a in args)

    def __repr__(self) -> str:
        return self.text

    def _with(self, op: str, other: Term) -> Term:
        if self.sort != other.sort or op == "*" and self.sort != "set":
            raise TypeError(f"{self} {op} {other}: wrong sorts")
        return Term(op, (self, other), "rel" if op == "*" else self.sort)

    __or__, __and__ = partialmethod(_with, "|"), partialmethod(_with, "&")
    __sub__, __mul__ = partialmethod(_with, "-"), partialmethod(_with, "*")

    def __matmul__(self, other: Term) -> Term:
        parts = []
        for term in (self, other):
            if term.sort == "set":
                term = Term("[]", (term,), "rel")
            parts.extend(term.args if term.op == ";" else (term,))
        return Term(";", tuple(parts), "rel")

    plus, inv = _unary("+", "rel"), _unary("^-1", "rel")

    def replace(self, old: Term, new: Term) -> Term:
        """This term with every occurrence of ``old`` (by canonical
        text) swapped for ``new``."""
        if self.text == old.text:
            return new
        if self.op == "leaf":
            return self
        return Term(self.op, tuple(a.replace(old, new) for a in self.args),
                    self.sort)


def union(*terms: Term) -> Term:
    """The n-ary union of ``terms``, kept as written."""
    if len({t.sort for t in terms}) != 1:
        raise TypeError(f"union{terms}: mixed sorts")
    return terms[0] if len(terms) == 1 else Term("|", terms, terms[0].sort)


dom, codom = _unary("dom", "set"), _unary("codom", "set")
acyclic, irreflexive, empty = (_unary(op, "axiom")
                               for op in ("acyclic", "irreflexive", "empty"))


def fences(kind: Fence) -> Term:
    """The fence events of one kind."""
    return Term("leaf", (lambda ex: ex.fences(kind),), "set",
                f"F.{kind.value}")


def modes(kind: str, mode: Mode) -> Term:
    """The ``kind`` ("R"/"W") events carrying annotation ``mode``."""
    return Term("leaf", (lambda ex: ex.with_mode(kind, mode),), "set",
                f"{kind}.{mode.value}")


# Base relations and event sets, named as in the paper.
po, po_loc, rf, rfe, co, coe, fr, fre, data, ctrl, rmw, amo, lxsx = (
    Term("leaf", (attrgetter(name),), "rel", name) for name in (
        "po", "po_loc", "rf", "rfe", "co", "coe", "fr", "fre", "data",
        "ctrl", "rmw", "amo", "lxsx"))
R, W, M = (Term("leaf", (attrgetter(attr),), "set", name) for name, attr in
           (("R", "reads"), ("W", "writes"), ("M", "memory_events")))
A, Q, L = modes("R", Mode.ACQ), modes("R", Mode.ACQ_PC), modes("W", Mode.REL)
RSC, WSC = modes("R", Mode.SC), modes("W", Mode.SC)

#: (sc-per-loc): ``(po|loc ∪ rf ∪ co ∪ fr)+`` is irreflexive — coherence,
#: shared by every model in the paper (Section 5.2).
SC_PER_LOC = irreflexive(union(po_loc, rf, co, fr).plus())
#: (atomicity): no write intervenes inside a successful RMW.
ATOMICITY = empty(rmw & (fre @ coe))
#: What the search's rf prunes, RMW cut and forced coherence stand on.
_SHARED = frozenset({SC_PER_LOC.text, ATOMICITY.text})


# ----------------------------------------------------------------------
# The evaluator
# ----------------------------------------------------------------------
_APPLY = {"-": operator.sub, "*": Rel.cross, "+": Rel.plus,
          "^-1": Rel.inv, "[]": Rel.identity, "dom": Rel.domain,
          "codom": Rel.codomain,
          "irreflexive": Rel.is_irreflexive, "empty": operator.not_}


def operands(term: Term, unclose: bool = False) -> list[Term]:
    """The operands of a nest of unions; with ``unclose``, a closure
    ``r+`` contributes the operands of ``r`` (sound inside acyclic)."""
    if term.op == "|" or (unclose and term.op == "+"):
        return [o for a in term.args for o in operands(a, unclose)]
    return [term]


def _split(axiom: Term):
    """An acyclic axiom (``irreflexive(r+)`` counts as ``acyclic(r)``)
    as its static operands joined into one term (None when it has
    none) and its communication operands; None for any other axiom."""
    rel = axiom.args[0]
    if axiom.op != "acyclic" and not (axiom.op == "irreflexive"
                                      and rel.op == "+"):
        return None
    parts = operands(rel, unclose=True)
    static = [p for p in parts if not p.comm]
    return (union(*static) if static else None), \
        [p for p in parts if p.comm]


def _compile(term: Term, once: bool = True, split=None):
    """``ex -> value`` for ``term``.  With ``once``, a static compound is
    computed once per skeleton (memoized under the term object).  An
    acyclic axiom is judged on the union of its :func:`_split` parts
    (``split`` when given)."""
    op, args = term.op, term.args
    if op == "leaf":
        return args[0]
    if once and not term.comm:
        plain = _compile(term, once=False)
        return lambda ex: ex.invariant(term, plain, ex)
    if term.sort == "axiom" and (split := split or _split(term)):
        static, comm = split
        parts = [_compile(a, once) for a in ([static] if static else [])
                 + comm]
        return lambda ex: union_rels([part(ex) for part in parts]) \
            .is_acyclic()
    if op == "|" and term.sort == "rel":
        args = operands(term)
    parts = [_compile(a, once) for a in args]
    first = parts[0]
    if op == "|":
        join = union_rels if term.sort == "rel" \
            else lambda sets: frozenset().union(*sets)
        return lambda ex: join([part(ex) for part in parts])
    if op == ";":
        guards = [_compile(a.args[0], once) for a in args if a.op == "[]"]
        rest = parts[1:]

        def compose(ex):
            for guard in guards:   # an empty [S] empties the chain
                if not guard(ex):
                    return Rel.empty()
            rel = first(ex)
            for part in rest:
                if not rel:
                    break
                rel = rel @ part(ex)
            return rel
        return compose
    apply, second = _APPLY.get(op), parts[-1]
    if op == "&":   # an empty left side skips the right
        return lambda ex: (left & second(ex)) if (left := first(ex)) \
            else left
    if len(parts) == 1:
        return lambda ex: apply(first(ex))
    return lambda ex: apply(first(ex), second(ex))


def evaluate(term: Term, ex: Execution):
    """One term's value on one execution: a relation, an event set, or
    (for an axiom) whether it holds."""
    return _compile(term)(ex)


def monotone(term: Term) -> bool:
    """True when no rf/co relation occurs on the right of a ``-``: the
    term only grows as rf and co grow."""
    if term.op == "leaf":
        return True
    if term.op == "-" and term.args[1].comm:
        return False
    return all(monotone(a) for a in term.args)


class MemoryModel:
    """A consistency predicate given as data: a stable ``name`` (the
    cache identifier), the program level ``arch`` it judges, and the
    ``axioms`` every consistent execution satisfies."""

    def __init__(self, name: str, arch: Arch, axioms: tuple[Term, ...]):
        if any(ax.sort != "axiom" for ax in axioms):
            raise TypeError(f"{name}: every axiom must be an axiom term")
        self.name, self.arch, self.axioms = name, arch, tuple(axioms)
        checks, plans, self._residue = [], [], []
        for ax in self.axioms:
            split = _split(ax)
            checks.append(_compile(ax, split=split))
            if split and all(c.op == "leaf" for c in split[1]):
                static, leaves = split
                plans.append((static and _compile(static),
                              frozenset(c.text for c in leaves)))
                continue
            rel = ax.args[0]
            guarded = ax.op == "empty" and rel.op == "&" \
                and not rel.args[0].comm
            self._residue.append(
                (_compile(rel.args[0]) if guarded else None, checks[-1]))
        #: Per axiom :func:`_split` into a static term and bare leaves:
        #: (that term's evaluator or None, the leaf names).
        self.plans, self._checks = tuple(plans), tuple(checks)
        #: May the staged/DPOR enumerators run :meth:`rf_stage_consistent`
        #: on partial rf and forced co?  Every axiom monotone in rf, co,
        #: and the two axioms the search's prunes assume both stated.
        self.supports_staged = all(monotone(ax) for ax in self.axioms) \
            and _SHARED <= {ax.text for ax in self.axioms}

    def is_consistent(self, ex: Execution) -> bool:
        """True when ``ex`` satisfies every axiom of the model."""
        for holds in self._checks:
            if not holds(ex):
                return False
        return True

    def rf_stage_consistent(self, ex: Execution) -> bool:
        """Precheck for the staged/DPOR enumerators: ``ex.rf`` may cover
        only a prefix of the reads and ``ex.co`` only the forced
        coherence edges.  With ``supports_staged``, rejecting here
        rejects every extension; a pass is never final (a candidate
        still needs :meth:`is_consistent` once its co is total)."""
        return self.is_consistent(ex)

    def prefix_judge(self, ex: Execution):
        """How the rf search judges a prefix of ``ex``'s combo: the
        :attr:`plans`, and the checks left to run on a prefix execution
        — every other axiom unless it is ``empty(S & X)`` with ``S``
        static and empty on ``ex``.  A subclass that overrides how
        executions are judged gets no plans and its own hook."""
        cls, base = type(self), MemoryModel
        if cls.rf_stage_consistent is not base.rf_stage_consistent \
                or cls.is_consistent is not base.is_consistent:
            return (), (self.rf_stage_consistent,)
        return self.plans, tuple(check for guard, check in self._residue
                                 if guard is None or guard(ex))

    def fingerprint(self) -> str:
        """Content identity for behaviour caching: class (a subclass may
        override a method), name, arch and the axioms' canonical text —
        a variant reusing a standard name gets its own key."""
        cls = type(self)
        text = "\n".join(ax.text for ax in self.axioms)
        return hashlib.sha256(
            f"{cls.__module__}.{cls.__qualname__}|{self.name}"
            f"|{self.arch.value}|{text}".encode()).hexdigest()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
