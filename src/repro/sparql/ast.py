"""SPARQL BGP query AST.

The paper's query dialect is the basic graph pattern (BGP) subset of
SPARQL — conjunctive queries over triple patterns (Section II-A).  A
:class:`BGPQuery` carries:

* ``patterns`` — the conjunction of triple patterns (empty only in a
  reformulation variant whose atoms the schema answered: its one
  solution is ``preset``);
* ``distinguished`` — the projected (SELECT) variables, i.e. the head
  of the conjunctive query; other variables are existential;
* ``preset`` — variable bindings fixed *before* evaluation.  Empty for
  user queries; the reformulation engine uses presets to remember the
  schema constants it bound a distinguished variable to;
* ``distinct`` / ``limit`` — the evaluation modifiers supported by the
  dialect.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence

from ..rdf.terms import Variable
from ..rdf.triples import Substitution, TriplePattern

__all__ = ["BGPQuery", "canonical_form"]


class BGPQuery:
    """An immutable SPARQL basic-graph-pattern (conjunctive) query."""

    __slots__ = ("patterns", "distinguished", "preset", "distinct", "limit", "_hash")

    def __init__(self, patterns: Sequence[TriplePattern],
                 distinguished: Optional[Sequence[Variable]] = None,
                 preset: Optional[Substitution] = None,
                 distinct: bool = False,
                 limit: Optional[int] = None):
        pattern_tuple = tuple(patterns)
        if not pattern_tuple and distinguished is None:
            # an explicit head may stand on presets alone: reformulation
            # leaves no pattern when the schema answers every atom
            raise ValueError("a BGP query needs at least one triple pattern")
        all_variables: set = set()
        for pattern in pattern_tuple:
            all_variables |= pattern.variables()
        if distinguished is None:
            # SELECT *: every variable, in first-appearance order
            ordered: List[Variable] = []
            for pattern in pattern_tuple:
                for term in pattern:
                    if isinstance(term, Variable) and term not in ordered:
                        ordered.append(term)
            distinguished_tuple = tuple(ordered)
        else:
            distinguished_tuple = tuple(distinguished)
            preset_vars = set(preset or ())
            unknown = set(distinguished_tuple) - all_variables - preset_vars
            if unknown:
                names = ", ".join(sorted(str(v) for v in unknown))
                raise ValueError(f"distinguished variables not in query: {names}")
        object.__setattr__(self, "patterns", pattern_tuple)
        object.__setattr__(self, "distinguished", distinguished_tuple)
        object.__setattr__(self, "preset", dict(preset) if preset else {})
        object.__setattr__(self, "distinct", distinct)
        object.__setattr__(self, "limit", limit)
        object.__setattr__(self, "_hash", hash((
            pattern_tuple, distinguished_tuple,
            tuple(sorted(self.preset.items(), key=lambda kv: kv[0].name)),
            distinct, limit,
        )))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BGPQuery is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, BGPQuery)
                and other.patterns == self.patterns
                and other.distinguished == self.distinguished
                and other.preset == self.preset
                and other.distinct == self.distinct
                and other.limit == self.limit)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<BGPQuery {self.to_sparql()!r}>"

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    def variables(self) -> FrozenSet[Variable]:
        result: set = set()
        for pattern in self.patterns:
            result |= pattern.variables()
        return frozenset(result)

    def existential_variables(self) -> FrozenSet[Variable]:
        """Variables that are not projected (non-distinguished)."""
        return self.variables() - frozenset(self.distinguished)

    def arity(self) -> int:
        """Number of projected variables."""
        return len(self.distinguished)

    def size(self) -> int:
        """Number of triple patterns (atoms)."""
        return len(self.patterns)

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------

    def substitute(self, binding: Substitution,
                   record_preset: bool = True) -> "BGPQuery":
        """Bind variables to constants across the whole query.

        When a *distinguished* variable is bound, the binding is added
        to ``preset`` (with ``record_preset=True``) so evaluation still
        reports a value for it — this is how reformulation binds a
        property/class variable to a schema constant without losing it
        from the answer.
        """
        new_patterns = [p.substitute(binding) for p in self.patterns]
        new_preset = dict(self.preset)
        if record_preset:
            for variable, value in binding.items():
                if variable in self.distinguished:
                    new_preset[variable] = value
        return BGPQuery(new_patterns, self.distinguished, new_preset,
                        self.distinct, self.limit)

    def replace_pattern(self, index: int, pattern: TriplePattern) -> "BGPQuery":
        """A copy with the atom at ``index`` replaced."""
        new_patterns = list(self.patterns)
        new_patterns[index] = pattern
        return BGPQuery(new_patterns, self.distinguished, self.preset,
                        self.distinct, self.limit)

    def with_modifiers(self, distinct: Optional[bool] = None,
                       limit: Optional[int] = None) -> "BGPQuery":
        return BGPQuery(self.patterns, self.distinguished, self.preset,
                        self.distinct if distinct is None else distinct,
                        self.limit if limit is None else limit)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------

    def to_sparql(self) -> str:
        """Render back to SPARQL surface syntax."""
        head = " ".join(str(v) for v in self.distinguished) or "*"
        distinct = "DISTINCT " if self.distinct else ""
        body = " ".join(p.n3() for p in self.patterns)
        text = f"SELECT {distinct}{head} WHERE {{ {body} }}"
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        return text


def canonical_form(query: BGPQuery) -> tuple:
    """A hashable key identifying ``query`` up to renaming of its
    existential variables and reordering of its atoms.

    Used by the reformulation engine to deduplicate rewritings that
    differ only in the fresh variables introduced along the way.  The
    renaming is a deterministic first-occurrence scheme over sorted
    atoms — a cheap heuristic, not full graph canonicalization: two
    queries with the same key are always equivalent, occasional
    distinct keys for equivalent queries merely leave a duplicate
    conjunct in the union (harmless under set semantics).
    """
    existential = query.existential_variables()

    def shape_key(pattern: TriplePattern) -> tuple:
        parts = []
        for term in pattern:
            if isinstance(term, Variable) and term in existential:
                parts.append(("?", ""))
            else:
                parts.append(("t",) + term.sort_key())
        return tuple(parts)

    ordered = sorted(query.patterns, key=shape_key)
    renaming: Dict[Variable, str] = {}
    atoms: List[tuple] = []
    for pattern in ordered:
        atom = []
        for term in pattern:
            if isinstance(term, Variable) and term in existential:
                if term not in renaming:
                    renaming[term] = f"_e{len(renaming)}"
                atom.append(("?", renaming[term]))
            else:
                atom.append(("t",) + term.sort_key())
        atoms.append(tuple(atom))
    atoms.sort()
    preset_key = tuple(sorted(
        (variable.name,) + value.sort_key()
        for variable, value in query.preset.items()
    ))
    return (tuple(atoms), tuple(v.name for v in query.distinguished), preset_key)
