"""Block-at-a-time join operators over encoded triple indexes.

The reference evaluator (:mod:`repro.sparql.evaluator` on a hash
graph) is a term-level index nested-loop join: every intermediate row
costs a decoded :class:`~repro.rdf.triples.Triple`, a pattern match
and two dictionary copies.  This module compiles a BGP once into a
*plan over identifier space* — variables become integer slots,
constants become dictionary identifiers — and executes it with three
operators:

* **scan** — an index range lookup extending the current bindings; the
  universal fallback, correct on every backend and index layout;
* **sorted intersection** — patterns whose only free variable is the
  same ``?v`` and whose bound positions form a sorted-run prefix are
  answered by intersecting their sorted suffix runs: a merge for two
  patterns, the k-way :func:`~repro.kernels.intersect_many` for more;
* **interval scan** — an atom whose position ranges over identifier
  intervals (:class:`IntervalPattern`, the semantic encoding's
  collapsed unions) reads one contiguous range per interval.

Operator selection uses the existing optimizer statistics:
:func:`~repro.sparql.optimizer.order_patterns` fixes the join order,
then every maximal group of order-compatible single-free-variable
patterns becomes one intersection step.  Patterns that are not
order-compatible (ablated index layouts, repeated variables) fall
back to scans, so plans exist for every query on every layout.

Execution is block-at-a-time: whole lists of bindings pass through
each step's ``extend_block``.  Scans read zero-copy run views
(:meth:`~repro.rdf.columnar.ColumnarTripleIndex.values_block_order`
and friends), intersections hand those views to the
:mod:`repro.kernels` primitives, and only the binding extension itself
remains a Python loop: one over flat run views, one over the triple
streams of merging scans (ranges with pending delta state) and hash
indexes.  Intermediate bindings are flat integer lists; only terms
leaving the pipeline are decoded.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Protocol, Sequence, Tuple, Union)

from .. import kernels
from ..cancellation import CancellationToken, current_token
from ..obs import get_metrics, span
from ..rdf.columnar import ColumnarTripleIndex
from ..rdf.graph import Graph
from ..rdf.terms import Term, Variable
from ..rdf.triples import Substitution, TriplePattern
from .ast import BGPQuery
from .bindings import ResultSet
from .optimizer import order_patterns

__all__ = ["BGPPlan", "IntervalPattern", "compile_bgp", "compile_mixed_bgp",
           "iter_bindings", "evaluate_columnar"]

#: An encoded binding: one integer (or None) per variable slot.
EncodedBinding = List[Optional[int]]

#: Compiled atom position: (is_variable, identifier-or-slot).
_Position = Tuple[bool, int]

#: seeds pulled per driver chunk / re-chunk cap between block steps
_BLOCK_SEEDS = 256
_BLOCK_CAP = 4096

#: rows emitted between cancellation polls inside block loops
_POLL_BLOCK = 1024


def _emit_values(binding: EncodedBinding, slot: int, values,
                 out: List[EncodedBinding],
                 token: Optional[CancellationToken]) -> int:
    """Extend ``binding`` once per value in a flat buffer; the shared
    inner loop of the block scan/intersect paths.  Polls are strided:
    one check per :data:`_POLL_BLOCK` emitted rows."""
    append = out.append
    if token is None:
        for value in values:
            extended = binding[:]
            extended[slot] = value
            append(extended)
    else:
        for start in range(0, len(values), _POLL_BLOCK):
            token.raise_if_cancelled()
            for value in values[start:start + _POLL_BLOCK]:
                extended = binding[:]
                extended[slot] = value
                append(extended)
    return len(values)


def _emit_rows(binding: EncodedBinding, view, checks, assigns, dup_checks,
               out: List[EncodedBinding],
               token: Optional[CancellationToken],
               scanned: int) -> Tuple[int, int]:
    """Generic row loop over a flat ``3*n`` triple view: filter by
    ``checks``, extend by ``assigns``.  Returns ``(emitted, scanned)``
    so callers carry the poll stride across views."""
    emitted = 0
    append = out.append
    for base in range(0, len(view), 3):
        scanned += 1
        if token is not None and scanned & 0xFF == 0:
            token.raise_if_cancelled()
        if checks and any(view[base + j] != value for j, value in checks):
            continue
        extended = binding[:]
        for j, slot in assigns:
            extended[slot] = view[base + j]
        if dup_checks and any(view[base + j] != extended[slot]
                              for j, slot in dup_checks):
            continue
        emitted += 1
        append(extended)
    return emitted, scanned


def _emit_triples(binding: EncodedBinding,
                  triples: Iterable[Tuple[int, int, int]], checks, assigns,
                  dup_checks, out: List[EncodedBinding],
                  token: Optional[CancellationToken],
                  scanned: int) -> Tuple[int, int]:
    """:func:`_emit_rows` over a stream of triples rather than a flat
    view: merging scans over delta state and hash-index lookups yield
    tuples, and flattening them into a buffer first costs more than
    this loop does."""
    emitted = 0
    append = out.append
    for t in triples:
        scanned += 1
        if token is not None and scanned & 0xFF == 0:
            token.raise_if_cancelled()
        if checks and any(t[j] != value for j, value in checks):
            continue
        extended = binding[:]
        for j, slot in assigns:
            extended[slot] = t[j]
        if dup_checks and any(t[j] != extended[slot]
                              for j, slot in dup_checks):
            continue
        emitted += 1
        append(extended)
    return emitted, scanned


def _split_positions(positions: Sequence[_Position], bound_slots: frozenset,
                     skip: Optional[int] = None
                     ) -> Tuple[List[Optional[int]], List[Tuple[int, int]],
                                List[Tuple[int, int]], List[Tuple[int, int]]]:
    """An atom's positions for a backend-generic ``match`` lookup:
    ``(template, bound, assigns, dup_checks)``, the last three as
    ``(position, slot)`` pairs; position ``skip`` is left to the
    caller."""
    template: List[Optional[int]] = [None, None, None]
    bound: List[Tuple[int, int]] = []
    assigns: List[Tuple[int, int]] = []
    dup_checks: List[Tuple[int, int]] = []
    seen: set = set()
    for position, (is_var, value) in enumerate(positions):
        if position == skip:
            continue
        if not is_var:
            template[position] = value
        elif value in bound_slots:
            bound.append((position, value))
        elif value in seen:
            dup_checks.append((position, value))
        else:
            seen.add(value)
            assigns.append((position, value))
    return template, bound, assigns, dup_checks


def _split_suffix(positions: Sequence[_Position], permutation,
                  start: int, bound_slots: frozenset
                  ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]],
                             List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The permuted positions ``start..2`` of a sorted-run scan as
    ``(const_checks, bound_checks, assigns, dup_checks)`` — pairs of
    (permuted position, identifier-or-slot)."""
    const_checks: List[Tuple[int, int]] = []
    bound_checks: List[Tuple[int, int]] = []
    assigns: List[Tuple[int, int]] = []
    dup_checks: List[Tuple[int, int]] = []
    seen: set = set()
    for j in range(start, 3):
        is_var, value = positions[permutation[j]]
        if not is_var:
            const_checks.append((j, value))
        elif value in bound_slots:
            bound_checks.append((j, value))
        elif value in seen:
            dup_checks.append((j, value))
        else:
            seen.add(value)
            assigns.append((j, value))
    return const_checks, bound_checks, assigns, dup_checks


class IntervalPattern:
    """An atom whose ``position`` matches any identifier in ``ranges``.

    The semantic interval encoding (:mod:`repro.reasoning.encoding`)
    collapses a reformulation's per-atom union — "this class or any of
    its subclasses", "any property with this effective domain" — into
    identifier ranges at a single position.  ``pattern`` is the atom's
    skeleton: its other two positions compile as usual (variables,
    constants, repeats); the term at ``position`` is only advisory (the
    original class/property constant, kept for EXPLAIN output).
    ``members`` lists the same identifiers explicitly — the fallback
    set used when no sorted run can serve the range (hash backends,
    ablated layouts).
    """

    __slots__ = ("pattern", "position", "ranges", "members")

    def __init__(self, pattern: TriplePattern, position: int,
                 ranges: Tuple[Tuple[int, int], ...],
                 members: Tuple[int, ...]):
        self.pattern = pattern
        self.position = position
        self.ranges = ranges
        self.members = members

    def __repr__(self) -> str:
        return (f"IntervalPattern({self.pattern!r}, position="
                f"{self.position}, ranges={self.ranges!r})")


class _Step(Protocol):
    """What every plan step implements: extend a block of bindings.

    ``counts`` accumulates ``[scans, intersections, bindings, interval
    range scans, interval member expansions]``; ``token`` is the armed
    serving deadline, polled inside the step's own loops.
    """

    __slots__ = ()

    def extend_block(self, graph: Graph, block: List[EncodedBinding],
                     counts: List[int],
                     token: Optional[CancellationToken]
                     ) -> List[EncodedBinding]: ...


class _ScanStep:
    """Index-nested-loop step: range-scan one atom, extend the binding.

    Backend-generic — drives the index's eight-shape ``match``.
    """

    __slots__ = ("template", "bound", "assigns", "dup_checks", "pattern")

    def __init__(self, positions: Sequence[_Position], bound_slots: frozenset,
                 pattern: TriplePattern):
        (self.template, self.bound, self.assigns,
         self.dup_checks) = _split_positions(positions, bound_slots)
        self.pattern = pattern

    def extend_block(self, graph: Graph, block: List[EncodedBinding],
                     counts: List[int],
                     token: Optional[CancellationToken]
                     ) -> List[EncodedBinding]:
        out: List[EncodedBinding] = []
        match = graph.index.match
        scanned = 0
        for binding in block:
            args = list(self.template)
            for position, slot in self.bound:
                args[position] = binding[slot]
            counts[0] += 1
            emitted, scanned = _emit_triples(
                binding, match(args[0], args[1], args[2]), (),
                self.assigns, self.dup_checks, out, token, scanned)
            counts[2] += emitted
        return out


class _SortedScanStep:
    """Range-scan step specialized to one sorted run.

    On columnar graphs the scan order depends only on which positions
    are bound — known at compile time — so the order choice, the
    permutation and the residual checks are all resolved here once,
    and the inner loop works directly on permuted triples from the
    run: one binary-searched range per execution, no per-lookup order
    selection and no back-permutation of components nobody reads.
    """

    __slots__ = ("order_index", "prefix_spec", "const_checks",
                 "bound_checks", "assigns", "dup_checks", "value_slot",
                 "pattern")

    def __init__(self, index: ColumnarTripleIndex,
                 positions: Sequence[_Position], bound_slots: frozenset,
                 pattern: TriplePattern):
        bound_positions = frozenset(
            i for i, (is_var, value) in enumerate(positions)
            if not is_var or value in bound_slots)
        order_index, prefix_len = index.best_order(bound_positions)
        permutation = index.permutation(order_index)
        self.order_index = order_index
        # prefix components in permuted order: constants or bound slots
        self.prefix_spec = tuple(positions[permutation[j]]
                                 for j in range(prefix_len))
        (self.const_checks, self.bound_checks, self.assigns,
         self.dup_checks) = _split_suffix(positions, permutation,
                                          prefix_len, bound_slots)
        # the dominant rule-engine shape — two bound prefix positions,
        # one free suffix value — reads the index's value blocks
        self.value_slot = (self.assigns[0][1]
                           if (prefix_len == 2 and len(self.assigns) == 1
                               and not self.const_checks
                               and not self.bound_checks
                               and not self.dup_checks)
                           else None)
        self.pattern = pattern

    def extend_block(self, graph: Graph, block: List[EncodedBinding],
                     counts: List[int],
                     token: Optional[CancellationToken]
                     ) -> List[EncodedBinding]:
        """Block scan: one zero-copy run view per binding, no
        per-triple generator machinery.  Bindings whose range has
        pending delta state read the merging scan instead."""
        index = graph.index
        assert isinstance(index, ColumnarTripleIndex)
        out: List[EncodedBinding] = []
        order_index = self.order_index
        prefix_spec = self.prefix_spec
        slot = self.value_slot
        if slot is not None:
            (a_var, a_val), (b_var, b_val) = prefix_spec
            if not a_var:
                # constant leading component (the dominant shape —
                # it's usually the predicate): bisect its span once
                # for the whole block
                read = index.values_reader_order(order_index, a_val)
                for binding in block:
                    values = read(binding[b_val] if b_var else b_val)
                    counts[0] += 1
                    counts[2] += _emit_values(binding, slot, values, out,
                                              token)
                return out
            # leading component is a bound variable: consecutive
            # bindings usually repeat it (blocks are binding-major),
            # so memoize one reader per distinct value seen
            make_reader = index.values_reader_order
            readers: Dict[int, Callable[[int], Any]] = {}
            for binding in block:
                first = binding[a_val]
                read = readers.get(first)
                if read is None:
                    read = readers[first] = make_reader(order_index, first)
                values = read(binding[b_val] if b_var else b_val)
                counts[0] += 1
                counts[2] += _emit_values(binding, slot, values, out, token)
            return out
        view_order = index.view_order
        const_checks = self.const_checks
        bound_checks = self.bound_checks
        assigns = self.assigns
        dup_checks = self.dup_checks
        scanned = 0
        for binding in block:
            prefix = tuple(binding[value] if is_var else value
                           for is_var, value in prefix_spec)
            view = view_order(order_index, prefix)
            counts[0] += 1
            checks = const_checks
            if bound_checks:
                checks = checks + [(j, binding[s]) for j, s in bound_checks]
            if view is None:
                emitted, scanned = _emit_triples(
                    binding, index.scan_order(order_index, prefix), checks,
                    assigns, dup_checks, out, token, scanned)
                counts[2] += emitted
                continue
            if not checks and not dup_checks and len(assigns) == 1:
                j, free_slot = assigns[0]
                counts[2] += _emit_values(binding, free_slot, view[j::3],
                                          out, token)
                continue
            emitted, scanned = _emit_rows(binding, view, checks, assigns,
                                          dup_checks, out, token, scanned)
            counts[2] += emitted
        return out


class _IntersectStep:
    """Sorted intersection of the suffix runs of k >= 2 atoms.

    Each cursor is one atom reduced to the sorted run of candidate
    values for the shared variable; the step emits exactly the values
    on which all runs agree.
    """

    __slots__ = ("slot", "cursors", "patterns")

    def __init__(self, slot: int,
                 cursors: Sequence[Tuple[int, Tuple[_Position, _Position]]],
                 patterns: Sequence[TriplePattern]):
        self.slot = slot
        self.cursors = tuple(cursors)
        self.patterns = tuple(patterns)

    def extend_block(self, graph: Graph, block: List[EncodedBinding],
                     counts: List[int],
                     token: Optional[CancellationToken]
                     ) -> List[EncodedBinding]:
        """Block intersection: fetch every cursor's value run as one
        flat buffer and hand the whole set to the intersection
        kernel — no per-value seek loop."""
        index = graph.index
        assert isinstance(index, ColumnarTripleIndex)
        out: List[EncodedBinding] = []
        slot = self.slot
        intersect = kernels.intersect_many
        # one resolved cursor per atom: (reader-or-None, spec parts);
        # constant leading components bisect their span once per block
        resolved = []
        for order_index, prefix_spec in self.cursors:
            (a_var, a_val), (b_var, b_val) = prefix_spec
            read = (index.values_reader_order(order_index, a_val)
                    if not a_var else None)
            resolved.append((read, order_index, a_val, b_var, b_val))
        values_block = index.values_block_order
        for binding in block:
            counts[1] += 1
            buffers = [
                read(binding[b_val] if b_var else b_val) if read is not None
                else values_block(order_index, binding[a_val],
                                  binding[b_val] if b_var else b_val)
                for read, order_index, a_val, b_var, b_val in resolved]
            common = intersect(buffers, token)
            counts[2] += _emit_values(binding, slot, common, out, token)
        return out


class _IntervalSortedScanStep:
    """Range-scan step for one interval atom over a sorted run.

    The bound positions form the run prefix; the interval position
    comes right after it, so every ``(lo, hi)`` range is one binary-
    searched contiguous view.  Built by :meth:`try_build` only when the
    layout has such a run; otherwise the member-expansion fallback
    executes the atom.
    """

    __slots__ = ("order_index", "prefix_spec", "ranges", "const_checks",
                 "bound_checks", "assigns", "dup_checks", "pattern")

    def __init__(self, order_index: int, prefix_spec, ranges, const_checks,
                 bound_checks, assigns, dup_checks,
                 pattern: TriplePattern):
        self.order_index = order_index
        self.prefix_spec = prefix_spec
        self.ranges = ranges
        self.const_checks = const_checks
        self.bound_checks = bound_checks
        self.assigns = assigns
        self.dup_checks = dup_checks
        self.pattern = pattern

    @classmethod
    def try_build(cls, index: ColumnarTripleIndex,
                  positions: Sequence[_Position], spec: "IntervalPattern",
                  bound_slots: frozenset
                  ) -> Optional["_IntervalSortedScanStep"]:
        ranged = spec.position
        bound_positions = [
            i for i, (is_var, value) in enumerate(positions)
            if i != ranged and (not is_var or value in bound_slots)]
        order_index = index.order_for(bound_positions, ranged)
        if order_index is None:
            return None
        permutation = index.permutation(order_index)
        width = len(bound_positions)
        prefix_spec = tuple(positions[permutation[j]] for j in range(width))
        return cls(order_index, prefix_spec, spec.ranges,
                   *_split_suffix(positions, permutation, width + 1,
                                  bound_slots),
                   spec.pattern)

    def extend_block(self, graph: Graph, block: List[EncodedBinding],
                     counts: List[int],
                     token: Optional[CancellationToken]
                     ) -> List[EncodedBinding]:
        """Block interval scan: each ``(lo, hi)`` range is one
        contiguous zero-copy view (two binary searches), walked with
        the shared row loop."""
        index = graph.index
        assert isinstance(index, ColumnarTripleIndex)
        out: List[EncodedBinding] = []
        order_index = self.order_index
        range_view = index.range_view_order
        assigns = self.assigns
        dup_checks = self.dup_checks
        scanned = 0
        for binding in block:
            prefix = tuple(binding[value] if is_var else value
                           for is_var, value in self.prefix_spec)
            checks = self.const_checks
            if self.bound_checks:
                checks = checks + [(j, binding[s])
                                   for j, s in self.bound_checks]
            simple = (not checks and not dup_checks and len(assigns) == 1)
            for lo, hi in self.ranges:
                counts[3] += 1
                view = range_view(order_index, prefix, lo, hi)
                if view is None:
                    emitted, scanned = _emit_triples(
                        binding, index.scan_order_between(order_index,
                                                          prefix, lo, hi),
                        checks, assigns, dup_checks, out, token, scanned)
                    counts[2] += emitted
                    continue
                if simple:
                    j, free_slot = assigns[0]
                    counts[2] += _emit_values(binding, free_slot,
                                              view[j::3], out, token)
                    continue
                emitted, scanned = _emit_rows(binding, view, checks,
                                              assigns, dup_checks, out,
                                              token, scanned)
                counts[2] += emitted
        return out


class _IntervalMemberScanStep:
    """Member-expansion fallback for an interval atom.

    Executes the atom once per explicit member identifier through the
    backend-generic eight-shape ``match`` — correct on hash indexes
    and ablated columnar layouts, at point-lookup rather than
    range-scan cost.
    """

    __slots__ = ("template", "ranged_position", "members", "bound",
                 "assigns", "dup_checks", "pattern")

    def __init__(self, positions: Sequence[_Position],
                 spec: "IntervalPattern", bound_slots: frozenset):
        (self.template, self.bound, self.assigns,
         self.dup_checks) = _split_positions(positions, bound_slots,
                                             skip=spec.position)
        self.ranged_position = spec.position
        self.members = spec.members
        self.pattern = spec.pattern

    def extend_block(self, graph: Graph, block: List[EncodedBinding],
                     counts: List[int],
                     token: Optional[CancellationToken]
                     ) -> List[EncodedBinding]:
        out: List[EncodedBinding] = []
        ranged = self.ranged_position
        match = graph.index.match
        scanned = 0
        for binding in block:
            args = list(self.template)
            for position, slot in self.bound:
                args[position] = binding[slot]
            for member in self.members:
                counts[4] += 1
                args[ranged] = member
                emitted, scanned = _emit_triples(
                    binding, match(args[0], args[1], args[2]), (),
                    self.assigns, self.dup_checks, out, token, scanned)
                counts[2] += emitted
        return out


class _AlternativesStep:
    """Union of alternative sub-steps for one atom.

    A type atom under the interval encoding can need up to three
    branches (subclass interval, effective-domain interval,
    effective-range interval); each branch extends the binding
    independently and the downstream steps see their concatenation.
    Cross-branch duplicates are legal — the reformulation result set
    is DISTINCT by construction.
    """

    __slots__ = ("steps", "pattern")

    def __init__(self, steps: Sequence[_Step], pattern: TriplePattern):
        self.steps = tuple(steps)
        self.pattern = pattern

    def extend_block(self, graph: Graph, block: List[EncodedBinding],
                     counts: List[int],
                     token: Optional[CancellationToken]
                     ) -> List[EncodedBinding]:
        # per binding, so branch outputs interleave binding-major,
        # branch-minor
        out: List[EncodedBinding] = []
        for binding in block:
            single = [binding]
            for step in self.steps:
                out.extend(step.extend_block(graph, single, counts, token))
        return out


class BGPPlan:
    """A BGP compiled to identifier space: slots, steps, execution."""

    __slots__ = ("graph", "steps", "slot_of", "nslots", "empty")

    def __init__(self, graph: Graph, steps: Sequence[_Step],
                 slot_of: Dict[Variable, int], empty: bool):
        self.graph = graph
        self.steps = tuple(steps)
        self.slot_of = slot_of
        self.nslots = len(slot_of)
        self.empty = empty

    def scan_steps(self) -> int:
        return sum(1 for s in self.steps
                   if not isinstance(s, _IntersectStep))

    def intersect_steps(self) -> int:
        return sum(1 for s in self.steps if isinstance(s, _IntersectStep))

    def run(self, initial: Optional[EncodedBinding] = None
            ) -> Iterator[EncodedBinding]:
        """Stream every satisfying encoded binding.

        ``initial`` pre-binds slots; it is not mutated.
        """
        start = list(initial) if initial is not None else [None] * self.nslots
        return self.run_seeds((start,))

    def run_seeds(self, seeds: Iterable[EncodedBinding]
                  ) -> Iterator[EncodedBinding]:
        """Stream the satisfying extensions of every seed binding.

        The flattened :meth:`run_blocks` stream.  Seeds are never
        mutated (every step extends by copy).
        """
        token = current_token()  # serving deadline, if one is armed
        emitted = 0
        for block in self.run_blocks(seeds):
            if token is None:
                yield from block
                continue
            # consumers can cancel between pulls: poll while draining
            # the buffered block
            for binding in block:
                emitted += 1
                if emitted & 0x3F == 0:
                    token.raise_if_cancelled()
                yield binding

    def run_blocks(self, seeds: Iterable[EncodedBinding]
                   ) -> Iterator[List[EncodedBinding]]:
        """Stream the satisfying extensions of every seed as lists.

        The set-at-a-time entry point: the batch saturation engine
        pushes a whole delta relation of pivot bindings through the
        plan in one call, so per-execution bookkeeping (metrics flush,
        step setup) is paid once per block rather than once per seed.
        """
        if self.empty:
            return
        # [scans, intersections, bindings, interval range scans,
        #  interval member expansions]
        counts = [0, 0, 0, 0, 0]
        token = current_token()
        try:
            if not self.steps:
                passthrough = list(seeds)
                if passthrough:
                    yield passthrough
                return
            yield from self._drive_blocks(seeds, counts, token)
        finally:
            self._flush_counts(counts)

    def _drive_blocks(self, seeds: Iterable[EncodedBinding],
                      counts: List[int],
                      token: Optional[CancellationToken]
                      ) -> Iterator[List[EncodedBinding]]:
        """Push binding lists through the steps level by level.

        Finishing each level before the next keeps the depth-first
        output order (steps emit extensions binding-major,
        value-minor); oversized intermediate blocks re-chunk so memory
        stays bounded and LIMIT-style consumers never overpay by more
        than a chunk.
        """
        graph = self.graph
        steps = self.steps
        depth = len(steps)

        def advance(at: int, block: List[EncodedBinding]
                    ) -> Iterator[List[EncodedBinding]]:
            # each extend_block polls through its own scan loops
            while at < depth and block:  # sc: allow(SC303): depth-bounded
                block = steps[at].extend_block(graph, block, counts, token)
                at += 1
                if at < depth and len(block) > _BLOCK_CAP:
                    for start in range(0, len(block), _BLOCK_CAP):
                        yield from advance(at,
                                           block[start:start + _BLOCK_CAP])
                    return
            if block:
                yield block

        iterator = iter(seeds)
        while True:  # sc: allow(SC303): polls once per seed chunk below
            if token is not None:
                token.raise_if_cancelled()
            chunk = list(islice(iterator, _BLOCK_SEEDS))
            if not chunk:
                return
            yield from advance(0, chunk)

    def _flush_counts(self, counts: List[int]) -> None:
        metrics = get_metrics()
        metrics.counter("joins.scan_steps").inc(counts[0])
        metrics.counter("joins.intersect_steps").inc(counts[1])
        metrics.counter("joins.intermediate_bindings").inc(counts[2])
        if counts[3]:
            metrics.counter("encoding.range_scans").inc(counts[3])
        if counts[4]:
            metrics.counter("encoding.member_scans").inc(counts[4])


def _compile_positions(pattern: TriplePattern, slot_of: Dict[Variable, int],
                       lookup: Callable[[Term], Optional[int]]
                       ) -> Optional[Tuple[_Position, _Position, _Position]]:
    """Encode one atom; None when a constant is unknown (no matches)."""
    compiled: List[_Position] = []
    for term in pattern:
        if isinstance(term, Variable):
            slot = slot_of.setdefault(term, len(slot_of))
            compiled.append((True, slot))
        else:
            identifier = lookup(term)
            if identifier is None:
                return None
            compiled.append((False, identifier))
    return (compiled[0], compiled[1], compiled[2])


def _intersect_cursor(index: ColumnarTripleIndex,
                      positions: Sequence[_Position], slot: int
                      ) -> Optional[Tuple[int, Tuple[_Position, _Position]]]:
    """Reduce an atom to a sorted cursor over ``slot``'s candidates,
    or None when the atom is not order-compatible."""
    free_positions = [i for i, (is_var, value) in enumerate(positions)
                      if is_var and value == slot]
    if len(free_positions) != 1:
        return None  # repeated free variable: scan-and-filter instead
    free = free_positions[0]
    bound_positions = [i for i in range(3) if i != free]
    order_index = index.order_for(bound_positions, free)
    if order_index is None:
        return None  # ablated layout: no run has the needed prefix
    permutation = index.permutation(order_index)
    prefix_spec = (positions[permutation[0]], positions[permutation[1]])
    return (order_index, prefix_spec)


def _free_slots(positions: Sequence[_Position],
                bound_slots: frozenset) -> frozenset:
    return frozenset(value for is_var, value in positions
                     if is_var and value not in bound_slots)


def compile_bgp(graph: Graph, patterns: Sequence[TriplePattern],
                optimize: bool = True,
                pre_bound: Sequence[Variable] = ()) -> BGPPlan:
    """Compile ``patterns`` into an executable identifier-space plan.

    ``pre_bound`` names variables the caller will bind in the initial
    binding (their slots come first, in the given order).  Join order
    comes from the optimizer's statistics; on columnar backends,
    order-compatible groups become sorted intersection steps.  This is
    :func:`compile_mixed_bgp` with every atom its own single spec.
    """
    return compile_mixed_bgp(graph, [(pattern, (pattern,))
                                     for pattern in patterns],
                             optimize, pre_bound)


#: A compiled atom spec: ("plain" | "interval", positions, spec).
_CompiledSpec = Tuple[str, Tuple[_Position, _Position, _Position], object]


def _compile_interval_positions(spec: IntervalPattern,
                                slot_of: Dict[Variable, int],
                                lookup: Callable[[Term], Optional[int]]
                                ) -> Optional[_CompiledSpec]:
    """Encode an interval atom's skeleton; None when unsatisfiable."""
    if not spec.members:
        return None
    compiled: List[_Position] = []
    for position, term in enumerate(spec.pattern):
        if position == spec.position:
            compiled.append((False, -1))  # placeholder: never read
        elif isinstance(term, Variable):
            compiled.append((True, slot_of.setdefault(term, len(slot_of))))
        else:
            identifier = lookup(term)
            if identifier is None:
                return None
            compiled.append((False, identifier))
    return ("interval", (compiled[0], compiled[1], compiled[2]), spec)


def _spec_step(index, columnar: bool, compiled: _CompiledSpec,
               bound: frozenset) -> _Step:
    kind, positions, spec = compiled
    if kind == "plain":
        assert isinstance(spec, TriplePattern)
        return (_SortedScanStep(index, positions, bound, spec)
                if columnar else _ScanStep(positions, bound, spec))
    assert isinstance(spec, IntervalPattern)
    if columnar:
        step = _IntervalSortedScanStep.try_build(index, positions, spec,
                                                 bound)
        if step is not None:
            return step
    return _IntervalMemberScanStep(positions, spec, bound)


def _plain_positions(compiled_specs: List[_CompiledSpec]
                     ) -> Optional[Tuple[_Position, _Position, _Position]]:
    """The positions of an atom compiled to one plain spec, else None —
    only such atoms can join an intersection group."""
    if len(compiled_specs) == 1 and compiled_specs[0][0] == "plain":
        return compiled_specs[0][1]
    return None


def compile_mixed_bgp(graph, groups: Sequence[
        Tuple[TriplePattern, Sequence[Union[TriplePattern, IntervalPattern]]]],
        optimize: bool = True,
        pre_bound: Sequence[Variable] = ()) -> BGPPlan:
    """Compile a BGP whose atoms may carry interval-encoded specs.

    ``groups`` pairs each original atom (the *representative*, used
    for join ordering and slot naming) with the specs whose matches
    union to the atom's answers: the atom itself
    (:func:`compile_bgp`), its reformulation's alternatives, or
    :func:`repro.reasoning.encoding.encoded_atom_specs`' plain patterns
    and :class:`IntervalPattern` atoms.  Single plain specs on columnar
    graphs group into sorted intersection steps where
    order-compatible, else become scans; interval specs become
    range-scan steps (member-expansion on layouts without a fitting
    run); multi-spec atoms become a union step.  Only variables of the
    representative count as bound downstream — fresh variables inside
    one branch never escape it.  ``pre_bound`` is as in
    :func:`compile_bgp`.

    ``graph`` is anything with the read surface of
    :class:`~repro.rdf.graph.Graph` (in particular the encoded view).
    """
    slot_of: Dict[Variable, int] = {}
    for variable in pre_bound:
        slot_of.setdefault(variable, len(slot_of))
    lookup = graph.dictionary.lookup
    reps = [rep for rep, __ in groups]
    if optimize and len(groups) > 1:
        order = order_patterns(graph, reps, pre_bound=pre_bound)
    else:
        order = list(range(len(groups)))

    index = graph.index
    columnar = isinstance(index, ColumnarTripleIndex)
    work: List[Tuple[frozenset, TriplePattern, List[_CompiledSpec]]] = []
    empty = False
    for i in order:
        rep, specs = groups[i]
        # allocate the representative's slots first so every branch
        # shares them; branch-local fresh variables come after
        rep_slots = frozenset(
            slot_of.setdefault(term, len(slot_of))
            for term in rep if isinstance(term, Variable))
        compiled_specs: List[_CompiledSpec] = []
        for spec in specs:
            if isinstance(spec, IntervalPattern):
                compiled = _compile_interval_positions(spec, slot_of, lookup)
            else:
                positions = _compile_positions(spec, slot_of, lookup)
                compiled = (("plain", positions, spec)
                            if positions is not None else None)
            if compiled is not None:
                compiled_specs.append(compiled)
        if not compiled_specs:
            empty = True
            break
        work.append((rep_slots, rep, compiled_specs))

    steps: List[_Step] = []
    bound: frozenset = frozenset(slot_of[v] for v in pre_bound)
    # compile-time work list: each round pops one atom
    while work and not empty:  # sc: allow(SC303): drains, one pop per round
        rep_slots, rep, compiled_specs = work.pop(0)
        positions = _plain_positions(compiled_specs)
        free = (_free_slots(positions, bound) if positions is not None
                else frozenset())
        if columnar and positions is not None and len(free) == 1:
            (slot,) = free
            first = _intersect_cursor(index, positions, slot)
            if first is not None:
                cursors = [first]
                group_patterns = [rep]
                rest: List[Tuple[frozenset, TriplePattern,
                                 List[_CompiledSpec]]] = []
                for other in work:
                    other_positions = _plain_positions(other[2])
                    cursor = None
                    if (other_positions is not None
                            and _free_slots(other_positions, bound) == free):
                        cursor = _intersect_cursor(index, other_positions,
                                                   slot)
                    if cursor is not None:
                        cursors.append(cursor)
                        group_patterns.append(other[1])
                    else:
                        rest.append(other)
                if len(cursors) >= 2:
                    steps.append(_IntersectStep(slot, cursors,
                                                group_patterns))
                    bound = bound | free
                    work = rest
                    continue
        branch_steps = [_spec_step(index, columnar, compiled, bound)
                        for compiled in compiled_specs]
        steps.append(branch_steps[0] if len(branch_steps) == 1
                     else _AlternativesStep(branch_steps, rep))
        bound = bound | rep_slots
    return BGPPlan(graph, steps, slot_of, empty)


# ----------------------------------------------------------------------
# decoded front-ends
# ----------------------------------------------------------------------

def iter_bindings(graph: Graph, patterns: Sequence[TriplePattern],
                  optimize: bool = True) -> Iterator[Substitution]:
    """Decoded substitutions for every solution of the BGP (the
    columnar counterpart of the evaluator's binding stream)."""
    plan = compile_bgp(graph, patterns, optimize)
    decode = graph.dictionary.decode
    variables = list(plan.slot_of.items())
    for binding in plan.run():
        yield {variable: decode(binding[slot])
               for variable, slot in variables
               if binding[slot] is not None}


def _compile_projection(projection: Sequence[Tuple[Optional[int],
                                                   Optional[Term]]],
                        table: Sequence[Term], query: BGPQuery
                        ) -> Callable[[EncodedBinding], Tuple[Term, ...]]:
    """A row projector for the block pipeline.

    Slot-only projections (the common SELECT shape: every
    distinguished variable appears in the patterns, no presets) get a
    closed-over fast form indexing the decode table directly; anything
    with presets or potentially-unbound variables keeps the general
    per-position loop, raising the term-level evaluator's "unbound
    distinguished variable" error.
    """
    if all(slot is not None and constant is None
           for slot, constant in projection):
        slots = tuple(slot for slot, __ in projection)
        if len(slots) == 1:
            (s0,) = slots
            return lambda binding: (table[binding[s0]],)
        if len(slots) == 2:
            s0, s1 = slots
            return lambda binding: (table[binding[s0]], table[binding[s1]])
        return lambda binding: tuple(table[binding[s]] for s in slots)

    def project(binding: EncodedBinding) -> Tuple[Term, ...]:
        row: List[Term] = []
        for slot, constant in projection:
            value = binding[slot] if slot is not None else None
            if value is not None:
                row.append(table[value])
            elif constant is not None:
                row.append(constant)
            else:
                raise ValueError(
                    f"unbound distinguished variable in "
                    f"{query.to_sparql()!r}")
        return tuple(row)

    return project


def evaluate_columnar(graph: Graph, query: BGPQuery,
                      optimize: bool = True) -> ResultSet:
    """Evaluate a BGP query through the set-at-a-time pipeline.

    Semantics are identical to :func:`repro.sparql.evaluator.evaluate`
    (projection, preset fallback, DISTINCT, LIMIT); only the final
    projected rows are decoded.
    """
    with span("joins.evaluate", atoms=len(query.patterns)) as sp:
        plan = compile_bgp(graph, query.patterns, optimize)
        sp.set(scan_steps=plan.scan_steps(),
               intersect_steps=plan.intersect_steps())
        results = ResultSet(query.distinguished, distinct=query.distinct)
        preset = query.preset
        # per distinguished variable: its slot, or its preset constant,
        # or None (diagnosed on the first produced row, as in evaluate)
        projection: List[Tuple[Optional[int], Optional[Term]]] = []
        for variable in query.distinguished:
            projection.append((plan.slot_of.get(variable),
                               preset.get(variable)))
        limit = query.limit
        # project each binding block with the decode table indexed
        # directly and land it through one bulk extend
        project = _compile_projection(projection,
                                      graph.dictionary.decode_table(), query)
        blocks = plan.run_blocks(([None] * plan.nslots,))
        if results.distinct and limit is None:
            # no row limit: stream every block through one C-level
            # order-preserving dedup instead of testing membership
            # row by row
            results.extend_rows_dedup(chain.from_iterable(
                map(project, block) for block in blocks))
        elif results.distinct:
            for block in blocks:
                if results.extend_rows(map(project, block), limit):
                    break
        else:
            # without DISTINCT every produced row is kept; skip per-row
            # set maintenance — the set view (answer-set comparisons)
            # rebuilds lazily if ever needed
            for block in blocks:
                if results.extend_unique_rows(map(project, block), limit):
                    break
        sp.set(answers=len(results))
    return results
