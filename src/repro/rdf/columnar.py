"""Columnar triple indexes: dictionary-encoded sorted runs.

The hash-nested :class:`~repro.rdf.index.TripleIndex` answers point
lookups well but materializes a Python ``dict``/``set`` node per
distinct prefix and yields triples in hash order.  Production RDF
engines (RDF-3X [23], Hexastore [24], and the LiteMat line of
dictionary-encoded reasoners) instead lay each index order out as a
*sorted run* of integer triples, because sortedness buys three things
at once:

* **range lookup** — any bound prefix is a binary search plus a
  contiguous scan (no per-level hashing, no pointer chasing);
* **ordered iteration** — the suffix positions come out sorted, which
  is what merge joins and sorted intersections consume
  (:mod:`repro.sparql.joins`);
* **compactness** — one flat ``array('q')`` per order instead of a
  tree of boxed objects.

Mutations go to a small per-order *delta log* (a sorted list of
tuples) and deletions to a tombstone set; when a delta outgrows its
run the two are merged into a fresh generation of the run — the
classic LSM discipline, sized so the amortized insert cost stays
logarithmic while scans only ever merge two sorted sources.

The class mirrors :class:`TripleIndex`'s surface (same constructor,
same eight-shape ``match``/``count`` semantics, same configurable
``orders`` so the ABL-IDX ablation runs unchanged) and adds the
order-aware primitives the join operators need: prefix runs, value
blocks and exact prefix counts.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple, Union)

from .. import kernels
from ..obs import get_metrics
from .index import (DEFAULT_ORDERS, EncodedTriple, IndexOrder,
                    ORDER_PERMUTATIONS, invert_order)

__all__ = ["ColumnarTripleIndex", "MERGE_MIN_DELTA", "Run"]

#: A main run's storage: a mutable ``array('q')`` while building, or a
#: read-only int64 memoryview over an mmap'd run file after a durable
#: store reopens (repro.storage) — the scan/search primitives only
#: ever index, slice and ``len()`` it, which both types serve.  The
#: first merge after reopening materializes back to an ``array``.
Run = Union[array, memoryview]

#: A delta log is merged into its run once it holds this many triples
#: (or an eighth of the run, whichever is larger): small enough that
#: scans rarely touch a long delta, large enough that merges amortize.
MERGE_MIN_DELTA = 128


def _lower_bound2(run: Run, first: int, second: int) -> int:
    """Index (in triples, not slots) of the first run entry whose
    leading two components compare >= ``(first, second)``.

    The two-component prefix is the common width of scans and prefix
    counts, so it gets a loop with the key unpacked instead of the
    generic width dispatch.
    """
    lo, hi = 0, len(run) // 3
    while lo < hi:
        mid = (lo + hi) // 2
        base = 3 * mid
        a = run[base]
        if a < first or (a == first and run[base + 1] < second):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _lower_bound3(run: Run, a: int, b: int, c: int) -> int:
    """Index (in triples, not slots) of the first run entry comparing
    >= ``(a, b, c)`` — full-triple search with short-circuit compares,
    no tuple per probe."""
    lo, hi = 0, len(run) // 3
    while lo < hi:
        mid = (lo + hi) // 2
        base = 3 * mid
        x = run[base]
        if x != a:
            less = x < a
        else:
            y = run[base + 1]
            less = y < b if y != b else run[base + 2] < c
        if less:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _lower_bound(run: Run, key: Tuple[int, ...]) -> int:
    """Index (in triples, not slots) of the first run entry whose
    leading ``len(key)`` components compare >= ``key``."""
    width = len(key)
    if width == 2:
        return _lower_bound2(run, key[0], key[1])
    if width == 3:
        return _lower_bound3(run, key[0], key[1], key[2])
    lo, hi = 0, len(run) // 3
    while lo < hi:
        mid = (lo + hi) // 2
        if run[3 * mid] < key[0]:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _after_prefix(prefix: Tuple[int, ...]) -> Tuple[int, ...]:
    """The smallest key strictly greater than every extension of
    ``prefix`` (identifiers are non-negative, so +1 is safe)."""
    return prefix[:-1] + (prefix[-1] + 1,)


class _OrderRuns:
    """One order's storage: main sorted run + sorted delta + tombstones.

    All triples here live in *permuted* component order; the owning
    index translates to and from (s, p, o).
    """

    __slots__ = ("main", "delta", "dead", "_cviews")

    def __init__(self) -> None:
        self.main: Run = array("q")
        self.delta: List[EncodedTriple] = []
        self.dead: Set[EncodedTriple] = set()
        # (main, (v0, v1, v2)): cached per-component strided views of
        # the main run, keyed by identity — ``main`` is only ever
        # rebound (merge, bulk load, storage attach), never resized in
        # place, so an identity hit proves the views are current
        self._cviews: Optional[Tuple[Run, Tuple["memoryview", ...]]] = None

    def __len__(self) -> int:
        return len(self.main) // 3 - len(self.dead) + len(self.delta)

    def contains(self, triple: EncodedTriple) -> bool:
        if self.delta:
            i = bisect_left(self.delta, triple)
            if i < len(self.delta) and self.delta[i] == triple:
                return True
        if triple in self.dead:
            return False
        a, b, c = triple
        # column-at-a-time: five C bisect probes over the strided
        # component views instead of one interpreted binary search
        v0, v1, v2 = self._components()
        lo = bisect_left(v0, a, 0, len(v0))
        hi = bisect_left(v0, a + 1, lo)
        lo = bisect_left(v1, b, lo, hi)
        hi = bisect_left(v1, b + 1, lo, hi)
        lo = bisect_left(v2, c, lo, hi)
        return lo < hi and v2[lo] == c

    def contains_sorted(self, batch: Sequence[EncodedTriple]) -> List[bool]:
        """Presence flags for an *ascending* batch of permuted triples.

        The set-at-a-time membership probe: because the batch is
        sorted, each triple's component bisects start where the
        previous span began and the delta cursor only moves forward —
        one monotone sweep of C searches instead of an independent
        :meth:`contains` per triple.
        """
        delta = self.delta
        dead = self.dead
        v0, v1, v2 = self._components()
        n = len(v0)
        flags: List[bool] = []
        append = flags.append
        pos = 0
        di, dn = 0, len(delta)
        # ascending batches cluster by leading components: the spans
        # of the previous item's first/second component stay valid for
        # runs of equal keys, eliding four of the five bisects
        last_a: Optional[int] = None
        last_b: Optional[int] = None
        alo = ahi = blo = bhi = 0
        for t in batch:
            if delta:
                di = bisect_left(delta, t, di, dn)
                if di < dn and delta[di] == t:
                    append(True)
                    continue
            if dead and t in dead:
                append(False)
                continue
            a, b, c = t
            if a != last_a:
                alo = bisect_left(v0, a, pos, n)
                ahi = bisect_left(v0, a + 1, alo, n)
                pos = alo
                last_a = a
                last_b = None
            if b != last_b:
                blo = bisect_left(v1, b, alo, ahi)
                bhi = bisect_left(v1, b + 1, blo, ahi)
                last_b = b
            lo = bisect_left(v2, c, blo, bhi)
            append(lo < bhi and v2[lo] == c)
        return flags

    def insert(self, triple: EncodedTriple) -> None:
        """Append to the delta log (caller guarantees absence)."""
        if triple in self.dead:
            self.dead.discard(triple)
            return
        i = bisect_left(self.delta, triple)
        self.delta.insert(i, triple)

    def insert_sorted_batch(self, batch: List[EncodedTriple]) -> None:
        """Fold a sorted, deduplicated, absent batch into the delta."""
        resurrected = self.dead & set(batch)
        if resurrected:
            self.dead -= resurrected
            batch = [t for t in batch if t not in resurrected]
        if not batch:
            return
        if self.delta:
            merged = self.delta + batch
            merged.sort()
            self.delta = merged
        else:
            self.delta = list(batch)

    def remove(self, triple: EncodedTriple) -> None:
        """Delete (caller guarantees presence)."""
        i = bisect_left(self.delta, triple)
        if i < len(self.delta) and self.delta[i] == triple:
            del self.delta[i]
        else:
            self.dead.add(triple)

    def should_merge(self) -> bool:
        main_triples = len(self.main) // 3
        threshold = max(MERGE_MIN_DELTA, main_triples >> 3)
        return (len(self.delta) >= threshold
                or len(self.dead) * 4 > max(main_triples, 1))

    def merge(self) -> None:
        """Merge delta into the main run, dropping tombstoned entries.

        The merge itself is a kernel (:func:`repro.kernels.merge_runs`):
        block copies between delta insertion points under the default
        ``python`` mode, the per-triple reference loop under
        ``scalar`` — both produce the same buffer bit for bit.
        """
        self.main = kernels.merge_runs(self.main, self.delta, self.dead)
        self.delta = []
        self.dead = set()

    # -- sorted access --------------------------------------------------

    def scan(self, prefix: Tuple[int, ...] = ()) -> Iterator[EncodedTriple]:
        """All live triples extending ``prefix``, in sorted order."""
        main, delta = self.main, self.delta
        if prefix:
            after = _after_prefix(prefix)
            lo, hi = _lower_bound(main, prefix), _lower_bound(main, after)
        else:
            lo, hi = 0, len(main) // 3
        dead = self.dead
        if not delta and not dead:
            # merged-and-clean fast path: the run is the answer
            for base in range(3 * lo, 3 * hi, 3):
                yield (main[base], main[base + 1], main[base + 2])
            return
        if prefix:
            di, dn = bisect_left(delta, prefix), bisect_left(delta, after)
        else:
            di, dn = 0, len(delta)
        for i in range(lo, hi):
            base = 3 * i
            t = (main[base], main[base + 1], main[base + 2])
            if dead and t in dead:
                continue
            while di < dn and delta[di] < t:
                yield delta[di]
                di += 1
            yield t
        while di < dn:
            yield delta[di]
            di += 1

    def count_prefix(self, prefix: Tuple[int, ...]) -> int:
        """Exact number of live triples extending ``prefix``."""
        main, delta = self.main, self.delta
        if prefix:
            after = _after_prefix(prefix)
            total = _lower_bound(main, after) - _lower_bound(main, prefix)
            total += bisect_left(delta, after) - bisect_left(delta, prefix)
            if self.dead:
                width = len(prefix)
                total -= sum(1 for t in self.dead if t[:width] == prefix)
            return total
        return len(self)

    def scan_between(self, prefix: Tuple[int, ...], lo_value: int,
                     hi_value: int) -> Iterator[EncodedTriple]:
        """Live triples extending ``prefix`` whose next component lies
        in ``[lo_value, hi_value)``, in sorted order.

        The interval-scan primitive: a contiguous identifier range
        (e.g. "a class and all its subclasses" under the semantic
        interval encoding) is answered by two binary searches and one
        forward walk, instead of one point lookup per member.
        """
        main, delta = self.main, self.delta
        lo_key = prefix + (lo_value,)
        hi_key = prefix + (hi_value,)
        lo, hi = _lower_bound(main, lo_key), _lower_bound(main, hi_key)
        dead = self.dead
        if not delta and not dead:
            for base in range(3 * lo, 3 * hi, 3):
                yield (main[base], main[base + 1], main[base + 2])
            return
        di, dn = bisect_left(delta, lo_key), bisect_left(delta, hi_key)
        for i in range(lo, hi):
            base = 3 * i
            t = (main[base], main[base + 1], main[base + 2])
            if dead and t in dead:
                continue
            while di < dn and delta[di] < t:
                yield delta[di]
                di += 1
            yield t
        while di < dn:
            yield delta[di]
            di += 1

    # -- zero-copy block views (the kernel feed) ------------------------
    #
    # Every *_view method returns ``None`` when the order holds delta
    # or tombstone state that a block could not represent — callers
    # fall back to the merging scans above.  The semi-naive
    # engine compacts at round boundaries and queries mostly run on
    # merged runs, so the block paths serve the hot traffic.

    def _view(self) -> "memoryview":
        main = self.main
        return memoryview(main) if isinstance(main, array) else main

    def _components(self) -> Tuple["memoryview", ...]:
        """The main run's strided per-component views ``(v0, v1, v2)``.

        Every block search bisects these with the C ``bisect`` instead
        of stepping an interpreted binary search over the flat run.
        """
        cached = self._cviews
        main = self.main
        if cached is not None and cached[0] is main:
            return cached[1]
        view = memoryview(main) if isinstance(main, array) else main
        views = (view[0::3], view[1::3], view[2::3])
        self._cviews = (main, views)
        return views

    def triple_bounds(self, prefix: Tuple[int, ...]) -> Tuple[int, int]:
        """Triple indexes ``(lo, hi)`` of the main-run segment under
        ``prefix`` — two C bisects per prefix component."""
        views = self._components()
        lo, hi = 0, len(self.main) // 3
        for depth, component in enumerate(prefix):
            column = views[depth]
            lo = bisect_left(column, component, lo, hi)
            hi = bisect_left(column, component + 1, lo, hi)
        return lo, hi

    def values_block(self, first: int, second: int
                     ) -> Optional[Union["memoryview", array]]:
        """The sorted live third components under ``(first, second)``
        as one flat buffer — the rule-engine scan shape as a block.

        Clean runs answer with a zero-copy strided view; pending delta
        state merges into a fresh ``array('q')`` (two sorted sources,
        so the sort is a C-level run merge).
        """
        v0, v1, v2 = self._components()
        lo = bisect_left(v0, first, 0, len(v0))
        hi = bisect_left(v0, first + 1, lo)
        lo = bisect_left(v1, second, lo, hi)
        hi = bisect_left(v1, second + 1, lo, hi)
        main_values = v2[lo:hi]
        delta = self.delta
        dead = self.dead
        di = dn = 0
        if delta:
            di = bisect_left(delta, (first, second))
            dn = bisect_left(delta, (first, second + 1), di)
        if di == dn and not dead:
            # pending state lives under other prefixes: this span is
            # still exactly the main run's
            return main_values
        live = ([v for v in main_values
                 if (first, second, v) not in dead]
                if dead else list(main_values))
        if di != dn:
            live.extend(delta[i][2] for i in range(di, dn))
            live.sort()
        return array("q", live)

    def values_reader(self, first: int) -> Callable[[int], Union["memoryview", array]]:
        """A per-``second`` reader with ``first``'s span resolved once.

        The block executor's loops run thousands of
        :meth:`values_block` probes whose first prefix component is a
        plan constant (the predicate, usually); the reader pays its
        two bisects a single time and leaves two per probe.  Only
        valid while the index is read-stable (plan execution never
        interleaves with writes).
        """
        v0, v1, v2 = self._components()
        lo0 = bisect_left(v0, first, 0, len(v0))
        hi0 = bisect_left(v0, first + 1, lo0)
        delta = self.delta
        dead = self.dead
        if not delta and not dead:
            def read(second: int, _bisect=bisect_left) -> "memoryview":
                lo = _bisect(v1, second, lo0, hi0)
                hi = _bisect(v1, second + 1, lo, hi0)
                return v2[lo:hi]

            return read

        # pending state: narrow the delta log to ``first``'s segment
        # once and bucket it by second component, so a probe pays one
        # dict lookup instead of two tuple bisects; the common case
        # (no delta under this exact prefix, no tombstones) still
        # answers with the zero-copy view
        dlo = bisect_left(delta, (first,))
        dhi = bisect_left(delta, (first + 1,), dlo)
        if dlo == dhi and not dead:
            def read(second: int, _bisect=bisect_left) -> "memoryview":
                lo = _bisect(v1, second, lo0, hi0)
                hi = _bisect(v1, second + 1, lo, hi0)
                return v2[lo:hi]

            return read
        pending: Dict[int, List[int]] = {}
        for i in range(dlo, dhi):
            pending.setdefault(delta[i][1], []).append(delta[i][2])

        def read_dirty(second: int, _bisect=bisect_left
                       ) -> Union["memoryview", array]:
            lo = _bisect(v1, second, lo0, hi0)
            hi = _bisect(v1, second + 1, lo, hi0)
            main_values = v2[lo:hi]
            extras = pending.get(second)
            if extras is None and not dead:
                return main_values
            live = ([v for v in main_values
                     if (first, second, v) not in dead]
                    if dead else list(main_values))
            if extras:
                live.extend(extras)
                live.sort()
            return array("q", live)

        return read_dirty

    def prefix_view(self, prefix: Tuple[int, ...]) -> Optional["memoryview"]:
        """Contiguous flat view of the triples extending ``prefix``
        (permuted component order, ``3 * n`` elements)."""
        if self.delta or self.dead:
            return None
        lo, hi = self.triple_bounds(prefix)
        return self._view()[3 * lo:3 * hi]

    def range_view(self, prefix: Tuple[int, ...], lo_value: int,
                   hi_value: int) -> Optional["memoryview"]:
        """Contiguous flat view of the triples extending ``prefix``
        whose next component lies in ``[lo_value, hi_value)`` — the
        interval-scan primitive as one block copy source."""
        if self.delta or self.dead:
            return None
        lo, hi = self.triple_bounds(prefix)
        column = self._components()[len(prefix)]
        lo = bisect_left(column, lo_value, lo, hi)
        hi = bisect_left(column, hi_value, lo, hi)
        return self._view()[3 * lo:3 * hi]

    def copy(self) -> "_OrderRuns":
        clone = _OrderRuns()
        clone.main = self.main[:]
        clone.delta = list(self.delta)
        clone.dead = set(self.dead)
        return clone


class ColumnarTripleIndex:
    """A set of encoded triples stored as sorted runs, one per order.

    Drop-in alternative to :class:`~repro.rdf.index.TripleIndex`
    (``Graph(backend="columnar")`` selects it); additionally exposes
    the sorted-run primitives (:meth:`scan_order`,
    :meth:`values_block_order`, :meth:`order_for`) that the sorted
    intersection join operators build on.
    """

    __slots__ = ("_orders", "_runs", "_size", "_generation")

    def __init__(self, orders: Iterable[str] = DEFAULT_ORDERS):
        order_names = tuple(orders)
        if not order_names:
            raise ValueError("at least one index order is required")
        for name in order_names:
            if name not in ORDER_PERMUTATIONS:
                raise ValueError(f"unknown index order: {name!r}")
        self._orders: Tuple[Tuple[str, IndexOrder], ...] = tuple(
            (name, ORDER_PERMUTATIONS[name]) for name in order_names
        )
        self._runs: Tuple[_OrderRuns, ...] = tuple(
            _OrderRuns() for _ in self._orders)
        self._size = 0
        self._generation = 0

    # ------------------------------------------------------------------
    # basic container protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: EncodedTriple) -> bool:
        __, permutation = self._orders[0]
        a, b, c = permutation
        return self._runs[0].contains((triple[a], triple[b], triple[c]))

    def __iter__(self) -> Iterator[EncodedTriple]:
        __, permutation = self._orders[0]
        inverse = invert_order(permutation)
        x, y, z = inverse
        for t in self._runs[0].scan():
            yield (t[x], t[y], t[z])

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def add(self, triple: EncodedTriple) -> bool:
        """Insert ``triple``; return True iff it was not already present."""
        if triple in self:
            return False
        for (__, permutation), runs in zip(self._orders, self._runs):
            a, b, c = permutation
            runs.insert((triple[a], triple[b], triple[c]))
        self._size += 1
        self._maybe_merge()
        return True

    def add_batch(self, triples: Iterable[EncodedTriple]) -> List[EncodedTriple]:
        """Insert many triples at once; return the ones actually new.

        The set-at-a-time insert path: the batch is deduplicated, each
        order receives it pre-sorted, and at most one merge per order
        runs at the end — instead of one delta insertion per triple.
        """
        # batch membership: one sorted sweep over a single order
        # instead of a per-triple binary search ("fresh" keeps the
        # caller's arrival order).  The sweep probes the second order
        # (pos) when present: derived batches cluster by predicate, so
        # consecutive keys share their leading components and the
        # sweep's span caches elide most bisects
        seen: Set[EncodedTriple] = set()
        candidates: List[EncodedTriple] = []
        for triple in triples:
            if triple not in seen:
                seen.add(triple)
                candidates.append(triple)
        if not candidates:
            return candidates
        probe = 1 if len(self._orders) > 1 else 0
        (__, permutation) = self._orders[probe]
        a, b, c = permutation
        pairs = sorted([((t[a], t[b], t[c]), t) for t in candidates])
        flags = self._runs[probe].contains_sorted(
            [key for key, __ in pairs])
        present = {t for (__, t), flag in zip(pairs, flags) if flag}
        fresh = [t for t in candidates if t not in present]
        if not fresh:
            return fresh
        # the pair sweep already produced the probe order's sorted
        # batch; only the remaining orders pay a sort
        for i, ((__, perm), runs) in enumerate(zip(self._orders,
                                                   self._runs)):
            if i == probe:
                batch = [key for (key, t) in pairs if t not in present]
            else:
                a, b, c = perm
                batch = sorted([(t[a], t[b], t[c]) for t in fresh])
            runs.insert_sorted_batch(batch)
        self._size += len(fresh)
        self._maybe_merge()
        return fresh

    def bulk_load(self, triples: Iterable[EncodedTriple]) -> int:
        """Load a deduplicated triple set into this *empty* index.

        Skips the per-triple presence checks of :meth:`add_batch` and
        writes each order's main run directly — one sort per order, no
        delta log.  The re-encoding path of the semantic interval
        encoding uses this: a bijective remap of an existing index's
        triple set is duplicate-free by construction.
        """
        if self._size:
            raise ValueError("bulk_load requires an empty index")
        batch = triples if isinstance(triples, list) else list(triples)
        for (__, permutation), runs in zip(self._orders, self._runs):
            a, b, c = permutation
            run = array("q")
            for t in sorted((t[a], t[b], t[c]) for t in batch):
                run.extend(t)
            runs.main = run
        self._size = len(batch)
        self._generation += 1
        return self._size

    def discard(self, triple: EncodedTriple) -> bool:
        """Remove ``triple``; return True iff it was present."""
        if triple not in self:
            return False
        for (__, permutation), runs in zip(self._orders, self._runs):
            a, b, c = permutation
            runs.remove((triple[a], triple[b], triple[c]))
        self._size -= 1
        self._maybe_merge()
        return True

    def clear(self) -> None:
        self._runs = tuple(_OrderRuns() for _ in self._orders)
        self._size = 0
        self._generation += 1

    def _maybe_merge(self) -> None:
        merged = 0
        for runs in self._runs:
            if runs.should_merge():
                runs.merge()
                merged += 1
        if merged:
            self._generation += 1
            get_metrics().counter("columnar.merges").inc(merged)

    def compact(self) -> int:
        """Merge every order's delta log and tombstones into its run.

        Bulk consumers call this at natural batch boundaries (the
        set-at-a-time engine compacts between semi-naive rounds) so
        the round's scans all hit the single-run fast path instead of
        merging a delta log per lookup.  Returns the number of orders
        that actually compacted.
        """
        merged = 0
        for runs in self._runs:
            if runs.delta or runs.dead:
                runs.merge()
                merged += 1
        if merged:
            self._generation += 1
            get_metrics().counter("columnar.merges").inc(merged)
        return merged

    # ------------------------------------------------------------------
    # pattern matching (TripleIndex-compatible surface)
    # ------------------------------------------------------------------

    def match(self, s: Optional[int], p: Optional[int],
              o: Optional[int]) -> Iterator[EncodedTriple]:
        """Iterate triples matching the pattern (``None`` = wildcard)."""
        pattern = (s, p, o)
        bound = frozenset(i for i, v in enumerate(pattern) if v is not None)
        if len(bound) == 3:
            if (s, p, o) in self:  # type: ignore[comparison-overlap]
                yield (s, p, o)  # type: ignore[misc]
            return
        order_index, prefix_len = self._best_order(bound)
        __, permutation = self._orders[order_index]
        inverse = invert_order(permutation)
        x, y, z = inverse
        prefix = tuple(pattern[permutation[i]] for i in range(prefix_len))
        residual = [i for i in bound if permutation.index(i) >= prefix_len]
        for t in self._runs[order_index].scan(prefix):  # type: ignore[arg-type]
            triple = (t[x], t[y], t[z])
            if residual and any(triple[i] != pattern[i] for i in residual):
                continue
            yield triple

    def count(self, s: Optional[int] = None, p: Optional[int] = None,
              o: Optional[int] = None) -> int:
        """Exact number of triples matching the pattern."""
        pattern = (s, p, o)
        bound = frozenset(i for i, v in enumerate(pattern) if v is not None)
        if not bound:
            return self._size
        if len(bound) == 3:
            return 1 if (s, p, o) in self else 0  # type: ignore[comparison-overlap]
        order_index, prefix_len = self._best_order(bound)
        if prefix_len == len(bound):
            __, permutation = self._orders[order_index]
            prefix = tuple(pattern[permutation[i]] for i in range(prefix_len))
            return self._runs[order_index].count_prefix(prefix)  # type: ignore[arg-type]
        return sum(1 for __ in self.match(s, p, o))

    # ------------------------------------------------------------------
    # sorted-run primitives for the join operators
    # ------------------------------------------------------------------

    def order_for(self, bound: Iterable[int],
                  next_position: Optional[int] = None) -> Optional[int]:
        """Index of an order whose permutation starts with the ``bound``
        positions (in any arrangement) — and, when ``next_position`` is
        given, continues with exactly that position.  ``None`` when the
        configured layout cannot serve the request (the caller falls
        back to scan-and-filter).
        """
        bound_set = frozenset(bound)
        width = len(bound_set)
        for index, (__, permutation) in enumerate(self._orders):
            if frozenset(permutation[:width]) != bound_set:
                continue
            if next_position is None or permutation[width] == next_position:
                return index
        return None

    def permutation(self, order_index: int) -> IndexOrder:
        return self._orders[order_index][1]

    def scan_order(self, order_index: int,
                   prefix: Tuple[int, ...] = ()) -> Iterator[EncodedTriple]:
        """Sorted triples (in the order's permuted space) under ``prefix``."""
        return self._runs[order_index].scan(prefix)

    def scan_order_between(self, order_index: int, prefix: Tuple[int, ...],
                           lo: int, hi: int) -> Iterator[EncodedTriple]:
        """Sorted triples under ``prefix`` whose next component lies in
        ``[lo, hi)`` — the identifier-interval range scan."""
        return self._runs[order_index].scan_between(prefix, lo, hi)

    # -- block views (``None`` when delta state forces a merging scan) --

    def values_block_order(self, order_index: int, first: int,
                           second: int) -> Union["memoryview", array]:
        """Sorted live last components under a full two-component
        prefix as one flat buffer (zero-copy view on clean runs)."""
        return self._runs[order_index].values_block(first, second)

    def values_reader_order(self, order_index: int, first: int
                            ) -> Callable[[int], Union["memoryview", array]]:
        """A :meth:`values_block_order` specialization with ``first``
        resolved once — for block loops over a constant component."""
        return self._runs[order_index].values_reader(first)

    def view_order(self, order_index: int,
                   prefix: Tuple[int, ...] = ()) -> Optional["memoryview"]:
        """Contiguous flat view of the run under ``prefix``, or ``None``."""
        return self._runs[order_index].prefix_view(prefix)

    def range_view_order(self, order_index: int, prefix: Tuple[int, ...],
                         lo: int, hi: int) -> Optional["memoryview"]:
        """Contiguous flat view of the run's ``[lo, hi)`` identifier
        interval under ``prefix``, or ``None``."""
        return self._runs[order_index].range_view(prefix, lo, hi)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def best_order(self, bound: frozenset) -> Tuple[int, int]:
        """The order with the longest prefix of bound positions, as
        ``(order_index, usable_prefix_length)``.

        Public because the join compiler picks scan orders *once* per
        plan from the statically-known bound positions, instead of
        re-deriving them per lookup like :meth:`match` must.
        """
        return self._best_order(bound)

    def _best_order(self, bound: frozenset) -> Tuple[int, int]:
        best = (0, 0)
        for i, (__, permutation) in enumerate(self._orders):
            prefix = 0
            while prefix < 3 and permutation[prefix] in bound:
                prefix += 1
            prefix = min(prefix, len(bound))
            if prefix > best[1]:
                best = (i, prefix)
        return best

    @property
    def order_names(self) -> Tuple[str, ...]:
        return tuple(name for name, __ in self._orders)

    @property
    def generation(self) -> int:
        """Bumped whenever any order merges or compacts its runs."""
        return self._generation

    def run_stats(self) -> Dict[str, Dict[str, int]]:
        """Per-order layout statistics (for dashboards and tests)."""
        return {
            name: {"main": len(runs.main) // 3, "delta": len(runs.delta),
                   "dead": len(runs.dead)}
            for (name, __), runs in zip(self._orders, self._runs)
        }

    def copy(self) -> "ColumnarTripleIndex":
        clone = ColumnarTripleIndex(self.order_names)
        clone._runs = tuple(runs.copy() for runs in self._runs)
        clone._size = self._size
        clone._generation = self._generation
        return clone

    # ------------------------------------------------------------------
    # durable storage interchange (repro.storage)
    # ------------------------------------------------------------------

    def export_runs(self) -> Dict[str, Run]:
        """Each order's main run as one flat buffer, compacted first.

        The buffers are exactly what the run-file format stores, so
        the snapshot writer dumps them without transformation.
        Compaction folds the delta log and tombstones in, which
        mutates nothing observable (same triple set, fresher layout).
        """
        self.compact()
        return {name: runs.main
                for (name, __), runs in zip(self._orders, self._runs)}

    @classmethod
    def from_sorted_runs(cls, orders: Iterable[str],
                         runs: Dict[str, Run],
                         size: int) -> "ColumnarTripleIndex":
        """Rebuild an index around already-sorted main runs.

        ``runs`` maps each order name to its flat buffer — typically
        the zero-copy memoryviews :func:`repro.storage.runfiles.
        open_run_file` returns, so opening a snapshot costs no triple
        materialization at all.  The buffers must hold the same triple
        set per order, sorted in that order's permuted space (the
        invariant :meth:`export_runs` guarantees).
        """
        index = cls(orders)
        for (name, __), order_runs in zip(index._orders, index._runs):
            order_runs.main = runs[name]
        index._size = size
        return index
