"""Block-at-a-time kernel primitives behind the ``REPRO_KERNELS`` flag.

The merge/leapfrog/interval inner loops of the columnar layer
(:mod:`repro.rdf.columnar`, :mod:`repro.sparql.joins`) bottom out in
three primitives: intersecting sorted identifier runs, merging sorted
triple runs, and copying contiguous run ranges.  This module holds one
implementation of each per *kernel mode*:

* ``python`` — the production path and the default: whole-slice
  operations on ``array('q')``/``memoryview`` buffers, galloping
  through C-implemented ``bisect`` probes and block copies instead of
  stepping Python bytecode per element;
* ``scalar`` — the per-element reference implementations, kept as the
  obviously-correct baseline the differential suite and the benchmark
  oracle pin ``python`` against.

The mode comes from the ``REPRO_KERNELS`` environment variable at
import, defaulting to ``python``; :func:`set_mode` /
:func:`kernel_mode` switch it at runtime (tests flip modes to
compare).  Both modes compute bit-identical outputs — the contract
``tests/test_kernels_differential.py`` enforces.

All buffers hold non-negative int64 identifiers.  "Value runs" are
strictly increasing (they come from distinct-triple runs under a full
prefix); "triple runs" are flat ``3*n`` buffers sorted in triple
order.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence, Set, Tuple, Union

from .cancellation import CancellationToken

__all__ = ["KERNEL_MODES", "kernel_mode", "set_mode", "kernel_scope",
           "vectorized", "intersect_pair",
           "intersect_many", "merge_runs", "Buffer", "EncodedTriple"]

#: A flat int64 buffer: a mutable ``array('q')`` or a (possibly
#: strided) read-only memoryview over one — everything the kernels
#: index, slice and ``len()``.
Buffer = Union[array, "memoryview"]

EncodedTriple = Tuple[int, int, int]

KERNEL_MODES = ("scalar", "python")

#: token poll stride inside the per-element kernel loops
_POLL_STRIDE = 0x3FF


def _checked(mode: str) -> str:
    if mode not in KERNEL_MODES:
        raise ValueError(f"unknown kernel mode {mode!r}; expected one "
                         f"of {', '.join(KERNEL_MODES)}")
    return mode


_mode = _checked(os.environ.get("REPRO_KERNELS") or "python")


def kernel_mode() -> str:
    """The active kernel mode: ``scalar`` or ``python``."""
    return _mode


def vectorized() -> bool:
    """True when the block-at-a-time paths should run (non-scalar)."""
    return _mode != "scalar"


def set_mode(mode: str) -> str:
    """Switch the kernel mode; returns the previous one."""
    global _mode
    previous, _mode = _mode, _checked(mode)
    return previous


@contextmanager
def kernel_scope(mode: str) -> Iterator[str]:
    """Run a block under ``mode``, restoring the previous mode after."""
    previous = set_mode(mode)
    try:
        yield mode
    finally:
        set_mode(previous)


# ----------------------------------------------------------------------
# intersect_pair: common values of two sorted, strictly-increasing runs
# ----------------------------------------------------------------------

def _intersect_pair_scalar(a: Buffer, b: Buffer,
                           token: Optional[CancellationToken]) -> array:
    """Reference: two-cursor merge, one comparison per step."""
    out = array("q")
    i = j = 0
    la, lb = len(a), len(b)
    steps = 0
    while i < la and j < lb:
        steps += 1
        if token is not None and steps & _POLL_STRIDE == 0:
            token.raise_if_cancelled()
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def _intersect_pair_python(a: Buffer, b: Buffer,
                           token: Optional[CancellationToken]) -> array:
    """Gallop the smaller run through the larger via C bisect probes."""
    if len(a) > len(b):
        a, b = b, a
    out = array("q")
    append = out.append
    la, lb = len(a), len(b)
    j = 0
    for i in range(la):
        if token is not None and i & _POLL_STRIDE == 0:
            token.raise_if_cancelled()
        v = a[i]
        j = bisect_left(b, v, j, lb)
        if j >= lb:
            break
        if b[j] == v:
            append(v)
            j += 1
    return out


def intersect_pair(a: Buffer, b: Buffer,
                   token: Optional[CancellationToken] = None) -> array:
    """Sorted values present in both runs (the k=2 merge join core)."""
    if _mode == "python":
        return _intersect_pair_python(a, b, token)
    return _intersect_pair_scalar(a, b, token)


# ----------------------------------------------------------------------
# intersect_many: the k-ary generalization (leapfrog's unary core)
# ----------------------------------------------------------------------

def intersect_many(buffers: Sequence[Buffer],
                   token: Optional[CancellationToken] = None) -> array:
    """Sorted values common to every run; ``[]`` on no runs.

    Folds pairwise from the smallest run up — every intermediate is no
    larger than the smallest input, so the fold is the cheap order.
    """
    if not buffers:
        return array("q")
    ordered = sorted(buffers, key=len)
    if len(ordered) == 1:
        return array("q", ordered[0])  # defensive copy: callers mutate
    current: Buffer = ordered[0]
    for other in ordered[1:]:
        current = intersect_pair(current, other, token)
        if not len(current):
            break
    assert isinstance(current, array)
    return current


# ----------------------------------------------------------------------
# merge_runs: LSM compaction of one order's (main, delta, dead)
# ----------------------------------------------------------------------

def _merge_runs_scalar(main: Buffer, delta: Sequence[EncodedTriple],
                       dead: Set[EncodedTriple]) -> array:
    """Reference: the PR 3 per-triple merge loop, verbatim."""
    out = array("q")
    di, dn = 0, len(delta)
    for base in range(0, len(main), 3):
        t = (main[base], main[base + 1], main[base + 2])
        if t in dead:
            continue
        while di < dn and delta[di] < t:  # sc: allow(SC303): len(delta)-bounded
            out.extend(delta[di])
            di += 1
        out.extend(t)
    while di < dn:  # sc: allow(SC303): drains the remaining delta items
        out.extend(delta[di])
        di += 1
    return out


def _copy_block(out: array, view: "memoryview", lo: int, hi: int) -> None:
    """Append triples ``[lo, hi)`` of a flat run view to ``out``."""
    if hi > lo:
        out.frombytes(view[3 * lo:3 * hi].cast("B"))


def _triple_lower_bound(view: "memoryview", lo: int, hi: int,
                        t: EncodedTriple) -> int:
    """First triple index in ``[lo, hi)`` comparing >= ``t``.

    Five C bisect probes over the strided component views instead of
    an interpreted binary search with tuple compares.
    """
    a, b, c = t
    v0, v1, v2 = view[0::3], view[1::3], view[2::3]
    lo = bisect_left(v0, a, lo, hi)
    hi = bisect_left(v0, a + 1, lo, hi)
    lo = bisect_left(v1, b, lo, hi)
    hi = bisect_left(v1, b + 1, lo, hi)
    return bisect_left(v2, c, lo, hi)


def _excise_dead_python(main: Buffer, dead: Set[EncodedTriple]) -> array:
    """Copy the survivor blocks around each tombstoned triple."""
    view = memoryview(main) if isinstance(main, array) else main
    n = len(main) // 3
    out = array("q")
    pos = 0
    for t in sorted(dead):
        at = _triple_lower_bound(view, pos, n, t)
        base = 3 * at
        if (at < n and main[base] == t[0] and main[base + 1] == t[1]
                and main[base + 2] == t[2]):
            _copy_block(out, view, pos, at)
            pos = at + 1
    _copy_block(out, view, pos, n)
    return out


def _merge_runs_python(main: Buffer, delta: Sequence[EncodedTriple],
                       dead: Set[EncodedTriple]) -> array:
    if dead:
        main = _excise_dead_python(main, dead)
    if not delta:
        if isinstance(main, array):
            return main if dead else main[:]
        out = array("q")
        out.frombytes(main.cast("B"))
        return out
    view = memoryview(main) if isinstance(main, array) else main
    v0, v1, v2 = view[0::3], view[1::3], view[2::3]
    n = len(main) // 3
    out = array("q")
    pos = 0
    for t in delta:  # sorted; C bisects + one block copy per entry
        a, b, c = t
        lo = bisect_left(v0, a, pos, n)
        hi = bisect_left(v0, a + 1, lo, n)
        lo = bisect_left(v1, b, lo, hi)
        hi = bisect_left(v1, b + 1, lo, hi)
        at = bisect_left(v2, c, lo, hi)
        _copy_block(out, view, pos, at)
        out.extend(t)
        pos = at
    _copy_block(out, view, pos, n)
    return out


def merge_runs(main: Buffer, delta: Sequence[EncodedTriple],
               dead: Set[EncodedTriple]) -> array:
    """One order's compacted main run: ``sorted(main - dead + delta)``.

    ``delta`` is sorted and disjoint from ``main``; ``dead`` is a
    subset of ``main`` (the invariants :class:`repro.rdf.columnar.
    _OrderRuns` maintains).  Always returns a fresh ``array('q')`` —
    mmap-backed memoryview inputs materialize here, exactly as the
    scalar merge always did.
    """
    if _mode == "python":
        return _merge_runs_python(main, delta, dead)
    return _merge_runs_scalar(main, delta, dead)
