"""Shared machinery for Ringo graph objects (paper §2.2).

"Ringo supports dynamic graphs by representing a graph as a hash table of
nodes. Each node maintains sorted adjacency vector[s] of neighboring
nodes." The Python dict plays the node hash table; adjacency vectors are
sorted numpy int64 arrays, so membership is a binary search and edge
deletion is linear in the node degree — the trade-off against CSR the
paper describes (and the A2 ablation measures).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.exceptions import NodeNotFoundError

EMPTY_ADJACENCY = np.empty(0, dtype=np.int64)


def sorted_insert(array: np.ndarray, value: int) -> tuple[np.ndarray, bool]:
    """Insert ``value`` into a sorted array unless present.

    Returns ``(new_array, inserted)``; the input array is never mutated.
    O(degree), as the paper notes for adjacency updates.
    """
    position = int(np.searchsorted(array, value))
    if position < len(array) and array[position] == value:
        return array, False
    return np.insert(array, position, value), True


def sorted_remove(array: np.ndarray, value: int) -> tuple[np.ndarray, bool]:
    """Remove ``value`` from a sorted array if present.

    Returns ``(new_array, removed)``; the input array is never mutated.
    """
    position = int(np.searchsorted(array, value))
    if position < len(array) and array[position] == value:
        return np.delete(array, position), True
    return array, False


def sorted_contains(array: np.ndarray, value: int) -> bool:
    """Binary-search membership test on a sorted adjacency vector."""
    position = int(np.searchsorted(array, value))
    return bool(position < len(array) and array[position] == value)


def unique_sorted(values: np.ndarray) -> np.ndarray:
    """Distinct entries of an ascending array, by a neighbour-compare dedupe.

    The sort-and-dedupe form of ``np.unique``: callers pass sorted data
    (``np.sort`` first, or arrays already in order). For int64 id and
    packed-edge-key columns this beats ``np.unique``, which on numpy 2.x
    takes a hash path when no ``return_*`` flag is set.

    >>> unique_sorted(np.array([1, 1, 2, 5, 5])).tolist()
    [1, 2, 5]
    """
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def readonly(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (callers must not mutate adjacency)."""
    view = array.view()
    view.flags.writeable = False
    return view


class GraphBase:
    """Behaviour shared by the directed and undirected graph classes.

    Subclasses supply ``_nodes`` (the node hash table) and the edge
    bookkeeping; this base provides the derived queries algorithms use.

    Every structural mutation bumps :attr:`version`, a cheap monotonic
    counter. Snapshot consumers (the CSR cache in
    :mod:`repro.graphs.snapshot`) memoise on ``(graph, version)``, so an
    unchanged graph can be re-analysed without re-converting while any
    add/delete automatically invalidates stale snapshots.
    """

    _nodes: dict
    _version: int = 0
    # Attached by the snapshot cache when incremental maintenance is on
    # (see repro.incremental.delta.MutationLog); None costs one attribute
    # load per mutation and nothing else.
    _delta_log = None

    @property
    def version(self) -> int:
        """Monotonic structure version; bumped by every mutating op.

        Two reads returning the same value guarantee no node or edge was
        added or removed in between — the contract the snapshot cache
        relies on. Attribute-only updates (e.g. ``Network`` attributes)
        do not change structure and do not bump it.
        """
        return self._version

    def _bump_version(self) -> None:
        """Record one structural mutation (invalidates cached snapshots)."""
        self._version += 1

    def _record_delta(self, kind: str, a: int = -1, b: int = -1) -> None:
        """Append one mutation to the attached delta log, if any.

        Called by the mutators *after* their version bump so the record
        carries the version the mutation produced. Inert (one attribute
        load, one ``None`` check) unless the snapshot cache attached a
        log for incremental maintenance.
        """
        log = self._delta_log
        if log is not None:
            log.record(self._version, kind, a, b)

    def _poison_delta(self, reason: str) -> None:
        """Mark the attached delta log unusable (bulk-install paths)."""
        log = self._delta_log
        if log is not None:
            log.poison(reason)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    def has_node(self, node_id: int) -> bool:
        """Whether ``node_id`` is present."""
        return node_id in self._nodes

    def nodes(self) -> Iterator[int]:
        """Iterate node ids (hash-table order: insertion order in CPython)."""
        return iter(self._nodes)

    def node_array(self) -> np.ndarray:
        """All node ids as an int64 array."""
        return np.fromiter(self._nodes.keys(), dtype=np.int64, count=len(self._nodes))

    def _require_node(self, node_id: int) -> None:
        if node_id not in self._nodes:
            raise NodeNotFoundError(node_id)

    def max_node_id(self) -> int:
        """Largest node id, or -1 for an empty graph."""
        return max(self._nodes, default=-1)
