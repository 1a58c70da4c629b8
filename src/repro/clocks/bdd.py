"""A reduced ordered binary decision diagram (ROBDD) package.

The SIGNAL compiler's clock calculus manipulates boolean formulas over
presence and value conditions; canonicalising them is what lets the compiler
decide clock equivalence, inclusion and emptiness.  This module provides the
ROBDD machinery needed for that: a manager with hash-consed nodes, the
``ite`` combinator, the usual boolean connectives, restriction,
satisfiability and model enumeration.

The same engine is reused by the verification layer to represent state
predicates symbolically: quantification, variable renaming and the combined
relational product (``and_exists``) are the primitives the symbolic
reachability engine of :mod:`repro.verification.symbolic_int` builds its
image computation from, over the partitioned relation of
:mod:`repro.verification.relational`.

The diagram store lives in flat parallel lists:

* A *node* is an index ``n`` into ``_var``/``_lo``/``_hi`` (variable id,
  low edge, high edge).  Index 0 is the only terminal.
* An *edge* is ``(n << 1) | complement``: the low bit tags logical
  negation, so edge 0 is TRUE, edge 1 is FALSE, and ``neg`` is a single
  XOR — no traversal, no allocation.  Canonical form: the **stored high
  edge of every node is regular** (complement bit clear); ``_mk``
  normalises by complementing both children and returning a complemented
  edge instead, which is what makes ``f`` and ``¬f`` share one node and
  ``ite(x, 1, 0)`` the only representation of a literal.
* The unique table is one integer hash table: the ``(var, low, high)``
  triple is packed into a single int key mapping to the slot index, so
  every probe hashes and compares machine integers (and sifting's eager
  deletions are plain key removals).
* All boolean connectives funnel into one recursive ``_ite`` with the
  Brace–Rudell–Bryant *standard triple* normalisation, backed by a single
  packed-integer-keyed computed cache shared with quantification and the
  relational product, bounded at ``_CACHE_RATIO`` times the unique-table
  size and dropped wholesale on overflow or garbage collection (losing
  entries only costs recomputation, never correctness).

Handles: the public API trades in :class:`BDDNode` objects with
``variable``/``low``/``high``/``identifier`` attributes — a two-word view
over an edge, canonicalised through a ``WeakValueDictionary`` so
``is``-identity decides function equality.  Their ``low``/``high``
properties push the complement bit down, presenting the plain-BDD view
:func:`dump_nodes` serialises.

Variable ordering is dynamic: beyond the static first-use order the callers
establish with :meth:`BDDManager.declare`, the manager implements the
classical in-place adjacent *level exchange* and group-aware Rudell
*sifting* (:meth:`BDDManager.reorder`), auto-triggered on unique-table
growth when ``auto_reorder`` is on.  Every exchange rewrites the affected
nodes in place — same slot, same identifier, same boolean function — so
node references held by callers and name-based renaming maps stay valid
across reorders.  :meth:`BDDManager.group_variables` pins variable tuples
(the symbolic engine's prime/unprime pairs) adjacent through every reorder.
"""

from __future__ import annotations

import weakref
from typing import Iterable, Iterator, Mapping, Optional, Sequence

class NodeBudgetExceeded(RuntimeError):
    """The unique table outgrew the manager's declared ``node_budget``.

    Raised *before* the node that would overflow is created, so the diagram
    is left consistent; benchmarking uses this to demonstrate orderings a
    static encoding cannot survive.  The budget is not enforced *during* a
    reorder (an exception mid-exchange would corrupt the diagram) — growth
    there is bounded instead by the sifting ``MAX_GROWTH`` abort factor,
    and auto-reorder checkpoints arm early (at half the budget) so sifting
    gets a chance to shrink the table before the budget can fire.
    """


#: Process-wide accumulators over every manager, so test harnesses can record
#: peak BDD pressure per benchmark without threading managers around.
GLOBAL_STATS = {
    "managers": 0,
    "peak_nodes": 0,
    "reorders": 0,
    "cache_hits": 0,
    "cache_misses": 0,
}

#: Live managers, so :func:`global_stats` can fold their cache counters in
#: without the managers having to push on every operation.
_MANAGERS: "weakref.WeakSet[BDDManager]" = weakref.WeakSet()


def reset_global_stats() -> None:
    """Zero the process-wide BDD counters (per-benchmark bookkeeping)."""
    GLOBAL_STATS.update(
        managers=0, peak_nodes=0, reorders=0, cache_hits=0, cache_misses=0
    )
    for manager in list(_MANAGERS):
        manager._stat_base_hits = manager.cache_hits
        manager._stat_base_misses = manager.cache_misses


def global_stats() -> dict:
    """A snapshot of the process-wide BDD counters.

    Cache hits/misses are summed over the live managers (relative to the
    last :func:`reset_global_stats`) plus whatever finalised managers
    flushed into the accumulators.
    """
    snapshot = dict(GLOBAL_STATS)
    for manager in list(_MANAGERS):
        snapshot["cache_hits"] += manager.cache_hits - manager._stat_base_hits
        snapshot["cache_misses"] += manager.cache_misses - manager._stat_base_misses
    return snapshot


#: Version tag of the :func:`dump_nodes` payload layout.  Bump on any change
#: to the node-table encoding so stale persisted dumps are rejected as a
#: cache miss instead of being mis-decoded.
DUMP_FORMAT = 1


def dump_nodes(manager: "BDDManager", roots: Sequence["BDDNode"]) -> dict:
    """Serialise the diagrams of ``roots`` into a pure-data payload.

    The payload is a children-first node table over the dump-time variable
    order — plain strings, ints and lists, so it pickles/JSONs freely::

        {"format": DUMP_FORMAT,
         "order": [...variable names, dump-time level order, support only...],
         "nodes": [[variable, low_index, high_index], ...],
         "roots": [index, ...]}          # parallel to ``roots``

    Indices 0 and 1 denote the false/true terminals; internal nodes are
    numbered from 2 in table order.  Shared sub-diagrams are emitted once,
    so the table size equals the shared node count of the root set.  The
    payload records *which* order the nodes were reduced under, but
    :func:`load_nodes` does not depend on it — diagrams are rebuilt
    bottom-up with ``ite``, which re-canonicalises under whatever order the
    target manager currently has.
    """
    V, L, H, name_of = manager._var, manager._lo, manager._hi, manager._name_of
    index: dict[int, int] = {1: 0, 0: 1}  # edge -> table index; FALSE, TRUE
    nodes: list[list] = []
    for root in roots:
        stack = [(root._edge, False)]
        while stack:
            e, expanded = stack.pop()
            if e in index:
                continue
            n, c = e >> 1, e & 1  # push the complement into the children
            if expanded:
                nodes.append([name_of[V[n]], index[L[n] ^ c], index[H[n] ^ c]])
                index[e] = len(nodes) + 1
            else:
                stack += ((e, True), (H[n] ^ c, False), (L[n] ^ c, False))
    used = {entry[0] for entry in nodes}
    return {
        "format": DUMP_FORMAT,
        "order": [name for name in manager.variables if name in used],
        "nodes": nodes,
        "roots": [index[root._edge] for root in roots],
    }


def load_nodes(manager: "BDDManager", payload: Mapping) -> list["BDDNode"]:
    """Rebuild the diagrams of a :func:`dump_nodes` payload in ``manager``.

    Returns the root nodes, parallel to the ``roots`` the dump was taken
    over.  The target manager may have a *different* current variable order
    than the dump-time one: every table entry is rebuilt bottom-up through
    ``ite(var, high, low)``, which re-reduces the diagram under the target
    order, and hash-consing guarantees that reloading a function the
    manager already holds yields the identical node object.  Variables the
    payload mentions that the manager has not seen are declared (appended
    to the order) on the fly.

    Raises:
        ValueError: on a payload whose ``format`` tag or table shape this
            version does not understand (a torn or stale cache entry).
    """
    if not isinstance(payload, Mapping) or payload.get("format") != DUMP_FORMAT:
        raise ValueError(f"unsupported BDD dump payload (format {payload.get('format')!r})"
                         if isinstance(payload, Mapping) else "BDD dump payload is not a mapping")
    return manager._load_payload(payload)


#: Level sentinel for the terminal — orders below every real variable.
_BIG = 1 << 60

#: Computed-table operation tags (one cache, many operations; the tag
#: occupies the low 3 bits of the packed cache key).
_OP_ITE = 1
_OP_EX = 2
_OP_ALL = 3
_OP_ANDEX = 4


class BDDNode:
    """A canonical handle over one edge of a :class:`BDDManager`.

    Presents the node protocol (``variable``, ``low``, ``high``,
    ``identifier``, ``is_terminal``) over the packed edge; the complement
    bit is pushed into the children on access, so walking ``low``/``high``
    yields the plain (complement-free) view of the function.  Handles are
    hash-consed per edge through the manager's weak table, so two
    references to the same function are the same object.
    """

    __slots__ = ("manager", "_edge", "__weakref__")

    def __init__(self, manager: "BDDManager", edge: int) -> None:
        self.manager = manager
        self._edge = edge

    @property
    def identifier(self) -> int:
        # uid is per-slot and never reused, the low bit keeps f and ¬f
        # distinct — together: a process-unique, never-recycled function id.
        return (self.manager._uid[self._edge >> 1] << 1) | (self._edge & 1)

    @property
    def variable(self) -> Optional[str]:
        n = self._edge >> 1
        if n == 0:
            return None
        manager = self.manager
        return manager._name_of[manager._var[n]]

    @property
    def is_terminal(self) -> bool:
        return self._edge < 2

    @property
    def low(self) -> Optional["BDDNode"]:
        e = self._edge
        n = e >> 1
        if n == 0:
            return None
        manager = self.manager
        return manager._handle(manager._lo[n] ^ (e & 1))

    @property
    def high(self) -> Optional["BDDNode"]:
        e = self._edge
        n = e >> 1
        if n == 0:
            return None
        manager = self.manager
        return manager._handle(manager._hi[n] ^ (e & 1))

    def __repr__(self) -> str:
        if self._edge < 2:
            return f"BDD({'1' if self._edge == 0 else '0'})"
        return f"BDD({self.variable}, id={self.identifier})"


class BDDManager:
    """Factory and algebra of ROBDDs over a growable, ordered variable set.

    See the module docstring for the store layout.  Nodes handed out are
    :class:`BDDNode` handles; every boolean connective goes through
    :meth:`ite`, and :meth:`reorder` is the one entry point of dynamic
    variable reordering (sifting).
    """

    #: The computed cache is bounded at ``_CACHE_RATIO x unique-table size``
    #: (with a fixed floor ``_MIN_CACHE``): when an insert trips the bound
    #: the limit is re-derived from the table's current size, and the cache
    #: is dropped wholesale if it is still over — so between garbage
    #: collections the cache tracks the diagram store instead of growing
    #: without bound.
    _CACHE_RATIO = 4.0

    _MIN_CACHE = 1 << 12

    #: Sifting abandons a sweep direction once the live node count exceeds
    #: this factor times the best count seen.
    MAX_GROWTH = 1.4

    def __init__(
        self,
        variables: Iterable[str] = (),
        *,
        auto_reorder: bool = False,
        reorder_threshold: int = 20000,
        node_budget: Optional[int] = None,
    ) -> None:
        self._order: list[str] = []
        self._rank: dict[str, int] = {}
        #: Reordering state: grouped variables stay adjacent, protected nodes
        #: are the live roots sifting minimises, and the flag defers budget
        #: enforcement while exchanges are in flight.
        self._groups: dict[str, tuple[str, ...]] = {}
        self._protected: list[BDDNode] = []
        self._protected_ids: set[int] = set()
        self.auto_reorder = auto_reorder
        # Arm the first auto-reorder before a node budget can fire (a design
        # one sift would fit must reach a checkpoint while still under
        # budget); post-reorder doubling then governs re-arming as usual.
        if node_budget is not None:
            reorder_threshold = min(reorder_threshold, max(node_budget // 2, 1))
        self.reorder_threshold = reorder_threshold
        self.node_budget = node_budget
        self.reorder_count = 0
        self.peak_nodes = 0
        self._reordering = False
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_clears = 0
        self._stat_base_hits = 0
        self._stat_base_misses = 0
        # Slot 0 is the single terminal; edge 0 = TRUE, edge 1 = FALSE.
        self._var: list[int] = [0]   # variable id per slot, -1 = free slot
        self._lo: list[int] = [0]
        self._hi: list[int] = [0]
        self._uid: list[int] = [0]   # stable per-slot ids, never reused
        self._ref: list[int] = [0]   # refcounts, meaningful during reorders
        self._next_uid = 1
        self._created = 0
        self._count = 0              # live (non-free) internal slots
        self._free: list[int] = []   # reusable slots (refilled by GC sweeps)
        # The unique table: packed ``(vid << 64) | (lo << 32) | hi`` integer
        # keys to slot indices.  Integer keys hash and compare in C, which
        # is what makes ``_mk`` cheap; deletion (sifting) is a plain ``del``.
        self._index: dict[int, int] = {}
        # Variable bookkeeping: names <-> stable variable ids <-> levels.
        # Nodes store the id, so a level exchange never rewrites node data
        # beyond the two levels being swapped.
        self._name_of: list[Optional[str]] = [None]  # id 0 = the terminal
        self._varids: dict[str, int] = {}
        self._level_of: list[int] = [_BIG]
        self._var_at: list[int] = []                 # level -> variable id
        self._var_nodes: dict[int, list[int]] = {}   # id -> slots (lazily filtered)
        # One computed cache for every operation, keyed on packed integers
        # with a 3-bit op tag; bounded at ``_CACHE_RATIO`` x the unique-table
        # size and dropped wholesale on overflow or garbage collection.
        self._cache: dict[int, int] = {}
        self._cache_limit = self._MIN_CACHE
        self._quant_ids: dict[frozenset, int] = {}
        self._handles: "weakref.WeakValueDictionary[int, BDDNode]" = (
            weakref.WeakValueDictionary()
        )
        self.true = BDDNode(self, 0)
        self.false = BDDNode(self, 1)
        self._handles[0] = self.true
        self._handles[1] = self.false
        GLOBAL_STATS["managers"] += 1
        _MANAGERS.add(self)
        for name in variables:
            self.declare(name)

    def __del__(self):  # pragma: no cover - exercised indirectly
        # Fold this manager's cache counters into the process accumulators
        # so global_stats() keeps counting after the manager is collected.
        try:
            GLOBAL_STATS["cache_hits"] += self.cache_hits - self._stat_base_hits
            GLOBAL_STATS["cache_misses"] += self.cache_misses - self._stat_base_misses
        except Exception:
            pass

    # -- handles -------------------------------------------------------------------

    def _handle(self, edge: int) -> BDDNode:
        handle = self._handles.get(edge)
        if handle is None:
            handle = BDDNode(self, edge)
            self._handles[edge] = handle
        return handle

    # -- variables -----------------------------------------------------------------

    def declare(self, name: str) -> None:
        """Declare a variable (appended at the end of the ordering)."""
        if name not in self._rank:
            self._rank[name] = len(self._order)
            self._order.append(name)
            vid = len(self._name_of)
            self._varids[name] = vid
            self._name_of.append(name)
            self._level_of.append(len(self._var_at))
            self._var_at.append(vid)

    @property
    def variables(self) -> tuple[str, ...]:
        """Variables in ordering position."""
        return tuple(self._order)

    def group_variables(self, names: Sequence[str]) -> None:
        """Pin ``names`` together as one reordering group.

        The variables must already sit contiguously in the current order (the
        symbolic engine declares a state bit and its primed copy back to
        back); sifting then moves the whole block as a unit, so prime/unprime
        pairs stay adjacent — the property that keeps renamed relation BDDs
        small — across every reorder.
        """
        group = tuple(names)
        if len(group) < 2:
            return
        for name in group:
            self.declare(name)
        ranks = [self._rank[name] for name in group]
        if ranks != list(range(ranks[0], ranks[0] + len(group))):
            raise ValueError(f"group {group} is not contiguous in the current order")
        for name in group:
            existing = self._groups.get(name)
            if existing is not None and existing != group:
                raise ValueError(f"variable {name!r} already belongs to group {existing}")
        for name in group:
            self._groups[name] = group

    def protect(self, node: BDDNode) -> BDDNode:
        """Register ``node`` as a live root of the reordering metric.

        Protection never affects correctness — every node stays valid across
        reorders whether protected or not (exchanges preserve node identity
        and function).  It only tells sifting which diagrams' total size to
        minimise: the engines protect their durable artifacts (transition
        clusters, reached sets, frontier rings) and scratch nodes stay out of
        the metric.  Returns ``node`` for chaining.
        """
        if not node.is_terminal and node.identifier not in self._protected_ids:
            self._protected_ids.add(node.identifier)
            self._protected.append(node)
        return node

    def var(self, name: str) -> BDDNode:
        """The BDD of the literal ``name``."""
        self.declare(name)
        return self._handle(self._mk(self._varids[name], 1, 0))

    def nvar(self, name: str) -> BDDNode:
        """The BDD of the negated literal ``¬name``."""
        self.declare(name)
        return self._handle(self._mk(self._varids[name], 1, 0) ^ 1)

    # -- node construction ---------------------------------------------------------

    def _mk(self, vid: int, lo: int, hi: int) -> int:
        """Find-or-create the canonical edge for ``vid ? hi : lo``."""
        if lo == hi:
            return lo
        c = hi & 1
        if c:  # keep the stored high edge regular: push the complement up
            lo ^= 1
            hi ^= 1
        key = (vid << 64) | (lo << 32) | hi
        n = self._index.get(key)
        if n is not None:
            return (n << 1) | c
        if (
            self.node_budget is not None
            and not self._reordering
            and self._count >= self.node_budget
        ):
            raise NodeBudgetExceeded(
                f"unique table would outgrow the node budget of {self.node_budget}"
            )
        n = self._alloc(vid, lo, hi)
        self._index[key] = n
        return (n << 1) | c

    def _alloc(self, vid: int, lo: int, hi: int) -> int:
        """Claim a free (or fresh) slot for a new node."""
        # Reuse is safe mid-sift too: the lazy per-level lists may then hold
        # duplicate entries for a resurrected slot, which the exchange scan
        # deduplicates.
        if self._free:
            n = self._free.pop()
            self._var[n] = vid
            self._lo[n] = lo
            self._hi[n] = hi
            self._uid[n] = self._next_uid
            self._ref[n] = 0
        else:
            n = len(self._var)
            self._var.append(vid)
            self._lo.append(lo)
            self._hi.append(hi)
            self._uid.append(self._next_uid)
            self._ref.append(0)
        self._next_uid += 1
        self._created += 1
        self._var_nodes.setdefault(vid, []).append(n)
        self._count += 1
        if self._count > self.peak_nodes:
            self.peak_nodes = self._count
            if self._count > GLOBAL_STATS["peak_nodes"]:
                GLOBAL_STATS["peak_nodes"] = self._count
        return n

    def _rebuild_index(self) -> None:
        """Re-key the unique table from the live slots (after a GC sweep)."""
        V, L, H = self._var, self._lo, self._hi
        index: dict[int, int] = {}
        for n in range(1, len(V)):
            vid = V[n]
            if vid >= 0:
                index[(vid << 64) | (L[n] << 32) | H[n]] = n
        self._index = index

    def _cache_overflow(self) -> None:
        """Called when the computed cache outgrows its limit: raise the
        limit if the unique table has grown to justify it, clear otherwise."""
        limit = max(self._MIN_CACHE, int(self._CACHE_RATIO * len(self._index)))
        if len(self._cache) >= limit:
            self._cache.clear()
            self.cache_clears += 1
        self._cache_limit = limit

    def _cache_clear(self) -> None:
        self._cache.clear()
        self._cache_limit = max(self._MIN_CACHE, int(self._CACHE_RATIO * len(self._index)))
        self.cache_clears += 1

    # -- the ITE primitive and the boolean connectives ---------------------------------

    def ite(self, condition: BDDNode, then: BDDNode, otherwise: BDDNode) -> BDDNode:
        """The if-then-else combinator, core of every boolean connective."""
        return self._handle(self._ite(condition._edge, then._edge, otherwise._edge))

    def neg(self, node: BDDNode) -> BDDNode:
        """Negation ``¬node`` — one bit flip on the edge."""
        return self._handle(node._edge ^ 1)

    def _ite(self, f: int, g: int, h: int) -> int:
        # Terminal / absorption cases.
        if f == 0:
            return g
        if f == 1:
            return h
        if g == h:
            return g
        if g == f:
            g = 0
        elif g == f ^ 1:
            g = 1
        if h == f:
            h = 1
        elif h == f ^ 1:
            h = 0
        if g == h:
            return g
        if g == 0 and h == 1:
            return f
        if g == 1 and h == 0:
            return f ^ 1
        # Standard-triple normalisation: pick a canonical representative of
        # the equivalent (f, g, h) argument triples so commutative forms
        # share one cache line.
        if g == 0:            # ite(f, 1, h) = f OR h = ite(h, 1, f)
            if h < f:
                f, h = h, f
        elif h == 1:          # ite(f, g, 0) = f AND g = ite(g, f, 0)
            if g < f:
                f, g = g, f
        elif h == g ^ 1:      # ite(f, g, ¬g) = f XNOR g = ite(g, f, ¬f)
            if g < f:
                f, g = g, f
                h = g ^ 1
        if f & 1:             # regular first argument: ite(¬f, g, h) = ite(f, h, g)
            f ^= 1
            g, h = h, g
        flip = g & 1          # regular then-branch: complement the output
        if flip:
            g ^= 1
            h ^= 1
        cache = self._cache
        key = (((f << 32 | g) << 32 | h) << 3) | _OP_ITE
        result = cache.get(key)
        if result is not None:
            self.cache_hits += 1
            return result ^ flip
        self.cache_misses += 1
        V, L, H, LEV = self._var, self._lo, self._hi, self._level_of
        nf = f >> 1
        level = LEV[V[nf]]
        ng = g >> 1
        if ng:
            lg = LEV[V[ng]]
            if lg < level:
                level = lg
        nh = h >> 1
        if nh:
            lh = LEV[V[nh]]
            if lh < level:
                level = lh
        if LEV[V[nf]] == level:   # f is regular here: cofactor directly
            f0, f1 = L[nf], H[nf]
        else:
            f0 = f1 = f
        if ng and LEV[V[ng]] == level:  # g is regular after the flip
            g0, g1 = L[ng], H[ng]
        else:
            g0 = g1 = g
        if nh and LEV[V[nh]] == level:  # h may carry a complement bit
            ch = h & 1
            h0, h1 = L[nh] ^ ch, H[nh] ^ ch
        else:
            h0 = h1 = h
        r1 = self._ite(f1, g1, h1)
        r0 = self._ite(f0, g0, h0)
        result = r1 if r0 == r1 else self._mk(self._var_at[level], r0, r1)
        cache[key] = result
        if len(cache) >= self._cache_limit:
            self._cache_overflow()
        return result ^ flip

    def conj(self, left: BDDNode, right: BDDNode) -> BDDNode:
        """Conjunction ``left ∧ right``."""
        return self.ite(left, right, self.false)

    def disj(self, left: BDDNode, right: BDDNode) -> BDDNode:
        """Disjunction ``left ∨ right``."""
        return self.ite(left, self.true, right)

    def diff(self, left: BDDNode, right: BDDNode) -> BDDNode:
        """Difference ``left ∧ ¬right``."""
        return self.conj(left, self.neg(right))

    def xor(self, left: BDDNode, right: BDDNode) -> BDDNode:
        """Exclusive or."""
        return self.ite(left, self.neg(right), right)

    def implies(self, left: BDDNode, right: BDDNode) -> BDDNode:
        """Implication ``left ⇒ right``."""
        return self.ite(left, right, self.true)

    def conj_all(self, nodes: Iterable[BDDNode]) -> BDDNode:
        """Conjunction of a collection (true when empty)."""
        result = self.true
        for node in nodes:
            result = self.conj(result, node)
        return result

    def disj_all(self, nodes: Iterable[BDDNode]) -> BDDNode:
        """Disjunction of a collection (false when empty)."""
        result = self.false
        for node in nodes:
            result = self.disj(result, node)
        return result

    def cube(self, assignment: Mapping[str, bool]) -> BDDNode:
        """The conjunction of literals in ``assignment``, built bottom-up in
        current level order whatever the mapping's order: one ``_mk`` (at
        most one new node) per literal, no ``ite`` call."""
        for name in assignment:
            self.declare(name)
        e = 0
        for name in sorted(assignment, key=self._rank.__getitem__, reverse=True):
            vid = self._varids[name]
            e = self._mk(vid, 1, e) if assignment[name] else self._mk(vid, e, 1)
        return self._handle(e)

    # -- quantification and relational operations ---------------------------------------

    def _quant_set(self, variables: Iterable[str]) -> tuple[frozenset, int]:
        names = variables if isinstance(variables, frozenset) else frozenset(variables)
        varids = self._varids
        # Undeclared names cannot occur in any diagram: drop them.
        vids = frozenset(varids[name] for name in names if name in varids)
        set_id = self._quant_ids.get(vids)
        if set_id is None:
            set_id = len(self._quant_ids)
            self._quant_ids[vids] = set_id
        return vids, set_id

    def exists(self, node: BDDNode, variables: Iterable[str]) -> BDDNode:
        """Existential quantification ``∃ variables . node``."""
        vids, set_id = self._quant_set(variables)
        if not vids:
            return self._handle(node._edge)
        deepest = max(self._level_of[v] for v in vids)
        return self._handle(self._quantify(node._edge, vids, set_id, True, deepest))

    def forall(self, node: BDDNode, variables: Iterable[str]) -> BDDNode:
        """Universal quantification ``∀ variables . node``."""
        vids, set_id = self._quant_set(variables)
        if not vids:
            return self._handle(node._edge)
        deepest = max(self._level_of[v] for v in vids)
        return self._handle(self._quantify(node._edge, vids, set_id, False, deepest))

    def _quantify(self, e: int, vids: frozenset, set_id: int, existential: bool, deepest: int) -> int:
        # Quantification does not commute with complement (∃x.¬f ≠ ¬∃x.f),
        # so the cache keys and the recursion work on the full edge, pushing
        # the complement bit into the cofactors.
        n = e >> 1
        if n == 0:
            return e
        V, L, H, LEV = self._var, self._lo, self._hi, self._level_of
        vid = V[n]
        if LEV[vid] > deepest:  # no quantified variable below this level
            return e
        cache = self._cache
        key = ((e << 32 | set_id) << 3) | (_OP_EX if existential else _OP_ALL)
        result = cache.get(key)
        if result is not None:
            self.cache_hits += 1
            return result
        self.cache_misses += 1
        c = e & 1
        lo = L[n] ^ c
        hi = H[n] ^ c
        if vid in vids:
            r0 = self._quantify(lo, vids, set_id, existential, deepest)
            if existential:
                if r0 == 0:
                    result = 0
                else:
                    r1 = self._quantify(hi, vids, set_id, existential, deepest)
                    result = self._ite(r0, 0, r1)  # r0 OR r1
            else:
                if r0 == 1:
                    result = 1
                else:
                    r1 = self._quantify(hi, vids, set_id, existential, deepest)
                    result = self._ite(r0, r1, 1)  # r0 AND r1
        else:
            r0 = self._quantify(lo, vids, set_id, existential, deepest)
            r1 = self._quantify(hi, vids, set_id, existential, deepest)
            result = r1 if r0 == r1 else self._mk(vid, r0, r1)
        cache[key] = result
        if len(cache) >= self._cache_limit:
            self._cache_overflow()
        return result

    def and_exists(self, left: BDDNode, right: BDDNode, variables: Iterable[str]) -> BDDNode:
        """The relational product ``∃ variables . left ∧ right`` in one pass.

        Quantifying while conjoining avoids materialising the (often much
        larger) conjunction — the classical optimisation of symbolic image
        computation.
        """
        vids, set_id = self._quant_set(variables)
        deepest = -1
        if vids:
            deepest = max(self._level_of[v] for v in vids)
        return self._handle(self._andex(left._edge, right._edge, vids, set_id, deepest))

    def _andex(self, a: int, b: int, vids: frozenset, set_id: int, deepest: int) -> int:
        if a == 1 or b == 1:
            return 1
        if a == b:
            if a < 2:
                return a
            return self._quantify(a, vids, set_id, True, deepest)
        if a == b ^ 1:
            return 1
        if a == 0:
            return self._quantify(b, vids, set_id, True, deepest)
        if b == 0:
            return self._quantify(a, vids, set_id, True, deepest)
        V, L, H, LEV = self._var, self._lo, self._hi, self._level_of
        na, nb = a >> 1, b >> 1
        la, lb = LEV[V[na]], LEV[V[nb]]
        if la > deepest and lb > deepest:
            return self._ite(a, b, 1)  # plain conjunction below the last quantified level
        if a > b:
            a, b = b, a
            na, nb = nb, na
            la, lb = lb, la
        cache = self._cache
        key = (((a << 32 | b) << 32 | set_id) << 3) | _OP_ANDEX
        result = cache.get(key)
        if result is not None:
            self.cache_hits += 1
            return result
        self.cache_misses += 1
        level = la if la < lb else lb
        vid = self._var_at[level]
        if la == level:
            ca = a & 1
            a0, a1 = L[na] ^ ca, H[na] ^ ca
        else:
            a0 = a1 = a
        if lb == level:
            cb = b & 1
            b0, b1 = L[nb] ^ cb, H[nb] ^ cb
        else:
            b0 = b1 = b
        if vid in vids:
            r0 = self._andex(a0, b0, vids, set_id, deepest)
            if r0 == 0:
                result = 0
            else:
                r1 = self._andex(a1, b1, vids, set_id, deepest)
                result = self._ite(r0, 0, r1)  # r0 OR r1
        else:
            r0 = self._andex(a0, b0, vids, set_id, deepest)
            r1 = self._andex(a1, b1, vids, set_id, deepest)
            result = r1 if r0 == r1 else self._mk(vid, r0, r1)
        cache[key] = result
        if len(cache) >= self._cache_limit:
            self._cache_overflow()
        return result

    def _rename_relevant(self, node: BDDNode, mapping: Mapping[str, str]) -> dict[str, str]:
        """The support-restricted, validated renaming (targets declared)."""
        support = self.support(node)
        relevant = {old: new for old, new in mapping.items() if old in support}
        clashes = (set(relevant.values()) & support) - set(relevant)
        if clashes:
            raise ValueError(f"rename targets {sorted(clashes)} collide with the support")
        if len(set(relevant.values())) != len(relevant):
            duplicated = sorted({new for new in relevant.values() if list(relevant.values()).count(new) > 1})
            raise ValueError(f"rename is not injective on the support: targets {duplicated} are duplicated")
        for new in relevant.values():
            self.declare(new)
        return relevant

    def rename(self, node: BDDNode, mapping: Mapping[str, str]) -> BDDNode:
        """Simultaneous substitution of variables by variables.

        When the renaming is monotone on the support's levels (the
        prime/unprime case: grouped pairs keep both orders aligned), the
        diagram is relabelled structurally bottom-up in one O(n) pass;
        otherwise it falls back to ite-composition, which re-reduces under
        the target order.
        """
        relevant = self._rename_relevant(node, mapping)
        if not relevant:
            return self._handle(node._edge)
        varids = self._varids
        vmap = {varids[old]: varids[new] for old, new in relevant.items()}
        LEV = self._level_of
        ordered = sorted({self._var[n] for n in self._reachable([node._edge])}, key=LEV.__getitem__)
        mapped = [LEV[vmap.get(v, v)] for v in ordered]
        memo: dict[int, int] = {}
        if all(x < y for x, y in zip(mapped, mapped[1:])):
            edge = node._edge
            result = self._relabel(edge & ~1, vmap, memo) ^ (edge & 1)
            return self._handle(result)
        return self._handle(self._compose(node._edge, vmap, memo))

    def _relabel(self, e: int, vmap: dict[int, int], memo: dict[int, int]) -> int:
        """Structural bottom-up relabel of a regular edge (order-preserving map)."""
        n = e >> 1
        if n == 0:
            return e
        done = memo.get(n)
        if done is not None:
            return done
        lo = self._lo[n]
        hi = self._hi[n]
        rlo = self._relabel(lo & ~1, vmap, memo) ^ (lo & 1)
        rhi = self._relabel(hi, vmap, memo)  # stored high edges are regular
        vid = self._var[n]
        result = self._mk(vmap.get(vid, vid), rlo, rhi)
        memo[n] = result
        return result

    def _compose(self, e: int, vmap: dict[int, int], memo: dict[int, int]) -> int:
        """Rename by ite-composition (correct for order-breaking maps)."""
        n = e >> 1
        if n == 0:
            return e
        c = e & 1
        done = memo.get(n)
        if done is None:
            lo = self._compose(self._lo[n], vmap, memo)
            hi = self._compose(self._hi[n], vmap, memo)
            vid = self._var[n]
            literal = self._mk(vmap.get(vid, vid), 1, 0)
            done = self._ite(literal, hi, lo)
            memo[n] = done
        return done ^ c  # substitution commutes with negation

    def preimage(
        self,
        relation: BDDNode,
        states: BDDNode,
        prime_map: Mapping[str, str],
        quantified: Iterable[str],
    ) -> BDDNode:
        """Predecessors of ``states`` under ``relation`` (backward image).

        The backward counterpart of the image relational product: ``states``
        (over unprimed state variables) is renamed onto the primed variables
        via ``prime_map``, conjoined with the transition relation, and the
        ``quantified`` variables (signal and primed state bits) are
        existentially eliminated in the same pass.  This is the primitive the
        counterexample-trace extraction of the symbolic engine walks the
        per-iteration frontier rings back through.
        """
        return self.and_exists(relation, self.rename(states, prime_map), quantified)

    # -- dynamic variable reordering -----------------------------------------------------

    def maybe_reorder(self, roots: Iterable[BDDNode] = ()) -> bool:
        """Reorder if the unique table outgrew ``reorder_threshold``.

        This is the *checkpoint* the engines call at points where they know
        their complete live set — between fixpoint iterations, between
        relation conjuncts — passing the still-unprotected working nodes as
        ``roots`` (combined with every :meth:`protect`-ed node).  Reordering
        garbage-collects down to those roots first (see :meth:`reorder`), so
        a checkpoint is only safe when everything the caller will touch again
        is protected or listed.  Returns True when a reorder actually ran.
        """
        if not self.auto_reorder or self._reordering:
            return False
        population = self._population()
        # A checkpoint near the node budget always gets to collect and
        # re-sift, whatever the threshold has doubled to — dying on budget
        # without having tried a reorder would defeat the budget's purpose.
        near_budget = (
            self.node_budget is not None and population >= (3 * self.node_budget) // 4
        )
        if population < self.reorder_threshold and not near_budget:
            return False
        self.reorder(roots=[*self._protected, *roots])
        # Classic threshold doubling: don't re-sift until the table has
        # genuinely outgrown what this pass settled on.
        self.reorder_threshold = max(self.reorder_threshold, 2 * self._population())
        return True

    def reorder(self, roots: Optional[Iterable[BDDNode]] = None) -> int:
        """One pass of group-aware Rudell sifting over the live diagrams.

        The unique table is first garbage-collected down to the nodes
        reachable from ``roots`` (default: the :meth:`protect`-ed set) —
        **nodes outside those diagrams are dropped and must not be passed
        back into the manager afterwards**.  Then every group (prime/unprime
        pairs declared via :meth:`group_variables`; other variables are
        singletons) is moved through the order by adjacent level exchanges —
        largest population first — and parked where the total live node
        count is smallest; a sweep direction is abandoned once the count
        exceeds :attr:`MAX_GROWTH` times the best seen.  Live nodes are mutated
        in place — same handle, same identifier, same function — so
        references *into the root diagrams* and name-based renaming maps all
        survive.  Returns the live node count after the pass.
        """
        root_nodes = [
            node
            for node in (list(roots) if roots is not None else self._protected)
            if not node.is_terminal
        ]
        if not root_nodes or len(self._order) < 2:
            return 0
        self._reordering = True
        try:
            self._begin_reorder(root_nodes)
            groups = self._grouped_order()
            counts = self._live_counts(root_nodes)
            population = {group: sum(counts[name] for name in group) for group in groups}
            for group in sorted(groups, key=lambda g: population[g], reverse=True):
                self._sift_group(groups, group)
            total = self._population()
            self._collect([handle._edge for handle in root_nodes])
        finally:
            self._reordering = False
        self.reorder_count += 1
        GLOBAL_STATS["reorders"] += 1
        return total

    def _grouped_order(self) -> list[tuple[str, ...]]:
        """The current order partitioned into reordering units (groups)."""
        groups: list[tuple[str, ...]] = []
        index = 0
        while index < len(self._order):
            group = self._groups.get(self._order[index])
            if group is None:
                groups.append((self._order[index],))
                index += 1
                continue
            if tuple(self._order[index : index + len(group)]) != group:
                raise RuntimeError(f"group {group} lost its adjacency")
            groups.append(group)
            index += len(group)
        return groups

    def _swap_groups(self, groups: list[tuple[str, ...]], index: int) -> None:
        """Exchange the adjacent groups at ``index`` and ``index + 1``."""
        above, below = groups[index], groups[index + 1]
        base = self._rank[above[0]]
        span = len(above)
        for offset in range(len(below)):
            for position in range(base + span + offset - 1, base + offset - 1, -1):
                self._swap_adjacent(position)
        groups[index], groups[index + 1] = below, above

    def _sift_group(self, groups: list[tuple[str, ...]], group: tuple[str, ...]) -> None:
        """Sift one group to the position minimising the live table size."""
        position = groups.index(group)
        best_total, best_index = self._population(), position
        while position < len(groups) - 1:  # sweep down
            self._swap_groups(groups, position)
            position += 1
            total = self._population()
            if total < best_total:
                best_total, best_index = total, position
            if total > self.MAX_GROWTH * best_total:
                break
        while position > 0:  # sweep up, through the start position
            self._swap_groups(groups, position - 1)
            position -= 1
            total = self._population()
            if total < best_total:
                best_total, best_index = total, position
            if total > self.MAX_GROWTH * best_total and position <= best_index:
                break
        while position < best_index:  # park at the best position seen
            self._swap_groups(groups, position)
            position += 1
        while position > best_index:
            self._swap_groups(groups, position - 1)
            position -= 1

    def _population(self) -> int:
        return self._count

    def _begin_reorder(self, root_nodes: Sequence[BDDNode]) -> None:
        edges = [handle._edge for handle in root_nodes]
        self._collect(edges)
        # Root and parent reference counts let exchanges delete dead slots
        # eagerly: from here on ``_count`` is the live total, the sifting
        # metric.
        V, L, H, R = self._var, self._lo, self._hi, self._ref
        for n in range(1, len(V)):
            if V[n] >= 0:
                R[n] = 0
        for n in range(1, len(V)):
            if V[n] >= 0:
                m = L[n] >> 1
                if m:
                    R[m] += 1
                m = H[n] >> 1
                if m:
                    R[m] += 1
        for e in edges:
            n = e >> 1
            if n:
                R[n] += 1

    def _collect(self, root_edges: Sequence[int]) -> None:
        """Mark-and-sweep down to the diagrams of ``root_edges``.

        Unreachable slots are freed for reuse, the unique table is rebuilt
        without tombstones, the per-level lists are refiltered, and the
        computed cache is dropped wholesale (its entries may name freed
        slots).
        """
        V, L, H = self._var, self._lo, self._hi
        mark = bytearray(len(V))
        stack = [e >> 1 for e in root_edges if e >= 2]
        while stack:
            n = stack.pop()
            if mark[n]:
                continue
            mark[n] = 1
            m = L[n] >> 1
            if m and not mark[m]:
                stack.append(m)
            m = H[n] >> 1
            if m and not mark[m]:
                stack.append(m)
        var_nodes: dict[int, list[int]] = {}
        free: list[int] = []
        count = 0
        for n in range(1, len(V)):
            if mark[n]:
                var_nodes.setdefault(V[n], []).append(n)
                count += 1
            else:
                V[n] = -1
                free.append(n)
        self._var_nodes = var_nodes
        self._free = free
        self._count = count
        self._rebuild_index()
        self._cache_clear()

    def _swap_adjacent(self, position: int) -> None:
        """Exchange the variables at ``position`` and ``position + 1`` in place.

        The classical level exchange over the array store: an affected node
        keeps its slot and uid (so handles and shipped identifiers stay
        valid) while its variable id, low and high are rewritten.  The
        complement-edge invariant survives without any edge flipping: the
        new high child is assembled from the old high cofactors, which are
        read off stored (hence regular) high edges, so ``_claim`` always
        returns it regular.
        """
        var_at = self._var_at
        upper = var_at[position]
        lower = var_at[position + 1]
        V, L, H, R = self._var, self._lo, self._hi, self._ref
        affected: list[int] = []
        remaining: list[int] = []
        seen: set[int] = set()
        for n in self._var_nodes.get(upper, ()):
            if V[n] != upper or R[n] <= 0 or n in seen:
                continue  # died, migrated, or a stale duplicate entry
            seen.add(n)
            m = L[n] >> 1
            k = H[n] >> 1
            if (m and V[m] == lower) or (k and V[k] == lower):
                affected.append(n)
            else:
                remaining.append(n)
        # Reset the level list before rewriting: freshly created upper-level
        # children re-register themselves through ``_claim``.
        self._var_nodes[upper] = remaining
        lower_level = self._var_nodes.setdefault(lower, [])
        # Level bookkeeping: ids, names, ranks.
        var_at[position], var_at[position + 1] = lower, upper
        self._level_of[upper] = position + 1
        self._level_of[lower] = position
        upper_name = self._name_of[upper]
        lower_name = self._name_of[lower]
        self._order[position], self._order[position + 1] = lower_name, upper_name
        self._rank[upper_name] = position + 1
        self._rank[lower_name] = position
        for n in affected:
            old_lo = L[n]
            old_hi = H[n]
            self._table_delete(upper, old_lo, old_hi)
            m = old_lo >> 1
            if m and V[m] == lower:
                c = old_lo & 1
                lo0, lo1 = L[m] ^ c, H[m] ^ c
            else:
                lo0 = lo1 = old_lo
            k = old_hi >> 1  # stored high edges are regular: no bit to push
            if k and V[k] == lower:
                hi0, hi1 = L[k], H[k]
            else:
                hi0 = hi1 = old_hi
            new_hi = self._claim(upper, lo1, hi1)
            new_lo = self._claim(upper, lo0, hi0)
            assert new_hi & 1 == 0, "level exchange produced a complemented high edge"
            V[n] = lower
            L[n] = new_lo
            H[n] = new_hi
            self._table_insert(lower, new_lo, new_hi, n)
            lower_level.append(n)
            self._release(old_lo)
            self._release(old_hi)

    def _claim(self, vid: int, lo: int, hi: int) -> int:
        """Reduced edge construction during a reorder, claiming one reference."""
        R = self._ref
        if lo == hi:
            n = lo >> 1
            if n:
                R[n] += 1
            return lo
        c = hi & 1
        if c:
            lo ^= 1
            hi ^= 1
        key = (vid << 64) | (lo << 32) | hi
        n = self._index.get(key)
        if n is not None:
            R[n] += 1
            return (n << 1) | c
        n = self._alloc(vid, lo, hi)
        self._index[key] = n
        R = self._ref  # _alloc may have extended the list object in place
        R[n] = 1
        m = lo >> 1
        if m:
            R[m] += 1
        m = hi >> 1
        if m:
            R[m] += 1
        return (n << 1) | c

    def _release(self, e: int) -> None:
        """Drop one reference; free the slot (and cascade) when none remain."""
        n = e >> 1
        if n == 0:
            return
        R = self._ref
        R[n] -= 1
        if R[n] > 0:
            return
        V, L, H = self._var, self._lo, self._hi
        self._table_delete(V[n], L[n], H[n])
        V[n] = -1
        self._count -= 1
        self._free.append(n)
        self._release(L[n])
        self._release(H[n])

    def _table_delete(self, vid: int, lo: int, hi: int) -> None:
        del self._index[(vid << 64) | (lo << 32) | hi]

    def _table_insert(self, vid: int, lo: int, hi: int, node: int) -> None:
        """Insert a rewritten node under its new key (must not collide)."""
        key = (vid << 64) | (lo << 32) | hi
        assert key not in self._index, "level exchange produced a duplicate"
        self._index[key] = node

    def _live_counts(self, roots: Sequence[BDDNode]) -> dict[str, int]:
        """Per-variable node counts of the diagrams reachable from ``roots``."""
        counts = {name: 0 for name in self._order}
        V, name_of = self._var, self._name_of
        for n in self._reachable(handle._edge for handle in roots):
            counts[name_of[V[n]]] += 1
        return counts

    def statistics(self) -> dict:
        """Counters of the manager's life so far (sizes, peaks, caches)."""
        return {
            "variables": len(self._order),
            "table_nodes": self._population(),
            "live_nodes": sum(self._live_counts(self._protected).values()),
            "peak_nodes": self.peak_nodes,
            "reorders": self.reorder_count,
            "nodes_created": self._created,
            "cache_entries": len(self._cache),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_clears": self.cache_clears,
        }

    # -- bit-vector circuits ------------------------------------------------------------
    #
    # Unsigned bit-vectors are plain lists of BDD nodes, least significant bit
    # first; a vector of width 0 denotes the constant 0.  The symbolic engine
    # (:mod:`repro.verification.symbolic_int`) compiles SIGNAL
    # arithmetic onto these circuits: addition is a ripple-carry adder,
    # comparisons are the classical LSB-to-MSB comparator chain, and selection
    # is a bitwise multiplexer.  Widths are the caller's business — every
    # operation below is exact over the width it is asked to produce.

    def bv_const(self, value: int, width: int) -> list[BDDNode]:
        """The constant vector of ``value`` over ``width`` bits (LSB first)."""
        if value < 0 or (width < value.bit_length()):
            raise ValueError(f"constant {value} is not representable over {width} unsigned bits")
        return [self.true if (value >> index) & 1 else self.false for index in range(width)]

    def bv_not(self, bits: Sequence[BDDNode]) -> list[BDDNode]:
        """Bitwise complement (one's complement over the vector's own width)."""
        return [self.neg(bit) for bit in bits]

    def bv_extend(self, bits: Sequence[BDDNode], width: int) -> list[BDDNode]:
        """Zero-extend a vector to ``width`` bits."""
        if width < len(bits):
            raise ValueError(f"cannot shrink a {len(bits)}-bit vector to {width} bits")
        return list(bits) + [self.false] * (width - len(bits))

    def bv_add(self, left: Sequence[BDDNode], right: Sequence[BDDNode], width: Optional[int] = None) -> list[BDDNode]:
        """Ripple-carry addition, exact by default, truncated mod 2^width if narrower.

        The default width ``max(len(left), len(right)) + 1`` always holds the
        exact sum; passing a smaller width drops the high carries (the wrap
        the modulo circuit exploits deliberately).
        """
        if width is None:
            width = max(len(left), len(right), 1) + 1 if (left or right) else 0
        a = self.bv_extend(left, max(width, len(left)))
        b = self.bv_extend(right, max(width, len(right)))
        result: list[BDDNode] = []
        carry = self.false
        for index in range(width):
            x, y = a[index], b[index]
            partial = self.xor(x, y)
            result.append(self.xor(partial, carry))
            # carry-out = majority(x, y, carry) = (x ∧ y) ∨ (carry ∧ (x ⊕ y))
            carry = self.disj(self.conj(x, y), self.conj(carry, partial))
        return result

    def bv_eq(self, left: Sequence[BDDNode], right: Sequence[BDDNode]) -> BDDNode:
        """Equality of two unsigned vectors (the shorter is zero-extended)."""
        width = max(len(left), len(right))
        a = self.bv_extend(left, width)
        b = self.bv_extend(right, width)
        return self.conj_all(self.neg(self.xor(x, y)) for x, y in zip(a, b))

    def bv_lt(self, left: Sequence[BDDNode], right: Sequence[BDDNode]) -> BDDNode:
        """Unsigned strict comparison ``left < right`` (comparator chain)."""
        width = max(len(left), len(right))
        a = self.bv_extend(left, width)
        b = self.bv_extend(right, width)
        less = self.false
        for x, y in zip(a, b):  # LSB to MSB: the MSB verdict dominates
            less = self.ite(self.xor(x, y), y, less)
        return less

    def bv_le(self, left: Sequence[BDDNode], right: Sequence[BDDNode]) -> BDDNode:
        """Unsigned comparison ``left <= right``."""
        return self.neg(self.bv_lt(right, left))

    def bv_mux(self, condition: BDDNode, then: Sequence[BDDNode], otherwise: Sequence[BDDNode]) -> list[BDDNode]:
        """Bitwise multiplexer: ``then`` when ``condition`` holds, else ``otherwise``."""
        width = max(len(then), len(otherwise))
        a = self.bv_extend(then, width)
        b = self.bv_extend(otherwise, width)
        return [self.ite(condition, x, y) for x, y in zip(a, b)]

    def bv_value(self, bits: Sequence[BDDNode], assignment: Mapping[str, bool]) -> int:
        """Evaluate a vector of (variable or constant) bits under an assignment."""
        value = 0
        for index, bit in enumerate(bits):
            if self.evaluate(bit, dict(assignment)):
                value |= 1 << index
        return value

    # -- queries ----------------------------------------------------------------------------

    def equivalent(self, left: BDDNode, right: BDDNode) -> bool:
        """Canonical-form equality of two functions."""
        return left is right

    def entails(self, left: BDDNode, right: BDDNode) -> bool:
        """``left ⇒ right`` is a tautology."""
        return self.diff(left, right) is self.false

    def is_false(self, node: BDDNode) -> bool:
        """The constant-false function."""
        return node is self.false

    def is_true(self, node: BDDNode) -> bool:
        """The constant-true function."""
        return node is self.true

    def restrict(self, node: BDDNode, assignment: dict[str, bool]) -> BDDNode:
        """Cofactor ``node`` by a partial assignment: one memoised pass over
        the slots (cofactoring commutes with negation), linear in the diagram.

        The pass is post-order with an explicit stack — low subtree, high
        subtree, then the slot — so a diagram deeper than the interpreter's
        recursion limit restricts like any other.
        """
        varids = self._varids
        fixed = {varids[name]: value for name, value in assignment.items() if name in varids}
        V, L, H = self._var, self._lo, self._hi
        memo = {0: 0}  # slot -> cofactored edge of its regular function
        stack = [node._edge >> 1]
        while stack:
            n = stack[-1]
            if n in memo:
                stack.pop()
                continue
            vid = V[n]
            if vid in fixed:
                child = H[n] if fixed[vid] else L[n]
                if child >> 1 not in memo:
                    stack.append(child >> 1)
                    continue
                memo[n] = memo[child >> 1] ^ (child & 1)
            else:
                lo, hi = L[n], H[n]
                if lo >> 1 not in memo:
                    stack.append(lo >> 1)
                    continue
                if hi >> 1 not in memo:
                    stack.append(hi >> 1)
                    continue
                memo[n] = self._mk(vid, memo[lo >> 1] ^ (lo & 1), memo[hi >> 1] ^ (hi & 1))
            stack.pop()
        return self._handle(memo[node._edge >> 1] ^ (node._edge & 1))

    def _reachable(self, edges: Iterable[int]) -> set[int]:
        """The internal slots of the diagrams of ``edges``."""
        L, H = self._lo, self._hi
        seen: set[int] = set()
        stack = [e >> 1 for e in edges]
        while stack:
            n = stack.pop()
            if n == 0 or n in seen:
                continue
            seen.add(n)
            stack.append(L[n] >> 1)
            stack.append(H[n] >> 1)
        return seen

    def support(self, node: BDDNode) -> set[str]:
        """Variables the function actually depends on."""
        V, name_of = self._var, self._name_of
        return {name_of[V[n]] for n in self._reachable([node._edge])}

    def size(self, node: BDDNode) -> int:
        """Number of distinct decision slots of the diagram.

        With complement edges a function and its negation share every slot,
        so this can be smaller than the plain (complement-free) diagram —
        it is the number the sifting metric and ``table_nodes`` count in.
        """
        return len(self._reachable([node._edge]))

    def _counting_order(self, node: BDDNode, variables: Optional[list[str]]) -> list[str]:
        """Normalise a variable list to diagram order (undeclared names are
        declared): the positional cofactor walks below would silently skip a
        support variable listed out of order or omitted, losing models."""
        if variables is None:
            return sorted(self.support(node), key=lambda v: self._rank[v])
        names = set(variables)  # duplicates would double-count via identity cofactors
        for name in names:
            self.declare(name)
        missing = self.support(node) - names
        if missing:
            raise ValueError(f"variable list omits support variables {sorted(missing)}")
        return sorted(names, key=lambda v: self._rank[v])

    def satisfying_assignments(self, node: BDDNode, variables: Optional[list[str]] = None) -> Iterator[dict[str, bool]]:
        """Enumerate total satisfying assignments over ``variables``.

        Models come in lexicographic order over the variables sorted by
        current rank, ``False`` before ``True``, each dict keyed in that
        order.  The walk is depth-first over edges with an explicit stack
        and never enters a false branch, so a model costs O(len(variables)).
        A list omitting a support variable raises ``ValueError``.
        """
        names = self._counting_order(node, variables)
        vids = [self._varids[name] for name in names]
        V, L, H = self._var, self._lo, self._hi
        values = [False] * len(names)
        # Pending branches ``(depth, value, edge)``: variable ``depth - 1``
        # takes ``value`` and the walk goes on at ``edge``.
        stack = [(0, False, node._edge)] if node._edge != 1 else []
        while stack:
            depth, value, e = stack.pop()
            if depth:
                values[depth - 1] = value
            if depth == len(names):
                yield dict(zip(names, values))
                continue
            n = e >> 1
            if n and V[n] == vids[depth]:
                lo, hi = L[n] ^ (e & 1), H[n] ^ (e & 1)
            else:
                lo = hi = e
            if hi != 1:
                stack.append((depth + 1, True, hi))
            if lo != 1:  # pushed last: False pops first
                stack.append((depth + 1, False, lo))

    def count_satisfying(self, node: BDDNode, variables: Optional[list[str]] = None) -> int:
        """Number of satisfying assignments over ``variables``.

        Edge-level dynamic programming: one memo entry per regular slot and
        the complement handled arithmetically (``|¬f| = 2^k − |f|``), so
        counting a huge reached set walks integers instead of materialising
        a weakref handle per visited node.  Slots are filled children first
        from an explicit stack, so diagram depth is not bounded by the
        interpreter's recursion limit.
        """
        names = self._counting_order(node, variables)
        width = len(names)
        LEV = self._level_of
        position = {LEV[self._varids[name]]: index for index, name in enumerate(names)}
        V, L, H = self._var, self._lo, self._hi
        # slot -> models of its regular function over ``names[p:]``, with
        # ``p`` the slot's position; the terminal slot never enters.
        memo: dict[int, int] = {}

        def count(e: int, index: int) -> int:
            # models of edge ``e`` over ``names[index:]`` (its slot is memoised)
            n = e >> 1
            if n == 0:
                return 0 if e & 1 else 1 << (width - index)
            p = position[LEV[V[n]]]
            sub = memo[n]
            if e & 1:
                sub = (1 << (width - p)) - sub
            return sub << (p - index)

        stack = [node._edge >> 1]
        while stack:
            n = stack[-1]
            if n == 0 or n in memo:
                stack.pop()
                continue
            lo, hi = L[n] >> 1, H[n] >> 1
            if lo and lo not in memo:
                stack.append(lo)
                continue
            if hi and hi not in memo:
                stack.append(hi)
                continue
            p = position[LEV[V[n]]] + 1
            memo[n] = count(L[n], p) + count(H[n], p)
            stack.pop()
        return count(node._edge, 0)

    def evaluate(self, node: BDDNode, assignment: dict[str, bool]) -> bool:
        """Evaluate the function under a total assignment of its support."""
        V, L, H = self._var, self._lo, self._hi
        name_of = self._name_of
        e = node._edge
        n = e >> 1
        while n:
            try:
                value = assignment[name_of[V[n]]]
            except KeyError:
                raise KeyError(f"assignment misses variable {name_of[V[n]]!r}") from None
            e = (H[n] if value else L[n]) ^ (e & 1)
            n = e >> 1
        return e == 0

    def to_expression(self, node: BDDNode) -> str:
        """A readable sum-of-cubes rendering of the function."""
        if node is self.true:
            return "true"
        if node is self.false:
            return "false"
        cubes = []
        for assignment in self.satisfying_assignments(node):
            literals = [name if value else f"¬{name}" for name, value in sorted(assignment.items())]
            cubes.append(" ∧ ".join(literals) if literals else "true")
        return " ∨ ".join(cubes) if cubes else "false"

    def _load_payload(self, payload: Mapping) -> list[BDDNode]:
        """The table rebuild behind :func:`repro.clocks.bdd.load_nodes`.

        Rebuilds the table over raw edges — no handles, no weak-dict
        traffic — and short-circuits ``ite(var, high, low)`` to a single
        ``_mk`` whenever the variable sits above both children in the
        current order (always true when the dump-time order is a suffix-
        compatible match, the warm-cache common case).
        """
        for name in payload["order"]:
            self.declare(name)
        varids = self._varids
        V, LEV = self._var, self._level_of
        table = [1, 0]  # payload index 0 = false, 1 = true
        for entry in payload["nodes"]:
            variable, low, high = entry
            if (
                not isinstance(variable, str)
                or not (0 <= low < len(table))
                or not (0 <= high < len(table))
            ):
                raise ValueError(f"malformed BDD dump entry {entry!r}")
            vid = varids.get(variable)
            if vid is None:
                self.declare(variable)
                vid = varids[variable]
            level = LEV[vid]
            lo_e = table[low]
            hi_e = table[high]
            nl = lo_e >> 1
            nh = hi_e >> 1
            if (nl == 0 or LEV[V[nl]] > level) and (nh == 0 or LEV[V[nh]] > level):
                table.append(self._mk(vid, lo_e, hi_e))
            else:  # the target order differs: re-reduce through ITE
                table.append(self._ite(self._mk(vid, 1, 0), hi_e, lo_e))
        roots = payload["roots"]
        if any(not isinstance(index, int) or not (0 <= index < len(table)) for index in roots):
            raise ValueError("BDD dump root index out of range")
        return [self._handle(table[index]) for index in roots]

    # -- invariant checking (tests) --------------------------------------------------

    def assert_canonical(self) -> None:
        """Check the complement-edge canonicity invariants over every live slot."""
        V, L, H = self._var, self._lo, self._hi
        for n in range(1, len(V)):
            if V[n] < 0:
                continue
            if H[n] & 1:
                raise AssertionError(f"slot {n} stores a complemented high edge")
            if L[n] == H[n]:
                raise AssertionError(f"slot {n} is redundant (equal children)")
