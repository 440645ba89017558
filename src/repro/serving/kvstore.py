"""KV cache hierarchy: ref-counted prefix cache + host swap tier.

:class:`KvBlockStore` owns the KV block pool that used to be embedded in
the paged scheduler's accounting, and turns it into a two-level cache
hierarchy:

- **Device tier** -- the pod's KV budget, carved into leases.  A lease is
  either one full-context reservation (FULL policy) or a set of
  fixed-size blocks (PAGED).  The byte arithmetic is kept operation-for-
  operation identical to the pre-store scheduler so that, with prefix
  caching and swapping disabled, fleet results are bit-identical to the
  plain paged/full path (regression-pinned in the tests).

- **Prefix cache** -- content-addressed, ref-counted blocks indexed by a
  radix trie.  A prefix (shared system prompt, agentic fan-out parent
  context) is a chain of full blocks; each trie node holds one block and
  its reference count.  Sharers *acquire* resident chains (ref-count up,
  no allocation, no transfer, no recompute), owners *register* their
  blocks once the prefix KV is resident, and blocks whose last reference
  drops stay cached (ref 0, LRU-ordered) until pool pressure reclaims
  them -- the vLLM/SGLang radix-cache model.  A partially filled tail
  block is cached too, but sharers take a **copy-on-write** private copy
  on divergence (their continuation writes into the block), paying one
  block allocation instead of recomputing up to ``block_tokens - 1``
  tokens.

- **Host swap tier** -- preempted sequences can move their *private*
  bytes to host memory over the Ring Station's host link instead of
  being recomputed from scratch on resume.  Shared prefix refs stay
  pinned on-device for the round trip (the resume relies on those
  tokens being resident), so swap traffic is private bytes only.  :func:`swap_recompute_costs` is
  the cost model -- transfer bytes at the host-link rate vs re-prefill
  FLOPs on a prefill platform plus the KV hand-off -- that
  :class:`SwapPolicy.AUTO` applies per victim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.models.kv_cache import kv_cache_bytes
from repro.serving.contracts import mutates, pure_probe

if TYPE_CHECKING:
    from repro.models.config import ModelConfig
    from repro.models.dtypes import DType
    from repro.platform import Platform


class SwapPolicy(enum.Enum):
    """What preemption does with a victim's resident KV."""

    #: Recompute-on-resume: free the blocks, re-pay prefill later.
    NEVER = "never"
    #: Always swap private bytes to the host tier.
    ALWAYS = "always"
    #: Per-victim cost model: swap iff transfer time beats re-prefill.
    AUTO = "auto"


def swap_recompute_costs(
    model: "ModelConfig",
    context_tokens: int,
    resident_kv_bytes: float,
    *,
    prefill_platform: "Platform",
    kv_dtype: "DType",
    handoff_bytes_per_s: float,
    host_bytes_per_s: float,
    weight_dtype: "DType | None" = None,
) -> tuple[float, float]:
    """(swap_s, recompute_s) for resuming one preempted sequence.

    Swapping pays the round trip over the host link (``resident_kv_bytes``
    out, then back in).  Recomputing pays a fresh prefill of the whole
    ``context_tokens`` (prompt + generated-so-far) on ``prefill_platform``
    plus the KV hand-off of the recomputed cache at
    ``handoff_bytes_per_s``.  Both are link/compute service times; neither
    includes queueing, so the comparison is the steady-state crossover.
    """
    from repro.models.workload import Workload

    swap_s = 2.0 * resident_kv_bytes / host_bytes_per_s
    workload = Workload(
        model,
        batch_size=1,
        seq_len=context_tokens,
        decode_len=0,
        weight_dtype=weight_dtype or prefill_platform.preferred_weight_dtype,
        kv_dtype=kv_dtype,
    )
    prefill_s, _ = prefill_platform.prefill(workload)
    handoff_s = kv_cache_bytes(model, context_tokens, 1, kv_dtype) / (
        handoff_bytes_per_s
    )
    return swap_s, prefill_s + handoff_s


@dataclass
class KvStoreStats:
    """Counters the cache hierarchy accumulates over a run."""

    #: Prefix tokens looked up / found resident (hit rate numerator and
    #: denominator; every acquire attempt counts, including re-acquires
    #: after a swap round trip).
    lookup_tokens: int = 0
    hit_tokens: int = 0
    #: Hits recovered by late binding (stamped by the cluster's prefill
    #: service queue): the prefix was resident nowhere when the request
    #: *arrived* -- only when its prefill job started service, because
    #: the group founder landed while it queued.  A subset of
    #: ``hit_tokens``.
    late_hits: int = 0
    late_hit_tokens: int = 0
    #: Shared tail blocks privatized on divergence (each skipped up to
    #: ``block_tokens - 1`` tokens of recompute for one device copy).
    cow_copies: int = 0
    #: Blocks published into / evicted from the prefix index.
    registered_blocks: int = 0
    reclaimed_blocks: int = 0
    #: Host-tier traffic (bytes cross the host link twice per round trip).
    swap_outs: int = 0
    swap_ins: int = 0
    swap_out_bytes: float = 0.0
    swap_in_bytes: float = 0.0
    #: Tool-call pauses that parked a sequence mid-decode.  Parked KV
    #: either stays resident on the device or rides the host tier
    #: (``swap_outs``/``swap_ins`` above) depending on the swap policy.
    tool_parks: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of looked-up prefix tokens served from the cache."""
        if self.lookup_tokens == 0:
            return 0.0
        return self.hit_tokens / self.lookup_tokens


@dataclass(eq=False)
class SharedBlock:
    """One ref-counted block in the prefix index.

    ``tokens`` is how many prefix tokens the block holds (``block_tokens``
    for chain blocks, fewer for a cached tail).  Identity semantics
    (``eq=False``): two blocks are the same block only if they are the
    same object.
    """

    nbytes: float
    tokens: int
    ref_count: int = 0
    node: "_TrieNode | None" = field(default=None, repr=False)


class _TrieNode:
    """One edge of the radix trie; holds at most one resident block."""

    __slots__ = ("key", "parent", "children", "block")

    def __init__(self, key: object = None, parent: "_TrieNode | None" = None) -> None:
        self.key = key
        self.parent = parent
        self.children: dict[object, _TrieNode] = {}
        self.block: SharedBlock | None = None


@dataclass
class _Lease:
    """Per-sequence device-tier state (private bytes + shared refs)."""

    #: Private bytes charged against the pool (FULL region or blocks).
    nbytes: float = 0.0
    blocks: int = 0
    bytes_per_block: float = 0.0
    #: Shared prefix blocks this sequence references (ref-counted).
    shared: list[SharedBlock] = field(default_factory=list)
    #: Full shared blocks (each replaces one private block allocation).
    shared_blocks: int = 0
    #: Prefix tokens covered by the shared refs (incl. a pinned tail).
    pinned_tokens: int = 0
    #: A pinned tail block awaiting its copy-on-write privatization.
    cow_tail: SharedBlock | None = None


@dataclass
class KvBlockStore:
    """The KV block pool of one decode pod, as a cache hierarchy.

    The store owns three byte ledgers against ``budget_bytes``:
    ``bytes_in_use`` (private leases -- the pre-store scheduler's
    accounting, kept operation-identical), ``shared_bytes`` (referenced
    prefix blocks, charged once regardless of sharer count) and
    ``cached_bytes`` (ref-0 blocks kept resident until reclaimed).  The
    host tier tracks swapped-out private bytes against
    ``host_capacity_bytes`` (``None`` = unbounded host memory).
    """

    budget_bytes: float
    prefix_caching: bool = False
    host_capacity_bytes: float | None = None
    bytes_in_use: float = 0.0
    shared_bytes: float = 0.0
    cached_bytes: float = 0.0
    host_bytes: float = 0.0
    stats: KvStoreStats = field(default_factory=KvStoreStats)
    #: Fired as ``on_prefix_change(model_key, prefix_id)`` once per
    #: block registered into or reclaimed from the prefix index.  The
    #: cluster hangs its residency-epoch bookkeeping here (O(1) fleet
    #: epoch + per-group invalidation) instead of re-summing every
    #: store's counters per scheduling decision.  ``None`` = no-op.
    on_prefix_change: Callable[[str, int], None] | None = None
    _leases: dict[int, _Lease] = field(default_factory=dict, repr=False)
    _swapped: dict[int, float] = field(default_factory=dict, repr=False)
    _root: _TrieNode = field(default_factory=_TrieNode, repr=False)
    #: LRU of ref-0 resident blocks (insertion order = eviction order).
    _lru: dict[SharedBlock, None] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive")
        if self.host_capacity_bytes is not None and self.host_capacity_bytes <= 0:
            raise ValueError("host_capacity_bytes must be positive (or None)")

    # ------------------------------------------------------------------
    # Ledger views
    # ------------------------------------------------------------------
    @property
    def resident_overhead_bytes(self) -> float:
        """Device bytes held by the prefix cache (shared + reclaimable);
        exactly 0.0 when prefix caching is disabled, so adding it to the
        scheduler's budget checks leaves them bit-identical."""
        return self.shared_bytes + self.cached_bytes

    @property
    def host_occupancy(self) -> float:
        """Host swap-tier fill fraction (a telemetry gauge; 0.0 with an
        unbounded or untouched tier).  Reading it touches nothing."""
        if self.host_capacity_bytes is None or self.host_capacity_bytes <= 0:
            return 0.0
        return self.host_bytes / self.host_capacity_bytes

    @property
    def device_bytes(self) -> float:
        """All resident KV bytes (leases + shared + cached)."""
        return self.bytes_in_use + self.shared_bytes + self.cached_bytes

    @property
    def num_leases(self) -> int:
        return len(self._leases)

    @property
    def idle(self) -> bool:
        """No lease, no swapped sequence -- only (reclaimable) cache may
        remain resident."""
        return not self._leases and not self._swapped

    @property
    def has_swapped(self) -> bool:
        """Any sequence parked on the host tier (its swap-back is a
        pending event, so the pod is not stranded)."""
        return bool(self._swapped)

    def leak(self) -> str | None:
        """What the store still holds that only a live sequence may
        hold -- a lease, a swapped sequence or a referenced prefix block
        -- or ``None`` (ref-0 cached blocks may stay resident).  Every
        sequence has left the pod at run end, so anything named here is
        a ledger leak."""
        if self._leases:
            return f"{len(self._leases)} KV lease(s)"
        if self._swapped:
            return f"{len(self._swapped)} swapped sequence(s)"
        referenced = 0
        nodes = [self._root]
        while nodes:
            node = nodes.pop()
            if node.block is not None and node.block.ref_count > 0:
                referenced += 1
            nodes.extend(node.children.values())
        if referenced:
            return f"{referenced} shared prefix block(s) with ref_count > 0"
        return None

    # ------------------------------------------------------------------
    # Device-tier leases (the old embedded scheduler accounting)
    # ------------------------------------------------------------------
    def admit(
        self, seq_id: int, nbytes: float, blocks: int, bytes_per_block: float
    ) -> None:
        """Charge a sequence's admission footprint (private bytes only;
        shared prefix blocks were pinned by :meth:`acquire_prefix`)."""
        lease = self._leases.setdefault(seq_id, _Lease())
        lease.nbytes = nbytes
        lease.blocks = blocks
        lease.bytes_per_block = bytes_per_block
        self.bytes_in_use += nbytes
        if lease.cow_tail is not None:
            # Divergence: the sharer's continuation writes into the tail
            # block, so one of the blocks just allocated is its private
            # copy-on-write clone; the shared original is released.
            self._decref(lease.cow_tail)
            lease.shared.remove(lease.cow_tail)
            lease.cow_tail = None
            self.stats.cow_copies += 1

    @mutates
    def grow(self, seq_id: int) -> float:
        """Allocate one more block for a decoding sequence; returns the
        bytes charged."""
        lease = self._leases[seq_id]
        lease.blocks += 1
        lease.nbytes = lease.blocks * lease.bytes_per_block
        self.bytes_in_use += lease.bytes_per_block
        return lease.bytes_per_block

    @mutates
    def release(self, seq_id: int) -> float:
        """Free a sequence's private bytes and drop its shared refs
        (ref-0 blocks stay resident as reclaimable cache).  Returns the
        private bytes freed."""
        lease = self._leases.pop(seq_id, None)
        if lease is None:
            return 0.0
        self.bytes_in_use -= lease.nbytes
        for block in lease.shared:
            self._decref(block)
        return lease.nbytes

    def reset_pool_dust(self) -> None:
        """Zero float dust once nothing holds pool bytes (the old
        scheduler's idle reset; positive residue would strand a future
        budget-filling request)."""
        self.bytes_in_use = 0.0
        if not any(
            lease.shared
            for table in (self._leases, self._swapped)
            for lease in table.values()
        ):
            self.shared_bytes = 0.0
        if not self._lru:
            self.cached_bytes = 0.0

    # ------------------------------------------------------------------
    # Prefix cache
    # ------------------------------------------------------------------
    @staticmethod
    def _chain_key(model_key: str, prefix_id: int, index: int) -> tuple:
        return (model_key, prefix_id, index)

    @staticmethod
    def _tail_key(model_key: str, prefix_id: int, index: int, tokens: int) -> tuple:
        return (model_key, prefix_id, index, tokens)

    @pure_probe
    def peek_prefix(
        self, model_key: str, prefix_id: int | None, prefix_len: int,
        block_tokens: int,
    ) -> int:
        """Resident prefix tokens, without acquiring (routing affinity)."""
        if not self.prefix_caching or prefix_id is None or prefix_len <= 0:
            return 0
        tokens = 0
        node = self._root
        full, tail = divmod(prefix_len, block_tokens)
        for index in range(full):
            child = node.children.get(self._chain_key(model_key, prefix_id, index))
            if child is None or child.block is None:
                return tokens
            tokens += child.block.tokens
            node = child
        if tail:
            child = node.children.get(
                self._tail_key(model_key, prefix_id, full, tail)
            )
            if child is not None and child.block is not None:
                tokens += child.block.tokens
        return tokens

    @mutates
    def acquire_prefix(
        self, seq_id: int, model_key: str, prefix_id: int | None,
        prefix_len: int, block_tokens: int,
    ) -> int:
        """Pin the resident part of a prefix for ``seq_id``.

        Walks the trie from the root, referencing every resident chain
        block (no allocation, no transfer, no recompute for those
        tokens).  A resident tail block is pinned too, marked for
        copy-on-write at admission.  Returns the cached token count.
        """
        if not self.prefix_caching or prefix_id is None or prefix_len <= 0:
            return 0
        fresh = seq_id not in self._leases
        lease = self._leases.setdefault(seq_id, _Lease())
        pinned = 0
        node = self._root
        full, tail = divmod(prefix_len, block_tokens)
        for index in range(full):
            child = node.children.get(self._chain_key(model_key, prefix_id, index))
            if child is None or child.block is None:
                break
            self._incref(child.block)
            lease.shared.append(child.block)
            lease.shared_blocks += 1
            pinned += child.block.tokens
            node = child
        else:
            if tail:
                child = node.children.get(
                    self._tail_key(model_key, prefix_id, full, tail)
                )
                if child is not None and child.block is not None:
                    self._incref(child.block)
                    lease.shared.append(child.block)
                    lease.cow_tail = child.block
                    pinned += child.block.tokens
        lease.pinned_tokens = pinned
        self.stats.lookup_tokens += prefix_len
        self.stats.hit_tokens += pinned
        # simlint: ok[digest-safety] empty-lease sentinel: nbytes is only ever
        # exactly 0.0 before the first block is charged
        if pinned == 0 and fresh and not lease.shared and lease.nbytes == 0.0:
            # Nothing resident: don't leave an empty lease behind (the
            # request may well be routed to a different pod).
            del self._leases[seq_id]
        return pinned

    def record_prefix_miss(self, prefix_len: int) -> None:
        """Count a lookup that found nothing resident on any pod (keeps
        the hit rate honest: misses that never reach
        :meth:`acquire_prefix` still enter the denominator)."""
        self.stats.lookup_tokens += prefix_len

    def pinned_tokens(self, seq_id: int) -> int:
        """Prefix tokens ``seq_id`` holds shared refs for (0 if none)."""
        lease = self._leases.get(seq_id)
        return lease.pinned_tokens if lease is not None else 0

    def pinned_full_blocks(self, seq_id: int) -> int:
        """Full shared blocks pinned (each replaces one allocation)."""
        lease = self._leases.get(seq_id)
        return lease.shared_blocks if lease is not None else 0

    def holds_shared_refs(self, seq_id: int) -> bool:
        """Does ``seq_id`` reference any shared blocks on the device
        tier?  True for prefixes pinned by :meth:`acquire_prefix` *and*
        for blocks donated via :meth:`register_prefix` that survived a
        swap round trip -- both keep their blocks out of the
        reclaimable ref-0 pool."""
        lease = self._leases.get(seq_id)
        return lease is not None and bool(lease.shared)

    @mutates
    def register_prefix(
        self, seq_id: int, model_key: str, prefix_id: int | None,
        prefix_len: int, block_tokens: int,
    ) -> int:
        """Publish ``seq_id``'s resident prefix blocks into the index.

        Each full prefix block the trie is missing is *donated*: moved
        from the sequence's private lease into the shared pool with the
        sequence holding the first reference.  A partial tail is cached
        opportunistically as a copy (pool room permitting) so later
        sharers can copy-on-write it.  Returns the number of full blocks
        donated (the caller shrinks its private block count by as many).
        """
        if not self.prefix_caching or prefix_id is None or prefix_len <= 0:
            return 0
        lease = self._leases.get(seq_id)
        if lease is None:
            return 0
        donated = 0
        node = self._root
        full, tail = divmod(prefix_len, block_tokens)
        for index in range(full):
            key = self._chain_key(model_key, prefix_id, index)
            child = node.children.get(key)
            if child is None:
                child = _TrieNode(key, node)
                node.children[key] = child
            if child.block is None and lease.blocks > 0:
                lease.blocks -= 1
                lease.nbytes = lease.blocks * lease.bytes_per_block
                self.bytes_in_use -= lease.bytes_per_block
                block = SharedBlock(
                    nbytes=lease.bytes_per_block,
                    tokens=block_tokens,
                    ref_count=1,
                    node=child,
                )
                child.block = block
                self.shared_bytes += block.nbytes
                lease.shared.append(block)
                lease.shared_blocks += 1
                donated += 1
                self.stats.registered_blocks += 1
                if self.on_prefix_change is not None:
                    self.on_prefix_change(model_key, prefix_id)
            node = child
        if tail and lease.bytes_per_block > 0:
            key = self._tail_key(model_key, prefix_id, full, tail)
            child = node.children.get(key)
            if child is None:
                child = _TrieNode(key, node)
                node.children[key] = child
            free = self.budget_bytes - self.device_bytes
            if child.block is None and free >= lease.bytes_per_block:
                # Opportunistic tail copy: cached at ref 0 (reclaimable
                # under pressure), never referenced long-term -- sharers
                # copy-on-write it at admission.
                block = SharedBlock(
                    nbytes=lease.bytes_per_block, tokens=tail, node=child
                )
                child.block = block
                self.cached_bytes += block.nbytes
                self._lru[block] = None
                self.stats.registered_blocks += 1
                if self.on_prefix_change is not None:
                    self.on_prefix_change(model_key, prefix_id)
        return donated

    @mutates
    def reclaim_cached(self, nbytes: float) -> bool:
        """Evict LRU ref-0 blocks until ``nbytes`` are freed; returns
        True iff at least one block was evicted (progress was made)."""
        freed = 0.0
        while freed < nbytes and self._lru:
            block = next(iter(self._lru))
            del self._lru[block]
            self.cached_bytes -= block.nbytes
            freed += block.nbytes
            # The trie key carries (model_key, prefix_id, ...); capture
            # it before _detach severs the block from its node.
            key = block.node.key if block.node is not None else None
            self._detach(block)
            self.stats.reclaimed_blocks += 1
            if self.on_prefix_change is not None:
                # A nodeless block (defensive) still bumps the epoch:
                # the listener's invalidation must track reclaimed_blocks
                # exactly.
                if key is not None:
                    self.on_prefix_change(key[0], key[1])
                else:  # pragma: no cover - blocks in the LRU keep nodes
                    self.on_prefix_change("", -1)
        if not self._lru:
            self.cached_bytes = 0.0
        return freed > 0.0

    def _incref(self, block: SharedBlock) -> None:
        if block.ref_count == 0:
            del self._lru[block]
            self.cached_bytes -= block.nbytes
            self.shared_bytes += block.nbytes
        block.ref_count += 1

    def _decref(self, block: SharedBlock) -> None:
        block.ref_count -= 1
        if block.ref_count == 0:
            self.shared_bytes -= block.nbytes
            self.cached_bytes += block.nbytes
            self._lru[block] = None

    def _detach(self, block: SharedBlock) -> None:
        """Remove an evicted block from the trie, pruning empty leaves.
        Interior holes are fine: lookups stop at the first missing
        block, so descendants simply become unreachable until their
        chain is re-registered."""
        node = block.node
        block.node = None
        if node is None:
            return
        node.block = None
        while (
            node.parent is not None and node.block is None and not node.children
        ):
            parent = node.parent
            del parent.children[node.key]
            node.parent = None
            node = parent

    # ------------------------------------------------------------------
    # Host swap tier
    # ------------------------------------------------------------------
    @pure_probe
    def can_swap(self, nbytes: float) -> bool:
        """Does the host tier have room for ``nbytes`` more?"""
        if self.host_capacity_bytes is None:
            return True
        return self.host_bytes + nbytes <= self.host_capacity_bytes

    @mutates
    def swap_out(self, seq_id: int) -> float:
        """Move a sequence's private bytes to the host tier.  Shared
        prefix refs stay *pinned* for the round trip (the resume relies
        on those tokens being resident -- releasing them could let the
        pool reclaim KV that would then reappear without being paid
        for), so only private bytes cross the link.  Returns the bytes
        swapped."""
        lease = self._leases.pop(seq_id, None)
        if lease is None:
            return 0.0
        self.bytes_in_use -= lease.nbytes
        self._swapped[seq_id] = lease
        self.host_bytes += lease.nbytes
        self.stats.swap_outs += 1
        self.stats.swap_out_bytes += lease.nbytes
        return lease.nbytes

    @mutates
    def swap_in(self, seq_id: int) -> float:
        """Bring a swapped sequence's bytes back: the host side is
        freed, the lease (with its still-pinned prefix refs) returns to
        the table, and the private blocks are re-allocated at
        re-admission.  Returns the bytes that crossed the link."""
        lease = self._swapped.pop(seq_id, None)
        if lease is None:
            return 0.0
        self.host_bytes -= lease.nbytes
        if not self._swapped:
            self.host_bytes = 0.0  # float dust, symmetric with the pool
        self.stats.swap_ins += 1
        self.stats.swap_in_bytes += lease.nbytes
        nbytes = lease.nbytes
        lease.nbytes = 0.0
        lease.blocks = 0
        self._leases[seq_id] = lease
        return nbytes

    def swapped_bytes(self, seq_id: int) -> float:
        lease = self._swapped.get(seq_id)
        return lease.nbytes if lease is not None else 0.0
