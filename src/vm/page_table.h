/**
 * @file
 * N-level radix page table with Mosaic's coalescing PTE bits.
 *
 * Layout mirrors x86-64: a 48-bit virtual address is translated through
 * radix nodes whose depths and fanouts derive from the configured
 * `PageSizeHierarchy` (common/page_sizes.h). The default hierarchy (4KB
 * base pages in 2MB frames) derives exactly the classic four levels of
 * 512-entry nodes, 9 bits each. Every node occupies one physical base
 * page so the page-table walker can issue real memory accesses for each
 * level. Mosaic extends the PTEs (paper §4.3, Fig. 7):
 *
 *  - The node whose entries each cover one page of a coalescible size
 *    level carries a "coalesced" bit per entry (the paper's L3 "large"
 *    bit for the 2MB level); when set, the region translates as a
 *    single page of that level whose frame base is read from the first
 *    leaf PTE beneath it.
 *  - Leaf entries (one per 4KB page) carry a "disabled" bit; set while
 *    any surrounding region is coalesced to discourage caching
 *    base-page translations for coalesced pages.
 *
 * With a three-size (Trident-style) hierarchy both the 2MB and the
 * intermediate level carry coalesced bits, and a region may be promoted
 * level by level (base → mid → huge) or demoted back.
 */

#ifndef MOSAIC_VM_PAGE_TABLE_H
#define MOSAIC_VM_PAGE_TABLE_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ckpt/serde.h"
#include "common/page_sizes.h"
#include "common/types.h"

namespace mosaic {

/**
 * Observer notified synchronously after every page-table mutation.
 *
 * Used by the invariant checker (src/check/) to maintain a flat shadow
 * translation map without polling. Observers must be purely passive:
 * they may read the table through const methods but must not mutate
 * simulation state (no event scheduling, no stats).
 */
class PageTableObserver
{
  public:
    virtual ~PageTableObserver() = default;

    virtual void onMap(AppId app, Addr va, Addr pa, bool resident) = 0;
    virtual void onUnmap(AppId app, Addr va) = 0;
    virtual void onRemap(AppId app, Addr va, Addr newPa) = 0;
    virtual void onResident(AppId app, Addr va) = 0;
    virtual void onCoalesce(AppId app, Addr vaLargeBase) = 0;
    virtual void onSplinter(AppId app, Addr vaLargeBase) = 0;

    /** Coalesce/splinter of an intermediate size level (never called
     *  for the top level, which keeps the legacy hooks above, nor in
     *  the default two-size configuration). */
    virtual void onCoalesceLevel(AppId, Addr /*vaBase*/, unsigned /*level*/) {}
    virtual void onSplinterLevel(AppId, Addr /*vaBase*/, unsigned /*level*/) {}
};

/** Result of a functional translation. */
struct Translation
{
    bool valid = false;
    /** Data is resident in GPU memory; a valid-but-non-resident page has
     *  a committed mapping whose data has not yet crossed the I/O bus
     *  (an access to it raises a far-fault). */
    bool resident = false;
    Addr physAddr = kInvalidAddr;   ///< full physical address
    /** Size level of the translation (0 = base; the highest coalesced
     *  level covering the address otherwise). */
    std::uint8_t level = 0;
};

/** Hands out physical base pages to hold page-table nodes. */
class PtNodeAllocator
{
  public:
    virtual ~PtNodeAllocator() = default;

    /** Returns the physical base address of a fresh 4KB node. */
    virtual Addr allocateNode() = 0;
};

/** Trivial node allocator carving nodes from a fixed physical region. */
class RegionPtNodeAllocator : public PtNodeAllocator
{
  public:
    /** Carves nodes from [base, base+bytes). */
    RegionPtNodeAllocator(Addr base, std::uint64_t bytes)
        : next_(base), end_(base + bytes)
    {
    }

    Addr allocateNode() override;

    /** Bytes consumed so far. */
    std::uint64_t bytesUsed() const { return used_; }

    /** Checkpoint hook: allocation cursor (DESIGN.md §14). */
    void
    serialize(ckpt::Archive &ar)
    {
        ar.io(next_);
        ar.io(used_);
    }

  private:
    Addr next_;
    Addr end_;
    std::uint64_t used_ = 0;
};

/**
 * One application's page table.
 *
 * The table is both functional (translate()) and structural: each level's
 * PTE has a physical address (walkPath()) that the timing walker reads
 * through the memory hierarchy.
 *
 * All functional reads (translate(), walkPath(), isMapped(), ...) are
 * pure tree descents over const state -- no caches, no mutable memo
 * members. Concurrent readers are therefore safe whenever no mutator
 * runs, which is exactly the sharded engine's phase contract: SM lanes
 * translate in parallel during the SM phase while every mutation
 * (mapping, coalescing, compaction) is confined to the hub phase
 * (DESIGN.md §12).
 */
class PageTable
{
  public:
    /** Radix depth count of the default two-size hierarchy (L1 root ..
     *  L4 leaf, paper numbering). Kept for default-config call sites;
     *  generic code uses numWalkLevels(). */
    static constexpr unsigned kLevels = 4;

    /** Upper bound on radix depths across all valid hierarchies. */
    static constexpr unsigned kMaxLevels = PageSizeHierarchy::kMaxWalkDepths;

    /** Entries per node of the default hierarchy (9 bits per level);
     *  also the maximum fanout of any node. */
    static constexpr unsigned kFanout = 512;

    PageTable(AppId app, PtNodeAllocator &nodeAllocator,
              const PageSizeHierarchy &sizes = PageSizeHierarchy{});

    /** Owning application (address space identifier). */
    AppId appId() const { return app_; }

    /** The size hierarchy this table is laid out for. */
    const PageSizeHierarchy &sizes() const { return sizes_; }

    /** Number of radix depths a full walk descends (4 by default). */
    unsigned numWalkLevels() const { return numLevels_; }

    /** Physical address of the root node (the PTBR contents). */
    Addr rootAddr() const { return root_->physAddr; }

    /**
     * Maps virtual base page at @p va to physical base page @p pa.
     * @p resident marks the data as already present in GPU memory;
     * pass false when the mapping is committed ahead of the transfer
     * (CoCoA reserves whole frames at allocation time).
     */
    void mapBasePage(Addr va, Addr pa, bool resident = true);

    /** Marks the (mapped) base page at @p va resident. */
    void markResident(Addr va);

    /** True if the base page at @p va is mapped and resident. */
    bool isResident(Addr va) const;

    /** Unmaps the base page at @p va (must be mapped). */
    void unmapBasePage(Addr va);

    /** Remaps a mapped base page to a new physical page (compaction). */
    void remapBasePage(Addr va, Addr newPa);

    /** True if the base page containing @p va has a valid mapping. */
    bool isMapped(Addr va) const;

    /**
     * Functional translation of @p va honoring the coalesced bits.
     * Returns an invalid Translation if the page is unmapped.
     */
    Translation translate(Addr va) const;

    /**
     * Sets the coalesced bit on the PTE covering @p vaLargeBase at the
     * top size level and the disabled bits on all leaf PTEs below it
     * (the In-Place Coalescer's update).
     * @pre every base page in the region is mapped and physically
     * contiguous within a frame aligned to the level's size.
     */
    void coalesce(Addr vaLargeBase);

    /** Clears the top-level coalesced bit and all disabled bits
     *  (splintering). Any intermediate-level coalesced bits beneath
     *  are cleared too — re-promotion is the manager's decision. */
    void splinter(Addr vaLargeBase);

    /** Coalesces one page of size level @p level (>= 1) at @p vaBase;
     *  `coalesce()` is the top-level instantiation. */
    void coalesceLevel(Addr vaBase, unsigned level);

    /** Splinters one page of size level @p level at @p vaBase, also
     *  clearing every coalesced bit at lower levels beneath it. */
    void splinterLevel(Addr vaBase, unsigned level);

    /** True if the region containing @p va is coalesced at the *top*
     *  size level (the classic 2MB query). */
    bool isCoalesced(Addr va) const;

    /** True if @p va is covered by a coalesced page of @p level. */
    bool isCoalescedAt(Addr va, unsigned level) const;

    /** Highest coalesced size level covering @p va (0 = none). */
    unsigned coalescedLevel(Addr va) const;

    /**
     * CoLT contiguity probe: physical address of the first page of the
     * VA-aligned 2^spanPagesLog2-base-page group containing @p va iff
     * every page of the group is mapped, resident, and physically
     * contiguous; kInvalidAddr otherwise. Pure const descent (same
     * sharded-read contract as translate()).
     */
    Addr contiguousGroupBase(Addr va, unsigned spanPagesLog2) const;

    /**
     * Physical addresses of the PTEs the walker reads to translate @p va,
     * root level first; entries past numWalkLevels() as well as levels
     * that do not exist yet (unmapped region) hold kInvalidAddr; the
     * walker faults at the first invalid level.
     */
    std::array<Addr, kMaxLevels> walkPath(Addr va) const;

    /** Walk depth whose node holds the coalesced bit of @p level (the
     *  classic "L3" depth 2 for the default pair's 2MB level). */
    unsigned coalesceBitDepth(unsigned level) const
    {
        return sizes_.coalesceBitDepth(level);
    }

    /** Number of mapped base pages. */
    std::uint64_t mappedPages() const { return mappedPages_; }

    /** Attaches (or detaches, with nullptr) a passive mutation observer. */
    void setObserver(PageTableObserver *observer) { observer_ = observer; }

    /**
     * Checkpoint hook (DESIGN.md §14). Walks the radix tree depth-first
     * in slot order, recording every node's physical address, leaf PTE,
     * and coalesced bit exactly — node placement comes from the shared
     * RegionPtNodeAllocator, whose cursor is checkpointed separately,
     * so restored walkPath() addresses are bit-identical. Loading
     * rebuilds the tree and fires the observer hooks (onMap, with the
     * resident flag, and onCoalesce/onCoalesceLevel) for every restored
     * entry so an attached invariant checker's shadow is reseeded in the
     * same pass.
     */
    void serialize(ckpt::Archive &ar);

  private:
    struct Node
    {
        Addr physAddr = kInvalidAddr;
        /// Interior nodes: child pointer per slot.
        std::vector<std::unique_ptr<Node>> children;
        /// Interior nodes whose entries each cover one coalescible size
        /// level: Mosaic coalesced ("large") bit per child slot.
        std::vector<bool> childCoalesced;
        /// Leaf nodes: physical base page per slot (kInvalidAddr =
        /// unmapped) and the Mosaic disabled bit.
        std::vector<Addr> leafPhys;
        std::vector<bool> leafDisabled;
        std::vector<bool> leafResident;
    };

    /** Index of @p va at radix depth @p depth (0 = root). */
    unsigned
    levelIndex(Addr va, unsigned depth) const
    {
        return static_cast<unsigned>((va >> shift_[depth]) & mask_[depth]);
    }

    /** Checkpoint recursion body (depth-first, slot order). */
    void serializeNode(ckpt::Archive &ar, Node &node, unsigned depth,
                       Addr vaPrefix);

    /** Leaf node covering @p va, or nullptr if absent. */
    Node *findLeafNode(Addr va) const;

    /** translate()/walkPath() bodies with a compile-time depth count
     *  (0 = use runtime numLevels_). The public entry points dispatch
     *  on numLevels_ so the 4- and 5-depth descents that cover every
     *  valid hierarchy unroll fully; a runtime loop bound would defeat
     *  that and costs ~30-45% on the functional spine regimes. */
    template <unsigned kDepths>
    Translation translateImpl(Addr va) const;
    template <unsigned kDepths>
    std::array<Addr, kMaxLevels> walkPathImpl(Addr va) const;

    /** Node at walk depth @p depth covering @p va, or nullptr if
     *  absent (an interior node can exist before its leaves do). */
    Node *findNodeAtDepth(Addr va, unsigned depth) const;

    /** Creates interior nodes down to the leaf covering @p va. */
    Node &ensureLeafNode(Addr va);

    /** Sets or clears the disabled bit of every base page in the
     *  @p level region at @p vaBase. */
    void setDisabledBits(Addr vaBase, unsigned level, bool disabled);

    AppId app_;
    PtNodeAllocator &nodeAllocator_;
    PageSizeHierarchy sizes_;
    unsigned numLevels_;                      ///< walk depth count
    unsigned shift_[kMaxLevels] = {};         ///< per-depth low bit
    std::uint32_t mask_[kMaxLevels] = {};     ///< per-depth index mask
    std::int8_t levelAtDepth_[kMaxLevels] = {};  ///< size level or -1
    std::unique_ptr<Node> root_;
    std::uint64_t mappedPages_ = 0;
    PageTableObserver *observer_ = nullptr;
};

}  // namespace mosaic

#endif  // MOSAIC_VM_PAGE_TABLE_H
