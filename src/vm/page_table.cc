#include "vm/page_table.h"

#include "common/log.h"

namespace mosaic {

Addr
RegionPtNodeAllocator::allocateNode()
{
    MOSAIC_ASSERT(next_ + kBasePageSize <= end_,
                  "page-table node pool exhausted");
    const Addr node = next_;
    next_ += kBasePageSize;
    used_ += kBasePageSize;
    return node;
}

PageTable::PageTable(AppId app, PtNodeAllocator &nodeAllocator,
                     const PageSizeHierarchy &sizes)
    : app_(app), nodeAllocator_(nodeAllocator), sizes_(sizes),
      numLevels_(sizes.numWalkDepths()), root_(std::make_unique<Node>())
{
    MOSAIC_ASSERT(sizes_.valid(), "invalid page-size hierarchy");
    for (unsigned d = 0; d < numLevels_; ++d) {
        shift_[d] = sizes_.shiftAtDepth(d);
        mask_[d] = (std::uint32_t(1) << sizes_.indexBitsAtDepth(d)) - 1;
        levelAtDepth_[d] = static_cast<std::int8_t>(sizes_.levelAtDepth(d));
    }
    root_->physAddr = nodeAllocator_.allocateNode();
    root_->children.resize(std::size_t(mask_[0]) + 1);
    if (numLevels_ > 1 && levelAtDepth_[0] >= 1)
        root_->childCoalesced.assign(std::size_t(mask_[0]) + 1, false);
}

PageTable::Node *
PageTable::findLeafNode(Addr va) const
{
    const Node *node = root_.get();
    for (unsigned depth = 0; depth < numLevels_ - 1; ++depth) {
        const Node *child = node->children[levelIndex(va, depth)].get();
        if (child == nullptr)
            return nullptr;
        node = child;
    }
    return const_cast<Node *>(node);
}

PageTable::Node *
PageTable::findNodeAtDepth(Addr va, unsigned depth) const
{
    const Node *node = root_.get();
    for (unsigned d = 0; d < depth; ++d) {
        const Node *child = node->children[levelIndex(va, d)].get();
        if (child == nullptr)
            return nullptr;
        node = child;
    }
    return const_cast<Node *>(node);
}

PageTable::Node &
PageTable::ensureLeafNode(Addr va)
{
    Node *node = root_.get();
    for (unsigned depth = 0; depth < numLevels_ - 1; ++depth) {
        auto &slot = node->children[levelIndex(va, depth)];
        if (!slot) {
            slot = std::make_unique<Node>();
            slot->physAddr = nodeAllocator_.allocateNode();
            const unsigned childDepth = depth + 1;
            const std::size_t fanout = std::size_t(mask_[childDepth]) + 1;
            if (childDepth == numLevels_ - 1) {
                // New leaf node.
                slot->leafPhys.assign(fanout, kInvalidAddr);
                slot->leafDisabled.assign(fanout, false);
                slot->leafResident.assign(fanout, false);
            } else {
                slot->children.resize(fanout);
                if (levelAtDepth_[childDepth] >= 1) {
                    // One coalesced bit per child page of this size
                    // level (the classic L3 node's large bits).
                    slot->childCoalesced.assign(fanout, false);
                }
            }
        }
        node = slot.get();
    }
    return *node;
}

void
PageTable::mapBasePage(Addr va, Addr pa, bool resident)
{
    Node &leaf = ensureLeafNode(va);
    const unsigned idx = levelIndex(va, numLevels_ - 1);
    MOSAIC_ASSERT(leaf.leafPhys[idx] == kInvalidAddr,
                  "double map of base page");
    leaf.leafPhys[idx] = basePageBase(pa);
    leaf.leafDisabled[idx] = false;
    leaf.leafResident[idx] = resident;
    ++mappedPages_;
    if (observer_ != nullptr)
        observer_->onMap(app_, basePageBase(va), basePageBase(pa), resident);
}

void
PageTable::markResident(Addr va)
{
    Node *leaf = findLeafNode(va);
    MOSAIC_ASSERT(leaf != nullptr, "markResident on unmapped region");
    const unsigned idx = levelIndex(va, numLevels_ - 1);
    MOSAIC_ASSERT(leaf->leafPhys[idx] != kInvalidAddr,
                  "markResident on unmapped page");
    leaf->leafResident[idx] = true;
    if (observer_ != nullptr)
        observer_->onResident(app_, basePageBase(va));
}

bool
PageTable::isResident(Addr va) const
{
    const Node *leaf = findLeafNode(va);
    if (leaf == nullptr)
        return false;
    const unsigned idx = levelIndex(va, numLevels_ - 1);
    return leaf->leafPhys[idx] != kInvalidAddr && leaf->leafResident[idx];
}

void
PageTable::unmapBasePage(Addr va)
{
    Node *leaf = findLeafNode(va);
    MOSAIC_ASSERT(leaf != nullptr, "unmap of unmapped region");
    const unsigned idx = levelIndex(va, numLevels_ - 1);
    MOSAIC_ASSERT(leaf->leafPhys[idx] != kInvalidAddr,
                  "unmap of unmapped base page");
    leaf->leafPhys[idx] = kInvalidAddr;
    leaf->leafDisabled[idx] = false;
    leaf->leafResident[idx] = false;
    --mappedPages_;
    if (observer_ != nullptr)
        observer_->onUnmap(app_, basePageBase(va));
}

void
PageTable::remapBasePage(Addr va, Addr newPa)
{
    Node *leaf = findLeafNode(va);
    MOSAIC_ASSERT(leaf != nullptr, "remap of unmapped region");
    const unsigned idx = levelIndex(va, numLevels_ - 1);
    MOSAIC_ASSERT(leaf->leafPhys[idx] != kInvalidAddr,
                  "remap of unmapped base page");
    leaf->leafPhys[idx] = basePageBase(newPa);
    if (observer_ != nullptr)
        observer_->onRemap(app_, basePageBase(va), basePageBase(newPa));
}

bool
PageTable::isMapped(Addr va) const
{
    const Node *leaf = findLeafNode(va);
    if (leaf == nullptr)
        return false;
    return leaf->leafPhys[levelIndex(va, numLevels_ - 1)] != kInvalidAddr;
}

template <unsigned kDepths>
Translation
PageTable::translateImpl(Addr va) const
{
    // One descent yields the leaf *and* the highest coalesced bit
    // (captured in passing at the depths that hold one) -- no second
    // descent for isCoalesced(), and no mutable memo state, so
    // concurrent readers need no synchronization.
    const Node *node = root_.get();
    const unsigned leafDepth =
        (kDepths != 0 ? kDepths : numLevels_) - 1;
    unsigned level = 0;
    for (unsigned depth = 0; depth < leafDepth; ++depth) {
        const unsigned idx = levelIndex(va, depth);
        if (level == 0 && !node->childCoalesced.empty() &&
            node->childCoalesced[idx])
            level = static_cast<unsigned>(levelAtDepth_[depth]);
        const Node *child = node->children[idx].get();
        if (child == nullptr)
            return Translation{};
        node = child;
    }
    const unsigned idx = levelIndex(va, leafDepth);
    const Addr page = node->leafPhys[idx];
    if (page == kInvalidAddr)
        return Translation{};

    Translation result;
    result.valid = true;
    result.resident = node->leafResident[idx];
    result.physAddr = page + (va & (kBasePageSize - 1));
    result.level = static_cast<std::uint8_t>(level);
    return result;
}

Translation
PageTable::translate(Addr va) const
{
    switch (numLevels_) {
    case 4: return translateImpl<4>(va);
    case 5: return translateImpl<5>(va);
    default: return translateImpl<0>(va);
    }
}

void
PageTable::setDisabledBits(Addr vaBase, unsigned level, bool disabled)
{
    const unsigned leafDepth = numLevels_ - 1;
    const std::uint64_t pages = sizes_.basePagesPer(level);
    const std::uint64_t pagesPerLeaf = std::uint64_t(mask_[leafDepth]) + 1;
    for (std::uint64_t i = 0; i < pages;) {
        Node *leaf = findLeafNode(vaBase + i * kBasePageSize);
        MOSAIC_ASSERT(leaf != nullptr, "disabled bits on unmapped region");
        unsigned j = levelIndex(vaBase + i * kBasePageSize, leafDepth);
        for (; j < pagesPerLeaf && i < pages; ++j, ++i)
            leaf->leafDisabled[j] = disabled;
    }
}

void
PageTable::coalesceLevel(Addr vaBase, unsigned level)
{
    MOSAIC_ASSERT(level >= 1 && level <= sizes_.topLevel(),
                  "coalesce of a non-coalescible level");
    MOSAIC_ASSERT(sizes_.aligned(vaBase, level),
                  "coalesce target not aligned to its level");
    Node *holder = findNodeAtDepth(vaBase, sizes_.coalesceBitDepth(level));
    MOSAIC_ASSERT(holder != nullptr, "coalesce of unmapped region");

    // Precondition check: every base page of the region mapped,
    // contiguous, and frame-aligned at the level's size. This is the
    // invariant CoCoA establishes; violating it here would silently
    // corrupt translations, so verify.
    const unsigned leafDepth = numLevels_ - 1;
    const std::uint64_t pages = sizes_.basePagesPer(level);
    const std::uint64_t pagesPerLeaf = std::uint64_t(mask_[leafDepth]) + 1;
    Addr frame_base = kInvalidAddr;
    for (std::uint64_t i = 0; i < pages;) {
        Node *leaf = findLeafNode(vaBase + i * kBasePageSize);
        MOSAIC_ASSERT(leaf != nullptr, "coalesce of unmapped region");
        unsigned j = levelIndex(vaBase + i * kBasePageSize, leafDepth);
        if (i == 0) {
            frame_base = leaf->leafPhys[j];
            MOSAIC_ASSERT(frame_base != kInvalidAddr &&
                              sizes_.aligned(frame_base, level),
                          "coalesce: frame not aligned/populated");
        }
        for (; j < pagesPerLeaf && i < pages; ++j, ++i) {
            MOSAIC_ASSERT(leaf->leafPhys[j] ==
                              frame_base + i * kBasePageSize,
                          "coalesce: base pages not contiguous in frame");
        }
    }

    holder->childCoalesced[levelIndex(vaBase,
                                      sizes_.coalesceBitDepth(level))] = true;
    setDisabledBits(vaBase, level, true);
    if (observer_ != nullptr) {
        if (level == sizes_.topLevel())
            observer_->onCoalesce(app_, vaBase);
        else
            observer_->onCoalesceLevel(app_, vaBase, level);
    }
}

void
PageTable::coalesce(Addr vaLargeBase)
{
    coalesceLevel(vaLargeBase, sizes_.topLevel());
}

void
PageTable::splinterLevel(Addr vaBase, unsigned level)
{
    MOSAIC_ASSERT(level >= 1 && level <= sizes_.topLevel(),
                  "splinter of a non-coalescible level");
    MOSAIC_ASSERT(sizes_.aligned(vaBase, level),
                  "splinter target not aligned to its level");
    Node *holder = findNodeAtDepth(vaBase, sizes_.coalesceBitDepth(level));
    MOSAIC_ASSERT(holder != nullptr, "splinter of unmapped region");
    holder->childCoalesced[levelIndex(vaBase,
                                      sizes_.coalesceBitDepth(level))] = false;

    // Any lower-level coalesced bits beneath are demoted too;
    // re-promotion of intact runs is the manager's (Trident) decision.
    for (unsigned lower = level; lower-- > 1;) {
        const std::uint64_t regions =
            sizes_.bytes(level) / sizes_.bytes(lower);
        const unsigned depth = sizes_.coalesceBitDepth(lower);
        for (std::uint64_t r = 0; r < regions; ++r) {
            const Addr sub = vaBase + r * sizes_.bytes(lower);
            Node *h = findNodeAtDepth(sub, depth);
            if (h == nullptr || h->childCoalesced.empty())
                continue;
            const unsigned idx = levelIndex(sub, depth);
            if (!h->childCoalesced[idx])
                continue;
            h->childCoalesced[idx] = false;
            if (observer_ != nullptr)
                observer_->onSplinterLevel(app_, sub, lower);
        }
    }

    setDisabledBits(vaBase, level, false);
    if (observer_ != nullptr) {
        if (level == sizes_.topLevel())
            observer_->onSplinter(app_, vaBase);
        else
            observer_->onSplinterLevel(app_, vaBase, level);
    }
}

void
PageTable::splinter(Addr vaLargeBase)
{
    splinterLevel(vaLargeBase, sizes_.topLevel());
}

bool
PageTable::isCoalescedAt(Addr va, unsigned level) const
{
    if (level < 1 || level > sizes_.topLevel())
        return false;
    const unsigned depth = sizes_.coalesceBitDepth(level);
    const Node *holder = findNodeAtDepth(va, depth);
    if (holder == nullptr || holder->childCoalesced.empty())
        return false;
    return holder->childCoalesced[levelIndex(va, depth)];
}

bool
PageTable::isCoalesced(Addr va) const
{
    return isCoalescedAt(va, sizes_.topLevel());
}

unsigned
PageTable::coalescedLevel(Addr va) const
{
    const Node *node = root_.get();
    const unsigned leafDepth = numLevels_ - 1;
    for (unsigned depth = 0; depth < leafDepth; ++depth) {
        const unsigned idx = levelIndex(va, depth);
        if (!node->childCoalesced.empty() && node->childCoalesced[idx])
            return static_cast<unsigned>(levelAtDepth_[depth]);
        const Node *child = node->children[idx].get();
        if (child == nullptr)
            return 0;
        node = child;
    }
    return 0;
}

Addr
PageTable::contiguousGroupBase(Addr va, unsigned spanPagesLog2) const
{
    const std::uint64_t span = std::uint64_t(1) << spanPagesLog2;
    const Addr groupBase = va & ~((kBasePageSize << spanPagesLog2) - 1);
    const unsigned leafDepth = numLevels_ - 1;
    const std::uint64_t pagesPerLeaf = std::uint64_t(mask_[leafDepth]) + 1;
    Addr base = kInvalidAddr;
    for (std::uint64_t i = 0; i < span;) {
        const Addr pageVa = groupBase + i * kBasePageSize;
        const Node *leaf = findLeafNode(pageVa);
        if (leaf == nullptr)
            return kInvalidAddr;
        unsigned j = levelIndex(pageVa, leafDepth);
        for (; j < pagesPerLeaf && i < span; ++j, ++i) {
            const Addr pa = leaf->leafPhys[j];
            if (pa == kInvalidAddr || !leaf->leafResident[j])
                return kInvalidAddr;
            if (i == 0)
                base = pa;
            else if (pa != base + i * kBasePageSize)
                return kInvalidAddr;
        }
    }
    return base;
}

template <unsigned kDepths>
std::array<Addr, PageTable::kMaxLevels>
PageTable::walkPathImpl(Addr va) const
{
    // Descend until a level is absent; remaining levels stay invalid so
    // the walker faults at the first missing node.
    std::array<Addr, kMaxLevels> path;
    path.fill(kInvalidAddr);
    const Node *node = root_.get();
    const unsigned depths = kDepths != 0 ? kDepths : numLevels_;
    for (unsigned depth = 0; depth < depths; ++depth) {
        const unsigned idx = levelIndex(va, depth);
        path[depth] = node->physAddr + idx * 8;
        if (depth == depths - 1)
            break;
        const Node *child = node->children[idx].get();
        if (child == nullptr) {
            // Remaining levels are absent; leave them invalid.
            break;
        }
        node = child;
    }
    return path;
}

std::array<Addr, PageTable::kMaxLevels>
PageTable::walkPath(Addr va) const
{
    switch (numLevels_) {
    case 4: return walkPathImpl<4>(va);
    case 5: return walkPathImpl<5>(va);
    default: return walkPathImpl<0>(va);
    }
}

void
PageTable::serializeNode(ckpt::Archive &ar, Node &node, unsigned depth,
                         Addr vaPrefix)
{
    ar.io(node.physAddr);
    const std::size_t fanout = std::size_t(mask_[depth]) + 1;
    if (depth == numLevels_ - 1) {
        if (ar.loading()) {
            node.leafPhys.assign(fanout, kInvalidAddr);
            node.leafDisabled.assign(fanout, false);
            node.leafResident.assign(fanout, false);
        }
        for (std::size_t j = 0; j < fanout; ++j) {
            ar.io(node.leafPhys[j]);
            ar.flags(node.leafDisabled[j], node.leafResident[j]);
            if (ar.loading() && node.leafPhys[j] != kInvalidAddr) {
                ++mappedPages_;
                if (observer_ != nullptr) {
                    const Addr va = vaPrefix | (Addr(j) << shift_[depth]);
                    observer_->onMap(app_, va, node.leafPhys[j],
                                     node.leafResident[j]);
                }
            }
        }
        return;
    }

    if (ar.loading()) {
        node.children.clear();
        node.children.resize(fanout);
        if (levelAtDepth_[depth] >= 1)
            node.childCoalesced.assign(fanout, false);
    }
    const bool has_bits = !node.childCoalesced.empty();
    // Slot flags (bit 0 = child present, bit 1 = coalesced) for the
    // whole node first, then the present children depth-first.
    std::vector<std::uint8_t> slot_flags(fanout);
    for (std::size_t j = 0; j < fanout; ++j) {
        slot_flags[j] = static_cast<std::uint8_t>(
            (node.children[j] != nullptr ? 1 : 0) |
            (has_bits && node.childCoalesced[j] ? 2 : 0));
        ar.io(slot_flags[j]);
    }
    if (!ar.ok())
        return;
    for (std::size_t j = 0; j < fanout; ++j) {
        if (ar.loading()) {
            if ((slot_flags[j] & 2) != 0) {
                if (!has_bits) {
                    ar.fail("coalesced bit at a depth without bits");
                    return;
                }
                node.childCoalesced[j] = true;
            }
            if ((slot_flags[j] & 1) != 0)
                node.children[j] = std::make_unique<Node>();
        }
        if (node.children[j] != nullptr) {
            serializeNode(ar, *node.children[j], depth + 1,
                          vaPrefix | (Addr(j) << shift_[depth]));
            if (!ar.ok())
                return;
        }
    }
    // Fire the coalesce hooks only after the subtree beneath each bit
    // is fully loaded, so an observer that probes the table (the
    // invariant checker re-derives PAs) sees a consistent region.
    if (ar.loading() && observer_ != nullptr && has_bits) {
        const unsigned level = static_cast<unsigned>(levelAtDepth_[depth]);
        for (std::size_t j = 0; j < fanout; ++j) {
            if (!node.childCoalesced[j])
                continue;
            const Addr va_base = vaPrefix | (Addr(j) << shift_[depth]);
            if (level == sizes_.topLevel())
                observer_->onCoalesce(app_, va_base);
            else
                observer_->onCoalesceLevel(app_, va_base, level);
        }
    }
}

void
PageTable::serialize(ckpt::Archive &ar)
{
    std::uint64_t recorded = mappedPages_;
    ar.io(recorded);
    if (ar.loading()) {
        root_ = std::make_unique<Node>();
        mappedPages_ = 0;
    }
    serializeNode(ar, *root_, 0, 0);
    if (ar.ok() && mappedPages_ != recorded)
        ar.fail("page-table mapped-page count mismatch (" +
                std::to_string(mappedPages_) + " restored, " +
                std::to_string(recorded) + " recorded)");
}

}  // namespace mosaic
