/**
 * @file
 * Generic set-associative tag store with pluggable replacement.
 *
 * The simulator never stores data, only tags and per-line metadata
 * (validity, dirtiness, owner). The same structure backs the L1 data
 * caches, the shared L2 cache banks, and (via Tlb) the TLB entry arrays.
 *
 * Wide fully-associative arrays (the TLB entry arrays and the page-walk
 * cache: one set, 16+ ways) additionally keep a FlatMap from key to
 * entry, so the per-probe cost is a hash lookup instead of a linear
 * scan over up to 256 ways. The index is pure acceleration: replacement
 * decisions, victim choice, and statistics are identical with and
 * without it (DESIGN.md §11). Small-way data caches keep the plain scan,
 * which beats a hash at 4-16 ways per set.
 */

#ifndef MOSAIC_CACHE_SET_ASSOC_CACHE_H
#define MOSAIC_CACHE_SET_ASSOC_CACHE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "ckpt/serde.h"
#include "common/flat_map.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/types.h"

namespace mosaic {

/** Replacement policies supported by SetAssocCache. */
enum class ReplacementPolicy : std::uint8_t {
    Lru,     ///< least-recently-used
    Fifo,    ///< first-in-first-out (insertion order)
    Random,  ///< uniform random victim
};

/**
 * A set-associative array of tags.
 *
 * Keys are abstract 64-bit "tags" (the caller decides whether they are
 * line addresses, page numbers, or anything else); the set index is
 * derived from the key modulo the number of sets, so callers should pass
 * keys whose low bits vary (e.g., line address >> offset bits).
 */
class SetAssocCache
{
  public:
    /** Per-entry metadata returned to callers on eviction. */
    struct Victim
    {
        std::uint64_t key;
        bool dirty;
    };

    /**
     * @param sets number of sets (>= 1)
     * @param ways associativity (>= 1); sets*ways is the capacity
     * @param policy replacement policy
     * @param seed RNG seed (used only by Random replacement)
     */
    SetAssocCache(std::size_t sets, std::size_t ways,
                  ReplacementPolicy policy = ReplacementPolicy::Lru,
                  std::uint64_t seed = 1)
        : sets_(sets), ways_(ways), policy_(policy), rng_(seed),
          entries_(sets * ways),
          indexed_(sets == 1 && ways >= kMinWaysForIndex),
          index_(indexed_ ? ways : 0)
    {
        MOSAIC_ASSERT(sets >= 1 && ways >= 1, "degenerate cache geometry");
    }

    /**
     * Looks up @p key; on a hit updates recency and returns true.
     * @p markDirty sets the entry's dirty bit on a hit.
     */
    bool
    access(std::uint64_t key, bool markDirty = false)
    {
        Entry *entry = find(key);
        if (entry == nullptr)
            return false;
        entry->lastUse = ++tick_;
        entry->dirty = entry->dirty || markDirty;
        return true;
    }

    /** Looks up @p key without updating replacement state. */
    bool
    contains(std::uint64_t key) const
    {
        return const_cast<SetAssocCache *>(this)->find(key) != nullptr;
    }

    /**
     * Inserts @p key (which must not be present), evicting a victim when
     * the set is full.
     * @return the evicted entry, if any.
     */
    std::optional<Victim>
    insert(std::uint64_t key, bool dirty = false)
    {
        MOSAIC_ASSERT(!contains(key), "inserting a key that is present");
        return insertAbsent(key, dirty);
    }

    /**
     * Inserts @p key only when absent (the TLB fill idiom). One probe
     * decides; the separate contains()+insert() pattern pays two.
     * @return true when the key was inserted.
     */
    bool
    insertIfAbsent(std::uint64_t key, bool dirty = false)
    {
        if (find(key) != nullptr)
            return false;
        insertAbsent(key, dirty);
        return true;
    }

    /** Removes @p key if present. @return true if it was present. */
    bool
    invalidate(std::uint64_t key)
    {
        Entry *entry = find(key);
        if (entry == nullptr)
            return false;
        entry->valid = false;
        if (indexed_)
            index_.erase(key);
        return true;
    }

    /** Invalidates every entry matching @p pred(key). @return count. */
    template <typename Pred>
    std::size_t
    invalidateIf(Pred pred)
    {
        std::size_t count = 0;
        for (Entry &e : entries_) {
            if (e.valid && pred(e.key)) {
                e.valid = false;
                if (indexed_)
                    index_.erase(e.key);
                ++count;
            }
        }
        return count;
    }

    /** Invalidates all entries. */
    void
    flush()
    {
        for (Entry &e : entries_)
            e.valid = false;
        if (indexed_)
            index_.clear();
    }

    /** Number of valid entries. */
    std::size_t
    occupancy() const
    {
        std::size_t count = 0;
        for (const Entry &e : entries_)
            count += e.valid ? 1 : 0;
        return count;
    }

    /** Total capacity in entries. */
    std::size_t capacity() const { return sets_ * ways_; }

    /** Number of sets. */
    std::size_t sets() const { return sets_; }

    /** Associativity. */
    std::size_t ways() const { return ways_; }

    /** Calls @p fn(key) for every valid entry, in slot order. */
    template <typename Fn>
    void
    forEachKey(Fn fn) const
    {
        for (const Entry &e : entries_) {
            if (e.valid)
                fn(e.key);
        }
    }

    /**
     * Checkpoint hook (DESIGN.md §14). Slot-exact: every entry (valid
     * or not) with its replacement metadata, plus the recency tick and
     * the Random-policy RNG, so victim selection after a restore is
     * identical to a run that was never saved. The FlatMap index is
     * pure acceleration and is rebuilt on load, not serialized.
     */
    void
    serialize(ckpt::Archive &ar)
    {
        ar.io(tick_);
        ar.io(rng_);
        ar.expect(entries_.size(), "cache geometry (entries)");
        if (ar.loading() && indexed_)
            index_.clear();
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            Entry &e = entries_[i];
            ar.io(e.key);
            ar.io(e.lastUse);
            ar.io(e.insertedAt);
            ar.flags(e.valid, e.dirty);
            if (ar.loading() && ar.ok() && e.valid && indexed_)
                index_.insert(e.key, static_cast<std::uint32_t>(i));
        }
    }

  private:
    /** Below this associativity a linear scan beats the hash probe. */
    static constexpr std::size_t kMinWaysForIndex = 16;

    struct Entry
    {
        std::uint64_t key = 0;
        std::uint64_t lastUse = 0;
        std::uint64_t insertedAt = 0;
        bool valid = false;
        bool dirty = false;
    };

    std::size_t setIndex(std::uint64_t key) const { return key % sets_; }

    Entry &entryAt(std::size_t set, std::size_t way)
    {
        return entries_[set * ways_ + way];
    }

    Entry *
    find(std::uint64_t key)
    {
        if (indexed_) {
            const std::uint32_t *way = index_.find(key);
            return way == nullptr ? nullptr : &entries_[*way];
        }
        const std::size_t set = setIndex(key);
        for (std::size_t w = 0; w < ways_; ++w) {
            Entry &e = entryAt(set, w);
            if (e.valid && e.key == key)
                return &e;
        }
        return nullptr;
    }

    /** Insertion body shared by insert()/insertIfAbsent(). @pre absent */
    std::optional<Victim>
    insertAbsent(std::uint64_t key, bool dirty)
    {
        const std::size_t set = indexed_ ? 0 : setIndex(key);
        Entry *slot = nullptr;
        std::size_t slotWay = 0;
        for (std::size_t w = 0; w < ways_; ++w) {
            Entry &e = entryAt(set, w);
            if (!e.valid) {
                slot = &e;
                slotWay = w;
                break;
            }
        }

        std::optional<Victim> victim;
        if (slot == nullptr) {
            slotWay = victimWay(set);
            slot = &entryAt(set, slotWay);
            victim = Victim{slot->key, slot->dirty};
            if (indexed_)
                index_.erase(slot->key);
        }

        ++tick_;
        slot->valid = true;
        slot->key = key;
        slot->dirty = dirty;
        slot->lastUse = tick_;
        slot->insertedAt = tick_;
        if (indexed_)
            index_.insert(key, static_cast<std::uint32_t>(slotWay));
        return victim;
    }

    std::size_t
    victimWay(std::size_t set)
    {
        switch (policy_) {
        case ReplacementPolicy::Random:
            return static_cast<std::size_t>(rng_.below(ways_));
        case ReplacementPolicy::Fifo: {
            std::size_t victim = 0;
            std::uint64_t oldest = entryAt(set, 0).insertedAt;
            for (std::size_t w = 1; w < ways_; ++w) {
                if (entryAt(set, w).insertedAt < oldest) {
                    oldest = entryAt(set, w).insertedAt;
                    victim = w;
                }
            }
            return victim;
        }
        case ReplacementPolicy::Lru:
        default: {
            std::size_t victim = 0;
            std::uint64_t oldest = entryAt(set, 0).lastUse;
            for (std::size_t w = 1; w < ways_; ++w) {
                if (entryAt(set, w).lastUse < oldest) {
                    oldest = entryAt(set, w).lastUse;
                    victim = w;
                }
            }
            return victim;
        }
        }
    }

    std::size_t sets_;
    std::size_t ways_;
    ReplacementPolicy policy_;
    Rng rng_;
    std::vector<Entry> entries_;
    bool indexed_;
    FlatMap<std::uint32_t> index_;  ///< key -> way (single-set arrays)
    std::uint64_t tick_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_CACHE_SET_ASSOC_CACHE_H
