/**
 * @file
 * Miss-status holding registers: merge concurrent misses to one line.
 */

#ifndef MOSAIC_CACHE_MSHR_H
#define MOSAIC_CACHE_MSHR_H

#include <cstdint>
#include <vector>

#include "ckpt/serde.h"
#include "common/flat_map.h"
#include "common/inline_function.h"
#include "common/log.h"
#include "common/types.h"

namespace mosaic {

/**
 * Tracks in-flight misses keyed by an abstract 64-bit identifier (line
 * address or page number). The first miss to a key allocates an entry;
 * subsequent misses to the same key merge into it. When the fill arrives,
 * every merged waiter's callback runs.
 *
 * Hot-path layout (DESIGN.md §11): entries live in a pooled slab indexed
 * by a FlatMap, and the first waiter's continuation is stored inline in
 * the entry. The common case -- a single waiter per miss -- therefore
 * touches no node-based container and allocates nothing; only actual
 * merges grow the entry's overflow vector.
 */
class MshrFile
{
  public:
    using Callback = SimCallback;

    /** @param maxEntries capacity; 0 means unlimited. */
    explicit MshrFile(std::size_t maxEntries = 0)
        : maxEntries_(maxEntries)
    {
    }

    /** Result of registering a miss. */
    enum class Outcome {
        NewMiss,  ///< first miss; the caller must start the fill
        Merged,   ///< an earlier miss to the same key is in flight
    };

    /**
     * Registers a miss on @p key; @p onFill runs when the fill arrives.
     * The file is elastic: allocations beyond the nominal capacity are
     * accepted (real hardware would stall the requester) and counted in
     * overflows() so experiments can verify the capacity was adequate.
     */
    Outcome
    registerMiss(std::uint64_t key, Callback onFill)
    {
        if (const std::uint32_t *slot = index_.find(key)) {
            pool_[*slot].rest.push_back(std::move(onFill));
            ++merged_;
            return Outcome::Merged;
        }
        if (maxEntries_ != 0 && index_.size() >= maxEntries_)
            ++overflows_;
        const std::uint32_t slot = acquireEntry();
        pool_[slot].first = std::move(onFill);
        index_.insert(key, slot);
        ++allocated_;
        return Outcome::NewMiss;
    }

    /** Completes the miss on @p key, running all merged callbacks. */
    void
    fill(std::uint64_t key)
    {
        const std::uint32_t *slotPtr = index_.find(key);
        if (slotPtr == nullptr)
            return;
        const std::uint32_t slot = *slotPtr;
        index_.erase(key);
        // Detach the waiters before running them: a callback may itself
        // register a new miss on the same key (retry loops), which must
        // see this entry as gone and may even reuse its slot.
        Callback first = std::move(pool_[slot].first);
        std::vector<Callback> rest = std::move(pool_[slot].rest);
        pool_[slot].rest.clear();  // moved-from: make reuse-ready
        freeEntries_.push_back(slot);
        first();
        for (Callback &cb : rest)
            cb();
    }

    /** True if a miss on @p key is in flight. */
    bool pending(std::uint64_t key) const { return index_.find(key) != nullptr; }

    /** Number of distinct in-flight misses. */
    std::size_t size() const { return index_.size(); }

    /** Total primary misses allocated. */
    std::uint64_t allocations() const { return allocated_; }

    /** Total secondary misses merged into existing entries. */
    std::uint64_t merges() const { return merged_; }

    /** Allocations that exceeded the nominal capacity. */
    std::uint64_t overflows() const { return overflows_; }

    /**
     * Checkpoint hook (DESIGN.md §14). In-flight misses hold waiter
     * continuations that cannot be serialized; the quiesce protocol
     * drains them, so only the counters survive a checkpoint. The
     * pooled slab and free list are payload-only storage and are
     * rebuilt by use.
     * @pre on save, size() == 0 (quiesced).
     */
    void
    serialize(ckpt::Archive &ar)
    {
        MOSAIC_ASSERT(ar.loading() || index_.size() == 0,
                      "checkpointing an MSHR file with in-flight misses");
        ar.io(allocated_);
        ar.io(merged_);
        ar.io(overflows_);
    }

  private:
    struct Entry
    {
        Callback first;               ///< the primary miss's waiter
        std::vector<Callback> rest;   ///< merged (secondary) waiters
    };

    std::uint32_t
    acquireEntry()
    {
        if (freeEntries_.empty()) {
            pool_.emplace_back();
            return static_cast<std::uint32_t>(pool_.size() - 1);
        }
        const std::uint32_t slot = freeEntries_.back();
        freeEntries_.pop_back();
        return slot;
    }

    std::size_t maxEntries_;
    FlatMap<std::uint32_t> index_;  ///< key -> pool slot
    std::vector<Entry> pool_;
    std::vector<std::uint32_t> freeEntries_;
    std::uint64_t allocated_ = 0;
    std::uint64_t merged_ = 0;
    std::uint64_t overflows_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_CACHE_MSHR_H
