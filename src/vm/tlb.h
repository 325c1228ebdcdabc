/**
 * @file
 * Translation lookaside buffer with split per-page-size entry arrays.
 *
 * Each TLB level keeps one structure per page-size level (paper §2.2
 * describes the classic pair: one array of base-page 4KB translations
 * and one of large-page 2MB translations; a Trident-style hierarchy adds
 * a "mid" array per intermediate size). Every operation names its array
 * by size level -- `lookup/fill/flush/contains/occupancy/forEach(level,
 * app, vpn)` -- and `slotOf(level)` maps the level onto the storage
 * slot: base, large (top), mid, mid2. Entries are tagged with an
 * address-space identifier so multiple applications can share the L2 TLB
 * safely.
 *
 * An optional CoLT mode (PAPERS.md: "Coalesced TLB to Exploit Diverse
 * Contiguity of Memory Mapping") adds a small array of coalesced entries,
 * each covering a power-of-two run of 2^coltSpanPagesLog2 physically
 * contiguous base mappings. The translation service fills one only after
 * verifying the run's contiguity against the live page table, and shoots
 * it down whenever any covered base page is remapped/unmapped or the
 * surrounding frame coalesces or splinters — the same events that drive
 * the per-level shootdowns, so an entry can never outlive the
 * contiguity it encodes.
 */

#ifndef MOSAIC_VM_TLB_H
#define MOSAIC_VM_TLB_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "cache/set_assoc_cache.h"
#include "common/page_sizes.h"
#include "common/stats_registry.h"
#include "common/types.h"

namespace mosaic {

/** Geometry of one TLB level. */
struct TlbConfig
{
    std::size_t baseEntries = 128;
    std::size_t baseWays = 0;    ///< 0 = fully associative
    std::size_t largeEntries = 16;
    std::size_t largeWays = 0;   ///< 0 = fully associative
    Cycles latencyCycles = 1;
    unsigned ports = 1;          ///< accesses accepted per cycle

    /** Page-size levels of the hierarchy this TLB serves; each level
     *  between base and top gets its own "mid" entry array. */
    unsigned numSizeLevels = 2;
    std::size_t midEntries = 32;
    std::size_t midWays = 0;     ///< 0 = fully associative

    /** CoLT coalesced-entry array (absent by default). */
    bool coltEnabled = false;
    std::size_t coltEntries = 32;
    std::size_t coltWays = 0;    ///< 0 = fully associative
    unsigned coltSpanPagesLog2 = 3;  ///< base pages per coalesced entry
};

/** One TLB level (used for both the per-SM L1s and the shared L2). */
class Tlb
{
  public:
    /** Entry-array slots any hierarchy can use (one per size level). */
    static constexpr unsigned kMaxSlots = PageSizeHierarchy::kMaxSizeLevels;

    /** Hit/miss counters, one pair per entry-array slot (see slotOf). */
    struct Stats
    {
        std::uint64_t slotAccesses[kMaxSlots] = {};
        std::uint64_t slotHits[kMaxSlots] = {};
        std::uint64_t coltAccesses = 0;
        std::uint64_t coltHits = 0;
        std::uint64_t coltFills = 0;
        std::uint64_t coltShootdowns = 0;

        std::uint64_t
        accesses() const
        {
            std::uint64_t sum = coltAccesses;
            for (const std::uint64_t n : slotAccesses)
                sum += n;
            return sum;
        }
        std::uint64_t
        hits() const
        {
            std::uint64_t sum = coltHits;
            for (const std::uint64_t n : slotHits)
                sum += n;
            return sum;
        }
    };

    explicit Tlb(const TlbConfig &config)
        : config_(config), numSlots_(std::max(2u, config.numSizeLevels))
    {
        MOSAIC_ASSERT(numSlots_ <= kMaxSlots, "too many TLB size levels");
        for (unsigned s = 0; s < numSlots_; ++s) {
            const std::size_t entries = s == 0   ? config.baseEntries
                                        : s == 1 ? config.largeEntries
                                                 : config.midEntries;
            const std::size_t ways = s == 0   ? config.baseWays
                                     : s == 1 ? config.largeWays
                                              : config.midWays;
            slots_[s].emplace(setsFor(entries, ways), waysFor(entries, ways));
        }
        if (config.coltEnabled)
            colt_ = std::make_unique<SetAssocCache>(
                setsFor(config.coltEntries, config.coltWays),
                waysFor(config.coltEntries, config.coltWays));
    }

    /**
     * Entry-array slot of size level @p level. Slots keep the classic
     * order -- base, large (the top level), then each intermediate
     * level ascending -- so arrays, counters, metric names and
     * checkpoint bytes read the same for every hierarchy. Slots 0 and 1
     * always exist: a one-level {4K} TLB keeps an unused large array.
     */
    unsigned
    slotOf(unsigned level) const
    {
        if (level == 0)
            return 0;
        return level + 1 == config_.numSizeLevels ? 1 : level + 1;
    }

    /** Looks up a level-@p level translation; updates recency. */
    bool
    lookup(unsigned level, AppId app, std::uint64_t vpn)
    {
        const unsigned s = slotOf(level);
        ++stats_.slotAccesses[s];
        const bool hit = slots_[s]->access(key(app, vpn));
        stats_.slotHits[s] += hit ? 1 : 0;
        return hit;
    }

    /** Installs a level-@p level translation (no-op if present). */
    void
    fill(unsigned level, AppId app, std::uint64_t vpn)
    {
        slots_[slotOf(level)]->insertIfAbsent(key(app, vpn));
    }

    /** Removes one level-@p level translation (shootdown). */
    bool
    flush(unsigned level, AppId app, std::uint64_t vpn)
    {
        return slots_[slotOf(level)]->invalidate(key(app, vpn));
    }

    /**
     * Non-mutating presence probe. Unlike lookup this touches neither
     * stats nor recency -- safe for observation-only consumers (the
     * invariant checker).
     */
    bool
    contains(unsigned level, AppId app, std::uint64_t vpn) const
    {
        return slots_[slotOf(level)]->contains(key(app, vpn));
    }

    /** Number of valid level-@p level entries (tests/debug). */
    std::size_t
    occupancy(unsigned level) const
    {
        return slots_[slotOf(level)]->occupancy();
    }

    /** True when the CoLT coalesced-entry array is present. */
    bool hasColt() const { return colt_ != nullptr; }

    /** Base pages covered by one CoLT entry (log2). */
    unsigned coltSpanPagesLog2() const { return config_.coltSpanPagesLog2; }

    /** Looks up the CoLT entry covering base page @p baseVpn. */
    bool
    lookupColt(AppId app, std::uint64_t baseVpn)
    {
        ++stats_.coltAccesses;
        const bool hit =
            colt_->access(key(app, baseVpn >> config_.coltSpanPagesLog2));
        stats_.coltHits += hit ? 1 : 0;
        return hit;
    }

    /** Installs the CoLT entry covering @p baseVpn. The caller must
     *  have verified the group's contiguity against the page table. */
    void
    fillColt(AppId app, std::uint64_t baseVpn)
    {
        ++stats_.coltFills;
        colt_->insertIfAbsent(
            key(app, baseVpn >> config_.coltSpanPagesLog2));
    }

    /** Removes the CoLT entry covering @p baseVpn (remap/splinter). */
    bool
    flushColtGroup(AppId app, std::uint64_t baseVpn)
    {
        const bool hit = colt_->invalidate(
            key(app, baseVpn >> config_.coltSpanPagesLog2));
        stats_.coltShootdowns += hit ? 1 : 0;
        return hit;
    }

    /** Non-mutating presence probe for a CoLT group entry. */
    bool
    containsColtGroup(AppId app, std::uint64_t baseVpn) const
    {
        return colt_ != nullptr &&
               colt_->contains(
                   key(app, baseVpn >> config_.coltSpanPagesLog2));
    }

    /** Removes every translation belonging to @p app. */
    void
    flushApp(AppId app)
    {
        auto matches = [app](std::uint64_t k) {
            return static_cast<AppId>(k >> kAppShift) == app;
        };
        for (unsigned s = 0; s < numSlots_; ++s)
            slots_[s]->invalidateIf(matches);
        if (colt_ != nullptr)
            colt_->invalidateIf(matches);
    }

    /** Removes everything (full shootdown). */
    void
    flushAll()
    {
        for (unsigned s = 0; s < numSlots_; ++s)
            slots_[s]->flush();
        if (colt_ != nullptr)
            colt_->flush();
    }

    /** Access latency of this level. */
    Cycles latency() const { return config_.latencyCycles; }

    /** Statistics. */
    const Stats &stats() const { return stats_; }

    /**
     * Binds this level's counters into @p reg under
     * "<prefix>.<slot>.{accesses,hits}" (e.g. "vm.tlb.l2.base.hits"),
     * slots named base, large, mid, mid2. Owners with stable addresses
     * call this at construction.
     */
    void
    registerMetrics(StatsRegistry &reg, const std::string &prefix,
                    const MetricLabels &labels = {}) const
    {
        // Mid/CoLT families register only when the structures exist, so
        // the default two-size metric set (pinned by the golden
        // snapshots) is untouched.
        for (unsigned s = 0; s < numSlots_; ++s) {
            const std::string slot = prefix + "." + slotName(s);
            reg.bindCounter(slot + ".accesses", stats_.slotAccesses[s],
                            labels);
            reg.bindCounter(slot + ".hits", stats_.slotHits[s], labels);
        }
        if (colt_ != nullptr) {
            reg.bindCounter(prefix + ".colt.accesses", stats_.coltAccesses,
                            labels);
            reg.bindCounter(prefix + ".colt.hits", stats_.coltHits, labels);
            reg.bindCounter(prefix + ".colt.fills", stats_.coltFills,
                            labels);
            reg.bindCounter(prefix + ".colt.shootdowns",
                            stats_.coltShootdowns, labels);
        }
    }

    /** Metric name of entry-array slot @p slot. */
    static const char *
    slotName(unsigned slot)
    {
        static const char *const names[kMaxSlots] = {"base", "large", "mid",
                                                     "mid2"};
        return names[slot];
    }

    /** Resets statistics (e.g., after warmup). */
    void resetStats() { stats_ = Stats{}; }

    /** Number of valid CoLT entries (tests/debug). */
    std::size_t coltOccupancy() const
    {
        return colt_ != nullptr ? colt_->occupancy() : 0;
    }

    /**
     * @name Entry enumeration (checkpoint restore)
     * Call @p fn(app, vpn) for every valid entry of one array, in slot
     * order. The translation service uses these after a restore to
     * replay CheckSink fill notifications into the invariant checker's
     * shadow. For CoLT the vpn argument is the *group* vpn.
     */
    ///@{
    template <typename Fn>
    void
    forEach(unsigned level, Fn fn) const
    {
        slots_[slotOf(level)]->forEachKey(
            [&](std::uint64_t k) { fn(keyApp(k), keyVpn(k)); });
    }

    template <typename Fn>
    void
    forEachColtGroup(Fn fn) const
    {
        if (colt_ != nullptr)
            colt_->forEachKey(
                [&](std::uint64_t k) { fn(keyApp(k), keyVpn(k)); });
    }
    ///@}

    /** Checkpoint hook (DESIGN.md §14). */
    void
    serialize(ckpt::Archive &ar)
    {
        for (unsigned s = 0; s < numSlots_; ++s)
            ar.io(*slots_[s]);
        if (colt_ != nullptr)
            ar.io(*colt_);
        for (unsigned s = 0; s < kMaxSlots; ++s) {
            ar.io(stats_.slotAccesses[s]);
            ar.io(stats_.slotHits[s]);
        }
        ar.io(stats_.coltAccesses);
        ar.io(stats_.coltHits);
        ar.io(stats_.coltFills);
        ar.io(stats_.coltShootdowns);
    }

  private:
    static constexpr unsigned kAppShift = 44;

    static std::uint64_t
    key(AppId app, std::uint64_t vpn)
    {
        return (static_cast<std::uint64_t>(app) << kAppShift) | vpn;
    }

    static AppId
    keyApp(std::uint64_t k)
    {
        return static_cast<AppId>(k >> kAppShift);
    }

    static std::uint64_t
    keyVpn(std::uint64_t k)
    {
        return k & ((std::uint64_t{1} << kAppShift) - 1);
    }

    static std::size_t
    setsFor(std::size_t entries, std::size_t ways)
    {
        return ways == 0 ? 1 : entries / ways;
    }

    static std::size_t
    waysFor(std::size_t entries, std::size_t ways)
    {
        return ways == 0 ? entries : ways;
    }

    TlbConfig config_;
    unsigned numSlots_;
    /** Entry arrays in slot order; slots past numSlots_ stay empty. */
    std::array<std::optional<SetAssocCache>, kMaxSlots> slots_;
    std::unique_ptr<SetAssocCache> colt_; ///< CoLT coalesced entries
    Stats stats_;
};

}  // namespace mosaic

#endif  // MOSAIC_VM_TLB_H
