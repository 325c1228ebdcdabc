/**
 * @file
 * Translation lookaside buffer with split per-page-size entry arrays.
 *
 * Each TLB level keeps one structure per page-size level (paper §2.2
 * describes the classic pair: one array of base-page 4KB translations
 * and one of large-page 2MB translations; a Trident-style hierarchy adds
 * a "mid" array per intermediate size). Entries are tagged with an
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
 * today's base/large shootdowns, so an entry can never outlive the
 * contiguity it encodes.
 */

#ifndef MOSAIC_VM_TLB_H
#define MOSAIC_VM_TLB_H

#include <cstdint>

#include <memory>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.h"
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
    /** Intermediate ("mid") size levels any hierarchy can add. */
    static constexpr unsigned kMaxMidLevels = 2;

    /** Hit/miss counters, split by page-size class. */
    struct Stats
    {
        std::uint64_t baseAccesses = 0;
        std::uint64_t baseHits = 0;
        std::uint64_t largeAccesses = 0;
        std::uint64_t largeHits = 0;
        std::uint64_t midAccesses[kMaxMidLevels] = {};
        std::uint64_t midHits[kMaxMidLevels] = {};
        std::uint64_t coltAccesses = 0;
        std::uint64_t coltHits = 0;
        std::uint64_t coltFills = 0;
        std::uint64_t coltShootdowns = 0;

        std::uint64_t
        accesses() const
        {
            return baseAccesses + largeAccesses + midAccesses[0] +
                   midAccesses[1] + coltAccesses;
        }
        std::uint64_t
        hits() const
        {
            return baseHits + largeHits + midHits[0] + midHits[1] + coltHits;
        }
    };

    explicit Tlb(const TlbConfig &config)
        : config_(config),
          base_(setsFor(config.baseEntries, config.baseWays),
                waysFor(config.baseEntries, config.baseWays)),
          large_(setsFor(config.largeEntries, config.largeWays),
                 waysFor(config.largeEntries, config.largeWays))
    {
        const unsigned mids =
            config.numSizeLevels > 2 ? config.numSizeLevels - 2 : 0;
        for (unsigned i = 0; i < mids && i < kMaxMidLevels; ++i)
            mid_.emplace_back(setsFor(config.midEntries, config.midWays),
                              waysFor(config.midEntries, config.midWays));
        if (config.coltEnabled)
            colt_ = std::make_unique<SetAssocCache>(
                setsFor(config.coltEntries, config.coltWays),
                waysFor(config.coltEntries, config.coltWays));
    }

    /** Looks up a base-page translation; updates recency. */
    bool
    lookupBase(AppId app, std::uint64_t baseVpn)
    {
        ++stats_.baseAccesses;
        const bool hit = base_.access(key(app, baseVpn));
        stats_.baseHits += hit ? 1 : 0;
        return hit;
    }

    /** Looks up a large-page translation; updates recency. */
    bool
    lookupLarge(AppId app, std::uint64_t largeVpn)
    {
        ++stats_.largeAccesses;
        const bool hit = large_.access(key(app, largeVpn));
        stats_.largeHits += hit ? 1 : 0;
        return hit;
    }

    /** Installs a base-page translation (no-op if already present). */
    void
    fillBase(AppId app, std::uint64_t baseVpn)
    {
        base_.insertIfAbsent(key(app, baseVpn));
    }

    /** Installs a large-page translation (no-op if already present). */
    void
    fillLarge(AppId app, std::uint64_t largeVpn)
    {
        large_.insertIfAbsent(key(app, largeVpn));
    }

    /**
     * Non-mutating presence probe for a base-page translation. Unlike
     * lookupBase this touches neither stats nor recency — safe for
     * observation-only consumers (the invariant checker).
     */
    bool
    containsBase(AppId app, std::uint64_t baseVpn) const
    {
        return base_.contains(key(app, baseVpn));
    }

    /** Non-mutating presence probe for a large-page translation. */
    bool
    containsLarge(AppId app, std::uint64_t largeVpn) const
    {
        return large_.contains(key(app, largeVpn));
    }

    /** Number of intermediate ("mid") size-level arrays. */
    unsigned numMidLevels() const { return unsigned(mid_.size()); }

    /** Looks up a mid-level translation (midIdx = size level - 1). */
    bool
    lookupMid(unsigned midIdx, AppId app, std::uint64_t vpn)
    {
        ++stats_.midAccesses[midIdx];
        const bool hit = mid_[midIdx].access(key(app, vpn));
        stats_.midHits[midIdx] += hit ? 1 : 0;
        return hit;
    }

    /** Installs a mid-level translation (no-op if already present). */
    void
    fillMid(unsigned midIdx, AppId app, std::uint64_t vpn)
    {
        mid_[midIdx].insertIfAbsent(key(app, vpn));
    }

    /** Removes one mid-level translation (mid splinter shootdown). */
    bool
    flushMid(unsigned midIdx, AppId app, std::uint64_t vpn)
    {
        return mid_[midIdx].invalidate(key(app, vpn));
    }

    /** Non-mutating presence probe for a mid-level translation. */
    bool
    containsMid(unsigned midIdx, AppId app, std::uint64_t vpn) const
    {
        return mid_[midIdx].contains(key(app, vpn));
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

    /** Removes one large-page translation (splinter shootdown). */
    bool
    flushLarge(AppId app, std::uint64_t largeVpn)
    {
        return large_.invalidate(key(app, largeVpn));
    }

    /** Removes one base-page translation (compaction shootdown). */
    bool
    flushBase(AppId app, std::uint64_t baseVpn)
    {
        return base_.invalidate(key(app, baseVpn));
    }

    /** Removes every translation belonging to @p app. */
    void
    flushApp(AppId app)
    {
        auto matches = [app](std::uint64_t k) {
            return static_cast<AppId>(k >> kAppShift) == app;
        };
        base_.invalidateIf(matches);
        large_.invalidateIf(matches);
        for (SetAssocCache &mid : mid_)
            mid.invalidateIf(matches);
        if (colt_ != nullptr)
            colt_->invalidateIf(matches);
    }

    /** Removes everything (full shootdown). */
    void
    flushAll()
    {
        base_.flush();
        large_.flush();
        for (SetAssocCache &mid : mid_)
            mid.flush();
        if (colt_ != nullptr)
            colt_->flush();
    }

    /** Access latency of this level. */
    Cycles latency() const { return config_.latencyCycles; }

    /** Statistics. */
    const Stats &stats() const { return stats_; }

    /**
     * Binds this level's counters into @p reg under
     * "<prefix>.{base,large}.{accesses,hits}" (e.g. "vm.tlb.l2").
     * Owners with stable addresses call this at construction.
     */
    void
    registerMetrics(StatsRegistry &reg, const std::string &prefix,
                    const MetricLabels &labels = {}) const
    {
        reg.bindCounter(prefix + ".base.accesses", stats_.baseAccesses,
                        labels);
        reg.bindCounter(prefix + ".base.hits", stats_.baseHits, labels);
        reg.bindCounter(prefix + ".large.accesses", stats_.largeAccesses,
                        labels);
        reg.bindCounter(prefix + ".large.hits", stats_.largeHits, labels);
        // Mid/CoLT families register only when the structures exist, so
        // the default two-size metric set (pinned by the golden
        // snapshots) is untouched.
        for (unsigned i = 0; i < mid_.size(); ++i) {
            const std::string mid =
                prefix + (i == 0 ? ".mid" : ".mid" + std::to_string(i + 1));
            reg.bindCounter(mid + ".accesses", stats_.midAccesses[i],
                            labels);
            reg.bindCounter(mid + ".hits", stats_.midHits[i], labels);
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

    /** Resets statistics (e.g., after warmup). */
    void resetStats() { stats_ = Stats{}; }

    /** Number of valid base entries (tests/debug). */
    std::size_t baseOccupancy() const { return base_.occupancy(); }

    /** Number of valid large entries (tests/debug). */
    std::size_t largeOccupancy() const { return large_.occupancy(); }

    /** Number of valid mid entries at @p midIdx (tests/debug). */
    std::size_t midOccupancy(unsigned midIdx) const
    {
        return mid_[midIdx].occupancy();
    }

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
    forEachBase(Fn fn) const
    {
        base_.forEachKey([&](std::uint64_t k) { fn(keyApp(k), keyVpn(k)); });
    }

    template <typename Fn>
    void
    forEachLarge(Fn fn) const
    {
        large_.forEachKey([&](std::uint64_t k) { fn(keyApp(k), keyVpn(k)); });
    }

    template <typename Fn>
    void
    forEachMid(unsigned midIdx, Fn fn) const
    {
        mid_[midIdx].forEachKey(
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
        ar.io(base_);
        ar.io(large_);
        for (SetAssocCache &mid : mid_)
            ar.io(mid);
        if (colt_ != nullptr)
            ar.io(*colt_);
        ar.io(stats_.baseAccesses);
        ar.io(stats_.baseHits);
        ar.io(stats_.largeAccesses);
        ar.io(stats_.largeHits);
        for (unsigned i = 0; i < kMaxMidLevels; ++i) {
            ar.io(stats_.midAccesses[i]);
            ar.io(stats_.midHits[i]);
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
    SetAssocCache base_;
    SetAssocCache large_;
    std::vector<SetAssocCache> mid_;      ///< one per intermediate level
    std::unique_ptr<SetAssocCache> colt_; ///< CoLT coalesced entries
    Stats stats_;
};

}  // namespace mosaic

#endif  // MOSAIC_VM_TLB_H
