/**
 * @file
 * Shadow reference model + invariant checker for the MM/VM core.
 *
 * The checker maintains a flat shadow of every observed page table (a
 * per-app map of base VPN -> {PA, resident} plus a set of coalesced
 * large VPNs), fed synchronously through PageTableObserver, and a
 * shadow of which translations were installed into TLBs, fed through
 * the CheckSink TLB hooks. After memory-manager mutations (reported
 * via CheckSink::onMutation) it cross-validates four invariant
 * families against the real structures:
 *
 *  (a) page table <-> FramePool agreement: every mapped VA is backed by
 *      exactly one owned slot and vice versa, and slotVa round-trips;
 *  (b) TLB coherence: no TLB entry of any size level survives a remap,
 *      splinter, or shootdown stale;
 *  (c) frame-state legality: coalesced implies a single-owner,
 *      contiguity-conserved chunk, fully populated unless parked on the
 *      emergency list (the §4.4 failsafe keeps fragmented frames
 *      coalesced above the occupancy threshold); owner mixing happens
 *      only through the audited failsafe sites;
 *  (d) CAC/DRAM cost-model agreement: the stall CAC charges for a
 *      migration equals what DramModel::bulkCopyPage models for the
 *      same path (recomputed independently from DramConfig).
 *
 * The checker is strictly observation-only: it never schedules events,
 * never mutates simulation state, and only uses const probes (e.g.
 * Tlb::contains, never lookup), so enabling it cannot change a
 * SimResult (the `SimConfig::withInvariantChecks` contract).
 */

#ifndef MOSAIC_CHECK_INVARIANT_CHECKER_H
#define MOSAIC_CHECK_INVARIANT_CHECKER_H

#include <array>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "check/check_sink.h"
#include "common/types.h"
#include "vm/page_table.h"

namespace mosaic {

class DramModel;
class FramePool;
class MemoryManager;
class TranslationService;
struct CacConfig;
struct MosaicState;

/** The shadow-model invariant checker. */
class InvariantChecker final : public PageTableObserver, public CheckSink
{
  public:
    struct Config
    {
        /**
         * Run a full verification sweep every N reported mutations
         * (1 = after every mutation, the fuzzer's setting; 0 = only on
         * explicit verifyAll() calls). Sweeps walk every frame and
         * shadow entry, so production simulations use a large period.
         */
        std::uint64_t fullSweepEvery = 4096;
        /** Panic on the first violation (off: collect and report). */
        bool abortOnViolation = true;
        /** Retain at most this many violation report strings. */
        std::size_t maxReports = 64;
    };

    InvariantChecker() = default;
    explicit InvariantChecker(const Config &config) : config_(config) {}

    /** @name Wiring (call once during setup; pointers must outlive use) */
    ///@{
    /** Attaches the manager under check (frame pool + stats source). */
    void attachManager(const MemoryManager *manager);
    /** Attaches Mosaic's shared state for CoCoA/CAC-specific checks. */
    void attachMosaicState(const MosaicState *state);
    /** Attaches the CAC config for the cost-parity check. */
    void attachCacConfig(const CacConfig *cac);
    /** Attaches the translation service for TLB coherence checks. */
    void attachTranslation(const TranslationService *translation);
    /** Attaches the DRAM model for the cost-parity check. */
    void attachDram(const DramModel *dram);
    /** Starts observing @p pageTable's mutations (sets its observer). */
    void observePageTable(PageTable &pageTable);
    ///@}

    /** Runs a full verification sweep of every attached structure. */
    void verifyAll();

    /**
     * Checkpoint-restore reseed (DESIGN.md §14): the audited-violation
     * count normally accumulates through onAuditedViolation as the
     * manager runs; after a restore the manager's counter arrives via
     * its serialized stats, so the checker's expectation is reseeded to
     * match (verifyMosaicState requires exact equality).
     */
    void seedAuditedViolations(std::uint64_t count) { audited_ = count; }

    /** Mutations reported so far. */
    std::uint64_t mutations() const { return mutations_; }

    /** Total invariant violations detected. */
    std::uint64_t violationCount() const { return violations_; }

    /** Verification sweeps executed. */
    std::uint64_t sweeps() const { return sweeps_; }

    /** Retained violation reports (capped at Config::maxReports). */
    const std::vector<std::string> &reports() const { return reports_; }

    // --- PageTableObserver (shadow translation map) ---
    void onMap(AppId app, Addr va, Addr pa, bool resident) override;
    void onUnmap(AppId app, Addr va) override;
    void onRemap(AppId app, Addr va, Addr newPa) override;
    void onResident(AppId app, Addr va) override;
    void onCoalesce(AppId app, Addr vaLargeBase) override;
    void onSplinter(AppId app, Addr vaLargeBase) override;
    void onCoalesceLevel(AppId app, Addr vaBase, unsigned level) override;
    void onSplinterLevel(AppId app, Addr vaBase, unsigned level) override;

    // --- CheckSink (mutation/TLB/cost events) ---
    void onMutation(const char *site) override;
    void onMigrationCharged(Addr srcPa, Addr dstPa, bool inDramCopy,
                            Cycles charged) override;
    void onAuditedViolation(AuditedSite site) override;
    void onTlbFill(AppId app, std::uint64_t vpn, unsigned level) override;
    void onTlbShootdown(AppId app, std::uint64_t vpn,
                        unsigned level) override;
    void onTlbFillColt(AppId app, std::uint64_t groupVpn) override;
    void onTlbShootdownColt(AppId app, std::uint64_t groupVpn) override;

  private:
    /** Shadow leaf PTE. */
    struct ShadowPte
    {
        Addr pa = kInvalidAddr;
        bool resident = false;
    };

    /** Shadow of one application's page table. */
    struct ShadowApp
    {
        std::map<std::uint64_t, ShadowPte> pages;  ///< base VPN -> PTE
        std::set<std::uint64_t> coalesced;         ///< large VPNs
        /** Intermediate-level coalesced regions (Trident hierarchies):
         *  mid[l-1] holds the level-l VPNs whose runs are promoted.
         *  Always empty with the default pair. */
        std::array<std::set<std::uint64_t>, 2> mid;
    };

    void fail(const std::string &what);

    /** (app << 44) | vpn -- matches the TLBs' internal keying. */
    static std::uint64_t tlbKey(AppId app, std::uint64_t vpn);

    /** Independent re-derivation of the DRAM channel from DramConfig. */
    unsigned shadowChannel(Addr pa) const;

    /** True when the shared L2 TLB or any SM's L1 TLB passes @p probe. */
    template <typename Probe> bool anyTlb(Probe probe) const;

    /** Size hierarchy of @p app's observed table (default if unknown). */
    const PageSizeHierarchy &appSizes(AppId app) const;

    void verifyShadowVsPageTables();
    void verifyPoolVsPageTables();
    void verifyFrameLegality();
    void verifyMosaicState();
    void verifyTlbCoherence();

    Config config_;
    const MemoryManager *manager_ = nullptr;
    const FramePool *pool_ = nullptr;
    const MosaicState *mosaicState_ = nullptr;
    const CacConfig *cacConfig_ = nullptr;
    const TranslationService *translation_ = nullptr;
    const DramModel *dram_ = nullptr;

    std::map<AppId, const PageTable *> tables_;
    std::map<AppId, ShadowApp> shadow_;
    /** TLB fill shadow per size level: key -> page PA recorded at fill
     *  time. */
    std::array<std::map<std::uint64_t, Addr>,
               PageSizeHierarchy::kMaxSizeLevels>
        tlb_;
    /** CoLT group entries: key(app, groupVpn) -> group base PA. */
    std::map<std::uint64_t, Addr> tlbColt_;

    std::uint64_t mutations_ = 0;
    std::uint64_t sweeps_ = 0;
    std::uint64_t violations_ = 0;
    std::uint64_t audited_ = 0;
    std::vector<std::string> reports_;
};

}  // namespace mosaic

#endif  // MOSAIC_CHECK_INVARIANT_CHECKER_H
