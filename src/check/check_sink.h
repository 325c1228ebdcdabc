/**
 * @file
 * Pure event interface through which simulation components report
 * checkable events to the invariant checker (src/check/).
 *
 * Components hold an optional `CheckSink *` (null = checking disabled,
 * the common case) and notify it synchronously. The interface is pure
 * virtual with no dependencies beyond common/types.h, so vm/ and mm/
 * can include it without creating a link-time dependency on the
 * checker library. Implementations must be purely passive observers:
 * no event scheduling, no stats mutation, no state changes visible to
 * the simulation (the `withInvariantChecks` observation-only contract).
 *
 * TLB traffic arrives as one fill and one shootdown hook, each naming
 * the page-size level of the entry (0 = base, the top level = the
 * classic large page), plus a pair for CoLT group entries.
 */

#ifndef MOSAIC_CHECK_CHECK_SINK_H
#define MOSAIC_CHECK_CHECK_SINK_H

#include "common/types.h"

namespace mosaic {

/** Audited soft-guarantee violation sites (mirrors mm_trace.h). */
enum class AuditedSite : unsigned
{
    LooseLastResort = 1,  ///< CoCoA last-resort loose-page allocation
    CompactDest = 2,      ///< CAC compaction into a foreign frame
    EmergencyDonate = 3,  ///< emergency splinter donating to another app
};

/** Passive observer of mutation / TLB / cost-model events. */
class CheckSink
{
  public:
    virtual ~CheckSink() = default;

    /**
     * A memory-manager mutation (reserve/back/release/compact/...)
     * finished; @p site names the call site for violation reports.
     * The checker decides whether to run a verification sweep here.
     */
    virtual void onMutation(const char *site) = 0;

    /**
     * CAC charged @p charged stall cycles for migrating the base page
     * at @p srcPa to @p dstPa; @p inDramCopy is the bulk-copy flag CAC
     * passed to DramModel::bulkCopyPage for the same migration.
     */
    virtual void onMigrationCharged(Addr srcPa, Addr dstPa, bool inDramCopy,
                                    Cycles charged) = 0;

    /** A soft-guarantee violation occurred at an audited failsafe site. */
    virtual void onAuditedViolation(AuditedSite site) = 0;

    /**
     * A translation of size level @p level (0 = base page, the top
     * level = the classic large page) was installed in some TLB level.
     * @p vpn is the page number at that level's granularity.
     */
    virtual void onTlbFill(AppId app, std::uint64_t vpn, unsigned level) = 0;

    /** The size-level @p level entry for @p vpn was shot down from
     *  every TLB level. */
    virtual void onTlbShootdown(AppId app, std::uint64_t vpn,
                                unsigned level) = 0;

    /**
     * CoLT coalesced-group entry traffic (CoLT mode only). @p groupVpn
     * is the base VPN right-shifted by the span exponent. The fill was
     * verified contiguous against the live page table at fill time.
     */
    virtual void onTlbFillColt(AppId, std::uint64_t /*groupVpn*/) {}
    virtual void onTlbShootdownColt(AppId, std::uint64_t /*groupVpn*/) {}
};

}  // namespace mosaic

#endif  // MOSAIC_CHECK_CHECK_SINK_H
