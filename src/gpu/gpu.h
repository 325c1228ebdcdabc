/**
 * @file
 * The GPU: a collection of SMs partitioned across applications.
 *
 * SMs are assigned to applications in equal shares (the paper's
 * partitioning, §5). The Gpu also implements the whole-device stall CAC
 * charges for compaction (the paper's conservative worst-case model).
 */

#ifndef MOSAIC_GPU_GPU_H
#define MOSAIC_GPU_GPU_H

#include <cstdint>
#include <memory>
#include <vector>

#include "gpu/sm.h"

namespace mosaic {

/** Device-level configuration. */
struct GpuConfig
{
    unsigned numSms = 30;
    SmConfig sm;
};

/** The simulated GPU device. */
class Gpu
{
  public:
    /**
     * @param metrics when non-null, device-wide counters register under
     *                "gpu.*" at construction; the per-SM sums are
     *                computed at snapshot time so SMs created later are
     *                included (DESIGN.md §8).
     */
    explicit Gpu(EventQueue &events, const GpuConfig &config,
                 StatsRegistry *metrics = nullptr)
        : events_(events), config_(config)
    {
        if (metrics != nullptr) {
            metrics->bindCounterFn("gpu.sm.instructions", [this] {
                return sumOverSms(&Sm::Stats::instructions);
            });
            metrics->bindCounterFn("gpu.sm.memInstructions", [this] {
                return sumOverSms(&Sm::Stats::memInstructions);
            });
            metrics->bindCounterFn("gpu.sm.farFaultStalls", [this] {
                return sumOverSms(&Sm::Stats::farFaultStalls);
            });
            metrics->bindCounter("gpu.stallCycles", stallCycles_);
        }
    }

    /**
     * Creates an SM bound to @p pageTable; returns its id. Under the
     * sharded engine @p laneQueue is the SM's private lane queue; null
     * (the default) puts the SM on the shared serial queue.
     */
    SmId
    createSm(PageTable &pageTable, TranslationService &translation,
             CacheHierarchy &caches, DemandPager *pager,
             std::function<void()> onAllWarpsDone,
             EventQueue *laneQueue = nullptr)
    {
        const auto id = static_cast<SmId>(sms_.size());
        MOSAIC_ASSERT(id < config_.numSms, "too many SMs created");
        sms_.push_back(std::make_unique<Sm>(
            laneQueue != nullptr ? *laneQueue : events_, id, pageTable,
            translation, caches, pager, config_.sm,
            std::move(onAllWarpsDone)));
        return id;
    }

    /** SM by id. */
    Sm &sm(SmId id) { return *sms_[id]; }

    /** Number of created SMs. */
    std::size_t numSms() const { return sms_.size(); }

    /** Starts every SM at @p when. */
    void
    startAll(Cycles when)
    {
        for (auto &sm : sms_)
            sm->start(when);
    }

    /** Stalls every SM for @p duration from now (CAC worst case). */
    void
    stallAll(Cycles duration)
    {
        const Cycles until = events_.now() + duration;
        for (auto &sm : sms_)
            sm->stallUntil(until);
        stallCycles_ += duration;
    }

    /** True when every SM has retired all warps. */
    bool
    allDone() const
    {
        for (const auto &sm : sms_) {
            if (!sm->done())
                return false;
        }
        return true;
    }

    /** Cumulative whole-device stall imposed via stallAll(). */
    Cycles totalStallCycles() const { return stallCycles_; }

    /**
     * @name Checkpoint quiesce + serde (DESIGN.md §14)
     * pauseAll stops issue on every SM so the engine can drain;
     * resumeAll re-arms every SM at the quiesce cycle in id order —
     * the same call sequence runs after an in-process save and after a
     * restore, so both arms schedule identical events.
     */
    ///@{
    void
    pauseAll()
    {
        for (auto &sm : sms_)
            sm->pause();
    }

    void
    resumeAll(Cycles when)
    {
        for (auto &sm : sms_)
            sm->resume(when);
    }

    void
    serialize(ckpt::Archive &ar)
    {
        ar.expect(sms_.size(), "SM count");
        for (auto &sm : sms_)
            ar.io(*sm);
        ar.io(stallCycles_);
    }
    ///@}

    /**
     * Computes the number of SMs each of @p numApps applications gets
     * under equal partitioning of @p totalSms (remainder SMs go to the
     * lowest-index applications).
     */
    static std::vector<unsigned>
    partitionSms(unsigned totalSms, unsigned numApps)
    {
        std::vector<unsigned> share(numApps, totalSms / numApps);
        for (unsigned i = 0; i < totalSms % numApps; ++i)
            ++share[i];
        return share;
    }

  private:
    std::uint64_t
    sumOverSms(std::uint64_t Sm::Stats::*field) const
    {
        std::uint64_t total = 0;
        for (const auto &sm : sms_)
            total += sm->stats().*field;
        return total;
    }

    EventQueue &events_;
    GpuConfig config_;
    std::vector<std::unique_ptr<Sm>> sms_;
    Cycles stallCycles_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_GPU_GPU_H
