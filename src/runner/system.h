/**
 * @file
 * The simulated GPU, wired once for every caller (DESIGN.md §7).
 *
 * Machine builds the hardware from a SimConfig; runSimulation(), the
 * mosaic_fuzz schedule driver and the trace_replay example all build
 * one. System runs a Workload on a Machine: app layouts, SMs and warps,
 * launch, the periodic ticks, checkpoints, and the harvest.
 */

#ifndef MOSAIC_RUNNER_SYSTEM_H
#define MOSAIC_RUNNER_SYSTEM_H

#include "check/invariant_checker.h"
#include "common/rng.h"
#include "engine/sharded_engine.h"
#include "iobus/demand_paging.h"
#include "runner/simulation.h"
#include "workload/access_pattern.h"

namespace mosaic {

/**
 * FNV-1a fingerprint of the *simulated system*: every knob that
 * changes which events run (manager kind, component geometry, workload
 * parameters, seed, engine family) feeds a canonical string.
 * Presentation and observation knobs -- the label, trace sinks,
 * invariant checks, the checkpoint schedule itself, and the sharded
 * worker count N (which never changes results) -- are excluded, so a
 * restore config may differ in those and still match. trace.enabled is
 * *included*: serial counter ticks shift event sequence numbers, which
 * are checkpointed state.
 */
std::uint64_t configFingerprint(const Workload &workload,
                                const SimConfig &config, bool sharded);

/**
 * The simulated hardware, members in construction order. Components
 * hold references to one another, so a Machine never moves. Building
 * one schedules no event.
 */
struct Machine
{
    /**
     * Builds the hardware for @p numApps address spaces (AppId = index)
     * on the sharded engine with @p shards workers, or on the serial
     * engine when @p shards is 0. Refuses a config it cannot simulate
     * faithfully with a `config <field>:` diagnostic. Pre-fragments a
     * Mosaic pool per config.fragmentationIndex unless restoring.
     */
    Machine(const SimConfig &simConfig, unsigned numApps, unsigned shards);
    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** The hub queue under the sharded engine, else the serial queue. */
    EventQueue &
    events()
    {
        return engine != nullptr ? engine->hubQueue() : serialEvents;
    }

    /** The hub-lane trace ring; null when tracing is off. */
    Tracer *hubTracer() const { return tracer ? tracer->hub() : nullptr; }

    /** Runs events until none is pending anywhere. */
    void drain();

    /** Checkpoint sections ENG1 to GPU1 (DESIGN.md §14). */
    void serialize(ckpt::Archive &ar);

    /** Private copy: the checker and CAC hold pointers into it. */
    const SimConfig config;
    /** Outlives every component; each binds its counters at birth. */
    StatsRegistry registry;
    std::shared_ptr<TraceMux> tracer;        ///< null unless tracing
    std::unique_ptr<ShardedEngine> engine;   ///< null on the serial engine
    EventQueue serialEvents;
    DramModel dram;
    CacheHierarchy caches;
    PageTableWalker walker;
    TranslationService translation;
    PcieBus pcie;
    std::unique_ptr<MemoryManager> manager;
    RegionPtNodeAllocator ptAlloc;
    std::unique_ptr<InvariantChecker> checker;  ///< null unless enabled
    Gpu gpu;
    std::vector<std::unique_ptr<PageTable>> pageTables;
    DemandPager pager;
};

/**
 * One Workload running on a Machine: what runSimulation() builds, runs
 * and harvests. Pending events capture `this`, so a System never moves.
 */
class System
{
  public:
    /** Builds, then launches the workload or restores the checkpoint. */
    System(const Workload &workload, const SimConfig &config,
           unsigned shards);
    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Runs until every app finishes or time reaches config.maxCycles. */
    void run();

    /** The result at the instant the last app finished; call once. */
    SimResult harvest();

  private:
    /** Per-application runtime context. */
    struct AppCtx
    {
        AppParams params;
        PageTable &pageTable;
        AppLayout layout;
        /** Bump pointer for fresh virtual regions under allocation churn. */
        Addr nextChurnVa;
        unsigned smCount = 0;
        std::vector<SmId> sms;
        unsigned smsDone = 0;
        bool finished = false;
        Cycles finishAt = 0;
        unsigned prefetchesPending = 0;
    };

    void smDone(AppCtx &app);
    void scheduleTicks(Cycles R);
    void churnTick();
    void sampleTick();
    void counterTick();
    /** Pauses SM issue and idles the ticks, so a drain quiesces. */
    void
    quiesce()
    {
        quiescing_ = true;
        machine_.gpu.pauseAll();
    }
    /** At quiesce point @p R: saves each checkpoint due, then rearm(R). */
    void resumeAt(Cycles R);
    void rearm(Cycles R);
    void serialize(ckpt::Archive &ar);
    /** Simulated time of the last app's finish, or now while running. */
    Cycles endNow() { return allFinished_ ? endCycle_ : events_.now(); }

    const std::string workloadName_;
    const std::uint64_t fingerprint_;
    Machine machine_;
    const SimConfig &config_;
    EventQueue &events_;
    std::vector<std::unique_ptr<AppCtx>> apps_;
    bool allFinished_ = false;
    /** Sharded runs finish their window past the last app's finish. */
    Cycles endCycle_ = 0;
    std::uint64_t peakAllocated_ = 0;
    std::uint64_t peakHoles_ = 0;
    unsigned appsRemaining_ = 0;
    Rng churnRng_;
    std::vector<MetricsSnapshot> samples_;
    /** Serial trace-counter ticks (sharded runs sample at barriers). */
    bool counterTicks_ = false;
    /** Set while a checkpoint drains: every tick does nothing. */
    bool quiescing_ = false;
    /** (trigger cycle, path) in ascending trigger order. */
    std::vector<std::pair<Cycles, std::string>> ckptSchedule_;
    std::size_t nextCkpt_ = 0;
};

}  // namespace mosaic

#endif  // MOSAIC_RUNNER_SYSTEM_H
