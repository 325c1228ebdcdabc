/**
 * @file
 * mosaic_perf: the measuring half of the repository benchmark (see
 * benchmark/README.md). benchmark/run.py builds and drives it; every
 * invocation measures one workload and prints one JSON object as the
 * last line of stdout.
 *
 *   mosaic_perf run --workload W --seed N --seconds S [--smoke]
 *       Set-up passes (every cell with maxCycles = 0), then whole timed
 *       passes over the workload's cells until the next pass would
 *       overrun S seconds. Reports raw wall times, instruction counts,
 *       per-cell metric digests, and the simulated-clock counters the
 *       per-layer metrics derive from.
 *
 *   mosaic_perf layers --workload W --seed N --trace-out PATH
 *                      --memory-delays C0,C1,... [--smoke]
 *       Builds each layer standalone through its public constructor,
 *       replays the workload's own warp streams into it, and times the
 *       calls in batches. Every batch is a span, kept in memory and
 *       written as Chrome-trace JSON to PATH at exit. Ci is cell i's
 *       DRAM latency p50 from a timed run, in cycles: the delay the
 *       engine replay charges that cell's memory instructions. Also
 *       runs the workload's first cell under the invariant checker and,
 *       for workloads on the default engine, a small cell on the
 *       sharded engine at 1 and 2 workers for the engine profile.
 *
 * The seed orders a workload's cells; the simulated workload itself is
 * pinned (see makeBatch), so every simulated figure is a function of
 * the simulator alone.
 *
 * Times are integer nanoseconds (layer costs: picoseconds per call) of
 * std::chrono::steady_clock, and simulated figures are raw integer
 * sums; run.py derives every rate, ratio and median, so no digit is
 * lost in between.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cache/hierarchy.h"
#include "ckpt/checkpoint.h"
#include "common/json_writer.h"
#include "common/parse_num.h"
#include "common/rng.h"
#include "dram/dram.h"
#include "engine/event_queue.h"
#include "mm/gpu_mmu_manager.h"
#include "mm/mosaic_manager.h"
#include "runner/json_report.h"
#include "runner/simulation.h"
#include "vm/page_table.h"
#include "vm/translation.h"
#include "vm/walker.h"
#include "workload/access_pattern.h"
#include "workload/workload.h"

namespace {

using namespace mosaic;
using Clock = std::chrono::steady_clock;

std::uint64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::uint64_t
secToNs(double s)
{
    return static_cast<std::uint64_t>(s * 1e9);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

template <typename T>
T
median(std::vector<T> v)
{
    std::sort(v.begin(), v.end());
    return v.empty() ? T{} : v[v.size() / 2];
}

/** Worker count of the sharded runs: two, or one on a one-core host. */
unsigned
shardedWorkers()
{
    return std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
}

// --- Workloads --------------------------------------------------------

/** Size of every simulated cell. */
struct Shape
{
    double scale;
    std::uint64_t instrPerWarp;
    unsigned warpsPerSm;
};

/** The bench "full" profile's system shape, with shorter warps so a
 *  workload's whole batch of cells runs three or four times per run. */
constexpr Shape kTimedShape{0.5, 500, 24};
/** One small cell per workload, for --smoke and the engine probe. */
constexpr Shape kSmokeShape{0.1, 200, 8};
constexpr double kIoCompression = 16.0;
/**
 * SimConfig::seed of every cell (warp streams, fragmentation layout,
 * churn choices). Pinned: reseeding moved sim_ipc by 0.8-1.0% across
 * ten seeds on three workloads and by 7.5% on churn_cac, more than its
 * 1% bound, which only an exact simulated workload can hold.
 */
constexpr std::uint64_t kSimSeed = 1;

/** One simulation of a workload's batch. */
struct Cell
{
    Workload workload;
    SimConfig config;
};

/** A workload: a fixed batch of cells run back to back. */
struct Batch
{
    std::string name;
    std::vector<Cell> cells;
    /** Timed worker count of the sharded engine; 0 runs the default
     *  engine, whatever SimConfig makes it. */
    unsigned shards = 0;
};

Workload
shaped(const Workload &w, const Shape &s)
{
    Workload out = scaledWorkload(w, s.scale);
    for (AppParams &app : out.apps)
        app.instrPerWarp = s.instrPerWarp;
    return out;
}

SimConfig
shaped(SimConfig c, const Shape &s)
{
    c.gpu.sm.warpsPerSm = s.warpsPerSm;
    c.seed = kSimSeed;
    return c.withIoCompression(kIoCompression);
}

/**
 * GPU memory shrunk to ~8x the working set plus the page-table pool, as
 * bench/bench_common.h's withTightMemory does for the stress figures.
 * Copied, not included, so an edit there cannot silently change what
 * this benchmark measures.
 */
SimConfig
withTightMemory(SimConfig c, const Workload &w)
{
    c.pageTablePoolBytes = 16ull << 20;
    const std::uint64_t target =
        roundUp(w.workingSetBytes() * 8, kLargePageSize) +
        c.pageTablePoolBytes + (8ull << 20);
    c.dram.capacityBytes = std::max<std::uint64_t>(target, 64ull << 20);
    return c;
}

/**
 * Heterogeneous mix k of n apps. Pinned like kSimSeed: letting the
 * benchmark seed pick the mix moved throughput and IPC by ~10% between
 * seeds.
 */
Workload
hetMix(unsigned n, unsigned k)
{
    return heterogeneousWorkload(n, 1000 + 10 * n + k);
}

Cell
hetMosaicCell(unsigned n, unsigned k, const Shape &s)
{
    return {shaped(hetMix(n, k), s), shaped(SimConfig::mosaicDefault(), s)};
}

Cell
walkCell(const char *app, unsigned copies, const Shape &s)
{
    return {shaped(homogeneousWorkload(app, copies), s),
            shaped(SimConfig::baseline(), s)};
}

Cell
churnCell(unsigned n, unsigned k, const Shape &s)
{
    Workload w = shaped(hetMix(n, k), s);
    // Longer runs amortize compaction's fixed stall cost (as fig16).
    for (AppParams &app : w.apps)
        app.instrPerWarp *= 3;
    SimConfig c = withTightMemory(shaped(SimConfig::mosaicDefault(), s), w);
    c.fragmentationIndex = 1.0;
    c.fragmentationOccupancy = 0.25;
    c.churn.enabled = true;
    return {std::move(w), c};
}

/**
 * The cells of workload @p name, in an order drawn from @p seed; empty
 * when the name is unknown. The order changes the host's allocator and
 * cache history and which cells the layer replay's batches take, not
 * any cell's simulated result.
 */
Batch
makeBatch(const std::string &name, std::uint64_t seed, bool smoke)
{
    const Shape &s = smoke ? kSmokeShape : kTimedShape;
    Batch b;
    b.name = name;
    if (name == "het_mosaic") {
        for (unsigned n = 2; n <= 5; ++n)
            for (unsigned k = 0; k < 4; ++k)
                b.cells.push_back(hetMosaicCell(n, k, s));
    } else if (name == "walk_gpummu") {
        for (const char *app : {"NW", "HISTO", "BP", "SAD"})
            for (unsigned copies = 1; copies <= 2; ++copies)
                b.cells.push_back(walkCell(app, copies, s));
    } else if (name == "churn_cac") {
        for (unsigned n = 2; n <= 4; ++n)
            for (unsigned k = 0; k < 2; ++k)
                b.cells.push_back(churnCell(n, k, s));
    } else if (name == "het_sharded") {
        for (unsigned k = 0; k < 4; ++k)
            b.cells.push_back(hetMosaicCell(5, k, s));
        b.shards = shardedWorkers();
    }
    Rng rng(seed);
    for (std::size_t i = b.cells.size(); i > 1; --i)
        std::swap(b.cells[i - 1], b.cells[rng.below(i)]);
    if (smoke && !b.cells.empty())
        b.cells.resize(1);
    return b;
}

// --- Timed simulation runs --------------------------------------------

/** Counters summed over cells; the simulated per-layer metrics are
 *  ratios of these sums. */
constexpr const char *kSimSums[] = {
    "gpu.sm.instructions",      "gpu.sm.memInstructions",
    "gpu.sm.farFaultStalls",    "vm.translation.requests",
    "vm.translation.l1Hits",    "vm.tlb.l2.base.hits",
    "vm.tlb.l2.large.hits",     "vm.tlb.l2.base.accesses",
    "vm.tlb.l2.large.accesses", "vm.walker.walks",
    "vm.walker.queued",         "cache.l1.hits",
    "cache.l1.accesses",        "cache.l2.hits",
    "cache.l2.accesses",        "dram.rowHits",
    "dram.rowMisses",           "dram.bulkCopies",
    "mm.coalesceOps",           "mm.splinterOps",
    "mm.compactions",           "mm.migrations",
    "mm.pagesBacked",           "mm.pagesReleased",
    "mm.regionsReserved",       "mm.softGuaranteeViolations",
    "mm.peakAllocatedBytes",    "sim.neededBytes",
    "iobus.paging.farFaults",   "iobus.pcie.busBusyCycles",
    "sim.cycles",
};

/** Percentiles taken as a median across cells. */
constexpr const char *kSimPercentiles[] = {
    "vm.walker.latency.p50", "vm.walker.latency.p95", "dram.latency.p50",
    "dram.latency.p95",      "iobus.pcie.latency.p95",
};

/** One cell's timed simulation. */
struct CellRun
{
    std::uint64_t wallNs = 0;
    std::uint64_t instructions = 0;
    std::uint64_t digest = 0;
    std::string failure;  ///< empty when the cell is correct
    EngineShardProfile engine;
    /** The kSimSums counters and kSimPercentiles of the cell, in order,
     *  and per app the operands of AppResult::ipc: kept instead of the
     *  SimResult, whose size would make peak RSS depend on cell order. */
    std::vector<std::uint64_t> sums;
    std::vector<double> percentiles;
    std::vector<std::pair<std::uint64_t, Cycles>> apps;
};

/**
 * Returns the heap's free memory to the kernel, so each timed cell
 * starts from the same resident set whatever ran before it: otherwise
 * glibc's retained free chunks moved peak RSS by 2.4% between cell
 * orders. The set-up passes skip it, as it would add page faults to
 * every assembly they time.
 */
void
releaseFreeMemory()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
}

/** Why @p r is not a complete run of @p cell, or "" when it is. */
std::string
checkCell(const Cell &cell, const SimConfig &c, const SimResult &r)
{
    const std::size_t apps = cell.workload.apps.size();
    if (r.apps.size() != apps)
        return "reported " + std::to_string(r.apps.size()) + " of " +
               std::to_string(apps) + " apps";
    if (r.totalCycles >= c.maxCycles)
        return "hit maxCycles";
    const auto shares =
        Gpu::partitionSms(c.gpu.numSms, static_cast<unsigned>(apps));
    for (std::size_t i = 0; i < apps; ++i) {
        const std::uint64_t want = std::uint64_t(shares[i]) *
                                   c.gpu.sm.warpsPerSm *
                                   cell.workload.apps[i].instrPerWarp;
        if (r.apps[i].instructions < want)
            return r.apps[i].name + " retired " +
                   std::to_string(r.apps[i].instructions) + " of " +
                   std::to_string(want) + " instructions";
    }
    return "";
}

/** Runs @p cell; @p shards > 0 overrides its engine worker count. */
CellRun
runCell(const Cell &cell, unsigned shards, std::size_t index)
{
    SimConfig c = cell.config;
    if (shards > 0)
        c.engineShards = shards;
    // A crash inside the cell leaves this as the last marker run.py
    // sees, so it can attribute the failure.
    std::printf("# cell %zu %s\n", index, cell.workload.name.c_str());
    std::fflush(stdout);
    CellRun run;
    const Clock::time_point t0 = Clock::now();
    SimResult result = runSimulation(cell.workload, c);
    run.wallNs = nsBetween(t0, Clock::now());
    for (const AppResult &app : result.apps)
        run.instructions += app.instructions;
    run.failure = checkCell(cell, c, result);
    run.digest =
        ckpt::fnv1a(metricsToJson(result, managerKindName(c.manager)));
    run.engine = result.engineShard;
    for (const char *key : kSimSums)
        run.sums.push_back(result.metrics.u64(key));
    for (const char *key : kSimPercentiles)
        run.percentiles.push_back(result.metrics.real(key));
    for (const AppResult &app : result.apps)
        run.apps.emplace_back(app.instructions, app.finishCycle);
    return run;
}

/** One pass over every cell of a batch. */
struct PassRun
{
    std::uint64_t wallNs = 0;
    std::uint64_t instructions = 0;
    std::vector<CellRun> cells;
};

PassRun
runPass(const Batch &b, unsigned shards)
{
    PassRun pass;
    for (std::size_t i = 0; i < b.cells.size(); ++i) {
        pass.cells.push_back(runCell(b.cells[i], shards, i));
        releaseFreeMemory();
        pass.wallNs += pass.cells.back().wallNs;
        pass.instructions += pass.cells.back().instructions;
    }
    return pass;
}

/** Σ over cells of assembly time: runSimulation with maxCycles = 0. */
std::uint64_t
setupPass(const Batch &b)
{
    std::uint64_t total = 0;
    for (const Cell &cell : b.cells) {
        SimConfig c = cell.config;
        c.maxCycles = 0;
        if (b.shards > 0)
            c.engineShards = b.shards;
        const Clock::time_point t0 = Clock::now();
        runSimulation(cell.workload, c);
        total += nsBetween(t0, Clock::now());
    }
    return total;
}

/** Per-cell wall times and digests of @p pass. */
void
writeCells(JsonWriter &w, const PassRun &pass)
{
    w.key("cell_ns").beginArray();
    for (const CellRun &cell : pass.cells)
        w.value(cell.wallNs);
    w.endArray();
    w.key("digests").beginArray();
    for (const CellRun &cell : pass.cells)
        w.value(hex(cell.digest));
    w.endArray();
}

/** The sharded engine's wall-clock profile, summed over @p cells. */
void
writeEngineProfile(JsonWriter &w, const std::vector<CellRun> &cells)
{
    std::uint64_t wall = 0, sm = 0, control = 0, sub = 0, exchange = 0;
    std::uint64_t busy = 0, capacity = 0, epochs = 0, hub_busy = 0;
    std::uint64_t events = 0;
    for (const CellRun &cell : cells) {
        const EngineShardProfile &p = cell.engine;
        wall += cell.wallNs;
        sm += secToNs(p.wallSmPhaseSec);
        control += secToNs(p.wallHubSec);
        sub += secToNs(p.wallSubPhaseSec);
        exchange += secToNs(p.wallExchangeSec);
        for (const double s : p.workerBusySec)
            busy += secToNs(s);
        capacity +=
            p.workers * secToNs(p.wallSmPhaseSec + p.wallSubPhaseSec);
        epochs += p.epochs;
        hub_busy += p.hubBusyWindows;
        events += p.hubEvents;
        for (const std::uint64_t e : p.laneEvents)
            events += e;
        for (const std::uint64_t e : p.subEvents)
            events += e;
    }
    w.beginObject();
    w.field("wall_ns", wall);
    w.field("sm_phase_ns", sm);
    w.field("control_phase_ns", control);
    w.field("sub_phase_ns", sub);
    w.field("exchange_ns", exchange);
    w.field("worker_busy_ns", busy);
    w.field("parallel_capacity_ns", capacity);
    w.field("epochs", epochs);
    w.field("hub_busy_windows", hub_busy);
    w.field("events", events);
    w.endObject();
}

/** Integer counters and per-cell percentiles of one pass. */
void
writeSimMetrics(JsonWriter &w, const PassRun &pass)
{
    w.beginObject();
    for (std::size_t k = 0; k < std::size(kSimSums); ++k) {
        std::uint64_t sum = 0;
        for (const CellRun &cell : pass.cells)
            sum += cell.sums[k];
        w.field(kSimSums[k], sum);
    }
    for (std::size_t k = 0; k < std::size(kSimPercentiles); ++k) {
        w.key(kSimPercentiles[k]).beginArray();
        for (const CellRun &cell : pass.cells)
            w.value(cell.percentiles[k]);
        w.endArray();
    }
    // sim_ipc: per cell, per app, the exact operands of AppResult::ipc.
    w.key("apps").beginArray();
    for (const CellRun &cell : pass.cells) {
        w.beginArray();
        for (const auto &[instructions, finish] : cell.apps) {
            w.beginArray();
            w.value(instructions);
            w.value(finish);
            w.endArray();
        }
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

/**
 * This process's peak resident set in KB. Read from VmHWM rather than
 * getrusage(): Linux carries ru_maxrss across execve, so it would
 * report the launching Python process's peak whenever that is larger.
 */
std::uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    std::uint64_t kb = 0;
    while (status >> key) {
        if (key == "VmHWM:" && status >> kb)
            return kb;
        status.ignore(1 << 12, '\n');
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<std::uint64_t>(ru.ru_maxrss);
}

int
runMode(const Batch &b, double seconds, bool smoke)
{
    // Assembly takes milliseconds; many passes make its median steady.
    const unsigned setup_passes = smoke ? 1 : 25;
    std::vector<std::uint64_t> setup_ns;
    for (unsigned p = 0; p < setup_passes; ++p)
        setup_ns.push_back(setupPass(b));
    releaseFreeMemory();

    // het_sharded: the same cells at N = 1 first -- the invariance
    // reference, and the serial wall time speedup_vs_n1 divides.
    PassRun reference;
    if (b.shards > 0)
        reference = runPass(b, 1);

    std::vector<PassRun> passes;
    const std::uint64_t budget = secToNs(seconds);
    std::uint64_t used = 0;
    do {
        const Clock::time_point t0 = Clock::now();
        passes.push_back(runPass(b, b.shards));
        used += nsBetween(t0, Clock::now());
    } while (!smoke && used + passes.back().wallNs <= budget);

    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    const auto tally = [&](const PassRun &pass, const char *what) {
        for (std::size_t i = 0; i < pass.cells.size(); ++i) {
            ++attempted;
            if (!pass.cells[i].failure.empty())
                failures.push_back(std::string(what) + " cell " +
                                   std::to_string(i) + ": " +
                                   pass.cells[i].failure);
        }
    };
    if (b.shards > 0)
        tally(reference, "N=1 reference");
    for (const PassRun &pass : passes)
        tally(pass, "timed");

    JsonWriter w;
    w.beginObject();
    w.field("workload", b.name);
    w.field("cells", b.cells.size());
    w.field("shards", b.shards);
    w.field("attempted", attempted);
    w.key("failures").beginArray();
    for (const std::string &f : failures)
        w.value(f);
    w.endArray();
    w.key("setup_ns").beginArray();
    for (const std::uint64_t ns : setup_ns)
        w.value(ns);
    w.endArray();
    w.key("passes").beginArray();
    for (const PassRun &pass : passes) {
        w.beginObject();
        w.field("wall_ns", pass.wallNs);
        w.field("instructions", pass.instructions);
        writeCells(w, pass);
        if (b.shards > 0) {
            w.key("engine");
            writeEngineProfile(w, pass.cells);
        }
        w.endObject();
    }
    w.endArray();
    if (b.shards > 0) {
        w.key("reference").beginObject();
        w.field("wall_ns", reference.wallNs);
        writeCells(w, reference);
        w.endObject();
    }
    w.key("sim");
    writeSimMetrics(w, passes.front());
    w.field("peak_rss_kb", peakRssKb());
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

// --- Layer replay -------------------------------------------------------

/** Spans around calls into the layers, written as a Chrome trace. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::string parent;  ///< "" for a phase span
        std::uint64_t startNs;
        std::uint64_t endNs;
        std::uint64_t calls;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    std::uint64_t now() const { return nsBetween(origin_, Clock::now()); }

    void
    add(std::string name, std::string parent, std::uint64_t start,
        std::uint64_t end, std::uint64_t calls)
    {
        if (enabled_)
            spans_.push_back({std::move(name), std::move(parent), start, end,
                              calls});
    }

    std::size_t size() const { return spans_.size(); }

    /** Writes the spans as Chrome-trace JSON; false on I/O failure. */
    bool
    write(const std::string &path) const
    {
        JsonWriter w;
        w.beginObject();
        w.key("traceEvents").beginArray();
        for (const Span &s : spans_) {
            w.beginObject();
            w.field("name", s.name);
            w.field("cat", s.parent.empty() ? "phase" : "batch");
            w.field("ph", "X");
            w.field("ts", s.startNs / 1000);
            w.field("dur", (s.endNs - s.startNs) / 1000);
            w.field("pid", 1);
            w.field("tid", 1);
            w.key("args").beginObject();
            w.field("calls", s.calls);
            w.field("start_ns", s.startNs);
            w.field("dur_ns", s.endNs - s.startNs);
            if (!s.parent.empty())
                w.field("parent", s.parent);
            w.endObject();
            w.endObject();
        }
        w.endArray();
        w.endObject();
        std::ofstream out(path);
        out << w.str() << "\n";
        return static_cast<bool>(out);
    }

  private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

/** Manager of @p c's kind over @p c's memory, as runSimulation builds it. */
std::unique_ptr<MemoryManager>
makeManager(const SimConfig &c, std::uint64_t poolBytes)
{
    if (c.manager == ManagerKind::Mosaic)
        return std::make_unique<MosaicManager>(0, poolBytes, c.mosaic);
    return std::make_unique<GpuMmuManager>(0, poolBytes);
}

std::uint64_t
framePoolBytes(const SimConfig &c)
{
    return roundDown(c.dram.capacityBytes - c.pageTablePoolBytes,
                     kLargePageSize);
}

/**
 * One cell's address spaces, built standalone the way runSimulation
 * builds them: the manager of the cell's kind (pre-fragmented when the
 * cell is), a page table and an AppLayout at (i+1)<<40 per application,
 * every buffer reserved and, with @p backTouched, every touched page
 * backed. The manager has no timing services: its calls cost only its
 * own bookkeeping.
 */
struct AddressSpaces
{
    AddressSpaces(const Cell &cell, bool backTouched)
        : config(cell.config), params(cell.workload.apps),
          ptAlloc(framePoolBytes(config), config.pageTablePoolBytes),
          manager(makeManager(config, framePoolBytes(config)))
    {
        manager->setEnv(ManagerEnv{});
        if (config.manager == ManagerKind::Mosaic &&
            config.fragmentationIndex > 0.0) {
            static_cast<MosaicManager &>(*manager).injectFragmentation(
                config.fragmentationIndex, config.fragmentationOccupancy,
                config.seed * 7919 + 13);
        }
        for (std::size_t i = 0; i < params.size(); ++i) {
            const auto app = static_cast<AppId>(i);
            tables.push_back(std::make_unique<PageTable>(
                app, ptAlloc, config.translation.sizes));
            layouts.push_back(std::make_unique<AppLayout>(
                params[i], (static_cast<Addr>(i) + 1) << 40));
            manager->registerApp(app, *tables[i]);
        }
        for (std::size_t i = 0; i < params.size(); ++i)
            for (const AppLayout::Buffer &buf : layouts[i]->buffers())
                manager->reserveRegion(static_cast<AppId>(i), buf.va,
                                       buf.bytes);
        if (!backTouched)
            return;
        for (std::size_t i = 0; i < params.size(); ++i)
            for (const AppLayout::Buffer &buf : layouts[i]->buffers())
                backRange(static_cast<AppId>(i), buf.va, buf.touchedBytes);
    }

    void
    backRange(AppId app, Addr va, std::uint64_t bytes)
    {
        for (Addr p = va; p < va + bytes; p += kBasePageSize)
            manager->backPage(app, p);
    }

    SimConfig config;
    std::vector<AppParams> params;
    RegionPtNodeAllocator ptAlloc;
    std::vector<std::unique_ptr<PageTable>> tables;
    std::vector<std::unique_ptr<AppLayout>> layouts;
    /** Declared last: it holds references into the tables above. */
    std::unique_ptr<MemoryManager> manager;
};

/** One memory line the replays feed to the vm, cache and dram layers. */
struct Access
{
    AppId app;
    SmId sm;
    bool store;
    Addr va;
    Addr pa;
};

/** Warp streams of one cell, with the runner's SM split and seeds. */
struct Streams
{
    Streams(const SimConfig &c, const AddressSpaces &as)
    {
        const auto shares = Gpu::partitionSms(
            c.gpu.numSms, static_cast<unsigned>(as.params.size()));
        const unsigned wps = c.gpu.sm.warpsPerSm;
        SmId sm = 0;
        for (std::size_t i = 0; i < as.params.size(); ++i) {
            const unsigned total = shares[i] * wps;
            for (unsigned local = 0; local < shares[i]; ++local, ++sm) {
                for (unsigned w = 0; w < wps; ++w) {
                    const unsigned idx = local * wps + w;
                    warps.push_back(
                        {static_cast<AppId>(i), sm,
                         std::make_unique<SyntheticWarpStream>(
                             as.params[i], *as.layouts[i], idx, total,
                             c.seed * 1315423911u + i * 2654435761u + idx)});
                }
            }
        }
    }

    struct Warp
    {
        AppId app;
        SmId sm;
        std::unique_ptr<SyntheticWarpStream> stream;
    };
    std::vector<Warp> warps;
};

/**
 * A cell prepared for replay: backed address spaces, the memory lines
 * its warps issue round-robin over warps as SMs would, and each
 * instruction's issue delay for the engine replay: its compute latency,
 * or @p memoryDelay, the cell's measured DRAM latency p50.
 */
struct ReplayCell
{
    static constexpr std::size_t kTraceLines = 1 << 15;

    ReplayCell(const Cell &c, Cycles memoryDelay) : cell(c), spaces(c, true)
    {
        Streams streams(cell.config, spaces);
        WarpInstr in;
        bool any = true;
        while (any && trace.size() < kTraceLines) {
            any = false;
            for (Streams::Warp &w : streams.warps) {
                if (!w.stream->next(in))
                    continue;
                any = true;
                delays.push_back(in.isMemory ? memoryDelay
                                             : in.computeLatency);
                for (unsigned l = 0; in.isMemory && l < in.numLines; ++l) {
                    const Addr va = in.lineAddrs[l];
                    const Addr pa =
                        spaces.tables[w.app]->translate(va).physAddr;
                    trace.push_back({w.app, w.sm, in.isStore, va, pa});
                }
            }
        }
        std::vector<std::unordered_set<Addr>> seen(spaces.params.size());
        for (const Access &a : trace) {
            const Addr page = basePageBase(a.va);
            if (seen[a.app].insert(page).second)
                firstTouch.push_back({a.app, page});
        }
    }

    const Cell &cell;
    AddressSpaces spaces;
    std::vector<Access> trace;
    std::vector<Cycles> delays;
    /** Distinct pages in first-touch order: demand paging's order. */
    std::vector<std::pair<AppId, Addr>> firstTouch;
};

/** Calls per timed batch of the layer pass. */
struct LayerSizes
{
    unsigned batches;
    unsigned mmBatches;
    std::uint64_t spineCalls;  ///< event-driven calls (µs-scale)
    std::uint64_t fastCalls;   ///< functional calls (ns-scale)
    std::uint64_t dramDepth;   ///< requests queued before draining
    std::uint64_t churnEvents;
};

constexpr LayerSizes kLayerSizes{32, 8, 8192, 65536, 1024, 64};
constexpr LayerSizes kSmokeLayerSizes{2, 1, 256, 1024, 64, 2};

/** Times batches of calls into one layer function and keeps each
 *  batch as a span under the open phase. */
class LayerTimer
{
  public:
    LayerTimer(SpanLog &log, std::string workload)
        : log_(log), workload_(std::move(workload))
    {
    }

    /** Closes the open phase and opens @p layer's. */
    void
    phase(const std::string &layer)
    {
        close();
        phase_ = workload_ + "/" + layer;
        phaseStart_ = log_.now();
    }

    void
    close()
    {
        if (!phase_.empty())
            log_.add(phase_, "", phaseStart_, log_.now(), 0);
        phase_.clear();
    }

    /** Untimed preparation inside the phase, kept as its own span. */
    template <typename Fn>
    void
    prepare(Fn &&fn)
    {
        const std::uint64_t start = log_.now();
        fn();
        log_.add("setup", phase_, start, log_.now(), 0);
    }

    /**
     * Runs body(batch) for @p batches batches; each returns the calls
     * it made into @p fn. Records the median picoseconds per call.
     */
    template <typename Body>
    void
    time(const std::string &fn, unsigned batches, Body &&body)
    {
        std::vector<std::uint64_t> ps;
        for (unsigned b = 0; b < batches; ++b) {
            const std::uint64_t start = log_.now();
            const std::uint64_t calls = body(b);
            const std::uint64_t end = log_.now();
            log_.add(fn, phase_, start, end, calls);
            if (calls > 0)
                ps.push_back((end - start) * 1000 / calls);
        }
        record(fn, median(ps));
    }

    void
    record(const std::string &fn, std::uint64_t psPerCall)
    {
        results_.emplace_back(fn, psPerCall);
    }

    const std::vector<std::pair<std::string, std::uint64_t>> &
    results() const
    {
        return results_;
    }

  private:
    SpanLog &log_;
    std::string workload_;
    std::string phase_;
    std::uint64_t phaseStart_ = 0;
    std::vector<std::pair<std::string, std::uint64_t>> results_;
};

/**
 * Event-engine replay: a queue held at the depth a full GPU keeps
 * (SMs x warps x 2); each dispatched event schedules its successor
 * after the next delay of the cell's instruction stream, so one call
 * is one schedule plus one dispatch.
 */
class EventChain
{
  public:
    explicit EventChain(const ReplayCell &rc) : delays_(rc.delays)
    {
        const SimConfig &c = rc.cell.config;
        const std::size_t depth =
            std::size_t(c.gpu.numSms) * c.gpu.sm.warpsPerSm * 2;
        ev_.reserve(depth + 16);
        for (std::size_t i = 0; i < depth; ++i)
            ev_.schedule(nextDelay(), [this] { tick(); });
    }

    EventChain(const EventChain &) = delete;
    EventChain &operator=(const EventChain &) = delete;

    /** Dispatches @p calls events; returns how many ran. */
    std::uint64_t
    run(std::uint64_t calls)
    {
        const std::uint64_t start = fired_;
        while (fired_ - start < calls && ev_.runOne()) {
        }
        return fired_ - start;
    }

  private:
    Cycles
    nextDelay()
    {
        const Cycles d = delays_[next_];
        next_ = next_ + 1 == delays_.size() ? 0 : next_ + 1;
        return d;
    }

    void
    tick()
    {
        ++fired_;
        ev_.scheduleAfter(nextDelay(), [this] { tick(); });
    }

    const std::vector<Cycles> &delays_;
    EventQueue ev_;
    std::size_t next_ = 0;
    std::uint64_t fired_ = 0;
};

/** The event-driven memory layers of one cell: translation spine,
 *  caches and DRAM on a private queue. */
struct Spine
{
    explicit Spine(const SimConfig &c)
        : dram(ev, c.dram), caches(ev, dram, cacheConfig(c)),
          walker(ev, caches, c.walker),
          xlate(ev, walker, c.gpu.numSms, c.translation)
    {
    }

    static CacheHierarchyConfig
    cacheConfig(const SimConfig &c)
    {
        CacheHierarchyConfig cc = c.caches;
        cc.numSms = c.gpu.numSms;
        return cc;
    }

    EventQueue ev;
    DramModel dram;
    CacheHierarchy caches;
    PageTableWalker walker;
    TranslationService xlate;
};

/** Layer pass over @p cells; returns fn -> picoseconds per call. */
std::vector<std::pair<std::string, std::uint64_t>>
layerPass(const Batch &b, const std::vector<std::unique_ptr<ReplayCell>> &cells,
          SpanLog &log, const LayerSizes &z)
{
    LayerTimer t(log, b.name);
    // Batch i replays cell i mod cells: every cell, in equal shares.
    const auto cell = [&cells](unsigned batch) -> const ReplayCell & {
        return *cells[batch % cells.size()];
    };
    // Trace position per cell, so successive batches continue the
    // stream instead of replaying its warm start.
    std::vector<std::size_t> pos(cells.size(), 0);
    const auto next = [&](unsigned batch) -> const Access & {
        std::size_t &p = pos[batch % cells.size()];
        const std::vector<Access> &trace = cell(batch).trace;
        const Access &a = trace[p];
        p = p + 1 == trace.size() ? 0 : p + 1;
        return a;
    };
    std::vector<std::unique_ptr<Spine>> spines;
    const auto fresh_spines = [&] {
        spines.clear();
        std::fill(pos.begin(), pos.end(), 0);
        for (const auto &rc : cells)
            spines.push_back(std::make_unique<Spine>(rc->cell.config));
    };
    const auto spine = [&](unsigned batch) -> Spine & {
        return *spines[batch % cells.size()];
    };

    t.phase("engine");
    std::vector<std::unique_ptr<EventChain>> chains;
    t.prepare([&] {
        for (unsigned batch = 0; batch < z.batches; ++batch)
            chains.push_back(std::make_unique<EventChain>(cell(batch)));
    });
    t.time("engine.dispatch", z.batches, [&](unsigned batch) {
        return chains[batch]->run(z.fastCalls);
    });
    chains.clear();

    t.phase("workload");
    std::vector<Streams> streams;
    t.prepare([&] {
        for (unsigned batch = 0; batch < z.batches; ++batch)
            streams.emplace_back(cell(batch).cell.config,
                                 cell(batch).spaces);
    });
    t.time("workload.stream", z.batches, [&](unsigned batch) {
        // Round-robin over the warps, as SMs interleave them.
        std::vector<Streams::Warp> &warps = streams[batch].warps;
        WarpInstr in;
        std::uint64_t calls = 0;
        for (std::size_t w = 0;
             calls < z.fastCalls && warps[w].stream->next(in);
             w = w + 1 == warps.size() ? 0 : w + 1)
            ++calls;
        return calls;
    });
    streams.clear();

    t.phase("vm");
    t.prepare(fresh_spines);
    t.time("vm.translate", z.batches, [&](unsigned batch) {
        const ReplayCell &rc = cell(batch);
        Spine &sp = spine(batch);
        for (std::uint64_t i = 0; i < z.spineCalls; ++i) {
            const Access &a = next(batch);
            sp.xlate.translate(a.sm, *rc.spaces.tables[a.app], a.va,
                               [](const Translation &) {});
        }
        sp.ev.runAll();
        return z.spineCalls;
    });
    // translate() and walkPath() live in page_table.cc, so the calls
    // stay even though their results are dropped.
    t.time("vm.pt_translate", z.batches, [&](unsigned batch) {
        const ReplayCell &rc = cell(batch);
        for (std::uint64_t i = 0; i < z.fastCalls; ++i) {
            const Access &a = next(batch);
            rc.spaces.tables[a.app]->translate(a.va);
        }
        return z.fastCalls;
    });
    t.time("vm.walk_path", z.batches, [&](unsigned batch) {
        const ReplayCell &rc = cell(batch);
        for (std::uint64_t i = 0; i < z.fastCalls; ++i) {
            const Access &a = next(batch);
            rc.spaces.tables[a.app]->walkPath(a.va);
        }
        return z.fastCalls;
    });

    t.phase("cache");
    t.prepare(fresh_spines);
    t.time("cache.access", z.batches, [&](unsigned batch) {
        Spine &sp = spine(batch);
        for (std::uint64_t i = 0; i < z.spineCalls; ++i) {
            const Access &a = next(batch);
            sp.caches.access(a.sm, a.pa, a.store, [] {});
        }
        sp.ev.runAll();
        return z.spineCalls;
    });

    t.phase("dram");
    t.prepare(fresh_spines);
    t.time("dram.request", z.batches, [&](unsigned batch) {
        Spine &sp = spine(batch);
        for (std::uint64_t i = 0; i < z.dramDepth; ++i) {
            const Access &a = next(batch);
            sp.dram.access(a.pa, a.store, [] {});
        }
        sp.ev.runAll();
        return z.dramDepth;
    });
    spines.clear();

    t.phase("mm");
    std::vector<std::unique_ptr<AddressSpaces>> rigs;
    t.prepare([&] {
        for (unsigned batch = 0; batch < z.mmBatches; ++batch)
            rigs.push_back(
                std::make_unique<AddressSpaces>(cell(batch).cell, false));
    });
    t.time("mm.back_page", z.mmBatches, [&](unsigned batch) {
        AddressSpaces &as = *rigs[batch];
        std::uint64_t calls = 0;
        for (const auto &[app, page] : cell(batch).firstTouch) {
            as.manager->backPage(app, page);
            ++calls;
        }
        return calls;
    });

    // Churn replay, as runSimulation's churn tick: release a buffer and
    // reserve it again at a fresh virtual address, then release a slice
    // of another buffer. The replaced buffer is backed again between
    // events (demand paging would), outside both timers.
    t.prepare([&] {
        rigs.clear();
        for (unsigned batch = 0; batch < z.mmBatches; ++batch)
            rigs.push_back(
                std::make_unique<AddressSpaces>(cell(batch).cell, true));
    });
    std::vector<std::uint64_t> reserve_ps, release_ps;
    t.time("mm.churn", z.mmBatches, [&](unsigned batch) {
        AddressSpaces &as = *rigs[batch];
        Rng rng(as.config.seed * 31 + 7);
        std::vector<Addr> next_va;
        for (std::size_t i = 0; i < as.params.size(); ++i)
            next_va.push_back(((static_cast<Addr>(i) + 1) << 40) +
                              (1ull << 39));
        std::uint64_t reserve_ns = 0, release_ns = 0, releases = 0;
        const auto timed = [](auto &&fn) {
            const Clock::time_point t0 = Clock::now();
            fn();
            return nsBetween(t0, Clock::now());
        };
        for (std::uint64_t e = 0; e < z.churnEvents; ++e) {
            const auto app = static_cast<AppId>(rng.below(as.params.size()));
            AppLayout &layout = *as.layouts[app];
            const std::size_t victim = rng.below(layout.buffers().size());
            const AppLayout::Buffer buf = layout.buffers()[victim];
            const Addr new_va = next_va[app];
            next_va[app] +=
                roundUp(buf.bytes, kLargePageSize) + kLargePageSize;

            release_ns += timed(
                [&] { as.manager->releaseRegion(app, buf.va, buf.bytes); });
            ++releases;
            layout.rebaseBuffer(victim, new_va);
            reserve_ns += timed(
                [&] { as.manager->reserveRegion(app, new_va, buf.bytes); });
            as.backRange(app, new_va, buf.touchedBytes);

            const AppLayout::Buffer frag =
                layout.buffers()[rng.below(layout.buffers().size())];
            const std::uint64_t slice = roundUp(
                static_cast<std::uint64_t>(double(frag.bytes) *
                                           as.config.churn.releaseFraction),
                kBasePageSize);
            if (slice < frag.bytes) {
                const Addr at =
                    frag.va +
                    roundDown(rng.below(frag.bytes - slice), kBasePageSize);
                release_ns += timed(
                    [&] { as.manager->releaseRegion(app, at, slice); });
                ++releases;
            }
        }
        reserve_ps.push_back(reserve_ns * 1000 / z.churnEvents);
        release_ps.push_back(release_ns * 1000 / releases);
        return z.churnEvents;
    });
    t.record("mm.reserve_region", median(reserve_ps));
    t.record("mm.release_region", median(release_ps));
    t.close();
    return t.results();
}

int
layersMode(const Batch &b, std::uint64_t seed, const std::string &traceOut,
           const std::vector<std::uint64_t> &memoryDelays, bool smoke)
{
    const LayerSizes &z = smoke ? kSmokeLayerSizes : kLayerSizes;
    SpanLog log(true);

    const std::uint64_t build_start = log.now();
    std::vector<std::unique_ptr<ReplayCell>> cells;
    for (std::size_t i = 0; i < b.cells.size(); ++i)
        cells.push_back(
            std::make_unique<ReplayCell>(b.cells[i], memoryDelays[i]));
    log.add(b.name + "/replay_setup", "", build_start, log.now(),
            cells.size());

    // Tracing overhead: the same pass with spans off, then on, after a
    // discarded pass that warms caches and the allocator.
    SpanLog off(false);
    layerPass(b, cells, off, z);
    const auto untraced = layerPass(b, cells, off, z);
    const auto results = layerPass(b, cells, log, z);
    cells.clear();

    // The checker is observation-only: cell 0 under it must reproduce
    // the digest of the timed run.
    Cell checked = b.cells.front();
    checked.config = checked.config.withInvariantChecks();
    const CellRun check = runCell(checked, b.shards, 0);

    // Engine profile for workloads timed on the default engine: their
    // small cell on the sharded engine at 1 and at 2 workers.
    std::vector<CellRun> probe;
    if (b.shards == 0) {
        const Cell small = makeBatch(b.name, seed, true).cells.front();
        probe.push_back(runCell(small, 1, 0));
        probe.push_back(runCell(small, shardedWorkers(), 0));
    }

    const bool wrote = log.write(traceOut);

    JsonWriter w;
    w.beginObject();
    w.field("workload", b.name);
    w.key("ps_per_call").beginObject();
    for (const auto &[fn, ps] : results)
        w.field(fn, ps);
    w.endObject();
    w.key("ps_per_call_untraced").beginObject();
    for (const auto &[fn, ps] : untraced)
        w.field(fn, ps);
    w.endObject();
    w.field("spans", log.size());
    w.field("trace_written", wrote);
    w.field("check_digest", hex(check.digest));
    w.field("check_failure", check.failure);
    if (!probe.empty()) {
        w.key("probe").beginObject();
        w.field("n1_wall_ns", probe[0].wallNs);
        w.field("digests_equal", probe[0].digest == probe[1].digest);
        w.key("engine");
        writeEngineProfile(w, {probe[1]});
        w.endObject();
    }
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: mosaic_perf run --workload W --seed N --seconds S "
                 "[--smoke]\n"
                 "       mosaic_perf layers --workload W --seed N "
                 "--trace-out PATH --memory-delays C0,C1,... [--smoke]\n"
                 "workloads: het_mosaic walk_gpummu churn_cac "
                 "het_sharded\n");
    return 2;
}

/** Parses @p value, a comma-separated list of cycle counts. */
bool
parseDelays(const std::string &value, std::vector<std::uint64_t> *out)
{
    std::size_t start = 0;
    while (true) {
        const std::size_t comma = value.find(',', start);
        const std::string item = value.substr(start, comma - start);
        std::uint64_t cycles = 0;
        if (!parseFlagU64("--memory-delays", item.c_str(), 0, 1ull << 20,
                          &cycles))
            return false;
        out->push_back(cycles);
        if (comma == std::string::npos)
            return true;
        start = comma + 1;
    }
}

}  // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    std::string workload, trace_out;
    std::vector<std::uint64_t> memory_delays;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool smoke = false;
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            smoke = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::fprintf(stderr, "flag %s requires a value\n", flag.c_str());
            return 2;
        }
        const char *value = argv[++i];
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--trace-out") {
            trace_out = value;
        } else if (flag == "--memory-delays") {
            if (!parseDelays(value, &memory_delays))
                return 2;
        } else if (flag == "--seed") {
            if (!parseFlagU64("--seed", value, 0, 1ull << 40, &seed))
                return 2;
        } else if (flag == "--seconds") {
            if (!parseFlagF64("--seconds", value, 0.0, 3600.0, &seconds))
                return 2;
        } else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            return usage();
        }
    }
    const Batch batch = makeBatch(workload, seed, smoke);
    if (batch.cells.empty()) {
        std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
        return usage();
    }
    if (mode == "run")
        return runMode(batch, seconds, smoke);
    if (mode == "layers" && !trace_out.empty() &&
        memory_delays.size() == batch.cells.size())
        return layersMode(batch, seed, trace_out, memory_delays, smoke);
    return usage();
}
