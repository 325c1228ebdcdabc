/**
 * @file
 * Parallel sweep execution for the benchmark harnesses.
 *
 * Every figure/table bench runs dozens to hundreds of fully independent
 * runSimulation() calls; SweepRunner fans them out over a fixed thread
 * pool so sweep wall-clock scales with the host's core count instead of
 * the sum of simulation times.
 *
 * Determinism contract: results are keyed by *submission index*, never
 * by completion order. A sweep that submits jobs j0..jN and reads the
 * futures in submission order produces output that is byte-identical
 * whether the pool has 1 thread or 64 -- each job is a pure function of
 * its inputs (one simulation == one EventQueue == one thread; see
 * DESIGN.md, "Thread-safety contract").
 *
 * Thread count: the MOSAIC_BENCH_JOBS environment variable, defaulting
 * to std::thread::hardware_concurrency().
 */

#ifndef MOSAIC_RUNNER_SWEEP_H
#define MOSAIC_RUNNER_SWEEP_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "runner/sim_config.h"
#include "runner/simulation.h"
#include "workload/workload.h"

namespace mosaic {

/** Wall-clock record of one sweep job, in submission order. */
struct SweepJobStats
{
    std::size_t index = 0;     ///< submission index
    std::string label;         ///< caller-supplied tag ("" if none)
    double wallSeconds = 0.0;  ///< execution time on its worker thread
};

/** Aggregate timing of a finished (or drained) sweep. */
struct SweepStats
{
    unsigned threads = 0;
    std::size_t jobs = 0;
    double totalWallSeconds = 0.0;  ///< first submit -> last completion
    double sumJobSeconds = 0.0;     ///< serial-equivalent work
    /**
     * sumJobSeconds / totalWallSeconds: the average number of jobs in
     * flight. Not a speedup -- under time-slicing each job's wall time
     * inflates, so this can exceed 1 while total wall time rises.
     */
    double parallelism = 0.0;
    std::vector<SweepJobStats> perJob;  ///< submission order
};

/**
 * Fixed-size thread pool executing submitted jobs.
 *
 * Jobs run in FIFO submission order (a 1-thread pool is exactly the
 * serial loop); futures deliver results keyed to the submission site.
 */
class SweepRunner
{
  public:
    /**
     * @param threads worker count; 0 means jobsFromEnv().
     */
    explicit SweepRunner(unsigned threads = 0);

    /** Drains remaining jobs, then joins the workers. */
    ~SweepRunner();

    SweepRunner(const SweepRunner &) = delete;
    SweepRunner &operator=(const SweepRunner &) = delete;

    /**
     * Worker count from the environment: MOSAIC_BENCH_JOBS if set to a
     * positive integer, else hardware_concurrency() (min 1).
     */
    static unsigned jobsFromEnv();

    /** Number of worker threads in this pool. */
    unsigned threads() const { return threads_; }

    /**
     * Submits @p fn; returns a future for its result. @p label tags the
     * job in the per-job stats (and BENCH_sweep.json).
     */
    template <typename Fn>
    auto
    submit(Fn fn, std::string label = {})
        -> std::future<std::invoke_result_t<Fn &>>
    {
        using R = std::invoke_result_t<Fn &>;
        auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
        std::future<R> future = task->get_future();
        enqueue([task] { (*task)(); }, std::move(label));
        return future;
    }

    /** Submits one simulation run (captures both arguments by value). */
    std::future<SimResult> submitSimulation(Workload workload,
                                            SimConfig config,
                                            std::string label = {});

    /** Blocks until every job submitted so far has completed. */
    void wait();

    /** Jobs submitted so far. */
    std::size_t jobsSubmitted() const;

    /** Jobs completed so far. */
    std::size_t jobsCompleted() const;

    /**
     * Timing snapshot (waits for in-flight jobs first). Per-job entries
     * are in submission order regardless of completion order.
     */
    SweepStats stats();

  private:
    struct Job
    {
        std::size_t index;
        std::string label;
        std::function<void()> run;
    };

    void enqueue(std::function<void()> run, std::string label);
    void workerLoop();

    unsigned threads_ = 1;
    std::vector<std::thread> workers_;

    mutable std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::deque<Job> queue_;
    bool stopping_ = false;
    std::size_t submitted_ = 0;
    std::size_t completed_ = 0;
    std::vector<SweepJobStats> jobStats_;  ///< indexed by submission index
    /** Steady-clock anchor of the first submission (ns since epoch). */
    std::int64_t firstSubmitNs_ = 0;
    std::int64_t lastCompleteNs_ = 0;
};

/**
 * Total worker threads across every live SweepRunner in this process
 * (0 when no pool exists). runSimulation() consults this to share one
 * core budget between the two parallelism layers: when a sweep pool is
 * fanning out simulations, each simulation's sharded-engine worker
 * count is clamped so jobs x shards stays within the machine. The
 * sweep pool takes precedence -- independent simulations scale better
 * than intra-simulation shards -- and a sharded config is never
 * degraded to the serial engine (the clamp floors at 1 worker), since
 * serial vs sharded is a distinct timing model (DESIGN.md §12).
 */
unsigned activeSweepThreads();

/**
 * Maps @p items through @p fn on the pool and returns the results in
 * item order. Blocks until all are done. The items vector must outlive
 * the call (it does: the call blocks).
 */
template <typename Item, typename Fn>
auto
mapOrdered(SweepRunner &runner, const std::vector<Item> &items, Fn fn)
    -> std::vector<std::invoke_result_t<Fn &, const Item &>>
{
    using R = std::invoke_result_t<Fn &, const Item &>;
    std::vector<std::future<R>> futures;
    futures.reserve(items.size());
    for (const Item &item : items)
        futures.push_back(runner.submit([&fn, &item] { return fn(item); }));
    std::vector<R> results;
    results.reserve(items.size());
    for (std::future<R> &f : futures)
        results.push_back(f.get());
    return results;
}

/**
 * Appends one JSON-lines record of @p runner's timing to @p path
 * (default BENCH_sweep.json), tagged with @p benchName. One line per
 * bench run keeps the file appendable and trivially machine-readable:
 *   {"bench":"fig09_heterogeneous","threads":8,"jobs":120,
 *    "totalWallSeconds":12.3,"sumJobSeconds":88.1,"parallelism":7.2,
 *    "perJob":[{"index":0,"label":"...","wallSeconds":0.7},...]}
 */
void appendSweepJson(SweepRunner &runner, const std::string &benchName,
                     const std::string &path = "BENCH_sweep.json");

/** Serializes a SweepStats record (used by appendSweepJson). */
std::string toJson(const SweepStats &stats, const std::string &benchName);

}  // namespace mosaic

#endif  // MOSAIC_RUNNER_SWEEP_H
