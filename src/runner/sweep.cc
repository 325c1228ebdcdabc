#include "runner/sweep.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/json_writer.h"
#include "common/log.h"

namespace mosaic {

namespace {

std::int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Live SweepRunner worker threads (see activeSweepThreads()). */
std::atomic<unsigned> g_activeSweepThreads{0};

}  // namespace

unsigned
activeSweepThreads()
{
    return g_activeSweepThreads.load(std::memory_order_relaxed);
}

unsigned
SweepRunner::jobsFromEnv()
{
    if (const char *env = std::getenv("MOSAIC_BENCH_JOBS")) {
        char *end = nullptr;
        const long parsed = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && parsed > 0)
            return static_cast<unsigned>(parsed);
        // Every SweepRunner construction re-reads the environment; one
        // report of the bad value is enough.
        MOSAIC_WARN_ONCE(std::string("ignoring invalid MOSAIC_BENCH_JOBS='") +
                         env + "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned threads)
    : threads_(threads > 0 ? threads : jobsFromEnv())
{
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    g_activeSweepThreads.fetch_add(threads_, std::memory_order_relaxed);
}

SweepRunner::~SweepRunner()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workReady_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
    g_activeSweepThreads.fetch_sub(threads_, std::memory_order_relaxed);
}

std::future<SimResult>
SweepRunner::submitSimulation(Workload workload, SimConfig config,
                              std::string label)
{
    if (label.empty())
        label = workload.name + "/" + config.label;
    return submit(
        [workload = std::move(workload), config = std::move(config)] {
            return runSimulation(workload, config);
        },
        std::move(label));
}

void
SweepRunner::enqueue(std::function<void()> run, std::string label)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        MOSAIC_ASSERT(!stopping_, "submit on a destroyed SweepRunner");
        const std::size_t index = submitted_++;
        if (index == 0)
            firstSubmitNs_ = steadyNowNs();
        jobStats_.push_back(SweepJobStats{index, label, 0.0});
        queue_.push_back(Job{index, std::move(label), std::move(run)});
    }
    workReady_.notify_one();
}

void
SweepRunner::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock,
                            [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return;  // stopping_ and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        const std::int64_t start = steadyNowNs();
        job.run();  // exceptions land in the job's future
        const std::int64_t end = steadyNowNs();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            jobStats_[job.index].wallSeconds =
                double(end - start) * 1e-9;
            lastCompleteNs_ = end;
            ++completed_;
        }
        allDone_.notify_all();
    }
}

void
SweepRunner::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return completed_ == submitted_; });
}

std::size_t
SweepRunner::jobsSubmitted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return submitted_;
}

std::size_t
SweepRunner::jobsCompleted() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return completed_;
}

SweepStats
SweepRunner::stats()
{
    wait();
    std::lock_guard<std::mutex> lock(mutex_);
    SweepStats s;
    s.threads = threads_;
    s.jobs = completed_;
    s.perJob = jobStats_;
    for (const SweepJobStats &job : s.perJob)
        s.sumJobSeconds += job.wallSeconds;
    if (completed_ > 0)
        s.totalWallSeconds = double(lastCompleteNs_ - firstSubmitNs_) * 1e-9;
    if (s.totalWallSeconds > 0.0)
        s.parallelism = s.sumJobSeconds / s.totalWallSeconds;
    return s;
}

std::string
toJson(const SweepStats &stats, const std::string &benchName)
{
    JsonWriter w;
    w.beginObject();
    w.field("bench", benchName);
    w.field("threads", stats.threads);
    w.field("jobs", stats.jobs);
    w.field("totalWallSeconds", stats.totalWallSeconds);
    w.field("sumJobSeconds", stats.sumJobSeconds);
    w.field("parallelism", stats.parallelism);
    w.key("perJob").beginArray();
    for (const SweepJobStats &job : stats.perJob) {
        w.beginObject();
        w.field("index", job.index);
        w.field("label", job.label);
        w.field("wallSeconds", job.wallSeconds);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

void
appendSweepJson(SweepRunner &runner, const std::string &benchName,
                const std::string &path)
{
    const SweepStats stats = runner.stats();
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (f == nullptr) {
        MOSAIC_WARN("cannot open " + path + " for append");
        return;
    }
    const std::string line = toJson(stats, benchName);
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
    std::fprintf(stderr,
                 "sweep: %s ran %zu jobs on %u thread(s): "
                 "%.2fs wall, %.2fs serial-equivalent (parallelism %.2f)\n",
                 benchName.c_str(), stats.jobs, stats.threads,
                 stats.totalWallSeconds, stats.sumJobSeconds,
                 stats.parallelism);
}

}  // namespace mosaic
