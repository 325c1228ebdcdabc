/**
 * @file
 * Hierarchical metrics registry: the simulator's observability spine.
 *
 * One StatsRegistry per simulation (see DESIGN.md §7 and §8): components
 * register their counters under dotted paths ("vm.tlb.l1.base.hits",
 * "dram.rowMisses", "mm.coalesceOps") at construction, and the runner
 * takes MetricsSnapshot values at harvest time (and, opt-in, on a fixed
 * cycle interval). Registration is allocation-cheap and the hot path is
 * untouched: existing components keep their plain `struct Stats`
 * aggregates and *bind* those fields into the registry by address, so an
 * increment stays a single integer add. Snapshots read through the
 * bindings only when requested.
 *
 * Two registration styles coexist:
 *  - bindCounter/bindGauge/bindHistogram wrap an existing field of a
 *    component's private Stats struct (the thin-wrapper migration path);
 *  - counter()/gauge()/histogram() return registry-owned handles for
 *    new metrics that do not need a legacy struct at all.
 * Dynamic, label-carrying families whose members are only known at
 * runtime (per-app breakdowns) register a provider that emits values at
 * snapshot time.
 *
 * Thread-safety: a registry belongs to exactly one simulation and is
 * accessed from that simulation's single thread only; it contains no
 * shared mutable globals, so sweeps stay race-free under TSan.
 */

#ifndef MOSAIC_COMMON_STATS_REGISTRY_H
#define MOSAIC_COMMON_STATS_REGISTRY_H

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/stats.h"
#include "common/types.h"

namespace mosaic {

/** Label set attached to a metric ({{"app","0"}} and the like). */
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

/** Registry-owned monotonic counter handle. */
class Counter
{
  public:
    void add(std::uint64_t n = 1) { v_ += n; }

    Counter &
    operator++()
    {
        ++v_;
        return *this;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        v_ += n;
        return *this;
    }

    std::uint64_t value() const { return v_; }

    /** Address of the underlying cell (registry binding). */
    const std::uint64_t *cell() const { return &v_; }

  private:
    std::uint64_t v_ = 0;
};

/** Registry-owned point-in-time value handle. */
class Gauge
{
  public:
    void set(double v) { v_ = v; }

    double value() const { return v_; }

    /** Address of the underlying cell (registry binding). */
    const double *cell() const { return &v_; }

  private:
    double v_ = 0.0;
};

/** One sampled metric value inside a snapshot. */
struct MetricValue
{
    std::string path;     ///< dotted name ("vm.walker.walks")
    MetricLabels labels;  ///< optional ({{"app","0"}})
    bool integer = true;  ///< counter (u) vs gauge (d)
    std::uint64_t u = 0;
    double d = 0.0;

    /** Rendered lookup key: path, plus "{k=v,...}" when labeled. */
    std::string
    key() const
    {
        if (labels.empty())
            return path;
        std::string out = path + "{";
        for (std::size_t i = 0; i < labels.size(); ++i) {
            if (i > 0)
                out += ',';
            out += labels[i].first + "=" + labels[i].second;
        }
        out += '}';
        return out;
    }

    /** The value as a double regardless of kind. */
    double asReal() const { return integer ? double(u) : d; }
};

/** Point-in-time capture of every registered metric, sorted by key. */
struct MetricsSnapshot
{
    Cycles atCycle = 0;
    std::vector<MetricValue> values;

    /** Entry by rendered key, or nullptr. */
    const MetricValue *
    find(const std::string &key) const
    {
        const auto it = std::lower_bound(
            values.begin(), values.end(), key,
            [](const MetricValue &v, const std::string &k) {
                return v.key() < k;
            });
        if (it == values.end() || it->key() != key)
            return nullptr;
        return &*it;
    }

    bool has(const std::string &key) const { return find(key) != nullptr; }

    /** Integer value of @p key (0 when absent). */
    std::uint64_t
    u64(const std::string &key) const
    {
        const MetricValue *v = find(key);
        return v == nullptr ? 0 : v->u;
    }

    /** Numeric value of @p key as a double (0.0 when absent). */
    double
    real(const std::string &key) const
    {
        const MetricValue *v = find(key);
        return v == nullptr ? 0.0 : v->asReal();
    }

    /** Emits this snapshot as one flat JSON object keyed by key(). */
    void
    writeJson(JsonWriter &w) const
    {
        w.beginObject();
        for (const MetricValue &v : values) {
            w.key(v.key());
            if (v.integer)
                w.value(v.u);
            else
                w.value(v.d);
        }
        w.endObject();
    }

    std::string
    toJson() const
    {
        JsonWriter w;
        writeJson(w);
        return w.str();
    }
};

/** The per-simulation metric registry. */
class StatsRegistry
{
  public:
    /** Emission surface handed to dynamic providers at snapshot time. */
    class Sink
    {
      public:
        explicit Sink(std::vector<MetricValue> &out) : out_(out) {}

        void
        counter(const std::string &path, const MetricLabels &labels,
                std::uint64_t v)
        {
            out_.push_back({path, labels, true, v, 0.0});
        }

        void
        gauge(const std::string &path, const MetricLabels &labels, double v)
        {
            out_.push_back({path, labels, false, 0, v});
        }

      private:
        std::vector<MetricValue> &out_;
    };

    using Provider = std::function<void(Sink &)>;

    /** Creates (and registers) an owned counter under @p path. */
    Counter &
    counter(const std::string &path, const MetricLabels &labels = {})
    {
        ownedCounters_.emplace_back();
        bindCounter(path, *ownedCounters_.back().cell(), labels);
        return ownedCounters_.back();
    }

    /** Creates (and registers) an owned gauge under @p path. */
    Gauge &
    gauge(const std::string &path, const MetricLabels &labels = {})
    {
        ownedGauges_.emplace_back();
        Entry e;
        e.kind = Entry::Kind::BoundGauge;
        e.path = path;
        e.labels = labels;
        e.f64 = ownedGauges_.back().cell();
        entries_.push_back(std::move(e));
        return ownedGauges_.back();
    }

    /** Creates (and registers) an owned histogram under @p path. */
    Histogram &
    histogram(const std::string &path, std::uint64_t width = 64,
              std::size_t buckets = 64, const MetricLabels &labels = {})
    {
        ownedHistograms_.emplace_back(width, buckets);
        bindHistogram(path, ownedHistograms_.back(), labels);
        return ownedHistograms_.back();
    }

    /** Registers @p field (a legacy Stats member) under @p path. */
    void
    bindCounter(const std::string &path, const std::uint64_t &field,
                const MetricLabels &labels = {})
    {
        Entry e;
        e.kind = Entry::Kind::BoundCounter;
        e.path = path;
        e.labels = labels;
        e.u64 = &field;
        entries_.push_back(std::move(e));
    }

    /** Registers a computed counter (aggregates, peaks). */
    void
    bindCounterFn(const std::string &path, std::function<std::uint64_t()> fn,
                  const MetricLabels &labels = {})
    {
        Entry e;
        e.kind = Entry::Kind::CounterFn;
        e.path = path;
        e.labels = labels;
        e.uFn = std::move(fn);
        entries_.push_back(std::move(e));
    }

    /** Registers a computed gauge. */
    void
    bindGaugeFn(const std::string &path, std::function<double()> fn,
                const MetricLabels &labels = {})
    {
        Entry e;
        e.kind = Entry::Kind::GaugeFn;
        e.path = path;
        e.labels = labels;
        e.dFn = std::move(fn);
        entries_.push_back(std::move(e));
    }

    /**
     * Registers @p hist; snapshots explode it into <path>.samples,
     * .mean, .max, .p50, and .p95 scalar entries.
     */
    void
    bindHistogram(const std::string &path, const Histogram &hist,
                  const MetricLabels &labels = {})
    {
        Entry e;
        e.kind = Entry::Kind::Hist;
        e.path = path;
        e.labels = labels;
        e.hist = &hist;
        entries_.push_back(std::move(e));
    }

    /**
     * Registers a dynamic metric family. The provider runs at snapshot
     * time and must emit deterministically (sort any map it iterates).
     */
    void addProvider(Provider fn) { providers_.push_back(std::move(fn)); }

    /** Number of registered entries (providers count as one). */
    std::size_t
    entryCount() const
    {
        return entries_.size() + providers_.size();
    }

    /** Captures every metric's current value, sorted by rendered key. */
    MetricsSnapshot
    snapshot(Cycles atCycle = 0) const
    {
        MetricsSnapshot snap;
        snap.atCycle = atCycle;
        snap.values.reserve(entries_.size() + 4);
        for (const Entry &e : entries_) {
            switch (e.kind) {
            case Entry::Kind::BoundCounter:
                snap.values.push_back({e.path, e.labels, true, *e.u64, 0.0});
                break;
            case Entry::Kind::BoundGauge:
                snap.values.push_back({e.path, e.labels, false, 0, *e.f64});
                break;
            case Entry::Kind::CounterFn:
                snap.values.push_back({e.path, e.labels, true, e.uFn(), 0.0});
                break;
            case Entry::Kind::GaugeFn:
                snap.values.push_back({e.path, e.labels, false, 0, e.dFn()});
                break;
            case Entry::Kind::Hist:
                snap.values.push_back(
                    {e.path + ".samples", e.labels, true, e.hist->samples(),
                     0.0});
                snap.values.push_back(
                    {e.path + ".mean", e.labels, false, 0, e.hist->mean()});
                snap.values.push_back(
                    {e.path + ".max", e.labels, true, e.hist->max(), 0.0});
                snap.values.push_back({e.path + ".p50", e.labels, false, 0,
                                       e.hist->percentile(50)});
                snap.values.push_back({e.path + ".p95", e.labels, false, 0,
                                       e.hist->percentile(95)});
                break;
            }
        }
        Sink sink(snap.values);
        for (const Provider &p : providers_)
            p(sink);
        // Render every key once, then sort positions by it: the same
        // comparison outcomes as comparing key() pairs, hence the same
        // permutation, without two string builds per comparison.
        std::vector<std::string> keys;
        keys.reserve(snap.values.size());
        for (const MetricValue &v : snap.values)
            keys.push_back(v.key());
        std::vector<std::uint32_t> order(snap.values.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&keys](std::uint32_t a, std::uint32_t b) {
                      return keys[a] < keys[b];
                  });
        std::vector<MetricValue> sorted;
        sorted.reserve(order.size());
        for (const std::uint32_t i : order)
            sorted.push_back(std::move(snap.values[i]));
        snap.values = std::move(sorted);
        return snap;
    }

  private:
    struct Entry
    {
        enum class Kind {
            BoundCounter,
            BoundGauge,
            CounterFn,
            GaugeFn,
            Hist
        } kind = Kind::BoundCounter;
        std::string path;
        MetricLabels labels;
        const std::uint64_t *u64 = nullptr;
        const double *f64 = nullptr;
        const Histogram *hist = nullptr;
        std::function<std::uint64_t()> uFn;
        std::function<double()> dFn;
    };

    std::vector<Entry> entries_;
    std::vector<Provider> providers_;
    // Deques: handle references stay stable as more metrics register.
    std::deque<Counter> ownedCounters_;
    std::deque<Gauge> ownedGauges_;
    std::deque<Histogram> ownedHistograms_;
};

}  // namespace mosaic

#endif  // MOSAIC_COMMON_STATS_REGISTRY_H
