/** @file Tests for table formatting and result reporting helpers. */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/table.h"
#include "runner/json_report.h"
#include "runner/report.h"
#include "runner/simulation.h"
#include "workload/apps.h"

namespace mosaic {
namespace {

/**
 * Tiny recursive-descent JSON syntax checker: enough grammar to verify
 * that every byte of a report parses as one well-formed JSON value.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        i_ = 0;
        if (!value())
            return false;
        ws();
        return i_ == s_.size();
    }

  private:
    void
    ws()
    {
        while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t' ||
                                  s_[i_] == '\n' || s_[i_] == '\r'))
            ++i_;
    }

    bool eat(char c)
    {
        ws();
        if (i_ < s_.size() && s_[i_] == c) {
            ++i_;
            return true;
        }
        return false;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (i_ < s_.size() && s_[i_] != '"') {
            const auto c = static_cast<unsigned char>(s_[i_]);
            if (c < 0x20)
                return false;  // raw control character: invalid JSON
            if (s_[i_] == '\\') {
                ++i_;
                if (i_ >= s_.size())
                    return false;
                const char e = s_[i_];
                if (e == 'u') {
                    for (int k = 0; k < 4; ++k) {
                        ++i_;
                        if (i_ >= s_.size() || !std::isxdigit(
                                static_cast<unsigned char>(s_[i_])))
                            return false;
                    }
                } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                           e != 'f' && e != 'n' && e != 'r' && e != 't') {
                    return false;
                }
            }
            ++i_;
        }
        return i_ < s_.size() && s_[i_++] == '"';
    }

    bool
    number()
    {
        const std::size_t start = i_;
        if (i_ < s_.size() && s_[i_] == '-')
            ++i_;
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                s_[i_] == '+' || s_[i_] == '-'))
            ++i_;
        return i_ > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (s_.compare(i_, n, word) != 0)
            return false;
        i_ += n;
        return true;
    }

    bool
    value()
    {
        ws();
        if (i_ >= s_.size())
            return false;
        const char c = s_[i_];
        if (c == '{') {
            ++i_;
            ws();
            if (eat('}'))
                return true;
            do {
                ws();
                if (!string() || !eat(':') || !value())
                    return false;
            } while (eat(','));
            return eat('}');
        }
        if (c == '[') {
            ++i_;
            ws();
            if (eat(']'))
                return true;
            do {
                if (!value())
                    return false;
            } while (eat(','));
            return eat(']');
        }
        if (c == '"')
            return string();
        if (c == 't')
            return literal("true");
        if (c == 'f')
            return literal("false");
        if (c == 'n')
            return literal("null");
        return number();
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

/** One small, fast, seeded simulation shared by the round-trip tests. */
const SimResult &
miniSimResult()
{
    static const SimResult result = [] {
        Workload w = scaledWorkload(homogeneousWorkload("HISTO", 2), 0.08);
        for (AppParams &a : w.apps)
            a.instrPerWarp = 300;
        SimConfig cfg = SimConfig::mosaicDefault().withIoCompression(16.0);
        cfg.gpu.sm.warpsPerSm = 8;
        cfg.seed = 7;
        return runSimulation(w, cfg);
    }();
    return result;
}

/** Captures a TextTable's print output through a temp file. */
std::string
printed(const TextTable &t)
{
    std::FILE *f = std::tmpfile();
    t.print(f);
    std::fseek(f, 0, SEEK_SET);
    std::string out;
    char buf[256];
    while (std::fgets(buf, sizeof(buf), f) != nullptr)
        out += buf;
    std::fclose(f);
    return out;
}

TEST(TextTableTest, ColumnsAlignAcrossRows)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer-name", "22"});
    const std::string out = printed(t);
    // Every line starts its second column at the same offset.
    const auto header_pos = out.find("value");
    const auto row1_pos = out.find('1', out.find("a\n") != std::string::npos
                                            ? out.find("a\n")
                                            : 0);
    ASSERT_NE(header_pos, std::string::npos);
    (void)row1_pos;
    // The separator line is as wide as the widest row.
    const auto sep_start = out.find("----");
    ASSERT_NE(sep_start, std::string::npos);
}

TEST(TextTableTest, HandlesRaggedRows)
{
    TextTable t;
    t.header({"a"});
    t.row({"1", "2", "3"});
    const std::string out = printed(t);
    EXPECT_NE(out.find('3'), std::string::npos);
}

TEST(TextTableTest, EmptyTablePrintsNothingButHeader)
{
    TextTable t;
    t.header({"only", "header"});
    const std::string out = printed(t);
    EXPECT_NE(out.find("only"), std::string::npos);
}

TEST(TextTableTest, NumberFormatting)
{
    EXPECT_EQ(TextTable::num(3.14159, 0), "3");
    EXPECT_EQ(TextTable::num(3.14159, 4), "3.1416");
    EXPECT_EQ(TextTable::pct(0.123456, 2), "12.35%");
    EXPECT_EQ(TextTable::pct(1.0, 0), "100%");
}

TEST(JsonCheckerTest, AcceptsAndRejects)
{
    EXPECT_TRUE(JsonChecker("{}").valid());
    EXPECT_TRUE(JsonChecker("{\"a\":[1,-2.5e3,\"s\",true,null]}").valid());
    EXPECT_TRUE(JsonChecker("{\"t\":\"a\\tb\\u001f\"}").valid());
    EXPECT_FALSE(JsonChecker("{\"a\":}").valid());
    EXPECT_FALSE(JsonChecker("{\"a\":1,}").valid());
    EXPECT_FALSE(JsonChecker("{} trailing").valid());
    EXPECT_FALSE(JsonChecker(std::string("{\"a\tb\":1}")).valid());
}

TEST(JsonReportTest, EscapesControlCharactersInStrings)
{
    // Pre-refactor each serializer escaped only quotes and backslashes;
    // a workload name with a tab produced unparseable JSON.
    EXPECT_EQ(detail::jsonEscape("a\tb\x01"), "a\\tb\\u0001");
    SimResult r;
    r.workloadName = "tab\there";
    r.configLabel = "quote\"and\\slash";
    EXPECT_TRUE(JsonChecker(toJson(r)).valid());
}

TEST(JsonReportTest, SimResultJsonParses)
{
    const std::string json = toJson(miniSimResult());
    EXPECT_TRUE(JsonChecker(json).valid());
    // The registry section rides along inside the legacy document.
    EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
    EXPECT_NE(json.find("\"vm.walker.walks\":"), std::string::npos);
}

TEST(JsonReportTest, MetricsJsonParsesAndNamesManager)
{
    const std::string json = metricsToJson(miniSimResult(), "Mosaic");
    EXPECT_TRUE(JsonChecker(json).valid());
    EXPECT_NE(json.find("\"manager\":\"Mosaic\""), std::string::npos);
    EXPECT_NE(json.find("\"samples\":["), std::string::npos);
}

TEST(JsonReportTest, RegistrySnapshotMatchesLegacyScalars)
{
    // The legacy SimResult scalars are now *derived from* the registry
    // snapshot; this pins the equivalence on a real seeded simulation.
    const SimResult &r = miniSimResult();
    const MetricsSnapshot &m = r.metrics;
    EXPECT_EQ(m.atCycle, r.totalCycles);
    EXPECT_EQ(m.u64("sim.cycles"), r.totalCycles);
    EXPECT_EQ(m.u64("vm.walker.walks"), r.pageWalks);
    EXPECT_EQ(m.u64("iobus.paging.farFaults"), r.farFaults);
    EXPECT_EQ(m.u64("iobus.paging.bytesTransferred"), r.pagedBytes);
    EXPECT_EQ(m.u64("mm.peakAllocatedBytes"), r.allocatedBytes);
    EXPECT_EQ(m.u64("sim.neededBytes"), r.neededBytes);
    EXPECT_EQ(m.u64("gpu.stallCycles"), r.gpuStallCycles);
    EXPECT_EQ(m.u64("mm.coalesceOps"), r.mm.coalesceOps);
    EXPECT_EQ(m.u64("mm.splinterOps"), r.mm.splinterOps);
    EXPECT_EQ(m.u64("mm.compactions"), r.mm.compactions);
    EXPECT_EQ(m.u64("mm.migrations"), r.mm.migrations);
    EXPECT_EQ(m.u64("mm.pagesBacked"), r.mm.pagesBacked);
    EXPECT_EQ(m.u64("mm.pagesReleased"), r.mm.pagesReleased);

    const std::uint64_t l1_requests = m.u64("vm.translation.requests");
    const std::uint64_t l1_hits = m.u64("vm.translation.l1Hits");
    ASSERT_GT(l1_requests, 0u);
    EXPECT_DOUBLE_EQ(r.l1TlbHitRate, double(l1_hits) / double(l1_requests));

    // Every request that reaches the L2 TLB probes its large array
    // first, then either hits (at some level) or issues a walk; so the
    // rate is the hits over the large-array probes.
    const std::uint64_t l2_requests = m.u64("vm.tlb.l2.large.accesses");
    const std::uint64_t l2_hits = m.u64("vm.translation.l2Hits");
    ASSERT_GT(l2_requests, 0u);
    EXPECT_EQ(l2_hits + m.u64("vm.translation.walksIssued"), l2_requests);
    EXPECT_DOUBLE_EQ(r.l2TlbHitRate,
                     double(l2_hits) / double(l2_requests));

    // Per-app labeled families cover every app in the workload.
    for (std::size_t i = 0; i < r.apps.size(); ++i) {
        const std::string key = "vm.translation.app.requests{app=" +
                                std::to_string(i) + "}";
        EXPECT_TRUE(m.has(key)) << key;
    }
}

TEST(JsonReportTest, IntervalSamplingIsObservationOnly)
{
    Workload w = scaledWorkload(homogeneousWorkload("HISTO", 1), 0.08);
    for (AppParams &a : w.apps)
        a.instrPerWarp = 300;
    SimConfig cfg = SimConfig::mosaicDefault().withIoCompression(16.0);
    cfg.gpu.sm.warpsPerSm = 8;
    cfg.seed = 11;

    const SimResult plain = runSimulation(w, cfg);
    const SimResult sampled =
        runSimulation(w, cfg.withMetricsSampling(20000));

    // Sampling must not perturb the simulation...
    EXPECT_EQ(plain.totalCycles, sampled.totalCycles);
    EXPECT_EQ(plain.pageWalks, sampled.pageWalks);
    EXPECT_EQ(plain.farFaults, sampled.farFaults);
    EXPECT_EQ(toJson(plain), toJson(sampled));
    // ...and must actually record monotone interval snapshots.
    EXPECT_TRUE(plain.metricsSamples.empty());
    ASSERT_FALSE(sampled.metricsSamples.empty());
    Cycles prev = 0;
    for (const MetricsSnapshot &s : sampled.metricsSamples) {
        EXPECT_GE(s.atCycle, prev);
        prev = s.atCycle;
        EXPECT_LE(s.u64("vm.walker.walks"), sampled.pageWalks);
    }
}

TEST(JsonReportTest, ManagerKindNames)
{
    EXPECT_STREQ(managerKindName(ManagerKind::Mosaic), "Mosaic");
    EXPECT_STREQ(managerKindName(ManagerKind::LargeOnly), "2MB-only");
    EXPECT_STREQ(managerKindName(ManagerKind::GpuMmu), "GPU-MMU");
}

}  // namespace
}  // namespace mosaic
