/**
 * @file
 * Deterministic randomized stress fuzzer for the memory managers.
 *
 * Drives randomized alloc/free/touch/oversubscribe/multi-app schedules
 * against any of the three memory managers, on the simulator's own
 * Machine (runner/system.h), with the shadow-model invariant checker
 * (src/check/) verifying after every operation. The
 * harness is deterministic from its seed: the whole schedule is
 * generated up front from a seeded Rng, so any failure reproduces with
 * `mosaic_fuzz --seed N` and the failing schedule can be written out,
 * minimized, and replayed byte-for-byte (`--replay FILE`).
 *
 * Usage:
 *   mosaic_fuzz --seed N [--ops N] [--manager mosaic|gpummu|largeonly]
 *               [--oversubscribe] [--apps N] [--out FILE]
 *   mosaic_fuzz --smoke [--seed N] [--ops N]    # 3 managers x oversub
 *   mosaic_fuzz --replay FILE                   # replay a schedule
 *
 * Exit status: 0 = all invariants held, 1 = violation found (the
 * failing schedule is minimized and printed/written), 2 = usage error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/serde.h"
#include "common/parse_num.h"
#include "common/rng.h"
#include "runner/system.h"

using namespace mosaic;

namespace {

enum class Op : unsigned {
    Reserve = 0,   ///< reserve a region in a free slot
    Back = 1,      ///< demand-back one page of a reserved region
    Touch = 2,     ///< translate one page through the TLBs (fill path)
    ReleaseAll = 3,///< release a whole reserved region
    ReleaseSlice = 4, ///< release a random slice (fragmentation)
};

/** One schedule step; fields are reinterpreted per opcode. */
struct FuzzOp
{
    Op op = Op::Reserve;
    unsigned app = 0;
    unsigned slot = 0;   ///< region slot index within the app
    unsigned pages = 1;  ///< Reserve: region size; ReleaseSlice: length
    unsigned page = 0;   ///< Back/Touch/ReleaseSlice: page offset
};

/** Everything that parameterizes one fuzz run (all seed-derived). */
struct FuzzConfig
{
    std::string manager = "mosaic";
    bool oversubscribe = false;
    unsigned apps = 2;
    bool useBulkCopy = false;
    unsigned interleave = 0;  ///< ChannelInterleave as an int
    unsigned coalesceThreshold = 0;
    /** Page-size hierarchy under fuzz (default: the classic pair). */
    PageSizeHierarchy sizes;
    /** Enable CoLT coalesced base-TLB entries on the fuzz TLBs. */
    bool colt = false;
    std::vector<FuzzOp> ops;
};

constexpr unsigned kSlotsPerApp = 8;
constexpr Addr kSlotSpacing = 16ull << 20;  // 16MB between region slots
constexpr unsigned kMaxRegionPages = 1536;  // up to 3 chunks

Addr
slotVa(unsigned app, unsigned slot)
{
    return ((static_cast<Addr>(app) + 1) << 32) + slot * kSlotSpacing;
}

/** Result of executing one schedule. */
struct RunResult
{
    bool failed = false;
    std::size_t failOp = 0;       ///< index of the op that tripped
    std::uint64_t violations = 0;
    std::vector<std::string> reports;
};

/**
 * The fuzzed machine: 2 SMs and a frame pool of 8 MB (oversubscribed)
 * or 64 MB with the 16 MB page-table pool directly above it, checked
 * by a full invariant sweep after every manager mutation.
 */
SimConfig
machineConfig(const FuzzConfig &cfg)
{
    SimConfig c;
    c.manager = cfg.manager == "mosaic"      ? ManagerKind::Mosaic
                : cfg.manager == "largeonly" ? ManagerKind::LargeOnly
                                             : ManagerKind::GpuMmu;
    c.gpu.numSms = 2;
    // Oversubscription: the pool holds far fewer frames than the
    // schedule's demand, so OOM, reclaim, compaction, and the
    // emergency failsafe all get exercised.
    c.pageTablePoolBytes = 16ull << 20;
    c.dram.capacityBytes =
        (cfg.oversubscribe ? (8ull << 20) : (64ull << 20)) +
        c.pageTablePoolBytes;
    c.dram.channelInterleave = static_cast<ChannelInterleave>(cfg.interleave);
    c.translation.sizes = cfg.sizes;
    c.translation.colt = cfg.colt;
    c.mosaic.sizes = cfg.sizes;
    c.mosaic.cac.useBulkCopy = cfg.useBulkCopy;
    c.mosaic.coalesceResidentThreshold = cfg.coalesceThreshold;
    c.invariantChecks = {true, 1, false};
    return c;
}

/**
 * Executes @p cfg's schedule from scratch and verifies every invariant
 * after every operation. Deterministic: same config, same outcome.
 * @p shards > 0 builds the machine over the sharded engine with its
 * hub sub-lanes (DESIGN.md §12), so the fuzzer exercises the routed
 * translation, cache and DRAM paths; the invariant verdicts are
 * unchanged because every op fully drains.
 * @p checkpointEvery > 0 additionally round-trips the whole system
 * through the checkpoint serializer every N ops: serialize, restore
 * into a freshly built twin, verify the twin's reseeded shadow checker,
 * check save->restore->save byte stability, and continue the schedule
 * on the twin.
 */
RunResult
runSchedule(const FuzzConfig &cfg, unsigned shards = 0,
            std::size_t checkpointEvery = 0)
{
    const SimConfig machine = machineConfig(cfg);
    auto sys = std::make_unique<Machine>(machine, cfg.apps, shards);

    // Reserved pages per (app, slot); 0 = slot free. Ops that do not
    // apply to the current state are skipped (keeps minimized schedules
    // replayable without re-validation).
    std::vector<std::vector<unsigned>> reserved(
        cfg.apps, std::vector<unsigned>(kSlotsPerApp, 0));

    RunResult result;

    for (std::size_t i = 0; i < cfg.ops.size(); ++i) {
        const FuzzOp &op = cfg.ops[i];
        const unsigned app = op.app % cfg.apps;
        const unsigned slot = op.slot % kSlotsPerApp;
        const Addr base = slotVa(app, slot);
        unsigned &pages = reserved[app][slot];
        const AppId id = static_cast<AppId>(app);

        switch (op.op) {
        case Op::Reserve:
            if (pages != 0)
                break;
            pages = 1 + op.pages % kMaxRegionPages;
            sys->manager->reserveRegion(id, base,
                                        static_cast<std::uint64_t>(pages) *
                                            kBasePageSize);
            break;
        case Op::Back:
            if (pages == 0)
                break;
            sys->manager->backPage(id,
                                   base + (op.page % pages) * kBasePageSize);
            break;
        case Op::Touch: {
            if (pages == 0)
                break;
            const Addr va = base + (op.page % pages) * kBasePageSize;
            const SmId sm = static_cast<SmId>(op.page % 2);
            Translation out;
            sys->translation.translate(
                sm, *sys->pageTables[app], va,
                [&out](const Translation &t) { out = t; });
            sys->drain();
            if (!out.valid) {
                // Far-fault: commit physical memory, then refill.
                if (sys->manager->backPage(id, va)) {
                    sys->translation.translate(sm, *sys->pageTables[app],
                                               va, [](const Translation &) {});
                    sys->drain();
                }
            }
            break;
        }
        case Op::ReleaseAll:
            if (pages == 0)
                break;
            sys->manager->releaseRegion(id, base,
                                        static_cast<std::uint64_t>(pages) *
                                            kBasePageSize);
            pages = 0;
            break;
        case Op::ReleaseSlice: {
            if (pages < 2)
                break;
            const unsigned start = op.page % (pages - 1);
            const unsigned len = 1 + op.pages % (pages - start);
            sys->manager->releaseRegion(id, base + start * kBasePageSize,
                                        static_cast<std::uint64_t>(len) *
                                            kBasePageSize);
            // The slot stays reserved: later Back/Touch ops on released
            // pages exercise the re-backing (loose allocation) paths.
            break;
        }
        }
        sys->drain();
        sys->checker->verifyAll();
        if (sys->checker->violationCount() > result.violations) {
            result.failed = true;
            result.failOp = i;
            result.violations = sys->checker->violationCount();
            result.reports = sys->checker->reports();
            return result;  // stop at the first failing op
        }

        if (checkpointEvery > 0 && (i + 1) % checkpointEvery == 0) {
            // Round-trip the quiesced system through the checkpoint
            // serializer into a fresh twin and keep running on the
            // twin: any state the serializer loses shows up as a
            // checker violation (or a divergent verdict) downstream.
            ckpt::Writer w;
            ckpt::Archive save(w);
            sys->serialize(save);
            auto fresh = std::make_unique<Machine>(machine, cfg.apps, shards);
            ckpt::Reader r(w.buffer());
            ckpt::Archive load(r);
            fresh->serialize(load);
            std::string err;
            if (!r.ok()) {
                err = "checkpoint round-trip: " + r.error();
            } else if (!r.atEnd()) {
                err = "checkpoint round-trip: trailing bytes";
            } else {
                ckpt::Writer w2;
                ckpt::Archive resave(w2);
                fresh->serialize(resave);
                if (w2.buffer() != w.buffer())
                    err = "checkpoint round-trip: save->restore->save "
                          "bytes differ";
            }
            if (!err.empty()) {
                result.failed = true;
                result.failOp = i;
                result.violations = 1;
                result.reports = {err};
                return result;
            }
            fresh->checker->verifyAll();
            if (fresh->checker->violationCount() > 0) {
                result.failed = true;
                result.failOp = i;
                result.violations = fresh->checker->violationCount();
                result.reports = fresh->checker->reports();
                return result;
            }
            sys = std::move(fresh);
        }
    }

    // Teardown: release everything, then the shadow must be empty.
    for (unsigned a = 0; a < cfg.apps; ++a) {
        for (unsigned s = 0; s < kSlotsPerApp; ++s) {
            if (reserved[a][s] != 0) {
                sys->manager->releaseRegion(
                    static_cast<AppId>(a), slotVa(a, s),
                    static_cast<std::uint64_t>(reserved[a][s]) *
                        kBasePageSize);
            }
        }
    }
    sys->drain();
    sys->checker->verifyAll();
    if (sys->checker->violationCount() > 0) {
        result.failed = true;
        result.failOp = cfg.ops.size();
        result.violations = sys->checker->violationCount();
        result.reports = sys->checker->reports();
    }
    return result;
}

/** Generates a schedule (and config bits) deterministically from a seed. */
FuzzConfig
generate(std::uint64_t seed, std::size_t numOps, const std::string &manager,
         bool oversubscribe, unsigned apps,
         const PageSizeHierarchy &sizes = {}, bool colt = false)
{
    FuzzConfig cfg;
    cfg.manager = manager;
    cfg.oversubscribe = oversubscribe;
    cfg.apps = apps;
    cfg.sizes = sizes;
    cfg.colt = colt;
    Rng rng(seed);
    cfg.useBulkCopy = rng.chance(0.5);
    cfg.interleave = static_cast<unsigned>(rng.below(3));
    cfg.coalesceThreshold = rng.chance(0.25) ? 256 : 0;
    if (sizes.numLevels() > 2) {
        // Tiering knobs come from a *separate* hash of the seed so the
        // main stream above -- and therefore every default-pair
        // schedule -- stays byte-identical with or without --sizes.
        Rng trident_rng(seed * 0x9E3779B97F4A7C15ull + 0x632BE59Bull);
        // Residency-gated mid promotion vs promote-on-full: both
        // branches of InPlaceCoalescer::tryCoalesceRun get coverage.
        cfg.coalesceThreshold = trident_rng.chance(0.5) ? 64 : 0;
    }
    cfg.ops.reserve(numOps);
    for (std::size_t i = 0; i < numOps; ++i) {
        FuzzOp op;
        // Weighted opcode mix: touching/backing dominates real usage.
        const std::uint64_t roll = rng.below(100);
        if (roll < 15)
            op.op = Op::Reserve;
        else if (roll < 45)
            op.op = Op::Back;
        else if (roll < 75)
            op.op = Op::Touch;
        else if (roll < 85)
            op.op = Op::ReleaseAll;
        else
            op.op = Op::ReleaseSlice;
        op.app = static_cast<unsigned>(rng.below(apps));
        op.slot = static_cast<unsigned>(rng.below(kSlotsPerApp));
        op.pages = static_cast<unsigned>(rng.below(kMaxRegionPages)) + 1;
        op.page = static_cast<unsigned>(rng.below(kMaxRegionPages));
        cfg.ops.push_back(op);
    }
    return cfg;
}

/**
 * Greedy schedule minimization: repeatedly drop chunks (halving window
 * sizes down to single ops) while the failure persists.
 */
FuzzConfig
minimize(const FuzzConfig &failing, unsigned shards,
         std::size_t checkpointEvery = 0)
{
    FuzzConfig best = failing;
    for (std::size_t window = best.ops.size() / 2; window >= 1;
         window /= 2) {
        bool removed_any = true;
        while (removed_any) {
            removed_any = false;
            for (std::size_t start = 0; start + window <= best.ops.size();
                 start += window) {
                FuzzConfig trial = best;
                trial.ops.erase(trial.ops.begin() + start,
                                trial.ops.begin() + start + window);
                if (runSchedule(trial, shards, checkpointEvery).failed) {
                    best = std::move(trial);
                    removed_any = true;
                    break;
                }
            }
        }
        if (window == 1)
            break;
    }
    return best;
}

void
writeSchedule(const FuzzConfig &cfg, std::ostream &os)
{
    os << "mosaic_fuzz v1\n";
    os << "manager=" << cfg.manager << " oversub=" << cfg.oversubscribe
       << " apps=" << cfg.apps << " bulkcopy=" << cfg.useBulkCopy
       << " interleave=" << cfg.interleave
       << " threshold=" << cfg.coalesceThreshold;
    // Emitted only when non-default so pre-existing corpus files (and
    // the determinism smoke's dump comparisons) keep their exact bytes.
    if (!cfg.sizes.isDefaultPair())
        os << " sizes=" << cfg.sizes.toString();
    if (cfg.colt)
        os << " colt=1";
    os << "\n";
    for (const FuzzOp &op : cfg.ops) {
        os << static_cast<unsigned>(op.op) << " " << op.app << " "
           << op.slot << " " << op.pages << " " << op.page << "\n";
    }
}

bool
readSchedule(const std::string &path, FuzzConfig &cfg)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "mosaic_fuzz: cannot open %s\n", path.c_str());
        return false;
    }
    std::string line;
    if (!std::getline(in, line) || line != "mosaic_fuzz v1") {
        std::fprintf(stderr, "mosaic_fuzz: %s: bad header\n", path.c_str());
        return false;
    }
    if (!std::getline(in, line))
        return false;
    {
        std::istringstream hs(line);
        std::string tok;
        while (hs >> tok) {
            const auto eq = tok.find('=');
            if (eq == std::string::npos)
                continue;
            const std::string key = tok.substr(0, eq);
            const std::string val = tok.substr(eq + 1);
            if (key == "manager")
                cfg.manager = val;
            else if (key == "oversub")
                cfg.oversubscribe = val != "0";
            else if (key == "apps" || key == "interleave" ||
                     key == "threshold") {
                std::uint64_t v = 0;
                if (!parseU64(val.c_str(), &v) || v > 1u << 20) {
                    std::fprintf(stderr,
                                 "mosaic_fuzz: %s: bad %s= value '%s'\n",
                                 path.c_str(), key.c_str(), val.c_str());
                    return false;
                }
                if (key == "apps")
                    cfg.apps = static_cast<unsigned>(v);
                else if (key == "interleave")
                    cfg.interleave = static_cast<unsigned>(v);
                else
                    cfg.coalesceThreshold = static_cast<unsigned>(v);
            } else if (key == "bulkcopy")
                cfg.useBulkCopy = val != "0";
            else if (key == "sizes") {
                if (!PageSizeHierarchy::parse(val, cfg.sizes)) {
                    std::fprintf(stderr,
                                 "mosaic_fuzz: %s: bad sizes= spec\n",
                                 path.c_str());
                    return false;
                }
            } else if (key == "colt")
                cfg.colt = val != "0";
        }
    }
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream ls(line);
        unsigned op = 0;
        FuzzOp f;
        if (!(ls >> op >> f.app >> f.slot >> f.pages >> f.page)) {
            std::fprintf(stderr, "mosaic_fuzz: %s: bad op line\n",
                         path.c_str());
            return false;
        }
        f.op = static_cast<Op>(op);
        cfg.ops.push_back(f);
    }
    return true;
}

/** Runs one config; on failure minimizes, reports, optionally saves. */
int
runAndReport(FuzzConfig cfg, std::uint64_t seed, const std::string &outPath,
             unsigned shards = 0, std::size_t checkpointEvery = 0)
{
    RunResult r = runSchedule(cfg, shards, checkpointEvery);
    if (!r.failed) {
        std::printf("mosaic_fuzz: OK manager=%s oversub=%d apps=%u "
                    "ops=%zu seed=%llu\n",
                    cfg.manager.c_str(), cfg.oversubscribe ? 1 : 0,
                    cfg.apps, cfg.ops.size(),
                    static_cast<unsigned long long>(seed));
        if (!outPath.empty()) {
            // Dump the (passing) generated schedule too: corpus capture
            // and the determinism smoke test compare these dumps.
            std::ofstream out(outPath);
            writeSchedule(cfg, out);
        }
        return 0;
    }

    std::fprintf(stderr,
                 "mosaic_fuzz: FAILURE manager=%s oversub=%d apps=%u "
                 "seed=%llu at op %zu (%llu violations)\n",
                 cfg.manager.c_str(), cfg.oversubscribe ? 1 : 0, cfg.apps,
                 static_cast<unsigned long long>(seed), r.failOp,
                 static_cast<unsigned long long>(r.violations));
    for (const std::string &report : r.reports)
        std::fprintf(stderr, "  %s\n", report.c_str());

    std::fprintf(stderr, "mosaic_fuzz: minimizing %zu ops...\n",
                 cfg.ops.size());
    const FuzzConfig minimal = minimize(cfg, shards, checkpointEvery);
    std::fprintf(stderr, "mosaic_fuzz: minimized to %zu ops:\n",
                 minimal.ops.size());
    std::ostringstream dump;
    writeSchedule(minimal, dump);
    std::fprintf(stderr, "%s", dump.str().c_str());
    if (!outPath.empty()) {
        std::ofstream out(outPath);
        writeSchedule(minimal, out);
        std::fprintf(stderr, "mosaic_fuzz: schedule written to %s\n",
                     outPath.c_str());
    }
    return 1;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mosaic_fuzz [--seed N] [--ops N] [--apps N]\n"
        "                   [--manager mosaic|gpummu|largeonly]\n"
        "                   [--oversubscribe] [--shards N] [--out FILE]\n"
        "                   [--sizes LIST] [--colt]\n"
        "                   [--checkpoint-every N]\n"
        "       mosaic_fuzz --smoke [--seed N] [--ops N] [--shards N]\n"
        "       mosaic_fuzz --replay FILE [--shards N]\n"
        "\n"
        "--shards N runs the machine over the sharded engine and its\n"
        "hub sub-lanes with N worker threads (0 = serial); invariant\n"
        "verdicts are identical.\n"
        "--sizes LIST fuzzes a custom page-size hierarchy (smallest\n"
        "first, e.g. 4K,64K,2M); tiering knobs then derive from a\n"
        "separate hash of the seed, so default-pair schedules are\n"
        "byte-identical with or without the flag. --colt enables\n"
        "coalesced base-TLB entries. Replay files carry both settings\n"
        "in their header.\n"
        "--checkpoint-every N serializes the whole system every N ops,\n"
        "restores it into a freshly built twin, verifies the twin with\n"
        "its own shadow checker (plus save->restore->save byte\n"
        "stability), and continues the schedule on the twin; invariant\n"
        "verdicts are identical to an uncheckpointed run.\n");
    return 2;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::uint64_t seed = 1;
    std::size_t ops = 2000;
    unsigned apps = 2;
    unsigned shards = 0;
    std::string manager = "mosaic";
    bool oversubscribe = false;
    bool smoke = false;
    std::string replay_path;
    std::string out_path;
    PageSizeHierarchy sizes;
    bool colt = false;
    std::size_t ckpt_every = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "mosaic_fuzz: %s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // Checked parse: garbage or out-of-range values are usage
        // errors, not uncaught std::stoul exceptions.
        auto u64 = [&](std::uint64_t lo, std::uint64_t hi) -> std::uint64_t {
            std::uint64_t v = 0;
            if (!parseFlagU64(arg.c_str(), next(), lo, hi, &v))
                std::exit(usage());
            return v;
        };
        if (arg == "--seed")
            seed = u64(0, UINT64_MAX);
        else if (arg == "--ops")
            ops = static_cast<std::size_t>(u64(0, 1u << 24));
        else if (arg == "--apps")
            apps = static_cast<unsigned>(u64(1, 8));
        else if (arg == "--shards")
            shards = static_cast<unsigned>(u64(0, 256));
        else if (arg == "--manager")
            manager = next();
        else if (arg == "--oversubscribe")
            oversubscribe = true;
        else if (arg == "--smoke")
            smoke = true;
        else if (arg == "--replay")
            replay_path = next();
        else if (arg == "--out")
            out_path = next();
        else if (arg == "--sizes") {
            if (!PageSizeHierarchy::parse(next(), sizes)) {
                std::fprintf(stderr, "mosaic_fuzz: bad --sizes spec\n");
                return 2;
            }
        } else if (arg == "--colt")
            colt = true;
        else if (arg == "--checkpoint-every")
            ckpt_every = static_cast<std::size_t>(u64(1, 1u << 24));
        else
            return usage();
    }
    if (manager != "mosaic" && manager != "gpummu" &&
        manager != "largeonly")
        return usage();
    if (apps == 0 || apps > 8)
        return usage();

    if (!replay_path.empty()) {
        FuzzConfig cfg;
        if (!readSchedule(replay_path, cfg))
            return 2;
        return runAndReport(std::move(cfg), seed, out_path, shards,
                            ckpt_every);
    }

    if (smoke) {
        int rc = 0;
        for (const char *m : {"mosaic", "gpummu", "largeonly"}) {
            for (const bool over : {false, true}) {
                FuzzConfig cfg =
                    generate(seed, ops, m, over, apps, sizes, colt);
                rc |= runAndReport(std::move(cfg), seed, out_path, shards,
                                   ckpt_every);
            }
        }
        return rc;
    }

    FuzzConfig cfg =
        generate(seed, ops, manager, oversubscribe, apps, sizes, colt);
    return runAndReport(std::move(cfg), seed, out_path, shards, ckpt_every);
}
