/**
 * @file
 * Checkpoint container format tests (DESIGN.md §14): every malformed
 * image must produce a named diagnostic from ckpt::readFile -- never a
 * crash, never a partial restore -- and the serde Reader must latch its
 * first error. Positive path: write/read round-trips header and
 * payload exactly. The Archive suite checks the one-field-list layer
 * components serialize through: every field kind round-trips, config
 * echoes and counts fail with named diagnostics, and a failed load
 * touches nothing after its first error.
 */

#include <gtest/gtest.h>

#include <bitset>
#include <cstdio>
#include <fstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/checkpoint.h"
#include "ckpt/serde.h"
#include "common/rng.h"
#include "common/stats.h"

namespace mosaic {
namespace {

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + "mosaic_fmt_" + name + ".ckpt";
}

std::vector<std::uint8_t>
samplePayload()
{
    ckpt::Writer w;
    w.section(0x54455354);
    w.u64(41);
    w.boolean(true);
    w.f64(2.5);
    w.str("payload");
    return w.buffer();
}

/** Writes a valid image and returns its path. */
std::string
writeValid(const std::string &name, std::uint64_t fingerprint = 0xF00D)
{
    ckpt::Header h;
    h.fingerprint = fingerprint;
    h.resumeCycle = 123456;
    h.sharded = true;
    const std::string path = tempPath(name);
    EXPECT_EQ(ckpt::writeFile(path, h, samplePayload()), "");
    return path;
}

std::vector<char>
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open());
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
dump(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(CkptFormatTest, RoundTripsHeaderAndPayload)
{
    const std::string path = writeValid("roundtrip", 0xABCDEF);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(ckpt::readFile(path, 0xABCDEF, h, payload), "");
    EXPECT_EQ(h.fingerprint, 0xABCDEFu);
    EXPECT_EQ(h.resumeCycle, 123456u);
    EXPECT_TRUE(h.sharded);
    EXPECT_EQ(payload, samplePayload());

    ckpt::Reader r(payload);
    r.section(0x54455354, "test");
    EXPECT_EQ(r.u64(), 41u);
    EXPECT_TRUE(r.boolean());
    EXPECT_EQ(r.f64(), 2.5);
    EXPECT_EQ(r.str(), "payload");
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
    std::remove(path.c_str());
}

TEST(CkptFormatTest, ZeroExpectedFingerprintSkipsTheCheck)
{
    const std::string path = writeValid("anyfp", 0x1234);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    EXPECT_EQ(ckpt::readFile(path, 0, h, payload), "");
    EXPECT_EQ(h.fingerprint, 0x1234u);
    std::remove(path.c_str());
}

TEST(CkptFormatTest, MissingFileIsDiagnosed)
{
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    const std::string err =
        ckpt::readFile(tempPath("does_not_exist"), 0, h, payload);
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("does_not_exist"), std::string::npos) << err;
    EXPECT_TRUE(payload.empty());
}

TEST(CkptFormatTest, WrongMagicIsDiagnosed)
{
    const std::string path = writeValid("magic");
    std::vector<char> bytes = slurp(path);
    bytes[0] = 'X';
    dump(path, bytes);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    const std::string err = ckpt::readFile(path, 0, h, payload);
    EXPECT_NE(err.find("magic"), std::string::npos) << err;
    EXPECT_TRUE(payload.empty());
    std::remove(path.c_str());
}

TEST(CkptFormatTest, StaleVersionIsDiagnosed)
{
    const std::string path = writeValid("version");
    std::vector<char> bytes = slurp(path);
    // version is the u32 right after the 8-byte magic.
    bytes[8] = static_cast<char>(ckpt::kFormatVersion + 1);
    dump(path, bytes);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    const std::string err = ckpt::readFile(path, 0, h, payload);
    EXPECT_NE(err.find("version"), std::string::npos) << err;
    EXPECT_TRUE(payload.empty());
    std::remove(path.c_str());
}

TEST(CkptFormatTest, FingerprintMismatchIsDiagnosed)
{
    const std::string path = writeValid("fp", 0x1111);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    const std::string err = ckpt::readFile(path, 0x2222, h, payload);
    EXPECT_NE(err.find("fingerprint"), std::string::npos) << err;
    EXPECT_TRUE(payload.empty());
    std::remove(path.c_str());
}

TEST(CkptFormatTest, TruncationIsDiagnosedEverywhere)
{
    const std::string path = writeValid("trunc");
    const std::vector<char> whole = slurp(path);
    // Every proper prefix must fail cleanly: header cuts, payload cuts.
    for (std::size_t keep = 0; keep < whole.size(); ++keep) {
        dump(path, std::vector<char>(whole.begin(),
                                     whole.begin() + keep));
        ckpt::Header h;
        std::vector<std::uint8_t> payload;
        const std::string err = ckpt::readFile(path, 0, h, payload);
        EXPECT_NE(err, "") << "prefix of " << keep
                           << " bytes was accepted";
        EXPECT_TRUE(payload.empty());
    }
    std::remove(path.c_str());
}

TEST(CkptFormatTest, TrailingGarbageIsDiagnosed)
{
    const std::string path = writeValid("trailing");
    std::vector<char> bytes = slurp(path);
    bytes.push_back('\0');
    dump(path, bytes);
    ckpt::Header h;
    std::vector<std::uint8_t> payload;
    const std::string err = ckpt::readFile(path, 0, h, payload);
    EXPECT_NE(err, "") << "trailing byte was accepted";
    std::remove(path.c_str());
}

TEST(CkptFormatTest, ReaderLatchesFirstError)
{
    ckpt::Writer w;
    w.u32(7);
    ckpt::Reader r(w.buffer());
    r.section(0xAAAA, "alpha");  // wrong tag -> latches
    EXPECT_FALSE(r.ok());
    const std::string first = r.error();
    EXPECT_NE(first.find("alpha"), std::string::npos);
    // Subsequent reads return zero and keep the first message.
    EXPECT_EQ(r.u64(), 0u);
    EXPECT_EQ(r.str(), "");
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.error(), first);
}

TEST(CkptFormatTest, ImplausibleCountIsRejected)
{
    ckpt::Writer w;
    w.u64(1u << 30);
    ckpt::Reader r(w.buffer());
    EXPECT_EQ(r.count(1024, "widget count"), 0u);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("widget count"), std::string::npos);
}

/** Every field kind an Archive knows, behind one serialize(). */
struct AllKinds
{
    std::uint8_t a = 0;
    std::uint16_t b = 0;
    std::uint32_t c = 0;
    std::uint64_t d = 0;
    bool e = false;
    double f = 0.0;
    std::string g;
    std::int64_t signedField = 0;
    bool flag0 = false;
    bool flag1 = false;
    std::vector<std::pair<std::uint32_t, std::uint16_t>> pairs;
    std::unordered_map<std::uint64_t, std::uint32_t> map;
    Histogram hist{8, 4};
    Rng rng{1};
    std::bitset<130> bitset;
    std::vector<bool> boolVec = std::vector<bool>(70, false);

    void
    serialize(ckpt::Archive &ar)
    {
        ar.section(0x414C4C31, "all kinds");
        ar.io(a);
        ar.io(b);
        ar.io(c);
        ar.io(d);
        ar.io(e);
        ar.io(f);
        ar.io(g);
        ar.as<std::uint64_t>(signedField);
        ar.flags(flag0, flag1);
        ar.io(pairs, 16, "pairs");
        ar.io(map, 16, "map entries");
        ar.io(hist);
        ar.io(rng);
        ar.bits(bitset);
        ar.bits(boolVec);
    }
};

std::vector<std::uint8_t>
saveImage(AllKinds &x)
{
    ckpt::Writer w;
    ckpt::Archive ar(w);
    x.serialize(ar);
    return w.buffer();
}

TEST(CkptArchiveTest, EveryKindRoundTrips)
{
    AllKinds src;
    src.a = 0xAB;
    src.b = 0xBEEF;
    src.c = 0xDEADBEEF;
    src.d = 0x0123456789ABCDEFull;
    src.e = true;
    src.f = -3.75;
    src.g = "archive";
    src.signedField = -42;
    src.flag1 = true;
    src.pairs = {{7, 3}, {9, 65535}};
    src.map = {{30, 3}, {10, 1}, {20, 2}};
    src.hist.record(5);
    src.hist.record(1000);
    src.rng.next();
    src.bitset.set(0).set(64).set(129);
    src.boolVec[1] = src.boolVec[69] = true;
    const std::vector<std::uint8_t> image = saveImage(src);

    AllKinds dst;
    dst.map = {{99, 9}};  // stale key: a load leaves only the image's keys
    ckpt::Reader r(image);
    ckpt::Archive ar(r);
    EXPECT_TRUE(ar.loading());
    dst.serialize(ar);
    ASSERT_TRUE(ar.ok()) << ar.error();
    EXPECT_TRUE(r.atEnd());
    // Re-saving the restored copy reproduces the image byte for byte.
    EXPECT_EQ(saveImage(dst), image);
    EXPECT_EQ(dst.a, src.a);
    EXPECT_EQ(dst.b, src.b);
    EXPECT_EQ(dst.c, src.c);
    EXPECT_EQ(dst.d, src.d);
    EXPECT_EQ(dst.e, src.e);
    EXPECT_EQ(dst.f, src.f);
    EXPECT_EQ(dst.g, src.g);
    EXPECT_EQ(dst.signedField, -42);
    EXPECT_FALSE(dst.flag0);
    EXPECT_TRUE(dst.flag1);
    EXPECT_EQ(dst.pairs, src.pairs);
    EXPECT_EQ(dst.map, src.map);
    EXPECT_EQ(dst.hist.buckets(), src.hist.buckets());
    EXPECT_EQ(dst.hist.samples(), 2u);
    EXPECT_EQ(dst.hist.max(), 1000u);
    EXPECT_EQ(dst.hist.mean(), src.hist.mean());
    EXPECT_EQ(dst.rng.next(), src.rng.next());
    EXPECT_EQ(dst.bitset, src.bitset);
    EXPECT_EQ(dst.boolVec, src.boolVec);
}

TEST(CkptArchiveTest, MapEntriesAreWrittenInKeyOrder)
{
    AllKinds x;
    x.map = {{30, 3}, {10, 1}, {20, 2}};
    AllKinds y;
    for (const std::uint64_t k : {20u, 10u, 30u})
        y.map[k] = x.map.at(k);
    EXPECT_EQ(saveImage(x), saveImage(y));
}

TEST(CkptArchiveTest, ExpectMismatchNamesTheField)
{
    ckpt::Writer w;
    ckpt::Archive save(w);
    save.expect(std::uint64_t{4}, "widget count");
    save.expect(true, "widget presence");

    ckpt::Reader r(w.buffer());
    ckpt::Archive load(r);
    load.expect(std::uint64_t{4}, "widget count");
    EXPECT_TRUE(load.ok());
    load.expect(false, "widget presence");
    EXPECT_FALSE(load.ok());
    EXPECT_NE(load.error().find("widget presence mismatch"),
              std::string::npos)
        << load.error();

    ckpt::Reader r2(w.buffer());
    ckpt::Archive load2(r2);
    load2.expect(std::uint64_t{5}, "widget count");
    EXPECT_FALSE(load2.ok());
    EXPECT_NE(load2.error().find("widget count mismatch"), std::string::npos)
        << load2.error();
}

TEST(CkptArchiveTest, SizeRejectsAnOutOfBoundCount)
{
    ckpt::Writer w;
    ckpt::Archive save(w);
    EXPECT_EQ(save.size(100, 1024, "gadgets"), 100u);

    ckpt::Reader r(w.buffer());
    ckpt::Archive load(r);
    EXPECT_EQ(load.size(0, 10, "gadgets"), 0u);
    EXPECT_FALSE(load.ok());
    EXPECT_NE(load.error().find("gadgets"), std::string::npos);
}

TEST(CkptArchiveTest, LoadAfterFailureLeavesTargetsUntouched)
{
    AllKinds src;
    src.d = 77;
    src.g = "image";
    src.pairs = {{1, 2}};
    src.map = {{5, 6}};
    ckpt::Writer w;
    w.section(0xBAD0BAD0);  // the wrong tag: loading fails up front
    ckpt::Archive save(w);
    src.serialize(save);

    AllKinds dst;
    dst.d = 1;
    dst.g = "kept";
    dst.flag0 = true;
    dst.pairs = {{3, 4}};
    dst.map = {{8, 9}};
    const std::uint64_t rng_next = AllKinds().rng.next();
    ckpt::Reader r(w.buffer());
    ckpt::Archive load(r);
    load.section(0x414C4C31, "first");
    ASSERT_FALSE(load.ok());
    const std::string first = load.error();
    EXPECT_NE(first.find("first"), std::string::npos);
    dst.serialize(load);
    EXPECT_EQ(load.error(), first);
    EXPECT_EQ(dst.d, 1u);
    EXPECT_EQ(dst.g, "kept");
    EXPECT_TRUE(dst.flag0);
    ASSERT_EQ(dst.pairs.size(), 1u);
    EXPECT_EQ(dst.pairs[0].first, 3u);
    EXPECT_EQ(dst.map.size(), 1u);
    EXPECT_EQ(dst.map.at(8), 9u);
    EXPECT_EQ(dst.hist.samples(), 0u);
    EXPECT_EQ(dst.rng.next(), rng_next);
}

}  // namespace
}  // namespace mosaic
