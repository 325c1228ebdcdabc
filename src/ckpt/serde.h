/**
 * @file
 * Minimal little-endian binary serialization for checkpoint images.
 *
 * Writer appends fixed-width primitives to an in-memory buffer; Reader
 * consumes them in the same order. The Reader never throws and never
 * reads out of bounds: the first failure (truncation, bad section tag,
 * implausible count) latches an error message, and every subsequent
 * read returns zero so callers can bail out at a convenient point and
 * report `error()`. Section tags frame the stream so that a truncated
 * or misaligned image fails fast with a named location instead of
 * silently misinterpreting bytes.
 *
 * Components do not use Writer and Reader directly: each implements one
 * `serialize(ckpt::Archive &)` that lists its fields once, and the
 * Archive either writes or reads them (see Archive below).
 *
 * This header is deliberately standalone (no simulator includes) so
 * any layer — common, vm, mm, engine — can implement serialize()
 * without dependency cycles.
 */

#ifndef MOSAIC_CKPT_SERDE_H
#define MOSAIC_CKPT_SERDE_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mosaic {
namespace ckpt {

/** Appends primitives to a growable byte buffer (little-endian). */
class Writer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u16(std::uint16_t v)
    {
        appendLe(v, 2);
    }

    void
    u32(std::uint32_t v)
    {
        appendLe(v, 4);
    }

    void
    u64(std::uint64_t v)
    {
        appendLe(v, 8);
    }

    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }

    void
    f64(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** Writes a section tag; Reader::section() verifies it in order. */
    void
    section(std::uint32_t tag)
    {
        u32(tag);
    }

    const std::vector<std::uint8_t> &buffer() const { return buf_; }

    std::size_t size() const { return buf_.size(); }

  private:
    void
    appendLe(std::uint64_t v, unsigned bytes)
    {
        for (unsigned i = 0; i < bytes; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::vector<std::uint8_t> buf_;
};

/**
 * Consumes primitives written by Writer. Error-latching: after the
 * first failure every read returns zero and `ok()` is false.
 */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Reader(const std::vector<std::uint8_t> &buf)
        : Reader(buf.data(), buf.size())
    {
    }

    std::uint8_t
    u8()
    {
        return static_cast<std::uint8_t>(takeLe(1));
    }

    std::uint16_t
    u16()
    {
        return static_cast<std::uint16_t>(takeLe(2));
    }

    std::uint32_t
    u32()
    {
        return static_cast<std::uint32_t>(takeLe(4));
    }

    std::uint64_t
    u64()
    {
        return takeLe(8);
    }

    bool
    boolean()
    {
        const std::uint8_t v = u8();
        if (ok_ && v > 1)
            fail("invalid boolean byte");
        return v != 0;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str(std::uint64_t maxLen = 1u << 20)
    {
        const std::uint64_t n = count(maxLen, "string length");
        if (!ok_)
            return {};
        std::string out(reinterpret_cast<const char *>(data_ + pos_),
                        static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return out;
    }

    /**
     * Reads an element count and rejects values above @p max — the
     * guard that keeps a corrupt image from driving a giant resize.
     */
    std::uint64_t
    count(std::uint64_t max, const char *what)
    {
        const std::uint64_t n = u64();
        if (!ok_)
            return 0;
        if (n > max) {
            fail(std::string("implausible ") + what + " (" +
                 std::to_string(n) + " > " + std::to_string(max) + ")");
            return 0;
        }
        return n;
    }

    /** Verifies the next u32 is @p tag, else fails naming @p name. */
    void
    section(std::uint32_t tag, const char *name)
    {
        const std::uint32_t got = u32();
        if (ok_ && got != tag)
            fail(std::string("bad section tag for ") + name + " (got 0x" +
                 hex(got) + ", want 0x" + hex(tag) + ")");
    }

    bool ok() const { return ok_; }

    const std::string &error() const { return error_; }

    /** Latches the first failure; later calls are ignored. */
    void
    fail(const std::string &msg)
    {
        if (!ok_)
            return;
        ok_ = false;
        error_ = msg + " at offset " + std::to_string(pos_);
    }

    bool atEnd() const { return pos_ == size_; }

    std::size_t offset() const { return pos_; }

  private:
    static std::string
    hex(std::uint32_t v)
    {
        static const char digits[] = "0123456789abcdef";
        std::string out;
        for (int shift = 28; shift >= 0; shift -= 4)
            out += digits[(v >> shift) & 0xF];
        return out;
    }

    std::uint64_t
    takeLe(unsigned bytes)
    {
        if (!ok_)
            return 0;
        if (size_ - pos_ < bytes) {
            fail("truncated stream");
            return 0;
        }
        std::uint64_t v = 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += bytes;
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

/**
 * One field list for both directions. A component's
 * `serialize(Archive &ar)` names every field once; wrapping a Writer
 * the archive writes them, wrapping a Reader it reads them back in the
 * same order, so save and load cannot drift apart. The wire width of a
 * field is its C++ type (u8/u16/u32/u64/bool/f64/string); `as<W>()`
 * spells out any other mapping, and a type with no overload must have
 * its own serialize() member or the call does not compile.
 *
 * Loading inherits the Reader's error latching: after the first failure
 * no target is modified and error() keeps the first message. Work only
 * a restore needs (rebuilding an index, replaying observer hooks) goes
 * under `if (ar.loading())`.
 */
class Archive
{
  public:
    explicit Archive(Writer &w) : w_(&w) {}

    explicit Archive(Reader &r) : r_(&r) {}

    bool loading() const { return r_ != nullptr; }

    bool ok() const { return r_ == nullptr || r_->ok(); }

    std::string error() const { return r_ != nullptr ? r_->error() : ""; }

    /** Latches a load failure (ignored when saving). */
    void
    fail(const std::string &msg)
    {
        if (r_ != nullptr)
            r_->fail(msg);
    }

    void
    io(std::uint8_t &v)
    {
        if (w_ != nullptr)
            w_->u8(v);
        else
            keep(v, r_->u8());
    }

    void
    io(std::uint16_t &v)
    {
        if (w_ != nullptr)
            w_->u16(v);
        else
            keep(v, r_->u16());
    }

    void
    io(std::uint32_t &v)
    {
        if (w_ != nullptr)
            w_->u32(v);
        else
            keep(v, r_->u32());
    }

    void
    io(std::uint64_t &v)
    {
        if (w_ != nullptr)
            w_->u64(v);
        else
            keep(v, r_->u64());
    }

    void
    io(bool &v)
    {
        if (w_ != nullptr)
            w_->boolean(v);
        else
            keep(v, r_->boolean());
    }

    void
    io(double &v)
    {
        if (w_ != nullptr)
            w_->f64(v);
        else
            keep(v, r_->f64());
    }

    void
    io(std::string &v)
    {
        if (w_ != nullptr)
            w_->str(v);
        else
            keep(v, r_->str());
    }

    /** A component with its own `serialize(Archive &)` member. */
    template <typename T>
    void
    io(T &component)
    {
        component.serialize(*this);
    }

    template <typename A, typename B>
    void
    io(std::pair<A, B> &p)
    {
        io(p.first);
        io(p.second);
    }

    /** A vector: its size() count, then every element. */
    template <typename T>
    void
    io(std::vector<T> &v, std::uint64_t max, const char *what)
    {
        const std::uint64_t n = size(v.size(), max, what);
        if (!ok())
            return;
        v.resize(static_cast<std::size_t>(n));
        for (T &x : v)
            io(x);
    }

    /**
     * An unordered map: its entry count, then key and value per entry
     * in ascending key order, so the bytes are a pure function of the
     * contents rather than of bucket history. On load the map ends up
     * with exactly the image's keys; entries already present (wiring
     * such as registerApp's page-table pointers) keep their
     * unserialized members.
     */
    template <typename K, typename V>
    void
    io(std::unordered_map<K, V> &m, std::uint64_t max, const char *what)
    {
        std::vector<K> keys;
        if (!loading()) {
            keys.reserve(m.size());
            for (const auto &entry : m)
                keys.push_back(entry.first);
            std::sort(keys.begin(), keys.end());
        }
        keys.resize(static_cast<std::size_t>(size(keys.size(), max, what)));
        for (K &key : keys) {
            io(key);
            if (!ok())
                return;
            io(m[key]);
        }
        if (loading() && ok()) {
            std::erase_if(m, [&keys](const auto &entry) {
                return !std::binary_search(keys.begin(), keys.end(),
                                           entry.first);
            });
        }
    }

    /** A field whose wire form is @p W (signed, enum or wider fields). */
    template <typename W, typename T>
    void
    as(T &v)
    {
        W wire = static_cast<W>(v);
        io(wire);
        if (loading())
            v = static_cast<T>(wire);
    }

    /** Two flags packed in one byte: bit 0 = @p a, bit 1 = @p b.
     *  Takes proxies too (std::vector<bool> elements). */
    template <typename A, typename B>
    void
    flags(A &&a, B &&b)
    {
        std::uint8_t packed = static_cast<std::uint8_t>(
            (a ? 1 : 0) | (b ? 2 : 0));
        io(packed);
        if (loading()) {
            a = (packed & 1) != 0;
            b = (packed & 2) != 0;
        }
    }

    /** A fixed-size bit set (std::bitset or std::vector<bool>), packed
     *  into u64 words, bit i of word k = element 64k + i. */
    template <typename Bits>
    void
    bits(Bits &b)
    {
        for (std::size_t base = 0; base < b.size(); base += 64) {
            const std::size_t n = std::min<std::size_t>(64, b.size() - base);
            std::uint64_t word = 0;
            for (std::size_t i = 0; i < n; ++i)
                word |= static_cast<std::uint64_t>(b[base + i]) << i;
            io(word);
            if (loading()) {
                for (std::size_t i = 0; i < n; ++i)
                    b[base + i] = (word >> i & 1) != 0;
            }
        }
    }

    /**
     * An element count: saving writes @p n and returns it; loading
     * returns the image's count, rejecting values above @p max.
     */
    std::uint64_t
    size(std::uint64_t n, std::uint64_t max, const char *what)
    {
        if (w_ != nullptr) {
            w_->u64(n);
            return n;
        }
        return r_->count(max, what);
    }

    /**
     * A configuration echo: saving writes @p configured; loading fails
     * with "<what> mismatch" unless the image holds the same value (the
     * shapes that configuration, not state, determines).
     */
    void
    expect(std::uint64_t configured, const char *what)
    {
        std::uint64_t image = configured;
        io(image);
        if (image != configured)
            mismatch(what, image, configured);
    }

    void
    expect(bool configured, const char *what)
    {
        bool image = configured;
        io(image);
        if (image != configured)
            mismatch(what, image, configured);
    }

    /** Frames the stream; loading verifies the tag, naming @p name. */
    void
    section(std::uint32_t tag, const char *name)
    {
        if (w_ != nullptr)
            w_->section(tag);
        else
            r_->section(tag, name);
    }

  private:
    template <typename T>
    void
    keep(T &v, T got)
    {
        if (r_->ok())
            v = std::move(got);
    }

    void
    mismatch(const char *what, std::uint64_t image, std::uint64_t configured)
    {
        fail(std::string(what) + " mismatch (config changed?): image has " +
             std::to_string(image) + ", config has " +
             std::to_string(configured));
    }

    Writer *w_ = nullptr;
    Reader *r_ = nullptr;
};

}  // namespace ckpt
}  // namespace mosaic

#endif  // MOSAIC_CKPT_SERDE_H
