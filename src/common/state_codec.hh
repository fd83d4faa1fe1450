/**
 * @file
 * Binary state codec for simulator checkpoints.
 *
 * StateWriter/StateReader are the low-level byte layer under the
 * per-component saveState/loadState methods (sim/checkpoint.hh glues
 * them into CRC-framed checkpoint blobs). The format is a plain
 * little-endian field stream with no self-description: writer and
 * reader must agree on the field sequence, which the per-component
 * `tag()` markers cross-check so a structural mismatch fails fast
 * (reader goes !ok()) instead of mis-decoding into a subtly wrong
 * simulator state.
 *
 * The reader is fully bounds-checked and never throws: any underflow
 * or tag mismatch latches a failure flag, subsequent reads return
 * zero values, and the caller checks ok() once at the end. This is
 * the same "reject, never mis-decode" discipline as the v2 trace
 * codec (trace/trace_codec.hh).
 */

#ifndef STEMS_COMMON_STATE_CODEC_HH
#define STEMS_COMMON_STATE_CODEC_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace stems {

/** Build a section tag from a 4-character mnemonic ("CACH", ...). */
constexpr std::uint32_t
stateTag(char a, char b, char c, char d)
{
    return (static_cast<std::uint32_t>(static_cast<unsigned char>(a))) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b))
            << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(c))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(d))
            << 24);
}

/**
 * Appends state fields to a growing byte buffer. A field is one
 * bounds check plus a fixed-size memcpy. The buffer is zero-extended
 * a page at a time (vector::resize doubles the capacity when it must
 * reallocate), so at most one page past the written bytes is ever
 * touched: unused capacity of a multi-MB blob costs no page faults.
 */
class StateWriter
{
  public:
    /**
     * @param header_bytes  zero bytes to leave in front of the first
     *                      field: a frame header the owner patches
     *                      into take()'s result (sim/checkpoint.cc).
     */
    explicit StateWriter(std::size_t header_bytes = 0)
        : buf_(header_bytes), size_(header_bytes)
    {
    }

    void
    u8(std::uint8_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    u32(std::uint32_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    u64(std::uint64_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    i64(std::int64_t v)
    {
        raw(&v, sizeof(v));
    }

    /** Bit-exact double (round-trips NaNs and signed zeros). */
    void
    f64(double v)
    {
        raw(&v, sizeof(v));
    }

    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }

    /** Section marker; the reader verifies it. */
    void
    tag(std::uint32_t t)
    {
        u32(t);
    }

    /** The bytes written so far (header slot included). */
    const std::vector<std::uint8_t> &
    bytes()
    {
        buf_.resize(size_);
        return buf_;
    }

    /** bytes(), moved out; the writer is left empty. */
    std::vector<std::uint8_t>
    take()
    {
        bytes();
        size_ = 0;
        return std::move(buf_);
    }

  private:
    static constexpr std::size_t kPageBytes = 4096;

    void
    raw(const void *data, std::size_t len)
    {
        if (len > buf_.size() - size_)
            buf_.resize(size_ + std::max(len, kPageBytes));
        std::memcpy(buf_.data() + size_, data, len);
        size_ += len;
    }

    /// buf_[0, size_) holds the written bytes; the rest of buf_ is
    /// zero-filled room for the next fields.
    std::vector<std::uint8_t> buf_;
    std::size_t size_;
};

/** Bounds-checked sequential reader over a state byte stream. */
class StateReader
{
  public:
    StateReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint8_t
    u8()
    {
        std::uint8_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    std::int64_t
    i64()
    {
        std::int64_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    double
    f64()
    {
        double v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    bool boolean() { return u8() != 0; }

    /** Verify a section marker written by StateWriter::tag. */
    void
    tag(std::uint32_t expect)
    {
        if (u32() != expect)
            fail();
    }

    /** Latch a structural failure (e.g. a size mismatch). */
    void fail() { ok_ = false; }

    /** True while every read so far succeeded. */
    bool ok() const { return ok_; }

    /** True when the whole stream was consumed. */
    bool atEnd() const { return ok_ && pos_ == size_; }

  private:
    void
    raw(void *out, std::size_t len)
    {
        if (!ok_ || len > size_ - pos_) {
            fail();
            std::memset(out, 0, len);
            return;
        }
        std::memcpy(out, data_ + pos_, len);
        pos_ += len;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace stems

#endif // STEMS_COMMON_STATE_CODEC_HH
