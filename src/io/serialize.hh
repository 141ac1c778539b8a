/**
 * @file
 * Little-endian binary serialization primitives.
 *
 * Checkpoint files must be byte-identical across hosts, so every
 * multi-byte value is written explicitly in little-endian byte order
 * rather than via memcpy of host-order integers. Doubles travel as
 * their IEEE-754 bit patterns, which makes round-trips bit-exact for
 * every value including -0.0, denormals, infinities and NaNs.
 *
 * ByteReader is fully bounds-checked: reading past the end of the
 * buffer raises fatal() with the name of the structure being decoded,
 * so a truncated or corrupt file can never read uninitialized memory.
 *
 * The container format built on these primitives is specified in
 * docs/CHECKPOINT_FORMAT.md.
 */

#ifndef DIFFTUNE_IO_SERIALIZE_HH
#define DIFFTUNE_IO_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "base/logging.hh"

namespace difftune::io
{

/** CRC-32 (IEEE 802.3 polynomial) of @p data. */
uint32_t crc32(std::string_view data);

/** Append-only little-endian byte buffer. */
class ByteWriter
{
  public:
    void u8(uint8_t v) { data_.push_back(char(v)); }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            data_.push_back(char((v >> (8 * i)) & 0xff));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            data_.push_back(char((v >> (8 * i)) & 0xff));
    }

    void i32(int32_t v) { u32(uint32_t(v)); }

    /** IEEE-754 bit pattern; bit-exact round trip. */
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }

    void bytes(std::string_view v) { data_.append(v); }

    /** Length-prefixed string. */
    void
    str(std::string_view v)
    {
        u64(v.size());
        bytes(v);
    }

    const std::string &data() const { return data_; }
    std::string take() { return std::move(data_); }

  private:
    std::string data_;
};

/** Bounds-checked little-endian reader over a borrowed buffer. */
class ByteReader
{
  public:
    /**
     * @param data buffer to decode (must outlive the reader)
     * @param what structure name used in error messages
     */
    ByteReader(std::string_view data, const char *what)
        : data_(data), what_(what)
    {
    }

    uint8_t
    u8()
    {
        need(1);
        return uint8_t(data_[pos_++]);
    }

    uint32_t
    u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= uint32_t(uint8_t(data_[pos_ + i])) << (8 * i);
        pos_ += 4;
        return v;
    }

    uint64_t
    u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= uint64_t(uint8_t(data_[pos_ + i])) << (8 * i);
        pos_ += 8;
        return v;
    }

    int32_t i32() { return int32_t(u32()); }

    double f64() { return std::bit_cast<double>(u64()); }

    std::string_view
    bytes(size_t n)
    {
        need(n);
        std::string_view v = data_.substr(pos_, n);
        pos_ += n;
        return v;
    }

    /** Length-prefixed string written by ByteWriter::str. */
    std::string_view
    str()
    {
        const uint64_t n = u64();
        fatal_if(n > remaining(), "corrupt {}: string length {} exceeds "
                 "remaining {} bytes", what_, n, remaining());
        return bytes(size_t(n));
    }

    size_t remaining() const { return data_.size() - pos_; }
    bool atEnd() const { return pos_ == data_.size(); }

    /** fatal() unless the payload was consumed exactly. */
    void
    expectEnd() const
    {
        fatal_if(!atEnd(), "corrupt {}: {} trailing bytes", what_,
                 remaining());
    }

  private:
    void
    need(size_t n) const
    {
        fatal_if(n > remaining(),
                 "truncated {}: need {} bytes at offset {}, have {}",
                 what_, n, pos_, remaining());
    }

    std::string_view data_;
    const char *what_;
    size_t pos_ = 0;
};

} // namespace difftune::io

#endif // DIFFTUNE_IO_SERIALIZE_HH
