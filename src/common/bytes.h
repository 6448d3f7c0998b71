// Byte-buffer utilities shared by the NAS codec, the crypto simulation, and
// the testbed channels. A `Bytes` value is an owned, contiguous octet string;
// `ByteReader`/`ByteWriter` provide bounds-checked big-endian primitive
// access used by the NAS message codec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace procheck {

using Bytes = std::vector<std::uint8_t>;

/// Renders `data` as lowercase hex (two digits per octet, no separators).
std::string to_hex(const Bytes& data);

/// Renders `v` as 16 lowercase hex digits (fingerprints, nonces, MACs).
std::string hex64(std::uint64_t v);

/// Serializes primitives into a growing byte buffer (big-endian network
/// order, as NAS PDUs use).
class ByteWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// Length-prefixed (u16) octet string.
  void blob(const Bytes& b);
  /// Length-prefixed (u16) UTF-8 string.
  void str(std::string_view s);
  void raw(const Bytes& b);

  const Bytes& bytes() const { return buf_; }
  Bytes take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Bounds-checked reader over an octet string. All accessors return
/// std::nullopt past the end instead of reading out of bounds; `ok()`
/// reports whether any read has failed.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : buf_(buf) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint16_t> u16();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<Bytes> blob();
  std::optional<std::string> str();

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool at_end() const { return pos_ == buf_.size(); }
  bool ok() const { return ok_; }

 private:
  bool need(std::size_t n);

  const Bytes& buf_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace procheck
