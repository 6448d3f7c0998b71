#include "common/bytes.h"

#include <cstdio>

namespace procheck {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";
}  // namespace

std::string to_hex(const Bytes& data) {
  std::string out;
  out.reserve(data.size() * 2);
  for (std::uint8_t b : data) {
    out.push_back(kHexDigits[b >> 4]);
    out.push_back(kHexDigits[b & 0xF]);
  }
  return out;
}

std::string hex64(std::uint64_t v) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(v));
  return hex;
}

void ByteWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v >> 8));
  u8(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v >> 16));
  u16(static_cast<std::uint16_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::blob(const Bytes& b) {
  u16(static_cast<std::uint16_t>(b.size()));
  raw(b);
}

void ByteWriter::str(std::string_view s) {
  u16(static_cast<std::uint16_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::raw(const Bytes& b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

bool ByteReader::need(std::size_t n) {
  if (!ok_ || buf_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::optional<std::uint8_t> ByteReader::u8() {
  if (!need(1)) return std::nullopt;
  return buf_[pos_++];
}

std::optional<std::uint16_t> ByteReader::u16() {
  if (!need(2)) return std::nullopt;
  std::uint16_t v = static_cast<std::uint16_t>(buf_[pos_] << 8 | buf_[pos_ + 1]);
  pos_ += 2;
  return v;
}

std::optional<std::uint32_t> ByteReader::u32() {
  auto hi = u16();
  auto lo = u16();
  if (!hi || !lo) return std::nullopt;
  return (static_cast<std::uint32_t>(*hi) << 16) | *lo;
}

std::optional<std::uint64_t> ByteReader::u64() {
  auto hi = u32();
  auto lo = u32();
  if (!hi || !lo) return std::nullopt;
  return (static_cast<std::uint64_t>(*hi) << 32) | *lo;
}

std::optional<Bytes> ByteReader::blob() {
  auto len = u16();
  if (!len || !need(*len)) return std::nullopt;
  Bytes out(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + *len));
  pos_ += *len;
  return out;
}

std::optional<std::string> ByteReader::str() {
  auto b = blob();
  if (!b) return std::nullopt;
  return std::string(b->begin(), b->end());
}

}  // namespace procheck
