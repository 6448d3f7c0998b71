// Remote-SUL wire framing (DESIGN.md §12, §13, §14).
//
// A frame is a length-prefixed, CRC-tagged, versioned record:
//
//   u32  length L           (bytes that follow the prefix; bounds-checked)
//   u16  magic  0x50C5
//   u8   version (kWireVersion; v1–v3 frames still decode so a legacy
//                 hello can be answered with a structured "upgrade
//                 required" close, in its own version, instead of a
//                 silent framing drop)
//   u8   type    (FrameType)
//   u32  epoch   (connection generation — bumped on every reconnect so a
//                 stale answer from a previous link can never interleave)
//   u32  seq     (per-request counter within the epoch; acks echo it)
//   ...  payload (L - 16 bytes: a batch of words, their outputs, or text)
//   u32  crc32   (IEEE, over magic..payload)
//
// All integers big-endian. The decoder is *total*: any byte stream either
// yields frames, asks for more bytes, or reports a framing error with a
// reason — it never crashes and never silently yields corrupted data (the
// CRC turns corruption into a detected framing error, the contract the
// chaos-proxy corruption regime pins). Once a stream mis-frames, resync is
// impossible (the length prefix itself is untrusted), so a framing error
// poisons the FrameReader until reset() — transports must drop the
// connection, which is exactly what the client and server do.
//
// v2 added the authenticated session handshake (DESIGN.md §13):
// hello → [challenge → auth_response] → hello_ack, plus the structured
// admission/teardown frames (server_busy, close) whose payload is a reason
// token from the kReason* set below.
//
// v4 has one query exchange (DESIGN.md §14): query_batch ships 1 to
// kMaxBatchWords whole words (each a reset plus its symbols) in one round
// trip, and batch_ack carries each word's outputs in request order, in the
// same word-list codec. v4 is the only version served: the per-symbol
// reset/step frames of v2 and the query_word/word_ack frames of v3 keep
// their type numbers but are no longer answered.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"

namespace procheck::net {

inline constexpr std::uint16_t kWireMagic = 0x50C5;
/// Current protocol generation: v4 = one batch query frame pair on top of
/// the v2 authenticated multi-session handshake.
inline constexpr std::uint8_t kWireVersion = 4;
/// Oldest version a server still *serves*: a v1, v2 or v3 hello is refused
/// with upgrade_required.
inline constexpr std::uint8_t kMinServedVersion = 4;
/// Oldest version the decoder still *parses* (so the server can answer a
/// legacy hello with a structured upgrade-required close rather than
/// mis-framing).
inline constexpr std::uint8_t kMinWireVersion = 1;
/// Fixed body bytes besides the payload (magic..seq + trailing CRC).
inline constexpr std::size_t kFrameOverhead = 16;
/// Payload bound: batched words and error strings are short; anything bigger
/// is a corrupted length prefix and must not drive allocation. Sized so a
/// maximal batch ack (kMaxBatchSymbols output symbols of kMaxSymbolChars
/// each, plus separators) always fits — the server never has to truncate a
/// reply it already computed.
inline constexpr std::size_t kMaxFramePayload = 16384;

enum class FrameType : std::uint8_t {
  kHello = 1,     // client → server: open a session (payload: client note)
  kHelloAck,      // server → client: session admitted (payload: profile name)
  kReset,         // retired v2 per-symbol reset (no longer served)
  kResetAck,      // retired
  kStep,          // retired v2 per-symbol step (no longer served)
  kStepAck,       // retired
  kPing,          // keepalive probe
  kPong,          //
  kBye,           // orderly session end
  kError,         // server → client: structured refusal (payload: reason)
  kChallenge,     // server → client: PSK auth nonce (payload: hex nonce)
  kAuthResponse,  // client → server: HMAC over nonce+epoch (payload: hex mac)
  kServerBusy,    // server → client: admission rejected (payload: reason)
  kClose,         // server → client: structured session teardown (reason)
  kQueryWord,     // retired v3 single-word query (no longer served)
  kWordAck,       // retired
  kQueryBatch,    // client → server: 1..kMaxBatchWords words (payload)
  kBatchAck,      // server → client: each word's outputs, in request order
};

std::string_view to_string(FrameType type);
bool known_frame_type(std::uint8_t raw);

// --- Batch payload codec (DESIGN.md §14) ------------------------------------
// Words are symbol lists over the learning alphabet; symbols are short
// identifier-like tokens ([A-Za-z0-9_.-]), so ',' separates symbols within a
// word and ';' separates words within a batch. A kQueryBatch carries its
// words in this codec and the kBatchAck carries their outputs in it too. The
// empty word (ε) is only valid as a one-item batch (the empty payload). The
// decoder is total and length-bounded: a payload with too many words or
// symbols, oversized symbols, or any separator/illegal byte inside a symbol
// is a structured decode failure — never an allocation driven by
// attacker-controlled counts.

/// Hard per-word and per-batch codec bounds. Chosen so a full batch of
/// worst-case words still fits kMaxFramePayload.
inline constexpr std::size_t kMaxWordSymbols = 64;
inline constexpr std::size_t kMaxSymbolChars = 48;
inline constexpr std::size_t kMaxBatchWords = 64;
/// Total symbols across one batch, so the worst-case ack stays well under
/// kMaxFramePayload: kMaxBatchSymbols * (kMaxSymbolChars + 1) separator
/// bytes included < 16 KiB.
inline constexpr std::size_t kMaxBatchSymbols = 256;
/// Words per kQueryBatch a client sends unless told otherwise.
inline constexpr int kDefaultBatchWords = 16;

std::string encode_batch(const std::vector<std::vector<std::string>>& words);
/// The same encoding of words held elsewhere: the client frames the
/// caller's words without copying them.
std::string encode_batch(const std::vector<const std::vector<std::string>*>& words);
/// Decodes at most min(max_words, kMaxBatchWords) words (0 = kMaxBatchWords).
std::optional<std::vector<std::vector<std::string>>> decode_batch(std::string_view text,
                                                                  std::size_t max_words);

// Reason tokens carried by kServerBusy / kClose payloads. Machine-matchable
// (the client surfaces them verbatim in stats and CLI diagnostics).
inline constexpr const char* kReasonServerBusy = "server_busy";
inline constexpr const char* kReasonDraining = "draining";
inline constexpr const char* kReasonAuthFailed = "auth_failed";
inline constexpr const char* kReasonUpgradeRequired =
    "upgrade_required: protocol v4 batch queries; rebuild your client";
inline constexpr const char* kReasonQuotaQueries = "quota_exceeded: queries";
inline constexpr const char* kReasonQuotaBytes = "quota_exceeded: bytes";
inline constexpr const char* kReasonQuotaWall = "quota_exceeded: wall_clock";
inline constexpr const char* kReasonIdleTimeout = "idle_timeout";
inline constexpr const char* kReasonDrained = "drained";
inline constexpr const char* kReasonSessionError = "session_error";
// Per-request refusal tokens for batch queries (kError payloads; the session
// survives them — a refused request mutated no SUL state).
inline constexpr const char* kReasonBadBatch = "bad_batch";
inline constexpr const char* kReasonBatchTooLarge = "batch_too_large";

// --- PSK authentication (DESIGN.md §13) --------------------------------------
// Challenge/response over the reserved hello payload slot: the server sends a
// fresh per-connection nonce, the client answers with a keyed MAC over
// (nonce, epoch) under the shared PSK, and the server compares in constant
// time. Anti-replay falls out of nonce freshness: a captured auth_response is
// bound to a nonce that will never be issued again. The MAC is the
// simulation-grade keyed PRF of common/rng.h (DESIGN.md §1: logical — not
// cryptographic — strength is what this reproduction models).

/// Hex-encoded 64-bit MAC binding the shared key to this connection's nonce
/// and epoch. Both sides compute it; the server compares in constant time.
std::string auth_mac(const std::string& psk, const std::string& nonce_hex,
                     std::uint32_t epoch);

/// Length-leaking-only comparison: runtime independent of *where* the inputs
/// differ, so a byte-at-a-time MAC oracle cannot exist.
bool constant_time_equal(std::string_view a, std::string_view b);

struct Frame {
  FrameType type = FrameType::kError;
  /// Protocol version this frame was encoded with (decode fills it in; the
  /// server uses it to version-gate the hello).
  std::uint8_t version = kWireVersion;
  std::uint32_t epoch = 0;
  std::uint32_t seq = 0;
  std::string payload;

  bool operator==(const Frame&) const = default;
};

/// Serializes one frame (length prefix included).
Bytes encode_frame(const Frame& frame);

enum class DecodeStatus : std::uint8_t {
  kFrame,     // one frame decoded
  kNeedMore,  // prefix of a valid frame; feed more bytes
  kBadFrame,  // framing error (bad magic/version/length/CRC/type)
};

struct Decoded {
  DecodeStatus status = DecodeStatus::kNeedMore;
  Frame frame;        // valid when status == kFrame
  std::string error;  // valid when status == kBadFrame
};

/// One-shot decoder over the start of `wire`. `consumed` (optional) receives
/// the bytes a kFrame result used. Total: never throws, never reads out of
/// bounds.
Decoded decode_frame(const Bytes& wire, std::size_t* consumed = nullptr);

/// Incremental stream decoder: feed received chunks, pop frames. The first
/// framing error poisons the reader (every subsequent next() repeats it)
/// until reset() — callers drop the connection and start a fresh stream.
class FrameReader {
 public:
  void feed(const std::uint8_t* data, std::size_t n);
  void feed(const Bytes& data) { feed(data.data(), data.size()); }

  Decoded next();

  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buf_.size() - pos_; }
  bool poisoned() const { return poisoned_; }

  /// Forgets everything (new connection).
  void reset();

 private:
  Bytes buf_;
  std::size_t pos_ = 0;
  bool poisoned_ = false;
  std::string poison_reason_;
};

}  // namespace procheck::net
