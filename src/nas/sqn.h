// Sequence-number generation and verification per TS 33.102 Annex C — the
// scheme whose under-specification the paper's P1/P2 attacks exploit
// (§VII-A, Fig. 5).
//
// SQN = SEQ || IND: the network concatenates a monotonically increasing
// sequence part with a wrapping index part. The USIM keeps an SQN array of
// 2^IND_BITS entries (COTS UEs use IND = 5 bits, so 32 entries); a received
// SQN_j = SEQ_j||IND_j is accepted iff SEQ_j is greater than the SEQ stored
// at index IND_j — which accepts up to 31 *stale* out-of-order SQNs, the
// root cause of P1/P2. Annex C.2.2's freshness limit L would reject SQNs
// older than the highest accepted value by more than L, but the limit is
// optional, its value unspecified, and vendors do not implement it; it is
// modeled here as an optional config knob (the ablation bench enables it).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "nas/crypto.h"

namespace procheck::nas {

inline constexpr unsigned kIndBits = 5;
inline constexpr std::uint32_t kIndCount = 1u << kIndBits;  // 32-entry SQN array
inline constexpr std::uint64_t kIndMask = kIndCount - 1;

/// Structured view of a 48-bit SQN value.
struct Sqn {
  std::uint64_t seq = 0;  // upper 43 bits
  std::uint32_t ind = 0;  // lower 5 bits

  std::uint64_t value() const { return (seq << kIndBits) | (ind & kIndMask); }
  static Sqn from_value(std::uint64_t v) {
    return Sqn{(v & kSqnMask) >> kIndBits, static_cast<std::uint32_t>(v & kIndMask)};
  }
  bool operator==(const Sqn&) const = default;
};

/// Network-side SQN generator (Annex C.1.2 profile): each fresh
/// authentication vector increments SEQ and advances IND cyclically.
class SqnGenerator {
 public:
  SqnGenerator() = default;
  explicit SqnGenerator(std::uint64_t start_seq, std::uint32_t start_ind = 0)
      : seq_(start_seq), ind_(start_ind & kIndMask) {}

  Sqn next();

 private:
  std::uint64_t seq_ = 0;
  std::uint32_t ind_ = kIndCount - 1;  // first next() yields IND 0
};

/// USIM configuration. The defaults reproduce COTS behavior per the paper:
/// no freshness limit (the P1/P2 vulnerability) and strict greater-than SEQ
/// comparison. `accept_equal_seq` models srsUE's I3 deviation (accepting the
/// same SQN again and resetting the counter).
struct UsimConfig {
  std::optional<std::uint64_t> freshness_limit;  // Annex C.2.2 "L"; nullopt = not implemented
  bool accept_equal_seq = false;                 // I3 deviation when true
};

/// USIM authentication core: AUTN verification, SQN-array bookkeeping, RES
/// and KASME computation, and AUTS generation on synchronization failure.
class Usim {
 public:
  Usim(std::uint64_t permanent_key, UsimConfig config = {});

  enum class Result : std::uint8_t { kOk, kMacFailure, kSyncFailure };

  struct Outcome {
    Result result = Result::kMacFailure;
    std::uint64_t res = 0;    // valid when kOk
    std::uint64_t kasme = 0;  // valid when kOk
    Bytes auts;               // valid when kSyncFailure
    Sqn received_sqn;         // recovered SQN (valid unless MAC failed)
    /// kOk with a SEQ equal to the stored one — only possible under the
    /// accept_equal_seq deviation (srsUE's I3 counter reset).
    bool equal_seq_accepted = false;
  };

  /// Processes an authentication challenge (RAND, AUTN) as in Fig. 5.
  Outcome authenticate(const Bytes& rand, const Bytes& autn_raw);

  std::uint64_t seq_at(std::uint32_t ind) const { return seq_array_.at(ind & kIndMask); }
  /// SEQ_MS: highest SEQ accepted anywhere in the array (used in AUTS and
  /// for the freshness-limit check).
  std::uint64_t highest_accepted_seq() const;
  std::uint64_t permanent_key() const { return k_; }

 private:
  std::uint64_t k_;
  UsimConfig config_;
  std::array<std::uint64_t, kIndCount> seq_array_{};  // Fig. 5's SQN_array
};

}  // namespace procheck::nas
