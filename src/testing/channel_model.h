// Seeded, deterministic fault-injection channel model.
//
// The paper's Dolev–Yao adversary and SDR testbed assume the air interface
// can lose, repeat, reorder, delay, and mangle messages; the in-process
// testbed originally delivered every PDU exactly once, in order. The
// ChannelModel closes that gap: every PDU crossing a Testbed channel is
// routed through it *before* the adversary interceptors, and its fate is
// decided by per-direction fault probabilities drawn from a dedicated
// SplitMix64 stream — fully reproducible for a fixed seed, and byte-for-byte
// inert when every probability is zero (the fault-free regression contract
// the chaos conformance runner relies on).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/rng.h"
#include "nas/messages.h"

namespace procheck::testing {

/// Per-direction fault probabilities, each in [0, 1].
struct FaultProfile {
  double drop = 0.0;       // PDU vanishes in transit
  double duplicate = 0.0;  // a second copy is queued behind the original
  double reorder = 0.0;    // PDU is pushed behind the rest of its queue
  double delay = 0.0;      // PDU is held back for a few delivery steps
  double corrupt = 0.0;    // one random payload/MAC bit is flipped

  bool active() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || delay > 0 || corrupt > 0;
  }
};

struct ChannelConfig {
  FaultProfile downlink;
  FaultProfile uplink;
  /// Seed of the channel's own Rng stream (independent of the MME's).
  std::uint64_t seed = 0xC4A05C4A05ULL;
  /// Upper bound, in delivery steps, a delayed PDU is held back.
  int max_delay_steps = 3;
};

/// The fate the channel decided for one PDU.
enum class ChannelFault : std::uint8_t {
  kNone,
  kDrop,
  kDuplicate,
  kReorder,
  kDelay,
  kCorrupt,
};

struct ChannelStats {
  struct Direction {
    std::size_t offered = 0;  // PDUs that entered the channel
    std::size_t dropped = 0;
    std::size_t duplicated = 0;
    std::size_t reordered = 0;
    std::size_t delayed = 0;
    std::size_t corrupted = 0;

    std::size_t faults() const {
      return dropped + duplicated + reordered + delayed + corrupted;
    }
  };
  Direction downlink;
  Direction uplink;

  std::size_t total_faults() const { return downlink.faults() + uplink.faults(); }
  /// Accumulates another channel's counters (per-case testbeds → suite total).
  void merge(const ChannelStats& other);
};

class ChannelModel {
 public:
  explicit ChannelModel(ChannelConfig config = {})
      : config_(config), rng_(config.seed) {}

  /// Decides the fate of one PDU about to cross the channel. At most one
  /// fault fires per PDU (drawn in drop → corrupt → duplicate → reorder →
  /// delay order); kCorrupt flips one random bit of `pdu` in place. When the
  /// direction's profile is entirely zero this returns kNone without
  /// consuming any randomness.
  ChannelFault transfer(bool is_downlink, nas::NasPdu& pdu);

  /// Hold time, in delivery steps, for a PDU the channel decided to delay.
  int draw_delay();

  const ChannelConfig& config() const { return config_; }
  const ChannelStats& stats() const { return stats_; }

 private:
  bool roll(double probability);
  void flip_random_bit(nas::NasPdu& pdu);

  ChannelConfig config_;
  Rng rng_;
  ChannelStats stats_;
};

}  // namespace procheck::testing
