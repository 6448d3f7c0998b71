#include "testing/channel_model.h"

#include <algorithm>
#include <cmath>

namespace procheck::testing {

void ChannelStats::merge(const ChannelStats& other) {
  auto add = [](Direction& into, const Direction& from) {
    into.offered += from.offered;
    into.dropped += from.dropped;
    into.duplicated += from.duplicated;
    into.reordered += from.reordered;
    into.delayed += from.delayed;
    into.corrupted += from.corrupted;
  };
  add(downlink, other.downlink);
  add(uplink, other.uplink);
}

bool ChannelModel::roll(double probability) {
  // Fixed-point comparison keeps the draw platform-independent; zero-rate
  // faults consume no randomness, so single-fault regimes draw identical
  // streams regardless of which other knobs exist.
  if (probability <= 0.0) return false;
  if (probability >= 1.0) return true;
  const auto threshold = static_cast<std::uint64_t>(std::llround(probability * 1'000'000.0));
  return rng_.next_below(1'000'000) < threshold;
}

void ChannelModel::flip_random_bit(nas::NasPdu& pdu) {
  if (!pdu.payload.empty()) {
    const std::size_t byte = static_cast<std::size_t>(rng_.next_below(pdu.payload.size()));
    pdu.payload[byte] ^= static_cast<std::uint8_t>(1u << rng_.next_below(8));
    return;
  }
  // Payload-less PDU: mangle the MAC instead.
  pdu.mac ^= std::uint64_t{1} << rng_.next_below(64);
}

ChannelFault ChannelModel::transfer(bool is_downlink, nas::NasPdu& pdu) {
  const FaultProfile& profile = is_downlink ? config_.downlink : config_.uplink;
  ChannelStats::Direction& dir = is_downlink ? stats_.downlink : stats_.uplink;
  ++dir.offered;
  if (!profile.active()) return ChannelFault::kNone;

  if (roll(profile.drop)) {
    ++dir.dropped;
    return ChannelFault::kDrop;
  }
  if (roll(profile.corrupt)) {
    flip_random_bit(pdu);
    ++dir.corrupted;
    return ChannelFault::kCorrupt;
  }
  if (roll(profile.duplicate)) {
    ++dir.duplicated;
    return ChannelFault::kDuplicate;
  }
  if (roll(profile.reorder)) {
    ++dir.reordered;
    return ChannelFault::kReorder;
  }
  if (roll(profile.delay)) {
    ++dir.delayed;
    return ChannelFault::kDelay;
  }
  return ChannelFault::kNone;
}

int ChannelModel::draw_delay() {
  const int bound = std::max(1, config_.max_delay_steps);
  return 1 + static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(bound)));
}

}  // namespace procheck::testing
