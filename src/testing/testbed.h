// In-process testbed: live UE and MME stacks connected by two unidirectional
// channels with a programmable man-in-the-middle position.
//
// This substitutes for the paper's SDR testbed (§VI "Testbed"): it is where
// conformance test cases execute against the running stacks, and where
// verified counterexamples from the checker are *replayed against the live
// implementation* to confirm attacks end-to-end (drop / inject / modify /
// replay — the Dolev–Yao capabilities).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "instrument/trace_log.h"
#include "mme/mme_nas.h"
#include "nas/messages.h"
#include "testing/channel_model.h"
#include "ue/profile.h"
#include "ue/ue_nas.h"

namespace procheck::testing {

/// What the man-in-the-middle decides for one in-flight PDU.
struct AdversaryAction {
  enum class Kind : std::uint8_t { kPass, kDrop, kReplace };
  Kind kind = Kind::kPass;
  nas::NasPdu replacement;  // used when kReplace

  static AdversaryAction pass() { return {}; }
  static AdversaryAction drop() { return {Kind::kDrop, {}}; }
  static AdversaryAction replace(nas::NasPdu pdu) { return {Kind::kReplace, std::move(pdu)}; }
};

/// Per-direction interceptor: observes every PDU (after capture) and decides
/// its fate. conn_id identifies which UE's channel the PDU is on.
using Interceptor = std::function<AdversaryAction(int conn_id, const nas::NasPdu&)>;

/// A captured PDU crossing a channel (the adversary's recording capability).
struct Capture {
  int conn_id = 0;
  nas::NasPdu pdu;
  bool delivered = true;  // false if the adversary dropped it
  /// White-box cleartext view, decoded at capture time with the then-live
  /// session keys (verdict-side convenience; not adversary knowledge).
  std::optional<nas::NasMessage> clear;
};

class Testbed {
 public:
  /// `ue_trace` instruments the UE NAS layer; `mme_trace` the MME layer.
  /// Passing separate (or null) sinks mirrors the paper's per-layer
  /// instrumentation: the extractor must only see the target layer's log.
  explicit Testbed(instrument::TraceLogger* ue_trace = nullptr,
                   instrument::TraceLogger* mme_trace = nullptr,
                   std::uint64_t seed = 0x7E57BEDULL);

  /// Provisions a subscriber and creates its UE; returns its connection id.
  int add_ue(const ue::StackProfile& profile, const std::string& imsi, std::uint64_t key);

  /// Creates a UE whose IMSI is *not* provisioned in the HSS (exercises the
  /// identification/reject paths).
  int add_unprovisioned_ue(const ue::StackProfile& profile, const std::string& imsi,
                           std::uint64_t key);

  ue::UeNas& ue(int conn_id) { return ues_.at(conn_id); }
  mme::MmeNas& mme() { return mme_; }

  void set_downlink_interceptor(Interceptor fn) { downlink_icpt_ = std::move(fn); }
  void set_uplink_interceptor(Interceptor fn) { uplink_icpt_ = std::move(fn); }
  void clear_interceptors();

  /// Installs a fault-injection channel model; every PDU crossing either
  /// direction is routed through it *before* the adversary interceptors.
  /// Without a channel (or with all probabilities zero) delivery is
  /// byte-identical to the fault-free testbed.
  void set_channel(const ChannelConfig& config) { channel_.emplace(config); }
  const ChannelModel* channel() const { return channel_ ? &*channel_ : nullptr; }

  // --- Driving.
  /// UE-side internal events (enqueue the resulting uplink traffic).
  void power_on(int conn_id);
  void ue_detach(int conn_id);
  void ue_service_request(int conn_id);
  void ue_tau(int conn_id);
  /// MME-side procedure starts.
  void mme_guti_reallocation(int conn_id);
  void mme_identity_request(int conn_id);
  void mme_detach(int conn_id);
  void mme_configuration_update(int conn_id);
  void mme_paging(int conn_id);

  /// Adversary injections (placed on the wire as-is).
  void inject_downlink(int conn_id, const nas::NasPdu& pdu);
  void inject_uplink(int conn_id, const nas::NasPdu& pdu);

  /// Delivers queued messages (through the interceptors) until both
  /// directions are quiescent or `max_steps` deliveries happened; true iff
  /// the testbed quiesced. Running out of steps is the testbed-level
  /// watchdog trip — traffic was still in flight (a fault-induced livelock)
  /// — and counts in step_limit_hits(), which callers surface instead of
  /// silently treating the scenario as settled. When the only remaining
  /// traffic is parked in the delay line, the logical clock fast-forwards
  /// to the next release horizon, so the iteration count is bounded by
  /// actual deliveries — a long kDelay draw cannot eat the whole step
  /// budget one idle tick at a time.
  bool run_until_quiet(int max_steps = 1000);

  /// Number of run_until_quiet calls that hit their step budget without
  /// quiescing. Callers diff this across a scenario to detect livelocks.
  std::size_t step_limit_hits() const { return step_limit_hits_; }

  /// Advances MME and UE logical time by `n` ticks, delivering any
  /// retransmissions after each tick.
  void tick(int n = 1);

  // --- Adversary's recordings.
  const std::vector<Capture>& downlink_captures() const { return dl_captures_; }
  const std::vector<Capture>& uplink_captures() const { return ul_captures_; }
  /// Convenience: most recent captured downlink PDU of the given type.
  const nas::NasPdu* last_downlink_of_type(int conn_id, nas::MsgType type) const;

  /// White-box decode of a captured PDU (plain or protected): the testbed
  /// owns both endpoints and may use the session keys for *verdicts* —
  /// adversary components must not rely on this for ciphered content.
  std::optional<nas::NasMessage> decode(int conn_id, const nas::NasPdu& pdu,
                                        bool downlink) const;

 private:
  struct QueueItem {
    int conn_id;
    nas::NasPdu pdu;
    // Set on PDUs the channel already faulted (duplicate copies, reordered or
    // delayed re-enqueues): at most one fault fires per PDU.
    bool channel_exempt = false;
  };
  struct DelayedItem {
    QueueItem item;
    bool is_downlink;
    int steps_left;
  };

  void enqueue_uplink(int conn_id, std::vector<nas::NasPdu> pdus);
  void enqueue_downlink(std::vector<mme::Outgoing> out);
  bool step();
  void age_delayed();
  /// Applies the channel to a just-dequeued PDU; returns true when the item
  /// was consumed (dropped, pushed back, or parked) and the step is over.
  bool channel_consumes(QueueItem& item, bool is_downlink, std::deque<QueueItem>& queue);

  instrument::TraceLogger* ue_trace_;
  mme::MmeNas mme_;
  std::map<int, ue::UeNas> ues_;
  int next_conn_ = 1;

  std::deque<QueueItem> uplink_queue_;
  std::deque<QueueItem> downlink_queue_;
  Interceptor downlink_icpt_;
  Interceptor uplink_icpt_;
  std::vector<Capture> dl_captures_;
  std::vector<Capture> ul_captures_;
  std::optional<ChannelModel> channel_;
  std::vector<DelayedItem> delayed_;
  std::size_t step_limit_hits_ = 0;
};

}  // namespace procheck::testing
