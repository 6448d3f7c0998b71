#include "testing/testbed.h"

#include <algorithm>

namespace procheck::testing {

Testbed::Testbed(instrument::TraceLogger* ue_trace, instrument::TraceLogger* mme_trace,
                 std::uint64_t seed)
    : ue_trace_(ue_trace), mme_(seed, mme_trace) {}

int Testbed::add_ue(const ue::StackProfile& profile, const std::string& imsi,
                    std::uint64_t key) {
  mme_.provision_subscriber(imsi, key);
  return add_unprovisioned_ue(profile, imsi, key);
}

int Testbed::add_unprovisioned_ue(const ue::StackProfile& profile, const std::string& imsi,
                                  std::uint64_t key) {
  int conn_id = next_conn_++;
  ues_.emplace(conn_id, ue::UeNas(profile, key, imsi, ue_trace_));
  return conn_id;
}

void Testbed::clear_interceptors() {
  downlink_icpt_ = nullptr;
  uplink_icpt_ = nullptr;
}

void Testbed::power_on(int conn_id) { enqueue_uplink(conn_id, ue(conn_id).power_on_attach()); }
void Testbed::ue_detach(int conn_id) { enqueue_uplink(conn_id, ue(conn_id).trigger_detach()); }
void Testbed::ue_service_request(int conn_id) {
  enqueue_uplink(conn_id, ue(conn_id).trigger_service_request());
}
void Testbed::ue_tau(int conn_id) { enqueue_uplink(conn_id, ue(conn_id).trigger_tau()); }

void Testbed::mme_guti_reallocation(int conn_id) {
  enqueue_downlink(mme_.start_guti_reallocation(conn_id));
}
void Testbed::mme_identity_request(int conn_id) {
  enqueue_downlink(mme_.start_identity_request(conn_id));
}
void Testbed::mme_detach(int conn_id) { enqueue_downlink(mme_.start_detach(conn_id)); }
void Testbed::mme_configuration_update(int conn_id) {
  enqueue_downlink(mme_.start_configuration_update(conn_id));
}
void Testbed::mme_paging(int conn_id) { enqueue_downlink(mme_.start_paging(conn_id)); }

void Testbed::inject_downlink(int conn_id, const nas::NasPdu& pdu) {
  downlink_queue_.push_back({conn_id, pdu});
}

void Testbed::inject_uplink(int conn_id, const nas::NasPdu& pdu) {
  uplink_queue_.push_back({conn_id, pdu});
}

void Testbed::enqueue_uplink(int conn_id, std::vector<nas::NasPdu> pdus) {
  for (auto& pdu : pdus) uplink_queue_.push_back({conn_id, std::move(pdu)});
}

void Testbed::enqueue_downlink(std::vector<mme::Outgoing> out) {
  for (auto& o : out) downlink_queue_.push_back({o.conn_id, std::move(o.pdu)});
}

void Testbed::age_delayed() {
  for (std::size_t i = 0; i < delayed_.size();) {
    if (--delayed_[i].steps_left > 0) {
      ++i;
      continue;
    }
    DelayedItem released = std::move(delayed_[i]);
    delayed_.erase(delayed_.begin() + static_cast<std::ptrdiff_t>(i));
    released.item.channel_exempt = true;
    (released.is_downlink ? downlink_queue_ : uplink_queue_).push_back(std::move(released.item));
  }
}

bool Testbed::channel_consumes(QueueItem& item, bool is_downlink, std::deque<QueueItem>& queue) {
  if (!channel_ || item.channel_exempt) return false;
  switch (channel_->transfer(is_downlink, item.pdu)) {
    case ChannelFault::kDrop:
      return true;  // physical loss: never reaches the adversary position
    case ChannelFault::kDuplicate: {
      QueueItem copy = item;
      copy.channel_exempt = true;
      queue.push_back(std::move(copy));
      return false;  // original delivered now, copy later
    }
    case ChannelFault::kReorder:
      if (!queue.empty()) {
        item.channel_exempt = true;
        queue.push_back(std::move(item));
        return true;
      }
      return false;  // nothing to slip behind — deliver as-is
    case ChannelFault::kDelay:
      delayed_.push_back({std::move(item), is_downlink, channel_->draw_delay()});
      return true;
    case ChannelFault::kCorrupt:  // bit already flipped in place
    case ChannelFault::kNone:
      return false;
  }
  return false;
}

bool Testbed::step() {
  if (channel_ && !delayed_.empty()) age_delayed();
  // Alternate fairness is unnecessary: drain downlink first so responses to
  // a UE arrive before its next uplink is processed.
  if (!downlink_queue_.empty()) {
    QueueItem item = std::move(downlink_queue_.front());
    downlink_queue_.pop_front();
    if (channel_consumes(item, /*is_downlink=*/true, downlink_queue_)) return true;
    AdversaryAction action =
        downlink_icpt_ ? downlink_icpt_(item.conn_id, item.pdu) : AdversaryAction::pass();
    dl_captures_.push_back({item.conn_id, item.pdu, action.kind != AdversaryAction::Kind::kDrop,
                            decode(item.conn_id, item.pdu, /*downlink=*/true)});
    switch (action.kind) {
      case AdversaryAction::Kind::kDrop:
        return true;
      case AdversaryAction::Kind::kReplace:
        item.pdu = std::move(action.replacement);
        break;
      case AdversaryAction::Kind::kPass:
        break;
    }
    enqueue_uplink(item.conn_id, ue(item.conn_id).handle_downlink(item.pdu));
    return true;
  }
  if (!uplink_queue_.empty()) {
    QueueItem item = std::move(uplink_queue_.front());
    uplink_queue_.pop_front();
    if (channel_consumes(item, /*is_downlink=*/false, uplink_queue_)) return true;
    AdversaryAction action =
        uplink_icpt_ ? uplink_icpt_(item.conn_id, item.pdu) : AdversaryAction::pass();
    ul_captures_.push_back({item.conn_id, item.pdu, action.kind != AdversaryAction::Kind::kDrop,
                            decode(item.conn_id, item.pdu, /*downlink=*/false)});
    switch (action.kind) {
      case AdversaryAction::Kind::kDrop:
        return true;
      case AdversaryAction::Kind::kReplace:
        item.pdu = std::move(action.replacement);
        break;
      case AdversaryAction::Kind::kPass:
        break;
    }
    enqueue_downlink(mme_.handle_uplink(item.conn_id, item.pdu));
    return true;
  }
  // Parked PDUs still count as in-flight traffic: aging them is progress.
  return channel_ && !delayed_.empty();
}

bool Testbed::run_until_quiet(int max_steps) {
  for (int i = 0; i < max_steps; ++i) {
    if (channel_ && downlink_queue_.empty() && uplink_queue_.empty() && !delayed_.empty()) {
      // Only parked traffic remains: each step would age the delay line one
      // tick and do nothing else. Fast-forward the logical clock to one tick
      // before the next release so step budget is spent on deliveries.
      int horizon = delayed_.front().steps_left;
      for (const DelayedItem& d : delayed_) horizon = std::min(horizon, d.steps_left);
      if (horizon > 1) {
        for (DelayedItem& d : delayed_) d.steps_left -= horizon - 1;
      }
    }
    if (!step()) return true;
  }
  ++step_limit_hits_;
  return false;
}

void Testbed::tick(int n) {
  for (int i = 0; i < n; ++i) {
    enqueue_downlink(mme_.tick());
    for (auto& [conn_id, u] : ues_) enqueue_uplink(conn_id, u.tick());
    run_until_quiet();
  }
}

std::optional<nas::NasMessage> Testbed::decode(int conn_id, const nas::NasPdu& pdu,
                                               bool downlink) const {
  if (pdu.sec_hdr == nas::SecHdr::kPlain || pdu.sec_hdr == nas::SecHdr::kIntegrity) {
    return nas::decode_payload(pdu.payload);
  }
  const nas::SecurityContext* ctx = mme_.security(conn_id);
  if (!ctx || !ctx->valid) return std::nullopt;
  Bytes plain = nas::nas_cipher(
      ctx->k_nas_enc, pdu.count,
      downlink ? nas::Direction::kDownlink : nas::Direction::kUplink, pdu.payload);
  return nas::decode_payload(plain);
}

const nas::NasPdu* Testbed::last_downlink_of_type(int conn_id, nas::MsgType type) const {
  for (auto it = dl_captures_.rbegin(); it != dl_captures_.rend(); ++it) {
    if (it->conn_id != conn_id) continue;
    if (it->clear && it->clear->type == type) return &it->pdu;
  }
  return nullptr;
}

}  // namespace procheck::testing
