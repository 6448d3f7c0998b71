#include "rrc/rrc_stack.h"

namespace procheck::rrc {

std::string_view to_string(RrcState s) {
  switch (s) {
    case RrcState::kIdle:
      return "RRC_IDLE";
    case RrcState::kConnecting:
      return "RRC_CONNECTING";
    case RrcState::kConnected:
      return "RRC_CONNECTED";
  }
  return "RRC_IDLE";
}

Bytes RrcPdu::encode() const {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(type));
  if (nas) {
    w.u8(1);
    w.blob(nas->encode());
  } else {
    w.u8(0);
  }
  return w.take();
}

std::optional<RrcPdu> RrcPdu::decode(const Bytes& wire) {
  ByteReader r(wire);
  auto type = r.u8();
  auto has_nas = r.u8();
  if (!type || !has_nas ||
      *type > static_cast<std::uint8_t>(RrcMsgType::kConnectionRelease) || *has_nas > 1) {
    return std::nullopt;
  }
  RrcPdu pdu;
  pdu.type = static_cast<RrcMsgType>(*type);
  if (*has_nas == 1) {
    auto blob = r.blob();
    if (!blob) return std::nullopt;
    auto nas_pdu = nas::NasPdu::decode(*blob);
    if (!nas_pdu) return std::nullopt;
    pdu.nas = std::move(*nas_pdu);
  }
  if (!r.at_end()) return std::nullopt;
  return pdu;
}

// --- RrcUe -------------------------------------------------------------------

RrcUe::RrcUe(ue::StackProfile profile, std::uint64_t key, std::string imsi,
             instrument::TraceLogger* rrc_trace, instrument::TraceLogger* nas_trace)
    : trace_(rrc_trace), nas_(std::move(profile), key, std::move(imsi), nas_trace) {}

void RrcUe::trace_enter_recv(std::string_view name) {
  if (trace_) trace_->enter("recv_" + std::string(name));
  trace_globals();
}

void RrcUe::trace_globals() {
  if (!trace_) return;
  trace_->global("rrc_state", to_string(state_));
  trace_->global("as_security", as_security_ ? 1 : 0);
}

void RrcUe::set_state(RrcState next) {
  state_ = next;
  if (trace_) trace_->global("rrc_state", to_string(state_));
}

std::vector<RrcPdu> RrcUe::encapsulate(std::vector<nas::NasPdu> nas_pdus) {
  std::vector<RrcPdu> out;
  for (nas::NasPdu& pdu : nas_pdus) {
    if (state_ != RrcState::kConnected) {
      // NAS traffic before the connection completes is held and carried by
      // the setup-complete message.
      pending_initial_nas_ = std::move(pdu);
      continue;
    }
    if (trace_) trace_->enter("send_rrc_ul_information_transfer");
    RrcPdu rrc;
    rrc.type = RrcMsgType::kUlInformationTransfer;
    rrc.nas = std::move(pdu);
    out.push_back(std::move(rrc));
  }
  return out;
}

std::vector<RrcPdu> RrcUe::power_on() {
  trace_enter_recv("rrc_power_on_trigger");
  set_state(RrcState::kConnecting);
  // The NAS attach request is generated now and piggybacked on setup
  // completion (TS 36.331's dedicated NAS info in setup-complete).
  std::vector<nas::NasPdu> nas_up = nas_.power_on_attach();
  if (!nas_up.empty()) pending_initial_nas_ = std::move(nas_up.front());
  if (trace_) trace_->enter("send_rrc_connection_request");
  RrcPdu req;
  req.type = RrcMsgType::kConnectionRequest;
  trace_globals();
  return {req};
}

std::vector<RrcPdu> RrcUe::handle_downlink(const RrcPdu& pdu) {
  std::vector<RrcPdu> out;
  switch (pdu.type) {
    case RrcMsgType::kConnectionSetup: {
      trace_enter_recv("rrc_connection_setup");
      if (state_ != RrcState::kConnecting) {
        if (trace_) trace_->local("state_ok", std::uint64_t{0});
        return {};
      }
      set_state(RrcState::kConnected);
      if (trace_) trace_->enter("send_rrc_connection_setup_complete");
      RrcPdu complete;
      complete.type = RrcMsgType::kConnectionSetupComplete;
      if (pending_initial_nas_) {
        complete.nas = std::move(*pending_initial_nas_);
        pending_initial_nas_.reset();
      }
      trace_globals();
      return {complete};
    }
    case RrcMsgType::kSecurityModeCommand: {
      trace_enter_recv("rrc_security_mode_command");
      as_security_ = true;
      if (trace_) trace_->local("as_keys_derived", std::uint64_t{1});
      if (trace_) trace_->enter("send_rrc_security_mode_complete");
      RrcPdu complete;
      complete.type = RrcMsgType::kSecurityModeComplete;
      trace_globals();
      return {complete};
    }
    case RrcMsgType::kConnectionReconfiguration: {
      trace_enter_recv("rrc_connection_reconfiguration");
      if (trace_) trace_->enter("send_rrc_connection_reconfiguration_complete");
      RrcPdu complete;
      complete.type = RrcMsgType::kConnectionReconfigurationComplete;
      trace_globals();
      return {complete};
    }
    case RrcMsgType::kConnectionRelease: {
      trace_enter_recv("rrc_connection_release");
      set_state(RrcState::kIdle);
      as_security_ = false;
      trace_globals();
      return {};
    }
    case RrcMsgType::kDlInformationTransfer: {
      trace_enter_recv("rrc_dl_information_transfer");
      trace_globals();
      if (!pdu.nas) return {};
      // Hand the payload up: the NAS layer logs its own handlers into its
      // own trace — the per-layer separation of challenge C4.
      return encapsulate(nas_.handle_downlink(*pdu.nas));
    }
    default:
      trace_enter_recv("rrc_unexpected");
      return {};
  }
}

// --- RrcEnb ------------------------------------------------------------------

RrcEnb::RrcEnb(mme::MmeNas* mme, int conn_id, instrument::TraceLogger* trace)
    : mme_(mme), conn_id_(conn_id), trace_(trace) {}

RrcPdu RrcEnb::wrap_downlink(const nas::NasPdu& pdu) const {
  RrcPdu rrc;
  rrc.type = RrcMsgType::kDlInformationTransfer;
  rrc.nas = pdu;
  return rrc;
}

std::vector<RrcPdu> RrcEnb::handle_uplink(const RrcPdu& pdu) {
  std::vector<RrcPdu> out;
  auto forward_nas = [&](const nas::NasPdu& nas_pdu) {
    for (const mme::Outgoing& o : mme_->handle_uplink(conn_id_, nas_pdu)) {
      out.push_back(wrap_downlink(o.pdu));
    }
  };

  switch (pdu.type) {
    case RrcMsgType::kConnectionRequest: {
      if (trace_) trace_->enter("recv_rrc_connection_request");
      connected_ = false;
      RrcPdu setup;
      setup.type = RrcMsgType::kConnectionSetup;
      out.push_back(setup);
      return out;
    }
    case RrcMsgType::kConnectionSetupComplete: {
      if (trace_) trace_->enter("recv_rrc_connection_setup_complete");
      connected_ = true;
      if (pdu.nas) forward_nas(*pdu.nas);
      // AS security activates once the NAS attach carries keys; simplified:
      // the eNB issues its SMC right after the setup completes.
      if (!as_security_) {
        as_security_ = true;
        RrcPdu smc;
        smc.type = RrcMsgType::kSecurityModeCommand;
        out.push_back(smc);
      }
      return out;
    }
    case RrcMsgType::kSecurityModeComplete:
      if (trace_) trace_->enter("recv_rrc_security_mode_complete");
      return out;
    case RrcMsgType::kUlInformationTransfer:
      if (trace_) trace_->enter("recv_rrc_ul_information_transfer");
      if (connected_ && pdu.nas) forward_nas(*pdu.nas);
      return out;
    case RrcMsgType::kConnectionReconfigurationComplete:
      return out;
    default:
      return out;
  }
}

void exchange(RrcUe& ue, RrcEnb& enb, std::vector<RrcPdu> initial_uplink, int max_steps) {
  std::vector<RrcPdu> uplink = std::move(initial_uplink);
  std::vector<RrcPdu> downlink;
  for (int step = 0; step < max_steps && (!uplink.empty() || !downlink.empty()); ++step) {
    if (!downlink.empty()) {
      RrcPdu pdu = downlink.front();
      downlink.erase(downlink.begin());
      for (RrcPdu& out : ue.handle_downlink(pdu)) uplink.push_back(std::move(out));
      continue;
    }
    RrcPdu pdu = uplink.front();
    uplink.erase(uplink.begin());
    for (RrcPdu& out : enb.handle_uplink(pdu)) downlink.push_back(std::move(out));
  }
}

}  // namespace procheck::rrc
