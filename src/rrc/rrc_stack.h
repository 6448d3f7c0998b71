// RRC layer substrate — the paper's challenge C4 ("Layered protocol"): 4G
// has a layered architecture, a single model of all layers would break
// model-checker scalability, so ProChecker instruments and extracts one
// layer at a time ("we only extract interactions of a particular layer from
// the execution logs").
//
// This module provides the layer *below* NAS: an RRC connection machine
// (TS 36.331 shape — connection establishment, security activation,
// reconfiguration, release) that encapsulates NAS PDUs in information-
// transfer messages. Each layer logs to its own TraceLogger, and the
// unchanged extractor produces two independent machines from one run:
//   * the RRC FSM over RRC_IDLE / RRC_CONNECTING / RRC_CONNECTED with
//     rrc_* conditions, and
//   * the NAS FSM, identical to the one extracted without the RRC layer —
//     the layering is transparent to the upper layer's model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "instrument/trace_log.h"
#include "mme/mme_nas.h"
#include "nas/messages.h"
#include "ue/ue_nas.h"

namespace procheck::rrc {

/// RRC message types (TS 36.331 subset).
enum class RrcMsgType : std::uint8_t {
  kConnectionRequest,
  kConnectionSetup,
  kConnectionSetupComplete,   // carries the initial NAS message
  kUlInformationTransfer,     // carries NAS uplink
  kDlInformationTransfer,     // carries NAS downlink
  kSecurityModeCommand,       // AS security activation
  kSecurityModeComplete,
  kConnectionReconfiguration,
  kConnectionReconfigurationComplete,
  kConnectionRelease,
};

/// RRC PDU: a typed header plus an optional encapsulated NAS PDU.
struct RrcPdu {
  RrcMsgType type = RrcMsgType::kConnectionRequest;
  std::optional<nas::NasPdu> nas;

  Bytes encode() const;
  static std::optional<RrcPdu> decode(const Bytes& wire);
  bool operator==(const RrcPdu&) const = default;
};

/// RRC connection states (TS 36.331 §4.2.1 plus an explicit connecting
/// intermediate, which the extractor surfaces as a substate).
enum class RrcState : std::uint8_t { kIdle, kConnecting, kConnected };

std::string_view to_string(RrcState s);

inline constexpr std::string_view kRrcStateNames[] = {
    "RRC_IDLE",
    "RRC_CONNECTING",
    "RRC_CONNECTED",
};

/// UE-side RRC machine wrapping the NAS stack: NAS uplink is encapsulated,
/// downlink information transfers are decapsulated and handed up.
class RrcUe {
 public:
  /// `rrc_trace` instruments this layer; the wrapped NAS stack keeps its
  /// own logger (per-layer instrumentation, the C4 fix).
  RrcUe(ue::StackProfile profile, std::uint64_t key, std::string imsi,
        instrument::TraceLogger* rrc_trace = nullptr,
        instrument::TraceLogger* nas_trace = nullptr);

  /// Power-on: establishes the RRC connection, then runs the NAS attach
  /// through it. Returns the uplink RRC PDUs.
  std::vector<RrcPdu> power_on();
  /// Downlink entry point; returns responsive uplink RRC PDUs.
  std::vector<RrcPdu> handle_downlink(const RrcPdu& pdu);

  RrcState state() const { return state_; }
  ue::UeNas& nas() { return nas_; }
  int as_security_activated() const { return as_security_ ? 1 : 0; }

 private:
  std::vector<RrcPdu> encapsulate(std::vector<nas::NasPdu> nas_pdus);
  void trace_enter_recv(std::string_view name);
  void trace_globals();
  void set_state(RrcState next);

  instrument::TraceLogger* trace_;
  ue::UeNas nas_;
  RrcState state_ = RrcState::kIdle;
  bool as_security_ = false;
  std::optional<nas::NasPdu> pending_initial_nas_;
};

/// eNodeB + S1 glue: terminates RRC, forwards NAS to/from the MME.
class RrcEnb {
 public:
  explicit RrcEnb(mme::MmeNas* mme, int conn_id,
                  instrument::TraceLogger* trace = nullptr);

  std::vector<RrcPdu> handle_uplink(const RrcPdu& pdu);
  /// Wraps MME-originated NAS downlink.
  RrcPdu wrap_downlink(const nas::NasPdu& pdu) const;

 private:
  mme::MmeNas* mme_;
  int conn_id_;
  instrument::TraceLogger* trace_;
  bool connected_ = false;
  bool as_security_ = false;
};

/// Drives a UE/eNB pair until quiescent (test/demo harness).
void exchange(RrcUe& ue, RrcEnb& enb, std::vector<RrcPdu> initial_uplink,
              int max_steps = 400);

}  // namespace procheck::rrc
