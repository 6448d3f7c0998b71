// NAS (Non-Access Stratum) EMM message model.
//
// Messages carry the 3GPP TS 24.301 protocol discriminators the paper's
// extractor relies on: every message type has a *standard name*
// (`attach_request`, `authentication_request`, ...) which implementations
// embed in their handler function names (send_/recv_/parse_/emm_send_ +
// standard name). Payload fields are a small named-field map so the codec,
// MAC computation, and the testbed adversary can treat all messages
// uniformly while handlers use typed accessors.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "common/bytes.h"

namespace procheck::nas {

/// EMM message types used by the NAS layer procedures of Fig. 1.
enum class MsgType : std::uint8_t {
  kAttachRequest,
  kAttachAccept,
  kAttachComplete,
  kAttachReject,
  kAuthenticationRequest,
  kAuthenticationResponse,
  kAuthenticationReject,
  kAuthenticationFailure,  // carries cause: MAC failure or sync failure (+AUTS)
  kSecurityModeCommand,
  kSecurityModeComplete,
  kSecurityModeReject,
  kIdentityRequest,
  kIdentityResponse,
  kGutiReallocationCommand,
  kGutiReallocationComplete,
  kTauRequest,
  kTauAccept,
  kTauReject,
  kDetachRequest,
  kDetachAccept,
  kServiceRequest,
  kServiceReject,
  kPaging,
  kEmmInformation,
  kConfigurationUpdateCommand,   // 5G-style procedure (paper's P3 5G impact)
  kConfigurationUpdateComplete,
  // 5G NR registration-management messages (TS 24.501; used by the nr/
  // module implementing the paper's "ProChecker for 5G" adaptation).
  kRegistrationRequest,
  kRegistrationAccept,
  kRegistrationComplete,
  kRegistrationReject,
  kDeregistrationRequest,
  kDeregistrationAccept,
};

/// Security header type octet (TS 24.301 §9.3.1). kPlain is the 0x0 header
/// the paper's I2 finding is about (OAI accepting plain messages after the
/// security context is established).
enum class SecHdr : std::uint8_t {
  kPlain = 0x0,
  kIntegrity = 0x1,
  kIntegrityCiphered = 0x2,
};

/// EMM cause values (subset relevant to the modeled procedures).
enum class EmmCause : std::uint8_t {
  kNone = 0,
  kImsiUnknown = 2,
  kIllegalUe = 3,
  kMacFailure = 20,
  kSynchFailure = 21,
  kCongestion = 22,
  kSecurityModeRejected = 24,
  kNotAuthorized = 35,
};

/// Returns the 3GPP standard name (e.g. "attach_request"). These names are
/// what the model extractor matches in handler signatures.
std::string_view standard_name(MsgType t);

/// Inverse of standard_name(); nullopt for unknown names.
std::optional<MsgType> msg_type_from_name(std::string_view name);

std::string_view to_string(SecHdr h);
std::string_view to_string(EmmCause c);

/// A NAS message: protected header fields plus a named payload-field map.
/// Field maps (rather than one struct per message) keep the codec, the MAC
/// input, and the Dolev–Yao adversary's field-level tampering generic; the
/// per-procedure field vocabulary is documented on the handlers that use it.
struct NasMessage {
  MsgType type = MsgType::kAttachRequest;
  SecHdr sec_hdr = SecHdr::kPlain;
  std::uint32_t count = 0;  // NAS COUNT (sequence number) when protected
  std::uint64_t mac = 0;    // message authentication code when protected

  std::map<std::string, std::uint64_t> u;  // numeric fields
  std::map<std::string, std::string> s;    // string fields (identities, causes)
  std::map<std::string, Bytes> b;          // octet fields (RAND, AUTN, AUTS)

  NasMessage() = default;
  explicit NasMessage(MsgType t) : type(t) {}

  /// Typed accessors with defaults; keep handler code readable.
  std::uint64_t get_u(const std::string& k, std::uint64_t dflt = 0) const;
  std::string get_s(const std::string& k, const std::string& dflt = {}) const;
  Bytes get_b(const std::string& k) const;
  bool has(const std::string& k) const;

  NasMessage& set_u(const std::string& k, std::uint64_t v);
  NasMessage& set_s(const std::string& k, std::string v);
  NasMessage& set_b(const std::string& k, Bytes v);

  bool operator==(const NasMessage&) const = default;
};

/// Serializes the payload portion (type + fields) deterministically. This is
/// the plaintext the cipher operates on and (together with the count) the
/// MAC input.
Bytes encode_payload(const NasMessage& m);

/// Decodes a payload produced by encode_payload(); nullopt on malformed
/// input (used by the stacks' well-formedness checks).
std::optional<NasMessage> decode_payload(const Bytes& payload);

/// Full PDU: [sec_hdr u8 | count u32 | mac u64 | payload]. The payload is
/// the (possibly ciphered) encode_payload() output.
struct NasPdu {
  SecHdr sec_hdr = SecHdr::kPlain;
  std::uint32_t count = 0;
  std::uint64_t mac = 0;
  Bytes payload;

  Bytes encode() const;
  static std::optional<NasPdu> decode(const Bytes& wire);
  bool operator==(const NasPdu&) const = default;
};

}  // namespace procheck::nas
