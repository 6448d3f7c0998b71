// Deterministic structure-aware fuzz smoke for the two parsing frontends:
// the NAS payload/PDU codec (nas/messages.h) and the execution-log parser
// (instrument/trace_log.h). A seeded mutator perturbs members of a valid
// corpus — bit flips, truncations, extensions, splices — and the harness
// asserts the frontends' contracts on every input:
//
//   * no crash / sanitizer trip (the suite runs under the asan preset too);
//   * decode either rejects (nullopt) or returns a value whose re-encoding
//     decodes to the same value (decode–encode–decode agreement);
//   * the log parser's accounting is conserved (records + skipped +
//     truncated lines never exceed input lines) and render→reparse agrees.
//
// This is a smoke, not a campaign: a few thousand deterministic inputs in
// ~2 s, with the accept/reject coverage counters printed so a shrinking
// corpus is visible in CI logs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "diff/report_json.h"
#include "instrument/trace_log.h"
#include "learner/learn_supervisor.h"
#include "learner/lstar.h"
#include "learner/sul.h"
#include "nas/messages.h"
#include "net/socket.h"
#include "net/sul_server.h"
#include "net/wire.h"
#include "ue/profile.h"

namespace procheck {
namespace {

// --- Seeded structure-aware mutator ----------------------------------------

Bytes mutate_bytes(const Bytes& input, Rng& rng) {
  Bytes out = input;
  switch (rng.next_below(5)) {
    case 0: {  // bit flip
      if (out.empty()) break;
      std::size_t i = rng.next_below(out.size());
      out[i] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      break;
    }
    case 1: {  // truncate
      if (out.empty()) break;
      out.resize(rng.next_below(out.size()));
      break;
    }
    case 2: {  // extend with random tail
      Bytes tail = rng.next_bytes(1 + rng.next_below(16));
      out.insert(out.end(), tail.begin(), tail.end());
      break;
    }
    case 3: {  // overwrite a window
      if (out.empty()) break;
      std::size_t i = rng.next_below(out.size());
      std::size_t n = 1 + rng.next_below(8);
      for (std::size_t k = i; k < out.size() && k < i + n; ++k) {
        out[k] = static_cast<std::uint8_t>(rng.next_u64());
      }
      break;
    }
    default: {  // splice with another corpus-shaped prefix/suffix
      std::size_t cut = out.empty() ? 0 : rng.next_below(out.size() + 1);
      Bytes other = rng.next_bytes(rng.next_below(24));
      out.resize(cut);
      out.insert(out.end(), other.begin(), other.end());
      break;
    }
  }
  return out;
}

/// Valid NAS messages spanning the field-map shapes (numeric, string, octet
/// fields; plain and protected headers) — the corpus the mutator starts from.
std::vector<nas::NasMessage> nas_corpus() {
  std::vector<nas::NasMessage> corpus;
  {
    nas::NasMessage m(nas::MsgType::kAttachRequest);
    m.set_s("imsi", "001010123456789").set_u("ue_network_capability", 0xE0);
    corpus.push_back(m);
  }
  {
    nas::NasMessage m(nas::MsgType::kAuthenticationRequest);
    m.set_b("rand", {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08});
    m.set_b("autn", {0xA0, 0xA1, 0xA2, 0xA3});
    m.set_u("ksi", 3);
    corpus.push_back(m);
  }
  {
    nas::NasMessage m(nas::MsgType::kAuthenticationFailure);
    m.set_s("cause", "synch_failure");
    m.set_b("auts", {0x10, 0x20, 0x30});
    corpus.push_back(m);
  }
  {
    nas::NasMessage m(nas::MsgType::kSecurityModeCommand);
    m.sec_hdr = nas::SecHdr::kIntegrity;
    m.count = 7;
    m.mac = 0x1122334455667788ULL;
    m.set_u("eia", 1).set_u("eea", 1).set_u("ue_sequence_number", 0);
    corpus.push_back(m);
  }
  {
    nas::NasMessage m(nas::MsgType::kAttachAccept);
    m.sec_hdr = nas::SecHdr::kIntegrityCiphered;
    m.count = 12;
    m.set_s("guti", "guti-4711").set_u("t3412", 54);
    corpus.push_back(m);
  }
  {
    nas::NasMessage m(nas::MsgType::kTauRequest);
    m.set_s("guti", "guti-old").set_u("eps_update_type", 1);
    corpus.push_back(m);
  }
  return corpus;
}

TEST(FuzzSmoke, NasPayloadDecodeTotalAndRoundTrips) {
  Rng rng(0xF02DECDEULL);
  std::vector<nas::NasMessage> corpus = nas_corpus();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    const nas::NasMessage& seed = corpus[rng.next_below(corpus.size())];
    Bytes wire = nas::encode_payload(seed);
    // Stack up to 3 mutations so inputs drift away from the valid shapes.
    std::uint64_t depth = 1 + rng.next_below(3);
    for (std::uint64_t d = 0; d < depth; ++d) wire = mutate_bytes(wire, rng);

    std::optional<nas::NasMessage> decoded = nas::decode_payload(wire);
    if (!decoded) {
      ++rejected;
      continue;
    }
    ++accepted;
    // Decode–encode–decode agreement: whatever the decoder accepted must be
    // a fixpoint of the codec, or the extractor sees phantom fields.
    Bytes re = nas::encode_payload(*decoded);
    std::optional<nas::NasMessage> again = nas::decode_payload(re);
    ASSERT_TRUE(again.has_value()) << "re-encode of accepted input rejected";
    EXPECT_EQ(*again, *decoded);
  }
  // A healthy frontend both accepts and rejects across the mutation space;
  // all-accept means the mutator is toothless, all-reject means the corpus
  // no longer encodes.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  std::printf("[fuzz] nas payload: %zu accepted, %zu rejected\n", accepted, rejected);
}

TEST(FuzzSmoke, NasPduDecodeTotalAndRoundTrips) {
  Rng rng(0x9DF00DULL ^ 0x5EED);
  std::vector<nas::NasMessage> corpus = nas_corpus();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    const nas::NasMessage& seed = corpus[rng.next_below(corpus.size())];
    nas::NasPdu pdu;
    pdu.sec_hdr = seed.sec_hdr;
    pdu.count = seed.count;
    pdu.mac = seed.mac;
    pdu.payload = nas::encode_payload(seed);
    Bytes wire = pdu.encode();
    std::uint64_t depth = 1 + rng.next_below(3);
    for (std::uint64_t d = 0; d < depth; ++d) wire = mutate_bytes(wire, rng);

    std::optional<nas::NasPdu> decoded = nas::NasPdu::decode(wire);
    if (!decoded) {
      ++rejected;
      continue;
    }
    ++accepted;
    std::optional<nas::NasPdu> again = nas::NasPdu::decode(decoded->encode());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, *decoded);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  std::printf("[fuzz] nas pdu: %zu accepted, %zu rejected\n", accepted, rejected);
}

// --- Remote-SUL wire-frame fuzz ---------------------------------------------

/// Valid frames spanning every type and payload shape — the corpus the wire
/// mutator starts from.
std::vector<net::Frame> frame_corpus() {
  std::vector<net::Frame> corpus;
  net::Frame f;
  f.type = net::FrameType::kHello;
  f.epoch = 1;
  f.seq = 1;
  f.payload = "prochecker-learner";
  corpus.push_back(f);
  f.type = net::FrameType::kStep;
  f.epoch = 3;
  f.seq = 42;
  f.payload = "authentication_request";
  corpus.push_back(f);
  f.type = net::FrameType::kStepAck;
  f.payload = "authentication_response";
  corpus.push_back(f);
  f.type = net::FrameType::kReset;
  f.payload.clear();
  corpus.push_back(f);
  f.type = net::FrameType::kPing;
  f.epoch = 0xFFFFFFFF;
  f.seq = 0xFFFFFFFF;
  corpus.push_back(f);
  f.type = net::FrameType::kError;
  f.payload = std::string(512, 'x');  // a fat diagnostic
  corpus.push_back(f);
  // Wire v3 word/batch shapes: a whole-word query, a multi-word batch (with
  // a duplicate and a prefix chain), and a mixed-status batch ack.
  f.type = net::FrameType::kQueryWord;
  f.epoch = 2;
  f.seq = 9;
  f.payload = net::encode_word({"power_on", "authentication_request", "security_mode_command"});
  corpus.push_back(f);
  f.type = net::FrameType::kQueryBatch;
  f.payload = net::encode_batch({{"power_on"},
                                 {"power_on"},
                                 {"power_on", "authentication_request"},
                                 {"paging", "detach_request"}});
  corpus.push_back(f);
  f.type = net::FrameType::kBatchAck;
  f.payload = net::encode_batch_ack([] {
    std::vector<net::BatchItem> items(3);
    items[0].ok = true;
    items[0].outputs = {"attach_request"};
    items[1].ok = false;
    items[1].error = net::kReasonBadWord;
    items[2].ok = true;
    items[2].outputs = {"attach_request", "authentication_response"};
    return items;
  }());
  corpus.push_back(f);
  return corpus;
}

TEST(FuzzSmoke, BatchPayloadCodecsTotalAndRoundTrip) {
  // The v3 payload codecs under the same mutation pressure as the frame
  // layer: decode is total, and whatever it accepts re-encodes to the same
  // value (otherwise the server could ack a batch the client never sent).
  Rng rng(0xBA7C4C0DECULL);
  const std::vector<std::string> seeds = {
      net::encode_word({"power_on", "authentication_request"}),
      net::encode_batch({{"power_on"}, {"power_on", "paging"}, {"detach_request"}}),
      net::encode_batch_ack([] {
        std::vector<net::BatchItem> items(2);
        items[0].ok = true;
        items[0].outputs = {"null", "attach_request"};
        items[1].ok = false;
        items[1].error = net::kReasonBadBatch;
        return items;
      }()),
  };
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string text = seeds[rng.next_below(seeds.size())];
    std::uint64_t depth = 1 + rng.next_below(3);
    for (std::uint64_t d = 0; d < depth; ++d) {
      Bytes bytes(text.begin(), text.end());
      bytes = mutate_bytes(bytes, rng);
      text.assign(bytes.begin(), bytes.end());
    }

    bool ok = false;
    if (auto word = net::decode_word(text)) {
      EXPECT_EQ(net::decode_word(net::encode_word(*word)), *word);
      ok = true;
    }
    if (auto batch = net::decode_batch(text, net::kMaxBatchWords)) {
      EXPECT_EQ(net::decode_batch(net::encode_batch(*batch), net::kMaxBatchWords), *batch);
      ok = true;
    }
    if (auto ack = net::decode_batch_ack(text, net::kMaxBatchWords)) {
      auto again = net::decode_batch_ack(net::encode_batch_ack(*ack), net::kMaxBatchWords);
      ASSERT_TRUE(again.has_value());
      ASSERT_EQ(again->size(), ack->size());
      for (std::size_t i = 0; i < ack->size(); ++i) {
        EXPECT_EQ((*again)[i].ok, (*ack)[i].ok);
        EXPECT_EQ((*again)[i].outputs, (*ack)[i].outputs);
        EXPECT_EQ((*again)[i].error, (*ack)[i].error);
      }
      ok = true;
    }
    (ok ? accepted : rejected) += 1;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  std::printf("[fuzz] batch codec: %zu accepted, %zu rejected\n", accepted, rejected);
}

TEST(FuzzSmoke, WireFrameDecodeTotalAndRoundTrips) {
  Rng rng(0x31BEF2A3EULL);
  std::vector<net::Frame> corpus = frame_corpus();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 4000; ++round) {
    Bytes wire = net::encode_frame(corpus[rng.next_below(corpus.size())]);
    std::uint64_t depth = 1 + rng.next_below(3);
    for (std::uint64_t d = 0; d < depth; ++d) wire = mutate_bytes(wire, rng);

    std::size_t consumed = 0;
    net::Decoded decoded = net::decode_frame(wire, &consumed);
    if (decoded.status != net::DecodeStatus::kFrame) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_LE(consumed, wire.size());
    // Decode–encode–decode fixpoint: whatever the decoder accepted must
    // survive a round trip bit-exactly, or the transport invents traffic.
    Bytes re = net::encode_frame(decoded.frame);
    net::Decoded again = net::decode_frame(re);
    ASSERT_EQ(again.status, net::DecodeStatus::kFrame) << "re-encode rejected";
    EXPECT_EQ(again.frame, decoded.frame);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  std::printf("[fuzz] wire frame: %zu accepted, %zu rejected\n", accepted, rejected);
}

TEST(FuzzSmoke, WireSingleBitCorruptionAlwaysDetected) {
  // The chaos proxy's corruption regime relies on this exhaustively: any
  // single flipped bit anywhere in a frame (length prefix, header, payload,
  // CRC) must yield a framing error or a request for more bytes — NEVER a
  // successfully decoded frame carrying mangled data.
  for (const net::Frame& frame : frame_corpus()) {
    Bytes wire = net::encode_frame(frame);
    for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
      Bytes mutated = wire;
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      net::Decoded d = net::decode_frame(mutated);
      ASSERT_NE(d.status, net::DecodeStatus::kFrame)
          << "bit " << bit << " of a " << wire.size() << "-byte frame slipped through";
    }
  }
}

TEST(FuzzSmoke, FrameReaderNeverCrashesOnMutatedStreams) {
  Rng rng(0x57E0A0F1ULL);
  std::vector<net::Frame> corpus = frame_corpus();
  std::size_t clean_streams = 0;
  std::size_t poisoned_streams = 0;
  for (int round = 0; round < 1500; ++round) {
    // A stream of several frames, then mutated as one byte blob.
    Bytes stream;
    std::uint64_t count = 1 + rng.next_below(4);
    for (std::uint64_t i = 0; i < count; ++i) {
      Bytes one = net::encode_frame(corpus[rng.next_below(corpus.size())]);
      stream.insert(stream.end(), one.begin(), one.end());
    }
    std::uint64_t depth = rng.next_below(3);  // depth 0 = clean stream
    for (std::uint64_t d = 0; d < depth; ++d) stream = mutate_bytes(stream, rng);

    // Feed in random-sized chunks; pop everything. The reader must stay
    // total: frames, need-more, or a sticky poison — never a crash.
    net::FrameReader reader;
    std::size_t pos = 0;
    std::size_t frames = 0;
    while (pos < stream.size()) {
      std::size_t n = std::min<std::size_t>(1 + rng.next_below(19), stream.size() - pos);
      reader.feed(stream.data() + pos, n);
      pos += n;
      for (;;) {
        net::Decoded d = reader.next();
        if (d.status == net::DecodeStatus::kFrame) {
          ++frames;
          continue;
        }
        if (d.status == net::DecodeStatus::kBadFrame) {
          EXPECT_TRUE(reader.poisoned());
          // Poison is sticky until reset().
          EXPECT_EQ(reader.next().status, net::DecodeStatus::kBadFrame);
        }
        break;
      }
      if (reader.poisoned()) break;
    }
    if (depth == 0) {
      EXPECT_EQ(frames, count) << "clean stream lost frames";
      EXPECT_FALSE(reader.poisoned());
    }
    (reader.poisoned() ? poisoned_streams : clean_streams) += 1;
  }
  EXPECT_GT(clean_streams, 0u);
  EXPECT_GT(poisoned_streams, 0u);
  std::printf("[fuzz] wire stream: %zu clean, %zu poisoned\n", clean_streams, poisoned_streams);
}

// --- Handshake fuzz against a live server ------------------------------------

namespace handshake {

bool send_bytes(net::TcpConn& conn, const Bytes& wire) { return conn.send_all(wire, 1.0); }

std::optional<net::Frame> read_one(net::TcpConn& conn, net::FrameReader& reader,
                                   double budget = 1.0) {
  const auto start = std::chrono::steady_clock::now();
  Bytes chunk;
  bool eof = false;
  for (;;) {
    net::Decoded d = reader.next();
    if (d.status == net::DecodeStatus::kFrame) return d.frame;
    if (d.status == net::DecodeStatus::kBadFrame) return std::nullopt;
    // The peer closed and the buffer is drained: nothing more will come.
    if (eof) return std::nullopt;
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() >
        budget) {
      return std::nullopt;
    }
    chunk.clear();
    auto status = conn.recv_some(chunk, 4096, 0.05);
    if (status == net::TcpConn::RecvStatus::kData) {
      reader.feed(chunk);
    } else if (status != net::TcpConn::RecvStatus::kTimeout) {
      eof = true;
    }
  }
}

}  // namespace handshake

// Satellite: structure-aware mutation of the hello/auth handshake against a
// *live* multi-session server. The contract under fuzz: a mutated or
// replayed handshake always ends in a clean structured refusal (or a dead
// connection) — NEVER a crash and NEVER an authenticated session without
// the correct per-connection MAC. This covers the anti-replay nonce path:
// replayed auth responses are drawn from earlier rounds' captured MACs.
TEST(FuzzSmoke, MutatedHandshakesNeverCrashOrAuthenticate) {
  constexpr const char* kPsk = "fuzz-psk";
  net::SulServerOptions sopts;
  sopts.psk = kPsk;
  sopts.nonce_seed = 0xF022;       // reproducible challenge stream
  sopts.max_sessions = 16;         // absorb teardown overlap across rounds
  sopts.handshake_timeout_seconds = 0.2;  // truncated hellos time out fast
  net::SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  Rng rng(0x4A5D54A3ULL);
  std::vector<std::string> captured_macs;  // replay ammunition
  std::size_t refusals = 0;
  std::size_t legit = 0;
  std::size_t busy = 0;

  for (int round = 0; round < 250; ++round) {
    auto conn = net::TcpConn::connect("127.0.0.1", server.port(), 1.0);
    ASSERT_TRUE(conn.has_value()) << "round " << round;
    net::FrameReader reader;

    net::Frame hello;
    hello.type = net::FrameType::kHello;
    hello.epoch = 1;
    hello.seq = 1;
    hello.payload = "fuzz-client";

    // Mutation menu: 0 = mangled hello bytes, 1 = mangled auth bytes,
    // 2 = replayed MAC from an earlier connection, 3 = MAC over the wrong
    // epoch, 4 = fully legitimate handshake (keeps the corpus honest and
    // feeds the replay pool).
    // Every 7th round is forced-legitimate so the replay pool seeds on round
    // 0 (mode 2 draws from it) and the corpus keeps an authenticated path.
    const std::uint64_t mode = (round % 7 == 0) ? 4 : rng.next_below(5);
    bool supplied_correct_mac = false;

    if (mode == 0) {
      Bytes wire = net::encode_frame(hello);
      std::uint64_t depth = 1 + rng.next_below(3);
      for (std::uint64_t d = 0; d < depth; ++d) wire = mutate_bytes(wire, rng);
      if (!handshake::send_bytes(*conn, wire)) continue;
    } else {
      if (!handshake::send_bytes(*conn, net::encode_frame(hello))) continue;
      auto challenge = handshake::read_one(*conn, reader);
      if (!challenge || challenge->type != net::FrameType::kChallenge) {
        if (challenge && challenge->type == net::FrameType::kServerBusy) ++busy;
        continue;  // refused before auth: structured either way
      }
      net::Frame auth;
      auth.type = net::FrameType::kAuthResponse;
      auth.epoch = 1;
      auth.seq = 2;
      switch (mode) {
        case 1: {  // well-formed frame carrying a mangled MAC, or mangled bytes
          auth.payload = net::auth_mac(kPsk, challenge->payload, auth.epoch);
          Bytes wire = net::encode_frame(auth);
          wire = mutate_bytes(wire, rng);
          if (!handshake::send_bytes(*conn, wire)) continue;
          break;
        }
        case 2:  // anti-replay: a MAC captured from an earlier connection
          auth.payload = captured_macs[rng.next_below(captured_macs.size())];
          if (!handshake::send_bytes(*conn, net::encode_frame(auth))) continue;
          break;
        case 3:  // right nonce, wrong epoch binding
          auth.payload = net::auth_mac(kPsk, challenge->payload, auth.epoch + 1);
          if (!handshake::send_bytes(*conn, net::encode_frame(auth))) continue;
          break;
        default:  // legitimate
          auth.payload = net::auth_mac(kPsk, challenge->payload, auth.epoch);
          supplied_correct_mac = true;
          captured_macs.push_back(auth.payload);
          if (!handshake::send_bytes(*conn, net::encode_frame(auth))) continue;
          break;
      }
    }

    // THE invariant: a hello-ack may only ever follow the correct MAC for
    // *this* connection's nonce. (Mode 1 can mutate into a no-op or hit
    // non-MAC bytes; only an actually-correct MAC may authenticate.)
    auto response = handshake::read_one(*conn, reader);
    if (response && response->type == net::FrameType::kHelloAck) {
      if (mode == 1) {
        // The mutation must have left the MAC bytes (and framing) intact.
        continue;
      }
      ASSERT_TRUE(supplied_correct_mac) << "round " << round << " mode " << mode
                                        << ": authenticated without the key";
      ++legit;
    } else {
      ++refusals;
    }
  }

  // Liveness after the storm: a clean handshake and a real query still work,
  // so none of the 250 mangled handshakes wedged or crashed the server.
  {
    auto conn = net::TcpConn::connect("127.0.0.1", server.port(), 1.0);
    ASSERT_TRUE(conn.has_value());
    net::FrameReader reader;
    net::Frame hello;
    hello.type = net::FrameType::kHello;
    hello.epoch = 1;
    hello.seq = 1;
    ASSERT_TRUE(handshake::send_bytes(*conn, net::encode_frame(hello)));
    auto challenge = handshake::read_one(*conn, reader, 2.0);
    ASSERT_TRUE(challenge.has_value());
    ASSERT_EQ(challenge->type, net::FrameType::kChallenge);
    net::Frame auth;
    auth.type = net::FrameType::kAuthResponse;
    auth.epoch = 1;
    auth.seq = 2;
    auth.payload = net::auth_mac(kPsk, challenge->payload, auth.epoch);
    ASSERT_TRUE(handshake::send_bytes(*conn, net::encode_frame(auth)));
    auto ack = handshake::read_one(*conn, reader, 2.0);
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, net::FrameType::kHelloAck);
    net::Frame query;
    query.type = net::FrameType::kQueryWord;
    query.epoch = 1;
    query.seq = 3;
    query.payload = net::encode_word({"power_on"});
    ASSERT_TRUE(handshake::send_bytes(*conn, net::encode_frame(query)));
    auto word_ack = handshake::read_one(*conn, reader, 2.0);
    ASSERT_TRUE(word_ack.has_value());
    EXPECT_EQ(word_ack->type, net::FrameType::kWordAck);
  }

  server.stop();
  const net::SulServerStats stats = server.stats();
  EXPECT_EQ(stats.session_errors, 0) << "a mangled handshake crashed a session";
  EXPECT_GT(stats.auth_failures, 0) << "the mutator never reached the MAC check";
  EXPECT_GT(refusals, 0u);
  EXPECT_GT(legit, 0u) << "no legitimate handshake ever completed";
  std::printf("[fuzz] handshake: %zu refusals, %zu authenticated, %zu busy, "
              "%ld server auth failures\n",
              refusals, legit, busy, stats.auth_failures);
}

// Satellite: structure-aware mutation of v3 batch queries against a *live*
// admitted session. The contract under fuzz: every kQueryBatch — valid-ish,
// mutated, or deliberately oversized — is answered with a kBatchAck or a
// structured kError refusal; the session is never corrupted (a clean probe
// word keeps answering correctly between mutations) and never crashes.
TEST(FuzzSmoke, MutatedBatchQueriesNeverCrashOrCorruptSession) {
  net::SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());

  auto conn = net::TcpConn::connect("127.0.0.1", server.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  net::FrameReader reader;
  net::Frame hello;
  hello.type = net::FrameType::kHello;
  hello.epoch = 1;
  hello.seq = 1;
  hello.payload = net::with_batch_token("fuzz-client", 8);
  ASSERT_TRUE(handshake::send_bytes(*conn, net::encode_frame(hello)));
  auto ack = handshake::read_one(*conn, reader);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, net::FrameType::kHelloAck);
  ASSERT_EQ(net::parse_batch_token(ack->payload), 8);

  // The clean probe the session must keep answering correctly: cls boots
  // with an attach_request and answers the auth challenge.
  const std::vector<std::string> probe = {"power_on", "authentication_request"};
  const std::vector<std::string> probe_expect = {"attach_request", "authentication_response"};

  const std::vector<std::string> seeds = {
      net::encode_batch({{"power_on"}, {"power_on", "authentication_request"}}),
      net::encode_batch({{"paging"}, {"paging"}, {"detach_request", "power_on"}}),
      net::encode_batch({{"power_on", "identity_request"}}),
      std::string(),  // the one-item epsilon batch
  };

  Rng rng(0xBA7C11FEULL);
  std::uint32_t seq = 1;
  std::size_t acked = 0;
  std::size_t refused = 0;
  std::size_t oversized_refusals = 0;

  for (int round = 0; round < 300; ++round) {
    std::string payload;
    bool oversized = false;
    const std::uint64_t mode = rng.next_below(4);
    if (mode == 3) {
      // Deliberately over the negotiated 8-word grant (sometimes over the
      // hard kMaxBatchWords bound too): must refuse as batch_too_large.
      const std::uint64_t n = 9 + rng.next_below(70);
      std::vector<std::vector<std::string>> words;
      for (std::uint64_t i = 0; i < n; ++i) words.push_back({"paging"});
      payload = net::encode_batch(words);
      oversized = true;
    } else {
      payload = seeds[rng.next_below(seeds.size())];
      std::uint64_t depth = rng.next_below(3);  // depth 0 = pristine seed
      for (std::uint64_t d = 0; d < depth; ++d) {
        Bytes bytes(payload.begin(), payload.end());
        bytes = mutate_bytes(bytes, rng);
        payload.assign(bytes.begin(), bytes.end());
        if (payload.size() > net::kMaxFramePayload) payload.resize(64);
      }
    }

    net::Frame batch;
    batch.type = net::FrameType::kQueryBatch;
    batch.epoch = 1;
    batch.seq = ++seq;
    batch.payload = payload;
    ASSERT_TRUE(handshake::send_bytes(*conn, net::encode_frame(batch))) << "round " << round;
    auto reply = handshake::read_one(*conn, reader);
    ASSERT_TRUE(reply.has_value()) << "round " << round << ": no structured reply";
    if (reply->type == net::FrameType::kBatchAck) {
      ASSERT_FALSE(oversized) << "round " << round << ": oversized batch was served";
      auto items = net::decode_batch_ack(reply->payload, 8);
      ASSERT_TRUE(items.has_value()) << "round " << round << ": ack does not decode";
      ++acked;
    } else {
      ASSERT_EQ(reply->type, net::FrameType::kError) << "round " << round;
      EXPECT_TRUE(reply->payload == net::kReasonBadBatch ||
                  reply->payload == net::kReasonBatchTooLarge)
          << "round " << round << ": " << reply->payload;
      if (oversized) {
        EXPECT_EQ(reply->payload, net::kReasonBatchTooLarge) << "round " << round;
        ++oversized_refusals;
      }
      ++refused;
    }

    // Every 25 rounds: the admitted session must still answer the clean
    // probe correctly — refusals and mutations corrupt no SUL state.
    if (round % 25 == 0) {
      net::Frame word;
      word.type = net::FrameType::kQueryWord;
      word.epoch = 1;
      word.seq = ++seq;
      word.payload = net::encode_word(probe);
      ASSERT_TRUE(handshake::send_bytes(*conn, net::encode_frame(word)));
      auto answer = handshake::read_one(*conn, reader);
      ASSERT_TRUE(answer.has_value()) << "round " << round;
      ASSERT_EQ(answer->type, net::FrameType::kWordAck) << "round " << round;
      EXPECT_EQ(net::decode_word(answer->payload), probe_expect) << "round " << round;
    }
  }

  server.stop();
  const net::SulServerStats stats = server.stats();
  EXPECT_EQ(stats.session_errors, 0) << "a mutated batch killed the session";
  EXPECT_GT(acked, 0u) << "the mutator starved the server of valid batches";
  EXPECT_GT(refused, 0u) << "the mutator never produced a refusable batch";
  EXPECT_GT(oversized_refusals, 0u);
  EXPECT_EQ(stats.batch_refusals, static_cast<long>(refused));
  std::printf("[fuzz] batch queries: %zu acked, %zu refused (%zu oversized)\n", acked, refused,
              oversized_refusals);
}

// --- Log-parser fuzz --------------------------------------------------------

std::string mutate_text(const std::string& input, Rng& rng) {
  Bytes bytes(input.begin(), input.end());
  bytes = mutate_bytes(bytes, rng);
  return {bytes.begin(), bytes.end()};
}

std::string log_corpus_text() {
  instrument::TraceLogger log;
  log.test_case("attach_basic");
  log.enter("emm_send_attach_request");
  log.global("emm_state", "EMM_REGISTERED_INITIATED");
  log.global("t3410_running", std::uint64_t{1});
  log.enter("recv_authentication_request");
  log.local("mac_valid", std::uint64_t{1});
  log.local("cause", "none");
  log.test_case("detach_basic");
  log.enter("emm_send_detach_request");
  log.global("emm_state", "EMM_DEREGISTERED_INITIATED");
  return log.text();
}

TEST(FuzzSmoke, LogParserTotalAndAccountingConserved) {
  Rng rng(0x10AB00C5ULL);
  const std::string corpus = log_corpus_text();
  std::size_t with_records = 0;
  std::size_t fully_shed = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string text = corpus;
    std::uint64_t depth = 1 + rng.next_below(4);
    for (std::uint64_t d = 0; d < depth; ++d) text = mutate_text(text, rng);

    instrument::ParseStats stats;
    std::vector<instrument::LogRecord> records = instrument::parse_log(text, &stats);
    // Conservation: every input line is parsed, skipped, or truncated.
    EXPECT_EQ(records.size(), stats.records);
    EXPECT_LE(stats.records + stats.skipped + stats.truncated, stats.lines)
        << "accounting invented lines";
    (records.empty() ? fully_shed : with_records) += 1;

    // Render→reparse agreement: the canonical text of whatever survived
    // parses back to the identical record sequence.
    std::string canonical;
    for (const instrument::LogRecord& rec : records) {
      canonical += instrument::render(rec);
      canonical += '\n';
    }
    instrument::ParseStats again_stats;
    std::vector<instrument::LogRecord> again = instrument::parse_log(canonical, &again_stats);
    EXPECT_EQ(again, records);
    EXPECT_EQ(again_stats.records, records.size());
    EXPECT_EQ(again_stats.truncated, 0u);
  }
  EXPECT_GT(with_records, 0u);
  std::printf("[fuzz] log parser: %zu inputs kept records, %zu fully shed\n", with_records,
              fully_shed);
}

// --- Learn-journal fuzz ------------------------------------------------------

/// Structure-aware journal mutations: the byte-level mutator plus line-level
/// edits (duplicate / delete / swap / splice) that survive the CRC tags.
std::string mutate_journal(const std::string& input, Rng& rng) {
  if (rng.next_below(2) == 0) return mutate_text(input, rng);
  std::vector<std::string> lines;
  std::istringstream in(input);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  if (lines.empty()) return mutate_text(input, rng);
  switch (rng.next_below(4)) {
    case 0: {  // duplicate a line in place
      std::size_t i = rng.next_below(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      break;
    }
    case 1: {  // delete a line
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(rng.next_below(lines.size())));
      break;
    }
    case 2: {  // swap two lines (header included — may demote it)
      std::size_t a = rng.next_below(lines.size());
      std::size_t b = rng.next_below(lines.size());
      std::swap(lines[a], lines[b]);
      break;
    }
    default: {  // splice: a prefix joined to a suffix from elsewhere
      std::size_t cut = rng.next_below(lines.size() + 1);
      std::size_t from = rng.next_below(lines.size() + 1);
      std::vector<std::string> out(lines.begin(),
                                   lines.begin() + static_cast<std::ptrdiff_t>(cut));
      out.insert(out.end(), lines.begin() + static_cast<std::ptrdiff_t>(from), lines.end());
      lines = std::move(out);
      break;
    }
  }
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

// Every mutated learn journal must resume to one of three structured
// outcomes: the true machine (a valid prefix was adopted and completed), a
// structured refusal (abort), or a structured inconclusive — never a crash,
// a hang, or a silently wrong machine.
TEST(FuzzSmoke, MutatedLearnJournalsResumeOrRefuseNeverLie) {
  learner::LearnOptions lopts;
  lopts.eq_test_words = 8;
  lopts.eq_test_max_length = 3;
  lopts.seed = 0xF0220;

  const std::string path = ::testing::TempDir() + "fuzz_learn.journal";
  auto scrub = [&path] {
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
    std::remove((path + ".tmp").c_str());
  };
  scrub();
  std::string corpus;
  std::string reference_fsm;
  {
    learner::LearnSupervisorOptions o;
    o.learn = lopts;
    o.journal_path = path;
    o.run_tag = "cls";
    learner::UeSul sul(ue::StackProfile::cls());
    const learner::SupervisedLearn run = learner::learn_supervised(sul, o);
    ASSERT_TRUE(run.result.converged) << run.result.note;
    reference_fsm = run.result.machine.to_fsm().to_dot("learned");
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    corpus = ss.str();
  }
  ASSERT_FALSE(corpus.empty());

  Rng rng(0x10AD9A11ULL);
  std::size_t converged = 0, refused = 0, inconclusive = 0;
  for (int round = 0; round < 400; ++round) {
    std::string text = corpus;
    const std::uint64_t depth = 1 + rng.next_below(4);
    for (std::uint64_t d = 0; d < depth; ++d) text = mutate_journal(text, rng);

    scrub();
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << text;
    }
    learner::LearnSupervisorOptions o;
    o.learn = lopts;
    o.journal_path = path;
    o.resume = true;
    o.run_tag = "cls";
    learner::UeSul sul(ue::StackProfile::cls());
    const learner::SupervisedLearn run = learner::learn_supervised(sul, o);
    if (run.aborted) {
      EXPECT_FALSE(run.abort_reason.empty()) << "refusal without a reason";
      ++refused;
    } else if (run.result.converged) {
      // Whatever prefix was adopted, the machine must be the true one.
      EXPECT_EQ(run.result.machine.to_fsm().to_dot("learned"), reference_fsm)
          << "round " << round << " silently learned a wrong machine";
      ++converged;
    } else {
      EXPECT_TRUE(run.result.inconclusive) << "unstructured failure in round " << round;
      EXPECT_FALSE(run.result.note.empty());
      ++inconclusive;
    }
  }
  scrub();
  EXPECT_GT(converged, 0u) << "the mutator starved the resume path of valid prefixes";
  std::printf("[fuzz] learn journals: %zu converged, %zu refused, %zu inconclusive\n", converged,
              refused, inconclusive);
}

// --- Diff-report JSON codec (DESIGN.md §16) ----------------------------------

/// Small but shape-complete reports — every divergence kind, every finding
/// class, non-ASCII and quote-bearing strings — the corpus the mutator
/// starts from.
std::vector<diff::DiffReport> diff_report_corpus() {
  std::vector<diff::DiffReport> corpus;
  corpus.push_back({});  // all-default empty report

  diff::DiffReport equivalent;
  equivalent.left_name = "profile:cls";
  equivalent.right_name = "profile:cls";
  equivalent.equivalent = true;
  equivalent.product_pairs = 8;
  equivalent.edges.push_back({"A | A", "B | B", "m1 & x=1"});
  corpus.push_back(equivalent);

  diff::DiffReport divergent;
  divergent.left_name = "log:trace \"weird\" name.log";
  divergent.right_name = "remote:127.0.0.1:4242";
  divergent.product_pairs = 3;
  int i = 0;
  for (diff::DivergenceKind kind :
       {diff::DivergenceKind::kOutputMismatch, diff::DivergenceKind::kMissingLeft,
        diff::DivergenceKind::kMissingRight, diff::DivergenceKind::kExtraStateLeft,
        diff::DivergenceKind::kExtraStateRight}) {
    diff::Divergence d;
    d.kind = kind;
    d.input = "attach_accept & mac_valid=" + std::to_string(i++);
    d.sequence = {"power_on_trigger", d.input};
    d.left_state = "EMM_REGISTERED_INITIATED";
    d.right_state = "EMM_REGISTERED_INITIATED";
    d.left_edge = "A --[m / a]--> B";
    d.right_edge = "-";
    d.properties = {"S05", "P03"};
    divergent.divergences.push_back(std::move(d));
  }
  for (diff::Finding::Class cls :
       {diff::Finding::Class::kDivergent, diff::Finding::Class::kCommon,
        diff::Finding::Class::kInconclusive}) {
    diff::Finding f;
    f.property_id = "S05";
    f.attack_id = "I1";
    f.cls = cls;
    f.violates = cls == diff::Finding::Class::kCommon ? "both" : "right";
    f.left_status = "verified";
    f.right_status = "attack";
    f.note = cls == diff::Finding::Class::kInconclusive ? "watchdog élapsed\n" : "";
    divergent.findings.push_back(std::move(f));
  }
  corpus.push_back(divergent);

  diff::DiffReport inconclusive;
  inconclusive.left_name = "l";
  inconclusive.right_name = "r";
  inconclusive.inconclusive = true;
  inconclusive.note = "product walk capped at 65536 pairs; extra-state analysis skipped";
  corpus.push_back(inconclusive);
  return corpus;
}

/// Structure-aware mutation: half the time raw byte mutation, half the time
/// a token-level edit that keeps the document JSON-shaped — swapping kind /
/// class / status tokens, twiddling digits, or duplicating a key — to reach
/// the deep validation paths the byte mutator rarely survives to.
std::string mutate_diff_json(const std::string& input, Rng& rng) {
  if (rng.next_below(2) == 0) return mutate_text(input, rng);
  std::string out = input;
  static const std::vector<std::pair<std::string, std::string>> swaps = {
      {"output-mismatch", "missing-left"},
      {"missing-right", "extra-state-left"},
      {"extra-state-right", "sideways"},  // unknown kind: must reject whole doc
      {"divergent", "common"},
      {"inconclusive", "divergent"},
      {"\"equivalent\":true", "\"equivalent\":false"},
      {"\"pairs\":", "\"pairs\":-"},
      {"\"sequence\":[", "\"sequence\":[1,"},  // non-string element
      {"\"diff\":1", "\"diff\":2"},
      {"\"left\":", "\"Left\":"},
      {"},{", "},{},{"},  // inject an empty object into an array
  };
  const auto& [from, to] = swaps[rng.next_below(swaps.size())];
  const std::size_t at = out.find(from);
  if (at != std::string::npos) out.replace(at, from.size(), to);
  return out;
}

TEST(FuzzSmoke, DiffReportCodecTotalAndRoundTrips) {
  Rng rng(0xD1FFC0DECULL);
  std::vector<diff::DiffReport> corpus = diff_report_corpus();
  // The corpus itself must round-trip exactly before any mutation.
  for (const diff::DiffReport& seed : corpus) {
    std::optional<diff::DiffReport> back = diff::decode_report(diff::encode_report(seed));
    ASSERT_TRUE(back.has_value());
    ASSERT_EQ(*back, seed);
  }
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int round = 0; round < 3000; ++round) {
    std::string text = diff::encode_report(corpus[rng.next_below(corpus.size())]);
    std::uint64_t depth = 1 + rng.next_below(3);
    for (std::uint64_t d = 0; d < depth; ++d) text = mutate_diff_json(text, rng);

    // Decode is total: reject (nullopt) or a value — never a crash.
    std::optional<diff::DiffReport> decoded = diff::decode_report(text);
    if (!decoded) {
      ++rejected;
      continue;
    }
    ++accepted;
    // Decode–encode–decode fixpoint: whatever the decoder accepted must
    // survive a round trip exactly, or --json output drifts per hop.
    const std::string re = diff::encode_report(*decoded);
    std::optional<diff::DiffReport> again = diff::decode_report(re);
    ASSERT_TRUE(again.has_value()) << "re-encode rejected";
    EXPECT_EQ(*again, *decoded);
    EXPECT_EQ(diff::encode_report(*again), re);
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  std::printf("[fuzz] diff report: %zu accepted, %zu rejected\n", accepted, rejected);
}

}  // namespace
}  // namespace procheck
