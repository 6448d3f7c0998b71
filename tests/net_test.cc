// Remote-SUL transport suite (DESIGN.md §12): wire codec contracts, the
// fault-tolerant client against a real loopback server, every chaos-proxy
// regime, the circuit breaker's full state walk, raw answers from a
// nondeterministic server (arbitrated by the learning supervisor), and the
// kill-the-server-at-every-message determinism sweep.
//
// The load-bearing invariants, end to end:
//   * lossless chaos (delay / fragmentation / byte reorder / connection
//     kills with replay) never changes a learning or conformance result —
//     byte-identical to the clean in-process run;
//   * lossy chaos (corruption, dead server) terminates with structured
//     degradation (framing errors, kSulUnavailable, inconclusive verdicts)
//     — never a hang, never a throw, never silently wrong data.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "learner/learn_supervisor.h"
#include "learner/lstar.h"
#include "learner/sul.h"
#include "net/chaos_proxy.h"
#include "net/remote_conformance.h"
#include "net/remote_sul.h"
#include "net/socket.h"
#include "net/sul_server.h"
#include "net/wire.h"
#include "ue/profile.h"

namespace procheck::net {
namespace {

// Tight budgets keep failure paths fast; generous enough for loopback.
RemoteSulOptions client_options(std::uint16_t port) {
  RemoteSulOptions o;
  o.port = port;
  o.call_deadline_seconds = 2.0;
  o.connect_timeout_seconds = 0.25;
  o.backoff_base_seconds = 0.002;
  o.backoff_max_seconds = 0.02;
  o.attempts_per_query = 4;
  o.breaker_failure_threshold = 4;
  o.breaker_open_seconds = 0.1;
  return o;
}

learner::LearnOptions quick_learn_options() {
  learner::LearnOptions o;
  o.eq_test_words = 40;  // small but sufficient to converge on cls
  o.eq_test_max_length = 5;
  o.seed = 0xBEEF;
  return o;
}

std::string fsm_text(const learner::LearnResult& result) {
  return result.machine.to_fsm().to_dot("learned");
}

// --- Wire codec --------------------------------------------------------------

TEST(Wire, RoundTripsEveryFrameType) {
  for (auto type : {FrameType::kHello, FrameType::kHelloAck, FrameType::kReset,
                    FrameType::kResetAck, FrameType::kStep, FrameType::kStepAck,
                    FrameType::kPing, FrameType::kPong, FrameType::kBye, FrameType::kError}) {
    Frame f;
    f.type = type;
    f.epoch = 7;
    f.seq = 99;
    f.payload = "security_mode_command";
    Bytes wire = encode_frame(f);
    std::size_t consumed = 0;
    Decoded d = decode_frame(wire, &consumed);
    ASSERT_EQ(d.status, DecodeStatus::kFrame) << to_string(type);
    EXPECT_EQ(d.frame, f);
    EXPECT_EQ(consumed, wire.size());
  }
}

TEST(Wire, EveryProperPrefixNeedsMore) {
  Frame f;
  f.type = FrameType::kStep;
  f.payload = "attach_accept";
  Bytes wire = encode_frame(f);
  for (std::size_t n = 0; n < wire.size(); ++n) {
    Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(decode_frame(prefix).status, DecodeStatus::kNeedMore) << "prefix " << n;
  }
}

TEST(Wire, RejectsBadMagicVersionTypeAndLength) {
  Frame f;
  f.type = FrameType::kPing;
  Bytes good = encode_frame(f);

  Bytes bad_magic = good;
  bad_magic[4] ^= 0xFF;
  EXPECT_EQ(decode_frame(bad_magic).status, DecodeStatus::kBadFrame);

  Bytes bad_version = good;
  bad_version[6] = kWireVersion + 1;
  EXPECT_EQ(decode_frame(bad_version).status, DecodeStatus::kBadFrame);

  Bytes bad_type = good;
  bad_type[7] = 0xEE;
  EXPECT_EQ(decode_frame(bad_type).status, DecodeStatus::kBadFrame);

  // A length prefix claiming more than kMaxFramePayload must be rejected
  // before it can drive allocation.
  Bytes huge = good;
  huge[0] = 0x7F;
  EXPECT_EQ(decode_frame(huge).status, DecodeStatus::kBadFrame);
}

TEST(Wire, ReaderReassemblesByteAtATime) {
  std::vector<Frame> frames;
  for (int i = 0; i < 5; ++i) {
    Frame f;
    f.type = FrameType::kStepAck;
    f.epoch = 1;
    f.seq = static_cast<std::uint32_t>(i);
    f.payload = "output-" + std::to_string(i);
    frames.push_back(f);
  }
  Bytes stream;
  for (const Frame& f : frames) {
    Bytes one = encode_frame(f);
    stream.insert(stream.end(), one.begin(), one.end());
  }
  FrameReader reader;
  std::size_t got = 0;
  for (std::uint8_t b : stream) {
    reader.feed(&b, 1);
    Decoded d = reader.next();
    if (d.status == DecodeStatus::kFrame) {
      ASSERT_LT(got, frames.size());
      EXPECT_EQ(d.frame, frames[got]);
      ++got;
    } else {
      ASSERT_EQ(d.status, DecodeStatus::kNeedMore);
    }
  }
  EXPECT_EQ(got, frames.size());
  EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Wire, ReaderPoisonSticksUntilReset) {
  FrameReader reader;
  Bytes garbage{0x00, 0x00, 0x00, 0x10, 0xDE, 0xAD, 0xBE, 0xEF,
                0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                0x09, 0x0A, 0x0B, 0x0C};
  reader.feed(garbage);
  EXPECT_EQ(reader.next().status, DecodeStatus::kBadFrame);
  EXPECT_TRUE(reader.poisoned());
  // Feeding a perfectly valid frame cannot heal a mis-framed stream.
  Frame f;
  f.type = FrameType::kPong;
  reader.feed(encode_frame(f));
  EXPECT_EQ(reader.next().status, DecodeStatus::kBadFrame);

  reader.reset();
  reader.feed(encode_frame(f));
  Decoded d = reader.next();
  ASSERT_EQ(d.status, DecodeStatus::kFrame);
  EXPECT_EQ(d.frame.type, FrameType::kPong);
}

// --- Word / batch payload codec (wire v3) ------------------------------------

TEST(Wire, WordCodecRoundTripsAndEnforcesBounds) {
  const std::vector<std::string> word = {"power_on", "authentication_request",
                                         "security_mode_command"};
  EXPECT_EQ(decode_word(encode_word(word)), word);
  EXPECT_EQ(decode_word(encode_word({})), std::vector<std::string>{});

  // Separators and illegal bytes inside a symbol are structured failures.
  EXPECT_FALSE(decode_word("power_on,,paging").has_value());
  EXPECT_FALSE(decode_word("power on").has_value());
  EXPECT_FALSE(decode_word("power_on;paging").has_value());

  // One symbol over kMaxSymbolChars, and one word over kMaxWordSymbols.
  EXPECT_FALSE(decode_word(std::string(kMaxSymbolChars + 1, 'a')).has_value());
  std::string too_many;
  for (std::size_t i = 0; i <= kMaxWordSymbols; ++i) {
    if (!too_many.empty()) too_many += ',';
    too_many += 'x';
  }
  EXPECT_FALSE(decode_word(too_many).has_value());
  EXPECT_TRUE(decode_word(std::string(kMaxSymbolChars, 'a')).has_value());
}

TEST(Wire, BatchCodecRoundTripsAndEnforcesBounds) {
  const std::vector<std::vector<std::string>> words = {
      {"power_on"},
      {"power_on", "authentication_request"},
      {"paging", "detach_request", "attach_reject"},
  };
  EXPECT_EQ(decode_batch(encode_batch(words), kMaxBatchWords), words);

  // The same payload refused once the caller's cap is below the word count.
  EXPECT_FALSE(decode_batch(encode_batch(words), 2).has_value());
  // A malformed word inside an otherwise fine batch poisons the whole batch.
  EXPECT_FALSE(decode_batch("power_on;bad word;paging", kMaxBatchWords).has_value());
}

TEST(Wire, BatchAckCodecRoundTripsMixedResults) {
  std::vector<BatchItem> items(3);
  items[0].ok = true;
  items[0].outputs = {"null", "authentication_response"};
  items[1].ok = false;
  items[1].error = kReasonBadWord;
  items[2].ok = true;  // empty word → empty outputs
  std::optional<std::vector<BatchItem>> back =
      decode_batch_ack(encode_batch_ack(items), items.size());
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), items.size());
  EXPECT_TRUE((*back)[0].ok);
  EXPECT_EQ((*back)[0].outputs, items[0].outputs);
  EXPECT_FALSE((*back)[1].ok);
  EXPECT_EQ((*back)[1].error, kReasonBadWord);
  EXPECT_TRUE((*back)[2].ok);
  EXPECT_TRUE((*back)[2].outputs.empty());

  // More items than the request had words → a lying server, refused.
  EXPECT_FALSE(decode_batch_ack(encode_batch_ack(items), 2).has_value());
}

TEST(Wire, BatchTokenNegotiationRoundTrips) {
  EXPECT_EQ(with_batch_token("cls", 16), "cls batch=16");
  EXPECT_EQ(parse_batch_token("cls batch=16"), 16);
  EXPECT_EQ(strip_batch_token("cls batch=16"), "cls");
  // A v2 peer never sends the token: parse yields 0, strip is the identity.
  EXPECT_EQ(parse_batch_token("cls"), 0);
  EXPECT_EQ(strip_batch_token("cls"), "cls");
  EXPECT_EQ(with_batch_token("cls", 0), "cls");
  // Garbage after "batch=" must not parse into a grant.
  EXPECT_EQ(parse_batch_token("cls batch=lots"), 0);
}

// --- Clean loopback transport -------------------------------------------------

TEST(NetTransport, RemoteStepsMatchInProcessSul) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  RemoteUeSul remote(client_options(server.port()));
  learner::UeSul local(ue::StackProfile::cls());

  const std::vector<std::string> word = {"power_on", "authentication_request",
                                         "security_mode_command", "attach_accept",
                                         "identity_request", "paging"};
  EXPECT_EQ(remote.run(word), local.run(word));
  EXPECT_EQ(remote.server_profile(), "cls");
  EXPECT_EQ(remote.stats().connects, 1);
  EXPECT_EQ(remote.stats().unavailable_answers, 0);
  EXPECT_EQ(remote.breaker(), BreakerState::kClosed);
}

TEST(NetTransport, RemoteLearnByteIdenticalToInProcess) {
  learner::UeSul local(ue::StackProfile::cls());
  learner::LearnResult clean = learner::learn_mealy(local, quick_learn_options());
  ASSERT_TRUE(clean.converged);

  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  RemoteUeSul remote(client_options(server.port()));
  learner::LearnResult remote_result = learner::learn_mealy(remote, quick_learn_options());

  ASSERT_TRUE(remote_result.converged);
  EXPECT_FALSE(remote_result.inconclusive);
  EXPECT_EQ(fsm_text(remote_result), fsm_text(clean));
  // Same deterministic query schedule → identical cost metrics too.
  EXPECT_EQ(remote_result.membership_queries, clean.membership_queries);
}

TEST(NetTransport, RemoteConformanceAllPassOnCleanLink) {
  SulServer server(ue::StackProfile::srsue());
  ASSERT_TRUE(server.start());
  RemoteUeSul remote(client_options(server.port()));
  RemoteConformanceReport report = run_remote_conformance(ue::StackProfile::srsue(), remote);
  EXPECT_EQ(report.passed(), report.total());
  EXPECT_TRUE(report.conclusive());
}

TEST(NetTransport, ProfileMismatchIsBehavioralFailNotTransportError) {
  // An oai server answered with a cls reference: divergence must surface as
  // FAIL verdicts (definite), not as inconclusive transport noise.
  SulServer server(ue::StackProfile::oai());
  ASSERT_TRUE(server.start());
  RemoteUeSul remote(client_options(server.port()));
  RemoteConformanceReport report = run_remote_conformance(ue::StackProfile::cls(), remote);
  EXPECT_GT(report.failed(), 0);
  EXPECT_TRUE(report.conclusive());
}

// --- Circuit breaker -----------------------------------------------------------

TEST(NetTransport, DeadServerDegradesStructuredAndOpensBreaker) {
  // Port from a listener we immediately close: connection refused, fast.
  std::uint16_t dead_port;
  {
    auto listener = TcpListener::listen(0);
    ASSERT_TRUE(listener.has_value());
    dead_port = listener->port();
  }
  RemoteUeSul remote(client_options(dead_port));
  remote.reset();
  EXPECT_EQ(remote.step("power_on"), learner::kSulUnavailable);
  for (int i = 0; i < 3; ++i) remote.step("paging");
  EXPECT_EQ(remote.breaker(), BreakerState::kOpen);
  EXPECT_GT(remote.stats().breaker_opens, 0);
  EXPECT_GT(remote.stats().unavailable_answers, 0);
}

TEST(NetTransport, LearnAgainstDeadServerIsInconclusiveNotHang) {
  std::uint16_t dead_port;
  {
    auto listener = TcpListener::listen(0);
    ASSERT_TRUE(listener.has_value());
    dead_port = listener->port();
  }
  RemoteUeSul remote(client_options(dead_port));
  learner::LearnResult result = learner::learn_mealy(remote, quick_learn_options());
  EXPECT_TRUE(result.inconclusive);
  EXPECT_FALSE(result.converged);
  EXPECT_NE(result.note.find("sul_unavailable"), std::string::npos);
}

TEST(NetTransport, BreakerHalfOpenProbeRecoversWhenServerReturns) {
  // Open the breaker against a dead port, then bring a server up on that
  // very port and watch the half-open probe close the circuit again.
  std::uint16_t port;
  {
    auto listener = TcpListener::listen(0);
    ASSERT_TRUE(listener.has_value());
    port = listener->port();
  }
  RemoteSulOptions opts = client_options(port);
  opts.breaker_open_seconds = 0.05;
  RemoteUeSul remote(opts);
  remote.reset();
  for (int i = 0; i < 4; ++i) remote.step("power_on");
  ASSERT_EQ(remote.breaker(), BreakerState::kOpen);

  SulServerOptions sopts;
  sopts.port = port;  // SO_REUSEADDR makes the rebind race-free enough
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));  // past cooldown

  remote.reset();
  EXPECT_NE(remote.step("power_on"), learner::kSulUnavailable);
  EXPECT_EQ(remote.breaker(), BreakerState::kClosed);
  EXPECT_GT(remote.stats().breaker_probes, 0);
}

// --- Reconnect / replay --------------------------------------------------------

TEST(NetTransport, ReconnectMidWordReplaysAndStaysCorrect) {
  SulServerOptions sopts;
  // Every step() ships the word so far (1 + len units): the first step costs
  // 2, the second crosses unit 3, so the session dies right after acking the
  // second step, exactly once. The third step must redial and replay the
  // whole word into a fresh session.
  sopts.kill_after_requests = 3;
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());
  RemoteUeSul remote(client_options(server.port()));
  learner::UeSul local(ue::StackProfile::cls());

  const std::vector<std::string> word = {"power_on", "authentication_request",
                                         "security_mode_command", "attach_accept"};
  remote.reset();
  local.reset();
  for (const std::string& input : word) {
    EXPECT_EQ(remote.step(input), local.step(input)) << input;
  }
  EXPECT_GT(remote.stats().reconnects, 0);
  EXPECT_EQ(remote.stats().unavailable_answers, 0);
  server.stop();
  EXPECT_EQ(server.stats().kills, 1);
}

// --- Nondeterministic server ---------------------------------------------------

// A minimal hand-rolled server that answers kQueryWord *nondeterministically*:
// every kWordAck alternates the first output symbol. It serves one
// connection at a time.
class FlakyWordServer {
 public:
  FlakyWordServer() {
    auto listener = TcpListener::listen(0);
    EXPECT_TRUE(listener.has_value());
    listener_ = std::move(*listener);
    thread_ = std::thread([this] { loop(); });
  }
  ~FlakyWordServer() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }
  std::uint16_t port() const { return listener_.port(); }

 private:
  void loop() {
    while (!stop_.load()) {
      auto conn = listener_.accept(0.05);
      if (!conn) continue;
      FrameReader reader;
      Bytes chunk;
      while (!stop_.load()) {
        Decoded d = reader.next();
        if (d.status == DecodeStatus::kBadFrame) break;
        if (d.status == DecodeStatus::kNeedMore) {
          chunk.clear();
          auto st = conn->recv_some(chunk, 4096, 0.05);
          if (st == TcpConn::RecvStatus::kTimeout) continue;
          if (st != TcpConn::RecvStatus::kData) break;
          reader.feed(chunk);
          continue;
        }
        Frame ack;
        ack.epoch = d.frame.epoch;
        ack.seq = d.frame.seq;
        switch (d.frame.type) {
          case FrameType::kHello:
            ack.type = FrameType::kHelloAck;
            ack.payload = with_batch_token("flaky", kDefaultBatchWords);
            break;
          case FrameType::kQueryWord: {
            ack.type = FrameType::kWordAck;
            auto word = decode_word(d.frame.payload);
            std::vector<std::string> outs(word ? word->size() : 0, "null");
            if (!outs.empty() && (++word_no_ % 2 != 0)) outs[0] = "attach_request";
            ack.payload = encode_word(outs);
            break;
          }
          case FrameType::kPing:
            ack.type = FrameType::kPong;
            break;
          default:
            ack.type = FrameType::kError;
            break;
        }
        if (!conn->send_all(encode_frame(ack), 0.5)) break;
      }
    }
  }

  TcpListener listener_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  long word_no_ = 0;
};

TEST(NetTransport, FlakyServerAnswersRawAndArbitrationQuarantines) {
  FlakyWordServer server;
  RemoteSulOptions opts = client_options(server.port());
  opts.max_batch_words = 0;  // the fake answers kQueryWord only
  {
    // The transport smooths nothing: consecutive queries of one word
    // surface the alternation exactly as the server sent it.
    RemoteUeSul remote(opts);
    const std::vector<std::string> word = {"power_on", "paging"};
    EXPECT_EQ(remote.query_word(word), (std::vector<std::string>{"attach_request", "null"}));
    EXPECT_EQ(remote.query_word(word), (std::vector<std::string>{"null", "null"}));
    EXPECT_EQ(remote.stats().word_queries, 2);
  }  // hang up: the fake serves one connection at a time

  // The learning supervisor's k-of-n arbitration owns the lie. A first
  // output that flips on every query keeps overturning committed edges
  // until the override bound trips: a structured contested inconclusive,
  // never a machine built on the lie.
  RemoteUeSul remote(opts);
  learner::LearnSupervisorOptions o;
  o.learn = quick_learn_options();
  const learner::SupervisedLearn run = learner::learn_supervised(remote, o);
  EXPECT_EQ(run.failure, learner::LearnFailure::kContested);
  EXPECT_TRUE(run.result.inconclusive);
  EXPECT_FALSE(run.result.converged);
  ASSERT_EQ(run.result.quarantined.size(), 1u);
  EXPECT_NE(run.result.quarantined.front().find("override bound"), std::string::npos)
      << run.result.quarantined.front();
  EXPECT_EQ(run.result.arbitrations, 13);
  EXPECT_EQ(run.result.arbitration_requeries, 65);
}

// --- Heartbeat -----------------------------------------------------------------

TEST(NetTransport, HeartbeatKeepsLinkAliveAndDetectsDeath) {
  auto server = std::make_unique<SulServer>(ue::StackProfile::cls());
  ASSERT_TRUE(server->start());
  RemoteSulOptions opts = client_options(server->port());
  opts.heartbeat_seconds = 0.03;
  RemoteUeSul remote(opts);
  remote.reset();
  ASSERT_NE(remote.step("power_on"), learner::kSulUnavailable);

  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_GT(remote.stats().heartbeats, 0);
  EXPECT_EQ(remote.stats().heartbeat_failures, 0);

  server.reset();  // silent death: only the heartbeat can notice
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_GT(remote.stats().heartbeat_failures, 0);
}

// --- Chaos proxy ----------------------------------------------------------------

ChaosProxyOptions proxy_options(std::uint16_t upstream, ProxyFaultProfile faults,
                                std::uint64_t seed = 0xC4A05) {
  ChaosProxyOptions o;
  o.upstream_port = upstream;
  o.faults = faults;
  o.seed = seed;
  o.max_delay_ms = 2;
  return o;
}

TEST(ChaosProxyNet, InertProxyIsByteTransparent) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  ChaosProxy proxy(proxy_options(server.port(), {}));
  ASSERT_TRUE(proxy.start());

  RemoteUeSul remote(client_options(proxy.port()));
  learner::UeSul local(ue::StackProfile::cls());
  const std::vector<std::string> word = {"power_on", "authentication_request",
                                         "security_mode_command", "attach_accept"};
  EXPECT_EQ(remote.run(word), local.run(word));
  EXPECT_EQ(proxy.stats().faults(), 0);
  EXPECT_GT(proxy.stats().chunks, 0);
}

TEST(ChaosProxyNet, CorruptionIsDetectedNeverConsumed) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  ChaosProxy proxy(proxy_options(server.port(), {.corrupt = 0.08}));
  ASSERT_TRUE(proxy.start());

  RemoteUeSul remote(client_options(proxy.port()));
  RemoteConformanceReport report = run_remote_conformance(ue::StackProfile::cls(), remote);
  // Corrupted frames become framing errors and reconnects; answers that do
  // arrive are CRC-clean, so no scenario can FAIL. (Scenarios may go
  // inconclusive if the link is beyond the retry budget — structured, not
  // wrong.)
  EXPECT_EQ(report.failed(), 0);
  EXPECT_GT(proxy.stats().corrupted, 0);
  EXPECT_GT(remote.stats().framing_errors + remote.stats().rpc_timeouts, 0)
      << "corruption must surface as detected transport errors";
}

TEST(ChaosProxyNet, ConnectionKillRegimeTerminatesStructured) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  ChaosProxy proxy(proxy_options(server.port(), {.reset = 0.02}));
  ASSERT_TRUE(proxy.start());

  RemoteUeSul remote(client_options(proxy.port()));
  RemoteConformanceReport report = run_remote_conformance(ue::StackProfile::cls(), remote);
  // Kills are recoverable (reconnect + replay), so scenarios either pass or
  // exhaust the budget into inconclusive — never FAIL, never hang.
  EXPECT_EQ(report.failed(), 0);
  EXPECT_GT(remote.stats().reconnects, 0);
}

// --- Batched word protocol -------------------------------------------------------

// Satellite (a): identical words inside one query_batch() are shipped to the
// server exactly once and every duplicate position still gets the answer.
TEST(BatchedProtocol, QueryBatchDeduplicatesIdenticalWords) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  RemoteUeSul remote(client_options(server.port()));
  learner::UeSul local(ue::StackProfile::cls());

  const std::vector<std::string> a = {"power_on"};
  const std::vector<std::string> b = {"power_on", "authentication_request"};
  const std::vector<std::vector<std::string>> words = {a, b, a, b, a};
  const std::vector<std::vector<std::string>> answers = remote.query_batch(words);
  ASSERT_EQ(answers.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(answers[i], local.run(words[i])) << "position " << i;
  }
  EXPECT_EQ(remote.stats().batched_words, 2) << "3 duplicates must not hit the wire";
  EXPECT_EQ(remote.stats().batch_queries, 1);
  server.stop();
  EXPECT_EQ(server.stats().batched_words, 2);
  EXPECT_EQ(server.stats().batch_queries, 1);
}

// The reset-amortization mechanism itself: a batch carrying a prefix chain
// executes with one reset, continuing each word from its predecessor.
TEST(BatchedProtocol, SortedBatchContinuesSharedPrefixesOnServer) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  RemoteUeSul remote(client_options(server.port()));
  learner::UeSul local(ue::StackProfile::cls());

  // Request order deliberately scrambled: the server sorts into prefix order
  // for execution but must ack in request order.
  const std::vector<std::vector<std::string>> words = {
      {"power_on", "authentication_request", "security_mode_command"},
      {"power_on"},
      {"power_on", "authentication_request"},
  };
  const std::vector<std::vector<std::string>> answers = remote.query_batch(words);
  ASSERT_EQ(answers.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(answers[i], local.run(words[i])) << "position " << i;
  }
  server.stop();
  EXPECT_EQ(server.stats().prefix_hits, 2) << "two words should continue the chain";
  EXPECT_EQ(server.stats().resets, 1) << "a prefix chain needs exactly one reset";
}

// Batched learning renders byte-identical to the in-process run, with the
// same query schedule.
TEST(BatchedProtocol, LearnByteIdenticalToInProcess) {
  learner::UeSul local(ue::StackProfile::cls());
  learner::LearnResult clean = learner::learn_mealy(local, quick_learn_options());
  ASSERT_TRUE(clean.converged);

  learner::LearnResult batched;
  {
    SulServer server(ue::StackProfile::cls());
    ASSERT_TRUE(server.start());
    RemoteUeSul remote(client_options(server.port()));
    batched = learner::learn_mealy(remote, quick_learn_options());
    EXPECT_EQ(remote.negotiated_batch_words(), kDefaultBatchWords);
    EXPECT_GT(remote.stats().batch_queries, 0);
    EXPECT_GT(remote.stats().batched_words, 0);
    server.stop();
    EXPECT_GT(server.stats().batch_queries, 0);
    EXPECT_EQ(server.stats().batched_words, remote.stats().batched_words);
  }
  ASSERT_TRUE(batched.converged);
  EXPECT_EQ(fsm_text(batched), fsm_text(clean));
  // The trie cache and dedupe are learner-side and deterministic, so the
  // query schedule — not just the answer set — is identical transport-free.
  EXPECT_EQ(batched.membership_queries, clean.membership_queries);
  EXPECT_EQ(batched.cache_hits, clean.cache_hits);
  EXPECT_EQ(batched.cache_prefix_hits, clean.cache_prefix_hits);
  EXPECT_EQ(batched.nondeterministic_cached, 0);
}

// The acceptance pin: under every *lossless* fault regime, remote learning
// produces an FSM byte-identical to the clean in-process run.
TEST(BatchedProtocol, LearnByteIdenticalUnderLosslessChaos) {
  learner::UeSul local(ue::StackProfile::cls());
  const std::string clean = fsm_text(learner::learn_mealy(local, quick_learn_options()));

  struct Regime {
    const char* name;
    ProxyFaultProfile faults;
  };
  const Regime regimes[] = {
      {"delay", {.delay = 0.2}},
      {"fragment", {.fragment = 0.15}},
      {"reorder", {.reorder = 0.1}},
      {"combined", {.delay = 0.1, .fragment = 0.1, .reorder = 0.05}},
  };
  for (const Regime& regime : regimes) {
    SulServer server(ue::StackProfile::cls());
    ASSERT_TRUE(server.start());
    ChaosProxy proxy(proxy_options(server.port(), regime.faults));
    ASSERT_TRUE(proxy.start());

    RemoteUeSul remote(client_options(proxy.port()));
    learner::LearnResult result = learner::learn_mealy(remote, quick_learn_options());
    ASSERT_TRUE(result.converged) << regime.name;
    ASSERT_FALSE(result.inconclusive) << regime.name;
    EXPECT_EQ(fsm_text(result), clean) << regime.name;
    EXPECT_GT(remote.stats().batch_queries, 0) << regime.name << ": batching never engaged";
    EXPECT_GT(proxy.stats().faults(), 0) << regime.name << ": regime never fired";
  }
}

// --- Kill-at-every-message sweep -------------------------------------------------

// For every possible server-crash point k (at the request crossing logical
// unit k, both before and after the ack goes out), a reconnected
// remote-conformance run must render byte-identical to the uninterrupted
// in-process reference. This pins the replay design: no interruption point
// leaks, duplicates, or reorders an observation. One kQueryWord is 1 + len
// logical units, so a kill can land mid-word on the server and the whole
// word replays.
TEST(KillSweep, WordProtocolByteIdenticalAtEveryKillPoint) {
  const ue::StackProfile profile = ue::StackProfile::cls();
  // Reference: clean remote run (== in-process by RemoteConformanceAllPass),
  // plus the total request count R that bounds the sweep.
  std::string reference;
  long total_requests = 0;
  {
    SulServer server(profile);
    ASSERT_TRUE(server.start());
    RemoteUeSul remote(client_options(server.port()));
    reference = run_remote_conformance(profile, remote).render();
    server.stop();
    total_requests = server.stats().requests;
  }
  ASSERT_GT(total_requests, 0);

  for (int before_reply = 0; before_reply <= 1; ++before_reply) {
    for (long k = 1; k <= total_requests; ++k) {
      SulServerOptions sopts;
      sopts.kill_after_requests = k;
      sopts.kill_before_reply = before_reply == 1;
      SulServer server(profile, sopts);
      ASSERT_TRUE(server.start());
      RemoteUeSul remote(client_options(server.port()));
      RemoteConformanceReport report = run_remote_conformance(profile, remote);
      ASSERT_EQ(report.render(), reference)
          << "kill at request " << k << (before_reply ? " (before reply)" : " (after reply)");
      server.stop();
      ASSERT_EQ(server.stats().kills, 1) << "kill point " << k << " never fired";
    }
  }
}

// --- TSan-focused concurrency tests ----------------------------------------------
// `ctest -L tsan` (the tsan preset) runs these under ThreadSanitizer: the
// heartbeat thread racing the query path, and server/proxy lifecycle churn
// against in-flight queries.

TEST(NetTsan, HeartbeatRacesQueryPathCleanly) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  RemoteSulOptions opts = client_options(server.port());
  opts.heartbeat_seconds = 0.005;  // aggressive: interleave with every query
  RemoteUeSul remote(opts);
  learner::UeSul local(ue::StackProfile::cls());
  const std::vector<std::string> word = {"power_on", "authentication_request",
                                         "security_mode_command", "attach_accept"};
  const std::vector<std::string> expect = local.run(word);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(remote.run(word), expect);
  }
  // The query loop can outrun the first heartbeat tick; give it a bounded
  // window to fire on the idle link before checking it ever ran.
  for (int i = 0; i < 200 && remote.stats().heartbeats == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(remote.stats().heartbeats, 0);
  EXPECT_EQ(remote.run(word), expect);  // link still healthy after the pings
}

TEST(NetTsan, BatchPipelineRacesHeartbeatCleanly) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  RemoteSulOptions opts = client_options(server.port());
  opts.heartbeat_seconds = 0.005;  // interleave pings with the batch window
  RemoteUeSul remote(opts);
  learner::UeSul local(ue::StackProfile::cls());

  std::vector<std::vector<std::string>> words;
  std::vector<std::vector<std::string>> expect;
  for (const char* first : {"power_on", "paging", "detach_request"}) {
    for (const char* second : {"authentication_request", "identity_request"}) {
      words.push_back({first, second});
      expect.push_back(local.run(words.back()));
    }
  }
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(remote.query_batch(words), expect) << "round " << round;
  }
  EXPECT_GT(remote.stats().batch_queries, 0);
}

TEST(NetTsan, ServerChurnWhileClientQueries) {
  std::uint16_t port;
  {
    auto listener = TcpListener::listen(0);
    ASSERT_TRUE(listener.has_value());
    port = listener->port();
  }
  RemoteSulOptions opts = client_options(port);
  opts.heartbeat_seconds = 0.01;
  opts.attempts_per_query = 2;
  opts.call_deadline_seconds = 0.3;
  RemoteUeSul remote(opts);

  // Server flaps up and down while the client keeps querying; every answer
  // must be either correct or the structured unavailable symbol.
  learner::UeSul local(ue::StackProfile::cls());
  const std::vector<std::string> word = {"power_on", "paging"};
  const std::vector<std::string> expect = local.run(word);
  for (int round = 0; round < 6; ++round) {
    if (round % 2 == 0) {
      SulServerOptions sopts;
      sopts.port = port;
      SulServer server(ue::StackProfile::cls(), sopts);
      if (!server.start()) continue;  // port in TIME_WAIT: treat as down-phase
      std::vector<std::string> got = remote.run(word);
      // Up phase: answers may still degrade if the breaker is cooling down.
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(got[i] == expect[i] || got[i] == learner::kSulUnavailable)
            << "round " << round << " step " << i << ": " << got[i];
      }
      server.stop();
    } else {
      std::vector<std::string> got = remote.run(word);
      for (const std::string& o : got) {
        EXPECT_TRUE(o == expect[&o - got.data()] || o == learner::kSulUnavailable) << o;
      }
    }
  }
}

}  // namespace
}  // namespace procheck::net
