// Multi-session SUL server suite (DESIGN.md §13): session isolation,
// admission control, PSK authentication with anti-replay, per-session
// quotas, graceful drain, idle reaping, and the per-session stats registry.
//
// The load-bearing invariants, end to end:
//   * N concurrent learners against one server — clean or through lossless
//     chaos — each produce a result byte-identical to a sequential
//     in-process run (session isolation + deterministic SUL + replay);
//   * every refusal (over cap, draining, bad PSK, legacy client, tripped
//     quota, idle reap) is a *structured* frame the client degrades on,
//     with zero effect on admitted sibling sessions;
//   * killing one session at every message leaves its siblings' results
//     byte-identical — crash isolation is per session, not per server.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

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
  o.eq_test_words = 40;
  o.eq_test_max_length = 5;
  o.seed = 0xBEEF;
  return o;
}

std::string fsm_text(const learner::LearnResult& result) {
  return result.machine.to_fsm().to_dot("learned");
}

/// Reference result every remote learner must reproduce byte-for-byte.
std::string in_process_reference() {
  learner::UeSul sul(ue::StackProfile::cls());
  return fsm_text(learner::learn_mealy(sul, quick_learn_options()));
}

// Raw-socket helpers for handshake-level tests (the client class would
// helpfully retry past exactly the refusals these tests pin).

bool send_raw(TcpConn& conn, const Frame& frame) {
  return conn.send_all(encode_frame(frame), 1.0);
}

std::optional<Frame> read_raw(TcpConn& conn, FrameReader& reader, double budget = 2.0) {
  const auto start = std::chrono::steady_clock::now();
  Bytes chunk;
  bool eof = false;
  for (;;) {
    Decoded d = reader.next();
    if (d.status == DecodeStatus::kFrame) return d.frame;
    if (d.status == DecodeStatus::kBadFrame) return std::nullopt;
    if (eof) return std::nullopt;  // peer closed and the buffer is drained
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count() >
        budget) {
      return std::nullopt;
    }
    chunk.clear();
    auto status = conn.recv_some(chunk, 4096, 0.05);
    if (status == TcpConn::RecvStatus::kData) {
      reader.feed(chunk);
    } else if (status != TcpConn::RecvStatus::kTimeout) {
      eof = true;
    }
  }
}

Frame hello_frame() {
  Frame f;
  f.type = FrameType::kHello;
  f.epoch = 1;
  f.seq = 1;
  f.payload = "raw-test-client";
  return f;
}

// --- Concurrent-session byte-identity ---------------------------------------

TEST(Session, FourConcurrentLearnersMatchSequentialInProcess) {
  const std::string reference = in_process_reference();
  SulServerOptions sopts;
  sopts.max_sessions = 4;
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  constexpr int kClients = 4;
  std::vector<std::string> results(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      RemoteUeSul remote(client_options(server.port()));
      results[static_cast<std::size_t>(i)] =
          fsm_text(learner::learn_mealy(remote, quick_learn_options()));
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], reference) << "learner " << i;
  }

  server.stop();
  EXPECT_EQ(server.stats().sessions_admitted, kClients);
  EXPECT_EQ(server.stats().rejected_busy, 0);
  // Every session worked and closed orderly; the registry shows all of them.
  std::vector<SessionStats> sessions = server.session_stats();
  ASSERT_EQ(sessions.size(), static_cast<std::size_t>(kClients));
  for (const SessionStats& s : sessions) {
    EXPECT_GT(s.steps, 0) << "session " << s.id;
    EXPECT_GT(s.bytes_in, 0) << "session " << s.id;
    EXPECT_FALSE(s.close_reason.empty()) << "session " << s.id;
  }
}

TEST(Session, FourConcurrentLearnersThroughLosslessChaosMatch) {
  const std::string reference = in_process_reference();
  SulServerOptions sopts;
  sopts.max_sessions = 8;  // headroom for reconnect overlap
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  ChaosProxyOptions popts;
  popts.upstream_port = server.port();
  popts.faults.delay = 0.05;
  popts.faults.fragment = 0.10;
  popts.faults.reorder = 0.05;  // lossless: detected, recovered by replay
  ChaosProxy proxy(popts);
  ASSERT_TRUE(proxy.start());

  constexpr int kClients = 4;
  std::vector<std::string> results(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      RemoteUeSul remote(client_options(proxy.port()));
      results[static_cast<std::size_t>(i)] =
          fsm_text(learner::learn_mealy(remote, quick_learn_options()));
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], reference) << "learner " << i;
  }
  proxy.stop();
  server.stop();
  EXPECT_GT(proxy.stats().faults(), 0) << "chaos profile never fired";
}

// --- Admission control -------------------------------------------------------

TEST(Session, OverCapConnectionGetsStructuredBusyReject) {
  SulServerOptions sopts;
  sopts.max_sessions = 1;
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  RemoteUeSul admitted(client_options(server.port()));
  learner::UeSul local(ue::StackProfile::cls());
  const std::vector<std::string> word = {"power_on", "authentication_request"};
  const std::vector<std::string> expect = local.run(word);
  ASSERT_EQ(admitted.run(word), expect);  // session 0 is live and holds the cap

  RemoteUeSul rejected(client_options(server.port()));
  rejected.reset();
  EXPECT_EQ(rejected.step("power_on"), learner::kSulUnavailable);
  EXPECT_EQ(rejected.last_close_reason(), kReasonServerBusy);
  EXPECT_GT(rejected.stats().busy_rejects, 0);
  EXPECT_EQ(rejected.unavailable_reason(), std::string("server said: ") + kReasonServerBusy);

  // The admitted session is untouched by the shedding next door.
  EXPECT_EQ(admitted.run(word), expect);

  server.stop();
  EXPECT_GT(server.stats().rejected_busy, 0);
  EXPECT_EQ(server.stats().sessions_admitted, 1);
}

// --- PSK authentication ------------------------------------------------------

TEST(Session, PskHandshakeAuthenticatesAndLearns) {
  SulServerOptions sopts;
  sopts.psk = "open-sesame";
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  RemoteSulOptions copts = client_options(server.port());
  copts.psk = "open-sesame";
  RemoteUeSul remote(copts);
  learner::UeSul local(ue::StackProfile::cls());
  const std::vector<std::string> word = {"power_on", "authentication_request",
                                         "security_mode_command"};
  EXPECT_EQ(remote.run(word), local.run(word));
  EXPECT_GT(remote.stats().auth_challenges, 0);

  server.stop();
  EXPECT_EQ(server.stats().sessions_authenticated, 1);
  EXPECT_EQ(server.stats().auth_failures, 0);
}

TEST(Session, WrongPskGetsStructuredRejectBeforeAnySulState) {
  SulServerOptions sopts;
  sopts.psk = "correct-key";
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  RemoteSulOptions copts = client_options(server.port());
  copts.psk = "wrong-key";
  RemoteUeSul remote(copts);
  remote.reset();
  EXPECT_EQ(remote.step("power_on"), learner::kSulUnavailable);
  EXPECT_EQ(remote.last_close_reason(), kReasonAuthFailed);

  // The structured reason propagates into the inconclusive learning result.
  learner::LearnResult result = learner::learn_mealy(remote, quick_learn_options());
  EXPECT_TRUE(result.inconclusive);
  EXPECT_NE(result.note.find(kReasonAuthFailed), std::string::npos) << result.note;

  server.stop();
  EXPECT_GT(server.stats().auth_failures, 0);
  EXPECT_EQ(server.stats().sessions_authenticated, 0);
  // Auth failed before any SUL existed: zero application requests processed.
  EXPECT_EQ(server.stats().requests, 0);
}

TEST(Session, ReplayedAuthResponseIsRejected) {
  SulServerOptions sopts;
  sopts.psk = "replay-me";
  sopts.nonce_seed = 42;  // pinned stream; nonces still differ per connection
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  // Legitimate handshake: capture the MAC an eavesdropper would see.
  std::string nonce1;
  std::string captured_mac;
  {
    auto conn = TcpConn::connect("127.0.0.1", server.port(), 1.0);
    ASSERT_TRUE(conn.has_value());
    FrameReader reader;
    ASSERT_TRUE(send_raw(*conn, hello_frame()));
    auto challenge = read_raw(*conn, reader);
    ASSERT_TRUE(challenge.has_value());
    ASSERT_EQ(challenge->type, FrameType::kChallenge);
    nonce1 = challenge->payload;
    captured_mac = auth_mac("replay-me", nonce1, 1);
    Frame auth;
    auth.type = FrameType::kAuthResponse;
    auth.epoch = 1;
    auth.seq = 2;
    auth.payload = captured_mac;
    ASSERT_TRUE(send_raw(*conn, auth));
    auto ack = read_raw(*conn, reader);
    ASSERT_TRUE(ack.has_value());
    EXPECT_EQ(ack->type, FrameType::kHelloAck);
  }

  // Replay: a new connection gets a *fresh* nonce, so the captured MAC is
  // bound to a challenge that will never be issued again.
  {
    auto conn = TcpConn::connect("127.0.0.1", server.port(), 1.0);
    ASSERT_TRUE(conn.has_value());
    FrameReader reader;
    ASSERT_TRUE(send_raw(*conn, hello_frame()));
    auto challenge = read_raw(*conn, reader);
    ASSERT_TRUE(challenge.has_value());
    ASSERT_EQ(challenge->type, FrameType::kChallenge);
    EXPECT_NE(challenge->payload, nonce1) << "nonce reuse across connections";
    Frame auth;
    auth.type = FrameType::kAuthResponse;
    auth.epoch = 1;
    auth.seq = 2;
    auth.payload = captured_mac;  // verbatim replay
    ASSERT_TRUE(send_raw(*conn, auth));
    auto close = read_raw(*conn, reader);
    ASSERT_TRUE(close.has_value());
    EXPECT_EQ(close->type, FrameType::kClose);
    EXPECT_EQ(close->payload, kReasonAuthFailed);
  }

  server.stop();
  EXPECT_EQ(server.stats().sessions_authenticated, 1);
  EXPECT_EQ(server.stats().auth_failures, 1);
}

TEST(Session, StartRefusesNonLoopbackBindWithoutPsk) {
  SulServerOptions sopts;
  sopts.bind_host = "0.0.0.0";
  SulServer server(ue::StackProfile::cls(), sopts);
  EXPECT_FALSE(server.start());
  EXPECT_NE(server.start_error().find("PSK"), std::string::npos) << server.start_error();
}

// --- Version gating ----------------------------------------------------------

TEST(Session, LegacyHellosGetStructuredUpgradeClose) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());

  // v1: a pre-auth client; v2: a per-symbol reset/step client; v3: a client
  // that sends single words as kQueryWord frames.
  for (const int version : {1, 2, 3}) {
    auto conn = TcpConn::connect("127.0.0.1", server.port(), 1.0);
    ASSERT_TRUE(conn.has_value());
    Frame hello = hello_frame();
    hello.version = static_cast<std::uint8_t>(version);
    FrameReader reader;
    ASSERT_TRUE(send_raw(*conn, hello));
    auto close = read_raw(*conn, reader);
    ASSERT_TRUE(close.has_value()) << "v" << version;
    EXPECT_EQ(close->type, FrameType::kClose) << "v" << version;
    EXPECT_NE(close->payload.find("upgrade_required"), std::string::npos) << close->payload;
    // In the client's own version, so a legacy decoder can read the reason.
    EXPECT_EQ(close->version, version);
    // The server closed the socket — not a half-open connection.
    Bytes chunk;
    EXPECT_EQ(conn->recv_some(chunk, 64, 1.0), TcpConn::RecvStatus::kEof) << "v" << version;
  }

  server.stop();
  EXPECT_EQ(server.stats().upgrade_rejects, 3);
  EXPECT_EQ(server.stats().sessions_authenticated, 0);
}

// A stale client that gets past the hello but still speaks a retired query
// frame (v2's per-symbol kStep, v3's single-word kQueryWord) is a protocol
// error: a structured kError naming the frame, then a closed socket — never
// a crash, never a half-served word.
TEST(Session, RetiredQueryFramesGetProtocolErrorAndClose) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());

  const FrameType retired[] = {FrameType::kStep, FrameType::kQueryWord};
  for (const FrameType type : retired) {
    auto conn = TcpConn::connect("127.0.0.1", server.port(), 1.0);
    ASSERT_TRUE(conn.has_value());
    FrameReader reader;
    ASSERT_TRUE(send_raw(*conn, hello_frame()));
    auto ack = read_raw(*conn, reader);
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, FrameType::kHelloAck);

    Frame query;
    query.type = type;
    query.epoch = 1;
    query.seq = 2;
    query.payload = "power_on";
    ASSERT_TRUE(send_raw(*conn, query));
    auto error = read_raw(*conn, reader);
    ASSERT_TRUE(error.has_value()) << to_string(type);
    EXPECT_EQ(error->type, FrameType::kError) << to_string(type);
    EXPECT_EQ(error->payload, "unexpected frame type: " + std::string(to_string(type)));
    Bytes chunk;
    EXPECT_EQ(conn->recv_some(chunk, 64, 1.0), TcpConn::RecvStatus::kEof) << to_string(type);
  }

  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 2);
  EXPECT_EQ(server.stats().session_errors, 0);
  EXPECT_EQ(server.stats().requests, 0);
  std::vector<SessionStats> sessions = server.session_stats();
  ASSERT_EQ(sessions.size(), 2u);
  for (const SessionStats& s : sessions) EXPECT_EQ(s.close_reason, "protocol_error");
}

// --- Batch queries at the session layer ---------------------------------------

// Satellite (a): the RemoteUeSul client dedupes before sending, but the wire
// contract is that a *server* also tolerates duplicate words inside one
// kQueryBatch — every duplicate position is answered, identically, and the
// duplicates execute as prefix continuations (zero extra resets).
TEST(Session, RawBatchWithDuplicateWordsIsTolerated) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  learner::UeSul local(ue::StackProfile::cls());

  auto conn = TcpConn::connect("127.0.0.1", server.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  FrameReader reader;
  ASSERT_TRUE(send_raw(*conn, hello_frame()));
  auto ack = read_raw(*conn, reader);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, FrameType::kHelloAck);
  EXPECT_EQ(ack->payload, "cls") << "the hello-ack carries only the profile name";

  const std::vector<std::vector<std::string>> words = {
      {"power_on"},
      {"power_on"},
      {"power_on", "authentication_request"},
  };
  Frame batch;
  batch.type = FrameType::kQueryBatch;
  batch.epoch = 1;
  batch.seq = 2;
  batch.payload = encode_batch(words);
  ASSERT_TRUE(send_raw(*conn, batch));
  auto reply = read_raw(*conn, reader);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, FrameType::kBatchAck);
  auto outputs = decode_batch(reply->payload, words.size());
  ASSERT_TRUE(outputs.has_value());
  ASSERT_EQ(outputs->size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ((*outputs)[i], local.run(words[i])) << "position " << i;
  }

  server.stop();
  EXPECT_EQ(server.stats().batched_words, 3);
  EXPECT_EQ(server.stats().resets, 1) << "duplicates and extensions continue one chain";
  EXPECT_EQ(server.stats().prefix_hits, 2);
  EXPECT_EQ(server.stats().batch_refusals, 0);
}

// A malformed batch, or one over the codec's word or symbol bounds, is
// refused with a *structured* kError whose reason names the problem — and
// the session survives it untouched.
TEST(Session, OversizedAndMalformedBatchesGetStructuredRefusal) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  learner::UeSul local(ue::StackProfile::cls());

  auto conn = TcpConn::connect("127.0.0.1", server.port(), 1.0);
  ASSERT_TRUE(conn.has_value());
  FrameReader reader;
  ASSERT_TRUE(send_raw(*conn, hello_frame()));
  auto ack = read_raw(*conn, reader);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, FrameType::kHelloAck);

  std::uint32_t seq = 1;
  auto refusal_of = [&](const std::string& payload) -> std::string {
    Frame batch;
    batch.type = FrameType::kQueryBatch;
    batch.epoch = 1;
    batch.seq = ++seq;
    batch.payload = payload;
    if (!send_raw(*conn, batch)) return "send failed";
    auto reply = read_raw(*conn, reader);
    if (!reply) return "no reply";
    if (reply->type != FrameType::kError) return std::string(to_string(reply->type));
    return reply->payload;
  };

  // One word over kMaxBatchWords, and one symbol over kMaxBatchSymbols.
  const std::vector<std::vector<std::string>> many(kMaxBatchWords + 1, {"paging"});
  EXPECT_EQ(refusal_of(encode_batch(many)), kReasonBatchTooLarge);
  const std::vector<std::string> long_word(kMaxWordSymbols, "paging");
  EXPECT_EQ(refusal_of(encode_batch({long_word, long_word, long_word, long_word, {"paging"}})),
            kReasonBatchTooLarge);
  // A batch whose words don't decode: refused as malformed.
  EXPECT_EQ(refusal_of("power_on;not a symbol"), kReasonBadBatch);

  // The session survived all three refusals: a real query still answers.
  Frame batch;
  batch.type = FrameType::kQueryBatch;
  batch.epoch = 1;
  batch.seq = ++seq;
  batch.payload = encode_batch({{"power_on", "authentication_request"}});
  ASSERT_TRUE(send_raw(*conn, batch));
  auto answer = read_raw(*conn, reader);
  ASSERT_TRUE(answer.has_value());
  ASSERT_EQ(answer->type, FrameType::kBatchAck);
  const std::vector<std::vector<std::string>> expect = {
      local.run({"power_on", "authentication_request"})};
  EXPECT_EQ(decode_batch(answer->payload, 1), expect);

  server.stop();
  EXPECT_EQ(server.stats().batch_refusals, 3);
  EXPECT_EQ(server.stats().batch_queries, 1) << "refused requests ran no SUL work";
  EXPECT_EQ(server.stats().steps, 2);
}

// Satellite (b): the per-session registry and the rendered stats table carry
// the batch counters an operator needs to see amortization working.
TEST(Session, BatchCountersSurfaceInRegistryAndRender) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  {
    RemoteUeSul remote(client_options(server.port()));
    remote.run({"power_on"});  // one kQueryBatch, one word
    remote.query_batch({{"power_on"},
                        {"power_on", "authentication_request"},
                        {"paging"}});  // one kQueryBatch, three words
  }  // destructor sends kBye
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.stop();

  std::vector<SessionStats> sessions = server.session_stats();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].batch_queries, 2);
  EXPECT_EQ(sessions[0].batched_words, 4);
  EXPECT_GT(sessions[0].prefix_hits, 0);

  const std::string table = server.render_stats();
  EXPECT_NE(table.find("words:"), std::string::npos) << table;
  EXPECT_NE(table.find("2 batches (4 words)"), std::string::npos) << table;
}

// --- Per-session quotas ------------------------------------------------------

TEST(Session, QueryQuotaTripsWithStructuredClose) {
  SulServerOptions sopts;
  sopts.max_session_queries = 4;  // logical units: a word counts 1 + its length
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  RemoteUeSul remote(client_options(server.port()));
  learner::UeSul local(ue::StackProfile::cls());
  remote.reset();
  local.reset();
  // Each step() is one word of the inputs so far. The quota is checked
  // before each word against the session's earlier count, so a session
  // serves words until it has spent its 4 units, then closes with a
  // structured reason at the next one — and the fresh session the client
  // redials always serves its first word. The answers stay correct; the
  // cost is a reconnect per quota.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(remote.step("authentication_request"), local.step("authentication_request"))
        << "step " << i;
  }
  EXPECT_EQ(remote.last_close_reason(), kReasonQuotaQueries);
  EXPECT_GT(remote.stats().reconnects, 0);
  EXPECT_EQ(remote.stats().unavailable_answers, 0);

  server.stop();
  EXPECT_GT(server.stats().quota_trips, 0);
  EXPECT_EQ(server.stats().quota_trips, remote.stats().server_closes);
}

TEST(Session, ByteQuotaTripsWithStructuredClose) {
  SulServerOptions sopts;
  sopts.max_session_bytes = 80;  // roughly the hello + one request
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  RemoteUeSul remote(client_options(server.port()));
  remote.reset();
  std::string last;
  for (int i = 0; i < 6; ++i) last = remote.step("authentication_request");
  EXPECT_EQ(last, learner::kSulUnavailable);
  EXPECT_EQ(remote.last_close_reason(), kReasonQuotaBytes);

  server.stop();
  EXPECT_GT(server.stats().quota_trips, 0);
}

// --- Graceful drain ----------------------------------------------------------

TEST(Session, DrainClosesAtNextWordAndShedsNewcomers) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());

  learner::UeSul local(ue::StackProfile::cls());
  RemoteUeSul inflight(client_options(server.port()));
  inflight.reset();
  local.reset();
  ASSERT_EQ(inflight.step("power_on"), local.step("power_on"));
  ASSERT_EQ(inflight.step("authentication_request"), local.step("authentication_request"));

  server.drain();
  EXPECT_TRUE(server.draining());

  // A newcomer is shed with a structured "draining" reject.
  RemoteUeSul newcomer(client_options(server.port()));
  newcomer.reset();
  EXPECT_EQ(newcomer.step("power_on"), learner::kSulUnavailable);
  EXPECT_EQ(newcomer.last_close_reason(), kReasonDraining);

  // Every step() is one batch frame, and every batch frame is a word
  // boundary: the words answered before the drain are complete, and the
  // session closes with kClose(drained) at its next frame — even a step()
  // continuing the same logical word. Its reconnect attempts are shed like
  // the newcomer's.
  EXPECT_EQ(inflight.step("security_mode_command"), learner::kSulUnavailable);
  EXPECT_EQ(inflight.last_close_reason(), kReasonDraining);
  EXPECT_GT(inflight.stats().server_closes, 0);

  server.stop();
  EXPECT_EQ(server.stats().drained_closes, 1);
  EXPECT_GT(server.stats().rejected_draining, 0);
  std::vector<SessionStats> sessions = server.session_stats();
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].close_reason, kReasonDrained);
  EXPECT_EQ(sessions[0].batched_words, 2) << "both pre-drain words were served";
}

// --- Idle reaping ------------------------------------------------------------

TEST(Session, IdleSessionIsReapedAndClientRecovers) {
  SulServerOptions sopts;
  sopts.idle_timeout_seconds = 0.2;
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  RemoteUeSul remote(client_options(server.port()));
  learner::UeSul local(ue::StackProfile::cls());
  const std::vector<std::string> word = {"power_on", "authentication_request"};
  const std::vector<std::string> expect = local.run(word);
  ASSERT_EQ(remote.run(word), expect);

  std::this_thread::sleep_for(std::chrono::milliseconds(600));  // go quiet

  // The quiet session was reaped with a structured reason; the next query
  // transparently reconnects into a fresh session and still agrees.
  EXPECT_EQ(remote.run(word), expect);
  server.stop();
  EXPECT_EQ(server.stats().reaped_idle, 1);
  std::vector<SessionStats> sessions = server.session_stats();
  ASSERT_GE(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].close_reason, kReasonIdleTimeout);
}

TEST(Session, HeartbeatKeepsIdleSessionAlive) {
  SulServerOptions sopts;
  sopts.idle_timeout_seconds = 0.3;
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  RemoteSulOptions copts = client_options(server.port());
  copts.heartbeat_seconds = 0.05;  // well under the reap threshold
  RemoteUeSul remote(copts);
  learner::UeSul local(ue::StackProfile::cls());
  const std::vector<std::string> word = {"power_on"};
  ASSERT_EQ(remote.run(word), local.run(word));

  std::this_thread::sleep_for(std::chrono::milliseconds(700));

  server.stop();
  EXPECT_EQ(server.stats().reaped_idle, 0) << "pings must count as activity";
  EXPECT_GT(server.stats().pings, 0);
  EXPECT_EQ(remote.stats().reconnects, 0);
}

// --- Cross-session crash isolation ------------------------------------------

// Satellite: kill one session at every message; siblings must stay
// byte-identical to the clean run. The victim recovers by replay, so *its*
// result must match too — a strictly stronger claim than survival.
TEST(Session, KillOneSessionAtEveryMessageSparesSiblings) {
  const ue::StackProfile profile = ue::StackProfile::cls();

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

  for (long k = 1; k <= total_requests; ++k) {
    SulServerOptions sopts;
    sopts.max_sessions = 4;
    sopts.kill_session = 0;  // only the victim's first session is in scope
    sopts.kill_after_requests = k;
    sopts.kill_before_reply = (k % 2) == 0;
    SulServer server(profile, sopts);
    ASSERT_TRUE(server.start());

    // The victim connects first so it deterministically owns accept index 0.
    RemoteUeSul victim(client_options(server.port()));
    victim.reset();
    ASSERT_NE(victim.step("power_on"), learner::kSulUnavailable);

    std::string survivor_render;
    std::thread survivor_thread([&] {
      RemoteUeSul survivor(client_options(server.port()));
      survivor_render = run_remote_conformance(profile, survivor).render();
    });
    std::string victim_render = run_remote_conformance(profile, victim).render();
    survivor_thread.join();

    EXPECT_EQ(survivor_render, reference) << "sibling diverged at kill point " << k;
    EXPECT_EQ(victim_render, reference) << "victim failed to recover at kill point " << k;
    server.stop();
    EXPECT_EQ(server.stats().kills, 1) << "kill point " << k << " never fired";
  }
}

// --- Stats rendering ---------------------------------------------------------

TEST(Session, RenderStatsListsEverySessionWithCloseReason) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  {
    RemoteUeSul remote(client_options(server.port()));
    remote.run({"power_on"});
  }  // destructor sends kBye
  // The bye races the destructor's return; give the server one poll to log it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  server.stop();

  const std::string table = server.render_stats();
  EXPECT_NE(table.find("close_reason"), std::string::npos) << table;
  EXPECT_NE(table.find("bye"), std::string::npos) << table;
  EXPECT_NE(table.find("1 admitted"), std::string::npos) << table;
}

// --- TSan-focused concurrency tests ------------------------------------------
// `ctest -L tsan` (the tsan preset) runs these under ThreadSanitizer:
// concurrent sessions over the shared stats registry, drain racing live
// queries, and the stats snapshot racing everything.

TEST(SessionTsan, ConcurrentSessionsAndStatsSnapshotsAreClean) {
  SulServerOptions sopts;
  sopts.max_sessions = 3;
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  learner::UeSul local(ue::StackProfile::cls());
  const std::vector<std::string> word = {"power_on", "authentication_request",
                                         "security_mode_command", "attach_accept"};
  const std::vector<std::string> expect = local.run(word);

  std::atomic<bool> done{false};
  std::thread poller([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)server.stats();
      (void)server.session_stats();
      (void)server.render_stats();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&] {
      RemoteUeSul remote(client_options(server.port()));
      for (int round = 0; round < 10; ++round) {
        EXPECT_EQ(remote.run(word), expect);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  done.store(true, std::memory_order_release);
  poller.join();
  server.stop();
}

TEST(SessionTsan, DrainRacesLiveSessionsCleanly) {
  SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  std::thread client([&] {
    RemoteUeSul remote(client_options(server.port()));
    remote.reset();
    for (int i = 0; i < 50; ++i) {
      if (remote.step("authentication_request") == learner::kSulUnavailable) break;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.drain();
  client.join();
  server.stop();
}

}  // namespace
}  // namespace procheck::net
