// Fault-tolerant remote SUL client (DESIGN.md §12).
//
// RemoteUeSul implements the learner::Sul interface over the framed wire
// protocol, absorbing every transport fault the chaos proxy (or a real
// network) can throw at it:
//
//   * per-call deadlines — no call ever blocks past its budget;
//   * reconnect with jittered exponential backoff, bumping the epoch so a
//     stale answer from a dead link is discarded, never consumed;
//   * one query path: every query is a whole word from the initial state,
//     sent inside a kQueryBatch. step(), query_word() and query_batch() all
//     ship their distinct words as pipelined batch frames of up to
//     max_batch_words words each. step() sends the word since the last
//     reset(), which the server continues from the word it just ran; after
//     a reconnect the fresh session simply replays it, reconstructing the
//     deterministic server state exactly — which is why learning over a
//     lossy-but-not-lying channel stays byte-identical to an in-process run;
//   * a circuit breaker (closed → open → half-open probe) that stops
//     hammering a dead server and degrades to the structured
//     learner::kSulUnavailable output symbol — learners converge to an
//     explicit inconclusive verdict instead of hanging or throwing;
//   * an optional heartbeat thread that pings the idle link so a silently
//     dead connection is detected before the next query stalls on it.
//
// Answers are returned exactly as the server sent them: a nondeterministic
// SUT is the learning supervisor's to arbitrate (DESIGN.md §15), not the
// transport's. A word the batch codec cannot carry (over kMaxWordSymbols, or
// a symbol outside its charset), like any word the transport could not get
// answered within its attempt budget, degrades to kSulUnavailable.
//
// Thread-safety: all client state lives under one mutex shared by the query
// path and the heartbeat thread; the TSan suite pins this.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "learner/sul.h"
#include "net/socket.h"
#include "net/wire.h"

namespace procheck::net {

struct RemoteSulOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Shared key for the server's challenge/response handshake. "" works
  /// against an open (loopback) server; against a PSK server it yields a
  /// structured auth_failed close.
  std::string psk;

  /// Wall-clock budget for one frame round-trip (send + matching ack).
  double call_deadline_seconds = 1.0;
  /// Budget for one TCP connect attempt.
  double connect_timeout_seconds = 0.5;

  /// Reconnect backoff: base * 2^attempt, jittered, capped at max.
  double backoff_base_seconds = 0.01;
  double backoff_max_seconds = 0.25;
  /// Transport attempts per query before degrading to kSulUnavailable.
  int attempts_per_query = 3;

  /// Circuit breaker: consecutive transport failures before opening, and how
  /// long the open circuit rejects attempts before a half-open probe.
  int breaker_failure_threshold = 5;
  double breaker_open_seconds = 0.2;

  /// Heartbeat period for the keepalive thread; 0 disables it.
  double heartbeat_seconds = 0.0;

  /// Words per kQueryBatch frame, 1 to kMaxBatchWords (values outside are
  /// clamped); 1 sends every word in a frame of its own.
  int max_batch_words = kDefaultBatchWords;

  /// Jitter seed (deterministic backoff for reproducible tests).
  std::uint64_t seed = 0x5EEDF00D;
};

struct RemoteSulStats {
  long connects = 0;            // successful connections (incl. the first)
  long reconnects = 0;          // connections after the first
  long connect_failures = 0;
  long rpc_timeouts = 0;
  long framing_errors = 0;      // corrupted stream detected by CRC/length
  long stale_frames = 0;        // answers from a previous epoch, discarded
  long breaker_opens = 0;
  long breaker_probes = 0;      // half-open trial queries
  long unavailable_answers = 0; // queries degraded to kSulUnavailable
  long heartbeats = 0;
  long heartbeat_failures = 0;
  long auth_challenges = 0;     // kChallenge frames answered
  long busy_rejects = 0;        // kServerBusy rejects (admission/drain)
  long server_closes = 0;       // structured kClose frames received
  long batch_queries = 0;       // kQueryBatch frames acked
  long batched_words = 0;       // words answered inside those frames
};

/// Circuit-breaker state (exposed for tests and status lines).
enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };
std::string_view to_string(BreakerState state);

class RemoteUeSul final : public learner::Sul {
 public:
  explicit RemoteUeSul(RemoteSulOptions options);
  ~RemoteUeSul() override;

  RemoteUeSul(const RemoteUeSul&) = delete;
  RemoteUeSul& operator=(const RemoteUeSul&) = delete;

  /// Lazy: clears the logical word (no I/O here, so a dead server cannot
  /// stall reset storms).
  void reset() override;

  /// Appends `input` to the word since the last reset() and sends that whole
  /// word as a one-word batch; the server continues from the word it last
  /// ran, so only the new symbol executes. Returns the last output. Never
  /// throws, never blocks past the attempt budget; degrades to
  /// learner::kSulUnavailable when the transport is beyond help.
  std::string step(const std::string& input) override;

  /// One whole membership query in one round trip, under the same retry and
  /// degradation rules as step().
  std::vector<std::string> query_word(const std::vector<std::string>& word) override;

  /// Deduplicates the words and ships the distinct ones as pipelined
  /// kQueryBatch frames (up to four in the air).
  std::vector<std::vector<std::string>> query_batch(
      const std::vector<std::vector<std::string>>& words) override;

  long resets() const override;
  long steps() const override;

  RemoteSulStats stats() const;
  BreakerState breaker() const;

  /// Server profile name from the hello handshake ("" before first contact).
  std::string server_profile() const;

  /// Reason string from the last structured kClose / kServerBusy frame the
  /// server sent ("" if none yet). Surfaced through unavailable_reason() so
  /// `learn --remote` can print *why* a run went inconclusive.
  std::string last_close_reason() const;
  std::string unavailable_reason() const override;

 private:
  // All private helpers assume mu_ is held.
  bool breaker_allows_locked();
  void record_failure_locked();
  void record_success_locked();
  bool connect_locked(double budget_seconds);
  void drop_connection_locked();
  bool send_frame_locked(FrameType type, const std::string& payload, std::uint32_t* seq_out);
  std::optional<Frame> await_ack_locked(std::uint32_t seq);
  std::optional<Frame> rpc_locked(FrameType type, const std::string& payload);

  /// The transport attempt loop every query shape runs under: up to
  /// attempts_per_query tries, each redialing (after jittered exponential
  /// backoff) when the link is down and then running `exchange` on the live
  /// link, with every outcome fed to the breaker. True once an exchange
  /// succeeds.
  bool attempt_locked(const std::function<bool()>& exchange);

  /// The one query path: answers the distinct `words`, index-aligned, over
  /// pipelined kQueryBatch frames under attempt_locked. Every word the
  /// transport could not carry is answered with kSulUnavailable.
  std::vector<std::vector<std::string>> query_locked(
      const std::vector<const std::vector<std::string>*>& words);

  void heartbeat_loop();

  RemoteSulOptions options_;

  mutable std::mutex mu_;
  TcpConn conn_;
  FrameReader reader_;
  std::uint32_t epoch_ = 0;
  std::uint32_t seq_ = 0;
  std::vector<std::string> word_;  // inputs since the last reset()
  std::string server_profile_;
  std::string last_close_reason_;

  BreakerState breaker_ = BreakerState::kClosed;
  int consecutive_failures_ = 0;
  std::chrono::steady_clock::time_point breaker_opened_at_{};

  Rng jitter_;

  long resets_ = 0;
  long steps_ = 0;
  RemoteSulStats stats_;

  // Heartbeat machinery: its own mutex/cv so stop() can interrupt the wait
  // without contending with an in-flight query.
  std::thread heartbeat_thread_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool stopping_ = false;
};

}  // namespace procheck::net
