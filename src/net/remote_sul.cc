#include "net/remote_sul.h"

#include <algorithm>
#include <map>

namespace procheck::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

void sleep_seconds(double s) {
  if (s > 0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

/// Query frames in flight before the client waits on an ack (acks come back
/// in request order, so the window just hides RTTs).
constexpr std::size_t kInflightFrames = 4;

/// True when the batch codec can carry this word verbatim: a word it cannot
/// carry degrades to kSulUnavailable, never to a lossy re-encoding.
bool word_encodable(const std::vector<std::string>& word) {
  if (word.size() > kMaxWordSymbols) return false;
  for (const std::string& s : word) {
    if (s.empty() || s.size() > kMaxSymbolChars) return false;
    for (const char c : s) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
      if (!ok) return false;
    }
  }
  return true;
}

}  // namespace

std::string_view to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half_open";
  }
  return "?";
}

RemoteUeSul::RemoteUeSul(RemoteSulOptions options)
    : options_(options), jitter_(options.seed) {
  if (options_.heartbeat_seconds > 0) {
    heartbeat_thread_ = std::thread([this] { heartbeat_loop(); });
  }
}

RemoteUeSul::~RemoteUeSul() {
  {
    std::lock_guard<std::mutex> lock(hb_mu_);
    stopping_ = true;
  }
  hb_cv_.notify_all();
  if (heartbeat_thread_.joinable()) heartbeat_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  if (conn_.valid()) {
    Frame bye;
    bye.type = FrameType::kBye;
    bye.epoch = epoch_;
    bye.seq = ++seq_;
    conn_.send_all(encode_frame(bye), 0.05);  // best-effort courtesy
  }
}

void RemoteUeSul::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  ++resets_;
  word_.clear();
}

long RemoteUeSul::resets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resets_;
}

long RemoteUeSul::steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_;
}

RemoteSulStats RemoteUeSul::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

BreakerState RemoteUeSul::breaker() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_;
}

std::string RemoteUeSul::server_profile() const {
  std::lock_guard<std::mutex> lock(mu_);
  return server_profile_;
}

std::string RemoteUeSul::last_close_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_close_reason_;
}

std::string RemoteUeSul::unavailable_reason() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!last_close_reason_.empty()) return "server said: " + last_close_reason_;
  if (stats_.connect_failures > 0 && stats_.connects == 0) return "server unreachable";
  return "";
}

// ---------------------------------------------------------------------------
// Circuit breaker
// ---------------------------------------------------------------------------

bool RemoteUeSul::breaker_allows_locked() {
  switch (breaker_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (seconds_since(breaker_opened_at_) < options_.breaker_open_seconds) return false;
      breaker_ = BreakerState::kHalfOpen;  // cooldown elapsed: one probe
      ++stats_.breaker_probes;
      return true;
    case BreakerState::kHalfOpen:
      // A probe is conceptually in flight; the single-threaded query path
      // means we *are* the probe.
      return true;
  }
  return true;
}

void RemoteUeSul::record_failure_locked() {
  ++consecutive_failures_;
  if (breaker_ == BreakerState::kHalfOpen ||
      (breaker_ == BreakerState::kClosed &&
       consecutive_failures_ >= options_.breaker_failure_threshold)) {
    breaker_ = BreakerState::kOpen;
    breaker_opened_at_ = Clock::now();
    ++stats_.breaker_opens;
  }
}

void RemoteUeSul::record_success_locked() {
  consecutive_failures_ = 0;
  breaker_ = BreakerState::kClosed;
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

void RemoteUeSul::drop_connection_locked() {
  conn_.close();
  reader_.reset();
}

bool RemoteUeSul::connect_locked(double budget_seconds) {
  auto conn = TcpConn::connect(options_.host, options_.port, budget_seconds);
  if (!conn) {
    ++stats_.connect_failures;
    return false;
  }
  conn_ = std::move(*conn);
  reader_.reset();
  ++epoch_;  // stale answers from the dead link can never match again
  seq_ = 0;
  ++stats_.connects;
  if (stats_.connects > 1) ++stats_.reconnects;

  auto ack = rpc_locked(FrameType::kHello, "prochecker-learner");
  if (ack && ack->type == FrameType::kChallenge) {
    // PSK handshake: prove key possession with a MAC over the server's fresh
    // nonce and our epoch. An empty PSK still answers (with a wrong MAC) so
    // the refusal comes back as a structured auth_failed close.
    ++stats_.auth_challenges;
    const std::string mac = auth_mac(options_.psk, ack->payload, epoch_);
    ack = rpc_locked(FrameType::kAuthResponse, mac);
  }
  if (!ack || ack->type != FrameType::kHelloAck) {
    drop_connection_locked();
    return false;
  }
  server_profile_ = ack->payload;
  return true;
}

bool RemoteUeSul::send_frame_locked(FrameType type, const std::string& payload,
                                    std::uint32_t* seq_out) {
  if (!conn_.valid()) return false;
  Frame req;
  req.type = type;
  req.epoch = epoch_;
  req.seq = ++seq_;
  req.payload = payload;
  if (!conn_.send_all(encode_frame(req), options_.call_deadline_seconds)) {
    drop_connection_locked();
    return false;
  }
  *seq_out = req.seq;
  return true;
}

std::optional<Frame> RemoteUeSul::rpc_locked(FrameType type, const std::string& payload) {
  std::uint32_t seq = 0;
  if (!send_frame_locked(type, payload, &seq)) return std::nullopt;
  return await_ack_locked(seq);
}

std::optional<Frame> RemoteUeSul::await_ack_locked(std::uint32_t seq) {
  if (!conn_.valid()) return std::nullopt;
  const auto started = Clock::now();
  Bytes chunk;
  while (seconds_since(started) < options_.call_deadline_seconds) {
    Decoded d = reader_.next();
    if (d.status == DecodeStatus::kBadFrame) {
      // Corruption is *detected*, never consumed: the CRC turned it into a
      // framing error, and the only safe move is a fresh connection.
      ++stats_.framing_errors;
      drop_connection_locked();
      return std::nullopt;
    }
    if (d.status == DecodeStatus::kFrame) {
      // Server-initiated control frames carry the *server's* sequencing
      // (admission rejects precede our hello; drain/quota closes fire at poll
      // time), so they must be recognized before the epoch/seq match below
      // would discard them as stale.
      if (d.frame.type == FrameType::kServerBusy || d.frame.type == FrameType::kClose) {
        if (d.frame.type == FrameType::kServerBusy) {
          ++stats_.busy_rejects;
        } else {
          ++stats_.server_closes;
        }
        last_close_reason_ = d.frame.payload;
        drop_connection_locked();
        return std::nullopt;
      }
      if (d.frame.epoch != epoch_ || d.frame.seq != seq) {
        ++stats_.stale_frames;  // leftover answer from an earlier life
        continue;
      }
      if (d.frame.type == FrameType::kError) {
        drop_connection_locked();
        return std::nullopt;
      }
      return d.frame;
    }
    chunk.clear();
    double remaining = options_.call_deadline_seconds - seconds_since(started);
    auto status = conn_.recv_some(chunk, 4096, std::max(remaining, 0.001));
    if (status == TcpConn::RecvStatus::kData) {
      reader_.feed(chunk);
      continue;
    }
    if (status == TcpConn::RecvStatus::kTimeout) break;
    drop_connection_locked();  // EOF or socket error
    return std::nullopt;
  }
  ++stats_.rpc_timeouts;
  drop_connection_locked();  // the stream may deliver the answer later; too late
  return std::nullopt;
}

bool RemoteUeSul::attempt_locked(const std::function<bool()>& exchange) {
  double backoff = options_.backoff_base_seconds;
  for (int attempt = 0; attempt < options_.attempts_per_query; ++attempt) {
    if (!breaker_allows_locked()) return false;  // open: don't touch the socket
    bool ok;
    if (conn_.valid()) {
      ok = exchange();
    } else {
      // Jittered exponential backoff before redialing. A fresh session holds
      // no word state, and every request is a whole word, so the exchange
      // itself replays whatever the dead link was in the middle of.
      sleep_seconds(std::min(backoff, options_.backoff_max_seconds) *
                    (0.5 + 0.5 * static_cast<double>(jitter_.next_below(1000)) / 1000.0));
      ok = connect_locked(options_.connect_timeout_seconds) && exchange();
    }
    if (ok) {
      record_success_locked();
      return true;
    }
    record_failure_locked();
    if (breaker_ == BreakerState::kOpen) return false;  // stop hammering a dead server
    backoff *= 2.0;
  }
  return false;
}

// ---------------------------------------------------------------------------
// The Sul interface
// ---------------------------------------------------------------------------

std::vector<std::vector<std::string>> RemoteUeSul::query_locked(
    const std::vector<const std::vector<std::string>*>& words) {
  std::vector<std::vector<std::string>> answers(words.size());
  auto degrade = [&](std::size_t i) {
    // Beyond help for now: the structured unavailable symbol the learner
    // converts into "inconclusive".
    ++stats_.unavailable_answers;
    answers[i].assign(words[i]->size(), learner::kSulUnavailable);
  };
  // The words still unanswered, as indices into `words` in request order.
  std::vector<std::size_t> todo;
  todo.reserve(words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (word_encodable(*words[i])) {
      todo.push_back(i);
    } else {
      degrade(i);
    }
  }

  // Every encodable word fits a frame on its own.
  static_assert(kMaxWordSymbols <= kMaxBatchSymbols);
  const std::size_t per_frame = static_cast<std::size_t>(
      std::clamp(options_.max_batch_words, 1, static_cast<int>(kMaxBatchWords)));
  // One pass over `todo` on the live link. Frames carry consecutive runs of
  // it: up to per_frame words and kMaxBatchSymbols symbols, with ε alone
  // (the codec carries it only as a one-item batch). Up to kInflightFrames
  // frames are in the air and acks come back in request order, so the
  // answered words are always a prefix of `todo`, which the pass erases. It
  // succeeds once it answered anything: a link that makes progress earns a
  // fresh attempt budget for the rest.
  auto exchange = [&] {
    std::vector<std::pair<std::uint32_t, std::size_t>> sends;  // (seq, end in todo)
    std::size_t awaited = 0;  // sends[awaited..] are in flight
    std::size_t sent = 0;
    std::size_t acked = 0;
    while (acked < todo.size()) {
      while (sent < todo.size() && sends.size() - awaited < kInflightFrames) {
        std::vector<const std::vector<std::string>*> chunk;
        std::size_t symbols = 0;
        std::size_t end = sent;
        for (; end < todo.size() && chunk.size() < per_frame; ++end) {
          const std::vector<std::string>* w = words[todo[end]];
          if (!chunk.empty() &&
              (w->empty() || chunk.front()->empty() || symbols + w->size() > kMaxBatchSymbols)) {
            break;
          }
          symbols += w->size();
          chunk.push_back(w);
        }
        std::uint32_t seq = 0;
        if (!send_frame_locked(FrameType::kQueryBatch, encode_batch(chunk), &seq)) break;
        sends.emplace_back(seq, end);
        sent = end;
      }
      if (awaited == sends.size()) break;  // the link died under the sends
      const auto [seq, end] = sends[awaited++];
      const std::optional<Frame> ack = await_ack_locked(seq);
      std::optional<std::vector<std::vector<std::string>>> outs;
      if (ack && ack->type == FrameType::kBatchAck) outs = decode_batch(ack->payload, end - acked);
      bool answers_match = outs && outs->size() == end - acked;
      for (std::size_t k = acked; answers_match && k < end; ++k) {
        answers_match = (*outs)[k - acked].size() == words[todo[k]]->size();
      }
      if (!answers_match) {
        drop_connection_locked();  // the server answered something we never asked
        break;
      }
      for (std::size_t k = acked; k < end; ++k) answers[todo[k]] = std::move((*outs)[k - acked]);
      ++stats_.batch_queries;
      stats_.batched_words += static_cast<long>(end - acked);
      acked = end;
    }
    todo.erase(todo.begin(), todo.begin() + static_cast<std::ptrdiff_t>(acked));
    return acked > 0;
  };
  while (!todo.empty() && attempt_locked(exchange)) {
  }
  for (const std::size_t i : todo) degrade(i);
  return answers;
}

std::string RemoteUeSul::step(const std::string& input) {
  std::lock_guard<std::mutex> lock(mu_);
  ++steps_;
  word_.push_back(input);
  return query_locked({&word_}).front().back();
}

std::vector<std::string> RemoteUeSul::query_word(const std::vector<std::string>& word) {
  std::lock_guard<std::mutex> lock(mu_);
  ++resets_;
  steps_ += static_cast<long>(word.size());
  return std::move(query_locked({&word}).front());
}

std::vector<std::vector<std::string>> RemoteUeSul::query_batch(
    const std::vector<std::vector<std::string>>& words) {
  // Dedupe identical words client-side: each distinct word rides the wire
  // once and fans its answer back out to every position that asked for it.
  std::vector<const std::vector<std::string>*> distinct;
  std::vector<std::size_t> slot(words.size());  // each position's index in `distinct`
  {
    std::map<std::reference_wrapper<const std::vector<std::string>>, std::size_t,
             std::less<std::vector<std::string>>>
        seen;
    for (std::size_t i = 0; i < words.size(); ++i) {
      const auto [it, fresh] = seen.emplace(words[i], distinct.size());
      if (fresh) distinct.push_back(&words[i]);
      slot[i] = it->second;
    }
  }
  std::vector<std::vector<std::string>> answers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::vector<std::string>* w : distinct) {
      ++resets_;
      steps_ += static_cast<long>(w->size());
    }
    answers = query_locked(distinct);
  }

  std::vector<std::vector<std::string>> results;
  results.reserve(words.size());
  for (const std::size_t i : slot) results.push_back(answers[i]);
  return results;
}

// ---------------------------------------------------------------------------
// Heartbeat
// ---------------------------------------------------------------------------

void RemoteUeSul::heartbeat_loop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(hb_mu_);
      hb_cv_.wait_for(lock, std::chrono::duration<double>(options_.heartbeat_seconds),
                      [this] { return stopping_; });
      if (stopping_) return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (!conn_.valid()) continue;  // nothing to keep alive
    ++stats_.heartbeats;
    auto pong = rpc_locked(FrameType::kPing, "");
    if (!pong || pong->type != FrameType::kPong) {
      // rpc_locked already dropped the connection; the next query redials.
      ++stats_.heartbeat_failures;
    }
  }
}

}  // namespace procheck::net
