// learn-remote: two learners in a closed loop against one in-process
// multi-session SulServer (cls) over loopback. Each learn is one
// learn_supervised over its own RemoteUeSul client (batched wire v3), with
// journaling on. No MC runs here: time splits between the learner (table and
// output trie) and net + ue, with the journal as the write path beside them.
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <type_traits>

#include "common/rng.h"
#include "known_answers.h"
#include "learner/learn_supervisor.h"
#include "learner/sul.h"
#include "net/remote_sul.h"
#include "net/sul_server.h"
#include "ue/profile.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace procheck;

constexpr int kClients = 2;
/// Distinct learn seeds per client. Learns split into a fast cluster (one
/// equivalence round) and a slow one; a pool this large keeps each run's
/// mix, and so its median, close to the population's.
constexpr int kSeedsPerClient = 64;
constexpr int kSetupRepeats = 15;
/// Words kept from the traced window to time the in-process UE on.
constexpr std::size_t kReplayWords = 20000;

using SeedPool = std::vector<std::vector<std::uint64_t>>;  // [client][i]

/// Learn seeds derived from the workload seed alone.
SeedPool learn_seeds(std::uint64_t workload_seed) {
  Rng rng(workload_seed ^ 0x1EA27ULL);
  SeedPool pool(kClients);
  for (auto& seeds : pool) {
    for (int i = 0; i < kSeedsPerClient; ++i) seeds.push_back(rng.next_u64());
  }
  return pool;
}

learner::LearnSupervisorOptions learn_options(std::uint64_t seed, const std::string& journal) {
  learner::LearnSupervisorOptions o;
  o.learn.seed = seed;
  o.journal_path = journal;
  o.run_tag = "cls";
  return o;
}

/// In-process learn_supervised answers for every seed in the pool,
/// computed before any timing starts.
std::map<std::uint64_t, LearnAnswer> reference_answers(const SeedPool& pool) {
  std::vector<std::map<std::uint64_t, LearnAnswer>> parts(pool.size());
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < pool.size(); ++c) {
    threads.emplace_back([&, c] {
      for (std::uint64_t seed : pool[c]) {
        learner::UeSul sul(ue::StackProfile::cls());
        parts[c][seed] = learn_answer(learner::learn_supervised(sul, learn_options(seed, "")).result);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::map<std::uint64_t, LearnAnswer> all;
  for (auto& part : parts) all.merge(part);
  return all;
}

/// The in-process server both learners talk to. Each learn opens its own
/// client and session, as `learn --remote` does; a finished learn's session
/// may still be closing when the same learner's next one connects, hence
/// room for two sessions per learner.
struct Server {
  std::unique_ptr<net::SulServer> sul;
  std::string error;

  Server() {
    net::SulServerOptions options;
    options.max_sessions = 2 * kClients;
    sul = std::make_unique<net::SulServer>(ue::StackProfile::cls(), options);
    if (!sul->start()) error = "cannot start SUL server: " + sul->start_error();
  }
  ~Server() { sul->stop(); }

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  net::RemoteSulOptions client_options() const {
    net::RemoteSulOptions o;
    o.port = sul->port();
    return o;
  }
};

/// Server start + every client's connect and hello: the learn workload's
/// set-up. Clients connect lazily, so each sends one word to force it.
std::unique_ptr<Server> start_and_connect() {
  auto server = std::make_unique<Server>();
  for (int c = 0; c < kClients && server->error.empty(); ++c) {
    net::RemoteUeSul client(server->client_options());
    const std::vector<std::string> out = client.query_word({"power_on"});
    if (out.size() != 1 || out[0] == learner::kSulUnavailable) {
      server->error = "client " + std::to_string(c) + " could not connect";
    }
  }
  return server;
}

/// Per-call record of the Sul boundary, kept by TimedSul.
struct SulCalls {
  std::vector<double> latencies_us;
  double busy_seconds = 0;
  double words = 0;
  std::vector<std::vector<std::string>> sample;  // words for the ue replay
};

/// Timing decorator around a transport-backed Sul: every call across the
/// learner/net boundary becomes a span, so learner self time is the learn
/// span minus these.
class TimedSul final : public learner::Sul {
 public:
  TimedSul(learner::Sul& inner, Tracer& tracer, int parent, std::string request, SulCalls& calls)
      : inner_(inner), tracer_(tracer), parent_(parent), request_(std::move(request)), calls_(calls) {}

  void reset() override { inner_.reset(); }
  std::string step(const std::string& input) override {
    return timed("net.step", {{input}}, [&] { return inner_.step(input); });
  }
  std::vector<std::string> query_word(const std::vector<std::string>& word) override {
    return timed("net.query_word", {word}, [&] { return inner_.query_word(word); });
  }
  std::vector<std::vector<std::string>> query_batch(
      const std::vector<std::vector<std::string>>& words) override {
    return timed("net.query_batch", words, [&] { return inner_.query_batch(words); });
  }
  std::vector<std::string> query_word_fresh(const std::vector<std::string>& word) override {
    return timed("net.query_word_fresh", {word}, [&] { return inner_.query_word_fresh(word); });
  }
  long resets() const override { return inner_.resets(); }
  long steps() const override { return inner_.steps(); }
  std::string unavailable_reason() const override { return inner_.unavailable_reason(); }

 private:
  template <typename Fn>
  std::invoke_result_t<Fn> timed(const char* name,
                                 const std::vector<std::vector<std::string>>& words, Fn&& fn) {
    const int span = tracer_.begin(name, parent_, request_);
    auto result = fn();
    tracer_.end(span);
    const double seconds = tracer_.duration(span);
    calls_.latencies_us.push_back(seconds * 1e6);
    calls_.busy_seconds += seconds;
    calls_.words += static_cast<double>(words.size());
    for (const auto& w : words) {
      if (calls_.sample.size() < kReplayWords) calls_.sample.push_back(w);
    }
    return result;
  }

  learner::Sul& inner_;
  Tracer& tracer_;
  int parent_;
  std::string request_;
  SulCalls& calls_;
};

struct LearnRecord {
  std::uint64_t seed = 0;
  double wall = 0;
  int span = -1;  // traced windows only
  bool failed = false;
  LearnAnswer answer;
  long cache_hits = 0;
  long cache_lookups = 0;
  long batches = 0;
  long journal_records = 0;
};

/// Transport faults the clients absorbed (RemoteSulStats).
struct Faults {
  double reconnects = 0;
  double timeouts = 0;
  double framing_errors = 0;
};

struct Window {
  std::vector<LearnRecord> learns;
  std::vector<SulCalls> calls;  // per learner, traced windows only
  std::vector<Faults> faults;   // per learner
  double wall = 0;
  double cpu = 0;
};

/// Both clients learn in a closed loop until `seconds` have passed, each
/// walking its seed list from the start. Journals go to `journal_dir`
/// ("" = unjournaled). With a tracer, every learn and Sul call is a span
/// under `parent`.
Window learn_window(const Server& server, const SeedPool& pool, double seconds,
                    const std::string& journal_dir, Tracer* tracer, int parent) {
  Window w;
  w.calls.resize(kClients);
  w.faults.resize(kClients);
  std::vector<std::vector<LearnRecord>> per_client(kClients);
  const double cpu0 = process_cpu_seconds();
  const auto w0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      const std::string journal =
          journal_dir.empty() ? "" : journal_dir + "/client" + std::to_string(c) + ".journal";
      for (std::size_t i = 0; i == 0 || seconds_since(w0) < seconds; ++i) {
        LearnRecord rec;
        rec.seed = pool[c][i % pool[c].size()];
        const std::string request = "client" + std::to_string(c) + "-learn" + std::to_string(i);
        net::RemoteUeSul client(server.client_options());
        learner::Sul* sul = &client;
        std::unique_ptr<TimedSul> timed;
        if (tracer) {
          rec.span = tracer->begin("learner.learn_supervised", parent, request);
          timed = std::make_unique<TimedSul>(*sul, *tracer, rec.span, request, w.calls[c]);
          sul = timed.get();
        }
        const auto t0 = std::chrono::steady_clock::now();
        const learner::SupervisedLearn run = learner::learn_supervised(*sul, learn_options(rec.seed, journal));
        rec.wall = seconds_since(t0);
        if (tracer) tracer->end(rec.span);
        const learner::LearnResult& r = run.result;
        rec.failed = !r.converged || r.inconclusive || run.failure != learner::LearnFailure::kNone;
        rec.answer = learn_answer(r);
        rec.cache_hits = r.cache_hits;
        rec.cache_lookups = r.cache_hits + r.cache_prefix_hits + r.cache_misses;
        rec.batches = r.batch_queries;
        rec.journal_records = static_cast<long>(run.journal_records);
        per_client[c].push_back(std::move(rec));
        const net::RemoteSulStats stats = client.stats();
        w.faults[c].reconnects += static_cast<double>(stats.reconnects);
        w.faults[c].timeouts += static_cast<double>(stats.rpc_timeouts);
        w.faults[c].framing_errors += static_cast<double>(stats.framing_errors);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  w.wall = seconds_since(w0);
  w.cpu = process_cpu_seconds() - cpu0;
  for (auto& records : per_client) {
    for (LearnRecord& r : records) w.learns.push_back(std::move(r));
  }
  return w;
}

std::vector<double> walls(const Window& w) {
  std::vector<double> out;
  for (const LearnRecord& r : w.learns) out.push_back(r.wall);
  return out;
}

/// Known-answer check and fail_rate accounting: a learn fails when it did
/// not converge cleanly, and is wrong when it differs from the in-process
/// reference for its seed.
void account(const Window& w, const std::map<std::uint64_t, LearnAnswer>& reference,
             WorkloadResult& out) {
  for (const LearnRecord& r : w.learns) {
    ++out.attempted;
    out.failed += r.failed ? 1 : 0;
    auto it = reference.find(r.seed);
    if (it == reference.end() || !(it->second == r.answer)) {
      out.mismatches.push_back("seed " + std::to_string(r.seed) + ": remote learn (" +
                               std::to_string(r.answer.membership_queries) +
                               " queries) differs from the in-process reference");
    }
  }
}

double total_queries(const Window& w) {
  double q = 0;
  for (const LearnRecord& r : w.learns) q += static_cast<double>(r.answer.membership_queries);
  return q;
}

std::string make_journal_dir(const RunOptions& options) {
  const std::string dir = options.work_dir + "/journals";
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace

WorkloadResult run_learn(const RunOptions& options) {
  WorkloadResult out;
  const SeedPool pool = learn_seeds(options.seed);
  const auto reference = reference_answers(pool);
  const std::string journal_dir = make_journal_dir(options);

  std::vector<double> setup_walls;
  std::unique_ptr<Server> server;
  for (int r = 0; r < kSetupRepeats; ++r) {
    server.reset();
    const auto t0 = std::chrono::steady_clock::now();
    server = start_and_connect();
    setup_walls.push_back(seconds_since(t0));
    if (!server->error.empty()) {
      out.mismatches.push_back(server->error);
      out.attempted = out.failed = 1;
      return out;
    }
  }

  const Window w = learn_window(*server, pool, options.seconds, journal_dir, nullptr, -1);
  account(w, reference, out);
  set_end_to_end(out, walls(w), w.cpu, "learn");
  out.metrics.set("setup_s", median(setup_walls), "s");
  char line[96];
  std::snprintf(line, sizeof(line), "learn: %.1f membership queries/s across %d clients",
                total_queries(w) / w.wall, kClients);
  out.notes.push_back(line);
  return out;
}

void trace_learn(const RunOptions& options, Tracer& tracer, WorkloadResult& out) {
  const SeedPool pool = learn_seeds(options.seed);
  const auto reference = reference_answers(pool);
  const std::string journal_dir = make_journal_dir(options);
  const std::unique_ptr<Server> server = start_and_connect();
  if (!server->error.empty()) {
    out.mismatches.push_back(server->error);
    ++out.attempted;
    ++out.failed;
    return;
  }
  // Three windows over the same seeds: traced + journaled; untraced +
  // journaled, the learn latency and throughput a user sees (and the
  // tracing-overhead baseline); untraced + unjournaled (journal overhead).
  const double short_window = std::max(2.0, options.seconds / 6);

  const net::SulServerStats server0 = server->sul->stats();
  const int root = tracer.begin("learn-remote", -1, "learn");
  const Window traced = learn_window(*server, pool, short_window, journal_dir, &tracer, root);
  tracer.end(root);
  const net::SulServerStats server1 = server->sul->stats();
  const Window journaled = learn_window(*server, pool, 2 * short_window, journal_dir, nullptr, -1);
  const Window unjournaled = learn_window(*server, pool, short_window, "", nullptr, -1);

  for (const Window* w : {&traced, &journaled, &unjournaled}) account(*w, reference, out);

  // In-process UE on the words the traced window actually sent.
  double ue_steps = 0;
  const auto u0 = std::chrono::steady_clock::now();
  {
    learner::UeSul ue(ue::StackProfile::cls());
    for (const SulCalls& calls : traced.calls) {
      for (const auto& word : calls.sample) {
        ue.query_word(word);
        ue_steps += static_cast<double>(word.size());
      }
    }
  }
  const double ue_seconds = seconds_since(u0);

  const double learns = static_cast<double>(traced.learns.size());
  double learner_self = 0, lookups = 0, hits = 0, batches = 0, journal_records = 0;
  for (const LearnRecord& r : traced.learns) {
    learner_self += tracer.self_seconds(r.span);
    hits += static_cast<double>(r.cache_hits);
    lookups += static_cast<double>(r.cache_lookups);
    batches += static_cast<double>(r.batches);
    journal_records += static_cast<double>(r.journal_records);
  }
  std::vector<double> latencies;
  double busy = 0, rpcs = 0, words = 0;
  for (const SulCalls& calls : traced.calls) {
    latencies.insert(latencies.end(), calls.latencies_us.begin(), calls.latencies_us.end());
    busy += calls.busy_seconds;
    rpcs += static_cast<double>(calls.latencies_us.size());
    words += calls.words;
  }
  double reconnects = 0, timeouts = 0, framing = 0;
  for (const Faults& f : traced.faults) {
    reconnects += f.reconnects;
    timeouts += f.timeouts;
    framing += f.framing_errors;
  }
  framing += static_cast<double>(server1.framing_errors - server0.framing_errors);
  const double traced_p50 = median(walls(traced));
  const double journaled_p50 = median(walls(journaled));
  const double unjournaled_p50 = median(walls(unjournaled));

  const double tail_p = tail_percentile(journaled.learns.size());
  char line[128];
  std::snprintf(line, sizeof(line), "learn-remote (untraced, journaled): %zu learns, p50 %.4f s, p%g %.4f s",
                journaled.learns.size(), journaled_p50, tail_p, percentile(walls(journaled), tail_p));
  out.notes.push_back(line);

  Metrics& m = out.metrics;
  m.set("learner.learn_p50_ms", journaled_p50 * 1e3, "ms");
  m.set("learner.learn_tail_ms", percentile(walls(journaled), tail_p) * 1e3, "ms");
  m.set("learner.queries_per_s", total_queries(journaled) / journaled.wall, "1/s");
  m.set("learner.self_s", learner_self / learns, "s");
  m.set("learner.membership_queries", total_queries(traced) / learns, "count");
  m.set("learner.cache_answer_ratio", lookups > 0 ? hits / lookups : 0, "ratio");
  m.set("learner.batches", batches / learns, "count");
  m.set("net.busy_s", busy / learns, "s");
  m.set("net.rpcs", rpcs / learns, "count");
  m.set("net.rpc_p50_us", median(latencies), "us");
  m.set("net.rpc_p95_us", percentile(latencies, 95), "us");
  m.set("net.words_per_rpc", rpcs > 0 ? words / rpcs : 0, "count");
  m.set("net.server_steps", static_cast<double>(server1.steps - server0.steps) / learns, "count");
  m.set("net.server_resets", static_cast<double>(server1.resets - server0.resets) / learns, "count");
  m.set("net.prefix_hits", static_cast<double>(server1.prefix_hits - server0.prefix_hits) / learns,
        "count");
  m.set("net.reconnects", reconnects, "count");
  m.set("net.timeouts", timeouts, "count");
  m.set("net.framing_errors", framing, "count");
  m.set("ue.step_us", ue_steps > 0 ? ue_seconds * 1e6 / ue_steps : 0, "us");
  m.set("journal.records", journal_records / learns, "count");
  m.set("journal.overhead_frac", unjournaled_p50 > 0 ? journaled_p50 / unjournaled_p50 - 1 : 0,
        "ratio");
  m.set("trace.learn-remote.coverage", tracer.child_coverage(root), "ratio");
  m.set("trace.learn-remote.overhead_frac", journaled_p50 > 0 ? traced_p50 / journaled_p50 - 1 : 0,
        "ratio");
}

}  // namespace perfbench
