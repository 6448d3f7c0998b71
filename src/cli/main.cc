// prochecker — command-line driver for the full pipeline.
//
// Subcommands:
//   instrument <source-file> [--header <header-file>]
//       Source-to-source instrumentation of an external codebase (prints
//       the instrumented translation unit).
//   conformance --profile <cls|srsue|oai> [--log <file>]
//       Runs the conformance suite against the selected stack and writes
//       the information-rich execution log.
//   extract --profile <cls|srsue|oai> [--log <file>] [--dot] [--basic]
//       Extracts the FSM (from a log file, or from a fresh conformance run
//       when --log is omitted) and prints its statistics or DOT rendering.
//   analyze --profile <cls|srsue|oai> [--properties S01,P01,...]
//           [--freshness-limit <L>]
//       The end-to-end 62-property analysis; prints verdicts and attack
//       traces.
//   chaos --profile <cls|srsue|oai> [--intensity <p>]
//       Re-runs the conformance suite under each fault-injection regime and
//       reports degradation vs the fault-free baseline.
//   serve-sul --profile <cls|srsue|oai> [--port <N>] [--bind <addr>] [--psk <key>]
//       Exposes the profile's UE stack as a multi-session remote SUL over
//       the framed wire protocol (DESIGN.md §12–13) for `learn --remote` /
//       `conformance --remote` on the other end. Each connection gets its
//       own isolated SUL session; admission, quotas, PSK auth, and graceful
//       drain (first ctrl-c) are configurable.
//   learn --profile <cls|srsue|oai> [--remote <host:port>] [--seed <S>]
//         [--journal <file>] [--resume <file>] [--arbitrate <k/n>]
//         [--deadline <S>] [--retries <N>]
//       Active L* learning of the UE Mealy machine — in-process by default,
//       or against a serve-sul endpoint with --remote (fault-tolerant
//       transport; degraded runs end inconclusive, never hang). Runs under
//       the learning supervisor (DESIGN.md §15): a crash-safe observation
//       journal makes `--resume` continue byte-identically from any kill
//       point, contradictory answers are always arbitrated k-of-n, and a
//       deadline bounds every attempt.
//   diff <left> <right> [--json] [--dot] [--jobs <N>]
//       Differential cross-implementation analysis (DESIGN.md §16): builds
//       one FSM per side (profile:<name>, log:[<profile>:]<path>,
//       learn:<name>, or remote:<host:port>), walks the synchronous product
//       to enumerate divergences with minimal distinguishing sequences, and
//       triages each against the 62-property catalog. Exit 0 when
//       behaviorally equivalent, 1 on divergence, 3 when a side or the walk
//       was inconclusive, 2 on a malformed side spec.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "checker/prochecker.h"
#include "checker/report.h"
#include "common/strings.h"
#include "diff/report_json.h"
#include "diff/sources.h"
#include "diff/triage.h"
#include "common/thread_pool.h"
#include "extractor/extractor.h"
#include "instrument/source_instrumentor.h"
#include "learner/learn_supervisor.h"
#include "learner/lstar.h"
#include "net/remote_conformance.h"
#include "net/remote_sul.h"
#include "net/sul_server.h"
#include "testing/chaos.h"
#include "testing/conformance.h"

namespace {

using namespace procheck;

int usage() {
  std::fprintf(stderr,
               "usage: prochecker"
               " <instrument|conformance|extract|analyze|chaos|serve-sul|learn|diff>"
               " [options]\n"
               "  instrument <source-file> [--header <header-file>]\n"
               "  conformance --profile <cls|srsue|oai> [--log <file>] [--remote <host:port>]"
               " [--psk <key>]\n"
               "  extract --profile <cls|srsue|oai> [--log <file>] [--dot] [--basic]"
               " [--recovery]\n"
               "  analyze --profile <cls|srsue|oai> [--properties <ids>]"
               " [--freshness-limit <L>] [--max-states <N>] [--jobs <N>]\n"
               "          [--retries <N>] [--deadline-per-property <S>]"
               " [--mem-ceiling-mb <M>] [--journal <file>] [--resume <file>]\n"
               "          [--traces] [--dot-traces]\n"
               "  chaos --profile <cls|srsue|oai> [--intensity <p>] [--jobs <N>]\n"
               "  serve-sul --profile <cls|srsue|oai> [--port <N>] [--bind <addr>]"
               " [--psk <key>] [--max-sessions <N>]\n"
               "            [--quota-queries <N>] [--quota-bytes <N>] [--quota-seconds <S>]"
               " [--idle-timeout <S>]\n"
               "            [--drain-seconds <S>] [--stats]\n"
               "  learn --profile <cls|srsue|oai> [--remote <host:port>] [--psk <key>]"
               " [--seed <S>] [--dot] [--batch <N>]\n"
               "        [--journal <file>] [--resume <file>] [--arbitrate <k/n>]"
               " [--deadline <S>] [--retries <N>]\n"
               "        (--batch N sends up to N words per query frame, 1-64, default 16;\n"
               "         --resume continues a killed run from its journal;\n"
               "         --arbitrate k/n commits k of n fresh re-queries, n/2 < k <= n,"
               " default 3/5)\n"
               "  diff <left> <right> [--json] [--dot] [--jobs <N>] [--psk <key>]"
               " [--batch <N>] [--seed <S>]\n"
               "       [--max-pairs <N>] [--max-states <N>]"
               " [--deadline-per-property <S>] [--retries <N>]\n"
               "       (sides, positional or as --left <spec> --right <spec>:"
               " profile:<cls|srsue|oai>,\n"
               "        log:[<profile>:]<path>, learn:<name>, remote:<host:port>;"
               " exit 0 equivalent, 1 divergent,\n"
               "        3 inconclusive)\n");
  return 2;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int unexpected_argument(const std::string& arg) {
  std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
  return 2;
}

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;

  /// Parses a subcommand's arguments (argv[2..]): it reads at most
  /// `positionals` non-option arguments, `values` are the flags it takes a
  /// value for, `switches` the ones it takes bare. Any other argument or
  /// option, or a value flag with nothing after it, is a usage error: the
  /// diagnostic is printed and nullopt returned (the caller exits 2).
  static std::optional<Args> parse(int argc, char** argv, std::size_t positionals,
                                   const std::set<std::string>& values,
                                   const std::set<std::string>& switches) {
    Args args;
    for (int i = 2; i < argc; ++i) {
      std::string a = argv[i];
      if (!starts_with(a, "--")) {
        if (args.positional.size() == positionals) {
          unexpected_argument(a);
          return std::nullopt;
        }
        args.positional.push_back(std::move(a));
        continue;
      }
      const std::string key = a.substr(2);
      if (switches.count(key) > 0) {
        args.options[key] = "1";
      } else if (values.count(key) == 0) {
        std::fprintf(stderr, "unknown option --%s\n", key.c_str());
        return std::nullopt;
      } else if (i + 1 == argc) {
        std::fprintf(stderr, "missing value for --%s\n", key.c_str());
        return std::nullopt;
      } else {
        args.options[key] = argv[++i];
      }
    }
    return args;
  }

  std::string get(const std::string& key, const std::string& dflt = "") const {
    auto it = options.find(key);
    return it == options.end() ? dflt : it->second;
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
};

// Numeric option parsing: a malformed value is a usage error, not a crash.
// An unsigned value is decimal digits only: no sign, no whitespace.
std::optional<std::uint64_t> parse_u64(const std::string& text) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

// A real value is a decimal or scientific number: no sign (no real flag
// takes a negative value), no whitespace, no hex. It must be finite: NaN
// fails every range compare.
std::optional<double> parse_double(const std::string& text) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, std::chars_format::general);
  if (ec != std::errc() || ptr != end || text.front() == '-' || !std::isfinite(v)) {
    return std::nullopt;
  }
  return v;
}

int bad_option(const char* flag, const std::string& value) {
  std::fprintf(stderr, "invalid value for --%s: '%s'\n", flag, value.c_str());
  return 2;
}

// A numeric flag parses as an unsigned integer, or as a real for double
// fields.
template <typename T>
using FlagValue = std::conditional_t<std::is_floating_point_v<T>, double, std::uint64_t>;
constexpr std::uint64_t kAnyCount = std::numeric_limits<std::uint64_t>::max();
constexpr double kAnyReal = std::numeric_limits<double>::infinity();

// Reads numeric flag --key into *field when it is given. A malformed value,
// or one outside [lo, hi], is a usage error, not a crash: false means the
// diagnostic is printed and the caller exits 2.
template <typename T>
bool read_flag(const Args& args, const char* key, FlagValue<T> lo, FlagValue<T> hi, T* field) {
  if (!args.has(key)) return true;
  const std::string text = args.get(key);
  std::optional<FlagValue<T>> v;
  if constexpr (std::is_floating_point_v<T>) {
    v = parse_double(text);
  } else {
    v = parse_u64(text);
  }
  if (!v || *v < lo || *v > hi) {
    bad_option(key, text);
    return false;
  }
  *field = static_cast<T>(*v);
  return true;
}

int cmd_instrument(const Args& args) {
  if (args.positional.empty()) return usage();
  auto source = read_file(args.positional[0]);
  if (!source) {
    std::fprintf(stderr, "cannot read %s\n", args.positional[0].c_str());
    return 1;
  }
  std::vector<std::string> globals;
  if (args.has("header")) {
    auto header = read_file(args.get("header"));
    if (!header) {
      std::fprintf(stderr, "cannot read %s\n", args.get("header").c_str());
      return 1;
    }
    globals = instrument::harvest_globals(*header);
  }
  auto out = instrument::instrument_source(*source, globals);
  std::fprintf(stderr, "instrumented %d functions (%d enter, %d global, %d local probes)\n",
               out.stats.functions_instrumented, out.stats.enter_probes,
               out.stats.global_probes, out.stats.local_probes);
  std::printf("%s", out.text.c_str());
  return 0;
}

// --remote host:port: differential conformance against a serve-sul endpoint
// (scripted flows; expectations from the local reference stack). Exit 0 when
// every scenario passes, 1 on behavioral divergence, 3 when the transport
// degraded and verdicts are inconclusive.
int cmd_remote_conformance(const ue::StackProfile& profile, const std::string& endpoint,
                           const std::string& psk) {
  auto ep = net::parse_endpoint(endpoint);
  if (!ep) return bad_option("remote", endpoint);
  net::RemoteSulOptions ropts;
  ropts.host = ep->first;
  ropts.port = ep->second;
  ropts.psk = psk;
  net::RemoteUeSul sul(ropts);
  net::RemoteConformanceReport report = net::run_remote_conformance(profile, sul);
  std::fputs(report.render().c_str(), stdout);
  if (!report.conclusive()) {
    const std::string why = sul.unavailable_reason();
    std::fprintf(stderr, "transport degraded (%ld unavailable answers%s%s): inconclusive\n",
                 sul.stats().unavailable_answers, why.empty() ? "" : "; ", why.c_str());
    return 3;
  }
  return report.failed() == 0 ? 0 : 1;
}

int cmd_conformance(ue::StackProfile profile, const Args& args) {
  if (args.has("remote")) {
    return cmd_remote_conformance(profile, args.get("remote"), args.get("psk"));
  }
  instrument::TraceLogger trace;
  testing::ConformanceReport report = testing::run_conformance(profile, trace);
  for (const testing::TestResult& r : report.results) {
    std::printf("%-18s %s\n", r.id.c_str(), r.passed ? "PASS" : "FAIL");
  }
  std::printf("%d/%d passed, handler coverage %.0f%%, %zu log records\n", report.passed(),
              report.total(), report.handler_coverage * 100, trace.records().size());
  if (args.has("log")) {
    std::ofstream out(args.get("log"));
    out << trace.text();
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", args.get("log").c_str());
      return 1;
    }
    std::printf("log written to %s\n", args.get("log").c_str());
  }
  return 0;
}

int cmd_extract(ue::StackProfile profile, const Args& args) {
  std::string log_text;
  if (args.has("log")) {
    auto text = read_file(args.get("log"));
    if (!text) {
      std::fprintf(stderr, "cannot read %s\n", args.get("log").c_str());
      return 1;
    }
    log_text = std::move(*text);
  } else {
    instrument::TraceLogger trace;
    testing::run_conformance(profile, trace);
    log_text = trace.text();
  }

  extractor::ExtractionOptions opts;
  opts.initial_state = "EMM_DEREGISTERED";
  opts.chain_substates = !args.has("basic");
  extractor::ExtractionDiagnostics diag;
  if (args.has("recovery")) {
    opts.recovery = true;
    opts.diagnostics = &diag;
  }
  instrument::ParseStats parse_stats;
  std::vector<instrument::LogRecord> records = instrument::parse_log(log_text, &parse_stats);
  fsm::Fsm m = args.has("basic")
                   ? extractor::extract_basic(records, extractor::ue_signatures(profile), opts)
                   : extractor::extract(records, extractor::ue_signatures(profile), opts);
  if (args.has("recovery")) {
    std::fprintf(stderr,
                 "parse: %zu lines, %zu records, %zu skipped, %zu truncated\n"
                 "blocks: %zu total, %zu extracted, %zu quarantined\n",
                 parse_stats.lines, parse_stats.records, parse_stats.skipped,
                 parse_stats.truncated, diag.blocks_total, diag.blocks_extracted,
                 diag.quarantined.size());
    for (const auto& q : diag.quarantined) {
      std::fprintf(stderr, "  quarantined block %zu (%s): %s\n", q.block_index,
                   q.incoming.c_str(), q.reason.c_str());
    }
  }
  if (args.has("dot")) {
    std::printf("%s", m.to_dot("ue_" + profile.name).c_str());
    return 0;
  }
  auto s = m.stats();
  std::printf("FSM: %zu states, %zu transitions, %zu conditions, %zu actions\n", s.states,
              s.transitions, s.conditions, s.actions);
  for (const fsm::Transition& t : m.transitions()) {
    std::printf("  %s\n", t.label().c_str());
  }
  return 0;
}

int cmd_analyze(ue::StackProfile profile, const Args& args) {
  checker::AnalysisOptions options;
  options.jobs = static_cast<int>(ThreadPool::default_parallelism());
  std::uint64_t freshness_limit = 0;
  std::size_t mem_ceiling_mb = 0;
  // Budgets, the property fan-out, and the supervisor knobs (watchdogs,
  // retries, journal/resume — DESIGN.md §11).
  if (!read_flag(args, "freshness-limit", 0, kAnyCount, &freshness_limit) ||
      !read_flag(args, "max-states", 1, kAnyCount, &options.max_states) ||
      !read_flag(args, "jobs", 1, 1024, &options.jobs) ||
      !read_flag(args, "retries", 0, 16, &options.retries) ||
      !read_flag(args, "deadline-per-property", 0, kAnyReal, &options.deadline_per_property) ||
      !read_flag(args, "mem-ceiling-mb", 1, 1u << 20, &mem_ceiling_mb)) {
    return 2;
  }
  if (args.has("freshness-limit")) profile.sqn_freshness_limit = freshness_limit;
  options.mem_ceiling_bytes = mem_ceiling_mb * 1024 * 1024;
  if (args.has("properties")) {
    // Each item must be a catalog id: an empty or unknown one would quietly
    // run less than was asked for.
    const std::vector<checker::PropertyDef>& catalog = checker::property_catalog();
    for (const std::string& item : split(args.get("properties"), ',')) {
      const std::string id(trim(item));
      if (std::none_of(catalog.begin(), catalog.end(), [&](const auto& p) { return p.id == id; })) {
        return bad_option("properties", args.get("properties"));
      }
      options.only_properties.insert(id);
    }
  }
  if (args.has("journal")) options.journal_path = args.get("journal");
  if (args.has("resume")) {
    options.journal_path = args.get("resume");
    options.resume = true;
  }

  checker::ImplementationReport rep = checker::ProChecker::analyze(profile, options);
  if (rep.aborted) {
    // Structured refusal (journal locked by a live run, or --resume against
    // an options-incompatible journal): no verdicts were produced.
    std::fprintf(stderr, "error: analyze aborted: %s\n", rep.abort_reason.c_str());
    return 1;
  }

  // The verdict block is the canonical deterministic rendering: a resumed
  // run must reproduce it byte-for-byte (journal/resume status goes to
  // stderr so it never perturbs the comparison).
  std::fputs(checker::render_verdicts(rep).c_str(), stdout);
  if (args.has("traces") || args.has("dot-traces")) {
    threat::ThreatModel tm = checker::ProChecker::build_threat_model(rep.checking_model);
    for (const checker::PropertyResult& r : rep.results) {
      if (!r.counterexample) continue;
      if (args.has("traces")) {
        std::printf("-- trace %s --\n%s", r.property_id.c_str(),
                    r.counterexample->render(tm.model).c_str());
      }
      if (args.has("dot-traces")) {
        std::printf("%s", r.counterexample->to_dot(tm.model).c_str());
      }
    }
  }
  if (rep.resumed_count > 0) {
    std::fprintf(stderr, "resumed %zu of %zu properties from %s\n", rep.resumed_count,
                 rep.results.size(), options.journal_path.c_str());
  }
  if (!rep.journal_error.empty()) {
    std::fprintf(stderr, "journal warning: %s\n", rep.journal_error.c_str());
  }
  return 0;
}

std::sig_atomic_t volatile g_interrupted = 0;

int cmd_serve_sul(ue::StackProfile profile, const Args& args) {
  net::SulServerOptions options;
  if (!read_flag(args, "port", 0, 65535, &options.port) ||
      !read_flag(args, "max-sessions", 1, 64, &options.max_sessions) ||
      !read_flag(args, "quota-queries", 0, kAnyCount, &options.max_session_queries) ||
      !read_flag(args, "quota-bytes", 0, kAnyCount, &options.max_session_bytes) ||
      !read_flag(args, "quota-seconds", 0, kAnyReal, &options.max_session_seconds) ||
      !read_flag(args, "idle-timeout", 0, kAnyReal, &options.idle_timeout_seconds) ||
      !read_flag(args, "drain-seconds", 0, kAnyReal, &options.drain_deadline_seconds)) {
    return 2;
  }
  if (args.has("bind")) options.bind_host = args.get("bind");
  if (args.has("psk")) options.psk = args.get("psk");

  net::SulServer server(profile, options);
  if (!server.start()) {
    const std::string why = server.start_error();
    std::fprintf(stderr, "cannot serve on %s:%u%s%s\n", options.bind_host.c_str(),
                 options.port, why.empty() ? "" : ": ", why.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serving %s SUL on %s:%u (%d sessions max%s; ctrl-c drains, twice stops)\n",
               profile.name.c_str(), options.bind_host.c_str(), server.port(),
               options.max_sessions, options.psk.empty() ? "" : ", PSK auth");
  std::signal(SIGINT, [](int) { g_interrupted = g_interrupted + 1; });
  std::signal(SIGTERM, [](int) { g_interrupted = 2; });

  // First interrupt drains (no new sessions; in-flight words finish, each
  // session gets a structured close); the second — or a drained-out server —
  // stops hard.
  bool draining = false;
  while (g_interrupted < 2) {
    if (g_interrupted == 1 && !draining) {
      draining = true;
      server.drain();
      std::fprintf(stderr, "draining %d active sessions (ctrl-c again to force stop)\n",
                   server.active_sessions());
    }
    if (draining && server.active_sessions() == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  net::SulServerStats stats = server.stats();
  std::fprintf(stderr, "served %ld connections, %ld resets, %ld steps\n", stats.connections,
               stats.resets, stats.steps);
  if (args.has("stats")) std::fputs(server.render_stats().c_str(), stderr);
  return 0;
}

int cmd_learn(ue::StackProfile profile, const Args& args) {
  learner::LearnSupervisorOptions sup;
  sup.run_tag = profile.name;
  if (!read_flag(args, "seed", 0, kAnyCount, &sup.learn.seed)) return 2;

  // Supervisor knobs (crash-safe journal, arbitration, deadline —
  // DESIGN.md §15), mirroring analyze's journal/resume discipline.
  if (args.has("journal")) sup.journal_path = args.get("journal");
  if (args.has("resume")) {
    sup.journal_path = args.get("resume");
    sup.resume = true;
  }
  if (args.has("arbitrate")) {
    // "k/n": commit a cell only when k of n fresh re-queries agree, a
    // strict majority (n/2 < k <= n, which rules out n = 0).
    const std::string text = args.get("arbitrate");
    const std::size_t slash = text.find('/');
    std::optional<std::uint64_t> k, n;
    if (slash != std::string::npos) {
      k = parse_u64(text.substr(0, slash));
      n = parse_u64(text.substr(slash + 1));
    }
    if (!k || !n || *n > 99 || *k <= *n / 2 || *k > *n) {
      return bad_option("arbitrate", text);
    }
    sup.arbitration_k = static_cast<int>(*k);
    sup.arbitration_n = static_cast<int>(*n);
  }
  // --batch shapes only remote frames, but it is checked on both paths.
  net::RemoteSulOptions ropts;
  if (!read_flag(args, "deadline", 0, kAnyReal, &sup.deadline_seconds) ||
      !read_flag(args, "retries", 0, 16, &sup.retries) ||
      !read_flag(args, "batch", 1, net::kMaxBatchWords, &ropts.max_batch_words)) {
    return 2;
  }

  learner::SupervisedLearn run;
  if (args.has("remote")) {
    auto ep = net::parse_endpoint(args.get("remote"));
    if (!ep) return bad_option("remote", args.get("remote"));
    ropts.host = ep->first;
    ropts.port = ep->second;
    ropts.psk = args.get("psk");
    ropts.heartbeat_seconds = 0.5;
    net::RemoteUeSul sul(ropts);
    run = learner::learn_supervised(sul, sup);
    net::RemoteSulStats stats = sul.stats();
    std::fprintf(stderr,
                 "transport: %ld connects (%ld re), %ld framing errors, %ld timeouts\n",
                 stats.connects, stats.reconnects, stats.framing_errors, stats.rpc_timeouts);
    std::fprintf(stderr,
                 "breaker: %s (%ld opens, %ld half-open probes, %ld unavailable answers)\n",
                 std::string(net::to_string(sul.breaker())).c_str(), stats.breaker_opens,
                 stats.breaker_probes, stats.unavailable_answers);
    std::fprintf(stderr, "batching: %ld batches (%ld words)\n", stats.batch_queries,
                 stats.batched_words);
    // Structured server refusals (busy, draining, auth_failed, quota trips,
    // upgrade_required) surface here so an inconclusive run names its cause.
    const std::string reason = sul.last_close_reason();
    if (!reason.empty()) {
      std::fprintf(stderr, "server close: %s\n", reason.c_str());
    }
  } else {
    learner::UeSul sul(profile);
    run = learner::learn_supervised(sul, sup);
  }

  if (run.aborted) {
    // Structured refusal (journal locked by a live run, or --resume against
    // an options-incompatible journal): no query was issued.
    std::fprintf(stderr, "error: learn aborted: %s\n", run.abort_reason.c_str());
    return 1;
  }
  const learner::LearnResult& result = run.result;
  // Journal/supervisor status goes to stderr so the deterministic stdout
  // rendering stays byte-comparable between interrupted and clean runs.
  if (!sup.journal_path.empty()) {
    std::fprintf(stderr, "journal: %zu records at %s (%zu adopted, %zu replayed)\n",
                 run.journal_records, sup.journal_path.c_str(), run.adopted, run.replayed);
    if (!run.journal_note.empty()) {
      std::fprintf(stderr, "journal note: %s\n", run.journal_note.c_str());
    }
    if (!run.journal_error.empty()) {
      std::fprintf(stderr, "journal warning: %s\n", run.journal_error.c_str());
    }
  }
  if (run.attempts > 1 || run.failure != learner::LearnFailure::kNone) {
    std::fprintf(stderr, "supervisor: %d attempt(s), last failure: %s%s%s\n", run.attempts,
                 std::string(supervise::to_string(run.failure)).c_str(),
                 run.diagnostics.empty() ? "" : " — ", run.diagnostics.c_str());
  }
  if (result.arbitrations > 0 || !result.quarantined.empty()) {
    std::fprintf(stderr,
                 "arbitration: %ld conflicts, %ld re-queries, %ld overridden edges,"
                 " %zu quarantined cells\n",
                 result.arbitrations, result.arbitration_requeries,
                 result.arbitration_overrides, result.quarantined.size());
    for (const std::string& q : result.quarantined) {
      std::fprintf(stderr, "  quarantined: %s\n", q.c_str());
    }
  }

  if (result.inconclusive) {
    std::fprintf(stderr, "error: learning inconclusive: %s\n", result.note.c_str());
    return 3;
  }
  // Deterministic rendering (the FSM view): remote runs over lossless chaos
  // regimes must reproduce the in-process output byte-for-byte.
  fsm::Fsm m = result.machine.to_fsm();
  if (args.has("dot")) {
    std::printf("%s", m.to_dot("learned_" + profile.name).c_str());
  } else {
    auto s = m.stats();
    std::printf("learned Mealy machine: %d states, %zu transitions\n",
                result.machine.state_count, s.transitions);
    for (const fsm::Transition& t : m.transitions()) {
      std::printf("  %s\n", t.label().c_str());
    }
  }
  std::fprintf(stderr,
               "%ld membership queries, %ld equivalence rounds, %ld counterexamples,"
               " %ld resets, %ld steps, %s\n",
               result.membership_queries, result.equivalence_queries, result.counterexamples,
               result.sul_resets, result.sul_steps,
               result.converged ? "converged" : "round budget exhausted");
  const long lookups = result.cache_hits + result.cache_prefix_hits + result.cache_misses;
  std::fprintf(stderr,
               "query cache: %ld hits, %ld prefix hits, %ld misses (%.0f%% answered),"
               " %ld batches (%ld words)\n",
               result.cache_hits, result.cache_prefix_hits, result.cache_misses,
               lookups > 0 ? 100.0 * static_cast<double>(result.cache_hits) /
                                 static_cast<double>(lookups)
                           : 0.0,
               result.batch_queries, result.batched_words);
  return 0;
}

int cmd_chaos(ue::StackProfile profile, const Args& args) {
  double intensity = 0.1;
  std::size_t jobs = ThreadPool::default_parallelism();
  if (!read_flag(args, "intensity", 0, 1, &intensity) ||
      !read_flag(args, "jobs", 1, 1024, &jobs)) {
    return 2;
  }

  std::vector<testing::ChaosReport> reports = testing::run_chaos_matrix(profile, intensity, jobs);
  bool all_explained = true;
  for (const testing::ChaosReport& rep : reports) {
    std::printf("%-14s %2d/%2d passed (baseline %2d/%2d), %zu channel faults, FSM %s%s\n",
                rep.regime.c_str(), rep.chaos.passed(), rep.chaos.total(),
                rep.baseline.passed(), rep.baseline.total(), rep.channel.total_faults(),
                rep.fsm_identical ? "identical" : "DIVERGED",
                rep.degraded() ? (rep.explained() ? " [degraded, diagnosed]" : " [UNEXPLAINED]")
                               : "");
    for (const std::string& d : rep.diagnostics) std::printf("    %s\n", d.c_str());
    all_explained = all_explained && rep.explained();
  }
  std::printf("%zu regimes, %s\n", reports.size(),
              all_explained ? "all degradations diagnosed" : "UNEXPLAINED degradation");
  return all_explained ? 0 : 1;
}

// prochecker diff <left> <right> (or --left/--right): the differential
// cross-implementation pipeline (DESIGN.md §16). Exit 0 equivalent, 1
// divergent, 3 inconclusive (a side degraded, or the product walk tripped a
// budget); usage errors stay 2.
int cmd_diff(const Args& args) {
  // A side not given as --left/--right takes the next positional; one that
  // neither side takes is a usage error.
  std::size_t next = 0;
  const auto side_spec = [&](const char* flag) {
    if (args.has(flag)) return args.get(flag);
    return next < args.positional.size() ? args.positional[next++] : std::string();
  };
  const std::string left_spec = side_spec("left");
  const std::string right_spec = side_spec("right");
  if (next < args.positional.size()) return unexpected_argument(args.positional[next]);
  if (left_spec.empty() || right_spec.empty()) return usage();

  diff::SourceOptions src;
  src.psk = args.get("psk");
  diff::DiffOptions dopts;
  diff::TriageOptions topts;
  topts.jobs = ThreadPool::default_parallelism();
  if (!read_flag(args, "batch", 1, net::kMaxBatchWords, &src.batch_words) ||
      !read_flag(args, "seed", 0, kAnyCount, &src.learn_seed) ||
      !read_flag(args, "max-pairs", 1, kAnyCount, &dopts.max_product_pairs) ||
      !read_flag(args, "jobs", 1, 1024, &topts.jobs) ||
      !read_flag(args, "max-states", 1, kAnyCount, &topts.max_states) ||
      !read_flag(args, "deadline-per-property", 0, kAnyReal, &topts.deadline_per_property) ||
      !read_flag(args, "retries", 0, 16, &topts.retries)) {
    return 2;
  }

  diff::SideResult left = diff::resolve_side(left_spec, src);
  diff::SideResult right = diff::resolve_side(right_spec, src);
  // A bad spec on either side is a usage error. Only when both specs are
  // well-formed does a degraded side (remote down, learning inconclusive)
  // make the comparison inconclusive.
  for (const diff::SideResult* side : {&left, &right}) {
    if (side->ok || side->inconclusive) continue;
    std::fprintf(stderr, "error: %s\n", side->error.c_str());
    return usage();
  }
  for (const diff::SideResult* side : {&left, &right}) {
    if (side->ok) continue;
    std::fprintf(stderr, "error: %s\n", side->error.c_str());
    return 3;
  }

  diff::DiffReport report = diff::diff_machines(left.side, right.side, dopts);
  diff::triage(report, left.side, right.side, topts);
  if (args.has("json")) {
    std::printf("%s\n", diff::encode_report(report).c_str());
  } else if (args.has("dot")) {
    std::printf("%s", report.to_dot().c_str());
  } else {
    std::fputs(report.render().c_str(), stdout);
  }
  return report.exit_code();
}

// Every profile-driven subcommand resolves --profile the same way; main()
// does it once and hands the handler a concrete StackProfile (by value —
// analyze patches mitigation knobs into its copy).
template <int (*handler)(ue::StackProfile, const Args&)>
int with_profile(const Args& args) {
  auto profile = ue::StackProfile::by_name(args.get("profile"));
  if (!profile) return usage();
  return handler(std::move(*profile), args);
}

struct Subcommand {
  int (*run)(const Args&);
  std::size_t positionals;         // non-option arguments it reads, at most
  std::set<std::string> values;    // flags that take a value
  std::set<std::string> switches;  // flags that take none
};

}  // namespace

int main(int argc, char** argv) {
  // Every subcommand with the positional arguments and options it takes;
  // any other argument or option is a usage error before any work starts.
  static const std::map<std::string, Subcommand> subcommands = {
      {"instrument", {cmd_instrument, 1, {"header"}, {}}},
      {"conformance",
       {with_profile<cmd_conformance>, 0, {"profile", "log", "remote", "psk"}, {}}},
      {"extract",
       {with_profile<cmd_extract>, 0, {"profile", "log"}, {"dot", "basic", "recovery"}}},
      {"analyze",
       {with_profile<cmd_analyze>, 0,
        {"profile", "properties", "freshness-limit", "max-states", "jobs", "retries",
         "deadline-per-property", "mem-ceiling-mb", "journal", "resume"},
        {"traces", "dot-traces"}}},
      {"chaos", {with_profile<cmd_chaos>, 0, {"profile", "intensity", "jobs"}, {}}},
      {"serve-sul",
       {with_profile<cmd_serve_sul>, 0,
        {"profile", "port", "bind", "psk", "max-sessions", "quota-queries", "quota-bytes",
         "quota-seconds", "idle-timeout", "drain-seconds"},
        {"stats"}}},
      {"learn",
       {with_profile<cmd_learn>, 0,
        {"profile", "remote", "psk", "seed", "batch", "journal", "resume", "arbitrate", "deadline",
         "retries"},
        {"dot"}}},
      {"diff",
       {cmd_diff, 2,
        {"left", "right", "psk", "batch", "seed", "max-pairs", "jobs", "max-states",
         "deadline-per-property", "retries"},
        {"json", "dot"}}},
  };
  if (argc < 2) return usage();
  const auto it = subcommands.find(argv[1]);
  if (it == subcommands.end()) return usage();
  const Subcommand& cmd = it->second;
  std::optional<Args> args = Args::parse(argc, argv, cmd.positionals, cmd.values, cmd.switches);
  return args ? cmd.run(*args) : 2;
}
