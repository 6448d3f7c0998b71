// Supervisor and journal tests: crash containment, the retry ladder,
// watchdog failure classification, crash-safe journal durability
// (kill-point simulation at every byte offset, a short append, SIGKILLed
// analyze processes), the single-writer lock, and the resume determinism
// contract — an interrupted-and-resumed analysis reproduces the
// uninterrupted report byte for byte, at any jobs level.
#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/prochecker.h"
#include "checker/report.h"
#include "checker/supervisor.h"
#include "common/journal.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "learner/learn_supervisor.h"

namespace procheck::checker {
namespace {

// --- Shared pipeline fixture (front half and graph build run once) ---------

struct Pipeline {
  fsm::Fsm flat;
  threat::ThreatModel tm;
  mc::ReachGraph graph;  // of `tm`, complete at the default budget
};

const Pipeline& pipeline() {
  static Pipeline* p = [] {
    auto* out = new Pipeline;
    instrument::TraceLogger trace;
    testing::run_conformance(ue::StackProfile::cls(), trace);
    extractor::ExtractionOptions opts;
    opts.initial_state = "EMM_DEREGISTERED";
    opts.chain_substates = false;
    out->flat = extractor::extract_basic(trace.records(),
                                         extractor::ue_signatures(ue::StackProfile::cls()), opts);
    out->tm = ProChecker::build_threat_model(out->flat);
    out->graph = mc::ReachGraph::build(out->tm.model);
    return out;
  }();
  return *p;
}

std::vector<const PropertyDef*> select(const std::set<std::string>& ids) {
  std::vector<const PropertyDef*> out;
  for (const PropertyDef& p : property_catalog()) {
    if (ids.count(p.id)) out.push_back(&p);
  }
  return out;
}

SupervisedRun run_sup(const std::vector<const PropertyDef*>& sel, const SupervisorOptions& opts,
                      const CegarOptions& cegar) {
  return run_supervised(pipeline().graph, pipeline().flat, sel, {}, cegar, opts);
}

std::string tmp_path(const std::string& name) { return ::testing::TempDir() + name; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spill(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

void expect_outcomes_equal(const std::vector<PropertyOutcome>& a,
                           const std::vector<PropertyOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // encode_outcome covers the full deterministic slice (verdict, note,
    // refinements, equivalence, counterexample, failure class, attempts).
    EXPECT_EQ(encode_outcome(a[i]), encode_outcome(b[i])) << "property index " << i;
  }
}

// --- Journal durability -----------------------------------------------------

TEST(Journal, RoundTripsPayloadsThroughCommit) {
  const std::string path = tmp_path("journal_roundtrip.jsonl");
  std::remove(path.c_str());
  {
    JournalWriter writer(path);
    EXPECT_EQ(writer.records(), 0u);
    writer.append("{\"a\":1}");
    writer.append("payload with spaces and \"quotes\"");
    ASSERT_TRUE(writer.commit());
    EXPECT_EQ(writer.records(), 2u);
    EXPECT_EQ(writer.pending(), 0u);
  }
  JournalLoad load = load_journal(path);
  EXPECT_TRUE(load.existed);
  EXPECT_EQ(load.dropped, 0u);
  ASSERT_EQ(load.payloads.size(), 2u);
  EXPECT_EQ(load.payloads[0], "{\"a\":1}");
  EXPECT_EQ(load.payloads[1], "payload with spaces and \"quotes\"");
}

TEST(Journal, TornTailAndCorruptionPoisonTheRest) {
  const std::string path = tmp_path("journal_torn.jsonl");
  std::remove(path.c_str());
  {
    JournalWriter writer(path);
    writer.append("first");
    writer.append("second");
    writer.append("third");
    ASSERT_TRUE(writer.commit());
  }
  std::string bytes = slurp(path);

  // Unterminated final line: dropped, earlier records intact.
  spill(path, bytes.substr(0, bytes.size() - 1));
  JournalLoad torn = load_journal(path);
  EXPECT_EQ(torn.payloads, (std::vector<std::string>{"first", "second"}));
  EXPECT_EQ(torn.dropped, 1u);

  // A flipped byte in the middle line: CRC rejects it, and everything after
  // the first bad line is distrusted (no resurrection of later records).
  std::string corrupt = bytes;
  corrupt[bytes.find("second")] ^= 0x01;
  spill(path, corrupt);
  JournalLoad poisoned = load_journal(path);
  EXPECT_EQ(poisoned.payloads, (std::vector<std::string>{"first"}));
  EXPECT_EQ(poisoned.dropped, 2u);
}

TEST(Journal, EveryByteTruncationRecoversAValidPrefix) {
  const std::string path = tmp_path("journal_killpoint.jsonl");
  std::remove(path.c_str());
  const std::vector<std::string> payloads = {"alpha", "bravo {\"x\":2}", "charlie",
                                             "delta-delta", "echo"};
  {
    JournalWriter writer(path);
    for (const std::string& p : payloads) writer.append(p);
    ASSERT_TRUE(writer.commit());
  }
  const std::string bytes = slurp(path);

  // Expected recovery at each length: the records whose full "crc payload\n"
  // line fits within the prefix.
  std::vector<std::size_t> line_ends;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') line_ends.push_back(i + 1);
  }
  ASSERT_EQ(line_ends.size(), payloads.size());

  const std::string trunc = tmp_path("journal_killpoint_trunc.jsonl");
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    spill(trunc, bytes.substr(0, len));
    JournalLoad load = load_journal(trunc);
    std::size_t expect = 0;
    while (expect < line_ends.size() && line_ends[expect] <= len) ++expect;
    ASSERT_EQ(load.payloads.size(), expect) << "truncation at byte " << len;
    for (std::size_t k = 0; k < expect; ++k) {
      EXPECT_EQ(load.payloads[k], payloads[k]) << "truncation at byte " << len;
    }
  }
}

/// Runs in a forked child, since RLIMIT_FSIZE is per process: commits the
/// header, then sets the file-size limit 4 bytes past the durable end, so
/// the next append is cut short. Returns 0 when that commit fails and sets
/// error(), and the one after the limit is lifted lands every record.
int commit_past_a_short_append(const std::string& path, const std::vector<std::string>& records) {
  RunJournal journal(path, false, {"analyze", "cls", "opts"});
  journal.start({});
  struct stat st;
  rlimit full;
  if (::stat(path.c_str(), &st) != 0 || ::getrlimit(RLIMIT_FSIZE, &full) != 0) return 1;
  std::signal(SIGXFSZ, SIG_IGN);
  rlimit cut = full;
  cut.rlim_cur = static_cast<rlim_t>(st.st_size) + 4;
  if (::setrlimit(RLIMIT_FSIZE, &cut) != 0) return 2;
  for (const std::string& record : records) journal.append(record);
  journal.commit();
  if (journal.error().empty()) return 3;
  if (::setrlimit(RLIMIT_FSIZE, &full) != 0) return 4;
  journal.commit();
  return journal.committed() == records.size() ? 0 : 5;
}

TEST(Journal, ShortAppendIsCutBackAndRetried) {
  const std::string path = tmp_path("journal_short_append.jsonl");
  std::remove(path.c_str());
  const std::vector<std::string> records = {"first record", "second record", "third record"};
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(commit_past_a_short_append(path, records));
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  // The torn bytes of the failed commit were cut off, so the retry's lines
  // follow the header directly.
  const JournalLoad load = load_journal(path);
  EXPECT_EQ(load.dropped, 0u);
  std::vector<std::string> expected = {encode_journal_header({"analyze", "cls", "opts"})};
  expected.insert(expected.end(), records.begin(), records.end());
  EXPECT_EQ(load.payloads, expected);
}

// --- Outcome codec ----------------------------------------------------------

PropertyOutcome sample_outcome() {
  PropertyOutcome o;
  o.attempts = 3;
  o.failure = FailureClass::kBudget;
  o.diagnostics = "diag with \"quotes\"\nand a newline\tand tab";
  o.result.status = PropertyResult::Status::kAttack;
  o.result.property_id = "S99";
  o.result.attack_id = "P9";
  o.result.note = "note \\ with backslash and control \x01 byte";
  o.result.iterations = 4;
  o.result.refinements = {"banned adv_replay_x: stale", "banned adv_inject_y: no key"};
  cpv::EquivalenceVerdict eq;
  eq.distinguishable = true;
  eq.victim_response = "authentication_response";
  eq.other_response = "authentication_failure";
  eq.reason = "responses differ";
  o.result.equivalence = eq;
  mc::CounterExample cex;
  cex.loop_start = 1;
  mc::TraceStep step;
  step.label = "adv_replay_dl_authentication_request";
  step.meta.actor = mc::CommandMeta::Actor::kAdversary;
  step.meta.kind = mc::CommandMeta::Kind::kReplay;
  step.meta.message = "authentication_request";
  step.meta.provenance = 2;
  step.meta.from_state = "A";
  step.meta.to_state = "B";
  step.meta.atoms = {"mac_valid=1", "sqn_ok=1"};
  step.meta.actions = {"authentication_response"};
  step.post = {4, 2, 0, -1, 7};
  cex.steps.push_back(step);
  step.label = "ue_deliver_authentication_request";  // the loop
  step.meta.actor = mc::CommandMeta::Actor::kUe;
  step.meta.kind = mc::CommandMeta::Kind::kDeliver;
  cex.steps.push_back(step);
  o.result.counterexample = cex;
  return o;
}

// `json` with the first `from` replaced by `to`.
std::string with(std::string json, const std::string& from, const std::string& to) {
  const std::size_t at = json.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? json : json.replace(at, from.size(), to);
}

TEST(OutcomeCodec, RoundTripsEveryField) {
  PropertyOutcome o = sample_outcome();
  std::string json = encode_outcome(o);
  std::optional<PropertyOutcome> back = decode_outcome(json);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->attempts, o.attempts);
  EXPECT_EQ(back->failure, o.failure);
  EXPECT_EQ(back->diagnostics, o.diagnostics);
  EXPECT_EQ(back->result.status, o.result.status);
  EXPECT_EQ(back->result.property_id, o.result.property_id);
  EXPECT_EQ(back->result.attack_id, o.result.attack_id);
  EXPECT_EQ(back->result.note, o.result.note);
  EXPECT_EQ(back->result.iterations, o.result.iterations);
  EXPECT_EQ(back->result.refinements, o.result.refinements);
  ASSERT_TRUE(back->result.equivalence.has_value());
  EXPECT_EQ(back->result.equivalence->reason, o.result.equivalence->reason);
  ASSERT_TRUE(back->result.counterexample.has_value());
  EXPECT_EQ(back->result.counterexample->loop_start, 1);
  ASSERT_EQ(back->result.counterexample->steps.size(), 2u);
  const mc::TraceStep& s = back->result.counterexample->steps[0];
  EXPECT_EQ(s.label, "adv_replay_dl_authentication_request");
  EXPECT_EQ(s.meta.kind, mc::CommandMeta::Kind::kReplay);
  EXPECT_EQ(s.meta.atoms, (std::set<std::string>{"mac_valid=1", "sqn_ok=1"}));
  EXPECT_EQ(s.post, (mc::State{4, 2, 0, -1, 7}));
  // The codec is its own fixpoint: encode(decode(encode(x))) == encode(x).
  EXPECT_EQ(encode_outcome(*back), json);
}

TEST(OutcomeCodec, RejectsMalformedRecords) {
  EXPECT_FALSE(decode_outcome("").has_value());
  EXPECT_FALSE(decode_outcome("not json").has_value());
  EXPECT_FALSE(decode_outcome("{\"kind\":\"header\",\"v\":1}").has_value());
  EXPECT_FALSE(decode_outcome("{\"kind\":\"outcome\"}").has_value());  // no id
  EXPECT_FALSE(
      decode_outcome("{\"kind\":\"outcome\",\"id\":\"S01\",\"status\":\"bogus\"}").has_value());
  std::string valid = encode_outcome(sample_outcome());
  EXPECT_TRUE(decode_outcome(valid).has_value());
  EXPECT_FALSE(decode_outcome(valid.substr(0, valid.size() / 2)).has_value());
}

TEST(OutcomeCodec, RefusesTraceShapesOutsideTheirTypes) {
  // Decoding casts actor and ckind to enums and the report indexes the
  // steps by loop, so a record is refused unless each is in range, and
  // unless atoms, acts and post are arrays of strings and int32s.
  const std::string valid = encode_outcome(sample_outcome());
  ASSERT_TRUE(decode_outcome(valid).has_value());
  ASSERT_TRUE(contains(valid, "\"loop\":1,")) << valid;
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"\"actor\":2", "\"actor\":3"},
      {"\"actor\":2", "\"actor\":-1"},
      {",\"actor\":2", ""},
      {"\"ckind\":4", "\"ckind\":5"},
      {"\"ckind\":4", "\"ckind\":-1"},
      {"\"loop\":1,", "\"loop\":2,"},
      {"\"loop\":1,", "\"loop\":-2,"},
      {"\"loop\":1,", "\"loop\":4294967296,"},
      {"\"atoms\":[\"mac_valid=1\"", "\"atoms\":\"mac_valid=1\",\"x\":[\"\""},
      {"\"atoms\":[\"mac_valid=1\"", "\"atoms\":[1"},
      {"\"acts\":[\"authentication_response\"]", "\"acts\":{}"},
      {"\"acts\":[\"authentication_response\"]", "\"acts\":[null]"},
      {"\"post\":[4,2,0,-1,7]", "\"post\":4"},
      {"\"post\":[4,2,0,-1,7]", "\"post\":[4,\"2\"]"},
      {"\"post\":[4,2,0,-1,7]", "\"post\":[4294967297]"},
  };
  for (const auto& [from, to] : bad) {
    const std::string json = with(valid, from, to);
    ASSERT_TRUE(json_parse(json).has_value()) << json;
    EXPECT_FALSE(decode_outcome(json).has_value()) << to;
  }
  // The edges of each range still decode.
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {"\"actor\":2", "\"actor\":0"},
           {"\"ckind\":4", "\"ckind\":0"},
           {"\"loop\":1,", "\"loop\":-1,"},
           {"\"loop\":1,", "\"loop\":0,"},
           {"\"post\":[4,2,0,-1,7]", "\"post\":[2147483647,-2147483648]"}}) {
    EXPECT_TRUE(decode_outcome(with(valid, from, to)).has_value()) << to;
  }
}

// --- Containment, retries, classification -----------------------------------

TEST(Supervisor, WorkerCrashContainedToItsProperty) {
  auto sel = select({"S01", "S05", "P04"});
  CegarOptions cegar;
  cegar.max_states = 400000;
  SupervisedRun clean = run_sup(sel, {}, cegar);

  SupervisorOptions opts;
  opts.fault_hook = [](const std::string& id, int) {
    if (id == "S05") throw std::runtime_error("injected worker crash");
  };
  SupervisedRun faulted = run_sup(sel, opts, cegar);

  ASSERT_EQ(faulted.outcomes.size(), 3u);
  for (std::size_t i = 0; i < sel.size(); ++i) {
    const PropertyOutcome& o = faulted.outcomes[i];
    if (sel[i]->id == "S05") {
      EXPECT_EQ(o.result.status, PropertyResult::Status::kInconclusive);
      EXPECT_EQ(o.failure, FailureClass::kException);
      EXPECT_EQ(o.diagnostics, "injected worker crash");
      EXPECT_TRUE(contains(o.result.note, "worker exception"));
    } else {
      // The crash must not perturb the other verdicts at all.
      EXPECT_EQ(encode_outcome(o), encode_outcome(clean.outcomes[i])) << sel[i]->id;
    }
  }
}

TEST(Supervisor, RetryRecoversFromTransientCrash) {
  auto sel = select({"S05"});
  CegarOptions cegar;
  cegar.max_states = 400000;
  SupervisorOptions opts;
  opts.retries = 2;
  opts.fault_hook = [](const std::string&, int attempt) {
    if (attempt == 1) throw std::runtime_error("transient");
  };
  SupervisedRun run = run_sup(sel, opts, cegar);
  ASSERT_EQ(run.outcomes.size(), 1u);
  EXPECT_EQ(run.outcomes[0].result.status, PropertyResult::Status::kVerified);
  EXPECT_EQ(run.outcomes[0].failure, FailureClass::kNone);
  EXPECT_EQ(run.outcomes[0].attempts, 2);
}

TEST(Supervisor, DeadlineTripClassified) {
  auto sel = select({"S05"});
  CegarOptions cegar;
  cegar.max_seconds = 1e-9;
  SupervisedRun run = run_sup(sel, {}, cegar);
  ASSERT_EQ(run.outcomes.size(), 1u);
  EXPECT_EQ(run.outcomes[0].result.status, PropertyResult::Status::kInconclusive);
  EXPECT_EQ(run.outcomes[0].failure, FailureClass::kDeadline);
}

TEST(Supervisor, MemCeilingTripClassified) {
  auto sel = select({"S05"});
  CegarOptions cegar;
  cegar.max_visited_bytes = 1;  // trips on the first cooperative poll
  SupervisedRun run = run_sup(sel, {}, cegar);
  ASSERT_EQ(run.outcomes.size(), 1u);
  EXPECT_EQ(run.outcomes[0].result.status, PropertyResult::Status::kInconclusive);
  EXPECT_EQ(run.outcomes[0].failure, FailureClass::kMemCeiling);
  EXPECT_TRUE(contains(run.outcomes[0].result.note, "memory ceiling"));
}

TEST(Supervisor, GraphBuildHonoursTheRunsBudgets) {
  // The supervisor's own build (threat-model overload) stops at the run's
  // state cap and memory ceiling, and what a stopped build left out
  // reaches the property as that budget, never as a verdict.
  auto sel = select({"S05"});
  const threat::ThreatModel& tm = pipeline().tm;
  CegarOptions capped;
  capped.max_states = 3;
  SupervisedRun bound = run_supervised(tm, pipeline().flat, sel, {}, capped, {});
  EXPECT_TRUE(bound.graph_stats.bound_hit);
  EXPECT_EQ(bound.graph_stats.states_explored, 3u);
  EXPECT_EQ(bound.outcomes[0].failure, FailureClass::kBudget);

  CegarOptions ceiling;
  ceiling.max_visited_bytes = 1;
  SupervisedRun mem = run_supervised(tm, pipeline().flat, sel, {}, ceiling, {});
  EXPECT_TRUE(mem.graph_stats.mem_hit);
  EXPECT_EQ(mem.outcomes[0].failure, FailureClass::kMemCeiling);
}

TEST(Supervisor, ModelOutsideItsDomainsIsContainedPerProperty) {
  // The graph build refuses a model whose states could leave their declared
  // domains. Through the supervisor that is one exception outcome per
  // property that needs the graph, never a crash; an inapplicable property
  // is still reported as such.
  threat::ThreatModel tm = pipeline().tm;
  mc::Command bad;
  bad.label = "bad";
  bad.guard = mc::Expr::constant(true);
  bad.updates = {{tm.flag_auth, 2}};  // flag_auth has values 0..1
  tm.model.add_command(std::move(bad));
  auto sel = select({"S01", "S05", "S17", "P04"});
  SupervisedRun run = run_supervised(tm, pipeline().flat, sel, {}, {}, {});
  ASSERT_EQ(run.outcomes.size(), sel.size());
  std::size_t refused = 0;
  for (std::size_t i = 0; i < sel.size(); ++i) {
    const PropertyOutcome& o = run.outcomes[i];
    if (applicable(*sel[i], pipeline().flat)) {
      ++refused;
      EXPECT_EQ(o.failure, FailureClass::kException) << sel[i]->id;
      EXPECT_EQ(o.result.status, PropertyResult::Status::kInconclusive) << sel[i]->id;
      EXPECT_TRUE(contains(o.diagnostics, "outside a variable's domain")) << o.diagnostics;
    } else {
      EXPECT_EQ(o.failure, FailureClass::kNone) << sel[i]->id;
      EXPECT_EQ(o.result.status, PropertyResult::Status::kNotApplicable) << sel[i]->id;
    }
  }
  EXPECT_EQ(refused, 2u);  // S01 and S05; S17 and P04 are not implemented by cls
}

TEST(Supervisor, ExhaustedRetriesFallBackToStructuredInconclusive) {
  auto sel = select({"S05"});
  CegarOptions cegar;
  cegar.max_seconds = 1e-9;  // every attempt trips its deadline
  SupervisorOptions opts;
  opts.retries = 2;
  SupervisedRun run = run_sup(sel, opts, cegar);
  ASSERT_EQ(run.outcomes.size(), 1u);
  const PropertyOutcome& o = run.outcomes[0];
  EXPECT_EQ(o.result.status, PropertyResult::Status::kInconclusive);
  EXPECT_EQ(o.failure, FailureClass::kDeadline);
  EXPECT_EQ(o.attempts, 3);
  EXPECT_TRUE(contains(o.result.note, "deadline persisted through 3 attempts"))
      << o.result.note;
}

TEST(Supervisor, DeterministicBudgetTripsAreNotRetried) {
  // The same graph, bans and byte accounting trip a state cap or a memory
  // ceiling at the same point on a repeat, so the first trip is final.
  auto sel = select({"S05"});
  CegarOptions capped;
  capped.max_states = 3;
  CegarOptions ceiling;
  ceiling.max_visited_bytes = 1;
  SupervisorOptions opts;
  opts.retries = 2;
  for (const auto& [cegar, failure] : {std::pair{capped, FailureClass::kBudget},
                                       std::pair{ceiling, FailureClass::kMemCeiling}}) {
    SCOPED_TRACE(std::string(supervise::to_string(failure)));
    SupervisedRun run = run_sup(sel, opts, cegar);
    ASSERT_EQ(run.outcomes.size(), 1u);
    const PropertyOutcome& o = run.outcomes[0];
    EXPECT_EQ(o.result.status, PropertyResult::Status::kInconclusive);
    EXPECT_EQ(o.failure, failure);
    EXPECT_EQ(o.attempts, 1);
    EXPECT_FALSE(contains(o.result.note, "persisted through")) << o.result.note;
  }
}

TEST(Supervisor, ParallelOutcomesMatchSequential) {
  auto sel = select({"S01", "S02", "S05", "P01", "P04"});
  CegarOptions cegar;
  cegar.max_states = 400000;
  SupervisorOptions seq;
  seq.jobs = 1;
  SupervisorOptions par;
  par.jobs = 4;
  SupervisedRun a = run_sup(sel, seq, cegar);
  SupervisedRun b = run_sup(sel, par, cegar);
  expect_outcomes_equal(a.outcomes, b.outcomes);
}

TEST(Supervisor, HeaderTagMismatchDiscardsForeignJournal) {
  auto sel = select({"P04"});
  const std::string path = tmp_path("journal_tag.jsonl");
  std::remove(path.c_str());
  SupervisorOptions first;
  first.journal_path = path;
  first.run_tag = "cls";
  run_sup(sel, first, {});

  SupervisorOptions other;
  other.journal_path = path;
  other.resume = true;
  other.run_tag = "some-other-profile";
  SupervisedRun run = run_sup(sel, other, {});
  EXPECT_EQ(run.resumed, 0u);  // foreign verdicts never leak in
  EXPECT_TRUE(contains(run.journal_error, "mismatch"));
  EXPECT_EQ(run.journal_records, sel.size());
}

TEST(Supervisor, CrossKindJournalIsDiscardedNeverAdopted) {
  const std::string path = tmp_path("journal_cross_kind");
  std::remove(path.c_str());
  learner::LearnSupervisorOptions learn;
  learn.learn.eq_test_words = 8;
  learn.learn.eq_test_max_length = 3;
  learn.journal_path = path;
  learn.run_tag = "cls";
  {
    learner::UeSul sul(ue::StackProfile::cls());
    ASSERT_TRUE(learner::learn_supervised(sul, learn).result.converged);
  }

  // A learn journal handed to an analysis resume: same tag, other kind.
  auto sel = select({"P04"});
  SupervisorOptions analyze;
  analyze.journal_path = path;
  analyze.resume = true;
  analyze.run_tag = "cls";
  SupervisedRun run = run_sup(sel, analyze, {});
  EXPECT_FALSE(run.aborted) << run.abort_reason;
  EXPECT_EQ(run.resumed, 0u);
  EXPECT_TRUE(contains(run.journal_error, "kind=learn")) << run.journal_error;
  EXPECT_TRUE(contains(run.journal_error, "kind=analyze")) << run.journal_error;
  EXPECT_EQ(run.journal_records, sel.size());

  // The analysis journal that replaced it, handed to a learn resume.
  learn.resume = true;
  learner::UeSul sul(ue::StackProfile::cls());
  const learner::SupervisedLearn learned = learner::learn_supervised(sul, learn);
  EXPECT_FALSE(learned.aborted) << learned.abort_reason;
  EXPECT_EQ(learned.adopted, 0u);
  EXPECT_EQ(learned.replayed, 0u);
  EXPECT_TRUE(contains(learned.journal_note, "kind=analyze")) << learned.journal_note;
  EXPECT_TRUE(contains(learned.journal_note, "kind=learn")) << learned.journal_note;
  EXPECT_TRUE(learned.result.converged) << learned.result.note;
}

// --- Journal lock and options-hash guards ------------------------------------

TEST(JournalLockTest, SecondAcquireFailsWhileHeldAndSucceedsAfterRelease) {
  const std::string path = tmp_path("journal_lock.jsonl");
  JournalLock first;
  ASSERT_TRUE(first.acquire(path)) << first.error();
  EXPECT_TRUE(first.held());

  JournalLock second;
  EXPECT_FALSE(second.acquire(path));
  EXPECT_TRUE(contains(second.error(), "locked by pid")) << second.error();

  first.release();
  EXPECT_FALSE(first.held());
  EXPECT_TRUE(second.acquire(path)) << second.error();
  second.release();
}

TEST(JournalLockTest, StaleLockFromDeadProcessIsStolen) {
  const std::string path = tmp_path("journal_stale.jsonl");
  // Manufacture a pid that is guaranteed dead: fork a child that exits
  // immediately and reap it, then plant its pid in the lock file.
  pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) _exit(0);
  int wstatus = 0;
  ASSERT_EQ(waitpid(child, &wstatus, 0), child);
  spill(path + ".lock", std::to_string(child) + "\n");

  JournalLock lock;
  EXPECT_TRUE(lock.acquire(path)) << lock.error();
  lock.release();
}

TEST(JournalLockTest, KilledHolderReleasesTheLockAtOnce) {
  const std::string path = tmp_path("journal_killed_holder.jsonl");
  int ready[2];
  ASSERT_EQ(pipe(ready), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    JournalLock lock;
    const char held = lock.acquire(path) ? 'y' : 'n';
    (void)!write(ready[1], &held, 1);
    if (held != 'y') _exit(1);
    for (;;) pause();
  }
  char held = 0;
  const bool reported = read(ready[0], &held, 1) == 1;
  close(ready[0]);
  close(ready[1]);

  JournalLock lock;
  const bool taken_from_live_child = lock.acquire(path);
  const std::string error = lock.error();
  kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(reported);
  ASSERT_EQ(held, 'y');
  EXPECT_FALSE(taken_from_live_child);
  EXPECT_TRUE(contains(error, "locked by pid " + std::to_string(child))) << error;

  // The kernel dropped the dead child's lock; its pid file is still there.
  EXPECT_TRUE(lock.acquire(path)) << lock.error();
  lock.release();
}

TEST(Supervisor, ConcurrentJournalRunsFailFast) {
  auto sel = select({"P04"});
  const std::string path = tmp_path("journal_concurrent.jsonl");
  std::remove(path.c_str());
  // Stand in for the other live run: hold the lock with our own (live) pid.
  JournalLock holder;
  ASSERT_TRUE(holder.acquire(path)) << holder.error();

  SupervisorOptions opts;
  opts.journal_path = path;
  opts.run_tag = "cls";
  SupervisedRun run = run_sup(sel, opts, {});
  EXPECT_TRUE(run.aborted);
  EXPECT_TRUE(contains(run.abort_reason, "concurrent analyze run")) << run.abort_reason;
  EXPECT_TRUE(run.outcomes.empty());  // refused runs verify nothing

  holder.release();
  SupervisedRun retry = run_sup(sel, opts, {});
  EXPECT_FALSE(retry.aborted);
  EXPECT_EQ(retry.journal_records, sel.size());
}

TEST(Supervisor, ResumeRefusedOnOptionsHashMismatch) {
  auto sel = select({"P04"});
  const std::string path = tmp_path("journal_optshash.jsonl");
  std::remove(path.c_str());
  SupervisorOptions first;
  first.journal_path = path;
  first.run_tag = "cls";
  first.options_hash = "00000000deadbeef";
  ASSERT_FALSE(run_sup(sel, first, {}).aborted);

  SupervisorOptions changed = first;
  changed.resume = true;
  changed.options_hash = "00000000feedface";
  SupervisedRun refused = run_sup(sel, changed, {});
  EXPECT_TRUE(refused.aborted);
  EXPECT_TRUE(contains(refused.abort_reason, "resume refused")) << refused.abort_reason;
  // The diagnostic names both fingerprints so the operator can see *what*
  // diverged rather than guessing.
  EXPECT_TRUE(contains(refused.abort_reason, "00000000deadbeef")) << refused.abort_reason;
  EXPECT_TRUE(contains(refused.abort_reason, "00000000feedface")) << refused.abort_reason;
  EXPECT_EQ(refused.resumed, 0u);

  SupervisorOptions matching = first;
  matching.resume = true;
  SupervisedRun adopted = run_sup(sel, matching, {});
  EXPECT_FALSE(adopted.aborted);
  EXPECT_EQ(adopted.resumed, sel.size());
}

// A journaled trace is rendered against the run's model, so a record whose
// states do not fit it — a CRC-valid record cut short, or one from another
// model — is re-verified, never adopted.
TEST(Supervisor, ResumeReverifiesRecordsThatDoNotFitTheModel) {
  auto sel = select({"S01"});
  const std::string path = tmp_path("journal_misfit.jsonl");
  std::remove(path.c_str());
  SupervisorOptions opts;
  opts.journal_path = path;
  opts.run_tag = "cls";
  const SupervisedRun reference = run_sup(sel, opts, {});
  const JournalLoad load = load_journal(path);
  ASSERT_EQ(load.payloads.size(), 2u);  // the header and S01's outcome
  const std::optional<PropertyOutcome> journaled = decode_outcome(load.payloads[1]);
  ASSERT_TRUE(journaled.has_value());
  ASSERT_TRUE(journaled->result.counterexample.has_value());
  const mc::Model& model = pipeline().tm.model;

  using Edit = void (*)(mc::State&, const mc::Model&);
  const std::pair<const char*, Edit> edits[] = {
      {"every post cut to one value", [](mc::State& s, const mc::Model&) { s.resize(1); }},
      {"one value too many", [](mc::State& s, const mc::Model&) { s.push_back(0); }},
      {"a value past its domain",
       [](mc::State& s, const mc::Model& m) {
         s.back() = m.domain(static_cast<int>(s.size()) - 1);
       }},
      {"a negative value", [](mc::State& s, const mc::Model&) { s.front() = -1; }},
  };
  opts.resume = true;
  for (const auto& [name, edit] : edits) {
    PropertyOutcome misfit = *journaled;
    for (mc::TraceStep& step : misfit.result.counterexample->steps) edit(step.post, model);
    {
      RunJournal writer(path, false, {"analyze", "cls", ""});
      ASSERT_TRUE(writer.refusal().empty()) << writer.refusal();
      writer.start({encode_outcome(misfit)});
    }
    ASSERT_TRUE(decode_outcome(encode_outcome(misfit)).has_value()) << name;
    const SupervisedRun resumed = run_sup(sel, opts, {});
    EXPECT_EQ(resumed.resumed, 0u) << name;
    expect_outcomes_equal(resumed.outcomes, reference.outcomes);
    EXPECT_EQ(resumed.journal_records, 1u) << name;
  }
  // The journal each resume left behind is adopted as it stands.
  const SupervisedRun adopted = run_sup(sel, opts, {});
  EXPECT_EQ(adopted.resumed, 1u);
  expect_outcomes_equal(adopted.outcomes, reference.outcomes);
}

// --- Kill–resume determinism -------------------------------------------------
//
// The core durability property: kill the analysis at ANY byte of the
// journal, resume, and the final outcomes are identical to an uninterrupted
// run. Budgets here are deterministic (state bounds, no wall clock), so
// notes and stats embedded in them are identical run to run.

TEST(Supervisor, KillPointResumeAtEveryByteOffset) {
  auto sel = select({"S01", "S02", "S05", "P04"});
  CegarOptions cegar;
  cegar.max_states = 300;  // small deterministic budget keeps ~10^3 resumes fast

  const std::string ref_path = tmp_path("journal_ref.jsonl");
  std::remove(ref_path.c_str());
  SupervisorOptions ref_opts;
  ref_opts.journal_path = ref_path;
  ref_opts.run_tag = "cls";
  SupervisedRun reference = run_sup(sel, ref_opts, cegar);
  ASSERT_EQ(reference.outcomes.size(), sel.size());
  const std::string bytes = slurp(ref_path);
  ASSERT_GT(bytes.size(), 0u);

  const std::string trunc = tmp_path("journal_resume.jsonl");
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    spill(trunc, bytes.substr(0, len));
    SupervisorOptions opts;
    opts.journal_path = trunc;
    opts.resume = true;
    opts.run_tag = "cls";
    // Exercise both fan-out shapes across the sweep.
    opts.jobs = len % 7 == 0 ? 4 : 1;
    SupervisedRun resumed = run_sup(sel, opts, cegar);
    ASSERT_EQ(resumed.outcomes.size(), reference.outcomes.size()) << "kill at byte " << len;
    for (std::size_t i = 0; i < resumed.outcomes.size(); ++i) {
      ASSERT_EQ(encode_outcome(resumed.outcomes[i]), encode_outcome(reference.outcomes[i]))
          << "kill at byte " << len << ", property " << sel[i]->id;
    }
    EXPECT_LE(resumed.resumed, sel.size());
  }
  // Sanity: a full journal adopts everything.
  spill(trunc, bytes);
  SupervisorOptions full;
  full.journal_path = trunc;
  full.resume = true;
  full.run_tag = "cls";
  SupervisedRun adopted = run_sup(sel, full, cegar);
  EXPECT_EQ(adopted.resumed, sel.size());
}

// Pool workers commit to the journal concurrently; a resume at jobs=4 from
// the header plus the first two records reproduces every outcome (the
// supervisor_tsan ctest entry runs this under ThreadSanitizer).
TEST(Supervisor, ParallelJournaledResume) {
  auto sel = select({"S01", "S02", "S05", "P01", "P04"});
  CegarOptions cegar;
  cegar.max_states = 300;
  const std::string path = tmp_path("journal_parallel.jsonl");
  std::remove(path.c_str());
  SupervisorOptions opts;
  opts.journal_path = path;
  opts.run_tag = "cls";
  opts.jobs = 4;
  SupervisedRun reference = run_sup(sel, opts, cegar);
  ASSERT_EQ(reference.journal_records, sel.size());

  const std::string bytes = slurp(path);
  std::size_t cut = 0;
  for (int line = 0; line < 3; ++line) cut = bytes.find('\n', cut) + 1;
  spill(path, bytes.substr(0, cut));
  opts.resume = true;
  SupervisedRun resumed = run_sup(sel, opts, cegar);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.journal_records, sel.size());
  expect_outcomes_equal(resumed.outcomes, reference.outcomes);
}

// --- SIGKILLed analyze processes ---------------------------------------------

// Re-exec'd worker of AnalyzeKill: a journaled jobs=2 cls analyze that
// resumes PROCHECK_KILL_JOURNAL and writes its verdict block to
// PROCHECK_KILL_VERDICTS.
TEST(AnalyzeKillChild, DISABLED_Run) {
  const char* journal = std::getenv("PROCHECK_KILL_JOURNAL");
  const char* verdicts = std::getenv("PROCHECK_KILL_VERDICTS");
  ASSERT_NE(journal, nullptr);
  ASSERT_NE(verdicts, nullptr);
  AnalysisOptions options;
  options.jobs = 2;
  options.journal_path = journal;
  options.resume = true;
  const ImplementationReport report = ProChecker::analyze(ue::StackProfile::cls(), options);
  ASSERT_FALSE(report.aborted) << report.abort_reason;
  spill(verdicts, render_verdicts(report));
}

pid_t spawn_analyze_child() {
  const pid_t pid = fork();
  if (pid == 0) {
    execl("/proc/self/exe", "supervisor_test", "--gtest_filter=AnalyzeKillChild.DISABLED_Run",
          "--gtest_also_run_disabled_tests", static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  return pid;
}

// SIGKILL a journaled analyze at seeded delays spread over the time an
// uninterrupted one takes in this build. Each kill leaves a journal that
// reloads with at most one torn line and whose records all decode; each
// successor resumes it, and the last, left alone, prints the uninterrupted
// verdicts.
TEST(AnalyzeKill, SigkillAtSeededDelaysResumesToTheSameVerdicts) {
  using Clock = std::chrono::steady_clock;
  const std::string journal = tmp_path("analyze_kill.jsonl");
  const std::string verdicts = tmp_path("analyze_kill_verdicts.txt");
  const auto clear = [&] {
    for (const std::string& p : {journal, journal + ".lock", journal + ".tmp", verdicts}) {
      std::remove(p.c_str());
    }
  };
  clear();
  ASSERT_EQ(setenv("PROCHECK_KILL_JOURNAL", journal.c_str(), 1), 0);
  ASSERT_EQ(setenv("PROCHECK_KILL_VERDICTS", verdicts.c_str(), 1), 0);
  const auto finish = [](pid_t pid) {
    int status = 0;
    EXPECT_EQ(waitpid(pid, &status, 0), pid);
    return status;
  };

  const Clock::time_point begin = Clock::now();
  int status = finish(spawn_analyze_child());
  const Clock::duration uninterrupted = Clock::now() - begin;
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "reference run failed";
  const std::string reference = slurp(verdicts);
  ASSERT_FALSE(reference.empty());
  clear();

  constexpr int kKills = 10;
  Rng rng(0xA11C0DEULL);
  int killed = 0;
  for (int k = 0; k < kKills; ++k) {
    const pid_t pid = spawn_analyze_child();
    ASSERT_GT(pid, 0);
    const double at = (k + static_cast<double>(rng.next_below(1000)) / 1000) / kKills;
    std::this_thread::sleep_for(
        std::chrono::duration_cast<Clock::duration>(uninterrupted * at));
    kill(pid, SIGKILL);
    status = finish(pid);
    if (WIFSIGNALED(status)) ++killed;

    const JournalLoad load = load_journal(journal);
    EXPECT_LE(load.dropped, 1u) << "kill " << k;
    for (std::size_t i = 0; i < load.payloads.size(); ++i) {
      const bool decodes = i == 0 ? decode_journal_header(load.payloads[i]).has_value()
                                  : decode_outcome(load.payloads[i]).has_value();
      EXPECT_TRUE(decodes) << "kill " << k << ", line " << i;
    }
  }
  EXPECT_GT(killed, 0);

  std::remove(verdicts.c_str());
  status = finish(spawn_analyze_child());
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "final run failed";
  EXPECT_EQ(slurp(verdicts), reference);
  clear();
  unsetenv("PROCHECK_KILL_JOURNAL");
  unsetenv("PROCHECK_KILL_VERDICTS");
}

// --- End-to-end: analyze --resume reproduces the report ----------------------

TEST(AnalyzeResume, ReportByteIdenticalAfterInterruptAndResume) {
  AnalysisOptions options;
  options.only_properties = {"S01", "P01", "P04"};
  options.jobs = 1;
  const std::string path = tmp_path("analyze_journal.jsonl");
  std::remove(path.c_str());
  options.journal_path = path;
  ImplementationReport ref = ProChecker::analyze(ue::StackProfile::cls(), options);
  const std::string verdicts = render_verdicts(ref);
  const std::string bytes = slurp(path);
  ASSERT_GT(bytes.size(), 0u);

  // A handful of representative kill points (the per-byte sweep lives in
  // the supervisor-level test where re-verification is cheap).
  for (std::size_t len : {std::size_t{0}, bytes.size() / 3, 2 * bytes.size() / 3,
                          bytes.size() - 1, bytes.size()}) {
    spill(path, bytes.substr(0, len));
    AnalysisOptions resume = options;
    resume.resume = true;
    resume.jobs = len % 2 == 0 ? 1 : 4;
    ImplementationReport rep = ProChecker::analyze(ue::StackProfile::cls(), resume);
    EXPECT_EQ(render_verdicts(rep), verdicts) << "kill at byte " << len;
  }
}

TEST(AnalyzeResume, FullyAdoptedResumeBuildsNoGraph) {
  AnalysisOptions options;
  options.only_properties = {"S01", "S05", "P04"};
  options.jobs = 1;
  const std::string path = tmp_path("analyze_nograph.jsonl");
  std::remove(path.c_str());
  options.journal_path = path;
  ImplementationReport ref = ProChecker::analyze(ue::StackProfile::cls(), options);
  EXPECT_GT(ref.graph_stats.states_explored, 0u);
  EXPECT_GT(ref.graph_stats.edges_explored, ref.graph_stats.states_explored);
  EXPECT_GT(ref.graph_stats.visited_bytes, 0u);
  EXPECT_FALSE(ref.graph_stats.truncated());

  // Everything adopted from the journal: nothing left to check, no build.
  AnalysisOptions resume = options;
  resume.resume = true;
  ImplementationReport rep = ProChecker::analyze(ue::StackProfile::cls(), resume);
  EXPECT_EQ(rep.resumed_count, 3u);
  EXPECT_EQ(render_verdicts(rep), render_verdicts(ref));
  EXPECT_EQ(rep.graph_stats.states_explored, 0u);
  EXPECT_EQ(rep.graph_stats.edges_explored, 0u);
  EXPECT_EQ(rep.graph_stats.seconds, 0.0);

  // Only an inapplicable property selected: no build either.
  AnalysisOptions na;
  na.only_properties = {"P04"};
  na.jobs = 1;
  EXPECT_EQ(ProChecker::analyze(ue::StackProfile::cls(), na).graph_stats.states_explored, 0u);
}

TEST(AnalyzeResume, InjectedCrashDegradesOnePropertyOthersVerify) {
  // The acceptance scenario: one property's worker crashes on every attempt;
  // the report still carries a verdict row for it (structured inconclusive)
  // and every other property is unaffected.
  AnalysisOptions options;
  options.only_properties = {"S01", "S05", "P04"};
  options.jobs = 2;
  options.retries = 1;
  options.fault_hook = [](const std::string& id, int) {
    if (id == "S05") throw std::runtime_error("induced OOM");
  };
  ImplementationReport rep = ProChecker::analyze(ue::StackProfile::cls(), options);
  ASSERT_EQ(rep.results.size(), 3u);
  EXPECT_EQ(rep.contained_count(), 1);
  std::map<std::string, const PropertyResult*> by_id;
  for (const PropertyResult& r : rep.results) by_id[r.property_id] = &r;
  EXPECT_EQ(by_id["S05"]->status, PropertyResult::Status::kInconclusive);
  EXPECT_TRUE(contains(by_id["S05"]->note, "worker exception"));
  EXPECT_EQ(by_id["S01"]->status, PropertyResult::Status::kAttack);
  EXPECT_EQ(by_id["P04"]->status, PropertyResult::Status::kNotApplicable);
  // The verdict block names the contained failure.
  EXPECT_TRUE(contains(render_verdicts(rep), "contained failures: S05:exception(2)"));
}

TEST(AnalyzeResume, RefusedWhenVerdictShapingOptionsChange) {
  AnalysisOptions options;
  options.only_properties = {"P04"};
  options.jobs = 1;
  const std::string path = tmp_path("analyze_optshash.jsonl");
  std::remove(path.c_str());
  options.journal_path = path;
  ImplementationReport ref = ProChecker::analyze(ue::StackProfile::cls(), options);
  ASSERT_FALSE(ref.aborted);

  // A changed MC budget can change journaled verdicts: resuming must refuse
  // rather than silently mix budgets.
  AnalysisOptions changed = options;
  changed.resume = true;
  changed.max_states = 1234;
  ImplementationReport refused = ProChecker::analyze(ue::StackProfile::cls(), changed);
  EXPECT_TRUE(refused.aborted);
  EXPECT_TRUE(contains(refused.abort_reason, "resume refused")) << refused.abort_reason;
  EXPECT_TRUE(refused.results.empty());

  // jobs is deliberately outside the fingerprint (reports are byte-identical
  // at any parallelism): a different fan-out still resumes.
  AnalysisOptions same = options;
  same.resume = true;
  same.jobs = 4;
  ImplementationReport resumed = ProChecker::analyze(ue::StackProfile::cls(), same);
  EXPECT_FALSE(resumed.aborted);
  EXPECT_EQ(resumed.resumed_count, ref.results.size());
}

// The header also binds the threat model the verdicts were computed on: a
// stack rebuilt with another behaviour, or another stack under the same
// name, refuses the journal and leaves it untouched.
TEST(AnalyzeResume, RefusedWhenTheModelChanges) {
  AnalysisOptions options;
  options.only_properties = {"S07"};
  options.jobs = 1;
  const std::string path = tmp_path("analyze_model.jsonl");
  std::remove(path.c_str());
  options.journal_path = path;
  const ImplementationReport ref = ProChecker::analyze(ue::StackProfile::cls(), options);
  ASSERT_FALSE(ref.aborted);
  ASSERT_EQ(ref.results.size(), 1u);
  EXPECT_EQ(ref.results[0].status, PropertyResult::Status::kVerified);
  const std::string bytes = slurp(path);

  ue::StackProfile equal_sqn = ue::StackProfile::cls();  // as rebuilt with I3
  equal_sqn.accept_equal_sqn = true;
  ue::StackProfile renamed = ue::StackProfile::oai();
  renamed.name = "cls";
  AnalysisOptions resume = options;
  resume.resume = true;
  for (const ue::StackProfile& other : {equal_sqn, renamed}) {
    const ImplementationReport refused = ProChecker::analyze(other, resume);
    EXPECT_TRUE(refused.aborted);
    EXPECT_TRUE(contains(refused.abort_reason, "resume refused")) << refused.abort_reason;
    EXPECT_TRUE(refused.results.empty());
    EXPECT_EQ(slurp(path), bytes);
  }

  // The journaled verdict would have been wrong for the rebuilt stack.
  AnalysisOptions fresh = options;
  fresh.journal_path.clear();
  const ImplementationReport rebuilt = ProChecker::analyze(equal_sqn, fresh);
  ASSERT_EQ(rebuilt.results.size(), 1u);
  EXPECT_EQ(rebuilt.results[0].status, PropertyResult::Status::kAttack);
  EXPECT_EQ(rebuilt.attacks_found, std::set<std::string>{"I3"});

  const ImplementationReport same = ProChecker::analyze(ue::StackProfile::cls(), resume);
  EXPECT_FALSE(same.aborted);
  EXPECT_EQ(same.resumed_count, 1u);
  EXPECT_EQ(render_verdicts(same), render_verdicts(ref));
}

TEST(AnalyzeResume, OptionsHashCoversVerdictKnobsOnly) {
  AnalysisOptions a;
  a.only_properties = {"S01", "P04"};
  a.jobs = 1;
  AnalysisOptions b = a;
  b.jobs = 8;
  b.journal_path = "elsewhere.jsonl";  // plumbing: excluded
  b.resume = true;
  EXPECT_EQ(analysis_options_hash(a, ue::StackProfile::cls()),
            analysis_options_hash(b, ue::StackProfile::cls()));

  AnalysisOptions c = a;
  c.max_states /= 2;
  EXPECT_NE(analysis_options_hash(c, ue::StackProfile::cls()),
            analysis_options_hash(a, ue::StackProfile::cls()));

  // The profile's freshness-limit mitigation shapes verdicts (the ablation
  // knob) → covered by the fingerprint.
  ue::StackProfile mitigated = ue::StackProfile::cls();
  mitigated.sqn_freshness_limit = 64;
  EXPECT_NE(analysis_options_hash(a, mitigated),
            analysis_options_hash(a, ue::StackProfile::cls()));
}

TEST(AnalyzeResume, OptionsHashKeepsDefaultJournalsAndRefusesRetriedOnes) {
  // Journals written before retries stopped shrinking their budgets: one
  // under the default options, which still resumes, and one under
  // --retries 2, which may hold a smaller-cap verdict and is refused.
  const AnalysisOptions defaults;
  EXPECT_EQ(analysis_options_hash(defaults, ue::StackProfile::cls()), "79cea045e1478b9b");
  AnalysisOptions retried;
  retried.retries = 2;
  EXPECT_NE(analysis_options_hash(retried, ue::StackProfile::cls()), "d245bc1a5646a41b");
}

}  // namespace
}  // namespace procheck::checker
