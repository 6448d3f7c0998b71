// Learning-supervisor suite (DESIGN.md §15): crash-safe journal + resume
// determinism, the kill-at-every-journal-byte sweep, exception injection at
// every query probe, the deadline and the retry ladder, k-of-n
// nondeterminism arbitration (convergence where first-observation-wins pins
// a wrong edge, quarantine where no majority exists), and the remote
// variants over the multi-session server — clean and under lossless chaos.
//
// Monolithic binary (one ctest entry, label "learner-chaos", folded into the
// chaos-asan preset): the reference learn + journal are computed once and
// shared. Sweeps run at a stride on the PR gate; PROCHECK_SWEEP_EVERY_BYTE=1
// (or PROCHECK_NIGHTLY=1) covers every byte / every probe.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/journal.h"
#include "learner/learn_supervisor.h"
#include "learner/lstar.h"
#include "learner/sul.h"
#include "net/chaos_proxy.h"
#include "net/remote_sul.h"
#include "net/sul_server.h"
#include "ue/profile.h"

namespace procheck::learner {
namespace {

using Word = std::vector<std::string>;

bool exhaustive_sweeps() {
  for (const char* var : {"PROCHECK_SWEEP_EVERY_BYTE", "PROCHECK_NIGHTLY"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && std::string(v) == "1") return true;
  }
  return false;
}

LearnOptions tiny_options() {
  LearnOptions o;
  o.eq_test_words = 15;
  o.eq_test_max_length = 4;
  o.seed = 0xBEEF;
  return o;
}

std::string fsm_text(const LearnResult& r) { return r.machine.to_fsm().to_dot("learned"); }

std::string temp_path(const std::string& name) { return ::testing::TempDir() + name; }

void remove_journal(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  std::remove((path + ".tmp").c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Writes a journal with proper CRC tags from raw payload lines.
void craft_journal(const std::string& path, const std::vector<std::string>& payloads) {
  remove_journal(path);
  JournalWriter writer(path);
  for (const std::string& p : payloads) writer.append(p);
  ASSERT_TRUE(writer.commit());
}

/// The shared clean reference: one plain learn, one journaled supervised
/// learn (same options), plus the journal bytes and the fresh-query probe
/// count for the injection sweeps.
struct Reference {
  LearnResult plain;
  SupervisedLearn supervised;
  std::string fsm;
  std::string journal_bytes;
  long probes = 0;
};

const Reference& reference() {
  static const Reference ref = [] {
    Reference r;
    {
      UeSul sul(ue::StackProfile::cls());
      r.plain = learn_mealy(sul, tiny_options());
    }
    r.fsm = fsm_text(r.plain);
    const std::string path = temp_path("learn_ref.journal");
    remove_journal(path);
    LearnSupervisorOptions o;
    o.learn = tiny_options();
    o.journal_path = path;
    o.run_tag = "cls";
    long probes = 0;
    o.fault_hook = [&probes](long p) { probes = p + 1; };
    UeSul sul(ue::StackProfile::cls());
    r.supervised = learn_supervised(sul, o);
    r.journal_bytes = slurp(path);
    r.probes = probes;
    return r;
  }();
  return ref;
}

void expect_matches_reference(const SupervisedLearn& run, const char* where) {
  const Reference& ref = reference();
  EXPECT_FALSE(run.aborted) << where << ": " << run.abort_reason;
  ASSERT_TRUE(run.result.converged) << where << ": " << run.result.note;
  EXPECT_EQ(fsm_text(run.result), ref.fsm) << where;
  EXPECT_EQ(run.result.membership_queries, ref.plain.membership_queries) << where;
  EXPECT_EQ(run.result.equivalence_queries, ref.plain.equivalence_queries) << where;
  EXPECT_EQ(run.result.counterexamples, ref.plain.counterexamples) << where;
}

// ---------------------------------------------------------------------------
// Journal codec

TEST(LearnJournalCodec, HeaderRoundTrip) {
  const std::string line = encode_journal_header({"learn", "cls", "0123456789abcdef"});
  EXPECT_EQ(line, "journal v=1 kind=learn tag=cls opts=0123456789abcdef");
  const auto h = decode_journal_header(line);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->kind, "learn");
  EXPECT_EQ(h->tag, "cls");
  EXPECT_EQ(h->opts, "0123456789abcdef");
}

TEST(LearnJournalCodec, HeaderRejectsDamage) {
  EXPECT_FALSE(decode_journal_header(""));
  EXPECT_FALSE(decode_journal_header("journal"));
  EXPECT_FALSE(decode_journal_header("journal v=2 kind=learn tag=cls opts=0123456789abcdef"));
  EXPECT_FALSE(decode_journal_header("journal v=1 kind= tag=cls opts=0123456789abcdef"));
  EXPECT_FALSE(decode_journal_header("journal v=1 kind=learn opts=0123456789abcdef"));
  EXPECT_FALSE(decode_journal_header("journal v=1 tag=cls kind=learn opts=0123456789abcdef"));
  EXPECT_FALSE(decode_journal_header("journal v=1 kind=learn tag=cls opts=0123456789abcdef "));
  EXPECT_FALSE(decode_journal_header("journal  v=1 kind=learn tag=cls opts=0123456789abcdef"));
  // Earlier header formats are foreign: a resume over them starts fresh.
  EXPECT_FALSE(decode_journal_header("learn-header v=1 tag=cls opts=0123456789abcdef"));
  EXPECT_FALSE(decode_journal_header(
      "{\"kind\":\"header\",\"v\":2,\"tag\":\"cls\",\"opts\":\"0123456789abcdef\"}"));
  EXPECT_FALSE(decode_journal_header("obs 1 power_on attach_request"));
}

TEST(LearnJournalCodec, ObservationRoundTrip) {
  const Word word = {"power_on", "paging"};
  const Word outs = {"attach_request", "service_request"};
  const auto obs = decode_observation(encode_observation(word, outs));
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->word, word);
  EXPECT_EQ(obs->outputs, outs);
}

TEST(LearnJournalCodec, ObservationRejectsDamage) {
  EXPECT_FALSE(decode_observation(""));
  EXPECT_FALSE(decode_observation("obs"));
  EXPECT_FALSE(decode_observation("obs 0"));
  EXPECT_FALSE(decode_observation("obs 1 power_on"));                      // missing output
  EXPECT_FALSE(decode_observation("obs 2 power_on paging attach_request"));  // count lies
  EXPECT_FALSE(decode_observation("obs 1 not_a_symbol attach_request"));
  EXPECT_FALSE(decode_observation("obs 1 power_on sul_unavailable"));  // poison never adopted
  EXPECT_FALSE(decode_observation("obs x power_on attach_request"));
  EXPECT_FALSE(decode_observation("obs 1  power_on attach_request"));  // empty token
  EXPECT_FALSE(decode_observation("obs 99999 power_on attach_request"));
  EXPECT_FALSE(decode_observation("learn-header v=1 tag=cls opts=0123456789abcdef"));
}

TEST(LearnJournalCodec, OptionsHashDependsOnEveryKnob) {
  const LearnOptions base = tiny_options();
  const std::string h = learn_options_hash(base, 3, 5);
  EXPECT_EQ(h.size(), 16u);
  LearnOptions seed = base;
  seed.seed = 42;
  EXPECT_NE(learn_options_hash(seed, 3, 5), h);
  LearnOptions words = base;
  words.eq_test_words = 16;
  EXPECT_NE(learn_options_hash(words, 3, 5), h);
  LearnOptions len = base;
  len.eq_test_max_length = 5;
  EXPECT_NE(learn_options_hash(len, 3, 5), h);
  EXPECT_NE(learn_options_hash(base, 4, 5), h);
  EXPECT_NE(learn_options_hash(base, 3, 4), h);
}

TEST(LearnJournalCodec, OptionsHashIsPinned) {
  // A learn journal resumes only under the fingerprint it was written with,
  // so a change to the hashed text orphans every existing journal.
  EXPECT_EQ(learn_options_hash(LearnOptions{}, 3, 5), "bb9ea17749511f62");
}

// ---------------------------------------------------------------------------
// Supervised == plain (the wrapper is answer-transparent)

TEST(LearnSupervisor, UnjournaledSupervisedMatchesPlainLearn) {
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  UeSul sul(ue::StackProfile::cls());
  const SupervisedLearn run = learn_supervised(sul, o);
  expect_matches_reference(run, "unjournaled");
  EXPECT_EQ(run.attempts, 1);
  EXPECT_EQ(run.failure, LearnFailure::kNone);
  EXPECT_EQ(run.adopted, 0u);
  EXPECT_EQ(run.replayed, 0u);
  EXPECT_EQ(run.journal_records, 0u);
  EXPECT_EQ(run.result.arbitrations, 0);
}

TEST(LearnSupervisor, CleanJournaledRunMatchesPlainLearn) {
  const Reference& ref = reference();
  expect_matches_reference(ref.supervised, "clean journaled");
  EXPECT_EQ(ref.supervised.journal_records,
            static_cast<std::size_t>(ref.plain.membership_queries));
  EXPECT_FALSE(ref.journal_bytes.empty());
  EXPECT_GT(ref.probes, 0);
}

TEST(LearnSupervisor, FullResumeServesEverythingFromJournal) {
  const Reference& ref = reference();
  const std::string path = temp_path("learn_full_resume.journal");
  remove_journal(path);
  spill(path, ref.journal_bytes);
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  o.journal_path = path;
  o.resume = true;
  o.run_tag = "cls";
  UeSul sul(ue::StackProfile::cls());
  const SupervisedLearn run = learn_supervised(sul, o);
  expect_matches_reference(run, "full resume");
  EXPECT_EQ(run.adopted, ref.supervised.journal_records);
  EXPECT_EQ(run.replayed, run.adopted);  // everything served from the journal
  EXPECT_EQ(run.journal_records, ref.supervised.journal_records);
  // The rewritten journal is byte-identical to the one it resumed from.
  EXPECT_EQ(slurp(path), ref.journal_bytes);
}

// ---------------------------------------------------------------------------
// Kill-at-every-journal-byte resume sweep

void run_resume_sweep(const std::string& tag, const std::string& journal_bytes,
                      const std::function<SupervisedLearn(const std::string&)>& resume_run) {
  // Offsets: every record boundary (a kill between queries) plus a stride of
  // mid-line cuts (a kill mid-write / torn tail); every byte when exhaustive.
  std::set<std::size_t> offsets = {0, journal_bytes.size()};
  if (exhaustive_sweeps()) {
    for (std::size_t i = 0; i <= journal_bytes.size(); ++i) offsets.insert(i);
  } else {
    std::vector<std::size_t> boundaries;
    for (std::size_t i = 0; i < journal_bytes.size(); ++i) {
      if (journal_bytes[i] == '\n') boundaries.push_back(i + 1);
    }
    const std::size_t bstride = std::max<std::size_t>(1, boundaries.size() / 48);
    for (std::size_t b = 0; b < boundaries.size(); b += bstride) offsets.insert(boundaries[b]);
    const std::size_t stride = std::max<std::size_t>(1, journal_bytes.size() / 64);
    for (std::size_t i = 0; i <= journal_bytes.size(); i += stride) offsets.insert(i);
  }
  const std::string path = temp_path("learn_sweep_" + tag + ".journal");
  for (const std::size_t offset : offsets) {
    remove_journal(path);
    spill(path, journal_bytes.substr(0, offset));
    const SupervisedLearn run = resume_run(path);
    expect_matches_reference(run, ("offset " + std::to_string(offset)).c_str());
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(LearnSupervisor, KillAtEveryJournalByteResumesByteIdentical) {
  const Reference& ref = reference();
  ASSERT_TRUE(ref.supervised.result.converged);
  run_resume_sweep("inproc", ref.journal_bytes, [](const std::string& path) {
    LearnSupervisorOptions o;
    o.learn = tiny_options();
    o.journal_path = path;
    o.resume = true;
    o.run_tag = "cls";
    UeSul sul(ue::StackProfile::cls());
    return learn_supervised(sul, o);
  });
}

// ---------------------------------------------------------------------------
// Resume discipline

TEST(LearnSupervisor, ResumeRefusalNamesBothFingerprints) {
  const Reference& ref = reference();
  const std::string path = temp_path("learn_refusal.journal");
  remove_journal(path);
  spill(path, ref.journal_bytes);
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  o.learn.seed = 0xD00D;  // different fingerprint
  o.journal_path = path;
  o.resume = true;
  o.run_tag = "cls";
  UeSul sul(ue::StackProfile::cls());
  const SupervisedLearn run = learn_supervised(sul, o);
  EXPECT_TRUE(run.aborted);
  EXPECT_TRUE(run.result.inconclusive);
  const std::string ours = learn_options_hash(o.learn, o.arbitration_k, o.arbitration_n);
  const std::string theirs =
      learn_options_hash(tiny_options(), o.arbitration_k, o.arbitration_n);
  EXPECT_NE(run.abort_reason.find("resume refused"), std::string::npos) << run.abort_reason;
  EXPECT_NE(run.abort_reason.find(ours), std::string::npos) << run.abort_reason;
  EXPECT_NE(run.abort_reason.find(theirs), std::string::npos) << run.abort_reason;
  // The refused journal was not clobbered: a correct-options resume still works.
  EXPECT_EQ(slurp(path), ref.journal_bytes);
}

TEST(LearnSupervisor, TagMismatchDiscardsJournalAndStartsFresh) {
  const Reference& ref = reference();
  const std::string path = temp_path("learn_tag.journal");
  remove_journal(path);
  spill(path, ref.journal_bytes);
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  o.journal_path = path;
  o.resume = true;
  o.run_tag = "srsue";  // reference journal is tagged cls
  UeSul sul(ue::StackProfile::cls());
  const SupervisedLearn run = learn_supervised(sul, o);
  expect_matches_reference(run, "tag mismatch");
  EXPECT_EQ(run.adopted, 0u);
  EXPECT_NE(run.journal_note.find("mismatch"), std::string::npos) << run.journal_note;
}

TEST(LearnSupervisor, MalformedRecordStopsAdoptionAtValidPrefix) {
  const Reference& ref = reference();
  // First two real payload lines out of the reference journal.
  std::vector<std::string> lines;
  std::istringstream in(ref.journal_bytes);
  for (std::string line; std::getline(in, line) && lines.size() < 3;) {
    lines.push_back(line.substr(9));  // strip the "%08x " CRC tag
  }
  ASSERT_EQ(lines.size(), 3u);
  const std::string path = temp_path("learn_malformed.journal");
  craft_journal(path, {lines[0], lines[1], "obs 2 power_on paging attach_request", lines[2]});
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  o.journal_path = path;
  o.resume = true;
  o.run_tag = "cls";
  UeSul sul(ue::StackProfile::cls());
  const SupervisedLearn run = learn_supervised(sul, o);
  expect_matches_reference(run, "malformed record");
  EXPECT_EQ(run.adopted, 1u);
  EXPECT_NE(run.journal_note.find("record 2"), std::string::npos) << run.journal_note;
  EXPECT_NE(run.journal_note.find("malformed"), std::string::npos) << run.journal_note;
}

TEST(LearnSupervisor, ContradictingRecordStopsAdoptionAtValidPrefix) {
  const std::string header =
      encode_journal_header({"learn", "cls", learn_options_hash(tiny_options(), 3, 5)});
  const std::string path = temp_path("learn_contradict.journal");
  craft_journal(path, {header, "obs 1 power_on attach_request",
                       "obs 2 power_on paging bogus_output service_request"});
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  o.journal_path = path;
  o.resume = true;
  o.run_tag = "cls";
  UeSul sul(ue::StackProfile::cls());
  const SupervisedLearn run = learn_supervised(sul, o);
  EXPECT_FALSE(run.aborted);
  EXPECT_EQ(run.adopted, 1u);
  EXPECT_NE(run.journal_note.find("contradicts"), std::string::npos) << run.journal_note;
}

TEST(LearnSupervisor, ConcurrentLockAborts) {
  const std::string path = temp_path("learn_locked.journal");
  remove_journal(path);
  JournalLock held;
  ASSERT_TRUE(held.acquire(path));
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  o.journal_path = path;
  UeSul sul(ue::StackProfile::cls());
  const SupervisedLearn run = learn_supervised(sul, o);
  EXPECT_TRUE(run.aborted);
  EXPECT_NE(run.abort_reason.find("concurrent learn run"), std::string::npos)
      << run.abort_reason;
}

TEST(LearnSupervisor, InvalidArbitrationThresholdAborts) {
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  o.arbitration_k = 2;
  o.arbitration_n = 5;  // 2-of-5 is not a majority
  UeSul sul(ue::StackProfile::cls());
  const SupervisedLearn run = learn_supervised(sul, o);
  EXPECT_TRUE(run.aborted);
  EXPECT_NE(run.abort_reason.find("invalid arbitration"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exception injection at every query probe

TEST(LearnSupervisor, ExceptionAtEveryProbeRetriesToByteIdentical) {
  const Reference& ref = reference();
  ASSERT_GT(ref.probes, 0);
  const long stride =
      exhaustive_sweeps() ? 1 : std::max<long>(1, ref.probes / 40);
  const std::string path = temp_path("learn_probe.journal");
  for (long p = 0; p < ref.probes; p += stride) {
    remove_journal(path);
    LearnSupervisorOptions o;
    o.learn = tiny_options();
    o.journal_path = path;
    o.run_tag = "cls";
    o.retries = 1;
    o.backoff_seconds = 0;
    o.fault_hook = [p](long probe) {
      if (probe == p) throw std::runtime_error("injected crash at probe " + std::to_string(p));
    };
    UeSul sul(ue::StackProfile::cls());
    const SupervisedLearn run = learn_supervised(sul, o);
    expect_matches_reference(run, ("probe " + std::to_string(p)).c_str());
    EXPECT_EQ(run.attempts, 2) << "probe " << p;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(LearnSupervisor, ExceptionWithoutRetryIsStructuredThenResumable) {
  const Reference& ref = reference();
  const std::string path = temp_path("learn_probe_noretry.journal");
  for (const long p : {0L, ref.probes / 3, ref.probes - 1}) {
    remove_journal(path);
    LearnSupervisorOptions o;
    o.learn = tiny_options();
    o.journal_path = path;
    o.run_tag = "cls";
    o.fault_hook = [p](long probe) {
      if (probe == p) throw std::runtime_error("injected crash");
    };
    {
      UeSul sul(ue::StackProfile::cls());
      const SupervisedLearn crashed = learn_supervised(sul, o);
      EXPECT_EQ(crashed.failure, LearnFailure::kException) << "probe " << p;
      EXPECT_TRUE(crashed.result.inconclusive);
      EXPECT_NE(crashed.result.note.find("worker exception"), std::string::npos)
          << crashed.result.note;
    }
    // A separate process would now --resume: byte-identical completion.
    LearnSupervisorOptions r;
    r.learn = tiny_options();
    r.journal_path = path;
    r.resume = true;
    r.run_tag = "cls";
    UeSul sul(ue::StackProfile::cls());
    const SupervisedLearn resumed = learn_supervised(sul, r);
    expect_matches_reference(resumed, ("resume after probe " + std::to_string(p)).c_str());
  }
}

// ---------------------------------------------------------------------------
// The deadline and the retry ladder

TEST(LearnSupervisor, DeadlineTripsToStructuredInconclusive) {
  for (const int retries : {0, 2}) {
    SCOPED_TRACE("retries " + std::to_string(retries));
    LearnSupervisorOptions o;
    o.learn = tiny_options();
    o.deadline_seconds = 1e-9;  // every fresh query is already too late
    o.retries = retries;        // no journal: every attempt starts over and trips
    o.backoff_seconds = 0;
    UeSul sul(ue::StackProfile::cls());
    const SupervisedLearn run = learn_supervised(sul, o);
    EXPECT_FALSE(run.aborted);
    EXPECT_EQ(run.failure, LearnFailure::kDeadline);
    EXPECT_EQ(run.attempts, 1 + retries);
    EXPECT_TRUE(run.result.inconclusive);
    EXPECT_FALSE(run.result.converged);
    EXPECT_NE(run.result.note.find("deadline"), std::string::npos) << run.result.note;
    if (retries > 0) {
      EXPECT_NE(run.result.note.find("persisted through 3 attempts"), std::string::npos)
          << run.result.note;
    }
  }
}

/// Sleeps through its first batch, so the attempt that sent it is past its
/// deadline by the time the batch is answered.
class SlowFirstBatchSul final : public Sul {
 public:
  SlowFirstBatchSul() : inner_(ue::StackProfile::cls()) {}

  void reset() override { inner_.reset(); }
  std::string step(const std::string& input) override { return inner_.step(input); }
  long resets() const override { return inner_.resets(); }
  long steps() const override { return inner_.steps(); }

  std::vector<Word> query_batch(const std::vector<Word>& words) override {
    if (!slept_) {
      slept_ = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1500));
    }
    return inner_.query_batch(words);
  }

 private:
  UeSul inner_;
  bool slept_ = false;
};

TEST(LearnSupervisor, DeadlineRetryMatchesAnUninterruptedLearn) {
  // Attempt 1 commits the slow batch and trips at its next admission. The
  // retry replays that batch without SUL contact and runs the configured
  // oracle to the machine an uninterrupted learn prints.
  SlowFirstBatchSul slow;
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  o.deadline_seconds = 1;
  o.retries = 1;
  o.backoff_seconds = 0;
  const SupervisedLearn run = learn_supervised(slow, o);
  EXPECT_EQ(run.attempts, 2);
  EXPECT_EQ(run.failure, LearnFailure::kNone) << run.diagnostics;
  expect_matches_reference(run, "deadline retry");
}

// ---------------------------------------------------------------------------
// Nondeterminism arbitration

/// Flips one observation once: the first exact query of [power_on, paging]
/// reports a wrong output at position 1. First-observation-wins caches the
/// lie forever; k-of-n arbitration outvotes it.
class FlakyOnceSul final : public Sul {
 public:
  FlakyOnceSul() : inner_(ue::StackProfile::cls()) {}

  void reset() override { inner_.reset(); }
  std::string step(const std::string& input) override { return inner_.step(input); }
  long resets() const override { return inner_.resets(); }
  long steps() const override { return inner_.steps(); }

  std::vector<std::string> query_word(const std::vector<std::string>& word) override {
    std::vector<std::string> outs = Sul::query_word(word);
    if (!flipped_ && word.size() >= 2 && word[0] == "power_on" && word[1] == "paging") {
      flipped_ = true;
      outs[1] = "flaky_" + outs[1];
    }
    return outs;
  }

 private:
  UeSul inner_;
  bool flipped_ = false;
};

TEST(LearnArbitration, FirstObservationWinsPinsTheWrongEdge) {
  // The pre-supervisor behavior this PR exists to fix: the plain learner
  // caches the flaky answer and builds it into the machine.
  FlakyOnceSul flaky;
  const LearnResult plain = learn_mealy(flaky, tiny_options());
  ASSERT_TRUE(plain.converged);
  EXPECT_NE(fsm_text(plain), reference().fsm);
  EXPECT_NE(fsm_text(plain).find("flaky_"), std::string::npos);
}

TEST(LearnArbitration, ThreeOfFiveConvergesToTheTrueMachine) {
  FlakyOnceSul flaky;
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  const SupervisedLearn run = learn_supervised(flaky, o);
  expect_matches_reference(run, "arbitrated flaky");
  EXPECT_EQ(fsm_text(run.result).find("flaky_"), std::string::npos);
  EXPECT_GE(run.result.arbitrations, 1);
  EXPECT_GE(run.result.arbitration_requeries, 5);
  EXPECT_GE(run.result.arbitration_overrides, 1);
  EXPECT_TRUE(run.result.quarantined.empty());
}

TEST(LearnArbitration, DisabledArbitrationKeepsFirstObservation) {
  FlakyOnceSul flaky;
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  o.arbitration_n = 0;  // explicit opt-out: the old trie policy
  const SupervisedLearn run = learn_supervised(flaky, o);
  EXPECT_FALSE(run.aborted);
  EXPECT_EQ(run.result.arbitrations, 0);
  ASSERT_TRUE(run.result.converged);
  EXPECT_NE(fsm_text(run.result), reference().fsm);  // the lie survives, by request
}

/// Answers [power_on, paging] with an alternating output at position 1 on
/// every query — no stable majority exists at any sample size.
class ContestedSul final : public Sul {
 public:
  ContestedSul() : inner_(ue::StackProfile::cls()) {}

  void reset() override { inner_.reset(); }
  std::string step(const std::string& input) override { return inner_.step(input); }
  long resets() const override { return inner_.resets(); }
  long steps() const override { return inner_.steps(); }

  std::vector<std::string> query_word(const std::vector<std::string>& word) override {
    std::vector<std::string> outs = Sul::query_word(word);
    if (word.size() >= 2 && word[0] == "power_on" && word[1] == "paging" &&
        (queries_++ % 2 == 0)) {
      outs[1] = "flap_" + outs[1];
    }
    return outs;
  }

 private:
  UeSul inner_;
  long queries_ = 0;
};

TEST(LearnArbitration, UnresolvedCellIsQuarantinedNeverAWrongMachine) {
  ContestedSul contested;
  LearnSupervisorOptions o;
  o.learn = tiny_options();
  o.arbitration_k = 4;  // alternating answers can reach at most 3 of 5
  o.arbitration_n = 5;
  const SupervisedLearn run = learn_supervised(contested, o);
  EXPECT_FALSE(run.aborted);
  EXPECT_EQ(run.failure, LearnFailure::kContested);
  EXPECT_TRUE(run.result.inconclusive);
  EXPECT_FALSE(run.result.converged);
  ASSERT_FALSE(run.result.quarantined.empty());
  EXPECT_NE(run.result.quarantined.front().find("power_on.paging"), std::string::npos)
      << run.result.quarantined.front();
  EXPECT_NE(run.result.note.find("majority"), std::string::npos) << run.result.note;
}

// ---------------------------------------------------------------------------
// Remote: the same kill-resume determinism over the wire

net::RemoteSulOptions remote_options(std::uint16_t port, int batch_words) {
  net::RemoteSulOptions o;
  o.port = port;
  o.max_batch_words = batch_words;
  o.call_deadline_seconds = 2.0;
  o.connect_timeout_seconds = 0.25;
  o.backoff_base_seconds = 0.002;
  o.backoff_max_seconds = 0.02;
  return o;
}

void run_remote_sweep(const char* tag, int batch_words,
                      const net::ProxyFaultProfile* faults) {
  net::SulServerOptions sopts;
  sopts.max_sessions = 8;
  net::SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());
  std::uint16_t port = server.port();
  std::unique_ptr<net::ChaosProxy> proxy;
  if (faults != nullptr) {
    net::ChaosProxyOptions popts;
    popts.upstream_port = server.port();
    popts.faults = *faults;
    popts.seed = 0xC4A05;
    popts.max_delay_ms = 5;
    proxy = std::make_unique<net::ChaosProxy>(popts);
    ASSERT_TRUE(proxy->start());
    port = proxy->port();
  }

  // Remote reference: a clean journaled supervised run over this transport.
  const std::string ref_path = temp_path(std::string("learn_remote_ref_") + tag + ".journal");
  remove_journal(ref_path);
  std::string journal_bytes;
  {
    LearnSupervisorOptions o;
    o.learn = tiny_options();
    o.journal_path = ref_path;
    o.run_tag = "cls";
    net::RemoteUeSul sul(remote_options(port, batch_words));
    const SupervisedLearn run = learn_supervised(sul, o);
    expect_matches_reference(run, "remote reference");  // also == in-process machine
    journal_bytes = slurp(ref_path);
  }
  if (::testing::Test::HasFatalFailure()) return;

  // Sampled truncation offsets (the remote round trips make every-byte far
  // too slow for the PR gate; the in-process sweep owns full coverage).
  const std::size_t kSamples = 8;
  const std::string path = temp_path(std::string("learn_remote_sweep_") + tag + ".journal");
  for (std::size_t s = 0; s <= kSamples; ++s) {
    const std::size_t offset = journal_bytes.size() * s / kSamples;
    remove_journal(path);
    spill(path, journal_bytes.substr(0, offset));
    LearnSupervisorOptions o;
    o.learn = tiny_options();
    o.journal_path = path;
    o.resume = true;
    o.run_tag = "cls";
    o.retries = 2;  // transient transport hiccups may burn an attempt
    o.backoff_seconds = 0.005;
    net::RemoteUeSul sul(remote_options(port, batch_words));
    const SupervisedLearn run = learn_supervised(sul, o);
    expect_matches_reference(run, ("remote offset " + std::to_string(offset)).c_str());
    if (::testing::Test::HasFatalFailure()) break;
  }
  if (proxy) proxy->stop();
  server.stop();
  EXPECT_EQ(server.stats().session_errors, 0);
}

TEST(LearnSupervisorRemote, KillResumeByteIdenticalBatched) {
  run_remote_sweep("batched", net::kDefaultBatchWords, nullptr);
}

TEST(LearnSupervisorRemote, KillResumeByteIdenticalOneWordPerFrame) {
  // Every membership query rides in a kQueryBatch frame of its own.
  run_remote_sweep("one_word", 1, nullptr);
}

TEST(LearnSupervisorRemote, KillResumeUnderLosslessChaos) {
  // The lossless regime mix from net_test: latency, fragmentation and
  // reordering mangle the transport but lose nothing — resume must stay
  // byte-identical through it.
  net::ProxyFaultProfile faults;
  faults.delay = 0.2;
  faults.fragment = 0.15;
  faults.reorder = 0.1;
  run_remote_sweep("chaos", net::kDefaultBatchWords, &faults);
}

// One client, many learns: the transport keeps no answer state between
// queries, so a long-lived RemoteUeSul serves run after run on one session
// and every run still equals its seed's in-process learn.
TEST(LearnSupervisorRemote, OneClientServesConsecutiveLearns) {
  net::SulServer server(ue::StackProfile::cls());
  ASSERT_TRUE(server.start());
  net::RemoteUeSul sul(remote_options(server.port(), net::kDefaultBatchWords));
  for (const std::uint64_t seed : {0xBEEFULL, 0x5EEDULL, 0xC0FFEEULL}) {
    LearnOptions learn = tiny_options();
    learn.seed = seed;
    UeSul local(ue::StackProfile::cls());
    const LearnResult expected = learn_mealy(local, learn);
    LearnSupervisorOptions o;
    o.learn = learn;
    const SupervisedLearn run = learn_supervised(sul, o);
    EXPECT_EQ(run.failure, LearnFailure::kNone) << "seed " << seed << ": " << run.diagnostics;
    ASSERT_TRUE(run.result.converged) << "seed " << seed << ": " << run.result.note;
    EXPECT_EQ(fsm_text(run.result), fsm_text(expected)) << "seed " << seed;
    EXPECT_EQ(run.result.membership_queries, expected.membership_queries) << "seed " << seed;
  }
  EXPECT_EQ(sul.stats().connects, 1) << "one session served all three learns";
  server.stop();
  EXPECT_EQ(server.stats().sessions_admitted, 1);
  EXPECT_EQ(server.stats().session_errors, 0);
}

}  // namespace
}  // namespace procheck::learner
