// Black-box L* learner tests: the SUL harness determinism, the learned
// Mealy machine's behavior, the prefix-tree query cache and batched
// observation-table rounds (DESIGN.md §14), and the paper's §VIII comparison
// claims (high query cost; no state names; no predicate conditions).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "learner/lstar.h"
#include "learner/output_trie.h"
#include "learner/sul.h"

namespace procheck::learner {
namespace {

TEST(Sul, ResetRestoresInitialBehavior) {
  UeSul sul(ue::StackProfile::cls());
  auto first = sul.run({"power_on", "authentication_request"});
  auto second = sul.run({"power_on", "authentication_request"});
  EXPECT_EQ(first, second);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0], "attach_request");
  EXPECT_EQ(first[1], "authentication_response");
}

TEST(Sul, FullHandshakeObservable) {
  UeSul sul(ue::StackProfile::cls());
  auto outputs = sul.run({"power_on", "authentication_request", "security_mode_command",
                          "attach_accept"});
  EXPECT_EQ(outputs,
            (std::vector<std::string>{"attach_request", "authentication_response",
                                      "security_mode_complete", "attach_complete"}));
}

TEST(Sul, InputsOutOfOrderYieldNullOrRejects) {
  UeSul sul(ue::StackProfile::cls());
  auto outputs = sul.run({"attach_accept", "security_mode_command"});
  EXPECT_EQ(outputs[0], "null");  // plain attach_accept pre-attach: discarded
  EXPECT_EQ(outputs[1], "security_mode_reject");  // unverifiable SMC
}

TEST(Sul, CountsResetsAndSteps) {
  UeSul sul(ue::StackProfile::cls());
  long r0 = sul.resets();
  long s0 = sul.steps();
  sul.run({"power_on", "paging"});
  EXPECT_EQ(sul.resets(), r0 + 1);
  EXPECT_EQ(sul.steps(), s0 + 2);
}

TEST(Sul, IdentityRequestAnsweredPreAuth) {
  UeSul sul(ue::StackProfile::cls());
  auto outputs = sul.run({"power_on", "identity_request"});
  EXPECT_EQ(outputs[1], "identity_response");
}

TEST(MealyMachineTest, RunAndFsmExport) {
  MealyMachine m;
  m.state_count = 2;
  m.initial = 0;
  m.delta[{0, "a"}] = {1, "x"};
  m.delta[{1, "a"}] = {0, "null"};
  EXPECT_EQ(m.run({"a", "a", "a"}), (std::vector<std::string>{"x", "null", "x"}));
  fsm::Fsm f = m.to_fsm();
  EXPECT_EQ(f.initial(), "q0");
  EXPECT_EQ(f.states(), (std::set<std::string>{"q0", "q1"}));
  EXPECT_TRUE(f.actions().count("x"));
  EXPECT_TRUE(f.actions().count(fsm::kNullAction));
}

// --- Output trie (the prefix-closed membership-query cache) ------------------

TEST(OutputTrie, PrefixesOfInsertedWordsAnswerFree) {
  OutputTrie trie;
  trie.insert({"a", "b", "c"}, {"x", "y", "z"});

  // The inserted word itself: an endpoint hit.
  auto full = trie.lookup({"a", "b", "c"});
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, (std::vector<std::string>{"x", "y", "z"}));
  EXPECT_EQ(trie.stats().hits, 1);

  // A proper prefix was never inserted, yet its edges are all known.
  auto prefix = trie.lookup({"a", "b"});
  ASSERT_TRUE(prefix.has_value());
  EXPECT_EQ(*prefix, (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(trie.stats().prefix_hits, 1);

  // Any unknown edge is a miss — sideways or past the end.
  EXPECT_FALSE(trie.lookup({"a", "d"}).has_value());
  EXPECT_FALSE(trie.lookup({"a", "b", "c", "d"}).has_value());
  EXPECT_EQ(trie.stats().misses, 2);

  // contains() and known_prefix_length() are planning reads: no stat churn.
  const long hits_before = trie.stats().hits;
  EXPECT_TRUE(trie.contains({"a", "b"}));
  EXPECT_EQ(trie.known_prefix_length({"a", "b", "q"}), 2u);
  EXPECT_EQ(trie.known_prefix_length({"q"}), 0u);
  EXPECT_EQ(trie.stats().hits, hits_before);
}

TEST(OutputTrie, FirstObservationWinsOnDisagreement) {
  OutputTrie trie;
  trie.insert({"a"}, {"x"});
  // A later word disagreeing on the shared edge: never applied.
  trie.insert({"a", "b"}, {"y", "z"});
  auto got = trie.lookup({"a", "b"});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (std::vector<std::string>{"x", "z"}))
      << "the first-observed edge output must stay stable";

  // A consistent re-insert adds no node.
  const std::size_t nodes = trie.node_count();
  trie.insert({"a", "b"}, {"x", "z"});
  EXPECT_EQ(trie.node_count(), nodes);
}

TEST(OutputTrie, MismatchedSizesAreIgnored) {
  OutputTrie trie;
  trie.insert({"a", "b"}, {"x"});  // outputs too short: ignored
  EXPECT_FALSE(trie.lookup({"a"}).has_value());
  EXPECT_EQ(trie.node_count(), 1u);  // still just the root
}

// --- Batched observation-table rounds ----------------------------------------

/// Forwards to an in-process UeSul while recording every batch the learner
/// ships, so tests can pin the batching contract (dedupe, prefix subsumption,
/// byte-identical results).
class BatchRecordingSul final : public Sul {
 public:
  explicit BatchRecordingSul(ue::StackProfile profile) : inner_(std::move(profile)) {}

  void reset() override { inner_.reset(); }
  std::string step(const std::string& input) override { return inner_.step(input); }
  long resets() const override { return inner_.resets(); }
  long steps() const override { return inner_.steps(); }

  std::vector<std::vector<std::string>> query_batch(
      const std::vector<std::vector<std::string>>& words) override {
    batches.push_back(words);
    return Sul::query_batch(words);
  }

  std::vector<std::vector<std::vector<std::string>>> batches;

 private:
  UeSul inner_;
};

TEST(LStar, BatchedRoundsAreByteIdenticalToSequentialLearning) {
  UeSul plain(ue::StackProfile::cls());
  LearnResult sequential = learn_mealy(plain);
  ASSERT_TRUE(sequential.converged);

  BatchRecordingSul recording(ue::StackProfile::cls());
  LearnResult batched = learn_mealy(recording);
  ASSERT_TRUE(batched.converged);

  EXPECT_EQ(batched.machine.to_fsm().to_dot("learned"),
            sequential.machine.to_fsm().to_dot("learned"));
  EXPECT_EQ(batched.membership_queries, sequential.membership_queries);
  ASSERT_FALSE(recording.batches.empty());
  EXPECT_EQ(static_cast<long>(recording.batches.size()), batched.batch_queries);

  // Satellite (a): within every batch the words are deduplicated, and no
  // word is a prefix of another (the longer word's answer subsumes it).
  std::set<std::vector<std::string>> ever_sent;
  long words_shipped = 0;
  for (const auto& batch : recording.batches) {
    words_shipped += static_cast<long>(batch.size());
    std::set<std::vector<std::string>> in_batch;
    for (const auto& word : batch) {
      EXPECT_TRUE(in_batch.insert(word).second) << "duplicate word within a batch";
      EXPECT_TRUE(ever_sent.insert(word).second)
          << "word re-queried despite the trie cache";
    }
    for (const auto& shorter : batch) {
      for (const auto& longer : batch) {
        if (shorter.size() < longer.size() &&
            std::equal(shorter.begin(), shorter.end(), longer.begin())) {
          ADD_FAILURE() << "batched word is a prefix of a batch sibling";
        }
      }
    }
  }
  EXPECT_EQ(words_shipped, batched.batched_words);
  // The equivalence oracle's cache misses are queried one word at a time, so
  // the total query count strictly dominates the batched share.
  EXPECT_LE(words_shipped, batched.membership_queries);

  // The cache did real work: prefix hits answered table cells for free.
  EXPECT_GT(batched.cache_prefix_hits, 0);
}

/// Answers its call number `fail_at` (a batch or a single word) with
/// kSulUnavailable and counts every call, so a test sees what the learner
/// asks after an unanswerable query.
class FailingSul final : public Sul {
 public:
  explicit FailingSul(long fail_at) : inner_(ue::StackProfile::cls()), fail_at_(fail_at) {}

  void reset() override { inner_.reset(); }
  std::string step(const std::string& input) override { return inner_.step(input); }
  long resets() const override { return inner_.resets(); }
  long steps() const override { return inner_.steps(); }

  std::vector<std::string> query_word(const std::vector<std::string>& word) override {
    return query_batch({word}).front();
  }
  std::vector<std::vector<std::string>> query_batch(
      const std::vector<std::vector<std::string>>& words) override {
    if (calls++ != fail_at_) return inner_.query_batch(words);
    std::vector<std::vector<std::string>> answers;
    for (const auto& word : words) answers.emplace_back(word.size(), kSulUnavailable);
    return answers;
  }

  long calls = 0;

 private:
  UeSul inner_;
  long fail_at_;
};

TEST(LStar, StopsAtTheFirstUnavailableAnswer) {
  FailingSul clean(-1);
  ASSERT_TRUE(learn_mealy(clean).converged);
  // The first closure batch, a later call, and the learn's last call (an
  // equivalence-oracle word).
  for (const long fail_at : {0L, 2L, clean.calls - 1}) {
    FailingSul sul(fail_at);
    const LearnResult result = learn_mealy(sul);
    EXPECT_EQ(sul.calls, fail_at + 1) << "the learner queried on after call " << fail_at;
    EXPECT_TRUE(result.inconclusive) << fail_at;
    EXPECT_FALSE(result.converged) << fail_at;
    EXPECT_NE(result.note.find("sul_unavailable"), std::string::npos) << result.note;
  }
}

TEST(LStar, LearnsTheUeStateMachine) {
  UeSul sul(ue::StackProfile::cls());
  LearnOptions options;
  options.eq_test_words = 500;  // thorough random oracle for this assertion
  LearnResult result = learn_mealy(sul, options);
  ASSERT_TRUE(result.converged);
  // The learned machine needs several states (deregistered, attach pending,
  // authenticated, secured, registered, ...).
  EXPECT_GE(result.machine.state_count, 4);

  // The hypothesis agrees with the black box on the canonical handshake.
  std::vector<std::string> handshake{"power_on", "authentication_request",
                                     "security_mode_command", "attach_accept"};
  EXPECT_EQ(result.machine.run(handshake), sul.run(handshake));
}

TEST(LStar, HypothesisMatchesSulOnRandomWords) {
  UeSul sul(ue::StackProfile::cls());
  LearnResult result = learn_mealy(sul);
  ASSERT_TRUE(result.converged);
  Rng rng(123);
  for (int t = 0; t < 50; ++t) {
    std::vector<std::string> word;
    std::size_t len = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < len; ++i) {
      word.push_back(input_alphabet()[rng.next_below(input_alphabet().size())]);
    }
    EXPECT_EQ(result.machine.run(word), sul.run(word)) << "word " << t;
  }
}

TEST(LStar, QueryCostIsOrdersAboveWhiteBox) {
  // The paper's §VIII claim: active learning needs a significantly high
  // number of queries, while ProChecker needs one instrumented conformance
  // run. Each membership query is a full UE reset + word execution.
  UeSul sul(ue::StackProfile::cls());
  LearnResult result = learn_mealy(sul);
  EXPECT_GT(result.membership_queries, 200);
  EXPECT_GT(result.sul_resets, 200);
  EXPECT_GT(result.sul_steps, 1000);
}

TEST(LStar, LearnedFsmLacksSemanticRichness) {
  // "the extracted FSM does not have a proper indication of states and...
  // the white-box setup has a lot more information" — the learned machine
  // has synthetic q-states and message-only conditions (no predicates).
  UeSul sul(ue::StackProfile::cls());
  LearnResult result = learn_mealy(sul);
  fsm::Fsm f = result.machine.to_fsm();
  for (const std::string& s : f.states()) {
    EXPECT_EQ(s[0], 'q');  // no 3GPP state names
  }
  for (const fsm::Atom& c : f.conditions()) {
    EXPECT_EQ(c.find('='), std::string::npos);  // no predicate conditions
  }
}

}  // namespace
}  // namespace procheck::learner
