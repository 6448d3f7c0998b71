#include "learner/lstar.h"

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "learner/output_trie.h"

namespace procheck::learner {

namespace {

using Word = std::vector<std::string>;

Word concat(const Word& a, const Word& b) {
  Word out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// Observation table backed by the prefix-closed OutputTrie cache. Instead
/// of querying lazily cell-by-cell, each closure/consistency round first
/// collects every unresolved cell word, dedupes it (exact duplicates *and*
/// words that are proper prefixes of another word in the same batch — the
/// trie answers those for free), and ships the remainder as one
/// Sul::query_batch() call. The answers are deterministic, so the built
/// hypothesis is byte-identical to the old one-query-per-cell path; only
/// the transport cost changes.
class ObservationTable {
 public:
  ObservationTable(Sul& sul, LearnResult& result) : sul_(sul), result_(result) {
    prefixes_.push_back({});  // ε
    for (const std::string& a : input_alphabet()) {
      suffixes_.push_back({a});
    }
  }

  /// Output suffix for prefix·suffix (the last |suffix| outputs).
  Word cell(const Word& prefix, const Word& suffix) {
    Word outputs = query(concat(prefix, suffix));
    return Word(outputs.end() - static_cast<std::ptrdiff_t>(suffix.size()), outputs.end());
  }

  /// Row signature of a prefix over all suffixes.
  std::string row(const Word& prefix) {
    std::string sig;
    for (const Word& e : suffixes_) {
      for (const std::string& o : cell(prefix, e)) {
        sig += o;
        sig += '|';
      }
      sig += ';';
    }
    return sig;
  }

  /// True once any membership query came back unanswerable: the SUL
  /// degraded to kSulUnavailable, so every row signature from here on is
  /// untrustworthy and learning must stop.
  bool unavailable() const { return unavailable_; }

  /// Makes the table closed and consistent; returns the hypothesis.
  MealyMachine close_and_build() {
    for (bool changed = true; changed && !unavailable_;) {
      changed = false;
      // Resolve every cell this round can touch in one deduplicated batch
      // before the row scans below read them back out of the trie.
      prefetch_round();
      if (unavailable_) break;
      // Closedness: every one-step extension's row must match some prefix row.
      std::set<std::string> prefix_rows;
      for (const Word& s : prefixes_) prefix_rows.insert(row(s));
      for (std::size_t i = 0; i < prefixes_.size() && !changed; ++i) {
        for (const std::string& a : input_alphabet()) {
          Word ext = concat(prefixes_[i], {a});
          if (is_prefix(ext)) continue;
          if (prefix_rows.count(row(ext)) == 0) {
            prefixes_.push_back(ext);
            changed = true;
            break;
          }
        }
      }
      if (changed) continue;
      // Consistency: equal rows must have equal successor rows.
      for (std::size_t i = 0; i < prefixes_.size() && !changed; ++i) {
        for (std::size_t j = i + 1; j < prefixes_.size() && !changed; ++j) {
          if (row(prefixes_[i]) != row(prefixes_[j])) continue;
          for (const std::string& a : input_alphabet()) {
            Word ei = concat(prefixes_[i], {a});
            Word ej = concat(prefixes_[j], {a});
            if (row(ei) != row(ej)) {
              // Find the distinguishing suffix and prepend `a`.
              for (const Word& e : std::vector<Word>(suffixes_)) {
                if (cell(ei, e) != cell(ej, e)) {
                  add_suffix(concat({a}, e));
                  changed = true;
                  break;
                }
              }
              break;
            }
          }
        }
      }
    }
    // An unanswerable table cannot support a hypothesis; hand back an empty
    // machine rather than building states out of kSulUnavailable rows.
    return unavailable_ ? MealyMachine() : build();
  }

  /// Counterexample processing: add every suffix of the word to E.
  void process_counterexample(const Word& cex) {
    for (std::size_t i = 0; i < cex.size(); ++i) {
      add_suffix(Word(cex.begin() + static_cast<std::ptrdiff_t>(i), cex.end()));
    }
  }

  Word query(const Word& word) {
    if (auto cached = trie_.lookup(word)) return *cached;
    ++result_.membership_queries;
    Word outputs = sul_.query_word(word);
    if (!record(word, outputs)) unavailable_ = true;
    return outputs;
  }

  const OutputTrie& trie() const { return trie_; }

 private:
  /// Caches a real observation; false when it contained kSulUnavailable
  /// (unanswerable words are never cached — a later retry, e.g. after the
  /// remote circuit closes again, must hit the SUL, not the poison).
  bool record(const Word& word, const Word& outputs) {
    for (const std::string& o : outputs) {
      if (o == kSulUnavailable) return false;
    }
    trie_.insert(word, outputs);
    return true;
  }

  /// Collects every word the current round's row scans will need, drops the
  /// ones the trie already answers, dedupes the rest (exact duplicates and
  /// proper prefixes of a longer batched word — a Mealy prefix is free once
  /// the longer word is cached), and ships them as one batch.
  void prefetch_round() {
    std::set<Word> need;
    auto want = [&](const Word& p) {
      for (const Word& e : suffixes_) {
        Word w = concat(p, e);
        if (!trie_.contains(w)) need.insert(std::move(w));
      }
    };
    for (const Word& s : prefixes_) {
      want(s);
      for (const std::string& a : input_alphabet()) want(concat(s, {a}));
    }
    if (need.empty()) return;

    // std::set iterates in lexicographic order, so a word that is a proper
    // prefix of another lands immediately before its first extension —
    // one adjacency check removes every subsumed word.
    std::vector<Word> batch;
    batch.reserve(need.size());
    for (auto it = need.begin(); it != need.end(); ++it) {
      auto next = std::next(it);
      const bool subsumed = next != need.end() && next->size() > it->size() &&
                            std::equal(it->begin(), it->end(), next->begin());
      if (!subsumed) batch.push_back(*it);
    }

    ++result_.batch_queries;
    result_.batched_words += static_cast<long>(batch.size());
    result_.membership_queries += static_cast<long>(batch.size());
    std::vector<Word> answers = sul_.query_batch(batch);
    for (std::size_t i = 0; i < batch.size() && i < answers.size(); ++i) {
      if (!record(batch[i], answers[i])) unavailable_ = true;
    }
  }
  bool is_prefix(const Word& w) const {
    return std::find(prefixes_.begin(), prefixes_.end(), w) != prefixes_.end();
  }

  void add_suffix(const Word& e) {
    if (std::find(suffixes_.begin(), suffixes_.end(), e) == suffixes_.end()) {
      suffixes_.push_back(e);
    }
  }

  MealyMachine build() {
    MealyMachine m;
    std::map<std::string, int> state_of_row;
    std::vector<Word> representative;
    for (const Word& s : prefixes_) {
      std::string r = row(s);
      if (state_of_row.emplace(r, static_cast<int>(representative.size())).second) {
        representative.push_back(s);
      }
    }
    m.state_count = static_cast<int>(representative.size());
    m.initial = state_of_row.at(row({}));
    for (std::size_t q = 0; q < representative.size(); ++q) {
      for (const std::string& a : input_alphabet()) {
        Word ext = concat(representative[q], {a});
        const Word out = cell(representative[q], {a});
        m.delta[{static_cast<int>(q), a}] = {state_of_row.at(row(ext)), out.front()};
      }
    }
    return m;
  }

  Sul& sul_;
  LearnResult& result_;
  bool unavailable_ = false;
  std::vector<Word> prefixes_;   // S
  std::vector<Word> suffixes_;   // E
  OutputTrie trie_;  // prefix-closed T: answers every cached word *and* its prefixes
};

}  // namespace

std::vector<std::string> MealyMachine::run(const std::vector<std::string>& word) const {
  std::vector<std::string> outputs;
  int state = initial;
  for (const std::string& a : word) {
    auto it = delta.find({state, a});
    if (it == delta.end()) {
      outputs.push_back("null");
      continue;
    }
    state = it->second.first;
    outputs.push_back(it->second.second);
  }
  return outputs;
}

fsm::Fsm MealyMachine::to_fsm() const {
  fsm::Fsm m;
  m.set_initial("q" + std::to_string(initial));
  for (const auto& [key, value] : delta) {
    fsm::Transition t;
    t.from = "q" + std::to_string(key.first);
    t.to = "q" + std::to_string(value.first);
    t.conditions = {key.second};
    t.actions = {value.second == "null" ? fsm::kNullAction : value.second};
    m.add_transition(std::move(t));
  }
  return m;
}

LearnResult learn_mealy(Sul& sul, const LearnOptions& options) {
  LearnResult result;
  ObservationTable table(sul, result);
  Rng rng(options.seed);

  for (int round = 0; round < kMaxRounds; ++round) {
    result.machine = table.close_and_build();
    if (table.unavailable()) break;
    ++result.equivalence_queries;

    // Random-testing equivalence oracle.
    bool found_cex = false;
    for (int t = 0; t < options.eq_test_words && !found_cex; ++t) {
      std::size_t len = 1 + rng.next_below(static_cast<std::uint64_t>(options.eq_test_max_length));
      std::vector<std::string> word;
      for (std::size_t i = 0; i < len; ++i) {
        word.push_back(input_alphabet()[rng.next_below(input_alphabet().size())]);
      }
      if (table.query(word) != result.machine.run(word)) {
        if (table.unavailable()) break;
        ++result.counterexamples;
        table.process_counterexample(word);
        found_cex = true;
      }
    }
    if (table.unavailable()) break;
    if (!found_cex) {
      result.converged = true;
      break;
    }
  }
  if (table.unavailable()) {
    result.inconclusive = true;
    result.note = "sul_unavailable during membership query; learning aborted";
    const std::string why = sul.unavailable_reason();
    if (!why.empty()) result.note += " (" + why + ")";
  }
  result.sul_resets = sul.resets();
  result.sul_steps = sul.steps();
  const OutputTrie::Stats& cache = table.trie().stats();
  result.cache_hits = cache.hits;
  result.cache_prefix_hits = cache.prefix_hits;
  result.cache_misses = cache.misses;
  return result;
}

}  // namespace procheck::learner
