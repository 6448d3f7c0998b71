#include "learner/learn_supervisor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <utility>

#include "common/bytes.h"
#include "common/journal.h"
#include "common/rng.h"
#include "learner/output_trie.h"

namespace procheck::learner {

namespace {

using Word = std::vector<std::string>;
using Clock = std::chrono::steady_clock;

// Words the learner can produce are short (prefix + suffix, both bounded by
// the round count and eq_test_max_length); anything near this cap in a
// journal is damage, not data.
constexpr std::size_t kMaxObservationLength = 1024;

// Committed-edge overrides per run before a contradiction is declared
// contested: each override restarts the learn, so this bounds the restarts.
constexpr int kMaxOverrides = 8;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string fmt_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", s);
  return buf;
}

/// Strict single-space tokenizer: empty tokens (leading/trailing/double
/// separators) reject the whole payload — a journal line is either exactly
/// well-formed or not adopted.
std::vector<std::string> split_tokens(std::string_view payload) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos <= payload.size()) {
    std::size_t sp = payload.find(' ', pos);
    if (sp == std::string_view::npos) sp = payload.size();
    if (sp == pos) return {};
    tokens.emplace_back(payload.substr(pos, sp - pos));
    pos = sp + 1;
  }
  return tokens;
}

bool is_alphabet_symbol(const std::string& s) {
  const std::vector<std::string>& a = input_alphabet();
  return std::find(a.begin(), a.end(), s) != a.end();
}

Word unavailable_word(std::size_t n) { return Word(n, kSulUnavailable); }

std::string word_text(const Word& w) {
  std::string out;
  for (std::size_t i = 0; i < w.size(); ++i) {
    if (i != 0) out += '.';
    out += w[i];
  }
  return out;
}

/// The crash-safety decorator learn_mealy actually talks to. Every answered
/// membership query flows through exactly one of two paths:
///   replay — every edge of the word is in the adopted/committed trie, so it
///   is served without SUL contact but *counted* as if run (one reset +
///   |word| steps), keeping the learner's cost metrics byte-identical to an
///   uninterrupted run;
///   fresh — the word goes to the inner SUL, is validated, arbitrated
///   against the committed trie on conflict, and journaled.
/// Poisoning is cooperative: the internal CancelToken is cancelled and every
/// later query answers kSulUnavailable instantly, so the learner unwinds to
/// a structured inconclusive without further SUL contact.
class JournaledSul final : public Sul {
 public:
  /// `adopted` are the journal records resume kept, and `trie` holds
  /// exactly their edges.
  JournaledSul(Sul& inner, const LearnSupervisorOptions& options, RunJournal& journal,
               std::vector<LearnObservation> adopted, OutputTrie trie)
      : inner_(inner),
        options_(options),
        journal_(journal),
        records_(std::move(adopted)),
        trie_(std::move(trie)) {}

  // --- supervisor-facing --------------------------------------------------
  const CancelToken* token() const { return &token_; }

  void begin_attempt() {
    resets_ = 0;
    steps_ = 0;
    poisoned_ = false;
    restart_ = false;
    failure_ = LearnFailure::kNone;
    diag_.clear();
    pending_.clear();
    token_.reset();
    attempt_start_ = Clock::now();
  }

  bool restart_requested() const { return restart_; }
  LearnFailure failure() const { return failure_; }
  const std::string& diagnostics() const { return diag_; }
  long arbitrations() const { return arbitrations_; }
  long arbitration_requeries() const { return arbitration_requeries_; }
  long arbitration_overrides() const { return arbitration_overrides_; }
  const std::vector<std::string>& quarantined() const { return quarantined_; }
  std::size_t replayed_total() const { return replayed_total_; }

  // --- Sul ----------------------------------------------------------------
  void reset() override { pending_.clear(); }

  std::string step(const std::string& input) override {
    pending_.push_back(input);
    const Word outs = query_word(pending_);
    return outs.empty() ? std::string(kSulUnavailable) : outs.back();
  }

  long resets() const override { return resets_; }
  long steps() const override { return steps_; }

  std::string unavailable_reason() const override {
    if (!diag_.empty()) return diag_;
    return inner_.unavailable_reason();
  }

  Word query_word(const Word& word) override { return query_batch({word}).front(); }

  std::vector<Word> query_batch(const std::vector<Word>& words) override {
    std::vector<Word> answers(words.size());
    std::vector<std::size_t> fresh_idx;
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (poisoned_) {
        answers[i] = unavailable_word(words[i].size());
      } else if (std::optional<Word> hit = trie_.lookup(words[i])) {
        count_served(words[i]);
        ++replayed_total_;
        answers[i] = *std::move(hit);
      } else {
        fresh_idx.push_back(i);
      }
    }
    if (fresh_idx.empty()) return answers;
    if (!admit_fresh()) {
      for (std::size_t i : fresh_idx) answers[i] = unavailable_word(words[i].size());
      return answers;
    }
    std::vector<Word> fresh_words;
    fresh_words.reserve(fresh_idx.size());
    for (std::size_t i : fresh_idx) fresh_words.push_back(words[i]);
    fire_hook();
    const std::vector<Word> fresh_answers = inner_.query_batch(fresh_words);
    fire_hook();
    // A poison arising here (unavailable answer, contested arbitration,
    // override restart) halts the commits of the rest of the batch.
    for (std::size_t j = 0; j < fresh_idx.size(); ++j) {
      const std::size_t i = fresh_idx[j];
      const Word& word = words[i];
      if (poisoned_) {
        answers[i] = unavailable_word(word.size());
        continue;
      }
      count_served(word);
      if (j >= fresh_answers.size() || !answer_ok(fresh_answers[j], word.size())) {
        poison(LearnFailure::kUnavailable, unavailable_diag(word));
        answers[i] = unavailable_word(word.size());
        continue;
      }
      answers[i] = commit(word, fresh_answers[j]);
    }
    return answers;
  }

 private:
  void count_served(const Word& word) {
    ++resets_;
    steps_ += static_cast<long>(word.size());
  }

  static bool answer_ok(const Word& outs, std::size_t expected) {
    if (outs.size() != expected) return false;
    for (const std::string& o : outs) {
      if (o == kSulUnavailable) return false;
    }
    return true;
  }

  std::string unavailable_diag(const Word& word) {
    std::string diag = "sul unavailable at word " + word_text(word);
    const std::string why = inner_.unavailable_reason();
    if (!why.empty()) diag += " (" + why + ")";
    return diag;
  }

  void fire_hook() {
    if (options_.fault_hook) options_.fault_hook(probe_counter_++);
  }

  void poison(LearnFailure f, std::string diag) {
    if (poisoned_) return;
    poisoned_ = true;
    failure_ = f;
    diag_ = std::move(diag);
    token_.cancel();
  }

  /// The watchdog: false, with the SUL poisoned, once the attempt's
  /// deadline has passed. Only *fresh* SUL contact is gated, so a resumed
  /// attempt always replays its journal for free and makes incremental
  /// progress.
  bool admit_fresh() {
    if (options_.deadline_seconds > 0 &&
        seconds_since(attempt_start_) > options_.deadline_seconds) {
      poison(LearnFailure::kDeadline,
             "attempt deadline (" + fmt_seconds(options_.deadline_seconds) +
                 "s) exceeded");
      return false;
    }
    return true;
  }

  /// Validates a fresh answer against the committed trie and journals it.
  /// Returns the canonical (committed) outputs the learner should see —
  /// identical to `outs` except when arbitration resolved a conflict.
  Word commit(const Word& word, const Word& outs) {
    const std::size_t known = trie_.known_prefix_length(word);
    Word committed_prefix;
    bool conflict = false;
    if (known > 0) {
      committed_prefix = *trie_.lookup(Word(word.begin(), word.begin() + static_cast<std::ptrdiff_t>(known)));
      for (std::size_t i = 0; i < known; ++i) {
        if (outs[i] != committed_prefix[i]) {
          conflict = true;
          break;
        }
      }
    }
    if (!conflict) {
      commit_record(word, outs);
      return outs;
    }
    if (options_.arbitration_n <= 0) {
      // Arbitration disabled: first observation wins (the pre-supervisor
      // trie policy), but the *journal* stays internally consistent — the
      // fresh answer is coerced onto the committed edges before recording.
      Word canonical = outs;
      for (std::size_t i = 0; i < known; ++i) canonical[i] = committed_prefix[i];
      commit_record(word, canonical);
      return canonical;
    }
    return arbitrate(word, committed_prefix, known);
  }

  /// k-of-n arbitration of a contradicted word. All n samples are fresh
  /// executions through Sul::query_word_fresh — never answered from the
  /// trie, which would echo one answer n times and rig the vote. Outcomes:
  ///   majority agrees with the committed edges — the fresh answer was the
  ///   outlier; commit the majority word and continue;
  ///   majority overturns a committed edge — rewrite every committed record
  ///   crossing that edge, rebuild cache + journal, and request a restart
  ///   (the learner's table was built on the losing answer);
  ///   no position reaches k votes — quarantine the cell and poison the run
  ///   as contested: a structured inconclusive, never a wrong machine.
  Word arbitrate(const Word& word, const Word& committed_prefix, std::size_t known) {
    ++arbitrations_;
    const int n = options_.arbitration_n;
    const int k = options_.arbitration_k;
    std::vector<Word> samples;
    samples.reserve(static_cast<std::size_t>(n));
    for (int s = 0; s < n; ++s) {
      if (!admit_fresh()) return unavailable_word(word.size());
      fire_hook();
      Word sample = inner_.query_word_fresh(word);
      fire_hook();
      count_served(word);
      ++arbitration_requeries_;
      if (!answer_ok(sample, word.size())) {
        poison(LearnFailure::kUnavailable,
               "sul unavailable while arbitrating " + word_text(word));
        return unavailable_word(word.size());
      }
      samples.push_back(std::move(sample));
    }
    Word majority(word.size());
    for (std::size_t pos = 0; pos < word.size(); ++pos) {
      std::map<std::string, int> votes;  // lexicographic order: ties break smallest
      for (const Word& s : samples) ++votes[s[pos]];
      std::string winner;
      int best = 0;
      for (const auto& [sym, cnt] : votes) {
        if (cnt > best) {
          winner = sym;
          best = cnt;
        }
      }
      if (best < k) {
        std::string detail = "no " + std::to_string(k) + "-of-" + std::to_string(n) +
                             " majority for word " + word_text(word) + " at position " +
                             std::to_string(pos) + " (votes:";
        for (const auto& [sym, cnt] : votes) {
          detail += " " + sym + "=" + std::to_string(cnt);
        }
        detail += ")";
        quarantined_.push_back(detail);
        poison(LearnFailure::kContested, detail);
        return unavailable_word(word.size());
      }
      majority[pos] = winner;
    }
    std::vector<std::size_t> overturned;
    for (std::size_t i = 0; i < known; ++i) {
      if (majority[i] != committed_prefix[i]) overturned.push_back(i);
    }
    if (overturned.empty()) {
      commit_record(word, majority);
      return majority;
    }
    ++overrides_total_;
    if (overrides_total_ > kMaxOverrides) {
      std::string detail = "arbitration override bound (" + std::to_string(kMaxOverrides) +
                           ") exceeded at word " + word_text(word) +
                           "; the SUL is too nondeterministic to learn";
      quarantined_.push_back(detail);
      poison(LearnFailure::kContested, detail);
      return unavailable_word(word.size());
    }
    arbitration_overrides_ += static_cast<long>(overturned.size());
    // Rewrite history: every committed record whose word crosses an
    // overturned edge (shares the word's path up to and including that
    // position) takes the majority output there. Records stay mutually
    // consistent — they all receive the same correction.
    for (std::size_t pos : overturned) {
      for (LearnObservation& r : records_) {
        if (r.word.size() > pos &&
            std::equal(word.begin(), word.begin() + static_cast<std::ptrdiff_t>(pos) + 1,
                       r.word.begin())) {
          r.outputs[pos] = majority[pos];
        }
      }
    }
    records_.push_back({word, majority});
    rebuild_cache();
    // Already-durable lines changed: replace the journal atomically with the
    // header plus the corrected record set.
    std::vector<std::string> lines;
    for (const LearnObservation& r : records_) {
      lines.push_back(encode_observation(r.word, r.outputs));
    }
    journal_.start(lines);
    // The running attempt's observation table was built on the losing edge:
    // discard it and re-learn from the corrected journal. This is progress,
    // not failure — the supervisor restarts without consuming an attempt.
    restart_ = true;
    poisoned_ = true;
    diag_ = "restarting from corrected journal after arbitration override";
    token_.cancel();
    return majority;
  }

  void commit_record(const Word& word, const Word& outs) {
    trie_.insert(word, outs);
    records_.push_back({word, outs});
    if (journal_.enabled()) journal_.append(encode_observation(word, outs));
  }

  void rebuild_cache() {
    trie_ = OutputTrie();
    for (const LearnObservation& r : records_) trie_.insert(r.word, r.outputs);
  }

  Sul& inner_;
  const LearnSupervisorOptions& options_;
  RunJournal& journal_;

  std::vector<LearnObservation> records_;  // journal order
  OutputTrie trie_;                        // committed edges: replay + conflict oracle

  CancelToken token_;
  Word pending_;  // reset()/step() compatibility path
  Clock::time_point attempt_start_{};

  long resets_ = 0;  // logical: replayed words count as if run
  long steps_ = 0;
  std::size_t replayed_total_ = 0;
  long probe_counter_ = 0;

  long arbitrations_ = 0;
  long arbitration_requeries_ = 0;
  long arbitration_overrides_ = 0;
  int overrides_total_ = 0;
  std::vector<std::string> quarantined_;

  bool poisoned_ = false;
  bool restart_ = false;
  LearnFailure failure_ = LearnFailure::kNone;
  std::string diag_;
};

}  // namespace

std::string learn_options_hash(const LearnOptions& learn, int arbitration_k,
                               int arbitration_n) {
  std::string canon = "alphabet=";
  const std::vector<std::string>& alphabet = input_alphabet();
  for (std::size_t i = 0; i < alphabet.size(); ++i) {
    if (i != 0) canon += ',';
    canon += alphabet[i];
  }
  canon += ";eq_words=" + std::to_string(learn.eq_test_words);
  canon += ";eq_len=" + std::to_string(learn.eq_test_max_length);
  canon += ";seed=" + std::to_string(learn.seed);
  // A constant, but it stays in the text: dropping it would change the
  // fingerprint of every learn journal already written.
  canon += ";rounds=" + std::to_string(kMaxRounds);
  canon += ";arbitrate=" + std::to_string(arbitration_k) + "/" +
           std::to_string(arbitration_n) + ";";
  return hex64(prf64(0x13AD0CA7, Bytes(canon.begin(), canon.end())));
}

std::string encode_observation(const std::vector<std::string>& word,
                               const std::vector<std::string>& outputs) {
  std::string line = "obs " + std::to_string(word.size());
  for (const std::string& s : word) {
    line += ' ';
    line += s;
  }
  for (const std::string& s : outputs) {
    line += ' ';
    line += s;
  }
  return line;
}

std::optional<LearnObservation> decode_observation(std::string_view payload) {
  const std::vector<std::string> t = split_tokens(payload);
  if (t.size() < 2 || t[0] != "obs") return std::nullopt;
  std::size_t len = 0;
  if (t[1].empty()) return std::nullopt;
  for (char c : t[1]) {
    if (c < '0' || c > '9') return std::nullopt;
    len = len * 10 + static_cast<std::size_t>(c - '0');
    if (len > kMaxObservationLength) return std::nullopt;
  }
  if (len == 0 || t.size() != 2 + 2 * len) return std::nullopt;
  LearnObservation obs;
  obs.word.reserve(len);
  obs.outputs.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    const std::string& in = t[2 + i];
    if (!is_alphabet_symbol(in)) return std::nullopt;
    obs.word.push_back(in);
  }
  for (std::size_t i = 0; i < len; ++i) {
    const std::string& out = t[2 + len + i];
    if (out == kSulUnavailable) return std::nullopt;
    obs.outputs.push_back(out);
  }
  return obs;
}

SupervisedLearn learn_supervised(Sul& sul, const LearnSupervisorOptions& options) {
  SupervisedLearn run;
  const int k = options.arbitration_k;
  const int n = options.arbitration_n;
  if (n < 0 || (n > 0 && (k <= n / 2 || k > n))) {
    run.aborted = true;
    run.abort_reason = "invalid arbitration threshold " + std::to_string(k) +
                       "-of-" + std::to_string(n) + " (need n/2 < k <= n)";
    run.result.inconclusive = true;
    run.result.note = run.abort_reason;
    return run;
  }
  const std::string tag = options.run_tag.empty() ? "learn" : options.run_tag;
  RunJournal journal(options.journal_path, options.resume,
                     {"learn", tag, learn_options_hash(options.learn, k, n)});
  if (!journal.refusal().empty()) {
    run.aborted = true;
    run.abort_reason = journal.refusal();
    run.result.inconclusive = true;
    run.result.note = run.abort_reason;
    return run;
  }
  run.journal_note = journal.note();

  // Adopt records through a validation trie: a malformed record or one
  // contradicting an earlier record ends adoption at the valid prefix —
  // resume never guesses at damage. The journal is then rewritten from
  // exactly what was adopted, and the trie becomes the wrapper's replay
  // cache, so the two agree on the durable state.
  const std::vector<std::string>& records = journal.records();
  std::vector<LearnObservation> adopted;
  OutputTrie vtrie;
  for (const std::string& payload : records) {
    const std::optional<LearnObservation> obs = decode_observation(payload);
    bool ok = obs.has_value();
    if (ok) {
      const std::size_t known = vtrie.known_prefix_length(obs->word);
      if (known > 0) {
        const Word prefix(obs->word.begin(),
                          obs->word.begin() + static_cast<std::ptrdiff_t>(known));
        const Word committed = *vtrie.lookup(prefix);
        ok = std::equal(committed.begin(), committed.end(), obs->outputs.begin());
      }
    }
    if (!ok) {
      run.journal_note = "journal record " + std::to_string(adopted.size() + 1) +
                         (obs ? " contradicts an earlier record" : " is malformed") +
                         "; adopted the valid prefix (" + std::to_string(adopted.size()) +
                         " observations)";
      break;
    }
    vtrie.insert(obs->word, obs->outputs);
    adopted.push_back(*obs);
  }
  journal.start({records.begin(), records.begin() + static_cast<std::ptrdiff_t>(adopted.size())});
  run.adopted = adopted.size();

  JournaledSul wrapper(sul, options, journal, std::move(adopted), std::move(vtrie));
  LearnOptions eff = options.learn;
  eff.cancel = wrapper.token();

  // Every attempt runs the configured oracle. The wrapper's trie outlives
  // the attempts, so a retry replays what earlier ones committed for free.
  LearnResult result;
  const supervise::Outcome ladder = supervise::run_attempts(
      {options.retries, options.backoff_seconds}, [&](int) -> supervise::Attempt {
        do {
          wrapper.begin_attempt();
          result = learn_mealy(wrapper, eff);
          journal.commit();
          // An arbitration override is progress, not failure: re-learn from
          // the corrected journal without consuming an attempt.
        } while (wrapper.restart_requested());
        if (result.converged) return {};
        if (wrapper.failure() != LearnFailure::kNone) {
          return {wrapper.failure(), wrapper.diagnostics()};
        }
        if (result.inconclusive) return {LearnFailure::kUnavailable, result.note};
        return {};  // max_rounds exhausted: honest non-convergence
      });
  journal.commit();  // a throwing last attempt left records queued
  std::string diag = ladder.diagnostics;
  if (ladder.failure == LearnFailure::kException) {
    diag = "worker exception: " + diag;
    result = LearnResult();
    result.note = diag;
  }
  if (ladder.failure != LearnFailure::kNone) {
    result.inconclusive = true;
    result.converged = false;
  }
  if (ladder.failure == LearnFailure::kContested && !diag.empty()) result.note = diag;
  result.note += ladder.exhausted_note;
  result.arbitrations = wrapper.arbitrations();
  result.arbitration_requeries = wrapper.arbitration_requeries();
  result.arbitration_overrides = wrapper.arbitration_overrides();
  result.quarantined = wrapper.quarantined();
  run.result = std::move(result);
  run.attempts = ladder.attempts;
  run.failure = ladder.failure;
  run.diagnostics = diag;
  run.replayed = wrapper.replayed_total();
  run.journal_records = journal.committed();
  run.journal_error = journal.error();
  return run;
}

}  // namespace procheck::learner
