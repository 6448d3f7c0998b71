#include "learner/learn_supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <thread>
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
///   replay — the (exact) word is in the adopted/committed record set, so it
///   is served without SUL contact but *counted* as if run (one reset +
///   |word| steps), keeping the learner's cost metrics byte-identical to an
///   uninterrupted run;
///   fresh — the word goes to the inner SUL, is validated, arbitrated
///   against the committed trie on conflict, and journaled before the
///   per-query watchdog may poison the attempt (journal-first, so a retry
///   resumes *past* the slow query instead of repeating it).
/// Poisoning is cooperative: the internal CancelToken is cancelled and every
/// later query answers kSulUnavailable instantly, so the learner unwinds to
/// a structured inconclusive without further SUL contact.
class JournaledSul final : public Sul {
 public:
  JournaledSul(Sul& inner, const LearnSupervisorOptions& options,
               std::unique_ptr<JournalWriter> writer, std::string header_line,
               std::vector<LearnObservation> adopted)
      : inner_(inner),
        options_(options),
        writer_(std::move(writer)),
        header_line_(std::move(header_line)) {
    for (LearnObservation& obs : adopted) {
      trie_.insert(obs.word, obs.outputs);
      replay_[obs.word] = obs.outputs;
      records_.push_back(std::move(obs));
    }
  }

  // --- supervisor-facing --------------------------------------------------
  const CancelToken* token() const { return &token_; }

  void begin_attempt() {
    resets_ = 0;
    steps_ = 0;
    fresh_queries_ = 0;
    fresh_bytes_ = 0;
    poisoned_ = false;
    restart_ = false;
    failure_ = LearnFailure::kNone;
    diag_.clear();
    pending_.clear();
    token_.reset();
    attempt_start_ = Clock::now();
  }

  void finish_attempt() { flush_journal(); }

  bool restart_requested() const { return restart_; }
  LearnFailure failure() const { return failure_; }
  const std::string& diagnostics() const { return diag_; }
  long arbitrations() const { return arbitrations_; }
  long arbitration_requeries() const { return arbitration_requeries_; }
  long arbitration_overrides() const { return arbitration_overrides_; }
  const std::vector<std::string>& quarantined() const { return quarantined_; }
  std::size_t replayed_total() const { return replayed_total_; }
  const std::string& journal_error() const { return journal_error_; }

  std::size_t journal_records() const {
    if (!writer_) return 0;
    const std::size_t r = writer_->records();
    return r > 0 ? r - 1 : 0;  // exclude the header line
  }

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

  Word query_word(const Word& word) override {
    poll_external_cancel();
    if (poisoned_) return unavailable_word(word.size());
    if (std::optional<Word> hit = replay_answer(word)) {
      count_served(word);
      ++replayed_total_;
      return *std::move(hit);
    }
    if (!admit_fresh(1, static_cast<long>(word.size()))) {
      return unavailable_word(word.size());
    }
    fire_hook();
    const Clock::time_point start = Clock::now();
    Word outs = inner_.query_word(word);
    ++fresh_queries_;
    fresh_bytes_ += static_cast<long>(word.size());
    fire_hook();
    count_served(word);
    if (!answer_ok(outs, word.size())) {
      poison(LearnFailure::kUnavailable, unavailable_diag(word));
      return unavailable_word(word.size());
    }
    Word committed = commit(word, outs);
    check_query_deadline(start, 1);
    return committed;
  }

  std::vector<Word> query_batch(const std::vector<Word>& words) override {
    poll_external_cancel();
    std::vector<Word> answers(words.size());
    std::vector<std::size_t> fresh_idx;
    long fresh_syms = 0;
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (poisoned_) {
        answers[i] = unavailable_word(words[i].size());
      } else if (std::optional<Word> hit = replay_answer(words[i])) {
        count_served(words[i]);
        ++replayed_total_;
        answers[i] = *std::move(hit);
      } else {
        fresh_idx.push_back(i);
        fresh_syms += static_cast<long>(words[i].size());
      }
    }
    if (fresh_idx.empty()) return answers;
    // Budgets admit a *prefix* of the fresh set: a tripped attempt still
    // ships (and journals) every word that fit, so progress per attempt is
    // monotone even when one batch is larger than the whole budget.
    std::size_t admitted = 0;
    long planned_syms = 0;
    while (admitted < fresh_idx.size()) {
      const long len = static_cast<long>(words[fresh_idx[admitted]].size());
      if (!admit_fresh(static_cast<long>(admitted) + 1, planned_syms + len)) break;
      planned_syms += len;
      ++admitted;
    }
    for (std::size_t j = admitted; j < fresh_idx.size(); ++j) {
      answers[fresh_idx[j]] = unavailable_word(words[fresh_idx[j]].size());
    }
    fresh_idx.resize(admitted);
    if (fresh_idx.empty()) return answers;
    fresh_syms = planned_syms;
    std::vector<Word> fresh_words;
    fresh_words.reserve(fresh_idx.size());
    for (std::size_t i : fresh_idx) fresh_words.push_back(words[i]);
    fire_hook();
    const Clock::time_point start = Clock::now();
    const std::vector<Word> fresh_answers = inner_.query_batch(fresh_words);
    fresh_queries_ += static_cast<long>(fresh_idx.size());
    fresh_bytes_ += fresh_syms;
    fire_hook();
    // A budget poison during admission must not discard the answers the
    // batch already paid for — only a poison arising *here* (unavailable
    // answer, contested arbitration, override restart) halts the commits.
    bool halted = false;
    for (std::size_t j = 0; j < fresh_idx.size(); ++j) {
      const std::size_t i = fresh_idx[j];
      const Word& word = words[i];
      if (halted) {
        answers[i] = unavailable_word(word.size());
        continue;
      }
      count_served(word);
      if (j >= fresh_answers.size() || !answer_ok(fresh_answers[j], word.size())) {
        poison(LearnFailure::kUnavailable, unavailable_diag(word));
        halted = true;
        answers[i] = unavailable_word(word.size());
        continue;
      }
      const bool poisoned_before = poisoned_;
      answers[i] = commit(word, fresh_answers[j]);
      if (restart_ || (poisoned_ && !poisoned_before)) halted = true;
    }
    check_query_deadline(start, static_cast<long>(fresh_idx.size()));
    return answers;
  }

 private:
  void count_served(const Word& word) {
    ++resets_;
    steps_ += static_cast<long>(word.size());
  }

  std::optional<Word> replay_answer(const Word& word) {
    const auto it = replay_.find(word);
    if (it != replay_.end()) return it->second;
    // The journal holds exactly the words the learner asked, so the exact
    // map is normally complete; the trie path only fires when an adopted
    // longer word subsumes a shorter one (e.g. a journal from a further
    // progressed run) — the committed edges still answer it consistently.
    if (trie_.contains(word)) return trie_.lookup(word);
    return std::nullopt;
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

  void poll_external_cancel() {
    if (!poisoned_ && options_.cancel != nullptr && options_.cancel->cancelled()) {
      poison(LearnFailure::kCancelled, "learning cancelled by caller");
    }
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

  /// Watchdogs: only *fresh* SUL contact is gated, so a resumed attempt
  /// always replays its journal for free and makes incremental progress.
  bool admit_fresh(long queries, long symbols) {
    if (poisoned_) return false;
    if (options_.deadline_seconds > 0 &&
        seconds_since(attempt_start_) > options_.deadline_seconds) {
      poison(LearnFailure::kDeadline,
             "attempt deadline (" + fmt_seconds(options_.deadline_seconds) +
                 "s) exceeded");
      return false;
    }
    if (options_.query_budget > 0 &&
        fresh_queries_ + queries > options_.query_budget) {
      poison(LearnFailure::kQueryBudget,
             "fresh membership-query budget (" +
                 std::to_string(options_.query_budget) + ") exhausted");
      return false;
    }
    if (options_.byte_budget > 0 && fresh_bytes_ + symbols > options_.byte_budget) {
      poison(LearnFailure::kByteBudget,
             "fresh input-symbol budget (" + std::to_string(options_.byte_budget) +
                 ") exhausted");
      return false;
    }
    return true;
  }

  /// Post-hoc per-query watchdog: the slow answer was already journaled, so
  /// the poisoned attempt's successor resumes past it.
  void check_query_deadline(Clock::time_point start, long queries) {
    if (options_.query_deadline_seconds <= 0 || poisoned_) return;
    const double limit =
        options_.query_deadline_seconds * static_cast<double>(std::max<long>(1, queries));
    const double took = seconds_since(start);
    if (took > limit) {
      poison(LearnFailure::kDeadline,
             "membership query took " + fmt_seconds(took) + "s (deadline " +
                 fmt_seconds(options_.query_deadline_seconds) + "s/query)");
    }
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
      if (!admit_fresh(1, static_cast<long>(word.size()))) {
        return unavailable_word(word.size());
      }
      fire_hook();
      Word sample = inner_.query_word_fresh(word);
      ++fresh_queries_;
      fresh_bytes_ += static_cast<long>(word.size());
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
    if (overrides_total_ > options_.max_overrides) {
      std::string detail = "arbitration override bound (" +
                           std::to_string(options_.max_overrides) +
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
    rewrite_journal();
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
    replay_[word] = outs;
    records_.push_back({word, outs});
    if (!writer_) return;
    writer_->append(encode_observation(word, outs));
    if (++appended_since_flush_ >= std::max(1, options_.journal_commit_every)) {
      flush_journal();
    }
  }

  void flush_journal() {
    if (!writer_ || writer_->pending() == 0) return;
    appended_since_flush_ = 0;
    if (!writer_->commit()) note_journal_error();
  }

  void rebuild_cache() {
    trie_ = OutputTrie();
    replay_.clear();
    for (const LearnObservation& r : records_) {
      trie_.insert(r.word, r.outputs);
      replay_[r.word] = r.outputs;
    }
  }

  /// An override changed already-durable lines, so the journal is rebuilt
  /// from scratch: header + the corrected record set, atomically.
  void rewrite_journal() {
    if (!writer_) return;
    const std::string path = writer_->path();
    writer_.reset();
    std::remove(path.c_str());
    writer_ = std::make_unique<JournalWriter>(path);
    writer_->append(header_line_);
    for (const LearnObservation& r : records_) {
      writer_->append(encode_observation(r.word, r.outputs));
    }
    appended_since_flush_ = 0;
    if (!writer_->commit()) note_journal_error();
  }

  void note_journal_error() {
    if (journal_error_.empty() && writer_) {
      journal_error_ = "journal commit failed at " + writer_->path() +
                       "; learning continued without durability";
    }
  }

  Sul& inner_;
  const LearnSupervisorOptions& options_;
  std::unique_ptr<JournalWriter> writer_;
  std::string header_line_;
  std::string journal_error_;
  int appended_since_flush_ = 0;

  std::vector<LearnObservation> records_;  // journal order
  std::map<Word, Word> replay_;            // exact word -> outputs
  OutputTrie trie_;                        // committed edges (conflict oracle)

  CancelToken token_;
  Word pending_;  // reset()/step() compatibility path
  Clock::time_point attempt_start_{};

  long resets_ = 0;  // logical: replayed words count as if run
  long steps_ = 0;
  long fresh_queries_ = 0;
  long fresh_bytes_ = 0;
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

std::string_view to_string(LearnFailure f) {
  switch (f) {
    case LearnFailure::kNone: return "none";
    case LearnFailure::kException: return "exception";
    case LearnFailure::kDeadline: return "deadline";
    case LearnFailure::kQueryBudget: return "query_budget";
    case LearnFailure::kByteBudget: return "byte_budget";
    case LearnFailure::kCancelled: return "cancelled";
    case LearnFailure::kContested: return "contested";
    case LearnFailure::kUnavailable: return "sul_unavailable";
  }
  return "unknown";
}

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
  canon += ";rounds=" + std::to_string(learn.max_rounds);
  canon += ";arbitrate=" + std::to_string(arbitration_k) + "/" +
           std::to_string(arbitration_n) + ";";
  const Bytes bytes(canon.begin(), canon.end());
  const std::uint64_t h = prf64(0x13AD0CA7, bytes);
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

std::string encode_learn_header(const std::string& tag, const std::string& opts_hash) {
  return "learn-header v=1 tag=" + tag + " opts=" + opts_hash;
}

std::optional<LearnJournalHeader> decode_learn_header(std::string_view payload) {
  const std::vector<std::string> t = split_tokens(payload);
  if (t.size() != 4 || t[0] != "learn-header" || t[1] != "v=1") return std::nullopt;
  if (t[2].rfind("tag=", 0) != 0 || t[3].rfind("opts=", 0) != 0) return std::nullopt;
  LearnJournalHeader h;
  h.tag = t[2].substr(4);
  h.opts = t[3].substr(5);
  if (h.tag.empty() || h.opts.size() != 16) return std::nullopt;
  for (char c : h.opts) {
    const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!hex) return std::nullopt;
  }
  return h;
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
  const std::string opts_hash = learn_options_hash(options.learn, k, n);
  const std::string tag = options.run_tag.empty() ? "learn" : options.run_tag;
  const std::string header_line = encode_learn_header(tag, opts_hash);

  JournalLock lock;
  std::unique_ptr<JournalWriter> writer;
  std::vector<LearnObservation> adopted;
  if (!options.journal_path.empty()) {
    if (!lock.acquire(options.journal_path)) {
      run.aborted = true;
      run.abort_reason = "concurrent learn run: " + lock.error();
      run.result.inconclusive = true;
      run.result.note = run.abort_reason;
      return run;
    }
    if (options.resume) {
      const JournalLoad load = load_journal(options.journal_path);
      if (!load.payloads.empty()) {
        const std::optional<LearnJournalHeader> header =
            decode_learn_header(load.payloads.front());
        if (!header) {
          run.journal_note = "journal header malformed; starting fresh";
        } else if (header->tag != tag) {
          run.journal_note = "journal header mismatch (tag '" + header->tag +
                             "' vs '" + tag + "'); starting fresh";
        } else if (header->opts != opts_hash) {
          run.aborted = true;
          run.abort_reason =
              "resume refused: journal " + options.journal_path +
              " was written with options hash " + header->opts +
              " but this run has " + opts_hash +
              "; re-run with matching options or delete the journal";
          run.result.inconclusive = true;
          run.result.note = run.abort_reason;
          return run;
        } else {
          // Adopt records through a validation trie: a malformed record or
          // one contradicting an earlier record ends adoption at the valid
          // prefix — resume never guesses at damage.
          OutputTrie vtrie;
          for (std::size_t i = 1; i < load.payloads.size(); ++i) {
            const std::optional<LearnObservation> obs =
                decode_observation(load.payloads[i]);
            bool ok = obs.has_value();
            if (ok) {
              const std::size_t known = vtrie.known_prefix_length(obs->word);
              if (known > 0) {
                const Word prefix(obs->word.begin(),
                                  obs->word.begin() + static_cast<std::ptrdiff_t>(known));
                const Word committed = *vtrie.lookup(prefix);
                for (std::size_t p = 0; p < known; ++p) {
                  if (obs->outputs[p] != committed[p]) {
                    ok = false;
                    break;
                  }
                }
              }
            }
            if (!ok) {
              run.journal_note =
                  "journal record " + std::to_string(i) +
                  (obs ? " contradicts an earlier record" : " is malformed") +
                  "; adopted the valid prefix (" + std::to_string(adopted.size()) +
                  " observations)";
              break;
            }
            vtrie.insert(obs->word, obs->outputs);
            adopted.push_back(*obs);
          }
        }
      }
    }
    // Rebuild the journal deterministically from exactly what was adopted,
    // so the writer and the replay cache agree byte-for-byte on the durable
    // state (JournalWriter's own adoption is CRC-level only — it would keep
    // lines the strict codec above rejected).
    std::remove(options.journal_path.c_str());
    writer = std::make_unique<JournalWriter>(options.journal_path);
    writer->append(header_line);
    for (const LearnObservation& obs : adopted) {
      writer->append(encode_observation(obs.word, obs.outputs));
    }
    if (!writer->commit()) {
      run.journal_error = "journal commit failed at " + options.journal_path +
                          "; learning continued without durability";
    }
  }
  run.adopted = adopted.size();

  JournaledSul wrapper(sul, options, std::move(writer), header_line,
                       std::move(adopted));
  LearnOptions eff = options.learn;
  eff.cancel = wrapper.token();

  const int max_attempts = 1 + std::max(0, options.retries);
  int attempts_used = 0;
  LearnResult result;
  LearnFailure cls = LearnFailure::kNone;
  std::string diag;
  for (;;) {
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      cls = LearnFailure::kCancelled;
      diag = "learning cancelled by caller";
      result.inconclusive = true;
      result.converged = false;
      break;
    }
    wrapper.begin_attempt();
    bool threw = false;
    std::string what;
    try {
      result = learn_mealy(wrapper, eff);
    } catch (const std::exception& e) {
      threw = true;
      what = e.what();
    } catch (...) {
      threw = true;
      what = "unknown exception";
    }
    wrapper.finish_attempt();
    if (wrapper.restart_requested()) continue;  // override: re-learn, no attempt spent
    ++attempts_used;
    if (threw) {
      cls = LearnFailure::kException;
      diag = "worker exception: " + what;
      result = LearnResult();
      result.inconclusive = true;
      result.note = diag;
    } else if (result.converged) {
      cls = LearnFailure::kNone;
      diag.clear();
    } else if (wrapper.failure() != LearnFailure::kNone) {
      cls = wrapper.failure();
      diag = wrapper.diagnostics();
    } else if (result.inconclusive) {
      cls = LearnFailure::kUnavailable;
      diag = result.note;
    } else {
      cls = LearnFailure::kNone;  // max_rounds exhausted: honest non-convergence
      diag.clear();
    }
    if (cls == LearnFailure::kNone || cls == LearnFailure::kContested ||
        cls == LearnFailure::kCancelled) {
      break;
    }
    if (attempts_used >= max_attempts) {
      result.inconclusive = true;
      result.converged = false;
      if (!result.note.empty()) result.note += " ";
      result.note += "[learn supervisor: " + std::string(to_string(cls)) +
                     " persisted through " + std::to_string(attempts_used) +
                     " attempts]";
      break;
    }
    if (cls == LearnFailure::kDeadline || cls == LearnFailure::kQueryBudget ||
        cls == LearnFailure::kByteBudget) {
      eff.eq_test_words = std::max(
          1, static_cast<int>(static_cast<double>(eff.eq_test_words) * options.degrade_factor));
      eff.eq_test_max_length = std::max(
          1, static_cast<int>(static_cast<double>(eff.eq_test_max_length) * options.degrade_factor));
    }
    if (options.backoff_seconds > 0) {
      const double delay = options.backoff_seconds * std::ldexp(1.0, attempts_used - 1);
      std::this_thread::sleep_for(std::chrono::duration<double>(delay));
    }
  }
  if (cls == LearnFailure::kContested || cls == LearnFailure::kCancelled) {
    result.inconclusive = true;
    result.converged = false;
    if (!diag.empty()) result.note = diag;
  }
  result.arbitrations = wrapper.arbitrations();
  result.arbitration_requeries = wrapper.arbitration_requeries();
  result.arbitration_overrides = wrapper.arbitration_overrides();
  result.quarantined = wrapper.quarantined();
  run.result = std::move(result);
  run.attempts = std::max(1, attempts_used);
  run.failure = cls;
  run.diagnostics = diag;
  run.replayed = wrapper.replayed_total();
  run.journal_records = wrapper.journal_records();
  if (run.journal_error.empty()) run.journal_error = wrapper.journal_error();
  return run;
}

}  // namespace procheck::learner
