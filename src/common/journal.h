// Crash-safe run journal (DESIGN.md §11, §15).
//
// The analysis supervisor appends one record per completed property and the
// learning supervisor one per answered membership query, so an interrupted
// `analyze` or `learn` run can resume without redoing finished work.
// Durability contract:
//   - every commit writes the full journal to `<path>.tmp`, fsyncs it, and
//     atomically renames it over `<path>` — a crash leaves either the old or
//     the new journal, never a mix;
//   - every line is CRC32-tagged (`%08x <payload>`), so a torn tail (the
//     file truncated at an arbitrary byte by a crash or an interrupted
//     copy) is detected on reload: the valid prefix is kept, everything
//     from the first damaged line on is dropped.
//
// The journal is a line transport: payloads are opaque single-line strings.
// Line 0 is the shared header (`journal v=1 kind=<k> tag=<t> opts=<o>`);
// RunJournal owns it, together with the single-writer lock and the resume
// checks, for both supervisors.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace procheck {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `data`.
std::uint32_t crc32(std::string_view data);

struct JournalLoad {
  /// Valid record payloads, in file order (CRC prefix stripped).
  std::vector<std::string> payloads;
  std::size_t dropped = 0;  // lines discarded (torn tail / CRC mismatch)
  bool existed = false;     // the file was present and readable
};

/// Reloads a journal, tolerating a torn tail: reading stops at the first
/// line whose CRC tag is missing, malformed, or wrong; that line and
/// everything after it count as `dropped`. A missing file is an empty load.
JournalLoad load_journal(const std::string& path);

/// Advisory single-writer lock for a journal path. Two concurrent
/// journaled runs against the same file would interleave commits
/// and corrupt the resume state; the lock makes the second run fail fast
/// with a structured diagnostic instead.
///
/// Implementation: `<path>.lock` created with O_CREAT|O_EXCL holding the
/// owner's pid. A crash leaves the lock file behind, so acquisition steals
/// locks whose recorded pid no longer exists (stale-lock recovery) — only a
/// *live* holder blocks.
class JournalLock {
 public:
  JournalLock() = default;
  ~JournalLock() { release(); }
  JournalLock(const JournalLock&) = delete;
  JournalLock& operator=(const JournalLock&) = delete;

  /// Tries to take the lock for `journal_path`. False when another live
  /// process holds it; `error()` then names the holder.
  bool acquire(const std::string& journal_path);
  /// Removes the lock file (idempotent; the destructor calls it too).
  void release();

  bool held() const { return held_; }
  const std::string& error() const { return error_; }

 private:
  std::string lock_path_;
  std::string error_;
  bool held_ = false;
};

class JournalWriter {
 public:
  /// Binds the writer to `path`. Nothing is written until commit(), which
  /// replaces whatever the file held.
  explicit JournalWriter(std::string path) : path_(std::move(path)) {}

  /// Queues one record payload (must not contain '\n'). Not yet durable.
  void append(std::string_view payload);

  /// Flushes every queued record: writes the complete journal (committed
  /// records + queued records) to `<path>.tmp`, fsyncs, renames over
  /// `<path>`. Returns false on any I/O failure — the caller decides
  /// whether to continue without durability; queued records are retained
  /// for a later retry either way.
  bool commit();

  /// Records committed by this writer.
  std::size_t records() const { return records_; }
  std::size_t pending() const { return pending_.size(); }

 private:
  std::string path_;
  std::string committed_;  // full text of the durable journal
  std::vector<std::string> pending_;
  std::size_t records_ = 0;
};

/// The journal's first line: which supervisor wrote it, for which run tag
/// (the profile), under which verdict-shaping options fingerprint.
struct JournalHeader {
  std::string kind;  // "analyze" or "learn"
  std::string tag;
  std::string opts;
};

/// `journal v=1 kind=<kind> tag=<tag> opts=<opts>`.
std::string encode_journal_header(const JournalHeader& header);
/// Strict inverse: exactly those five single-space-separated tokens, kind
/// non-empty; nullopt otherwise.
std::optional<JournalHeader> decode_journal_header(std::string_view payload);

/// One supervised run's journal: single-writer lock, resume checks, and the
/// durable writer. On construction (an empty path turns journaling off):
///   - a live lock holder refuses the run: `concurrent <kind> run: ...`;
///   - without `resume`, nothing is read;
///   - with `resume`, a journal whose header is malformed or of another kind
///     or tag is discarded with a note (nothing adopted, fresh start);
///   - the same kind and tag under different opts refuses the run, naming
///     both fingerprints, and leaves the file untouched;
///   - otherwise records() holds the payloads after the header.
/// Nothing is written until start().
class RunJournal {
 public:
  RunJournal(std::string path, bool resume, const JournalHeader& header);
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Non-empty when the run must not start; start() then writes nothing.
  const std::string& refusal() const { return refusal_; }
  /// Non-empty when --resume discarded the journal it found.
  const std::string& note() const { return note_; }
  /// Candidate records after a matching header, in file order; the caller
  /// decides which to adopt.
  const std::vector<std::string>& records() const { return records_; }

  /// Atomically replaces the file with the header plus `adopted` (no window
  /// in which the file is missing). Also used to rewrite history.
  void start(const std::vector<std::string>& adopted);
  /// Queues one record; commit() makes it durable.
  void append(std::string_view payload);
  void commit();
  /// Durable records, header excluded.
  std::size_t committed() const;
  bool enabled() const { return !path_.empty(); }
  /// Non-empty after the first failed write (records stay queued and are
  /// retried by the next commit; the run continues without durability).
  const std::string& error() const { return error_; }

 private:
  void check(bool ok);

  std::string path_;
  std::string header_line_;
  JournalLock lock_;
  std::optional<JournalWriter> writer_;
  std::vector<std::string> records_;
  std::string refusal_;
  std::string note_;
  std::string error_;
};

}  // namespace procheck
