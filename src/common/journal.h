// Crash-safe run journal (DESIGN.md §11, §15).
//
// The analysis supervisor appends one record per completed property and the
// learning supervisor one per answered membership query, so an interrupted
// `analyze` or `learn` run can resume without redoing finished work.
// Durability contract:
//   - a writer's first commit writes the whole journal to `<path>.tmp`,
//     fsyncs it, and atomically renames it over `<path>` — a crash leaves
//     either the old or the new journal, never a mix;
//   - every later commit appends only the new lines and fdatasyncs them; a
//     failed append is cut back off, so the file always ends at a commit;
//   - RunJournal::append commits on its own once 100× the last commit's
//     cost has passed since it, so the syncs take ~1% of the run and a kill
//     loses at most the records appended since the last commit;
//   - every line is CRC32-tagged (`%08x <payload>`), so a torn tail (the
//     file truncated at an arbitrary byte by a crash or an interrupted
//     copy) is detected on reload: the valid prefix is kept, everything
//     from the first damaged line on is dropped.
//
// The journal is a line transport: payloads are opaque single-line strings.
// Line 0 is the shared header (`journal v=1 kind=<k> tag=<t> opts=<o>`);
// RunJournal owns it, together with the single-writer lock, the commit rule
// and the resume checks, for both supervisors.
#pragma once

#include <chrono>
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
/// Implementation: flock(LOCK_EX|LOCK_NB) on `<path>.lock`, which holds the
/// owner's pid for the diagnostic. The kernel drops the lock when its holder
/// dies, so only a *live* holder blocks.
class JournalLock {
 public:
  JournalLock() = default;
  ~JournalLock() { release(); }
  JournalLock(const JournalLock&) = delete;
  JournalLock& operator=(const JournalLock&) = delete;

  /// Tries to take the lock for `journal_path`. False when another live
  /// process holds it; `error()` then names the holder.
  bool acquire(const std::string& journal_path);
  /// Unlinks the lock file, then unlocks (idempotent; the destructor too).
  void release();

  bool held() const { return fd_ >= 0; }
  const std::string& error() const { return error_; }

 private:
  std::string lock_path_;
  std::string error_;
  int fd_ = -1;
};

/// Durable writer of one journal file. The first commit replaces the file
/// atomically and keeps it open (O_CLOEXEC); every later commit appends
/// only the queued lines at the durable end and fdatasyncs them. The writer
/// keeps no copy of what it committed.
class JournalWriter {
 public:
  /// Binds the writer to `path`. Nothing is written until commit(), whose
  /// first success replaces whatever the file held.
  explicit JournalWriter(std::string path) : path_(std::move(path)) {}
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Queues one record payload (must not contain '\n'). Not yet durable.
  void append(std::string_view payload);

  /// Makes every queued record durable. Returns false on any I/O failure —
  /// the caller decides whether to continue without durability; the file
  /// is cut back to its durable end and the queued records are retained
  /// for a later retry either way.
  bool commit();

  /// Records committed by this writer, and records queued for the next
  /// commit.
  std::size_t records() const { return records_; }
  std::size_t pending() const;

 private:
  std::string path_;
  int fd_ = -1;              // the journal, open after the first commit
  std::size_t durable_ = 0;  // bytes of it known to be on disk
  bool broken_ = false;      // a failed append could not be cut back off
  std::string pending_;      // queued lines, rendered
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

/// One supervised run's journal: single-writer lock, resume checks, the
/// durable writer and the commit rule. On construction (an empty path turns journaling off):
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
  /// Queues one record, and commits every queued record once the time since
  /// the last commit reaches 100× what that commit cost: the intermediate
  /// syncs take about 1% of the run on any disk.
  void append(std::string_view payload);
  /// Commits every queued record now.
  void commit();
  /// Durable records, header excluded.
  std::size_t committed() const;
  bool enabled() const { return !path_.empty(); }
  /// Non-empty after the first failed write (records stay queued and are
  /// retried by the next commit; the run continues without durability).
  const std::string& error() const { return error_; }

 private:
  using Clock = std::chrono::steady_clock;

  std::string path_;
  std::string header_line_;
  JournalLock lock_;
  std::optional<JournalWriter> writer_;
  std::vector<std::string> records_;
  std::string refusal_;
  std::string note_;
  std::string error_;
  Clock::time_point last_commit_{};
  Clock::duration commit_cost_{};  // of the last commit that wrote bytes
};

}  // namespace procheck
