// The information-rich execution log of the paper (§IV-A, Fig. 3(d)).
//
// Instrumented implementations emit three record kinds:
//   [ENTER]  <function>          — function entrance (handler signatures)
//   [GLOBAL] <name> = <value>    — global state variable value (entry/exit)
//   [LOCAL]  <name> = <value>    — local variable value before function exit
// plus a [TEST] marker the conformance runner emits between test cases
// (used for coverage accounting; the extractor ignores it).
//
// The log has both a structured form (`LogRecord`) and a canonical text
// form, and `parse_log(text())` gives back `records()` exactly (pinned per
// profile by conformance_test). `analyze` and diff's `profile:` sides
// extract from the records; `extract --log` and diff's `log:` sides parse
// the text, which is all the pipeline needs beyond the log the paper
// describes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace procheck::instrument {

struct LogRecord {
  enum class Kind : std::uint8_t { kEnter, kGlobal, kLocal, kTestCase };
  Kind kind = Kind::kEnter;
  std::string name;   // function / variable / test-case name
  std::string value;  // variable value (kGlobal/kLocal only)

  bool operator==(const LogRecord&) const = default;
};

/// Renders one record in the canonical text dialect.
std::string render(const LogRecord& rec);

/// Per-parse accounting: how much of the input survived as records and how
/// much was shed — the raw material of the extractor's recovery diagnostics.
struct ParseStats {
  std::size_t lines = 0;      // input lines seen (including blank ones)
  std::size_t records = 0;    // records successfully parsed
  std::size_t skipped = 0;    // untagged lines (interleaved foreign output)
  std::size_t truncated = 0;  // tagged lines cut mid-record (no '='/no name)

  bool operator==(const ParseStats&) const = default;
};

/// Parses a full log text back into records. Unrecognized lines are skipped
/// (real conformance logs interleave unrelated output; the extractor must
/// tolerate that), and tagged-but-truncated lines — a [GLOBAL]/[LOCAL]
/// missing its '=', an [ENTER]/[TEST] missing its name — are dropped rather
/// than turned into corrupt records. `stats`, when non-null, receives the
/// accounting.
std::vector<LogRecord> parse_log(std::string_view text, ParseStats* stats = nullptr);

/// Runtime sink the instrumented stacks write to while the conformance
/// suite executes.
class TraceLogger {
 public:
  void enter(std::string_view function);
  void global(std::string_view name, std::string_view value);
  void global(std::string_view name, std::uint64_t value);
  void local(std::string_view name, std::string_view value);
  void local(std::string_view name, std::uint64_t value);
  void test_case(std::string_view name);

  /// When disabled, all emission is a no-op — this models running the
  /// *uninstrumented* build (the paper's "default execution log" that only
  /// has coverage-level content).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  const std::vector<LogRecord>& records() const { return records_; }
  /// Canonical text form of the whole log.
  std::string text() const;
  void clear() { records_.clear(); }

 private:
  void push(LogRecord rec);

  std::vector<LogRecord> records_;
  bool enabled_ = true;
};

}  // namespace procheck::instrument
