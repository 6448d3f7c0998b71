#include "common/journal.h"

#include <array>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/strings.h"

namespace procheck {

namespace {

std::array<std::uint32_t, 256> build_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// Renders one journal line: 8 lowercase hex CRC digits, a space, the
/// payload, a newline.
std::string render_line(std::string_view payload) {
  char tag[10];
  std::snprintf(tag, sizeof(tag), "%08x ", crc32(payload));
  std::string line(tag);
  line += payload;
  line += '\n';
  return line;
}

/// Validates one line (without trailing '\n'); returns the payload or
/// nullopt when the CRC tag is absent, malformed, or wrong.
bool check_line(std::string_view line, std::string* payload) {
  if (line.size() < 9 || line[8] != ' ') return false;
  std::uint32_t tagged = 0;
  for (int i = 0; i < 8; ++i) {
    char c = line[i];
    std::uint32_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint32_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint32_t>(c - 'a' + 10);
    } else {
      return false;
    }
    tagged = tagged << 4 | digit;
  }
  std::string_view body = line.substr(9);
  if (crc32(body) != tagged) return false;
  payload->assign(body);
  return true;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = build_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

JournalLoad load_journal(const std::string& path) {
  JournalLoad load;
  std::ifstream in(path, std::ios::binary);
  if (!in) return load;
  load.existed = true;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();

  std::size_t pos = 0;
  bool tail = false;  // first bad line poisons everything after it
  while (pos < text.size()) {
    std::size_t nl = text.find('\n', pos);
    // A final line with no newline is by definition torn (commit always
    // terminates lines), so it never validates even if its CRC happens to.
    bool terminated = nl != std::string::npos;
    std::string_view line(text.data() + pos, (terminated ? nl : text.size()) - pos);
    pos = terminated ? nl + 1 : text.size();
    std::string payload;
    if (tail || !terminated || !check_line(line, &payload)) {
      tail = true;
      ++load.dropped;
      continue;
    }
    load.payloads.push_back(std::move(payload));
  }
  return load;
}

namespace {

/// Reads the pid recorded in a lock file; 0 when unreadable/garbled.
long lock_holder_pid(const std::string& lock_path) {
  std::ifstream in(lock_path);
  long pid = 0;
  if (!(in >> pid) || pid <= 0) return 0;
  return pid;
}

bool try_create_lock(const std::string& lock_path) {
  int fd = ::open(lock_path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  std::string body = std::to_string(static_cast<long>(::getpid())) + "\n";
  (void)!::write(fd, body.data(), body.size());
  ::close(fd);
  return true;
}

}  // namespace

bool JournalLock::acquire(const std::string& journal_path) {
  release();
  lock_path_ = journal_path + ".lock";
  error_.clear();

  for (int attempt = 0; attempt < 2; ++attempt) {
    if (try_create_lock(lock_path_)) {
      held_ = true;
      return true;
    }
    if (errno != EEXIST) {
      error_ = "cannot create lock file " + lock_path_;
      return false;
    }
    long pid = lock_holder_pid(lock_path_);
    bool holder_alive = pid > 0 && (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH);
    if (holder_alive) {
      error_ = "journal " + journal_path + " is locked by pid " + std::to_string(pid) +
               " (" + lock_path_ + ")";
      return false;
    }
    // Stale lock from a crashed run: steal it and retry the exclusive
    // create once (racing stealers — at most one create succeeds).
    std::remove(lock_path_.c_str());
  }
  error_ = "journal " + journal_path + " lock contended (" + lock_path_ + ")";
  return false;
}

void JournalLock::release() {
  if (held_) {
    std::remove(lock_path_.c_str());
    held_ = false;
  }
}

void JournalWriter::append(std::string_view payload) {
  pending_.emplace_back(payload);
}

bool JournalWriter::commit() {
  if (pending_.empty()) return true;
  std::string next = committed_;
  for (const std::string& payload : pending_) {
    next += render_line(payload);
  }
  const std::string tmp = path_ + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  bool ok = std::fwrite(next.data(), 1, next.size(), f) == next.size();
  ok = std::fflush(f) == 0 && ok;
  ok = ::fsync(fileno(f)) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  committed_ = std::move(next);
  records_ += pending_.size();
  pending_.clear();
  return true;
}

std::string encode_journal_header(const JournalHeader& header) {
  return "journal v=1 kind=" + header.kind + " tag=" + header.tag + " opts=" + header.opts;
}

std::optional<JournalHeader> decode_journal_header(std::string_view payload) {
  const std::vector<std::string> t = split(payload, ' ');
  if (t.size() != 5 || t[0] != "journal" || t[1] != "v=1" || !starts_with(t[2], "kind=") ||
      t[2].size() == 5 || !starts_with(t[3], "tag=") || !starts_with(t[4], "opts=")) {
    return std::nullopt;
  }
  return JournalHeader{t[2].substr(5), t[3].substr(4), t[4].substr(5)};
}

RunJournal::RunJournal(std::string path, bool resume, const JournalHeader& header)
    : path_(std::move(path)), header_line_(encode_journal_header(header)) {
  if (path_.empty()) return;
  if (!lock_.acquire(path_)) {
    refusal_ = "concurrent " + header.kind + " run: " + lock_.error();
    return;
  }
  if (!resume) return;
  JournalLoad load = load_journal(path_);
  if (load.payloads.empty()) return;
  const std::optional<JournalHeader> found = decode_journal_header(load.payloads.front());
  if (!found) {
    note_ = "journal header malformed; starting fresh";
  } else if (found->kind != header.kind || found->tag != header.tag) {
    note_ = "journal header mismatch (journal is kind=" + found->kind + " tag=" + found->tag +
            ", this run is kind=" + header.kind + " tag=" + header.tag + "); starting fresh";
  } else if (found->opts != header.opts) {
    // The journal's records were produced under different verdict-shaping
    // options. Adopting them would mix incompatible runs; discarding them
    // would silently throw away work the user asked to keep. Refuse, loudly.
    refusal_ = "resume refused: journal " + path_ + " was written with options hash " +
               found->opts + " but this run has " + header.opts +
               "; re-run with matching options or delete the journal";
  } else {
    records_.assign(std::make_move_iterator(load.payloads.begin() + 1),
                    std::make_move_iterator(load.payloads.end()));
  }
}

void RunJournal::start(const std::vector<std::string>& adopted) {
  if (path_.empty() || !refusal_.empty()) return;
  writer_.emplace(path_);
  writer_->append(header_line_);
  for (const std::string& record : adopted) writer_->append(record);
  check(writer_->commit());
}

void RunJournal::append(std::string_view payload) {
  if (writer_) writer_->append(payload);
}

void RunJournal::commit() {
  if (writer_) check(writer_->commit());
}

std::size_t RunJournal::committed() const {
  return writer_ && writer_->records() > 0 ? writer_->records() - 1 : 0;
}

void RunJournal::check(bool ok) {
  if (!ok && error_.empty()) {
    error_ = "journal commit failed at " + path_ + "; continuing without durability";
  }
}

}  // namespace procheck
