#include "common/journal.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/strings.h"

namespace procheck {

namespace {

// RunJournal::append's commit window, as a multiple of the last commit's
// cost: intermediate syncs then take about 1% of run time, whatever the disk.
constexpr int kCommitWindowRatio = 100;

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

/// Writes all of `data` to `fd`; false on any error.
bool write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

bool JournalLock::acquire(const std::string& journal_path) {
  release();
  lock_path_ = journal_path + ".lock";
  error_.clear();
  for (;;) {
    const int fd = ::open(lock_path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      error_ = "cannot create lock file " + lock_path_;
      return false;
    }
    if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
      const bool busy = errno == EWOULDBLOCK;
      ::close(fd);
      // The holder writes its pid just after locking; it may not be there yet.
      const long pid = lock_holder_pid(lock_path_);
      const std::string holder = pid > 0 ? "pid " + std::to_string(pid) : "another process";
      error_ = busy ? "journal " + journal_path + " is locked by " + holder + " (" + lock_path_ + ")"
                    : "cannot lock " + lock_path_;
      return false;
    }
    // A releasing holder unlinks the file before it unlocks, so the lock is
    // ours only while the path still names the file we locked.
    struct stat locked, named;
    if (::fstat(fd, &locked) == 0 && ::stat(lock_path_.c_str(), &named) == 0 &&
        locked.st_dev == named.st_dev && locked.st_ino == named.st_ino) {
      (void)!::ftruncate(fd, 0);
      ::dprintf(fd, "%ld\n", static_cast<long>(::getpid()));
      fd_ = fd;
      return true;
    }
    ::close(fd);
  }
}

void JournalLock::release() {
  if (fd_ < 0) return;
  std::remove(lock_path_.c_str());
  ::close(fd_);
  fd_ = -1;
}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void JournalWriter::append(std::string_view payload) { pending_ += render_line(payload); }

std::size_t JournalWriter::pending() const {
  return static_cast<std::size_t>(std::count(pending_.begin(), pending_.end(), '\n'));
}

bool JournalWriter::commit() {
  if (pending_.empty()) return true;
  if (broken_) return false;
  if (fd_ >= 0) {
    // Every commit after the first: the queued lines land at the durable
    // end (O_APPEND). A partial write is cut back off, so the retry lands
    // there too; if even that fails, lines behind the torn one would never
    // reload, so the writer stops and the file keeps its valid prefix.
    if (!write_all(fd_, pending_) || ::fdatasync(fd_) != 0) {
      broken_ = ::ftruncate(fd_, static_cast<off_t>(durable_)) != 0;
      return false;
    }
  } else {
    // The first commit: the whole journal goes to `<path>.tmp`, is fsynced
    // and renamed over `<path>`, and the descriptor stays open.
    const std::string tmp = path_ + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND | O_CLOEXEC, 0644);
    if (fd < 0) return false;
    if (!write_all(fd, pending_) || ::fsync(fd) != 0 ||
        std::rename(tmp.c_str(), path_.c_str()) != 0) {
      ::close(fd);
      std::remove(tmp.c_str());
      return false;
    }
    fd_ = fd;
  }
  records_ += pending();
  durable_ += pending_.size();
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
  commit();
}

void RunJournal::append(std::string_view payload) {
  if (!writer_) return;
  writer_->append(payload);
  if (Clock::now() - last_commit_ >= kCommitWindowRatio * commit_cost_) commit();
}

void RunJournal::commit() {
  if (!writer_ || writer_->pending() == 0) return;
  const Clock::time_point begin = Clock::now();
  const bool ok = writer_->commit();
  last_commit_ = Clock::now();
  commit_cost_ = last_commit_ - begin;
  if (!ok && error_.empty()) {
    error_ = "journal commit failed at " + path_ + "; continuing without durability";
  }
}

std::size_t RunJournal::committed() const {
  return writer_ && writer_->records() > 0 ? writer_->records() - 1 : 0;
}

}  // namespace procheck
