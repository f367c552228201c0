#include "lab/result_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "diag/quarantine.hpp"
#include "lab/serialize.hpp"

namespace fs = std::filesystem;

namespace hidisc::lab {

namespace {

constexpr const char* kHeader = "hilab-result v2";
constexpr const char* kCompileHeader = "hilab-compile v1";
constexpr const char* kChecksumTag = "checksum ";

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string checksum_line(std::string_view body) {
  return kChecksumTag + hex64(fnv1a64(body));
}

using Fields = std::vector<std::pair<std::string, std::string>>;

// Reads the whole file at `path`: one read() of its fstat size, repeated
// only if the kernel returns less.  False when it cannot be opened or read.
bool read_file(const std::string& path, std::vector<char>& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0;
  if (ok) {
    out.resize(static_cast<std::size_t>(st.st_size));
    std::size_t got = 0;
    while (got < out.size()) {
      const ssize_t n = ::read(fd, out.data() + got, out.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        ok = n == 0;
        break;
      }
      got += static_cast<std::size_t>(n);
    }
    out.resize(got);
  }
  ::close(fd);
  return ok;
}

// An entry file's bytes and its `name value` lines, viewed in them in file
// order.  Moving a vector keeps its buffer, so the views survive a move of
// the whole.
struct EntryText {
  std::vector<char> bytes;
  std::vector<FieldView> fields;
};

// Reads an entry file of either kind in one pass.  A missing file or
// another header is a plain miss.  A torn line or a checksum mismatch
// quarantines the file and is a miss too.
std::optional<EntryText> read_entry(const std::string& path,
                                    std::string_view header) {
  EntryText entry;
  if (!read_file(path, entry.bytes)) return std::nullopt;
  const std::string_view text(entry.bytes.data(), entry.bytes.size());
  // A wrong header is a stale or foreign format, not corruption: report a
  // miss and leave the file to be overwritten by the next store.
  const std::size_t header_end = std::min(text.find('\n'), text.size());
  if (text.substr(0, header_end) != header) return std::nullopt;

  // Every byte before the checksum line is covered by the footer; a file
  // that lacks the footer entirely is torn.  Bytes after it are ignored.
  entry.fields.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')));
  bool checksum_ok = false;
  for (std::size_t pos = header_end + 1; pos < text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string_view line = text.substr(pos, end - pos);
    if (line.starts_with(kChecksumTag)) {
      checksum_ok = line == checksum_line(text.substr(0, pos));
      break;
    }
    const auto space = line.find(' ');
    if (space == std::string_view::npos) {  // torn line
      diag::quarantine_file(path);
      return std::nullopt;
    }
    entry.fields.emplace_back(line.substr(0, space), line.substr(space + 1));
    pos = end + 1;
  }
  if (!checksum_ok) {
    diag::quarantine_file(path);
    return std::nullopt;
  }
  return entry;
}

// The value of the last `name` line in `entry`, empty when absent.
std::string_view field(const EntryText& entry, std::string_view name) {
  const auto it = std::find_if(
      entry.fields.rbegin(), entry.fields.rend(),
      [name](const FieldView& f) { return f.first == name; });
  return it == entry.fields.rend() ? std::string_view() : it->second;
}

// Publishes an entry file: the header, one line per field, the checksum
// footer.  It writes a temp file unique per process AND thread, then
// atomically renames it into place, so readers never see a torn entry.
bool write_entry(const std::string& path, const char* header,
                 const Fields& fields) {
  std::string body = std::string(header) + '\n';
  for (const auto& [name, value] : fields) body += name + ' ' + value + '\n';
  body += checksum_line(body) + '\n';

  std::ostringstream tid;
  tid << std::this_thread::get_id();
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." + tid.str();
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (out) {
      out << body;
      ok = static_cast<bool>(out.flush());
    }
  }
  if (ok) {
    std::error_code ec;
    fs::rename(tmp, path, ec);
    ok = !ec;
  }
  if (!ok) std::remove(tmp.c_str());
  return ok;
}

// Parses exactly 16 hex digits.
std::optional<std::uint64_t> parse_hex64(std::string_view s) {
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string_view::npos)
    return std::nullopt;
  std::uint64_t v = 0;
  std::from_chars(s.data(), s.data() + s.size(), v, 16);
  return v;
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_))
    throw std::runtime_error("hilab: cannot create cache directory " + dir_);
}

std::string ResultCache::path_for(const std::string& key) const {
  return (fs::path(dir_) / (key + ".result")).string();
}

std::optional<CacheEntry> ResultCache::load(const std::string& key) const {
  const std::string path = path_for(key);
  const auto text = read_entry(path, kHeader);
  if (!text) return std::nullopt;
  CacheEntry entry;
  entry.workload = field(*text, "meta.workload");
  entry.preset = field(*text, "meta.preset");
  entry.orig_dynamic_instructions = std::strtoull(
      std::string(field(*text, "meta.orig_dyn_insts")).c_str(), nullptr, 10);
  std::string missing;
  entry.result = result_from_fields(text->fields, &missing);
  if (!missing.empty()) {  // line-aligned truncation or field drift
    diag::quarantine_file(path);
    return std::nullopt;
  }
  return entry;
}

std::string ResultCache::compile_path_for(const std::string& index_key) const {
  return (fs::path(dir_) / (index_key + ".compile")).string();
}

std::optional<CompileIndexEntry> ResultCache::load_compile(
    const std::string& index_key) const {
  const std::string path = compile_path_for(index_key);
  const auto text = read_entry(path, kCompileHeader);
  if (!text) return std::nullopt;
  std::uint64_t state[4];
  const char* const names[4] = {"orig.lo", "orig.hi", "sep.lo", "sep.hi"};
  for (int i = 0; i < 4; ++i) {
    const auto v = parse_hex64(field(*text, names[i]));
    if (!v) {  // field drift
      diag::quarantine_file(path);
      return std::nullopt;
    }
    state[i] = *v;
  }
  return CompileIndexEntry{{Fnv1a(state[0]), Fnv1a(state[1])},
                           {Fnv1a(state[2]), Fnv1a(state[3])}};
}

bool ResultCache::store_compile(const std::string& index_key,
                                const CompileIndexEntry& entry) const {
  return write_entry(compile_path_for(index_key), kCompileHeader,
                     {{"orig.lo", hex64(entry.orig.lo.digest())},
                      {"orig.hi", hex64(entry.orig.hi.digest())},
                      {"sep.lo", hex64(entry.sep.lo.digest())},
                      {"sep.hi", hex64(entry.sep.hi.digest())}});
}

ResultCache::Lease::Lease(Lease&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      unlinked_(other.unlinked_) {}

ResultCache::Lease& ResultCache::Lease::operator=(Lease&& other) noexcept {
  if (this != &other) {
    release();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    unlinked_ = other.unlinked_;
  }
  return *this;
}

void ResultCache::Lease::unlink_lock() const {
  if (fd_ < 0 || unlinked_) return;
  ::unlink(lock_path().c_str());
  unlinked_ = true;
}

void ResultCache::Lease::release() noexcept {
  if (fd_ < 0) return;
  unlink_lock();
  ::close(fd_);  // drops the flock
  fd_ = -1;
}

ResultCache::Lease ResultCache::lease(const std::string& key) const {
  const std::string path = path_for(key);
  const std::string lock_path = path + ".lock";
  for (;;) {
    const int fd =
        ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd < 0) return Lease(path, -1);
    int rc = ::flock(fd, LOCK_EX);
    while (rc != 0 && errno == EINTR) rc = ::flock(fd, LOCK_EX);
    if (rc != 0) {  // no flock on this filesystem: proceed unleased
      ::close(fd);
      return Lease(path, -1);
    }
    // The previous holder unlinks the lock file before unlocking, so a
    // lock on an inode no longer at `lock_path` guards nothing: retry on
    // the current file.
    struct stat held {}, current {};
    if (::fstat(fd, &held) == 0 && ::stat(lock_path.c_str(), &current) == 0 &&
        held.st_dev == current.st_dev && held.st_ino == current.st_ino)
      return Lease(path, fd);
    ::close(fd);
  }
}

bool ResultCache::store(const std::string& key,
                        const CacheEntry& entry) const {
  return store(lease(key), entry);
}

bool ResultCache::store(const Lease& lease, const CacheEntry& entry) const {
  Fields fields = {
      {"meta.workload", entry.workload},
      {"meta.preset", entry.preset},
      {"meta.orig_dyn_insts", std::to_string(entry.orig_dynamic_instructions)}};
  for (auto& field : result_to_fields(entry.result))
    fields.emplace_back(field);
  // With or without a held lease, readers never see a torn entry.
  const bool ok = write_entry(lease.path_, kHeader, fields);
  // Only after the rename: a leaser that creates a fresh lock file must
  // already find the entry.
  lease.unlink_lock();
  return ok;
}

}  // namespace hidisc::lab
