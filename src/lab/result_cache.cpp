#include "lab/result_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
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

std::string checksum_line(const std::string& body) {
  return kChecksumTag + hex64(fnv1a64(body));
}

using Fields = std::vector<std::pair<std::string, std::string>>;

// Reads the `name value` lines of an entry file of either kind.  A missing
// file or another header is a plain miss.  A torn line or a checksum
// mismatch quarantines the file and is a miss too.
std::optional<std::map<std::string, std::string>> read_entry(
    const std::string& path, const char* header) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  // A wrong header is a stale or foreign format, not corruption: report a
  // miss and leave the file to be overwritten by the next store.
  if (!std::getline(in, line) || line != header) return std::nullopt;

  // Everything from the header to the checksum line is covered by the
  // footer; a file that lacks the footer entirely is torn.
  std::string body = line + "\n";
  std::map<std::string, std::string> fields;
  bool checksum_ok = false;
  while (std::getline(in, line)) {
    if (line.rfind(kChecksumTag, 0) == 0) {
      checksum_ok = line == checksum_line(body);
      break;
    }
    body += line;
    body += '\n';
    const auto space = line.find(' ');
    if (space == std::string::npos) {  // torn line
      diag::quarantine_file(path);
      return std::nullopt;
    }
    fields[line.substr(0, space)] = line.substr(space + 1);
  }
  if (!checksum_ok) {
    diag::quarantine_file(path);
    return std::nullopt;
  }
  return fields;
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
std::optional<std::uint64_t> parse_hex64(const std::string& s) {
  if (s.size() != 16 ||
      s.find_first_not_of("0123456789abcdef") != std::string::npos)
    return std::nullopt;
  return std::strtoull(s.c_str(), nullptr, 16);
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
  auto fields = read_entry(path, kHeader);
  if (!fields) return std::nullopt;
  CacheEntry entry;
  entry.workload = (*fields)["meta.workload"];
  entry.preset = (*fields)["meta.preset"];
  entry.orig_dynamic_instructions =
      std::strtoull((*fields)["meta.orig_dyn_insts"].c_str(), nullptr, 10);
  std::string missing;
  entry.result = result_from_fields(*fields, &missing);
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
  auto fields = read_entry(path, kCompileHeader);
  if (!fields) return std::nullopt;
  std::uint64_t state[4];
  const char* const names[4] = {"orig.lo", "orig.hi", "sep.lo", "sep.hi"};
  for (int i = 0; i < 4; ++i) {
    const auto v = parse_hex64((*fields)[names[i]]);
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
