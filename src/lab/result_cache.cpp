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

#include "diag/quarantine.hpp"
#include "lab/serialize.hpp"

namespace fs = std::filesystem;

namespace hidisc::lab {

namespace {

constexpr const char* kHeader = "hilab-result v2";
constexpr const char* kChecksumTag = "checksum ";

std::string checksum_line(const std::string& body) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%s%016llx", kChecksumTag,
                static_cast<unsigned long long>(fnv1a64(body)));
  return buf;
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
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  // A wrong header is a stale or foreign format, not corruption: report a
  // miss and leave the file to be overwritten by the next store.
  if (!std::getline(in, line) || line != kHeader) return std::nullopt;

  // Everything from the header to the checksum line is covered by the
  // footer; a file that lacks the footer entirely is torn.
  std::string body = line + "\n";
  std::map<std::string, std::string> fields;
  CacheEntry entry;
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
    const std::string name = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    if (name == "meta.workload")
      entry.workload = value;
    else if (name == "meta.preset")
      entry.preset = value;
    else if (name == "meta.orig_dyn_insts")
      entry.orig_dynamic_instructions = std::strtoull(value.c_str(), nullptr, 10);
    else
      fields[name] = value;
  }
  if (!checksum_ok) {
    diag::quarantine_file(path);
    return std::nullopt;
  }
  std::string missing;
  entry.result = result_from_fields(fields, &missing);
  if (!missing.empty()) {  // line-aligned truncation or field drift
    diag::quarantine_file(path);
    return std::nullopt;
  }
  return entry;
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
  std::ostringstream body;
  body << kHeader << '\n'
       << "meta.workload " << entry.workload << '\n'
       << "meta.preset " << entry.preset << '\n'
       << "meta.orig_dyn_insts " << entry.orig_dynamic_instructions << '\n';
  for (const auto& [name, value] : result_to_fields(entry.result))
    body << name << ' ' << value << '\n';
  body << checksum_line(body.str()) << '\n';

  // Write a temp file unique per process AND thread, then atomically
  // rename it into place: readers never see a torn entry, with or
  // without a held lease.
  const std::string& final_path = lease.path_;
  std::ostringstream tid;
  tid << std::this_thread::get_id();
  const std::string tmp =
      final_path + ".tmp." + std::to_string(::getpid()) + "." + tid.str();
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (out) {
      out << body.str();
      ok = static_cast<bool>(out.flush());
    }
  }
  if (ok) {
    std::error_code ec;
    fs::rename(tmp, final_path, ec);
    ok = !ec;
  }
  if (!ok) std::remove(tmp.c_str());
  // Only after the rename: a leaser that creates a fresh lock file must
  // already find the entry.
  lease.unlink_lock();
  return ok;
}

}  // namespace hidisc::lab
