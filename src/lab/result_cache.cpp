#include "lab/result_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

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

bool ResultCache::store(const std::string& key,
                        const CacheEntry& entry) const {
  std::ostringstream body;
  body << kHeader << '\n'
       << "meta.workload " << entry.workload << '\n'
       << "meta.preset " << entry.preset << '\n'
       << "meta.orig_dyn_insts " << entry.orig_dynamic_instructions << '\n';
  for (const auto& [name, value] : result_to_fields(entry.result))
    body << name << ' ' << value << '\n';
  body << checksum_line(body.str()) << '\n';

  // Publish protocol for a directory shared across processes: take an
  // advisory lock on `<entry>.lock`, write a temp file unique per
  // process AND thread, then atomically rename it into place.  The
  // rename alone already guarantees readers never see a torn entry; the
  // lock additionally serializes concurrent writers of the same key so
  // their temp-write + rename windows do not interleave.  Locking is
  // best-effort — on a filesystem without flock the rename still keeps
  // the entry atomic.
  const std::string final_path = path_for(key);
  const int lock_fd =
      ::open((final_path + ".lock").c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
             0644);
  if (lock_fd >= 0) ::flock(lock_fd, LOCK_EX);
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
  if (lock_fd >= 0) {
    ::flock(lock_fd, LOCK_UN);
    ::close(lock_fd);
  }
  return ok;
}

}  // namespace hidisc::lab
