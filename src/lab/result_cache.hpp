// Persistent on-disk cache of simulation results, content-addressed by
// fingerprint::content_key — one small text file per cell under the cache
// directory:
//
//   <dir>/<32-hex key>.result
//     hilab-result v2
//     meta.workload <display name>
//     meta.preset <preset name>
//     meta.orig_dyn_insts <count>
//     cycles 123456
//     ipc 2.3409...
//     ... (every visit_result_fields name, one per line)
//     checksum <16-hex FNV-1a-64 of everything above>
//
// Writes publish a per-process, per-thread temp file by atomic rename, so
// runners sharing a directory (threads or separate hilab processes) never
// observe a torn entry.  Loads validate three layers:
// the checksum footer (bit rot, torn writes), line shape, and
// required-field completeness (a line-aligned truncation must not decode
// as a silently-zeroed Result).  Any failure quarantines the file to
// `<name>.corrupt.<pid>.<n>` — unique per process and event, so
// concurrent quarantines never clobber each other's forensic evidence —
// and reports a miss, never an error: the cache is an accelerator, not a
// dependency.
// Entries with an older version header are plain misses (stale format,
// not corruption) and are left in place to be overwritten.
//
// The same directory holds the compile index: one entry per compile task,
// in the same layout and through the same writer and checks, so a warm
// run learns each binary's image hash without compiling:
//
//   <dir>/<32-hex compile_index_key>.compile
//     hilab-compile v1
//     orig.lo <16-hex>   the ImageKeyState of the original binary,
//     orig.hi <16-hex>   then of the separated one
//     sep.lo <16-hex>
//     sep.hi <16-hex>
//     checksum <16-hex FNV-1a-64 of everything above>
//
// Its key includes the build identity (fingerprint.hpp), so any rebuild,
// library update or different CPU feature set misses.  Compile entries
// take no lease: two writers of one entry write the same bytes.
//
// Per-key leases make processes sharing a directory simulate each key
// once.  A lease is an exclusive flock on `<dir>/<key>.result.lock`:
// the holder simulates and publishes, a second leaser blocks until it is
// released and then finds the entry with load().  The lock file exists
// only while a lease is held: the holder unlinks it before unlocking
// (after the rename, so a later leaser that creates a fresh lock file
// already sees the entry), and a leaser that wakes on an unlinked lock
// file retries on the current one.  A killed holder's flock is dropped by
// the kernel; the lock file it leaves is leased at once and removed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "lab/fingerprint.hpp"
#include "machine/result.hpp"

namespace hidisc::lab {

struct CacheEntry {
  machine::Result result;
  std::string workload;  // display name, informational
  std::string preset;    // preset name, informational
  // Dynamic instruction count of the *original* (unseparated) binary;
  // exports use it to normalize IPC across binaries (Figure 10).
  std::uint64_t orig_dynamic_instructions = 0;
};

// A compile index entry: the content key's hash state after each binary
// image of one compile task.
struct CompileIndexEntry {
  ImageKeyState orig, sep;
};

class ResultCache {
 public:
  // Creates `dir` (and parents) when missing; throws std::runtime_error
  // if that fails.
  explicit ResultCache(std::string dir);

  // Exclusive hold on one key, released (and its lock file removed) on
  // destruction.  Move-only.  An unheld lease — the filesystem refused
  // open or flock — still names its entry, so store() works without one.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept;
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] bool held() const noexcept { return fd_ >= 0; }

   private:
    friend class ResultCache;
    Lease(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}
    [[nodiscard]] std::string lock_path() const { return path_ + ".lock"; }
    // Unlinks the lock file once, while the flock is still held.
    void unlink_lock() const;
    void release() noexcept;

    std::string path_;  // the entry's `.result` file
    int fd_ = -1;
    mutable bool unlinked_ = false;
  };

  [[nodiscard]] std::optional<CacheEntry> load(const std::string& key) const;
  // Blocks while another thread or process leases `key`.  A process must
  // not lease a key it already holds: the second flock would wait on the
  // first forever.
  [[nodiscard]] Lease lease(const std::string& key) const;
  // Publishes `entry` under the lease's key, then removes its lock file.
  // Returns false (and leaves the cache unchanged) on I/O failure.
  bool store(const Lease& lease, const CacheEntry& entry) const;
  // store(lease(key), entry).
  bool store(const std::string& key, const CacheEntry& entry) const;

  // The compile index, under a compile_index_key.  load_compile is a miss
  // on a missing, foreign or damaged entry (quarantined as above);
  // store_compile returns false on I/O failure.
  [[nodiscard]] std::optional<CompileIndexEntry> load_compile(
      const std::string& index_key) const;
  bool store_compile(const std::string& index_key,
                     const CompileIndexEntry& entry) const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  [[nodiscard]] std::string path_for(const std::string& key) const;
  [[nodiscard]] std::string compile_path_for(const std::string& key) const;

  std::string dir_;
};

}  // namespace hidisc::lab
