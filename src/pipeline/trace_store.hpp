// Persistent on-disk store of functional traces, content-addressed by
// pipeline::trace_key — one binary file per trace under the cache
// directory (shared with the .result entries):
//
//   <dir>/<32-hex key>.trace
//     "hilab-trace v1\n"           header line
//     u32  endian/layout probe     0x01020304
//     u32  entry size              sizeof(sim::TraceEntry)
//     u64  entry count
//     raw TraceEntry payload       count * entry size bytes
//     u64  checksum                FNV-1a-64 of every preceding byte
//
// The pipeline no longer uses it — each sim node streams its own
// functional run — so its only user is perfbench/layers.cpp, and it is
// deleted with the benchmark's next re-anchor.
//
// The durability story mirrors the result cache (lab/result_cache.hpp):
// writes go through an advisory per-entry flock plus a per-process,
// per-thread temp file published by atomic rename; loads validate the
// header, the probe word (foreign endianness or a changed TraceEntry size
// reads as a plain miss), the payload length, and the checksum footer.
// Validation failure quarantines the file to `<name>.corrupt.<pid>.<n>`
// and reports a miss, never an error.  Bump the header version whenever
// sim::TraceEntry's layout changes — the size probe only catches
// same-size field reordering if the checksum happens to, so the version
// string is the authoritative layout tag.
#pragma once

#include <optional>
#include <string>

#include "sim/functional.hpp"

namespace hidisc::pipeline {

class TraceStore {
 public:
  // Creates `dir` (and parents) when missing; throws std::runtime_error
  // if that fails.
  explicit TraceStore(std::string dir);

  [[nodiscard]] std::optional<sim::Trace> load(const std::string& key) const;
  // Returns false (and leaves the store unchanged) on I/O failure.
  bool store(const std::string& key, const sim::Trace& trace) const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

 private:
  [[nodiscard]] std::string path_for(const std::string& key) const;

  std::string dir_;
};

}  // namespace hidisc::pipeline
