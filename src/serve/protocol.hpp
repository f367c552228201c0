// The hiserve wire protocol: small, length-prefixed, versioned frames.
//
// Every message — client <-> daemon and daemon <-> worker alike — is one
// frame:
//
//   offset  size  field
//        0     4  magic    0x48535256 ("HSRV", little-endian on the wire)
//        4     2  version  kProtocolVersion (bump on incompatible change)
//        6     2  type     MsgType
//        8     4  payload length (bytes; <= kMaxPayload)
//       12     8  checksum FNV-1a-64 of the payload bytes
//       20     n  payload
//
// All integers are little-endian.  The checksum matches the result
// cache's integrity story (PR-4): a torn or bit-flipped frame is detected
// at the framing layer, before any payload parsing runs.  FrameDecoder is
// incremental — feed it arbitrary byte chunks, take whole frames out —
// and throws ProtocolError on any malformed header or checksum mismatch
// (the connection is then unrecoverable by design: framing corruption
// means the stream offset itself is untrustworthy).
//
// Payloads are newline-separated `name SP value` pairs (kv_encode /
// kv_parse) with \n and \\ escaped in values, so multi-line values —
// error messages, verbatim DeadlockReport JSON — survive the trip.  The
// machine::Result payload encoding reuses lab/serialize.hpp's field
// visitor under an `r.` prefix: a field added to Result is wire-complete
// by the same one-line change that makes it cache- and export-complete.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "lab/runner.hpp"

namespace hidisc::serve {

inline constexpr std::uint32_t kMagic = 0x48535256;  // "HSRV"
inline constexpr std::uint16_t kProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 20;
inline constexpr std::size_t kMaxPayload = 16u << 20;  // 16 MiB

// Frame types.  Client -> daemon: Hello, SubmitPlan, GetStats.
// Daemon -> client: HelloOk, PlanAccepted, CellDone, PlanDone, Stats,
// Error.  Daemon -> worker: Job, Shutdown.  Worker -> daemon: JobDone.
enum class MsgType : std::uint16_t {
  Hello = 1,
  HelloOk = 2,
  SubmitPlan = 3,
  PlanAccepted = 4,
  CellDone = 5,
  PlanDone = 6,
  GetStats = 7,
  Stats = 8,
  Error = 9,
  Job = 10,
  JobDone = 11,
  Shutdown = 12,
};

[[nodiscard]] const char* msg_type_name(MsgType t) noexcept;

// Framing-layer corruption: bad magic, unsupported version, oversize
// length, checksum mismatch.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Frame {
  MsgType type = MsgType::Error;
  std::string payload;

  bool operator==(const Frame&) const = default;
};

// One frame -> wire bytes (header + payload).
[[nodiscard]] std::string encode_frame(const Frame& f);

// Incremental decoder: feed() arbitrary chunks, next() yields complete
// frames (nullopt = need more bytes).  Throws ProtocolError on malformed
// input; the decoder is then poisoned and every later call rethrows.
class FrameDecoder {
 public:
  void feed(const void* data, std::size_t n);
  void feed(const std::string& s) { feed(s.data(), s.size()); }
  [[nodiscard]] std::optional<Frame> next();

  // Bytes buffered but not yet consumed as frames.
  [[nodiscard]] std::size_t buffered() const noexcept { return buf_.size(); }

 private:
  std::string buf_;
  std::string poison_;  // non-empty after a framing error
};

// Payload key-value helpers -------------------------------------------------

using KvMap = std::map<std::string, std::string>;

// `\` -> `\\`, newline -> `\n`; inverse of kv_unescape.
[[nodiscard]] std::string kv_escape(const std::string& v);
[[nodiscard]] std::string kv_unescape(const std::string& v);

// Serializes the map as sorted `name SP escaped-value LF` lines.
[[nodiscard]] std::string kv_encode(const KvMap& kv);
// Parses; lines without a space or with empty names are a ProtocolError.
[[nodiscard]] KvMap kv_parse(const std::string& payload);

[[nodiscard]] std::string kv_get(const KvMap& kv, const std::string& key,
                                 const std::string& fallback = "");
[[nodiscard]] std::uint64_t kv_get_u64(const KvMap& kv,
                                       const std::string& key,
                                       std::uint64_t fallback = 0);
[[nodiscard]] double kv_get_double(const KvMap& kv, const std::string& key,
                                   double fallback = 0.0);

// Message payloads ----------------------------------------------------------

// SubmitPlan (client -> daemon) and Job (daemon -> worker) share the plan
// reference encoding: plans are named registry entries, so the wire
// carries (name, scale, overrides) and both ends rebuild the identical
// plan via lab::make_plan — deterministic by construction, no program
// bytes on the wire.
struct PlanRequest {
  std::string plan;  // lab::plan_names() entry
  std::string scale = "paper";          // "paper" | "test"
  std::uint64_t watchdog = 0;           // 0 = keep per-cell thresholds
  bool lockstep = false;
  bool refresh = false;  // bypass caches, overwrite entries

  [[nodiscard]] KvMap to_kv() const;
  [[nodiscard]] static PlanRequest from_kv(const KvMap& kv);
};

// A job is one plan cell; `logical key` identity (dedup across clients)
// lives in the daemon, the wire only names the cell.
struct JobSpec {
  std::uint64_t job_id = 0;
  PlanRequest plan;
  std::uint64_t cell = 0;  // index into the rebuilt plan's cells

  [[nodiscard]] KvMap to_kv() const;
  [[nodiscard]] static JobSpec from_kv(const KvMap& kv);
};

// lab::CellResult <-> kv, used by both JobDone (worker -> daemon) and
// CellDone (daemon -> client).  `extra` lets the caller add routing
// fields (job id / cell index / dedup flag) into the same map.
[[nodiscard]] KvMap cell_result_to_kv(const lab::CellResult& r);
// Throws ProtocolError when an ok cell's Result fields are incomplete
// (the same required-field rule the result cache enforces on disk).
[[nodiscard]] lab::CellResult cell_result_from_kv(const KvMap& kv);

}  // namespace hidisc::serve
