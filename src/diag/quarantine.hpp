// Forensic quarantine, shared by every corruption-tolerant store (result
// cache, trace store): a damaged file is moved aside under a unique name
// instead of being deleted, so the specimen survives for triage while the
// store recovers.
//
// Uniqueness matters: with several processes sharing a directory, a
// fixed `<path>.corrupt` destination would let a second quarantine
// clobber the first one's evidence (or race its rename).  pid plus a
// process-local counter keeps every specimen.
#pragma once

#include <string>

namespace hidisc::diag {

// "<path>.corrupt.<pid>.<n>" with a fresh n per call.
[[nodiscard]] std::string quarantine_path_for(const std::string& path);

// Best-effort rename of `path` to a fresh quarantine name; returns the
// destination ("" when the rename failed).
std::string quarantine_file(const std::string& path);

}  // namespace hidisc::diag
