// Content hashing for the result cache (runner.hpp / result_cache.hpp).
//
// A cell's cache key is a 128-bit FNV-1a hash over (encoded program bytes,
// preset name, canonical MachineConfig description): any change to the
// simulated binary — workload data, compiler behaviour, CMAS annotations —
// or to the machine parameters yields a new key, so stale cache entries
// can never be returned.  The canonical descriptions are also useful on
// their own for debugging ("why did this cell miss the cache?").
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "compiler/compile.hpp"
#include "isa/program.hpp"
#include "machine/config.hpp"

namespace hidisc::lab {

// 64-bit FNV-1a, seedable so two independent streams give 128 bits.
class Fnv1a {
 public:
  explicit Fnv1a(std::uint64_t seed = 0xcbf29ce484222325ull)
      : state_(seed) {}

  void update(const void* data, std::size_t n) noexcept;
  void update(const std::string& s) noexcept { update(s.data(), s.size()); }
  [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

 private:
  std::uint64_t state_;
};

// Canonical `key=value;` listing of every field that affects timing.
// Appends here whenever MachineConfig/CompileOptions grow a field — the
// lab_test fingerprint-sensitivity test guards the common cases, and
// LabFingerprint.DefaultKeysArePinned pins the default keys.
[[nodiscard]] std::string describe(const machine::MachineConfig& cfg);
[[nodiscard]] std::string describe(const compiler::CompileOptions& opt);

// 32-hex digest of two seeded FNV-1a streams that were fed identical
// bytes — the shared 128-bit formatting primitive for every
// content-addressed key (result cache entries, pipeline node keys).
[[nodiscard]] std::string hex128(const Fnv1a& lo, const Fnv1a& hi);

// 32-hex-digit content key of one simulation: the exact binary fed to the
// machine (post-compilation, annotations included), the preset, and the
// machine configuration.
[[nodiscard]] std::string content_key(const isa::Program& binary,
                                      machine::Preset preset,
                                      const machine::MachineConfig& cfg);

// The content key's two hash streams after absorbing an encoded binary
// image (isa::save_program bytes).  The image comes first in the key, so
// the pipeline hashes each image once and continues from this state for
// every cell that simulates it.
struct ImageKeyState {
  Fnv1a lo, hi{0x9e3779b97f4a7c15ull};

  // Feeds `n` bytes to both streams in one loop: the states that
  // lo.update(data, n) and hi.update(data, n) reach.
  void update(const void* data, std::size_t n) noexcept;
  void update(std::string_view s) noexcept { update(s.data(), s.size()); }
};
[[nodiscard]] ImageKeyState image_key_state(
    const std::vector<std::uint8_t>& image);

// content_key continued from an image's state:
// content_key(p, preset, cfg) ==
//     content_key(image_key_state(isa::save_program(p)), preset, cfg).
[[nodiscard]] std::string content_key(const ImageKeyState& image,
                                      machine::Preset preset,
                                      const machine::MachineConfig& cfg);

// What a compilation's output depends on besides its compile key: the
// code that builds and compiles workloads and the libraries it calls
// (libm's cos/sin set FFT's twiddles).  It is the GNU build-id of every
// loaded object, given in hex, plus the CPU features glibc's libm picks
// its variants by.  nullopt when some object has no build-id (an empty
// string): the compile index is then off, never keyed more weakly.
[[nodiscard]] std::optional<std::string> build_identity(
    const std::vector<std::string>& build_ids);
// build_identity of this process's loaded objects, gathered with
// dl_iterate_phdr on first use.
[[nodiscard]] const std::optional<std::string>& process_build_identity();

// Name of a compile task's compile-index entry (result_cache.hpp):
// H("lab.compile-index|", identity, compile key).
[[nodiscard]] std::string compile_index_key(const std::string& identity,
                                            const std::string& compile_key);

}  // namespace hidisc::lab
