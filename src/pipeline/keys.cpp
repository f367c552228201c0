#include "pipeline/keys.hpp"

#include "lab/fingerprint.hpp"

namespace hidisc::pipeline {

namespace {

// Domain-separation prefixes: a compile key and a trace key that happen
// to hash the same bytes must still never collide across phases.
constexpr const char* kCompileTag = "pipeline.compile|";
constexpr const char* kTraceTag = "pipeline.trace|";

std::string two_stream_key(const char* tag,
                           const std::vector<std::uint8_t>& bytes,
                           const std::string& extra) {
  lab::ImageKeyState st;
  st.update(tag);
  st.update(bytes.data(), bytes.size());
  st.update(extra);
  return lab::hex128(st.lo, st.hi);
}

}  // namespace

std::string compile_key(const lab::WorkloadSpec& spec,
                        const compiler::CompileOptions& opt) {
  lab::ImageKeyState st;
  st.update(kCompileTag);
  st.update(spec.id());
  st.update(lab::describe(opt));
  return lab::hex128(st.lo, st.hi);
}

std::string trace_key(const std::vector<std::uint8_t>& binary_image,
                      std::uint64_t max_steps) {
  return two_stream_key(kTraceTag, binary_image,
                        "max_steps=" + std::to_string(max_steps) + ";");
}

std::string sim_key(const std::vector<std::uint8_t>& binary_image,
                    machine::Preset preset,
                    const machine::MachineConfig& cfg) {
  // Deliberately NOT domain-tagged: sim keys are lab::content_key, the
  // address of every on-disk .result entry.
  return lab::content_key(lab::image_key_state(binary_image), preset, cfg);
}

}  // namespace hidisc::pipeline
