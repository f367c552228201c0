#include "compiler/compile.hpp"

#include <stdexcept>

#include "compiler/verify.hpp"
#include "mem/memory_system.hpp"

namespace hidisc::compiler {

Compilation compile(const isa::Program& prog, const CompileOptions& opt) {
  Compilation out;
  out.original = prog;

  // 1. One streamed profiling run (functional; also validates that the
  // program halts).  Nothing downstream needs the trace itself.
  const ProfileObserver observer = profile_run(
      out.original, mem::MemConfig{}, opt.cmas.trigger_distance,
      opt.max_steps);
  out.profile = observer.profile();

  // 2. CMAS extraction annotates the original binary in place.
  if (opt.enable_cmas)
    out.groups = extract_cmas(out.original, observer, opt.cmas);

  // 3. Stream separation of the (now annotated) binary, with the dynamic
  // profile guiding communication-site placement.
  SeparationResult sep =
      separate_streams(out.original, &out.profile, opt.flow_sensitive_comm);
  out.separated = std::move(sep.separated);
  out.ldq_partner = std::move(sep.ldq_partner);
  out.sdq_partner = std::move(sep.sdq_partner);
  out.access_count = sep.access_count;
  out.compute_count = sep.compute_count;
  out.inserted_pops = sep.inserted_pops;
  out.pruned_transfers = sep.pruned_transfers;

  // 4. Self-check: the separated binary must satisfy every structural
  // invariant the machines rely on (compiler bug = hard error here, not a
  // mysterious timing deadlock later).
  const auto v = verify_separation(out.separated);
  if (!v.ok())
    throw std::logic_error("compiler produced an invalid separation: " +
                           v.violations.front());
  return out;
}

}  // namespace hidisc::compiler
