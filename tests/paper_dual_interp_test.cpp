// Paper-scale dual-interpreter equivalence (docs/FUNCTIONAL.md): every
// registry workload (paper_suite and extra_suite at Scale::Paper), in its
// original and its separated binary, runs under the reference switch
// interpreter (run_trace_ref), the threaded interpreter's whole trace
// (run_trace) and its streamed chunks (a stream_chunk loop, compared as
// they arrive).  All three must agree byte for byte on the trace and exactly on
// the error, pc, instructions(), halted() and the final architectural
// state (same_arch_state).
//
// The largest trace (Neighborhood, separated) holds ~5.4 M entries, so the
// test takes seconds and a few hundred MB: it is registered only with
// -DHIDISC_SLOW_TESTS=ON, under the `slow` label.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <span>
#include <string>

#include "compiler/compile.hpp"
#include "sim/functional.hpp"
#include "workloads/common.hpp"

namespace hidisc::sim {
namespace {

constexpr std::size_t kSame = static_cast<std::size_t>(-1);

// Index of the first entry where `got` differs from want[at, ...), or kSame.
std::size_t first_difference(std::span<const TraceEntry> got,
                             const Trace& want, std::size_t at) {
  for (std::size_t i = 0; i < got.size(); ++i)
    if (at + i >= want.size() ||
        std::memcmp(&got[i], &want[at + i], sizeof(TraceEntry)) != 0)
      return at + i;
  return kSame;
}

// The ExecError text `fn` throws, or "" when it returns.
template <class Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ExecError& e) {
    return e.what();
  }
  return {};
}

void expect_matches_reference(const isa::Program& prog) {
  Functional ref(prog);
  Trace want;
  ASSERT_EQ(error_of([&] { want = ref.run_trace_ref(); }), "");
  ASSERT_FALSE(want.empty());

  const auto expect_same_end = [&](const Functional& f,
                                   const std::string& err) {
    EXPECT_EQ(err, "");
    EXPECT_EQ(f.pc(), ref.pc());
    EXPECT_EQ(f.instructions(), ref.instructions());
    EXPECT_EQ(f.halted(), ref.halted());
    EXPECT_TRUE(f.same_arch_state(ref));
  };
  {
    SCOPED_TRACE("run_trace");
    Functional whole(prog);
    Trace got;
    expect_same_end(whole, error_of([&] { got = whole.run_trace(); }));
    EXPECT_EQ(got.size(), want.size());
    EXPECT_EQ(first_difference(got, want, 0), kSame);
  }
  {
    SCOPED_TRACE("stream_chunk");
    Functional streamed(prog);
    std::size_t delivered = 0;
    std::size_t diff = kSame;
    expect_same_end(streamed, error_of([&] {
      Trace chunk;
      while (!streamed.halted()) {
        chunk.clear();
        streamed.stream_chunk(chunk, Functional::kDefaultMaxSteps,
                              Functional::kStreamChunk);
        if (diff == kSame) diff = first_difference(chunk, want, delivered);
        delivered += chunk.size();
      }
    }));
    EXPECT_EQ(delivered, want.size());
    EXPECT_EQ(diff, kSame);
  }
}

TEST(PaperDualInterpreter, EveryRegistryWorkloadMatchesTheReference) {
  std::size_t checked = 0;
  for (const auto& suite : {workloads::paper_suite(workloads::Scale::Paper),
                            workloads::extra_suite(workloads::Scale::Paper)})
    for (const auto& w : suite) {
      const auto comp = compiler::compile(w.program);
      {
        SCOPED_TRACE(w.name + " original");
        expect_matches_reference(comp.original);
      }
      {
        SCOPED_TRACE(w.name + " separated");
        expect_matches_reference(comp.separated);
      }
      ++checked;
    }
  EXPECT_EQ(checked, 11u);
}

}  // namespace
}  // namespace hidisc::sim
