// machine::Result <-> flat named fields, and the JSON/CSV exporters.
//
// One visitor (`visit_result_fields`) enumerates every scalar field of a
// Result under a stable dotted name ("l1.read_misses", "cp.lod_stalls").
// The on-disk cache format, the JSON export, the CSV export, and the
// exact-equality test helper are all derived from that single listing, so
// a field added to Result shows up everywhere by adding one line here.
//
// JSON schema (docs/LAB.md documents it for external consumers):
//   { "plan": str, "description": str, "threads": int, "wall_ms": num,
//     "failed": int,
//     "cells": [ { "workload": str, "preset": str, "tag": str,
//                  "key": str, "cached": bool, "wall_ms": num,
//                  "orig_dynamic_instructions": int, "ok": bool,
//                  "result": { "<dotted field>": num, ... },   // ok cells
//                  "error": str, "error_class": str,           // failed
//                  "diagnostic": obj|null } ] }                // cells
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "machine/result.hpp"

namespace hidisc::lab {

// A field's dotted name in two parts, "l1" and "read_misses" for
// "l1.read_misses"; `prefix` is empty for an undotted name.  The parts
// are string literals, so visiting builds no strings.
struct FieldName {
  std::string_view prefix, leaf;

  [[nodiscard]] std::string str() const {
    std::string s(prefix);
    if (!s.empty()) s += '.';
    s += leaf;
    return s;
  }
};

namespace detail {

template <class R, class V>
void visit_cache_stats(std::string_view p, R& s, V&& v) {
  v(FieldName{p, "reads"}, s.reads);
  v(FieldName{p, "read_misses"}, s.read_misses);
  v(FieldName{p, "writes"}, s.writes);
  v(FieldName{p, "write_misses"}, s.write_misses);
  v(FieldName{p, "prefetches"}, s.prefetches);
  v(FieldName{p, "prefetch_misses"}, s.prefetch_misses);
  v(FieldName{p, "evictions"}, s.evictions);
  v(FieldName{p, "writebacks"}, s.writebacks);
  v(FieldName{p, "useful_prefetches"}, s.useful_prefetches);
  v(FieldName{p, "late_fill_hits"}, s.late_fill_hits);
  v(FieldName{p, "late_prefetch_hits"}, s.late_prefetch_hits);
}

template <class R, class V>
void visit_core_stats(std::string_view p, R& s, V&& v) {
  v(FieldName{p, "committed"}, s.committed);
  v(FieldName{p, "committed_all"}, s.committed_all);
  v(FieldName{p, "loads"}, s.loads);
  v(FieldName{p, "stores"}, s.stores);
  v(FieldName{p, "forwarded_loads"}, s.forwarded_loads);
  v(FieldName{p, "window_full_stalls"}, s.window_full_stalls);
  v(FieldName{p, "lsq_full_stalls"}, s.lsq_full_stalls);
  v(FieldName{p, "queue_full_commit_stalls"}, s.queue_full_commit_stalls);
  v(FieldName{p, "head_pop_empty_stalls"}, s.head_pop_empty_stalls);
  v(FieldName{p, "lod_stalls"}, s.lod_stalls);
  v(FieldName{p, "busy_cycles"}, s.busy_cycles);
}

template <class R, class V>
void visit_fifo_stats(std::string_view p, R& s, V&& v) {
  v(FieldName{p, "pushes"}, s.pushes);
  v(FieldName{p, "pops"}, s.pops);
  v(FieldName{p, "full_stall_cycles"}, s.full_stall_cycles);
  v(FieldName{p, "empty_stall_cycles"}, s.empty_stall_cycles);
  v(FieldName{p, "max_occupancy"}, s.max_occupancy);
}

}  // namespace detail

// `R` is machine::Result or const machine::Result; `v(name, fieldref)` is
// invoked once per scalar field, with its FieldName and a reference of the
// field's own type (uint64_t, size_t, double, bool, int64_t).
template <class R, class V>
void visit_result_fields(R& r, V&& v) {
  v(FieldName{"", "cycles"}, r.cycles);
  v(FieldName{"", "instructions"}, r.instructions);
  v(FieldName{"", "ipc"}, r.ipc);
  detail::visit_cache_stats("l1", r.l1, v);
  detail::visit_cache_stats("l2", r.l2, v);
  v(FieldName{"pf", "trains"}, r.pf.trains);
  v(FieldName{"pf", "issued"}, r.pf.issued);
  v(FieldName{"pf", "filtered"}, r.pf.filtered);
  v(FieldName{"pf", "installed"}, r.pf.installed);
  v(FieldName{"pf", "used"}, r.pf.used);
  v(FieldName{"pf", "late"}, r.pf.late);
  v(FieldName{"pf", "evicted_unused"}, r.pf.evicted_unused);
  v(FieldName{"pf", "accuracy"}, r.pf_accuracy);
  v(FieldName{"pf", "coverage"}, r.pf_coverage);
  v(FieldName{"pf", "lateness"}, r.pf_lateness);
  v(FieldName{"branch", "lookups"}, r.branch.lookups);
  v(FieldName{"branch", "mispredicts"}, r.branch.mispredicts);
  v(FieldName{"", "has_main"}, r.has_main);
  v(FieldName{"", "has_cp"}, r.has_cp);
  v(FieldName{"", "has_ap"}, r.has_ap);
  v(FieldName{"", "has_cmp"}, r.has_cmp);
  detail::visit_core_stats("main", r.main, v);
  detail::visit_core_stats("cp", r.cp, v);
  detail::visit_core_stats("ap", r.ap, v);
  detail::visit_core_stats("cmp", r.cmp, v);
  detail::visit_fifo_stats("ldq", r.ldq, v);
  detail::visit_fifo_stats("sdq", r.sdq, v);
  detail::visit_fifo_stats("scq", r.scq, v);
  v(FieldName{"", "fetch_stall_branch_cycles"},
    r.fetch_stall_branch_cycles);
  v(FieldName{"", "fetch_stall_queue_full"}, r.fetch_stall_queue_full);
  v(FieldName{"", "cmas_forks"}, r.cmas_forks);
  v(FieldName{"", "cmas_forks_dropped"}, r.cmas_forks_dropped);
  v(FieldName{"", "cmas_forks_suppressed"}, r.cmas_forks_suppressed);
  v(FieldName{"", "cmas_uops"}, r.cmas_uops);
  v(FieldName{"", "distance_adaptations"}, r.distance_adaptations);
  v(FieldName{"", "final_fork_lookahead"}, r.final_fork_lookahead);
}

// Flat name -> textual value map.  Doubles are rendered with %.17g so the
// round-trip is bit-exact (the cache-hit tests rely on it).
[[nodiscard]] std::map<std::string, std::string> result_to_fields(
    const machine::Result& r);

// A `name value` pair viewed where it lies (a cache entry's bytes, or a
// result_to_fields map).
using FieldView = std::pair<std::string_view, std::string_view>;

// Inverse of result_to_fields over `fields`, in any order; the last of
// equal names wins and unknown names are ignored.  Every visited field is
// *required*: when `missing` is non-null it receives the first absent
// field name (or is cleared when the list is complete) — a
// torn-but-line-aligned cache entry must decode as corrupt, not as a
// silently-zeroed Result.  Callers passing nullptr accept defaults for
// absent names (legacy leniency).
[[nodiscard]] machine::Result result_from_fields(
    std::span<const FieldView> fields, std::string* missing = nullptr);

// True when every visited field compares equal (doubles bit-for-bit).
[[nodiscard]] bool results_identical(const machine::Result& a,
                                     const machine::Result& b);

// JSON string escaping + number formatting helpers shared by the export
// and the cache.
[[nodiscard]] std::string json_escape(const std::string& s);
[[nodiscard]] std::string format_double(double v);

// FNV-1a 64-bit hash; the cache's checksum footer.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view data) noexcept;

}  // namespace hidisc::lab
