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

namespace detail {

template <class R, class V>
void visit_cache_stats(const std::string& p, R& s, V&& v) {
  v(p + ".reads", s.reads);
  v(p + ".read_misses", s.read_misses);
  v(p + ".writes", s.writes);
  v(p + ".write_misses", s.write_misses);
  v(p + ".prefetches", s.prefetches);
  v(p + ".prefetch_misses", s.prefetch_misses);
  v(p + ".evictions", s.evictions);
  v(p + ".writebacks", s.writebacks);
  v(p + ".useful_prefetches", s.useful_prefetches);
  v(p + ".late_fill_hits", s.late_fill_hits);
  v(p + ".late_prefetch_hits", s.late_prefetch_hits);
}

template <class R, class V>
void visit_core_stats(const std::string& p, R& s, V&& v) {
  v(p + ".committed", s.committed);
  v(p + ".committed_all", s.committed_all);
  v(p + ".loads", s.loads);
  v(p + ".stores", s.stores);
  v(p + ".forwarded_loads", s.forwarded_loads);
  v(p + ".window_full_stalls", s.window_full_stalls);
  v(p + ".lsq_full_stalls", s.lsq_full_stalls);
  v(p + ".queue_full_commit_stalls", s.queue_full_commit_stalls);
  v(p + ".head_pop_empty_stalls", s.head_pop_empty_stalls);
  v(p + ".lod_stalls", s.lod_stalls);
  v(p + ".busy_cycles", s.busy_cycles);
}

template <class R, class V>
void visit_fifo_stats(const std::string& p, R& s, V&& v) {
  v(p + ".pushes", s.pushes);
  v(p + ".pops", s.pops);
  v(p + ".full_stall_cycles", s.full_stall_cycles);
  v(p + ".empty_stall_cycles", s.empty_stall_cycles);
  v(p + ".max_occupancy", s.max_occupancy);
}

}  // namespace detail

// `R` is machine::Result or const machine::Result; `v(name, fieldref)` is
// invoked once per scalar field with a reference of the field's own type
// (uint64_t, size_t, double, bool, int64_t).
template <class R, class V>
void visit_result_fields(R& r, V&& v) {
  v(std::string("cycles"), r.cycles);
  v(std::string("instructions"), r.instructions);
  v(std::string("ipc"), r.ipc);
  detail::visit_cache_stats("l1", r.l1, v);
  detail::visit_cache_stats("l2", r.l2, v);
  v(std::string("pf.trains"), r.pf.trains);
  v(std::string("pf.issued"), r.pf.issued);
  v(std::string("pf.filtered"), r.pf.filtered);
  v(std::string("pf.installed"), r.pf.installed);
  v(std::string("pf.used"), r.pf.used);
  v(std::string("pf.late"), r.pf.late);
  v(std::string("pf.evicted_unused"), r.pf.evicted_unused);
  v(std::string("pf.accuracy"), r.pf_accuracy);
  v(std::string("pf.coverage"), r.pf_coverage);
  v(std::string("pf.lateness"), r.pf_lateness);
  v(std::string("branch.lookups"), r.branch.lookups);
  v(std::string("branch.mispredicts"), r.branch.mispredicts);
  v(std::string("has_main"), r.has_main);
  v(std::string("has_cp"), r.has_cp);
  v(std::string("has_ap"), r.has_ap);
  v(std::string("has_cmp"), r.has_cmp);
  detail::visit_core_stats("main", r.main, v);
  detail::visit_core_stats("cp", r.cp, v);
  detail::visit_core_stats("ap", r.ap, v);
  detail::visit_core_stats("cmp", r.cmp, v);
  detail::visit_fifo_stats("ldq", r.ldq, v);
  detail::visit_fifo_stats("sdq", r.sdq, v);
  detail::visit_fifo_stats("scq", r.scq, v);
  v(std::string("fetch_stall_branch_cycles"), r.fetch_stall_branch_cycles);
  v(std::string("fetch_stall_queue_full"), r.fetch_stall_queue_full);
  v(std::string("cmas_forks"), r.cmas_forks);
  v(std::string("cmas_forks_dropped"), r.cmas_forks_dropped);
  v(std::string("cmas_forks_suppressed"), r.cmas_forks_suppressed);
  v(std::string("cmas_uops"), r.cmas_uops);
  v(std::string("distance_adaptations"), r.distance_adaptations);
  v(std::string("final_fork_lookahead"), r.final_fork_lookahead);
}

// Flat name -> textual value map.  Doubles are rendered with %.17g so the
// round-trip is bit-exact (the cache-hit tests rely on it).
[[nodiscard]] std::map<std::string, std::string> result_to_fields(
    const machine::Result& r);

// A `name value` pair viewed where it lies (a cache entry's bytes, or a
// result_to_fields map).
using FieldView = std::pair<std::string_view, std::string_view>;

// The value of `name` in `fields`, sorted by name with equal names in
// their original order; the last of equal names wins.  Null when absent.
[[nodiscard]] const std::string_view* find_field(
    std::span<const FieldView> fields, std::string_view name);

// Inverse of result_to_fields over `fields`, sorted as for find_field;
// unknown names are ignored.  Every visited field is *required*: when
// `missing` is non-null it receives the first absent field name (or is
// cleared when the list is complete) — a torn-but-line-aligned cache
// entry must decode as corrupt, not as a silently-zeroed Result.  Callers
// passing nullptr accept defaults for absent names (legacy leniency).
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
