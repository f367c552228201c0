#include "lab/fingerprint.hpp"

#include <elf.h>
#include <link.h>
#if !defined(__x86_64__) && !defined(__i386__)
#include <sys/auxv.h>
#endif

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "isa/encoding.hpp"
#include "mem/memory_system.hpp"
#include "uarch/core.hpp"

namespace hidisc::lab {

void Fnv1a::update(const void* data, std::size_t n) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ull;
  }
}

void ImageKeyState::update(const void* data, std::size_t n) noexcept {
  // Two independent multiply chains, so the CPU overlaps them.
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint64_t a = lo.digest(), b = hi.digest();
  for (std::size_t i = 0; i < n; ++i) {
    a = (a ^ p[i]) * 0x100000001b3ull;
    b = (b ^ p[i]) * 0x100000001b3ull;
  }
  lo = Fnv1a(a);
  hi = Fnv1a(b);
}

namespace {

class Describer {
 public:
  void field(const char* name, int v) {
    field(name, static_cast<std::int64_t>(v));
  }
  void field(const char* name, std::int64_t v) {
    out_ += name;
    out_ += '=';
    out_ += std::to_string(v);
    out_ += ';';
  }
  void field(const char* name, double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%s=%.17g;", name, v);
    out_ += buf;
  }
  void field(const char* name, const std::string& v) {
    out_ += name;
    out_ += '=';
    out_ += v;
    out_ += ';';
  }
  // Fields rendered ahead of time: those of retired models, frozen at the
  // values they were keyed with so keys written while the model existed
  // stay valid, and the constant Table-1 cores.
  void rendered(const std::string& fields) { out_ += fields; }

  void cache(const char* prefix, const mem::CacheConfig& c, int latency) {
    const std::string p = prefix;
    field((p + ".sets").c_str(), c.sets);
    field((p + ".block").c_str(), c.block_bytes);
    field((p + ".assoc").c_str(), c.assoc);
    field((p + ".lat").c_str(), latency);
  }

  void core(const char* prefix, const uarch::CoreConfig& c) {
    const std::string p = prefix;
    field((p + ".window").c_str(), c.window);
    field((p + ".issue").c_str(), c.issue_width);
    field((p + ".commit").c_str(), c.commit_width);
    field((p + ".dispatch").c_str(), c.dispatch_width);
    field((p + ".iq").c_str(), c.input_queue);
    field((p + ".lsq").c_str(), c.lsq);
    field((p + ".ialu").c_str(), c.int_alu);
    field((p + ".imul").c_str(), c.int_muldiv);
    field((p + ".falu").c_str(), c.fp_alu);
    field((p + ".fmul").c_str(), c.fp_muldiv);
    field((p + ".ports").c_str(), c.mem_ports);
    field((p + ".lsu").c_str(), c.has_lsu ? 1 : 0);
    field((p + ".pfonly").c_str(), c.prefetch_only ? 1 : 0);
    field((p + ".qpops").c_str(), uarch::kQueuePopsPerCycle);
  }

  void mem(const char* prefix, const mem::MemConfig& m) {
    const std::string p = prefix;
    cache((p + ".l1").c_str(), mem::kL1Cache, mem::kL1Latency);
    rendered(p + ".l1i.sets=512;" + p + ".l1i.block=32;" + p +
             ".l1i.assoc=1;" + p + ".l1i.lat=1;");  // the I-cache model
    cache((p + ".l2").c_str(), mem::kL2Cache, m.l2_latency);
    field((p + ".dram").c_str(), m.dram_latency);
    field((p + ".bus").c_str(), m.l2_bus_cycles);
    // Appended only when a prefetcher is enabled: pre-prefetcher keys stay
    // valid, and perturbing a knob of a *disabled* prefetcher (which cannot
    // change the simulation) leaves the key untouched.  The canonical spec
    // string already omits knobs at their defaults.
    if (m.prefetch.kind != mem::PrefetchKind::None)
      field((p + ".pf").c_str(), mem::prefetch_spec(m.prefetch));
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

// The four Table-1 cores' fields, which no configuration varies: rendered
// once per process.
const std::string& table1_cores() {
  static const std::string cores = [] {
    Describer d;
    d.core("ss", machine::kSuperscalarCore);
    d.core("cp", machine::kCpCore);
    d.core("ap", machine::kApCore);
    d.core("cmp", machine::kCmpCore);
    return d.take();
  }();
  return cores;
}

// compile() profiles on the default memory system, so the compile key's
// `pmem` segment is a constant too: rendered once per process.
const std::string& profiling_mem() {
  static const std::string pmem = [] {
    Describer d;
    d.mem("pmem", mem::MemConfig{});
    return d.take();
  }();
  return pmem;
}

}  // namespace

std::string describe(const machine::MachineConfig& cfg) {
  Describer d;
  d.mem("mem", cfg.mem);
  d.field("fetch_width", cfg.fetch_width);
  d.field("redirect", machine::kRedirectPenalty);
  d.field("predictor", machine::kPredictorTable);
  d.field("btb", machine::kBtbSize);
  d.field("predictor_kind", static_cast<std::int64_t>(cfg.predictor_kind));
  d.rendered("icache=0;");  // the I-cache model
  // One capacity, two key fields, as when LDQ and SDQ were sized apart.
  d.field("ldq", static_cast<std::int64_t>(cfg.queue_capacity));
  d.field("sdq", static_cast<std::int64_t>(cfg.queue_capacity));
  d.field("scq", static_cast<std::int64_t>(machine::kScqCapacity));
  d.rendered(table1_cores());
  // Appended only off its Table-1 default, like the prefetcher, so keys
  // written before it was keyed stay valid.
  if (cfg.cmp_prefetch_buffer != machine::MachineConfig{}.cmp_prefetch_buffer)
    d.field("cmp.pfbuf", cfg.cmp_prefetch_buffer);
  d.field("cmp_contexts", machine::kCmpContexts);
  d.field("cmp_targets", cfg.cmp_targets_per_fork);
  d.field("cmp_lookahead", cfg.cmp_fork_lookahead);
  d.field("cmp_chaining", cfg.cmp_chaining ? 1 : 0);
  d.field("cmp_dyn_dist", cfg.cmp_dynamic_distance ? 1 : 0);
  d.field("cmp_adaptive", cfg.cmp_adaptive_range ? 1 : 0);
  d.field("cmp_range_samples",
          static_cast<std::int64_t>(machine::kCmpRangeMinSamples));
  d.field("cmp_range_use", machine::kCmpRangeMinUse);
  d.field("cmp_range_reprobe", machine::kCmpRangeReprobe);
  d.field("cmp_la_min", machine::kCmpLookaheadMin);
  d.field("cmp_la_max", machine::kCmpLookaheadMax);
  d.field("cmp_adapt_ivl",
          static_cast<std::int64_t>(machine::kCmpAdaptInterval));
  d.field("cmp_runahead", machine::kCmpMaxRunahead);
  d.field("watchdog", static_cast<std::int64_t>(cfg.watchdog_cycles));
  return d.take();
}

std::string describe(const compiler::CompileOptions& opt) {
  Describer d;
  d.rendered(profiling_mem());
  d.field("max_steps", static_cast<std::int64_t>(opt.max_steps));
  d.field("cmas", opt.enable_cmas ? 1 : 0);
  d.field("cmas.miss_rate", opt.cmas.miss_rate_threshold);
  d.field("cmas.min_misses", static_cast<std::int64_t>(opt.cmas.min_misses));
  d.field("cmas.trigger_dist", opt.cmas.trigger_distance);
  d.field("flow_comm", opt.flow_sensitive_comm ? 1 : 0);
  return d.take();
}

std::string hex128(const Fnv1a& lo, const Fnv1a& hi) {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016" PRIx64 "%016" PRIx64, lo.digest(),
                hi.digest());
  return buf;
}

std::string content_key(const isa::Program& binary, machine::Preset preset,
                        const machine::MachineConfig& cfg) {
  return content_key(image_key_state(isa::save_program(binary)), preset, cfg);
}

ImageKeyState image_key_state(const std::vector<std::uint8_t>& image) {
  // Two independently seeded streams -> 128 bits; collisions across a
  // cache directory of any realistic size are then out of the question.
  ImageKeyState st;
  st.update(image.data(), image.size());
  return st;
}

std::string content_key(const ImageKeyState& image, machine::Preset preset,
                        const machine::MachineConfig& cfg) {
  ImageKeyState st = image;
  st.update(machine::preset_name(preset));
  st.update(describe(cfg));
  return hex128(st.lo, st.hi);
}

namespace {

// Hex of the object's NT_GNU_BUILD_ID note; empty when it has none.
std::string object_build_id(const dl_phdr_info& info) {
  for (int i = 0; i < info.dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info.dlpi_phdr[i];
    if (ph.p_type != PT_NOTE) continue;
    const auto* p = reinterpret_cast<const unsigned char*>(info.dlpi_addr +
                                                           ph.p_vaddr);
    const unsigned char* const end = p + ph.p_memsz;
    const std::size_t align = ph.p_align == 8 ? 8 : 4;
    const auto padded = [align](std::size_t n) {
      return (n + align - 1) / align * align;
    };
    while (static_cast<std::size_t>(end - p) >= sizeof(ElfW(Nhdr))) {
      ElfW(Nhdr) note;
      std::memcpy(&note, p, sizeof note);
      const unsigned char* name = p + sizeof note;
      const unsigned char* desc = name + padded(note.n_namesz);
      const unsigned char* next = desc + padded(note.n_descsz);
      if (next > end) break;
      if (note.n_type == NT_GNU_BUILD_ID && note.n_namesz == 4 &&
          std::memcmp(name, "GNU", 4) == 0 && note.n_descsz > 0) {
        std::string hex;
        char byte[3];
        for (std::size_t b = 0; b < note.n_descsz; ++b) {
          std::snprintf(byte, sizeof byte, "%02x", desc[b]);
          hex += byte;
        }
        return hex;
      }
      p = next;
    }
  }
  return {};
}

std::string cpu_features() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  return std::string("fma=") + (__builtin_cpu_supports("fma") ? "1" : "0") +
         ";fma4=" + (__builtin_cpu_supports("fma4") ? "1" : "0") +
         ";avx2=" + (__builtin_cpu_supports("avx2") ? "1" : "0") + ";";
#else
  std::string f = "hwcap=" + std::to_string(getauxval(AT_HWCAP)) + ";";
#ifdef AT_HWCAP2
  f += "hwcap2=" + std::to_string(getauxval(AT_HWCAP2)) + ";";
#endif
  return f;
#endif
}

}  // namespace

std::optional<std::string> build_identity(
    const std::vector<std::string>& build_ids) {
  std::string id;
  for (const std::string& b : build_ids) {
    if (b.empty()) return std::nullopt;
    id += "build-id=" + b + ";";
  }
  return id + cpu_features();
}

const std::optional<std::string>& process_build_identity() {
  static const std::optional<std::string> identity = [] {
    std::vector<std::string> ids;
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* out) {
          static_cast<std::vector<std::string>*>(out)->push_back(
              object_build_id(*info));
          return 0;
        },
        &ids);
    return build_identity(ids);
  }();
  return identity;
}

std::string compile_index_key(const std::string& identity,
                              const std::string& compile_key) {
  static constexpr char kTag[] = "lab.compile-index|";
  ImageKeyState st;
  st.update(kTag, sizeof kTag - 1);
  st.update(identity);
  st.update(compile_key);
  return hex128(st.lo, st.hi);
}

}  // namespace hidisc::lab
