// Sparse byte-addressable main memory.
//
// Backs both the functional simulator (architectural state) and workload
// data-set generators.  Pages are allocated on first touch; reads of
// untouched memory return zero, matching a zero-initialized address space.
//
// A one-entry page cache (a software TLB) short-circuits the hash lookup on
// the common case of consecutive accesses to the same 4 KiB page; it is what
// keeps the threaded-code interpreter's load/store handlers branch-cheap.
// Each Memory is owned by a single simulator instance and accessed from one
// thread at a time, so the mutable cache fields need no synchronisation.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

namespace hidisc::sim {

class Memory {
 public:
  static constexpr std::uint64_t kPageBits = 12;
  static constexpr std::uint64_t kPageSize = 1ull << kPageBits;
  static constexpr std::uint64_t kPageMask = kPageSize - 1;

  Memory() = default;

  // Move-only; a moved-from memory is empty with its page cache cleared.
  Memory(Memory&& other) noexcept
      : pages_(std::move(other.pages_)),
        cached_base_(other.cached_base_),
        cached_page_(other.cached_page_) {
    other.invalidate_cache();
  }
  Memory& operator=(Memory&& other) noexcept {
    if (this != &other) {
      pages_ = std::move(other.pages_);
      cached_base_ = other.cached_base_;
      cached_page_ = other.cached_page_;
      other.invalidate_cache();
    }
    return *this;
  }

  // Raw byte access ---------------------------------------------------------

  [[nodiscard]] std::uint8_t read_u8(std::uint64_t addr) const {
    const auto* page = lookup_page(addr);
    return page ? (*page)[addr & kPageMask] : 0;
  }

  void write_u8(std::uint64_t addr, std::uint8_t v) {
    page_for_write(addr)[addr & kPageMask] = v;
  }

  // Little-endian typed access; handles page-crossing transfers.
  template <typename T>
  [[nodiscard]] T read(std::uint64_t addr) const {
    T v{};
    if ((addr & kPageMask) + sizeof(T) <= kPageSize) {
      if (const auto* page = lookup_page(addr))
        std::memcpy(&v, page->data() + (addr & kPageMask), sizeof(T));
      return v;
    }
    std::uint8_t buf[sizeof(T)];
    for (std::size_t i = 0; i < sizeof(T); ++i) buf[i] = read_u8(addr + i);
    std::memcpy(&v, buf, sizeof(T));
    return v;
  }

  template <typename T>
  void write(std::uint64_t addr, T v) {
    if ((addr & kPageMask) + sizeof(T) <= kPageSize) {
      std::memcpy(page_for_write(addr).data() + (addr & kPageMask), &v,
                  sizeof(T));
      return;
    }
    std::uint8_t buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i) write_u8(addr + i, buf[i]);
  }

  // Bulk transfer used by program loading and workload generators; chunked
  // per page so multi-megabyte data sections load with memcpy, not a
  // hash-map probe per byte.
  void write_bytes(std::uint64_t addr, const void* src, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(src);
    while (n > 0) {
      const std::uint64_t off = addr & kPageMask;
      const std::size_t chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(kPageSize - off, n));
      std::memcpy(page_for_write(addr).data() + off, p, chunk);
      addr += chunk;
      p += chunk;
      n -= chunk;
    }
  }
  void read_bytes(std::uint64_t addr, void* dst, std::size_t n) const {
    auto* p = static_cast<std::uint8_t*>(dst);
    while (n > 0) {
      const std::uint64_t off = addr & kPageMask;
      const std::size_t chunk =
          static_cast<std::size_t>(std::min<std::uint64_t>(kPageSize - off, n));
      if (const auto* page = lookup_page(addr))
        std::memcpy(p, page->data() + off, chunk);
      else
        std::memset(p, 0, chunk);
      addr += chunk;
      p += chunk;
      n -= chunk;
    }
  }

  // Content digest (FNV-1a over allocated pages, page-order independent via
  // address mixing).  Equal memories produce equal digests; used by tests to
  // compare architectural outcomes cheaply.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t acc = 0;
    for (const auto& [base, page] : pages_) {
      std::uint64_t h = 1469598103934665603ull;
      for (std::uint8_t b : *page) {
        h ^= b;
        h *= 1099511628211ull;
      }
      acc ^= h ^ (base * 0x9e3779b97f4a7c15ull);
    }
    return acc;
  }

  // True when both memories hold the same allocated pages with the same
  // bytes, compared page by page with memcmp: the equality digest()
  // summarises, so an allocated all-zero page still tells two memories
  // apart.
  [[nodiscard]] bool same_pages(const Memory& other) const {
    if (pages_.size() != other.pages_.size()) return false;
    for (const auto& [base, page] : pages_) {
      const auto it = other.pages_.find(base);
      if (it == other.pages_.end() ||
          std::memcmp(page->data(), it->second->data(), kPageSize) != 0)
        return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t allocated_pages() const noexcept {
    return pages_.size();
  }

 private:
  using Page = std::vector<std::uint8_t>;

  // Cached lookup.  Only present pages are cached (a cached absent page would
  // go stale when a later store allocates it).  Page objects live behind
  // unique_ptr, so cached pointers stay valid across map rehashes.
  [[nodiscard]] const Page* lookup_page(std::uint64_t addr) const {
    const std::uint64_t base = addr >> kPageBits;
    if (base == cached_base_) return cached_page_;
    auto it = pages_.find(base);
    if (it == pages_.end()) return nullptr;
    cached_base_ = base;
    cached_page_ = it->second.get();
    return cached_page_;
  }

  Page& page_for_write(std::uint64_t addr) {
    const std::uint64_t base = addr >> kPageBits;
    if (base == cached_base_) return *cached_page_;
    auto& slot = pages_[base];
    if (!slot) slot = std::make_unique<Page>(kPageSize, std::uint8_t{0});
    cached_base_ = base;
    cached_page_ = slot.get();
    return *slot;
  }

  void invalidate_cache() const noexcept {
    cached_base_ = kNoPage;
    cached_page_ = nullptr;
  }

  static constexpr std::uint64_t kNoPage = ~0ull;

  std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
  mutable std::uint64_t cached_base_ = kNoPage;
  mutable Page* cached_page_ = nullptr;
};

}  // namespace hidisc::sim
