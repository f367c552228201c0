// Sparse-memory substrate tests: typed access, page crossing, zero-fill,
// bulk transfer, and digests.
#include <gtest/gtest.h>

#include "sim/memory.hpp"

namespace hidisc::sim {
namespace {

TEST(Memory, UntouchedReadsAreZero) {
  Memory m;
  EXPECT_EQ(m.read<std::uint64_t>(0xdeadbeef), 0u);
  EXPECT_EQ(m.allocated_pages(), 0u);
}

TEST(Memory, TypedRoundTrips) {
  Memory m;
  m.write<std::uint8_t>(0x10, 0xab);
  m.write<std::uint16_t>(0x20, 0x1234);
  m.write<std::uint32_t>(0x30, 0xdeadbeef);
  m.write<std::uint64_t>(0x40, 0x0123456789abcdefull);
  m.write<double>(0x50, 3.25);
  EXPECT_EQ(m.read<std::uint8_t>(0x10), 0xab);
  EXPECT_EQ(m.read<std::uint16_t>(0x20), 0x1234);
  EXPECT_EQ(m.read<std::uint32_t>(0x30), 0xdeadbeefu);
  EXPECT_EQ(m.read<std::uint64_t>(0x40), 0x0123456789abcdefull);
  EXPECT_EQ(m.read<double>(0x50), 3.25);
}

TEST(Memory, LittleEndianLayout) {
  Memory m;
  m.write<std::uint32_t>(0, 0x04030201);
  EXPECT_EQ(m.read_u8(0), 1);
  EXPECT_EQ(m.read_u8(3), 4);
}

TEST(Memory, PageCrossingAccess) {
  Memory m;
  const std::uint64_t boundary = Memory::kPageSize;
  m.write<std::uint64_t>(boundary - 4, 0x1122334455667788ull);
  EXPECT_EQ(m.read<std::uint64_t>(boundary - 4), 0x1122334455667788ull);
  EXPECT_EQ(m.allocated_pages(), 2u);
  // Halves land on both pages.
  EXPECT_EQ(m.read<std::uint32_t>(boundary - 4), 0x55667788u);
  EXPECT_EQ(m.read<std::uint32_t>(boundary), 0x11223344u);
}

TEST(Memory, BulkReadWrite) {
  Memory m;
  std::uint8_t src[300];
  for (int i = 0; i < 300; ++i) src[i] = static_cast<std::uint8_t>(i);
  m.write_bytes(Memory::kPageSize - 100, src, sizeof src);
  std::uint8_t dst[300] = {};
  m.read_bytes(Memory::kPageSize - 100, dst, sizeof dst);
  EXPECT_EQ(std::memcmp(src, dst, sizeof src), 0);
}

TEST(Memory, DigestIsContentAddressed) {
  Memory a, b;
  a.write<std::uint64_t>(0x1000, 42);
  b.write<std::uint64_t>(0x1000, 42);
  EXPECT_EQ(a.digest(), b.digest());
  b.write<std::uint64_t>(0x1008, 1);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Memory, DigestDependsOnAddressNotJustContent) {
  Memory a, b;
  a.write<std::uint64_t>(0x1000, 42);
  b.write<std::uint64_t>(0x2000, 42);  // different page, same bytes
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Memory, SamePagesFailsOnOneDifferingByte) {
  Memory a, b;
  for (std::uint64_t i = 0; i < 3 * Memory::kPageSize; i += 8) {
    a.write<std::uint64_t>(0x10000 + i, i * 7);
    b.write<std::uint64_t>(0x10000 + i, i * 7);
  }
  EXPECT_TRUE(a.same_pages(b));
  b.write_u8(0x10000 + 2 * Memory::kPageSize + 5, 0xee);
  EXPECT_FALSE(a.same_pages(b));
  EXPECT_FALSE(b.same_pages(a));
}

TEST(Memory, SamePagesFailsOnAnExtraZeroPage) {
  // A page allocated and left all-zero reads like an untouched one, but
  // the digest counts it, and so does the exact compare.
  Memory a, b;
  a.write<std::uint64_t>(0x1000, 42);
  b.write<std::uint64_t>(0x1000, 42);
  b.write<std::uint64_t>(0x8000, 0);
  EXPECT_EQ(b.read<std::uint64_t>(0x8000), 0u);
  EXPECT_NE(a.digest(), b.digest());
  EXPECT_FALSE(a.same_pages(b));
  EXPECT_FALSE(b.same_pages(a));
}

TEST(Memory, SamePagesIgnoresWriteOrder) {
  Memory a, b;
  const std::uint64_t addrs[] = {0x1000, 0x5ff8, 0x2004, 0x9000, 0x1ffc};
  for (std::size_t i = 0; i < std::size(addrs); ++i)
    a.write<std::uint32_t>(addrs[i], static_cast<std::uint32_t>(i + 1));
  for (std::size_t i = std::size(addrs); i-- > 0;)
    b.write<std::uint32_t>(addrs[i], static_cast<std::uint32_t>(i + 1));
  b.write<std::uint32_t>(0x2004, 99);  // overwritten below: order-only noise
  b.write<std::uint32_t>(0x2004, 3);
  EXPECT_TRUE(a.same_pages(b));
  EXPECT_TRUE(b.same_pages(a));
  EXPECT_EQ(a.digest(), b.digest());
}

}  // namespace
}  // namespace hidisc::sim
