// bin::crc32 against a frozen slicing-by-16 reference: every length 0-2048
// at every start offset 0-15 over seeded random bytes, so both the
// carry-less-multiply bulk (on hosts that have PCLMULQDQ) and the table
// tails it hands off to are pinned to the byte-at-a-time definition.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "coral/common/binary_frame.hpp"
#include "coral/common/rng.hpp"

namespace coral {
namespace {

/// The reference: slicing-by-16 tables over the reflected 0xEDB88320
/// polynomial, the table path bin::crc32 had before the carry-less kernel.
class ReferenceCrc32 {
 public:
  ReferenceCrc32() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t_[0][i] = c;
    }
    for (int k = 1; k < 16; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t_[k][i] = t_[0][t_[k - 1][i] & 0xFFu] ^ (t_[k - 1][i] >> 8);
      }
    }
  }

  std::uint32_t operator()(const unsigned char* p, std::size_t size) const {
    std::uint32_t c = 0xFFFFFFFFu;
    for (; size >= 16; p += 16, size -= 16) {
      std::uint32_t w[4];
      std::memcpy(w, p, sizeof w);
      w[0] ^= c;
      c = 0;
      for (int word = 0; word < 4; ++word) {
        for (int byte = 0; byte < 4; ++byte) {
          c ^= t_[15 - (4 * word + byte)][(w[word] >> (8 * byte)) & 0xFFu];
        }
      }
    }
    for (std::size_t i = 0; i < size; ++i) c = t_[0][(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
  }

 private:
  std::uint32_t t_[16][256];
};

TEST(Crc32, StandardCheckValue) {
  std::printf("crc32 kernel on this host: %s\n", bin::crc32_kernel());
  const char* check = "123456789";
  EXPECT_EQ(bin::crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(bin::crc32(nullptr, 0), 0u);
  // The same bytes long enough to take the bulk path: 64 bytes of the
  // check string repeated, against the reference.
  std::string long_check;
  while (long_check.size() < 1000) long_check += check;
  const ReferenceCrc32 ref;
  EXPECT_EQ(bin::crc32(long_check.data(), long_check.size()),
            ref(reinterpret_cast<const unsigned char*>(long_check.data()),
                long_check.size()));
}

TEST(Crc32, MatchesSlicingBy16ReferenceAtEveryLengthAndOffset) {
  std::printf("crc32 kernel on this host: %s\n", bin::crc32_kernel());
  constexpr std::size_t kMaxLength = 2048;
  constexpr std::size_t kOffsets = 16;
  Rng rng(20261019);
  std::vector<unsigned char> bytes(kMaxLength + kOffsets);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng.next() & 0xFFu);
  const ReferenceCrc32 ref;
  std::size_t mismatches = 0;
  for (std::size_t offset = 0; offset < kOffsets; ++offset) {
    for (std::size_t len = 0; len <= kMaxLength; ++len) {
      const unsigned char* p = bytes.data() + offset;
      const std::uint32_t want = ref(p, len);
      const std::uint32_t got = bin::crc32(p, len);
      if (got != want && ++mismatches <= 10) {
        ADD_FAILURE() << "offset " << offset << " length " << len << ": got " << std::hex
                      << got << ", want " << want;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace coral
