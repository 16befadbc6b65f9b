#include "coral/common/hugepage.hpp"

#include <cstdint>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace coral::mem {

namespace {

/// glibc's malloc never raises its dynamic mmap threshold above 32 MiB, so
/// a request this large gets a mapping of its own (unless a free heap chunk
/// already holds it), and the advice goes with the mapping when the array
/// is freed instead of staying on a heap range that later small
/// allocations reuse.
constexpr std::size_t kHugeAdviceMinBytes = std::size_t{32} << 20;

}  // namespace

void advise_huge_pages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (p == nullptr || bytes < kHugeAdviceMinBytes) return;
  constexpr std::uintptr_t kHugePage = std::uintptr_t{2} << 20;
  const auto begin = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = (begin + kHugePage - 1) & ~(kHugePage - 1);
  const std::uintptr_t last = (begin + bytes) & ~(kHugePage - 1);
  if (last <= first) return;
  // Advice only: a kernel without THP answers EINVAL and the array keeps
  // normal pages.
  ::madvise(reinterpret_cast<void*>(first), last - first, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace coral::mem
