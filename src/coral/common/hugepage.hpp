#pragma once

#include <cstddef>
#include <vector>

namespace coral::mem {

/// Ask the kernel to back the 2 MiB-aligned interior of [p, p + bytes) with
/// transparent huge pages (MADV_HUGEPAGE), when `bytes` is at least 32 MiB.
/// A no-op off Linux, below that size, and when the kernel refuses (THP
/// disabled or absent): the pages are then normal pages, and nothing but
/// the fault count changes.
void advise_huge_pages(void* p, std::size_t bytes);

/// Reserve room for `n` elements of a one-shot array (a decoded or
/// generated log's event vector) and advise the reservation onto huge pages
/// before anything is written to it, so the fill that follows faults in
/// 2 MiB pages instead of 4 KiB ones.
template <typename T>
void reserve_huge(std::vector<T>& v, std::size_t n) {
  v.reserve(n);
  advise_huge_pages(v.data(), v.capacity() * sizeof(T));
}

}  // namespace coral::mem
