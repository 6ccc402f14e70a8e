// An allocator whose large blocks come straight from the OS and go straight
// back when freed.
//
// glibc serves a thread's allocations from that thread's own arena and
// returns an arena's free pages to the OS only once its top passes a trim
// threshold that grows with the largest block freed so far. A pool worker
// that builds and frees a multi-megabyte list (the conv legal-index
// enumeration of a background refinement) therefore keeps those pages
// resident for the rest of the process, in an arena no other thread
// allocates from, and malloc_trim() does not reach an arena's top. Blocks
// of kMinMappedBytes or more are mapped and unmapped directly, so they
// leave nothing behind; smaller ones use operator new. Off POSIX every block
// uses operator new.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

namespace isaac {

template <typename T>
struct PageAllocator {
  using value_type = T;

  /// Blocks at least this large are mapped from the OS.
  static constexpr std::size_t kMinMappedBytes = std::size_t{1} << 16;

  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
#if defined(__unix__) || defined(__APPLE__)
    if (bytes >= kMinMappedBytes) {
      // MAP_POPULATE (Linux) faults the pages in with the mapping: one call
      // instead of a fault per page, each taken while other pool threads
      // walk. The lists here fill what they reserve, a growing one at least
      // half of it.
#if defined(MAP_POPULATE)
      constexpr int kPopulate = MAP_POPULATE;
#else
      constexpr int kPopulate = 0;
#endif
      void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | kPopulate, -1, 0);
      if (p == MAP_FAILED) throw std::bad_alloc();
      return static_cast<T*>(p);
    }
#endif
    return static_cast<T*>(::operator new(bytes));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    const std::size_t bytes = n * sizeof(T);
#if defined(__unix__) || defined(__APPLE__)
    if (bytes >= kMinMappedBytes) {
      munmap(p, bytes);
      return;
    }
#endif
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const PageAllocator<U>&) const noexcept {
    return true;
  }
};

/// A vector whose large buffers are mapped from the OS (see above).
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

}  // namespace isaac
