// Counting replacements for the global allocation functions, for tests that
// pin a path at zero heap allocations or a live heap that does not grow.
// Every operator new bumps thread-local counters of calls and of live
// blocks before delegating to malloc, and every operator delete of a block
// takes one off the live count (malloc-backed, so ASan/TSan interception
// still sees every allocation). A test reads
// lamb::testing::thread_alloc_count() or thread_live_blocks() on the thread
// that runs the audited calls, before and after them. Live blocks, not
// bytes: malloc may hand out a block larger than the request, so usable
// sizes vary from run to run.
//
// The header defines the replaceable global operator new and delete: include
// it from exactly one source file of a test binary.
//
// GCC can't see that these new/delete replacements are a matched
// malloc/free pair and warns on every inlined container call; the pairing
// is correct by construction.
#pragma once

#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace lamb::testing {

inline thread_local std::uint64_t t_alloc_count = 0;
inline thread_local std::int64_t t_live_blocks = 0;

/// operator new calls made so far on the calling thread.
inline std::uint64_t thread_alloc_count() { return t_alloc_count; }

/// Blocks operator new returned on the calling thread, less those operator
/// delete released on it.
inline std::int64_t thread_live_blocks() { return t_live_blocks; }

inline void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  ++t_alloc_count;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size > 0 ? size : 1);
  } else if (posix_memalign(&p, align, size > 0 ? size : align) != 0) {
    p = nullptr;
  }
  t_live_blocks += p != nullptr ? 1 : 0;
  return p;
}

inline void counted_free(void* p) noexcept {
  t_live_blocks -= p != nullptr ? 1 : 0;
  std::free(p);
}

}  // namespace lamb::testing

void* operator new(std::size_t size) {
  if (void* p = lamb::testing::counted_alloc(size, 0)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return lamb::testing::counted_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return lamb::testing::counted_alloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = lamb::testing::counted_alloc(size,
                                             static_cast<std::size_t>(align))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return lamb::testing::counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return lamb::testing::counted_alloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { lamb::testing::counted_free(p); }
void operator delete[](void* p) noexcept { lamb::testing::counted_free(p); }
void operator delete(void* p, std::size_t) noexcept {
  lamb::testing::counted_free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  lamb::testing::counted_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  lamb::testing::counted_free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  lamb::testing::counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  lamb::testing::counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  lamb::testing::counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  lamb::testing::counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  lamb::testing::counted_free(p);
}
