// Counting replacements for the global allocation functions, for tests that
// pin a path at zero heap allocations. Every operator new bumps a
// thread-local counter before delegating to malloc (malloc-backed, so
// ASan/TSan interception still sees every allocation). A test reads
// lamb::testing::thread_alloc_count() on the thread that runs the audited
// calls, before and after them.
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

/// operator new calls made so far on the calling thread.
inline std::uint64_t thread_alloc_count() { return t_alloc_count; }

inline void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  ++t_alloc_count;
  if (align <= alignof(std::max_align_t)) {
    return std::malloc(size > 0 ? size : 1);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align, size > 0 ? size : align) != 0) {
    return nullptr;
  }
  return p;
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

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
