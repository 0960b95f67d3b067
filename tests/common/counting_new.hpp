// Heap allocations counted by a replaced global operator new, and
// `allocations_of`, which reads the count around one call. Replacing
// operator new affects the whole program, so include this header from one
// source file of an executable of its own.
#pragma once

#include <atomic>
#include <cstdlib>
#include <new>

namespace cpm::testing {

inline std::atomic<long> g_allocations{0};

/// Heap allocations made by `fn()`.
template <class Fn>
long allocations_of(const Fn& fn) {
  const long before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

}  // namespace cpm::testing

// Out of line, like the deletes below: GCC 12 flags a malloc() or free()
// it sees inlined against the other side of new and delete
// (-Wmismatched-new-delete), which the sanitizer lane's -Werror makes an
// error.
__attribute__((noinline)) void* operator new(std::size_t size) {
  cpm::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
