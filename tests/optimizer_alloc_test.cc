// An optimizer run whose segments all come from the cache, and which
// disables nothing, must not touch the heap: its segments are views into
// reused arrays, the cache is probed before anything is copied, and the
// pruning pass recounts in place. This executable replaces the global
// allocation functions with counting ones, so it is its own test binary
// and every other suite keeps the default allocator.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "common/rng.h"
#include "corropt/optimizer.h"
#include "corropt/path_counter.h"
#include "topology/fat_tree.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto alignment = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded =
      (size == 0 ? alignment : (size + alignment - 1) / alignment * alignment);
  return std::aligned_alloc(alignment, rounded);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace corropt::core {
namespace {

TEST(OptimizerAlloc, CachedRunThatDisablesNothingAllocatesNothing) {
  // A k=8 fat tree at 87.5% with corruption spread over every pod:
  // several independent segments, some coupled links left enabled.
  auto topo = topology::build_fat_tree(8);
  const CapacityConstraint constraint(0.875);
  CorruptionSet corruption;
  common::Rng rng(29);
  for (std::size_t index : rng.sample_without_replacement(topo.link_count(),
                                                          40)) {
    corruption.mark(
        common::LinkId(static_cast<common::LinkId::underlying_type>(index)),
        rng.log_uniform(1e-6, 1e-3));
  }
  PathCounter paths(topo);
  Optimizer optimizer(topo, paths, constraint, PenaltyFunction::linear());

  // The cold first run allocates (proof that the counter is live).
  std::size_t before = g_allocations.load();
  OptimizerResult result = optimizer.run(corruption);
  EXPECT_GT(g_allocations.load() - before, 0u);
  ASSERT_GT(result.segments, 0u);

  // Warm up: a run that disables links makes the next one re-solve the
  // segments those links touch; run until nothing more goes.
  for (int run = 0; run < 8 && !result.disabled.empty(); ++run) {
    result = optimizer.run(corruption);
  }
  ASSERT_TRUE(result.disabled.empty());

  before = g_allocations.load();
  result = optimizer.run(corruption);
  const std::size_t allocations = g_allocations.load() - before;
  EXPECT_TRUE(result.disabled.empty());
  ASSERT_GT(result.segments, 1u);
  EXPECT_EQ(result.segment_reuses, result.segments);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace corropt::core
