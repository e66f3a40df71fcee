// Unit and stress tests for the Chase-Lev work-stealing deque.
#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/deque.hpp"
#include "runtime/task.hpp"

namespace rt = bots::rt;

namespace {

/// Dummy tasks: the deque only traffics in pointers.
struct TaskArena {
  explicit TaskArena(std::size_t n) : tasks(new rt::Task[n]), size(n) {}
  rt::Task* at(std::size_t i) { return &tasks[i]; }
  std::unique_ptr<rt::Task[]> tasks;
  std::size_t size;
};

TEST(Deque, PopFromEmptyIsNull) {
  rt::WorkStealingDeque d;
  EXPECT_EQ(d.pop(), nullptr);
  EXPECT_EQ(d.steal(), nullptr);
  EXPECT_TRUE(d.empty_estimate());
}

TEST(Deque, PopIsLifo) {
  rt::WorkStealingDeque d;
  TaskArena a(3);
  d.push(a.at(0));
  d.push(a.at(1));
  d.push(a.at(2));
  EXPECT_EQ(d.size_estimate(), 3);
  EXPECT_EQ(d.pop(), a.at(2));
  EXPECT_EQ(d.pop(), a.at(1));
  EXPECT_EQ(d.pop(), a.at(0));
  EXPECT_EQ(d.pop(), nullptr);
}

TEST(Deque, StealIsFifo) {
  rt::WorkStealingDeque d;
  TaskArena a(3);
  d.push(a.at(0));
  d.push(a.at(1));
  d.push(a.at(2));
  EXPECT_EQ(d.steal(), a.at(0));
  EXPECT_EQ(d.steal(), a.at(1));
  EXPECT_EQ(d.steal(), a.at(2));
  EXPECT_EQ(d.steal(), nullptr);
}

TEST(Deque, MixedPopAndStealDisjoint) {
  rt::WorkStealingDeque d;
  TaskArena a(4);
  for (std::size_t i = 0; i < 4; ++i) d.push(a.at(i));
  EXPECT_EQ(d.steal(), a.at(0));
  EXPECT_EQ(d.pop(), a.at(3));
  EXPECT_EQ(d.steal(), a.at(1));
  EXPECT_EQ(d.pop(), a.at(2));
  EXPECT_EQ(d.pop(), nullptr);
}

TEST(Deque, GrowsBeyondInitialCapacity) {
  rt::WorkStealingDeque d(16);
  constexpr std::size_t n = 10'000;
  TaskArena a(n);
  for (std::size_t i = 0; i < n; ++i) d.push(a.at(i));
  EXPECT_EQ(d.size_estimate(), static_cast<std::int64_t>(n));
  for (std::size_t i = n; i-- > 0;) {
    EXPECT_EQ(d.pop(), a.at(i));
  }
}

TEST(Deque, InterleavedPushPopAcrossGrowth) {
  rt::WorkStealingDeque d(16);
  TaskArena a(100'000);
  std::size_t next = 0;
  std::vector<rt::Task*> expect;
  for (int round = 0; round < 1000; ++round) {
    for (int k = 0; k < 73; ++k) {
      d.push(a.at(next));
      expect.push_back(a.at(next));
      ++next;
    }
    for (int k = 0; k < 31; ++k) {
      rt::Task* t = d.pop();
      ASSERT_EQ(t, expect.back());
      expect.pop_back();
    }
  }
  while (!expect.empty()) {
    ASSERT_EQ(d.pop(), expect.back());
    expect.pop_back();
  }
}

/// Concurrency stress: one owner pushes/pops, several thieves steal; every
/// task must be claimed exactly once overall.
TEST(Deque, ConcurrentStealClaimsEachTaskOnce) {
  constexpr std::size_t total = 200'000;
  constexpr int n_thieves = 6;
  rt::WorkStealingDeque d(64);
  TaskArena a(total);
  std::vector<std::atomic<int>> claimed(total);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> stolen{0};
  auto claim = [&](rt::Task* t) {
    const std::size_t idx = static_cast<std::size_t>(t - a.at(0));
    claimed[idx].fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  thieves.reserve(n_thieves);
  for (int i = 0; i < n_thieves; ++i) {
    thieves.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        if (rt::Task* t = d.steal()) {
          claim(t);
          stolen.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // Final drain.
      while (rt::Task* t = d.steal()) {
        claim(t);
        stolen.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::size_t popped = 0;
  for (std::size_t i = 0; i < total; ++i) {
    d.push(a.at(i));
    if (i % 3 == 0) {
      if (rt::Task* t = d.pop()) {
        claim(t);
        ++popped;
      }
    }
  }
  while (rt::Task* t = d.pop()) {
    claim(t);
    ++popped;
  }
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();

  std::size_t claimed_total = 0;
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_LE(claimed[i].load(), 1) << "task " << i << " claimed twice";
    claimed_total += static_cast<std::size_t>(claimed[i].load());
  }
  EXPECT_EQ(claimed_total, total);
  EXPECT_EQ(popped + stolen.load(), total);
}

// ---------------------------------------------------------------------------
// steal_batch.
// ---------------------------------------------------------------------------

TEST(Deque, StealBatchFromEmptyIsZero) {
  rt::WorkStealingDeque d;
  rt::Task* out[8];
  EXPECT_EQ(d.steal_batch(out, 8), 0u);
}

TEST(Deque, StealBatchTakesHalfOldestFirst) {
  rt::WorkStealingDeque d;
  TaskArena a(8);
  for (std::size_t i = 0; i < 8; ++i) d.push(a.at(i));
  rt::Task* out[16];
  // Asks for more than available: bounded by half of the observed 8.
  const std::size_t got = d.steal_batch(out, 16);
  ASSERT_EQ(got, 4u);
  for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], a.at(i));
  // The owner still holds the newer half.
  EXPECT_EQ(d.size_estimate(), 4);
  EXPECT_EQ(d.pop(), a.at(7));
  EXPECT_EQ(d.steal(), a.at(4));
}

TEST(Deque, StealBatchRespectsMaxN) {
  rt::WorkStealingDeque d;
  TaskArena a(100);
  for (std::size_t i = 0; i < 100; ++i) d.push(a.at(i));
  rt::Task* out[3];
  const std::size_t got = d.steal_batch(out, 3);
  ASSERT_EQ(got, 3u);
  EXPECT_EQ(out[0], a.at(0));
  EXPECT_EQ(out[2], a.at(2));
  EXPECT_EQ(d.size_estimate(), 97);
}

TEST(Deque, StealBatchTakesTheLastElement) {
  // Half rounds up, so a 1-element deque is still stealable.
  rt::WorkStealingDeque d;
  TaskArena a(1);
  d.push(a.at(0));
  rt::Task* out[4];
  ASSERT_EQ(d.steal_batch(out, 4), 1u);
  EXPECT_EQ(out[0], a.at(0));
  EXPECT_EQ(d.pop(), nullptr);
}

TEST(Deque, HoldsFewerThanSeesStealsAndPops) {
  // The owner's count starts from its private copy of top, which a steal
  // leaves stale: the query must still see the steal once the copy says
  // the bound is reached.
  rt::WorkStealingDeque d;
  TaskArena a(5);
  EXPECT_TRUE(d.holds_fewer_than(1));
  EXPECT_FALSE(d.holds_fewer_than(0));
  for (std::size_t i = 0; i < 5; ++i) d.push(a.at(i));
  EXPECT_FALSE(d.holds_fewer_than(5));
  EXPECT_TRUE(d.holds_fewer_than(6));
  EXPECT_EQ(d.steal(), a.at(0));
  EXPECT_EQ(d.steal(), a.at(1));
  EXPECT_TRUE(d.holds_fewer_than(4));
  EXPECT_FALSE(d.holds_fewer_than(3));
  EXPECT_EQ(d.pop(), a.at(4));
  EXPECT_TRUE(d.holds_fewer_than(3));
  EXPECT_FALSE(d.holds_fewer_than(2));
}

/// Concurrency stress mixing pop, steal and steal_batch: every task must be
/// claimed exactly once — no loss, no duplication — whatever the interleave.
TEST(Deque, ConcurrentStealBatchClaimsEachTaskOnce) {
  constexpr std::size_t total = 150'000;
  constexpr int n_thieves = 6;
  rt::WorkStealingDeque d(64);
  TaskArena a(total);
  std::vector<std::atomic<int>> claimed(total);

  std::atomic<bool> done{false};
  std::atomic<std::size_t> stolen{0};
  auto claim = [&](rt::Task* t) {
    const std::size_t idx = static_cast<std::size_t>(t - a.at(0));
    claimed[idx].fetch_add(1, std::memory_order_relaxed);
  };

  std::vector<std::thread> thieves;
  thieves.reserve(n_thieves);
  for (int i = 0; i < n_thieves; ++i) {
    thieves.emplace_back([&, i] {
      rt::Task* batch[16];
      auto raid = [&] {
        std::size_t n = 0;
        if (i % 2 == 0) {
          n = d.steal_batch(batch, 16);
        } else if (rt::Task* t = d.steal()) {
          batch[0] = t;
          n = 1;
        }
        for (std::size_t k = 0; k < n; ++k) claim(batch[k]);
        stolen.fetch_add(n, std::memory_order_relaxed);
      };
      while (!done.load(std::memory_order_acquire)) raid();
      for (int k = 0; k < 1000; ++k) raid();  // final drain
    });
  }

  std::size_t popped = 0;
  for (std::size_t i = 0; i < total; ++i) {
    d.push(a.at(i));
    if (i % 3 == 0) {
      if (rt::Task* t = d.pop()) {
        claim(t);
        ++popped;
      }
    }
  }
  while (rt::Task* t = d.pop()) {
    claim(t);
    ++popped;
  }
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();
  while (rt::Task* t = d.pop()) {  // whatever the thieves left behind
    claim(t);
    ++popped;
  }

  std::size_t claimed_total = 0;
  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_LE(claimed[i].load(), 1) << "task " << i << " claimed twice";
    claimed_total += static_cast<std::size_t>(claimed[i].load());
  }
  EXPECT_EQ(claimed_total, total);
  EXPECT_EQ(popped + stolen.load(), total);
}

/// The owner checks fullness against its private copy of `top` and reads
/// the shared one only when the ring looks full. Drive that refresh, and
/// the grow behind it, while thieves keep moving `top`: the owner pushes
/// 64x the initial capacity in bursts of three rings' worth, popping between
/// bursts, as three threads raid with steal_batch. The thieves raid only
/// while they have taken less than half of what the owner pushed, so at
/// every optimisation level at least half the pushes stay in the ring and
/// it must grow: unbounded thieves drain an unoptimised owner's ring as
/// fast as it fills. Every task must be taken exactly once, and the ring
/// must have grown along the way.
TEST(Deque, CachedTopGrowsUnderConcurrentStealBatch) {
  constexpr std::size_t initial = 16;
  constexpr std::size_t total = initial * 64;
  constexpr std::size_t burst = initial * 3;
  constexpr int n_thieves = 3;
  rt::WorkStealingDeque d(initial);
  ASSERT_EQ(d.capacity(), initial);
  TaskArena a(total);
  std::vector<std::atomic<int>> claimed(total);
  auto claim = [&](rt::Task* t) {
    claimed[static_cast<std::size_t>(t - a.at(0))].fetch_add(
        1, std::memory_order_relaxed);
  };

  std::atomic<bool> done{false};
  std::atomic<std::size_t> pushed{0};
  std::atomic<std::size_t> stolen{0};
  std::vector<std::thread> thieves;
  thieves.reserve(n_thieves);
  for (int i = 0; i < n_thieves; ++i) {
    thieves.emplace_back([&] {
      rt::Task* batch[8];
      auto raid = [&] {
        const std::size_t n = d.steal_batch(batch, 8);
        for (std::size_t k = 0; k < n; ++k) claim(batch[k]);
        stolen.fetch_add(n, std::memory_order_relaxed);
      };
      while (!done.load(std::memory_order_acquire)) {
        if (stolen.load(std::memory_order_relaxed) <
            pushed.load(std::memory_order_relaxed) / 2) {
          raid();
        } else {
          std::this_thread::yield();
        }
      }
      raid();  // one last look after the owner stopped
    });
  }

  std::size_t popped = 0;
  for (std::size_t i = 0; i < total; ++i) {
    d.push(a.at(i));
    pushed.store(i + 1, std::memory_order_relaxed);
    if (i % burst == burst - 1) {
      if (rt::Task* t = d.pop()) {
        claim(t);
        ++popped;
      }
    }
  }
  const std::size_t grown_to = d.capacity();
  done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();
  while (rt::Task* t = d.pop()) {
    claim(t);
    ++popped;
  }

  for (std::size_t i = 0; i < total; ++i) {
    ASSERT_EQ(claimed[i].load(), 1) << "task " << i;
  }
  EXPECT_EQ(popped + stolen.load(), total);
  EXPECT_GT(grown_to, initial) << "the ring never grew";
}

// ---------------------------------------------------------------------------
// TaskPool.
// ---------------------------------------------------------------------------

TEST(TaskPool, FreshThenReuse) {
  rt::TaskPool pool;
  EXPECT_EQ(pool.reuse(), nullptr);  // nothing recycled yet
  rt::Task* t1 = pool.carve(3);
  EXPECT_EQ(t1->owner(), 3u);
  pool.recycle(t1);
  rt::Task* t2 = pool.reuse();
  EXPECT_EQ(t1, t2);  // freelist returns the recycled descriptor
  EXPECT_EQ(t2->owner(), 3u);  // ownership survives reuse
}

TEST(TaskPool, ChunksProvideManyDescriptors) {
  rt::TaskPool pool;
  std::vector<rt::Task*> all;
  for (int i = 0; i < 1000; ++i) all.push_back(pool.carve(0));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  for (rt::Task* t : all) pool.recycle(t);
  const rt::TaskPool::Counts c = pool.counts();
  EXPECT_EQ(c.carved, 1000u);
  EXPECT_EQ(c.free, 1000u);
  EXPECT_EQ(c.returned, 0u);
}

TEST(TaskPool, ReturnedChainIsTakenWhenFreelistRunsDry) {
  // A chain given back by another worker is invisible until the private
  // freelist is empty, then taken whole: every descriptor comes out once.
  rt::TaskPool pool;
  rt::Task* a = pool.carve(0);
  rt::Task* b = pool.carve(0);
  rt::Task* c = pool.carve(0);
  pool.recycle(a);
  rt::RemoteStash stash;
  stash.push(b);
  stash.push(c);
  pool.give_back(stash.head, stash.tail);
  EXPECT_EQ(pool.counts().returned, 2u);
  EXPECT_EQ(pool.reuse(), a);  // private freelist first
  std::vector<rt::Task*> rest{pool.reuse(), pool.reuse()};
  std::sort(rest.begin(), rest.end());
  std::vector<rt::Task*> expect{b, c};
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(rest, expect);
  EXPECT_EQ(pool.reuse(), nullptr);
  EXPECT_EQ(pool.counts().returned, 0u);
}

TEST(TaskPool, RecycledTaskIsReset) {
  // The recycle contract: the fused refs/children word is re-armed and the
  // environment cleared (destroy_env on the fresh descriptor is a no-op);
  // everything else is overwritten by init_env/set_links on the next spawn.
  rt::TaskPool pool;
  rt::Task* t = pool.carve(0);
  t->init_env([] {});
  t->set_links(nullptr, 7, rt::Tiedness::untied, rt::TaskStorage::pooled);
  t->add_child_ref();
  t->child_completed();
  EXPECT_FALSE(t->release_ref());  // the child's reference is still held
  t->destroy_env();
  pool.recycle(t);
  rt::Task* t2 = pool.reuse();
  ASSERT_EQ(t, t2);
  EXPECT_EQ(t2->unfinished_children(), 0u);
  t2->destroy_env();  // must be a no-op on a recycled descriptor
  EXPECT_TRUE(t2->release_ref());  // refs re-armed to exactly one
}

// ---------------------------------------------------------------------------
// Task ancestry.
// ---------------------------------------------------------------------------

TEST(Task, DescendantChainWalk) {
  rt::Task root;
  root.set_links(nullptr, 0, rt::Tiedness::tied, rt::TaskStorage::stack_frame);
  rt::Task child;
  child.set_links(&root, 1, rt::Tiedness::tied, rt::TaskStorage::stack_frame);
  rt::Task grand;
  grand.set_links(&child, 2, rt::Tiedness::tied, rt::TaskStorage::stack_frame);
  rt::Task other;
  other.set_links(&root, 1, rt::Tiedness::tied, rt::TaskStorage::stack_frame);

  EXPECT_TRUE(grand.is_descendant_of(child));
  EXPECT_TRUE(grand.is_descendant_of(root));
  EXPECT_TRUE(child.is_descendant_of(root));
  EXPECT_FALSE(child.is_descendant_of(grand));
  EXPECT_FALSE(grand.is_descendant_of(other));
  EXPECT_TRUE(root.is_descendant_of(root));
}

TEST(Task, InlineVsHeapEnvironmentThreshold) {
  rt::Task t;
  int small_val = 3;
  t.init_env([small_val] { (void)small_val; });
  EXPECT_LE(t.env_bytes(), rt::Task::inline_env_capacity);
  t.destroy_env();

  t.reset_for_reuse();
  std::array<char, 512> big{};
  t.init_env([big] { (void)big; });
  EXPECT_GT(t.env_bytes(), rt::Task::inline_env_capacity);
  t.destroy_env();
}

}  // namespace
