// Unit and stress tests for the Chase-Lev work-stealing deque.
#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
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

/// A steal_batch `want` that takes every task it is offered.
constexpr auto take_all = [](const rt::Task&, const rt::Task*) { return true; };

TEST(Deque, StealBatchFromEmptyIsZero) {
  rt::WorkStealingDeque d;
  rt::Task* out[8];
  EXPECT_EQ(d.steal_batch(out, 8, take_all), 0u);
}

TEST(Deque, StealBatchTakesHalfOldestFirst) {
  rt::WorkStealingDeque d;
  TaskArena a(8);
  for (std::size_t i = 0; i < 8; ++i) d.push(a.at(i));
  rt::Task* out[16];
  // Asks for more than available: bounded by half of the observed 8.
  const std::size_t got = d.steal_batch(out, 16, take_all);
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
  const std::size_t got = d.steal_batch(out, 3, take_all);
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
  ASSERT_EQ(d.steal_batch(out, 4, take_all), 1u);
  EXPECT_EQ(out[0], a.at(0));
  EXPECT_EQ(d.pop(), nullptr);
}

TEST(Deque, BatchTakesOnlyASiblingRun) {
  // a1, a2 share parent P; b1..b4 share Q. Half of the 6 queued is 3, but
  // a batch whose `want` is the scheduler's sibling rule stops at the first
  // task that is not a sibling of the oldest.
  rt::Task p;
  rt::Task q;
  TaskArena a(6);
  for (std::size_t i = 0; i < 6; ++i) {
    a.at(i)->set_links(i < 2 ? &p : &q, 1, rt::Tiedness::tied,
                       rt::TaskStorage::stack_frame);
  }
  rt::WorkStealingDeque d;
  for (std::size_t i = 0; i < 6; ++i) d.push(a.at(i));
  const rt::Task* oldest = nullptr;
  const auto siblings = [&](const rt::Task& t, const rt::Task* first) {
    if (first == nullptr) oldest = &t;
    return first == nullptr || t.parent() == first->parent();
  };
  rt::Task* out[8];
  ASSERT_EQ(d.steal_batch(out, 8, siblings), 2u);
  EXPECT_EQ(out[0], a.at(0));
  EXPECT_EQ(out[1], a.at(1));
  EXPECT_EQ(d.size_estimate(), 4);

  // A refused oldest task leaves the deque as it was.
  const auto refuse = [](const rt::Task&, const rt::Task*) { return false; };
  EXPECT_EQ(d.steal_batch(out, 8, refuse), 0u);
  EXPECT_EQ(d.size_estimate(), 4);
  // `want` sees the oldest task with no first; the Q run behind it follows.
  ASSERT_EQ(d.steal_batch(out, 8, siblings), 2u);
  EXPECT_EQ(oldest, a.at(2));
  EXPECT_EQ(out[0], a.at(2));
  EXPECT_EQ(out[1], a.at(3));
  EXPECT_EQ(d.pop(), a.at(5));
  EXPECT_EQ(d.pop(), a.at(4));
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
          n = d.steal_batch(batch, 16, take_all);
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
        const std::size_t n = d.steal_batch(batch, 8, take_all);
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
  pool.give_back(stash.items, stash.count);
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

TEST(TaskPool, ReturnBatchesOfEverySizeAreHandedOutOnce) {
  // Returned batches of 1, 7 and 16 descriptors, mixed with the owner's own
  // recycles, given back both while the pool is drained and while a batch
  // is half handed out. After every step the pool accounts for each carved
  // descriptor (free + returned + held == carved), and a descriptor is
  // handed out only while it is back in the pool: exactly once per return.
  constexpr std::size_t kCarved = 40;
  rt::TaskPool pool;
  std::vector<rt::Task*> held;
  for (std::size_t i = 0; i < kCarved; ++i) held.push_back(pool.carve(0));
  std::set<rt::Task*> in_pool;
  auto balanced = [&] {
    const rt::TaskPool::Counts c = pool.counts();
    EXPECT_EQ(c.carved, kCarved);
    EXPECT_EQ(c.free + c.returned + held.size(), c.carved);
  };
  auto put_back = [&](rt::Task* t) {
    EXPECT_TRUE(in_pool.insert(t).second) << "returned twice";
  };
  // Everything held goes back: batches cycling through 1, 7 and 16 (cut to
  // what is left), each followed by one recycle.
  auto return_all = [&] {
    const std::uint32_t sizes[] = {1, 7, 16};
    std::size_t i = 0;
    for (std::size_t k = 0; i < held.size(); ++k) {
      const auto n = static_cast<std::uint32_t>(
          std::min<std::size_t>(sizes[k % 3], held.size() - i));
      for (std::uint32_t j = 0; j < n; ++j) put_back(held[i + j]);
      pool.give_back(held.data() + i, n);
      i += n;
      if (i < held.size()) {
        put_back(held[i]);
        pool.recycle(held[i++]);
      }
    }
    held.clear();
    balanced();
  };
  auto take = [&](std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      rt::Task* t = pool.reuse();
      ASSERT_NE(t, nullptr);
      EXPECT_EQ(in_pool.erase(t), 1u) << "handed out while not in the pool";
      held.push_back(t);
      balanced();
    }
  };
  return_all();
  for (std::size_t round = 0; round < 6; ++round) {
    // Even rounds drain the pool; odd rounds stop inside a batch, so the
    // next returns land while it is still open.
    take(round % 2 == 0 ? kCarved : 13 + round);
    std::rotate(held.begin(), held.begin() + round % held.size(), held.end());
    return_all();
  }
  take(kCarved);
  EXPECT_EQ(pool.reuse(), nullptr);
  EXPECT_TRUE(in_pool.empty());
  const std::set<rt::Task*> distinct(held.begin(), held.end());
  EXPECT_EQ(distinct.size(), kCarved);
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

TEST(Task, PeekWalkIsBoundedByTheDepthGap) {
  // A raid may read the chain of a descriptor re-linked under it: even a
  // cyclic chain ends after depth() - ancestor.depth() hops.
  rt::Task root;
  root.set_links(nullptr, 0, rt::Tiedness::tied, rt::TaskStorage::stack_frame);
  rt::Task child;
  child.set_links(&root, 3, rt::Tiedness::tied, rt::TaskStorage::stack_frame);
  rt::Task x;
  rt::Task y;
  x.set_links(&y, 5, rt::Tiedness::tied, rt::TaskStorage::stack_frame);
  y.set_links(&x, 4, rt::Tiedness::tied, rt::TaskStorage::stack_frame);
  EXPECT_FALSE(x.peek_descends_from(root));
  EXPECT_TRUE(x.peek_descends_from(y));
  EXPECT_TRUE(child.peek_descends_from(root));  // a depth gap (inline frames)
  EXPECT_FALSE(root.peek_descends_from(child));
  EXPECT_TRUE(root.peek_descends_from(root));
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
