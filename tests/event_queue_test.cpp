// Differential tests of the event core. A trivially correct reference
// executor — a std::multimap keyed (at, src, seq) — replays the same random
// programs as EventQueue, legacy and sharded, and the executed sequences
// must match event for event. Also: Timer arm/re-arm/cancel/destroy mixes
// against a reference model, capture lifetimes, oversized closures, and a
// deterministic allocation counter (operator new is replaced below).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <new>
#include <tuple>
#include <vector>

#include "simnet/event_queue.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting replacements of the global allocation functions: every plain
// operator new in this binary (and new[], which forwards to it) lands here.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
#if defined(__GNUC__) && !defined(__clang__)
// The replacement pair is malloc/free by construction.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tts::simnet {
namespace {

std::uint64_t mix(std::uint64_t x) {  // splitmix64 finaliser
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// ------------------------------------------------------------- programs

/// One scheduling call an event makes when it runs.
struct Child {
  enum Kind { kIn, kAt, kOn } kind;
  SimDuration offset;  // kIn: delay; kAt/kOn: at - now
  DomainId domain;     // kOn target
  std::uint32_t cat;   // index into the program's categories
  int size_class;      // 0: 24 B, 1: 72 B non-trivial, 2: boxed
  std::uint64_t id;
};

/// A random program: what each event schedules is a pure function of its
/// id, its domain and the program seed, so any executor replays it.
struct Program {
  std::uint64_t seed;
  DomainId domains;
  SimDuration lookahead;  // cross-domain delay floor
  std::uint32_t categories;
  int max_depth;

  static int depth(std::uint64_t id) { return static_cast<int>(id >> 48); }
  std::uint64_t child_id(std::uint64_t parent, std::uint64_t k) const {
    std::uint64_t d = static_cast<std::uint64_t>(depth(parent) + 1);
    return d << 48 | (mix(parent ^ mix(seed + k)) & ((1ULL << 48) - 1));
  }

  Child make_child(DomainId from, std::uint64_t parent,
                   std::uint64_t k) const {
    Child c{};
    c.id = child_id(parent, k);
    std::uint64_t h = mix(c.id ^ seed);
    c.cat = static_cast<std::uint32_t>(h % categories);
    c.size_class = static_cast<int>((h >> 8) % 3);
    std::uint64_t kind = (h >> 16) % 4;
    if (kind == 3 && domains > 1) {
      c.kind = Child::kOn;
      c.domain = static_cast<DomainId>(
          (from + 1 + (h >> 24) % (domains - 1)) % domains);
      c.offset = lookahead +
                 static_cast<SimDuration>((h >> 32) % (2 * lookahead + 1));
    } else if (kind >= 2) {
      // Absolute time, often in the past (clamped to now).
      c.kind = Child::kAt;
      c.offset = static_cast<SimDuration>((h >> 24) % 41) - 20;
    } else {
      // Relative delay; negative delays clamp to zero, zero ties with
      // whatever else runs now.
      c.kind = Child::kIn;
      c.offset = static_cast<SimDuration>((h >> 24) % 25) - 4;
    }
    return c;
  }

  std::vector<Child> children(DomainId from, std::uint64_t id) const {
    std::vector<Child> out;
    if (depth(id) >= max_depth) return out;
    std::uint64_t h = mix(id + seed);
    std::uint64_t n = h % 4 == 3 ? 2 : h % 4 == 0 ? 0 : 1;
    // Bursts: the first root, then about one root in 16, each scheduling
    // enough from inside one callback to grow the slab while it runs.
    if (id == 0) n = 600;
    else if (depth(id) == 0 && (h >> 12) % 16 == 0) n = 300;
    for (std::uint64_t k = 0; k < n; ++k)
      out.push_back(make_child(from, id, k));
    return out;
  }
};

struct Exec {
  std::uint64_t id;
  SimTime at;
  bool operator==(const Exec& o) const { return id == o.id && at == o.at; }
};

/// Steps between runs: schedule roots, then run to a boundary.
struct Phase {
  std::vector<Child> roots;
  SimTime until;  // < 0: run() to completion
};

std::vector<Phase> make_phases(const Program& prog) {
  std::vector<Phase> phases;
  SimTime until = 0;
  std::uint64_t next_root = 0;
  for (int p = 0; p < 4; ++p) {
    Phase phase;
    for (int r = 0; r < 40; ++r) {
      std::uint64_t id = next_root++;
      Child c = prog.make_child(0, ~0ULL, id);
      c.id = id;  // roots are depth 0
      if (c.kind == Child::kOn) {
        // After a bounded run, sends from outside the queue must land past
        // the committed window: until + 1 is the earliest legal time.
        c.offset = (p == 0 ? 0 : 1) + static_cast<SimDuration>(mix(id) % 30);
      }
      phase.roots.push_back(c);
    }
    until += 60 + static_cast<SimTime>(mix(prog.seed + p) % 60);
    phase.until = p == 3 ? -1 : until;
    phases.push_back(std::move(phase));
  }
  return phases;
}

// ------------------------------------------------------------ reference

/// The trivially correct executor: one sorted multimap over every domain,
/// executed in global (at, src, seq) order. Each domain's subsequence is
/// then its (at, src, seq) order — exactly what its heap must produce.
class Reference {
 public:
  explicit Reference(const Program& prog)
      : prog_(prog),
        now_(prog.domains, 0),
        seq_(prog.domains, 0),
        logs_(prog.domains),
        cat_counts_(prog.categories, 0) {}

  void issue(DomainId from, const Child& c) {
    SimTime at;
    DomainId to = from;
    switch (c.kind) {
      case Child::kIn:
        at = now_[from] + std::max<SimDuration>(c.offset, 0);
        break;
      case Child::kAt:
        at = now_[from] + c.offset;
        break;
      case Child::kOn:
      default:
        at = now_[from] + c.offset;
        to = c.domain;
        break;
    }
    std::uint64_t seq = seq_[from]++;
    if (to == from && at < now_[from]) at = now_[from];
    pending_.emplace(std::make_tuple(at, from, seq),
                     Pending{to, c.id, c.cat});
  }

  void run_until(SimTime until) {
    while (!pending_.empty() && std::get<0>(pending_.begin()->first) <= until)
      exec_next();
    for (SimTime& t : now_) t = std::max(t, until);
  }
  void run() {
    while (!pending_.empty()) exec_next();
  }

  const std::vector<std::vector<Exec>>& logs() const { return logs_; }
  const std::vector<std::uint64_t>& cat_counts() const { return cat_counts_; }

 private:
  struct Pending {
    DomainId domain;
    std::uint64_t id;
    std::uint32_t cat;
  };

  void exec_next() {
    auto it = pending_.begin();
    SimTime at = std::get<0>(it->first);
    Pending p = it->second;
    pending_.erase(it);
    now_[p.domain] = at;
    logs_[p.domain].push_back(Exec{p.id, at});
    ++cat_counts_[p.cat];
    for (const Child& c : prog_.children(p.domain, p.id)) issue(p.domain, c);
  }

  const Program& prog_;
  std::multimap<std::tuple<SimTime, DomainId, std::uint64_t>, Pending>
      pending_;
  std::vector<SimTime> now_;
  std::vector<std::uint64_t> seq_;
  std::vector<std::vector<Exec>> logs_;
  std::vector<std::uint64_t> cat_counts_;
};

// ---------------------------------------------------------- queue replay

/// Replays a program on a real EventQueue. Closures come in three sizes
/// and carry a checked payload, so a bad slot move or early destruction
/// shows up as a corrupted event.
class QueueReplay {
 public:
  QueueReplay(EventQueue& q, const Program& prog)
      : q_(q), prog_(prog), logs_(prog.domains) {
    for (std::uint32_t c = 0; c < prog.categories; ++c)
      cats_.push_back(q.register_category("cat" + std::to_string(c)));
  }

  void issue(DomainId from, const Child& c) {
    EventQueue::CategoryId cat = cats_[c.cat];
    DomainId to = c.kind == Child::kOn ? c.domain : from;
    with_closure(c.size_class, to, c.id, [&](auto&& fn) {
      switch (c.kind) {
        case Child::kIn:
          q_.schedule_in(c.offset, cat, std::move(fn));
          break;
        case Child::kAt:
          q_.schedule_at(q_.now() + c.offset, cat, std::move(fn));
          break;
        case Child::kOn:
          q_.schedule_on(to, q_.now() + c.offset, cat, std::move(fn));
          break;
      }
    });
  }

  const std::vector<std::vector<Exec>>& logs() const { return logs_; }
  std::uint64_t corrupted() const { return corrupted_.load(); }
  std::uint64_t category_executed(std::uint32_t c) const {
    return q_.category_executed(cats_[c]);
  }

 private:
  static std::array<std::uint64_t, 4> small_pad(std::uint64_t id) {
    return {mix(id), mix(id + 1), mix(id + 2), mix(id + 3)};
  }

  template <class Schedule>
  void with_closure(int size_class, DomainId to, std::uint64_t id,
                    Schedule&& schedule) {
    if (size_class == 0) {
      auto fn = [this, to, id] { run_event(to, id); };
      static_assert(sizeof(fn) == 24);
      schedule(std::move(fn));
    } else if (size_class == 1) {
      auto fn = [this, to, id, tok = std::make_shared<std::uint64_t>(id),
                 pad = small_pad(id)] {
        if (*tok != id || pad != small_pad(id)) corrupted_.fetch_add(1);
        run_event(to, id);
      };
      static_assert(sizeof(fn) == Callback::kInlineSize);
      static_assert(Callback::kFitsInline<decltype(fn)>);
      schedule(std::move(fn));
    } else {
      std::array<std::uint64_t, 24> pad;
      for (std::size_t i = 0; i < pad.size(); ++i) pad[i] = mix(id + i);
      auto fn = [this, to, id, pad] {
        for (std::size_t i = 0; i < pad.size(); ++i)
          if (pad[i] != mix(id + i)) corrupted_.fetch_add(1);
        run_event(to, id);
      };
      static_assert(!Callback::kFitsInline<decltype(fn)>);
      schedule(std::move(fn));
    }
  }

  void run_event(DomainId d, std::uint64_t id) {
    // Only domain d's executor runs its events, so logs_[d] has one writer.
    if (q_.current_domain() != d) corrupted_.fetch_add(1);
    logs_[d].push_back(Exec{id, q_.now()});
    for (const Child& c : prog_.children(d, id)) issue(d, c);
  }

  EventQueue& q_;
  const Program& prog_;
  std::vector<EventQueue::CategoryId> cats_;
  std::vector<std::vector<Exec>> logs_;
  std::atomic<std::uint64_t> corrupted_{0};
};

struct Outcome {
  std::vector<std::vector<Exec>> logs;
  std::vector<std::uint64_t> cat_counts;
  std::uint64_t executed = 0;
};

Outcome run_reference(const Program& prog) {
  Reference ref(prog);
  for (const Phase& phase : make_phases(prog)) {
    for (const Child& root : phase.roots) ref.issue(0, root);
    if (phase.until < 0)
      ref.run();
    else
      ref.run_until(phase.until);
  }
  Outcome out{ref.logs(), ref.cat_counts(), 0};
  for (const auto& log : out.logs) out.executed += log.size();
  return out;
}

Outcome run_queue(const Program& prog, std::uint32_t shards) {
  EventQueue q;
  if (shards > 0) {
    ShardPlan plan;
    plan.shards = shards;
    plan.workers = shards;
    plan.lookahead = prog.lookahead;
    q.configure_shards(plan, prog.domains);
  }
  QueueReplay replay(q, prog);
  for (const Phase& phase : make_phases(prog)) {
    for (const Child& root : phase.roots) replay.issue(0, root);
    if (phase.until < 0)
      q.run();
    else
      q.run_until(phase.until);
  }
  EXPECT_EQ(replay.corrupted(), 0u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.shard_violations(), 0u);
  Outcome out{replay.logs(), {}, q.executed()};
  for (std::uint32_t c = 0; c < prog.categories; ++c)
    out.cat_counts.push_back(replay.category_executed(c));
  return out;
}

void expect_same(const Outcome& want, const Outcome& got) {
  ASSERT_EQ(want.logs.size(), got.logs.size());
  for (std::size_t d = 0; d < want.logs.size(); ++d) {
    ASSERT_EQ(want.logs[d].size(), got.logs[d].size()) << "domain " << d;
    for (std::size_t i = 0; i < want.logs[d].size(); ++i)
      ASSERT_EQ(want.logs[d][i], got.logs[d][i])
          << "domain " << d << " event " << i;
  }
  EXPECT_EQ(want.cat_counts, got.cat_counts);
  EXPECT_EQ(want.executed, got.executed);
}

TEST(EventQueueDifferential, LegacyMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Program prog{seed, /*domains=*/1, /*lookahead=*/10, /*categories=*/5,
                 /*max_depth=*/10};
    Outcome want = run_reference(prog);
    ASSERT_GT(want.executed, 1000u);
    SCOPED_TRACE(seed);
    expect_same(want, run_queue(prog, /*shards=*/0));
  }
}

TEST(EventQueueDifferential, ShardedMatchesReferenceAtAnyShardCount) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    Program prog{seed, /*domains=*/5, /*lookahead=*/10, /*categories=*/4,
                 /*max_depth=*/8};
    Outcome want = run_reference(prog);
    ASSERT_GT(want.executed, 1000u);
    for (std::uint32_t shards : {1u, 2u, 4u}) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " shards "
                                      << shards);
      expect_same(want, run_queue(prog, shards));
    }
  }
}

// ---------------------------------------------------------------- timers

/// Timer programs: scripted actions at distinct odd times arm (deadlines are
/// even, or clamp to the odd action time), cancel or destroy timers; some
/// timers re-arm themselves from their callback, some destroy themselves.
/// The reference model tracks (alive, armed, target) per timer.
struct TimerAction {
  enum Kind { kArm, kCancel, kDestroy } kind;
  SimTime at;  // odd
  std::size_t timer;
  SimDuration offset;  // kArm: target - at (odd, possibly negative)
};

constexpr std::size_t kTimers = 8;

int timer_policy(std::size_t t) { return static_cast<int>(t % 3); }
// 0: plain; 1: re-arms itself while fired < 4; 2: destroys itself on its
// third fire.
SimDuration rearm_delay(std::size_t t, int fired) {
  return 2 * static_cast<SimDuration>(1 + mix(t * 31 + fired) % 15);
}

std::vector<TimerAction> make_timer_actions(std::uint64_t seed) {
  std::vector<TimerAction> out;
  SimTime at = 1;
  for (int i = 0; i < 400; ++i) {
    std::uint64_t h = mix(seed * 1000 + i);
    at += 2 * static_cast<SimTime>(1 + h % 6);
    TimerAction a{};
    a.at = at;
    a.timer = (h >> 8) % kTimers;
    std::uint64_t kind = (h >> 16) % 128;
    a.kind = kind == 0 ? TimerAction::kDestroy
             : kind < 32 ? TimerAction::kCancel
                         : TimerAction::kArm;
    a.offset = 2 * static_cast<SimDuration>((h >> 24) % 30) - 19;
    out.push_back(a);
  }
  return out;
}

using Fire = std::pair<SimTime, std::size_t>;

std::vector<Fire> timer_reference(const std::vector<TimerAction>& actions) {
  struct T {
    bool alive = true, armed = false;
    SimTime target = 0;
    int fired = 0;
  };
  std::array<T, kTimers> timers{};
  std::vector<Fire> fires;
  auto fire_before = [&](SimTime limit) {
    for (;;) {
      std::size_t best = kTimers;
      for (std::size_t i = 0; i < kTimers; ++i)
        if (timers[i].alive && timers[i].armed && timers[i].target < limit &&
            (best == kTimers || timers[i].target < timers[best].target))
          best = i;
      if (best == kTimers) return;
      T& t = timers[best];
      SimTime now = t.target;
      t.armed = false;
      ++t.fired;
      fires.emplace_back(now, best);
      if (timer_policy(best) == 1 && t.fired < 4) {
        t.armed = true;
        t.target = now + rearm_delay(best, t.fired);
      } else if (timer_policy(best) == 2 && t.fired == 3) {
        t.alive = false;
      }
    }
  };
  for (const TimerAction& a : actions) {
    fire_before(a.at);
    T& t = timers[a.timer];
    if (!t.alive) continue;
    switch (a.kind) {
      case TimerAction::kArm:
        t.armed = true;
        t.target = std::max(a.at + a.offset, a.at);
        break;
      case TimerAction::kCancel:
        t.armed = false;
        break;
      case TimerAction::kDestroy:
        t.alive = false;
        break;
    }
  }
  fire_before(std::numeric_limits<SimTime>::max());
  std::sort(fires.begin(), fires.end());
  return fires;
}

std::vector<Fire> timer_queue(const std::vector<TimerAction>& actions) {
  EventQueue q;
  std::array<std::unique_ptr<Timer>, kTimers> timers;
  std::array<int, kTimers> fired{};
  std::vector<Fire> fires;
  for (std::size_t i = 0; i < kTimers; ++i) {
    timers[i] = std::make_unique<Timer>(q, [&, i] {
      ++fired[i];
      fires.emplace_back(q.now(), i);
      if (timer_policy(i) == 1 && fired[i] < 4)
        timers[i]->arm(q.now() + rearm_delay(i, fired[i]));
      else if (timer_policy(i) == 2 && fired[i] == 3)
        timers[i].reset();  // the running callback destroys its Timer
    });
  }
  for (const TimerAction& a : actions) {
    q.schedule_at(a.at, [&, a] {
      std::unique_ptr<Timer>& t = timers[a.timer];
      if (!t) return;
      switch (a.kind) {
        case TimerAction::kArm:
          t->arm(q.now() + a.offset);
          break;
        case TimerAction::kCancel:
          t->cancel();
          break;
        case TimerAction::kDestroy:
          t.reset();
          break;
      }
    });
  }
  // Cut the run at a few boundaries on the way.
  for (SimTime until : {SimTime{301}, SimTime{900}, SimTime{1500}})
    q.run_until(until);
  q.run();
  std::sort(fires.begin(), fires.end());
  return fires;
}

TEST(TimerDifferential, ArmRearmCancelDestroyMatchesModel) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto actions = make_timer_actions(seed);
    std::vector<Fire> want = timer_reference(actions);
    ASSERT_GT(want.size(), 50u);
    EXPECT_EQ(want, timer_queue(actions)) << "seed " << seed;
  }
}

// ------------------------------------------------------ capture lifetime

TEST(EventQueueCallbacks, CapturesAreReleasedRightAfterDispatch) {
  EventQueue q;
  auto inline_token = std::make_shared<int>(1);
  auto boxed_token = std::make_shared<int>(2);
  std::weak_ptr<int> inline_weak = inline_token;
  std::weak_ptr<int> boxed_weak = boxed_token;
  std::array<std::uint8_t, 200> big{};
  q.schedule_at(10, [t = std::move(inline_token)] {});
  q.schedule_at(20, [t = std::move(boxed_token), big] {});
  bool inline_gone_at_20 = false;
  q.schedule_at(15, [&] { inline_gone_at_20 = inline_weak.expired(); });
  ASSERT_TRUE(q.step());
  EXPECT_TRUE(inline_weak.expired());  // before the next event even starts
  EXPECT_FALSE(boxed_weak.expired());
  q.run();
  EXPECT_TRUE(inline_gone_at_20);
  EXPECT_TRUE(boxed_weak.expired());
}

TEST(EventQueueCallbacks, OversizedClosuresRun) {
  EventQueue q;
  std::array<std::uint64_t, 64> payload;
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = mix(i);
  std::uint64_t want = 0;
  for (std::uint64_t v : payload) want ^= v;
  std::uint64_t got = 0;
  int ran = 0;
  for (int i = 0; i < 300; ++i)  // more than one slab chunk
    q.schedule_in(i % 7, [payload, &got, &ran] {
      std::uint64_t x = 0;
      for (std::uint64_t v : payload) x ^= v;
      got = x;
      ++ran;
    });
  q.run();
  EXPECT_EQ(ran, 300);
  EXPECT_EQ(got, want);
}

TEST(EventQueueCallbacks, PendingCapturesAreReleasedWithTheQueue) {
  auto token = std::make_shared<int>(3);
  std::weak_ptr<int> weak = token;
  {
    EventQueue q;
    std::array<std::uint8_t, 200> big{};
    q.schedule_at(5, [t = token] {});
    q.schedule_at(6, [t = token, big] {});
    token.reset();
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

// ------------------------------------------------------------ cost model

/// operator new calls made while scheduling and running `n` events built
/// by `make`, on a queue that has already held `n` pending events.
template <class Make>
std::uint64_t allocations_per_batch(int n, Make make) {
  EventQueue q;
  int counter = 0;
  auto batch = [&] {
    for (int i = 0; i < n; ++i)
      q.schedule_in(i % 13, make(&counter));
    q.run();
  };
  batch();  // grow keys, slab and free list
  std::uint64_t before = g_allocations.load();
  batch();
  std::uint64_t after = g_allocations.load();
  EXPECT_EQ(counter, 2 * n);
  return after - before;
}

TEST(EventQueueCost, InlineClosuresAllocateNothing) {
  constexpr int kN = 1000;
  EXPECT_EQ(allocations_per_batch(kN, [](int* c) {
              return [c] { ++*c; };  // 8 B
            }),
            0u);
  EXPECT_EQ(allocations_per_batch(kN, [](int* c) {
              std::array<std::uint64_t, 3> pad{};
              return [c, pad] { *c += 1 + static_cast<int>(pad[0]); };  // 32 B
            }),
            0u);
  EXPECT_EQ(allocations_per_batch(kN, [](int* c) {
              std::array<std::uint64_t, 8> pad{};
              auto fn = [c, pad] { *c += 1 + static_cast<int>(pad[0]); };
              static_assert(sizeof(fn) == Callback::kInlineSize);
              return fn;
            }),
            0u);
}

TEST(EventQueueCost, OversizedClosuresAllocateOncePerEvent) {
  constexpr int kN = 1000;
  EXPECT_EQ(allocations_per_batch(kN, [](int* c) {
              std::array<std::uint64_t, 9> pad{};
              auto fn = [c, pad] { *c += 1 + static_cast<int>(pad[0]); };
              static_assert(!Callback::kFitsInline<decltype(fn)>);
              return fn;
            }),
            static_cast<std::uint64_t>(kN));
}

TEST(EventQueueCost, SmallEventStorageIsNoLargerThanAFunctionEntry) {
  // A (at, src, seq, category) key plus a std::function is 64 bytes; kept
  // in a vector that doubles its capacity, that is the storage to beat.
  constexpr std::size_t kFunctionEntry = 64;
  for (std::size_t n : {256u, 1000u, 10000u, 11100u}) {
    EventQueue q;
    int counter = 0;
    std::array<std::uint64_t, 3> pad{};
    for (std::size_t i = 0; i < n; ++i)
      q.schedule_at(static_cast<SimTime>(i), [&counter, pad] {
        counter += 1 + static_cast<int>(pad[0]);
      });  // a 32-byte closure, as the poll events carry
    std::size_t capacity = 1;
    while (capacity < n) capacity *= 2;
    EXPECT_LE(q.pending_storage_bytes(), capacity * kFunctionEntry) << n;
    q.run();
    EXPECT_EQ(counter, static_cast<int>(n));
  }
}

}  // namespace
}  // namespace tts::simnet
