// Discrete-event engine: a time-ordered queue of callbacks.
//
// Determinism contract: events at equal timestamps fire in scheduling order
// (a monotonic sequence number breaks ties), so runs are reproducible
// regardless of heap internals.
//
// Storage: each domain keeps its pending events in an EventHeap — a 4-ary
// min-heap of 24-byte trivially copyable keys (at, src, seq, slot|category)
// over chunked callback slabs. A Callback is a move-only void() with a
// 72-byte in-place buffer, sized to hold the largest common closure (the
// UDP delivery closure); closures of up to 32 bytes use a 40-byte small
// slot instead. schedule_* constructs the closure straight into its slot
// and dispatch invokes it there, so once the heap and slabs have grown an
// event costs no allocation and no callable move; heap sifts move keys
// only. Closures past 72 bytes fall back to one heap allocation.
//
// Sharded mode (configure_shards): the queue splits into per-domain heaps
// advanced in parallel between conservative time-window barriers. Each
// window executes every event with `at` strictly below a bound derived
// from the global minimum pending time plus the lookahead; cross-domain
// events travel through per-domain inboxes ingested at the barrier into
// the target's EventHeap. The total order inside a domain is (at, sending
// domain, sender sequence) — a pure function of simulation content, never
// of thread interleaving — so the executed event sequence (and every
// digest downstream of it) is identical at any shard count. Events
// arriving below the committed barrier bound (a lookahead violation: only
// possible when a cross-domain delay undercuts the configured lookahead)
// are counted and clamped.
//
// Observability: the executed counter and pending-depth gauge are always
// live (they are the queue's own state); attach_metrics() additionally
// enrols them in an obs::Registry and can enable a wall-clock dispatch
// histogram (how long each callback runs) — wall readings are
// observational only and never influence the virtual clock. Sharded runs
// add window/violation counters and a per-shard barrier-stall histogram.
#pragma once

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "simnet/shard.hpp"
#include "simnet/time.hpp"

namespace tts::obs {
class FlightRecorder;
}

namespace tts::simnet {

/// Move-only type-erased `void()` callable with an N-byte in-place buffer.
/// Closures up to N bytes (alignment <= 8, nothrow-movable) live inside
/// the object; larger ones cost one heap allocation. Unlike std::function
/// it never copies its target, so closures may capture move-only state.
template <std::size_t N>
class BasicCallback {
 public:
  static constexpr std::size_t kInlineSize = N;

  template <class F>
  static constexpr bool kFitsInline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  BasicCallback() noexcept = default;
  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, BasicCallback> &&
                                     std::is_invocable_v<D&>>>
  BasicCallback(F&& fn) {
    if constexpr (kFitsInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(fn));
      ops_ = &Inline<D>::kOps;
    } else {
      D* p = new D(std::forward<F>(fn));
      std::memcpy(buf_, &p, sizeof p);
      ops_ = &Boxed<D>::kOps;
    }
  }
  BasicCallback(BasicCallback&& other) noexcept { take(other); }
  BasicCallback& operator=(BasicCallback&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  BasicCallback& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  BasicCallback(const BasicCallback&) = delete;
  BasicCallback& operator=(const BasicCallback&) = delete;
  ~BasicCallback() { reset(); }

  void operator()() {
    assert(ops_ && "invoking an empty callback");
    ops_->invoke(buf_);
  }

 private:
  // Null relocate = bytewise (trivially copyable target or heap pointer);
  // null destroy = trivially destructible target.
  struct Ops {
    void (*invoke)(void* buf);
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <class D>
  struct Inline {
    static D* get(void* buf) { return std::launder(static_cast<D*>(buf)); }
    static void invoke(void* buf) { (*get(buf))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D(std::move(*get(src)));
      get(src)->~D();
    }
    static void destroy(void* buf) noexcept { get(buf)->~D(); }
    static constexpr Ops kOps{
        &invoke, std::is_trivially_copyable_v<D> ? nullptr : &relocate,
        std::is_trivially_destructible_v<D> ? nullptr : &destroy};
  };

  template <class D>
  struct Boxed {
    static D* get(void* buf) {
      D* p;
      std::memcpy(&p, buf, sizeof p);
      return p;
    }
    static void invoke(void* buf) { (*get(buf))(); }
    static void destroy(void* buf) noexcept { delete get(buf); }
    static constexpr Ops kOps{&invoke, nullptr, &destroy};
  };

  void reset() noexcept {
    if (ops_ && ops_->destroy) ops_->destroy(buf_);
    ops_ = nullptr;
  }
  void take(BasicCallback& other) noexcept {
    ops_ = other.ops_;
    if (!ops_) return;
    if (ops_->relocate)
      ops_->relocate(buf_, other.buf_);
    else
      std::memcpy(buf_, other.buf_, kInlineSize);
    other.ops_ = nullptr;
  }

  const Ops* ops_ = nullptr;
  alignas(void*) unsigned char buf_[kInlineSize];
};

/// The queue's callback type. Measured closure sizes on the study
/// workloads: 8–48 B for timers, polls and probes, 72 B for the UDP
/// delivery closure (the most common event of NTP collection), 128 B for
/// the rare TCP connect closure. 72 B keeps all but the last in place.
using Callback = BasicCallback<72>;

/// Fixed-chunk slab of `Fn` slots. A slot holds a live Fn from emplace()
/// to run() and never moves meanwhile: chunks are never reallocated, so a
/// running callback may schedule enough to grow the slab. A free slot
/// holds the index of the next free one (LIFO: the slot just run is the
/// warmest), and chunk memory is only touched as slots come into use.
template <class Fn>
class CallbackSlab {
 public:
  static constexpr std::size_t kChunkSlots = 256;

  explicit CallbackSlab(std::size_t max_slots) : max_slots_(max_slots) {}
  CallbackSlab(const CallbackSlab&) = delete;
  CallbackSlab& operator=(const CallbackSlab&) = delete;

  template <class F>
  std::uint32_t emplace(F&& fn) {
    std::uint32_t slot = acquire();
    try {
      ::new (raw(slot)) Fn(std::forward<F>(fn));
    } catch (...) {
      release(slot);
      throw;
    }
    return slot;
  }
  /// Invoke the slot's callable in place, then destroy it and free the
  /// slot (also when it throws).
  void run(std::uint32_t slot) {
    struct Done {
      CallbackSlab* slab;
      std::uint32_t slot;
      ~Done() { slab->destroy(slot); }
    } done{this, slot};
    get(slot)();
  }
  /// Destroy a pending slot's callable unrun and free the slot.
  void destroy(std::uint32_t slot) noexcept {
    get(slot).~Fn();
    release(slot);
  }
  std::size_t storage_bytes() const {
    return chunks_.size() * kChunkSlots * sizeof(Slot);
  }

 private:
  struct alignas(Fn) Slot {
    unsigned char bytes[sizeof(Fn)];
  };
  static_assert(sizeof(Fn) >= sizeof(std::uint32_t));
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  void* raw(std::uint32_t slot) {
    return chunks_[slot / kChunkSlots][slot % kChunkSlots].bytes;
  }
  Fn& get(std::uint32_t slot) {
    return *std::launder(static_cast<Fn*>(raw(slot)));
  }
  std::uint32_t acquire() {
    if (free_ != kNone) {
      std::uint32_t slot = free_;
      std::memcpy(&free_, raw(slot), sizeof free_);
      return slot;
    }
    if (used_ == chunks_.size() * kChunkSlots) {
      if (used_ + kChunkSlots > max_slots_)
        throw std::length_error("EventHeap: too many pending events");
      // Default-initialised: no page is touched before its slot is used.
      chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(kChunkSlots));
    }
    return used_++;
  }
  void release(std::uint32_t slot) noexcept {
    std::memcpy(raw(slot), &free_, sizeof free_);
    free_ = slot;
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t max_slots_;
  std::uint32_t used_ = 0;  // slots ever handed out (the high-water mark)
  std::uint32_t free_ = kNone;
};

/// One domain's pending events: a 4-ary min-heap of compact keys over two
/// callback slabs. Keys order by (at, src, seq) exactly; the slot and the
/// category ride in the key's last word. A callback is constructed in its
/// slot at push and stays there — sifts move 24-byte keys, never callables
/// — until the event runs. Closures up to kSmallSize bytes (the 8 B and
/// 32 B timer/poll closures that make up most pending events) take a
/// 40-byte small slot, so a small pending event costs 24 + 40 = 64 bytes,
/// no more than a (key, std::function) heap entry would; larger ones take
/// a Callback slot (and boxed closures past 72 B, the heap as well).
/// Single-threaded: only the domain's executor touches it.
class EventHeap {
 public:
  using CategoryId = std::uint16_t;
  static constexpr std::size_t kSmallSize = 32;
  using SmallCallback = BasicCallback<kSmallSize>;
  /// The key's last word: 8 category bits over a 24-bit slot field whose
  /// top bit selects the Callback slab.
  static constexpr std::uint32_t kSlotBits = 24;
  static constexpr std::uint32_t kLargeSlot = 1u << (kSlotBits - 1);
  static constexpr std::size_t kMaxCategories = 256;

  struct Key {
    SimTime at;
    std::uint64_t seq;       // sender-local sequence: third key
    DomainId src;            // sending domain: second key
    std::uint32_t slot_cat;  // slot | category << kSlotBits
    std::uint32_t slot() const { return slot_cat & ((1u << kSlotBits) - 1); }
    CategoryId category() const {
      return static_cast<CategoryId>(slot_cat >> kSlotBits);
    }
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

  EventHeap() = default;
  ~EventHeap();
  EventHeap(const EventHeap&) = delete;
  EventHeap& operator=(const EventHeap&) = delete;

  bool empty() const { return keys_.empty(); }
  std::size_t size() const { return keys_.size(); }
  /// Earliest pending key; the heap must not be empty.
  const Key& top() const { return keys_.front(); }

  template <class F>
  void push(SimTime at, DomainId src, std::uint64_t seq, CategoryId category,
            F&& fn) {
    assert(category < kMaxCategories);
    std::uint32_t slot;
    if constexpr (SmallCallback::kFitsInline<std::decay_t<F>>)
      slot = small_.emplace(std::forward<F>(fn));
    else
      slot = large_.emplace(std::forward<F>(fn)) | kLargeSlot;
    sift_up(Key{at, seq, src,
                slot | static_cast<std::uint32_t>(category) << kSlotBits});
  }

  /// Remove the earliest key. Its callback stays in its slab until run().
  Key pop();
  /// Invoke the callback in `slot` in place, then destroy it (releasing
  /// its captures before the next event) and free the slot.
  void run(std::uint32_t slot) {
    if (slot & kLargeSlot)
      large_.run(slot & ~kLargeSlot);
    else
      small_.run(slot);
  }

  /// Bytes held for pending events: key capacity plus slab chunks.
  std::size_t storage_bytes() const {
    return keys_.capacity() * sizeof(Key) + small_.storage_bytes() +
           large_.storage_bytes();
  }

 private:
  static bool before(const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }
  void sift_up(Key key);

  std::vector<Key> keys_;
  CallbackSlab<SmallCallback> small_{kLargeSlot};
  CallbackSlab<Callback> large_{kLargeSlot};
};

class EventQueue {
 public:
  using Callback = simnet::Callback;
  /// Dispatch category for wall-time attribution (register_category).
  /// Category 0 is the pre-registered "other" bucket.
  using CategoryId = EventHeap::CategoryId;

  EventQueue();
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Virtual time of the calling context: the executing domain's clock on
  /// a worker mid-window, the global clock otherwise.
  SimTime now() const;

  /// Split into `domain_count` deterministic domains run across
  /// `plan.shards` parallel heaps. Must be called before any event runs;
  /// `plan.shards` >= 1 and `plan.lookahead` >= 1 are required.
  void configure_shards(const ShardPlan& plan, DomainId domain_count);
  bool sharded() const { return shards_ > 0; }
  std::uint32_t shard_count() const { return shards_ ? shards_ : 1; }
  DomainId domain_count() const {
    return static_cast<DomainId>(domains_.size());
  }
  /// Domain of the calling context (0 outside event execution, and
  /// always 0 in legacy mode).
  DomainId current_domain() const {
    return shards_ ? executing_domain() : 0;
  }

  // Every schedule_* takes any void() callable (lambda, Callback, ...)
  // and constructs it straight into its slab slot.

  /// Schedule `fn` at absolute time `at` (clamped to now if in the past)
  /// on the calling context's domain.
  template <class F>
  void schedule_at(SimTime at, F&& fn) {
    schedule_at(at, /*category=*/0, std::forward<F>(fn));
  }
  /// Schedule `fn` after `delay`.
  template <class F>
  void schedule_in(SimDuration delay, F&& fn) {
    schedule_in(delay, /*category=*/0, std::forward<F>(fn));
  }
  /// Category-attributed variants: the event's execution is counted (and,
  /// when dispatch timing is on, wall-timed) under `category`.
  template <class F>
  void schedule_at(SimTime at, CategoryId category, F&& fn) {
    schedule_on(current_domain(), at, category, std::forward<F>(fn));
  }
  template <class F>
  void schedule_in(SimDuration delay, CategoryId category, F&& fn) {
    DomainId d = current_domain();
    SimTime base = domains_[d].now;
    schedule_on(d, base + (delay < 0 ? 0 : delay), category,
                std::forward<F>(fn));
  }
  /// Schedule on an explicit domain. Cross-domain events must respect the
  /// configured lookahead (at >= sender now + lookahead) or they surface
  /// as counted lookahead violations at the next barrier.
  template <class F>
  void schedule_on(DomainId domain, SimTime at, CategoryId category,
                   F&& fn) {
    DomainId src = current_domain();
    Domain& sender = domains_[src];
    std::uint64_t seq = sender.next_seq++;
    if (domain != src) {
      post(domain,
           Posted{at, src, seq, category, Callback(std::forward<F>(fn))});
      return;
    }
    if (at < sender.now) at = sender.now;
    sender.events.push(at, src, seq, category, std::forward<F>(fn));
    if (!sharded())
      pending_gauge_.set(static_cast<std::int64_t>(sender.events.size()));
  }

  /// Run `fn` at the next window barrier, when every domain is quiescent
  /// (deterministic commit point for cross-domain state). Commits run on
  /// the driving thread in (submitting domain, submission order). In
  /// legacy mode this runs `fn` immediately.
  void run_at_barrier(Callback fn);

  /// Run events until the queue drains or `until` is passed; the clock ends
  /// at the later of its current value and the last executed event (or
  /// `until` if given and reached). Returns the number of events executed.
  std::uint64_t run();
  std::uint64_t run_until(SimTime until);

  /// Execute at most one event; false when the queue is empty.
  /// Legacy mode only.
  bool step();

  std::size_t pending() const;
  bool empty() const { return pending() == 0; }
  /// Bytes held for pending events (heap keys plus callback slabs) over
  /// all domains: the queue's deterministic storage cost.
  std::size_t pending_storage_bytes() const;

  /// Total events executed over the queue's lifetime.
  std::uint64_t executed() const { return executed_ctr_.value(); }

  /// Conservative windows run so far (0 in legacy mode).
  std::uint64_t shard_windows() const { return windows_ctr_.value(); }
  /// Cross-domain events that arrived below a committed barrier bound.
  /// Always 0 when every cross-domain delay honours the lookahead.
  std::uint64_t shard_violations() const { return violations_ctr_.value(); }
  SimDuration lookahead() const { return lookahead_; }

  /// Enrol the queue's instruments (events_executed, events_pending and —
  /// when `time_dispatch` — the dispatch_wall_ns histogram) in `registry`.
  /// The registry must outlive this queue.
  void attach_metrics(obs::Registry& registry, obs::Labels labels = {},
                      bool time_dispatch = true);

  void enable_dispatch_timing(bool on) { time_dispatch_ = on; }
  /// Time only every `every`-th event (rounded down to a power of two;
  /// default 1 = every event). Sampling keeps the two steady_clock reads
  /// off most dispatches — at study scale the full-timing cost dominates
  /// the whole observability overhead.
  void set_dispatch_sampling(std::uint32_t every);
  const obs::Histogram& dispatch_wall_ns() const { return dispatch_wall_; }
  /// Wall nanoseconds each shard spent waiting at window barriers for the
  /// slowest shard of its window (empty in legacy mode / timing off).
  const obs::Histogram& barrier_stall_ns() const { return barrier_stall_; }

  /// Register (or look up — idempotent by name) a dispatch category.
  /// Per-category executed counters are always live; per-category wall
  /// histograms fill on the same sampled timed dispatches as the aggregate
  /// simnet_dispatch_wall_ns. Register at setup time, schedule hot.
  CategoryId register_category(std::string_view name);
  const std::string& category_name(CategoryId id) const {
    return categories_[id].name;
  }
  std::size_t category_count() const { return categories_.size(); }
  /// Executed-event count attributed to `id` (deterministic).
  std::uint64_t category_executed(CategoryId id) const {
    return categories_[id].executed->value();
  }
  /// Wall histogram attributed to `id` (empty unless dispatch timing on).
  const obs::Histogram& category_wall_ns(CategoryId id) const {
    return *categories_[id].wall;
  }

  /// One timed dispatch that exceeded the flight-recorder threshold, kept
  /// in the top-K table.
  struct SlowDispatch {
    SimTime at = 0;
    std::int64_t wall_ns = 0;
    CategoryId category = 0;
  };
  /// Top-K slowest timed dispatches so far, slowest first.
  std::vector<SlowDispatch> slowest() const;

  /// Report timed dispatches over `threshold_ns` wall time to `recorder`
  /// (FlightKind::kSlowDispatch, detail = category name) and trigger a
  /// flight dump. nullptr detaches.
  void set_flight_recorder(obs::FlightRecorder* recorder,
                           std::int64_t threshold_ns = 1'000'000);

 private:
  /// A cross-domain event waiting in its target's inbox; its key is
  /// allocated on the sender.
  struct Posted {
    SimTime at;
    DomainId src;
    std::uint64_t seq;
    CategoryId cat;
    Callback fn;
  };

  // Counter/Histogram hold atomics (non-movable), so categories own them
  // through unique_ptr; the vector is append-only and ids stay stable.
  // Capacity is reserved up front so a (single-writer, domain-0) runtime
  // register_category never reallocates under concurrent element reads.
  struct Category {
    std::string name;
    std::unique_ptr<obs::Counter> executed;
    std::unique_ptr<obs::Histogram> wall;
    std::uint32_t flight_note = 0;  // interned category name, lazily set
  };

  /// One deterministic execution domain: its own heap, clock, sender
  /// sequence, and inbox for cross-domain arrivals. Deque-held (mutex is
  /// not movable).
  struct Domain {
    EventHeap events;
    SimTime now = 0;
    std::uint64_t next_seq = 0;
    mutable std::mutex inbox_mu;
    std::vector<Posted> inbox;
    std::vector<Callback> commits;
  };

  DomainId executing_domain() const;
  void post(DomainId domain, Posted event);
  void enroll_category(Category& cat);
  void note_slow_dispatch(SimTime at, std::int64_t wall, CategoryId cat);
  /// Pop `dom`'s earliest event, advance its clock and run it.
  void dispatch_next(Domain& dom);

  SimTime global_min() const;
  void ingest_inboxes(SimTime committed_bound);
  void run_window(SimTime bound);
  void exec_shard(std::uint32_t shard, SimTime bound);
  void exec_domain(DomainId d, SimTime bound);
  void run_commits();
  std::uint64_t run_windows(bool bounded, SimTime until);
  void worker_loop();

  // domains_[0] is the sole queue in legacy mode.
  std::deque<Domain> domains_;
  SimTime now_ = 0;

  // -- sharded-mode state --
  std::uint32_t shards_ = 0;   // 0 = legacy
  std::uint32_t workers_n_ = 0;
  SimDuration lookahead_ = 0;
  SimTime committed_bound_ = 0;
  std::vector<std::thread> workers_;
  std::mutex pool_mu_;
  std::condition_variable pool_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  bool shutdown_ = false;
  SimTime window_bound_ = 0;
  std::atomic<std::uint32_t> next_shard_{0};
  std::uint32_t busy_executors_ = 0;  // guarded by pool_mu_
  std::vector<std::int64_t> shard_wall_;  // per-shard wall ns of the window

  obs::Counter executed_ctr_;
  obs::Gauge pending_gauge_;
  obs::Counter windows_ctr_;
  obs::Counter violations_ctr_;
  obs::Histogram dispatch_wall_{obs::Histogram::exponential(250, 4.0, 12)};
  obs::Histogram barrier_stall_{obs::Histogram::exponential(250, 4.0, 12)};
  bool time_dispatch_ = false;
  std::uint64_t dispatch_mask_ = 0;  // time when (executed & mask) == 0
  obs::Registry* registry_ = nullptr;
  obs::Labels labels_;
  std::vector<Category> categories_;
  std::mutex category_mu_;
  // Top-K slowest timed dispatches, kept as a min-heap on wall_ns so each
  // candidate costs one comparison against the current K-th place.
  static constexpr std::size_t kSlowTableSize = 16;
  std::vector<SlowDispatch> slow_;
  mutable std::mutex slow_mu_;
  obs::FlightRecorder* flight_ = nullptr;
  std::int64_t flight_threshold_ns_ = 1'000'000;
};

/// A re-schedulable one-shot timer slot: one logical deadline, at most one
/// *useful* heap entry, re-armable in both directions.
///
/// schedule_at() alone cannot model a deadline that moves: every re-arm
/// pushes a fresh entry and the superseded ones sit in the heap until their
/// (dead) time comes. A Timer keeps a single shared deadline instead:
/// re-arming earlier pushes one new entry and invalidates the old by
/// generation; re-arming *later* pushes nothing — the existing entry fires,
/// notices the deadline moved, and re-schedules itself. This is what lets
/// the scan pump coalesce its per-grant wake-ups into one slot per engine.
///
/// The callback only runs when the armed deadline is actually reached;
/// cancel() and destruction make any in-flight heap entries inert. The
/// EventQueue must outlive the Timer's pending entries (it owns them).
class Timer {
 public:
  Timer(EventQueue& queue, EventQueue::Callback fn,
        EventQueue::CategoryId category = 0);
  ~Timer();
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Move the deadline to `at` (clamped to now) and arm. Idempotent for an
  /// unchanged deadline.
  void arm(SimTime at);
  void cancel();

  bool armed() const { return state_->armed; }
  /// Deadline of the armed timer (meaningless when !armed()).
  SimTime deadline() const { return state_->target; }
  /// Heap entries pushed over the timer's lifetime — the cost a pump pays
  /// for its wake-ups; tests assert coalescing keeps it near the number of
  /// distinct deadlines actually reached.
  std::uint64_t entries_scheduled() const { return state_->entries; }

 private:
  struct State {
    EventQueue* queue;
    EventQueue::Callback fn;
    EventQueue::CategoryId category = 0;
    bool armed = false;
    bool firing = false;     // fn is running
    bool destroyed = false;  // the Timer is gone; release fn after firing
    SimTime target = 0;
    bool entry_live = false;  // a non-superseded heap entry exists
    SimTime entry_at = 0;
    std::uint64_t gen = 0;
    std::uint64_t entries = 0;
  };

  static void push_entry(const std::shared_ptr<State>& s);
  static void fire(const std::shared_ptr<State>& s, std::uint64_t gen);

  std::shared_ptr<State> state_;
};

}  // namespace tts::simnet
