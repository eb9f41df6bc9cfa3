#include "common/scheduler.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/audit.hpp"

namespace rt {

namespace detail {

namespace {

/// Upper bound on a helper thread's sleep when it finds nothing runnable but
/// its group is still pending: the bounded backstop for the benign race
/// between a submitter's wakeup check and a waiter registering. Completion
/// and fresh work both notify, so this latency is only paid when a
/// notification slipped through the window.
constexpr auto kWaitSlice = std::chrono::microseconds(200);

}  // namespace

/// Chase–Lev work-stealing deque over a fixed ring. The owner pushes and
/// pops at the bottom (LIFO — depth-first, cache-hot); thieves CAS the top
/// (FIFO — they take the oldest, i.e. largest, remaining subrange). Slots
/// are stored field-wise through atomics so a thief racing a wrap-around
/// push reads consistent *memory* (its stale value is discarded when the
/// top CAS fails) without a data race. A full deque makes push() fail and
/// the submitter run the task inline — depth-first execution, the same
/// order a serial run would use.
class WorkDeque {
 public:
  static constexpr std::int64_t kCapacity = 4096;  // power of two

  RT_HOT bool push(const Task& t) {  // owner only
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t top = top_.load(std::memory_order_acquire);
    if (b - top >= kCapacity) return false;
    store_slot(slots_[static_cast<std::size_t>(b & kMask)], t);
    bottom_.store(b + 1, std::memory_order_release);
    return true;
  }

  RT_HOT bool pop(Task& out) {  // owner only
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t top = top_.load(std::memory_order_seq_cst);
    if (top > b) {  // empty: restore
      bottom_.store(b + 1, std::memory_order_relaxed);
      return false;
    }
    out = load_slot(slots_[static_cast<std::size_t>(b & kMask)]);
    if (top == b) {
      // Last element: race the thieves for it via the top CAS.
      const bool won = top_.compare_exchange_strong(
          top, top + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
      bottom_.store(b + 1, std::memory_order_relaxed);
      return won;
    }
    return true;
  }

  RT_HOT bool steal(Task& out) {  // any thread
    std::int64_t top = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (top >= b) return false;
    out = load_slot(slots_[static_cast<std::size_t>(top & kMask)]);
    return top_.compare_exchange_strong(top, top + 1,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed);
  }

  bool maybe_nonempty() const {
    return top_.load(std::memory_order_relaxed) <
           bottom_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::int64_t kMask = kCapacity - 1;

  struct Slot {
    std::atomic<Task::Invoke> invoke{nullptr};
    std::atomic<void*> ctx{nullptr};
    std::atomic<std::int64_t> begin{0};
    std::atomic<std::int64_t> end{0};
    std::atomic<TaskGroupState*> group{nullptr};
  };

  static void store_slot(Slot& s, const Task& t) {
    s.invoke.store(t.invoke, std::memory_order_relaxed);
    s.ctx.store(t.ctx, std::memory_order_relaxed);
    s.begin.store(t.begin, std::memory_order_relaxed);
    s.end.store(t.end, std::memory_order_relaxed);
    s.group.store(t.group, std::memory_order_relaxed);
  }

  static Task load_slot(const Slot& s) {
    Task t;
    t.invoke = s.invoke.load(std::memory_order_relaxed);
    t.ctx = s.ctx.load(std::memory_order_relaxed);
    t.begin = s.begin.load(std::memory_order_relaxed);
    t.end = s.end.load(std::memory_order_relaxed);
    t.group = s.group.load(std::memory_order_relaxed);
    return t;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::array<Slot, kCapacity> slots_;
};

struct Worker {
  WorkDeque deque;
  std::thread thread;
};

namespace {

/// The scheduler whose worker loop owns this thread (nullptr on external
/// threads), and its lane index.
thread_local Scheduler* tl_worker_scheduler = nullptr;
thread_local int tl_worker_index = -1;
/// SchedulerScope override for external threads.
thread_local Scheduler* tl_scope_scheduler = nullptr;
/// Rotating steal start so external helpers don't all hammer lane 0.
thread_local unsigned tl_steal_seed = 0;

void record_failure(TaskGroupState& group) {
  std::lock_guard<std::mutex> lock(group.mutex);
  RT_AUDIT_LOCK(audit::LockRank::kSchedGroup);
  if (!group.failed.load(std::memory_order_relaxed)) {
    group.exception = std::current_exception();
    group.failed.store(true, std::memory_order_release);
  }
}

void finish_task(TaskGroupState& group) {
  // The decrement and the completion notify share one critical section, and
  // the waiter confirms its exit under the same mutex: once the waiter holds
  // the lock and reads pending == 0, every finisher's last touch of the
  // group has already happened, so the waiter can safely destroy the state
  // (it lives on the waiting frame's stack). A decrement outside the lock
  // would let the waiter free the group between our decrement and notify.
  std::lock_guard<std::mutex> lock(group.mutex);
  RT_AUDIT_LOCK(audit::LockRank::kSchedGroup);
  if (group.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    group.done_cv.notify_all();
  }
}

}  // namespace
}  // namespace detail

// ---- Scheduler --------------------------------------------------------------

Scheduler::Scheduler(int num_threads) {
  const int extra = std::max(0, num_threads - 1);
  workers_.reserve(static_cast<std::size_t>(extra));
  for (int i = 0; i < extra; ++i) {
    workers_.push_back(std::make_unique<detail::Worker>());
  }
  // Deques exist before any thread starts, so a fast first submitter can
  // never race worker construction.
  for (int i = 0; i < extra; ++i) {
    workers_[static_cast<std::size_t>(i)]->thread =
        std::thread([this, i] { worker_main(i); });
  }
}

Scheduler::~Scheduler() {
  stop_.store(true, std::memory_order_seq_cst);
  signals_.fetch_add(1, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(park_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kSchedPark);
  }
  park_cv_.notify_all();
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
}

int Scheduler::default_thread_count() {
  if (const char* env = std::getenv("RT_THREADS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

Scheduler& Scheduler::instance() {
  static Scheduler scheduler(default_thread_count());
  return scheduler;
}

Scheduler& Scheduler::current() {
  if (detail::tl_worker_scheduler != nullptr) {
    return *detail::tl_worker_scheduler;
  }
  if (detail::tl_scope_scheduler != nullptr) return *detail::tl_scope_scheduler;
  return instance();
}

void Scheduler::submit(const detail::Task& task) {
  task.group->pending.fetch_add(1, std::memory_order_relaxed);
  if (task.priority == TaskPriority::kServing) {
    // Serving lane: never enters a work-stealing deque, so it cannot sit
    // behind a worker's depth-first bulk backlog. The count bump must be
    // visible before the wakeup so a parker's re-check finds the task.
    {
      std::lock_guard<std::mutex> lock(urgent_mutex_);
      RT_AUDIT_LOCK(audit::LockRank::kSchedUrgent);
      urgent_.push_back(task);
    }
    urgent_count_.fetch_add(1, std::memory_order_seq_cst);
    wake_one();
    return;
  }
  bool queued;
  if (detail::tl_worker_scheduler == this) {
    queued = workers_[static_cast<std::size_t>(detail::tl_worker_index)]
                 ->deque.push(task);
  } else {
    std::lock_guard<std::mutex> lock(inject_mutex_);
    RT_AUDIT_LOCK(audit::LockRank::kSchedInject);
    injected_.push_back(task);
    queued = true;
  }
  if (!queued) {
    // Deque full: run depth-first right here rather than blocking.
    execute(task);
    return;
  }
  wake_one();
}

void Scheduler::wake_one() {
  signals_.fetch_add(1, std::memory_order_seq_cst);
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    // Close the park race before notifying: a parker that evaluated its
    // wait predicate before our signals_ bump still holds park_mutex_ until
    // it actually blocks on the condvar, so acquiring the mutex here orders
    // us after that block — the notify cannot slip into the gap and be
    // lost. Uncontended this is one lock/unlock, and only when someone is
    // parked (the no-parked fast path stays lock-free).
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      RT_AUDIT_LOCK(audit::LockRank::kSchedPark);
    }
    park_cv_.notify_one();
  }
}

void Scheduler::execute(const detail::Task& task) {
  detail::TaskGroupState* group = task.group;
  // A failed group cancels its remaining tasks: they complete without
  // running so wait() can rethrow promptly.
  if (!group->failed.load(std::memory_order_acquire)) {
    try {
      task.invoke(task.ctx, task.begin, task.end);
    } catch (...) {
      detail::record_failure(*group);
    }
  }
  detail::finish_task(*group);
}

RT_HOT bool Scheduler::pop_urgent(detail::Task& out) {
  // Lock-free fast path: bulk-only workloads pay one atomic load here.
  if (urgent_count_.load(std::memory_order_seq_cst) == 0) return false;
  std::lock_guard<std::mutex> lock(urgent_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kSchedUrgent);
  if (urgent_.empty()) return false;
  out = urgent_.front();
  urgent_.pop_front();
  urgent_count_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool Scheduler::help_urgent() {
  detail::Task task;
  if (!pop_urgent(task)) return false;
  if (detail::tl_worker_scheduler == this) {
    execute(task);
  } else {
    // Nested fork/join regions inside the task must land on this scheduler.
    SchedulerScope scope(*this);
    execute(task);
  }
  return true;
}

bool Scheduler::pop_injected(detail::Task& out) {
  std::lock_guard<std::mutex> lock(inject_mutex_);
  RT_AUDIT_LOCK(audit::LockRank::kSchedInject);
  if (injected_.empty()) return false;
  out = injected_.front();
  injected_.pop_front();
  return true;
}

RT_HOT bool Scheduler::steal_from_others(int self, detail::Task& out) {
  const int lanes = static_cast<int>(workers_.size());
  if (lanes == 0) return false;
  const int start = self >= 0
                        ? self + 1
                        : static_cast<int>(detail::tl_steal_seed++) % lanes;
  for (int i = 0; i < lanes; ++i) {
    const int victim = (start + i) % lanes;
    if (victim == self) continue;
    if (workers_[static_cast<std::size_t>(victim)]->deque.steal(out)) {
      return true;
    }
  }
  return false;
}

RT_HOT bool Scheduler::try_acquire(int self, detail::Task& out) {
  // Serving tasks overtake every bulk source — including the caller's own
  // deque, whose entries are merely queued (not in-progress) bulk leaves.
  if (pop_urgent(out)) return true;
  if (self >= 0 &&
      workers_[static_cast<std::size_t>(self)]->deque.pop(out)) {
    return true;
  }
  if (steal_from_others(self, out)) return true;
  return pop_injected(out);
}

void Scheduler::worker_main(int index) {
  detail::tl_worker_scheduler = this;
  detail::tl_worker_index = index;
  detail::Task task;
  for (;;) {
    if (try_acquire(index, task)) {
      execute(task);
      continue;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    // Park. Snapshot the signal counter, re-check the queues (a submit
    // between the failed acquire and here bumped the counter, so the wait
    // predicate falls through), then sleep until poked.
    const std::uint64_t sig = signals_.load(std::memory_order_seq_cst);
    parked_.fetch_add(1, std::memory_order_seq_cst);
    if (try_acquire(index, task)) {
      parked_.fetch_sub(1, std::memory_order_seq_cst);
      execute(task);
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(park_mutex_);
      RT_AUDIT_LOCK(audit::LockRank::kSchedPark);
      park_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_acquire) ||
               signals_.load(std::memory_order_seq_cst) != sig;
      });
    }
    parked_.fetch_sub(1, std::memory_order_seq_cst);
  }
}

void Scheduler::wait_group(detail::TaskGroupState& group) {
  const int self =
      detail::tl_worker_scheduler == this ? detail::tl_worker_index : -1;
  // External helpers must look like lanes of this scheduler while running a
  // task, so nested parallel_for calls inside it land here too.
  detail::Task task;
  while (group.pending.load(std::memory_order_acquire) != 0) {
    if (try_acquire(self, task)) {
      if (self >= 0) {
        execute(task);
      } else {
        SchedulerScope scope(*this);
        execute(task);
      }
      continue;
    }
    std::unique_lock<std::mutex> lock(group.mutex);
    RT_AUDIT_LOCK(audit::LockRank::kSchedGroup);
    group.done_cv.wait_for(lock, detail::kWaitSlice, [&] {
      return group.pending.load(std::memory_order_acquire) == 0;
    });
  }
  // Synchronize with the last finisher before the caller may destroy the
  // group: its decrement-to-zero and notify run under this mutex, so
  // acquiring it here means every finisher is fully done with the state.
  // (pending never rises again once zero — only running group tasks and the
  // waiter itself submit.)
  {
    std::lock_guard<std::mutex> lock(group.mutex);
    RT_AUDIT_LOCK(audit::LockRank::kSchedGroup);
  }
  if (group.failed.load(std::memory_order_acquire)) {
    std::exception_ptr failure;
    {
      std::lock_guard<std::mutex> lock(group.mutex);
      RT_AUDIT_LOCK(audit::LockRank::kSchedGroup);
      failure = group.exception;
      group.exception = nullptr;
      group.failed.store(false, std::memory_order_release);  // reusable
    }
    std::rethrow_exception(failure);
  }
}

// ---- parallel_for -----------------------------------------------------------

namespace {

struct ForContext {
  FunctionRef<void(std::int64_t, std::int64_t)> fn;
  std::int64_t grain;
  Scheduler* scheduler;
  detail::TaskGroupState* group;
};

}  // namespace

void Scheduler::for_trampoline(void* ctx, std::int64_t begin,
                               std::int64_t end) {
  auto* c = static_cast<ForContext*>(ctx);
  // Halve until at most grain wide, publishing the upper half each round.
  // The split points depend only on the range and grain, so the leaf
  // partition is identical no matter who steals what.
  while (end - begin > c->grain) {
    const std::int64_t mid = begin + (end - begin) / 2;
    c->scheduler->submit(
        detail::Task{&Scheduler::for_trampoline, c, mid, end, c->group});
    end = mid;
  }
  c->fn(begin, end);
}

void Scheduler::parallel_for(std::int64_t n,
                             FunctionRef<void(std::int64_t, std::int64_t)> fn,
                             std::int64_t grain) {
  if (n <= 0) return;
  if (grain <= 0) {
    // ~4 leaves per lane: enough slack for stealing to balance uneven leaf
    // costs without drowning small loops in fork/join overhead.
    grain = std::max<std::int64_t>(
        1, n / (4 * static_cast<std::int64_t>(num_threads())));
  }
  if (num_threads() == 1 || n <= grain) {
    fn(0, n);
    return;
  }
  detail::TaskGroupState group;
  ForContext ctx{fn, grain, this, &group};
  // The caller keeps the lower halves and runs them depth-first. Its own
  // leaves execute outside the task machinery, so a throw here must be
  // parked in the group rather than unwinding past wait_group — stolen
  // subtasks still hold pointers into this frame until the group drains.
  try {
    for_trampoline(&ctx, 0, n);
  } catch (...) {
    detail::record_failure(group);
  }
  wait_group(group);  // rethrows the first failure, ours or a leaf's
}

// ---- TaskGroup / SchedulerScope ---------------------------------------------

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // The success path calls wait() itself; a straggler's exception during
    // unwind has nowhere to go.
  }
}

void TaskGroup::submit(detail::Task::Invoke invoke, void* ctx) {
  sched_.submit(detail::Task{invoke, ctx, 0, 0, &state_, priority_});
}

void TaskGroup::wait() { sched_.wait_group(state_); }

SchedulerScope::SchedulerScope(Scheduler& scheduler)
    : previous_(detail::tl_scope_scheduler) {
  detail::tl_scope_scheduler = &scheduler;
}

SchedulerScope::~SchedulerScope() {
  detail::tl_scope_scheduler = previous_;
}

void parallel_for(std::int64_t n,
                  FunctionRef<void(std::int64_t, std::int64_t)> fn,
                  std::int64_t grain) {
  Scheduler::current().parallel_for(n, fn, grain);
}

}  // namespace rt
