#include "dpmerge/support/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace dpmerge::support {

namespace {

std::atomic<const PoolTelemetryHooks*>& telemetry_slot() {
  static std::atomic<const PoolTelemetryHooks*> hooks{nullptr};
  return hooks;
}

/// Steady-clock microseconds, same epoch as obs::now_us (both read
/// std::chrono::steady_clock), so pool task events interleave correctly
/// with obs spans.
std::int64_t steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// True on a thread currently executing pool work; nested parallel_for calls
/// from such a thread run inline instead of re-entering the dispatcher.
bool& t_in_pool_work() {
  thread_local bool in = false;
  return in;
}

/// Job ids are unique across every pool in the process, so telemetry can
/// link a task to the job that submitted it without naming the pool.
std::uint64_t next_job_id() {
  static std::atomic<std::uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::atomic<int>& shared_threads_config() {
  static std::atomic<int> threads{0};
  return threads;
}

}  // namespace

void set_pool_telemetry(const PoolTelemetryHooks* hooks) {
  telemetry_slot().store(hooks, std::memory_order_release);
}

const PoolTelemetryHooks* pool_telemetry() {
  return telemetry_slot().load(std::memory_order_acquire);
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  threads = std::max(threads, 1);
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 0; t < threads - 1; ++t) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
    ++epoch_;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

// Reads the job descriptor lock-free. Manual proof (the analysis cannot
// express a publication protocol): the descriptor is written in open_job
// under mu_ *before* the epoch increment; a worker enters drain() only
// after observing the new epoch under mu_, so the mu_ release/acquire pair
// orders every descriptor read after the writes. The caller thread reads
// its own writes. job_mu_ holds the descriptor constant until close_job,
// which first waits for running_ == 0 under mu_ — no worker can still be
// inside drain() when the descriptor is torn down.
void ThreadPool::run_one(int i) DPMERGE_NO_THREAD_SAFETY_ANALYSIS {
  const PoolTelemetryHooks* tel = pool_telemetry();
  const std::int64_t t0_us = tel != nullptr ? steady_now_us() : 0;
  if (tel != nullptr) tel->task_begin(job_id_, i, t0_us);
  try {
    (*fn_)(i);
  } catch (...) {
    record_job_error(std::current_exception());
  }
  if (tel != nullptr) {
    tel->task_end(job_id_, i, t0_us, steady_now_us() - t0_us);
  }
}

void ThreadPool::drain() DPMERGE_NO_THREAD_SAFETY_ANALYSIS {
  // Index dispenser over [0, job_n_). Stops dispensing once a task has
  // thrown; already-dispensed tasks finish.
  for (int i = next_.fetch_add(1); i < job_n_; i = next_.fetch_add(1)) {
    if (job_abort_.load(std::memory_order_relaxed)) break;
    run_one(i);
  }
}

// The epoch/participant handshake holds mu_ across loop iterations and
// releases it only around drain(); the analysis cannot track a lock held
// across a loop back-edge with a mid-body release, so the proof is manual:
// every field touched here (stop_, epoch_, job_open_, participants_,
// running_) is read/written strictly between mu_.lock() and mu_.unlock().
void ThreadPool::worker_loop() DPMERGE_NO_THREAD_SAFETY_ANALYSIS {
  t_in_pool_work() = true;
  std::uint64_t seen = 0;
  mu_.lock();
  for (;;) {
    cv_.wait(mu_, [&] {
      mu_.assert_held();
      return stop_ || epoch_ != seen;
    });
    if (stop_) break;
    seen = epoch_;
    if (!job_open_ || participants_ >= max_participants_) continue;
    ++participants_;
    ++running_;
    mu_.unlock();
    drain();
    mu_.lock();
    if (--running_ == 0) done_cv_.notify_all();
  }
  mu_.unlock();
}

void ThreadPool::record_job_error(std::exception_ptr e) {
  MutexLock lk(mu_);
  if (!job_error_) job_error_ = std::move(e);
  job_abort_.store(true, std::memory_order_relaxed);
}

bool ThreadPool::open_job(int count, const std::function<void(int)>* fn,
                          int max_threads) {
  const std::uint64_t job_id = next_job_id();
  const int def = default_cap_.load();
  const int cap = max_threads > 0 ? max_threads : (def > 0 ? def : size());
  const int participants = std::min(
      {static_cast<int>(workers_.size()), std::max(cap - 1, 0), count - 1});
  // Telemetry before the job is published, so its record precedes every
  // task's, and outside mu_: the hook must never nest under a pool mutex.
  if (const PoolTelemetryHooks* tel = pool_telemetry()) {
    tel->job(job_id, count);
  }
  {
    MutexLock lk(mu_);
    job_open_ = true;
    job_n_ = count;
    fn_ = fn;
    job_id_ = job_id;
    job_error_ = nullptr;
    job_abort_.store(false, std::memory_order_relaxed);
    next_.store(0, std::memory_order_relaxed);
    participants_ = 0;
    max_participants_ = participants;
    ++epoch_;
  }
  return participants > 0;
}

void ThreadPool::close_job() {
  std::exception_ptr err;
  {
    MutexLock lk(mu_);
    done_cv_.wait(mu_, [this] {
      mu_.assert_held();
      return running_ == 0;
    });
    job_open_ = false;
    err = job_error_;
    job_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(int n, const std::function<void(int)>& fn,
                              int max_threads) {
  if (n <= 0) return;
  // A nested call from inside pool work runs inline on that worker.
  if (t_in_pool_work() || workers_.empty() || n == 1 || max_threads == 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  MutexLock job_lock(job_mu_);
  if (open_job(n, &fn, max_threads)) cv_.notify_all();
  t_in_pool_work() = true;
  drain();
  t_in_pool_work() = false;
  close_job();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(shared_threads_config().load());
  return pool;
}

void ThreadPool::set_shared_threads(int threads) {
  if (t_in_pool_work()) {
    throw std::logic_error(
        "ThreadPool::set_shared_threads: called from inside pool work (a "
        "parallel_for task or a nested inline loop); reconfiguring the "
        "shared pool would race the very job executing this task — move "
        "the call outside the parallel region");
  }
  threads = std::max(threads, 0);
  shared_threads_config().store(threads);
  shared().set_default_cap(threads);
}

int ThreadPool::shared_threads() { return shared_threads_config().load(); }

}  // namespace dpmerge::support
