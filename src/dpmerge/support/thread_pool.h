#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "dpmerge/support/annotations.h"
#include "dpmerge/support/mutex.h"

namespace dpmerge::support {

/// Observability hooks for the thread pool. support cannot depend on
/// dpmerge::obs (layering), so the pool publishes job/task lifecycle through
/// this struct instead of calling the flight recorder directly; obs installs
/// its sink once via set_pool_telemetry() (FlightRecorder::instance() does
/// it on first use). Both pointers must be non-null and the struct must have
/// program lifetime. Hooks run on pool threads, outside every pool lock, and
/// must not call back into the pool.
///
/// The serial fast path (no workers, n == 1, or max_threads == 1) never
/// opens a job descriptor and therefore emits no telemetry — by design:
/// that path is the zero-synchronisation degradation the single-core
/// contract promises, and a serial loop has nothing to say about queue
/// depth or worker utilization.
struct PoolTelemetryHooks {
  /// One call per dispatched job, on the submitting thread before any of
  /// its tasks can start: `job_id` is unique in the process, `tasks` =
  /// number of indices.
  void (*job)(std::uint64_t job_id, int tasks);
  /// One call as each task starts and one as it completes, on the thread
  /// running it: `t0_us`/`dur_us` are steady-clock microseconds (same epoch
  /// as obs::now_us).
  void (*task_begin)(std::uint64_t job_id, int pos, std::int64_t t0_us);
  void (*task_end)(std::uint64_t job_id, int pos, std::int64_t t0_us,
                   std::int64_t dur_us);
};

/// Installs (or, with nullptr, removes) the process-wide telemetry sink.
/// Relaxed atomics: a job racing the install may miss events, never crash.
void set_pool_telemetry(const PoolTelemetryHooks* hooks);
const PoolTelemetryHooks* pool_telemetry();

/// A persistent worker pool with a deterministic `parallel_for`. One shared
/// instance (`ThreadPool::shared()`) serves the whole process: the
/// table1/table2/ablation benches spread their (design x flow) cells on it.
/// The library's own passes are serial and submit no pool work.
///
/// Determinism contract (DESIGN.md §11): `parallel_for(n, fn)` guarantees
/// only that `fn(i)` runs exactly once for every i in [0, n) before the call
/// returns — never which thread runs it or in what order. A caller that
/// wants schedule-independent results must make each `fn(i)` a pure function
/// of `i` that writes only into its own pre-sized result slot; any
/// randomness must come from an Rng seeded per index. Every bench cell
/// runner follows that rule.
///
/// Exceptions: if a task throws, the job stops dispensing further indices,
/// every participating thread finishes its current task, and `parallel_for`
/// rethrows one of the captured exceptions on the calling thread (which one
/// is unspecified when several tasks throw). Indices not yet dispatched
/// when the first exception lands do NOT run. The pool stays usable.
///
/// Locking discipline (checked by -Wthread-safety on Clang):
///   `job_mu_` serialises whole `parallel_for` calls — acquired first, held
///   for a job's entire lifetime. `mu_` guards the worker handshake and the
///   job descriptor — acquired under `job_mu_` for setup, alone by workers.
///   Never acquire `job_mu_` while holding `mu_`.
///
/// The calling thread always participates in the loop, so a pool of size 1
/// (or a machine reporting one core) degrades to a plain serial loop with no
/// synchronisation. Nested `parallel_for` calls from inside a worker run the
/// inner loop inline on that worker (no deadlock, no oversubscription).
class ThreadPool {
 public:
  /// `threads` is the total parallel width including the calling thread;
  /// 0 means hardware concurrency. The pool spawns `threads - 1` workers.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallel width (workers + the participating caller).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs `fn(i)` exactly once for every i in [0, n), using at most
  /// `max_threads` threads (0 = the pool's full width). Blocks until every
  /// index ran (or a task threw; see the exception contract above). Safe to
  /// call from inside a worker (runs inline).
  void parallel_for(int n, const std::function<void(int)>& fn,
                    int max_threads = 0) DPMERGE_EXCLUDES(job_mu_, mu_);

  /// Caps the width of future `parallel_for` calls that pass
  /// `max_threads == 0` (0 restores the pool's full width).
  /// Deferred-safe: the cap is read exactly once per job, at job open,
  /// under the pool mutex — a store racing an in-flight job changes only
  /// *future* jobs, never the one running.
  void set_default_cap(int cap) { default_cap_.store(cap); }

  /// The process-wide pool, created on first use with the
  /// `set_shared_threads` width (0 = hardware concurrency at creation time).
  static ThreadPool& shared();

  /// Sets the width used when `shared()` first creates the pool, and the
  /// default cap applied to later `parallel_for` calls on it (a CLI
  /// `--threads N` lands here; 0 restores "use everything"). The pool's
  /// worker count is fixed at first `shared()` use; later calls only move
  /// the cap — and the cap is read once per job at job open, so calling
  /// this while a `shared()` job is in flight is safe and affects only
  /// subsequent jobs. Calling it from *inside* pool work (a worker task,
  /// or a nested inline loop) is a lifecycle error — the reconfiguration
  /// would race the very job executing it — and throws std::logic_error
  /// with a diagnostic naming the misuse.
  static void set_shared_threads(int threads);
  static int shared_threads();

 private:
  void worker_loop();
  void drain();
  void run_one(int i);
  void record_job_error(std::exception_ptr e) DPMERGE_EXCLUDES(mu_);

  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar cv_;       // workers wait for a new job epoch
  CondVar done_cv_;  // caller waits for workers to finish
  std::uint64_t epoch_ DPMERGE_GUARDED_BY(mu_) = 0;
  bool stop_ DPMERGE_GUARDED_BY(mu_) = false;
  int running_ DPMERGE_GUARDED_BY(mu_) = 0;   // workers inside drain()
  int participants_ DPMERGE_GUARDED_BY(mu_) = 0;  // admitted to current job
  int max_participants_ DPMERGE_GUARDED_BY(mu_) = 0;
  std::atomic<int> default_cap_{0};

  // Current job descriptor (valid while job_open_). Written under both
  // job_mu_ and mu_ at job open; held constant for the job's lifetime by
  // job_mu_ and published to workers by the mu_ release/acquire of the
  // epoch handshake — which is why drain()/run_one() may read the
  // descriptor lock-free (annotated on the implementations; manual proof
  // in thread_pool.cpp).
  Mutex job_mu_;  // serialises concurrent parallel_for callers
  bool job_open_ DPMERGE_GUARDED_BY(mu_) = false;
  int job_n_ DPMERGE_GUARDED_BY(mu_) = 0;  // index count
  const std::function<void(int)>* fn_ DPMERGE_GUARDED_BY(mu_) = nullptr;
  std::uint64_t job_id_ DPMERGE_GUARDED_BY(mu_) = 0;  // process-unique
  std::exception_ptr job_error_ DPMERGE_GUARDED_BY(mu_);
  /// Raised by the first failing task; checked (relaxed) by the dispensers
  /// to stop handing out further work. Lock-free on purpose: timeliness
  /// only — correctness of the abort path rests on mu_ (job_error_).
  std::atomic<bool> job_abort_{false};
  std::atomic<int> next_{0};  // index dispenser for the current job

  // Opens the job descriptor and admits workers; returns whether any worker
  // may join (false degrades to a serial drain by the caller alone).
  bool open_job(int count, const std::function<void(int)>* fn,
                int max_threads) DPMERGE_REQUIRES(job_mu_)
      DPMERGE_EXCLUDES(mu_);
  void close_job() DPMERGE_REQUIRES(job_mu_) DPMERGE_EXCLUDES(mu_);
};

}  // namespace dpmerge::support
