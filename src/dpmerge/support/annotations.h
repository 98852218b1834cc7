#pragma once

/// Clang Thread Safety Analysis attribute macros (DESIGN.md §12).
///
/// Every shared-mutable surface in the library (ThreadPool,
/// obs::FlightRecorder) declares its locking discipline with these macros
/// so that a Clang build with -Wthread-safety turns the discipline
/// into a compile-time check: reading a DPMERGE_GUARDED_BY(mu) field without
/// holding `mu`, returning while still holding a lock, or calling a
/// DPMERGE_REQUIRES(mu) function lock-free is a hard error in the
/// thread-safety-warnings CI job. On every other compiler (and on Clang
/// without the warning enabled) the macros expand to nothing, so the
/// annotations are free documentation.
///
/// The capability model follows the Clang documentation
/// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html): a
/// DPMERGE_CAPABILITY type (support::Mutex) protects data; functions
/// declare what they acquire, release, require, or must not hold.

#if defined(__clang__) && !defined(SWIG)
#define DPMERGE_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define DPMERGE_THREAD_ANNOTATION(x)
#endif

/// Marks a class as a capability (e.g. a mutex type). The string names the
/// capability kind in diagnostics ("mutex").
#define DPMERGE_CAPABILITY(x) DPMERGE_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class that acquires a capability in its constructor and
/// releases it in its destructor (support::MutexLock).
#define DPMERGE_SCOPED_CAPABILITY DPMERGE_THREAD_ANNOTATION(scoped_lockable)

/// Field annotation: reads and writes require holding the named capability.
#define DPMERGE_GUARDED_BY(x) DPMERGE_THREAD_ANNOTATION(guarded_by(x))

/// Pointer-field annotation: the *pointee* is protected by the capability.
#define DPMERGE_PT_GUARDED_BY(x) DPMERGE_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function acquires the capability (held on return, not on entry).
#define DPMERGE_ACQUIRE(...) \
  DPMERGE_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (held on entry, not on return).
#define DPMERGE_RELEASE(...) \
  DPMERGE_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attempts the capability; first argument is the success value.
#define DPMERGE_TRY_ACQUIRE(...) \
  DPMERGE_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must hold the capability across the call.
#define DPMERGE_REQUIRES(...) \
  DPMERGE_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (the function acquires it itself —
/// documents non-reentrancy and the lock hierarchy).
#define DPMERGE_EXCLUDES(...) \
  DPMERGE_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime no-op that tells the analysis the capability is held here.
/// The sanctioned escape hatch for condition-variable predicates: the
/// lambda body runs under the lock, but the analysis cannot see the
/// wait protocol, so the predicate asserts the fact.
#define DPMERGE_ASSERT_CAPABILITY(x) \
  DPMERGE_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define DPMERGE_RETURN_CAPABILITY(x) \
  DPMERGE_THREAD_ANNOTATION(lock_returned(x))

/// Opts a function out of the analysis. Reserved for code whose safety
/// argument is a protocol the analysis cannot express (the ThreadPool
/// epoch/participant handshake); every use carries a comment stating the
/// manual proof.
#define DPMERGE_NO_THREAD_SAFETY_ANALYSIS \
  DPMERGE_THREAD_ANNOTATION(no_thread_safety_analysis)

/// Documentation-only marker for types that are safe because they are
/// *thread-confined*, not because they lock: StatSink, DecisionLog and
/// their TLS accessors (obs::current_sink / obs::prov::current_log) belong
/// to exactly one thread at a time — the thread that installed the scope
/// (DESIGN.md §12).
#define DPMERGE_THREAD_CONFINED
