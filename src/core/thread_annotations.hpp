// Clang Thread Safety Analysis surface (docs/STATIC_ANALYSIS.md).
//
// Two layers:
//
//   1. HCSCHED_CAPABILITY / HCSCHED_GUARDED_BY / HCSCHED_REQUIRES / ... —
//      thin wrappers over Clang's capability attributes that compile away
//      on every other compiler (and on Clang builds without the analysis,
//      where they are inert but still parsed). The spelling mirrors the
//      LLVM mutex.h reference so the annotations read like the upstream
//      documentation.
//
//   2. core::Mutex / core::MutexLock / core::CondVar — the project's
//      annotated capability types. std::mutex + std::lock_guard are
//      invisible to the analysis (libstdc++ carries no annotations), so
//      every mutex-bearing module holds a core::Mutex and locks it with
//      core::MutexLock; -Wthread-safety then proves the lock discipline on
//      every path at compile time (the `thread-safety` CMake preset turns
//      the analysis into errors).
//
// The wrappers add no state and no indirection over the std primitives;
// CondVar uses std::condition_variable_any so it can wait on the annotated
// Mutex directly (the pool's queue is coarse-grained, so the _any overhead
// is irrelevant — see sim/thread_pool.hpp).
//
// This header is dependency-free by design so any layer may include it.
#pragma once

#include <condition_variable>
#include <mutex>

// Capability attributes are a Clang extension; `__has_attribute` keeps the
// macros inert on GCC/MSVC without a compiler-id cascade.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define HCSCHED_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef HCSCHED_THREAD_ANNOTATION
#define HCSCHED_THREAD_ANNOTATION(x)  // not Clang: annotations compile away
#endif

/// Marks a type as a capability ("mutex" in diagnostics).
#define HCSCHED_CAPABILITY(x) HCSCHED_THREAD_ANNOTATION(capability(x))

/// Marks an RAII type that acquires on construction, releases on destruction.
#define HCSCHED_SCOPED_CAPABILITY HCSCHED_THREAD_ANNOTATION(scoped_lockable)

/// Data member readable/writable only while holding the given capability.
#define HCSCHED_GUARDED_BY(x) HCSCHED_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is guarded by the given capability.
#define HCSCHED_PT_GUARDED_BY(x) HCSCHED_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function that must be called while holding the given capabilities.
#define HCSCHED_REQUIRES(...) \
  HCSCHED_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that acquires the given capabilities and does not release them.
#define HCSCHED_ACQUIRE(...) \
  HCSCHED_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases the given capabilities.
#define HCSCHED_RELEASE(...) \
  HCSCHED_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that acquires the capability iff it returns `ret`.
#define HCSCHED_TRY_ACQUIRE(ret, ...) \
  HCSCHED_THREAD_ANNOTATION(try_acquire_capability(ret, __VA_ARGS__))

/// Function that must NOT be called while holding the given capabilities
/// (deadlock prevention: public entry points of a self-locking class).
#define HCSCHED_EXCLUDES(...) \
  HCSCHED_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returning a reference to the given capability.
#define HCSCHED_RETURN_CAPABILITY(x) \
  HCSCHED_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use carries
/// a comment explaining why the analysis cannot see the invariant.
#define HCSCHED_NO_THREAD_SAFETY_ANALYSIS \
  HCSCHED_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace hcsched::core {

/// std::mutex with the capability attribute: the analysis tracks which
/// paths hold it and rejects unguarded access to HCSCHED_GUARDED_BY fields.
class HCSCHED_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() HCSCHED_ACQUIRE() { m_.lock(); }
  void unlock() HCSCHED_RELEASE() { m_.unlock(); }
  // lint:allow(dead-symbol) — Lockable: std::lock/std::scoped_lock need it
  bool try_lock() HCSCHED_TRY_ACQUIRE(true) { return m_.try_lock(); }

 private:
  // The capability's own storage, not a guarded resource — this is the one
  // mutex in src/ that legitimately has no GUARDED_BY fields.
  std::mutex m_;  // lint:allow(lock-annotation)
};

/// RAII lock over a core::Mutex — the annotated std::lock_guard.
class HCSCHED_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) HCSCHED_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() HCSCHED_RELEASE() { mutex_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

/// Condition variable waitable on a core::Mutex. wait() is annotated
/// REQUIRES so a caller polling a guarded predicate in a while-loop around
/// it type-checks; the transient unlock inside std::condition_variable_any
/// is invisible to the analysis (unannotated std code), which matches the
/// caller-visible contract: the mutex is held before and after.
class CondVar {
 public:
  void wait(Mutex& mutex) HCSCHED_REQUIRES(mutex) { cv_.wait(mutex); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace hcsched::core
