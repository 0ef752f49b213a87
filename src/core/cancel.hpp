// Cooperative cancellation for long-running heuristics and studies.
//
// A CancelToken is a shared flag plus an optional steady-clock deadline.
// Producers (a CLI --budget-ms, a test, a supervising service) cancel it;
// consumers poll cancelled() at natural yield points and degrade to the
// best result found so far — never an invalid or partial schedule. The
// anytime heuristics (Genitor, SA, Tabu, A*) and the iterative core honor
// the token within one iteration/step of noticing it.
//
// Tokens reach deep call stacks through a thread-local *current token*
// installed by ScopedCancel; sim::ThreadPool::parallel_for_chunks installs
// the caller's token on every worker for the duration of each chunk, so a
// study-level budget is visible to every heuristic the study runs without
// threading a parameter through each signature. With no token installed
// cancellation_requested() is one thread-local pointer test — the machinery
// costs nothing when unused.
//
// Cancellation is cooperative and sticky: once cancelled() returns true it
// returns true forever (a passed deadline latches into the flag).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

namespace hcsched::core {

class CancelToken {
 public:
  /// A fresh, uncancelled token. Copies share the same state.
  CancelToken() : state_(std::make_shared<State>()) {}

  /// Requests cancellation (idempotent, thread-safe). The in-tree callers
  /// only arm deadlines; this is the producer a supervising caller uses.
  // lint:allow(dead-symbol) — explicit cancel is half the token's contract
  void request_cancel() const noexcept {
    state_->flag.store(true, std::memory_order_relaxed);
  }

  /// Arms a wall-clock budget: the token reports cancelled once `budget`
  /// has elapsed from now.
  void cancel_after(std::chrono::nanoseconds budget) const noexcept {
    set_deadline(std::chrono::steady_clock::now() + budget);
  }

  /// Arms an absolute steady-clock deadline.
  void set_deadline(std::chrono::steady_clock::time_point deadline)
      const noexcept {
    state_->deadline_ns.store(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            deadline.time_since_epoch())
            .count(),
        std::memory_order_relaxed);
  }

  /// True once cancellation was requested or the deadline passed. A passed
  /// deadline latches, so later polls skip the clock read.
  bool cancelled() const noexcept {
    State& s = *state_;
    if (s.flag.load(std::memory_order_relaxed)) return true;
    const std::int64_t deadline =
        s.deadline_ns.load(std::memory_order_relaxed);
    if (deadline == kNoDeadline) return false;
    const std::int64_t now =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    if (now < deadline) return false;
    s.flag.store(true, std::memory_order_relaxed);
    return true;
  }

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  // Memory-order audit (PR 2/PR 5, verified under the TSan preset): both
  // atomics are sticky single-direction signals polled in a loop — no data
  // is published through them, so relaxed ordering is correct; the latch
  // store in cancelled() is an idempotent cache, racing writers all write
  // `true`.
  struct State {
    std::atomic<bool> flag{false};
    std::atomic<std::int64_t> deadline_ns{kNoDeadline};
  };

  std::shared_ptr<State> state_;
};

/// The token installed on the calling thread (nullptr when none).
const CancelToken* current_cancel_token() noexcept;

/// Polls the thread's current token; false when none is installed. This is
/// the call heuristic authors place in their main loops (see
/// docs/ROBUSTNESS.md for the cancellation contract).
bool cancellation_requested() noexcept;

/// RAII: installs `token` as the calling thread's current token, restoring
/// the previous one on scope exit. The token must outlive the scope. A null
/// token leaves the thread's current token unchanged, so callers holding an
/// optional token need no branch.
class ScopedCancel {
 public:
  explicit ScopedCancel(const CancelToken* token) noexcept;
  explicit ScopedCancel(const CancelToken& token) noexcept
      : ScopedCancel(&token) {}
  ~ScopedCancel();
  ScopedCancel(const ScopedCancel&) = delete;
  ScopedCancel& operator=(const ScopedCancel&) = delete;

 private:
  const CancelToken* previous_;
};

}  // namespace hcsched::core
