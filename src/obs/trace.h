#ifndef RAQLET_OBS_TRACE_H_
#define RAQLET_OBS_TRACE_H_

// Execution tracing: RAII spans collected into Chrome trace-event JSON
// (loadable in chrome://tracing and ui.perfetto.dev).
//
// Design goals, in order:
//
//  1. Near-zero cost when tracing is off. A TraceScope constructor is one
//     relaxed atomic load plus a branch; no string is built, no clock is
//     read, nothing allocates. Engines therefore instrument
//     unconditionally and ship the spans in release builds.
//  2. No contention when tracing is on. Each thread records into its own
//     event buffer (registered once per (session, thread) under a mutex,
//     then appended to lock-free by its owning thread), so spans from the
//     runtime's pool workers never serialize on a shared sink.
//  3. Determinism-neutral. Recording a span reads the steady clock and a
//     thread-local buffer; it never touches engine state, so traced runs
//     produce bit-identical query results to untraced runs.
//
// Usage:
//
//   {
//     raqlet::obs::TraceSession session;      // tracing on
//     ... run queries ...
//     RAQLET_RETURN_IF_ERROR(session.WriteChromeTrace("out.json"));
//   }                                         // tracing off again
//
// and at every instrumentation point, simply:
//
//   raqlet::obs::TraceScope span("datalog.scc", scc_index);
//
// Exactly one TraceSession may be alive at a time (the second constructor
// call aborts); export must happen at a quiescent point — after every
// thread that recorded spans has finished its work — which all callers
// (CLI, tests, benches) naturally satisfy by exporting after Run returns.
//
// A span never outlives its session. Pool threads can still be closing a
// span (the worker's "pool.task" wrapper) after the call that used them
// returned, so ~TraceSession waits for every span other threads opened
// under it to close. Spans the destroying thread itself still has open are
// dropped instead: waiting for them would wait forever.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace raqlet::obs {

/// One completed span: a Chrome "X" (complete) event.
struct TraceEvent {
  std::string name;
  int64_t ts_us = 0;   // start, microseconds since session start
  int64_t dur_us = 0;  // duration, microseconds
  uint32_t tid = 0;    // per-session thread id (registration order)
  // Numeric arguments (Chrome "args"), in the order they were attached.
  std::vector<std::pair<std::string, int64_t>> args;
};

/// A numeric span argument: a static key and its value. No default
/// initializers, so a TraceScope's unused argument slots cost nothing.
struct TraceArg {
  const char* key;
  int64_t value;
};

class TraceSession {
 public:
  /// Installs this session as the process-wide current session.
  TraceSession();
  /// Uninstalls, then waits until every span opened under this session on
  /// another thread has closed. Spans still open on the calling thread
  /// are dropped.
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// The installed session, or nullptr when tracing is off. One relaxed
  /// atomic load — this is the whole tracing-off hot path.
  static TraceSession* Current() {
    return current_.load(std::memory_order_relaxed);
  }

  /// Registers an opening span: returns the installed session, kept alive
  /// until the matching Leave, or nullptr (nothing to Leave) when none is
  /// installed any more.
  static TraceSession* Enter();
  /// Closes a span opened by Enter at `start_us`, named "label" or, with
  /// index >= 0, "label index": records it unless the span's own thread
  /// destroyed the session under it, then releases the session.
  static void Leave(TraceSession* session, uint64_t generation,
                    const char* label, int64_t index, int64_t start_us,
                    const TraceArg* args = nullptr, size_t num_args = 0);

  /// Identifies this session among all sessions ever created in the
  /// process (a later session may reuse this one's address).
  uint64_t generation() const { return generation_; }

  /// Records one completed span on the calling thread's buffer.
  void Record(std::string name, int64_t ts_us, int64_t dur_us,
              std::vector<std::pair<std::string, int64_t>> args = {});

  /// Microseconds elapsed since the session started (steady clock).
  int64_t NowMicros() const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  /// Total spans recorded so far, across all threads. Quiescent-point
  /// accessor (see the file comment).
  size_t event_count() const;

  /// All events merged across threads, sorted by (ts, tid). Quiescent
  /// point only.
  std::vector<TraceEvent> Events() const;

  /// Serializes the Chrome trace-event envelope
  /// {"traceEvents": [...], "displayTimeUnit": "ms"}. Quiescent point
  /// only.
  void WriteChromeTrace(std::ostream& os) const;
  /// Same, to a file.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<TraceEvent> events;
  };

  // Finds (or registers) the calling thread's buffer for this session.
  ThreadBuffer* BufferForThisThread();

  static std::atomic<TraceSession*> current_;

  std::chrono::steady_clock::time_point origin_;
  uint64_t generation_ = 0;  // distinguishes sessions at a reused address
  mutable std::mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span. Construct with a static label, or a (label, index) pair for
/// per-SCC / per-round / per-chunk spans — the "label index" name is
/// formatted only when the span is recorded, so call sites stay
/// allocation-free while tracing is off.
class TraceScope {
 public:
  explicit TraceScope(const char* name) : TraceScope(name, -1) {}

  TraceScope(const char* label, int64_t index) {
    if (TraceSession::Current() == nullptr) return;  // tracing off
    session_ = TraceSession::Enter();
    if (session_ == nullptr) return;
    generation_ = session_->generation();
    name_ = label;
    index_ = index;
    start_us_ = session_->NowMicros();
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() {
    if (session_ == nullptr) return;
    TraceSession::Leave(session_, generation_, name_, index_, start_us_,
                        args_, num_args_);
  }

  /// Attaches a numeric argument, exported as the span's Chrome "args";
  /// `key` must be a static string. At most kMaxArgs per span (later ones
  /// are dropped); free when tracing is off.
  void Arg(const char* key, int64_t value) {
    if (session_ == nullptr || num_args_ == kMaxArgs) return;
    args_[num_args_++] = TraceArg{key, value};
  }

  /// True when a session is installed. For call sites that want to skip
  /// building an expensive dynamic annotation.
  static bool Enabled() { return TraceSession::Current() != nullptr; }

  static constexpr size_t kMaxArgs = 3;

 private:
  TraceArg args_[kMaxArgs];
  size_t num_args_ = 0;
  TraceSession* session_ = nullptr;
  uint64_t generation_ = 0;
  const char* name_ = nullptr;
  int64_t index_ = -1;
  int64_t start_us_ = 0;
};

}  // namespace raqlet::obs

#endif  // RAQLET_OBS_TRACE_H_
