#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace raqlet::obs {

std::atomic<TraceSession*> TraceSession::current_{nullptr};

namespace {

// Monotone session counter: a thread's cached buffer pointer is only
// trusted when its cached generation matches the live session's, so a
// session constructed at the address of a destroyed one can never alias
// into stale thread-local state.
std::atomic<uint64_t> g_session_generation{0};

struct TlsSlot {
  uint64_t generation = 0;
  void* buffer = nullptr;
};

thread_local TlsSlot tls_slot;

// Span lifetime bookkeeping (see TraceSession::Enter / Leave): spans open
// process-wide and on this thread, and the generation of the session that
// is alive for recording (0 once its destructor finished waiting).
std::atomic<int64_t> g_open_spans{0};
thread_local int64_t tls_open_spans = 0;
std::atomic<uint64_t> g_live_generation{0};

void AppendJsonEscaped(const std::string& s, std::ostream& os) {
  for (char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
}

}  // namespace

TraceSession::TraceSession()
    : origin_(std::chrono::steady_clock::now()),
      generation_(g_session_generation.fetch_add(1,
                                                 std::memory_order_relaxed) +
                  1) {
  // Live before installed: a span that finds this session installed also
  // finds it live, so none of its events is dropped.
  g_live_generation.store(generation_, std::memory_order_release);
  TraceSession* expected = nullptr;
  if (!current_.compare_exchange_strong(expected, this,
                                        std::memory_order_release)) {
    // Nested sessions would silently split one trace across two sinks;
    // fail loudly instead (tracing is an explicit, single-owner mode).
    std::fprintf(stderr, "TraceSession: a session is already installed\n");
    std::abort();
  }
}

TraceSession::~TraceSession() {
  // Dekker-style handshake with Enter: a span either counts itself in
  // g_open_spans before it can observe this session installed, or it
  // observes the session gone. So once the session is uninstalled, every
  // span that could still touch it is counted, and the wait below covers
  // all of them except the calling thread's own.
  current_.store(nullptr, std::memory_order_seq_cst);
  while (g_open_spans.load(std::memory_order_seq_cst) != tls_open_spans) {
    std::this_thread::yield();
  }
  // The calling thread's still-open spans see this and drop their events.
  uint64_t expected = generation_;
  g_live_generation.compare_exchange_strong(expected, 0,
                                            std::memory_order_acq_rel);
}

TraceSession* TraceSession::Enter() {
  g_open_spans.fetch_add(1, std::memory_order_seq_cst);
  TraceSession* session = current_.load(std::memory_order_seq_cst);
  if (session == nullptr) {
    g_open_spans.fetch_sub(1, std::memory_order_release);
    return nullptr;
  }
  ++tls_open_spans;
  return session;
}

void TraceSession::Leave(TraceSession* session, uint64_t generation,
                         const char* label, int64_t index, int64_t start_us,
                         const TraceArg* args, size_t num_args) {
  // Only this thread can have destroyed the session under an open span
  // (the destructor waits for every other thread's), so this check
  // cannot race with the destruction.
  if (g_live_generation.load(std::memory_order_acquire) == generation) {
    int64_t end_us = session->NowMicros();
    std::string name = index >= 0
                           ? std::string(label) + " " + std::to_string(index)
                           : std::string(label);
    std::vector<std::pair<std::string, int64_t>> recorded;
    for (size_t i = 0; i < num_args; ++i) {
      recorded.emplace_back(args[i].key, args[i].value);
    }
    session->Record(std::move(name), start_us, end_us - start_us,
                    std::move(recorded));
  }
  --tls_open_spans;
  g_open_spans.fetch_sub(1, std::memory_order_release);
}

TraceSession::ThreadBuffer* TraceSession::BufferForThisThread() {
  if (tls_slot.generation == generation_) {
    return static_cast<ThreadBuffer*>(tls_slot.buffer);
  }
  std::lock_guard<std::mutex> lock(registry_mutex_);
  auto buffer = std::make_unique<ThreadBuffer>();
  buffer->tid = static_cast<uint32_t>(buffers_.size());
  ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  tls_slot.generation = generation_;
  tls_slot.buffer = raw;
  return raw;
}

void TraceSession::Record(std::string name, int64_t ts_us, int64_t dur_us,
                          std::vector<std::pair<std::string, int64_t>> args) {
  ThreadBuffer* buffer = BufferForThisThread();
  TraceEvent& event = buffer->events.emplace_back();
  event.name = std::move(name);
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.tid = buffer->tid;
  event.args = std::move(args);
}

size_t TraceSession::event_count() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->events.size();
  return n;
}

std::vector<TraceEvent> TraceSession::Events() const {
  std::vector<TraceEvent> all;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    for (const auto& buffer : buffers_) {
      all.insert(all.end(), buffer->events.begin(), buffer->events.end());
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
                     return a.tid < b.tid;
                   });
  return all;
}

void TraceSession::WriteChromeTrace(std::ostream& os) const {
  std::vector<TraceEvent> events = Events();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) os << ",";
    first = false;
    os << "\n{\"name\":\"";
    AppendJsonEscaped(event.name, os);
    os << "\",\"cat\":\"raqlet\",\"ph\":\"X\",\"ts\":" << event.ts_us
       << ",\"dur\":" << event.dur_us << ",\"pid\":1,\"tid\":" << event.tid;
    if (!event.args.empty()) {
      os << ",\"args\":{";
      for (size_t i = 0; i < event.args.size(); ++i) {
        if (i > 0) os << ",";
        os << "\"";
        AppendJsonEscaped(event.args[i].first, os);
        os << "\":" << event.args[i].second;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

Status TraceSession::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open trace file: " + path);
  }
  WriteChromeTrace(out);
  out.flush();
  if (!out.good()) {
    return Status::InvalidArgument("failed writing trace file: " + path);
  }
  return Status::OK();
}

}  // namespace raqlet::obs
