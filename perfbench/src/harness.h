#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing shared by every workload: per-class latency
// samples, the statistics the report is built from, an in-memory span
// tracer for the traced run, and a canonical row fingerprint for the
// output checks.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/value.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// CPU time of the whole process (all threads), in milliseconds.
double ProcessCpuMs();

/// Peak resident set size of the process, in MiB.
double PeakRssMb();

/// Deterministic 64-bit mixer (SplitMix64); seeds the per-round RNGs so a
/// round's inputs depend only on (seed, stream, round index).
uint64_t Mix(uint64_t x);
uint64_t RoundSeed(uint64_t seed, uint64_t stream, uint64_t round);

/// Order-independent fingerprint of a row multiset: a sum of per-row
/// hashes of the canonical rendering, plus the row count.
uint64_t Fingerprint(const std::vector<raqlet::Tuple>& rows,
                     const raqlet::SymbolTable& symbols);

/// Type-7 (linear interpolation) quantile, q in [0, 1]. `v` is sorted.
double Quantile(const std::vector<double>& sorted, double q);

double GeoMean(const std::vector<double>& values);

/// The highest percentile that leaves at least ten of `n` samples beyond
/// it: 100 * (1 - 10 / n), and never below the median. It moves smoothly
/// with `n`, so a run a little faster or slower than the last does not
/// jump to another rung of a fixed ladder.
double TailPercentile(size_t n);

/// Latency samples of one op class, plus its kind.
struct OpClass {
  std::string name;
  bool is_delta = false;
  std::vector<double> ms;
};

/// Everything a run records: samples per class, op counts, and the time
/// spent in untimed output checks (excluded from the timed phase's wall).
struct Recorder {
  std::vector<OpClass> classes;
  size_t attempted = 0;
  size_t failed = 0;
  double paused_ms = 0;

  void Add(size_t cls, double ms, bool ok) {
    ++attempted;
    if (ok) {
      classes[cls].ms.push_back(ms);
    } else {
      ++failed;
    }
  }
  /// An op that completed but returned wrong rows (found after timing).
  void MarkWrong() { ++failed; }
};

/// Pauses the timed-phase clock for the lifetime of the object.
class PauseScope {
 public:
  explicit PauseScope(Recorder* rec) : rec_(rec), start_(Clock::now()) {}
  ~PauseScope() { rec_->paused_ms += MsBetween(start_, Clock::now()); }
  PauseScope(const PauseScope&) = delete;
  PauseScope& operator=(const PauseScope&) = delete;

 private:
  Recorder* rec_;
  Clock::time_point start_;
};

/// Per-class statistics over the query (or delta) classes of a run:
/// geometric means of the class medians and of the class tail
/// percentiles. Never a percentile over the pooled mix.
struct GroupSummary {
  size_t classes = 0;
  size_t min_samples = 0;
  double tail_percentile = 50;
  double p50_ms = 0;
  double tail_ms = 0;
};
GroupSummary Summarize(const std::vector<OpClass>& classes, bool deltas);

/// In-memory span tracer. Spans nest on a stack (one thread), carry the
/// id of the op that caused them, and are reduced to per-name self time
/// when the run ends. Counters are summed only while `counting` is set,
/// so the traced run can fix them to a deterministic prefix of rounds.
class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    int op;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  /// Starts a new op of class `label`; spans opened until the next call
  /// belong to it.
  void NextOp(std::string label) {
    op_labels_.push_back(std::move(label));
    ++op_;
  }
  /// Class label of op id `op` (ids start at 1; 0 is outside any op).
  const std::string& OpLabel(int op) const { return op_labels_[op - 1]; }

  void Count(const std::string& name, double value) {
    if (counting) counters[name] += value;
  }

  /// Per-name self time: total ms and span count. A span's self time is
  /// its duration minus the durations of its direct children.
  struct SelfTime {
    double total_ms = 0;
    size_t spans = 0;
    double MeanMs() const { return spans == 0 ? 0 : total_ms / spans; }
  };
  std::map<std::string, SelfTime> SelfTimes() const;

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of the most recent root "op" span.
  double LastOpMs() const;

  bool counting = true;
  std::map<std::string, double> counters;
  /// Timings that are not spans: per-class layer sums, engine CPU and
  /// wall time, the from-scratch oracle.
  std::map<std::string, std::vector<double>> times;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<std::string> op_labels_;
  int op_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
