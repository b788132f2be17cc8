#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The three closed-loop workloads (table1, closure, delta_stream). Each
// runs a fixed round-robin schedule of op classes on one thread, drives
// the program through raqlet::Compiler when untraced, and layer by layer
// (each public layer entry point inside its own span) when traced.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"
#include "storage/database.h"

namespace perfbench {

/// Round index of the untimed warm-up round (its own input stream).
inline constexpr uint64_t kWarmupRound = 1ULL << 40;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds schema, data, engines, stores and (delta_stream) the view.
  virtual raqlet::Status Setup() = 0;

  /// Op classes in schedule order, with empty sample lists.
  virtual std::vector<OpClass> Classes() const = 0;

  /// Runs round `round` of the schedule: each class once, in order
  /// (delta_stream: one full delta cycle). Times every op into `rec`,
  /// checks outputs with the clock paused, and, when `tracer` is set,
  /// runs each op layer by layer inside spans.
  virtual void RunRound(uint64_t round, Recorder* rec, Tracer* tracer) = 0;

  /// Once-per-run checks after the timed phase.
  virtual void Finish(Recorder* /*rec*/, Tracer* /*tracer*/) {}

  /// The database the workload queries.
  virtual raqlet::Database* db() = 0;

  /// Persons in the generated graph (delta edges are drawn over them).
  virtual int persons() const = 0;
};

/// Returns nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

/// Storage probe for the traced run: copies the KNOWS EDB into a fresh
/// Database and times Database::ApplyDelta and the KNOWS index rebuild
/// that follows each delta, over `cycles` seeded delta cycles.
raqlet::Status ProbeStorage(Workload* workload, uint64_t seed,
                            int cycles, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
