// raqlet_perfbench: closed-loop, single-client benchmark of query text →
// rows and base-fact delta → maintained view.
//
//   raqlet_perfbench --workload table1|closure|delta_stream --seed N
//                    --seconds S --trace 0|1
//
// Prints a human-readable report, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when any op failed or returned wrong rows, 2 on bad arguments.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "storage/database.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Set-up is repeated this often per run; setup_s is the median.
constexpr int kSetups = 5;
// The traced run sums its counters over this many leading traced rounds,
// so the counters are a pure function of the seed.
constexpr uint64_t kCountedRounds = 2;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"query_p50_ms", "ms"}, {"query_tail_ms", "ms"}, {"ops_per_s", "1/s"},
    {"setup_s", "s"},       {"peak_rss_mb", "MiB"},
};

constexpr Metric kPerLayer[] = {
    {"cypher.parse_ms", "ms"},
    {"pgir.lower_ms", "ms"},
    {"pgir.translate_ms", "ms"},
    {"pgir.dlir_rules", "count"},
    {"opt.optimize_ms", "ms"},
    {"opt.rules_out", "count"},
    {"opt.compile_share", "ratio"},
    {"sqir.translate_ms", "ms"},
    {"datalog.execute_ms", "ms"},
    {"datalog.rounds", "count"},
    {"datalog.tuples_considered", "count"},
    {"datalog.tuples_inserted", "count"},
    {"datalog.insert_ratio", "ratio"},
    {"sql.execute_ms", "ms"},
    {"sql.rows_scanned", "count"},
    {"sql.rows_materialized", "count"},
    {"sql.iterations", "count"},
    {"graph.execute_ms", "ms"},
    {"graph.rows_expanded", "count"},
    {"graph.bfs_visits", "count"},
    {"graph.closure_hit_ratio", "ratio"},
    {"runtime.cpu_per_wall", "ratio"},
    {"incremental.apply_ms.insert", "ms"},
    {"incremental.apply_ms.churn", "ms"},
    {"incremental.apply_ms.remove", "ms"},
    {"incremental.apply_ms.churn_undo", "ms"},
    {"incremental.cost_vs_full", "ratio"},
    {"incremental.bailouts", "count"},
    {"incremental.recomputed_sccs", "count"},
    {"incremental.overdeleted", "count"},
    {"incremental.rederived", "count"},
    {"storage.apply_delta_ms", "ms"},
    {"storage.index_rebuild_ms", "ms"},
    {"storage.bytes_per_tuple", "bytes"},
    {"raqlet.overhead_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.layer_share", "ratio"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have[4] = {false, false, false, false};
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    char* end = nullptr;
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have[1] = *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      have[2] = *end == '\0' && args->seconds > 0;
    } else if (flag == "--trace") {
      args->trace = std::string(value) == "1";
      have[3] = args->trace || std::string(value) == "0";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have[0] && have[1] && have[2] && have[3];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Quantile(v, 0.5);
}

double BytesPerTuple(raqlet::Database* db) {
  double bytes = 0, tuples = 0;
  for (const std::string& name : db->RelationNames()) {
    const raqlet::Relation* rel = db->GetRelation(name).value();
    bytes += static_cast<double>(rel->MemoryBytes());
    tuples += static_cast<double>(rel->size());
  }
  return tuples == 0 ? 0 : bytes / tuples;
}

// The timed phase: whole rounds until `seconds` of timed wall time (the
// paused output checks excluded). Untraced, every round goes to `rec`.
// Traced, even rounds run layer by layer into `rec` and odd rounds
// through the facade into `plain`: interleaved, both halves see the same
// host speed, so their ratio and difference hold up on a noisy host.
struct Phase {
  Recorder rec;
  Recorder plain;
  double wall_ms = 0;
  uint64_t rounds = 0;
};

Phase RunPhase(Workload* w, double seconds, Tracer* tracer) {
  Phase phase;
  phase.rec.classes = phase.plain.classes = w->Classes();
  Clock::time_point start = Clock::now();
  auto timed_ms = [&] {
    return MsBetween(start, Clock::now()) - phase.rec.paused_ms -
           phase.plain.paused_ms;
  };
  uint64_t traced_rounds = 0;
  while (timed_ms() < seconds * 1e3 ||
         (tracer != nullptr && traced_rounds < kCountedRounds)) {
    bool traced = tracer != nullptr && phase.rounds % 2 == 0;
    if (traced) tracer->counting = traced_rounds < kCountedRounds;
    w->RunRound(phase.rounds, tracer == nullptr || traced ? &phase.rec
                                                         : &phase.plain,
                traced ? tracer : nullptr);
    ++phase.rounds;
    if (traced && ++traced_rounds == kCountedRounds) {
      tracer->counters["storage.bytes_per_tuple"] = BytesPerTuple(w->db());
    }
  }
  phase.wall_ms = timed_ms();
  w->Finish(&phase.rec, tracer);
  return phase;
}

// Set-up (data, stores, view) plus the untimed warm-up round, kSetups
// times; keeps the last instance.
std::unique_ptr<Workload> SetUp(const Args& args, double* setup_s) {
  std::unique_ptr<Workload> w;
  std::vector<double> seconds;
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    Clock::time_point t0 = Clock::now();
    w = MakeWorkload(args.workload, args.seed);
    raqlet::Status status = w->Setup();
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return nullptr;
    }
    Recorder warm;
    warm.classes = w->Classes();
    w->RunRound(kWarmupRound, &warm, nullptr);
    if (warm.failed != 0) {
      std::fprintf(stderr, "perfbench: warm-up round failed\n");
      return nullptr;
    }
    seconds.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  *setup_s = Median(seconds);
  return w;
}

std::map<std::string, double> LayerMetrics(const Tracer& t) {
  std::map<std::string, double> m;
  std::map<std::string, Tracer::SelfTime> self = t.SelfTimes();
  const std::string apply = "incremental.apply.";
  double apply_ms = 0, applies = 0;
  for (const auto& [name, st] : self) {
    if (name == "op") continue;
    if (name.rfind(apply, 0) == 0) {
      m["incremental.apply_ms." + name.substr(apply.size())] = st.MeanMs();
      apply_ms += st.total_ms;
      applies += static_cast<double>(st.spans);
    } else {
      m[name + "_ms"] = st.MeanMs();
    }
  }
  for (const auto& [name, value] : t.counters) m[name] = value;

  auto total = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.total_ms;
  };
  auto sum = [&](const char* name) {
    double s = 0;
    auto it = t.times.find(name);
    if (it != t.times.end()) {
      for (double v : it->second) s += v;
    }
    return s;
  };
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };

  if (m.count("datalog.tuples_considered") != 0) {
    m["datalog.insert_ratio"] =
        ratio(m["datalog.tuples_inserted"], m["datalog.tuples_considered"]);
  }
  if (m.count("graph.closure_cache_hits") != 0) {
    m["graph.closure_hit_ratio"] =
        ratio(m["graph.closure_cache_hits"],
              m["graph.closure_cache_hits"] + m["graph.closure_cache_misses"]);
  }
  double compile = total("cypher.parse") + total("pgir.lower") +
                   total("pgir.translate") + total("opt.optimize") +
                   total("sqir.translate");
  double execute = total("datalog.execute") + total("sql.execute") +
                   total("graph.execute");
  if (compile + execute > 0) {
    m["opt.compile_share"] = compile / (compile + execute);
  }
  if (t.times.count("runtime.wall_ms") != 0) {
    m["runtime.cpu_per_wall"] =
        ratio(sum("runtime.cpu_ms"), sum("runtime.wall_ms"));
  }
  if (applies > 0 && t.times.count("incremental.full_eval_ms") != 0) {
    m["incremental.cost_vs_full"] =
        ratio(apply_ms / applies, sum("incremental.full_eval_ms"));
  }
  double op_ms = 0;
  for (const Tracer::Span& s : t.spans()) {
    if (s.name == "op") op_ms += MsBetween(s.start, s.end);
  }
  if (op_ms > 0) m["trace.layer_share"] = 1 - total("op") / op_ms;
  return m;
}

void PrintClasses(const Recorder& rec) {
  std::printf("  %-26s %7s %12s %12s\n", "class", "samples", "p50_ms",
              "p90_ms");
  for (const OpClass& c : rec.classes) {
    std::vector<double> sorted = c.ms;
    std::sort(sorted.begin(), sorted.end());
    std::printf("  %-26s %7zu %12.4f %12.4f\n", c.name.c_str(), sorted.size(),
                Quantile(sorted, 0.5), Quantile(sorted, 0.9));
  }
}

// Per class: mean compile and execute ms of its traced ops (the layer
// spans directly under each op). Shows effects that one op leaves on the
// next, such as a slow compile after a graph-executor op.
void PrintOpBreakdown(const Tracer& t, const Recorder& rec) {
  const std::set<std::string> compile = {"cypher.parse", "pgir.lower",
                                         "pgir.translate", "opt.optimize",
                                         "sqir.translate"};
  struct Sum {
    double compile_ms = 0, execute_ms = 0, ops = 0;
  };
  std::map<std::string, Sum> by_class;
  const std::vector<Tracer::Span>& spans = t.spans();
  for (const Tracer::Span& s : spans) {
    if (s.name == "op") by_class[t.OpLabel(s.op)].ops += 1;
    if (s.parent < 0 || spans[s.parent].name != "op") continue;
    Sum& sum = by_class[t.OpLabel(s.op)];
    (compile.count(s.name) != 0 ? sum.compile_ms : sum.execute_ms) +=
        MsBetween(s.start, s.end);
  }
  std::printf("  %-26s %7s %12s %12s\n", "traced class", "ops", "compile_ms",
              "execute_ms");
  for (const OpClass& c : rec.classes) {
    const Sum& sum = by_class[c.name];
    if (sum.ops == 0) continue;
    std::printf("  %-26s %7.0f %12.4f %12.4f\n", c.name.c_str(), sum.ops,
                sum.compile_ms / sum.ops, sum.execute_ms / sum.ops);
  }
}

void PrintGroup(const char* prefix, const GroupSummary& g) {
  if (g.classes == 0) {
    std::printf("  %s_p50_ms      n/a (no %s classes in this workload)\n",
                prefix, prefix);
    std::printf("  %s_tail_ms     n/a\n", prefix);
    return;
  }
  std::printf(
      "  %s_p50_ms      %.4f ms  (geomean of %zu class medians, >= %zu "
      "samples/class)\n",
      prefix, g.p50_ms, g.classes, g.min_samples);
  std::printf(
      "  %s_tail_ms     %.4f ms  (geomean of %zu class p%.1f, >= %zu "
      "samples/class)\n",
      prefix, g.tail_ms, g.classes, g.tail_percentile, g.min_samples);
}

void PrintJson(bool correct, const Recorder& rec, const Metric* metrics,
               size_t count, const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", rec.attempted, rec.failed);
  for (size_t i = 0; i < count; ++i) {
    auto it = values.find(metrics[i].name);
    double v = it == values.end() || !std::isfinite(it->second) ? 0
                                                                : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name, v, metrics[i].unit);
  }
  std::printf("}}\n");
}

int RunUntraced(const Args& args, Workload* w, double setup_s) {
  Phase phase = RunPhase(w, args.seconds, nullptr);
  const Recorder& rec = phase.rec;
  GroupSummary queries = Summarize(rec.classes, false);
  GroupSummary deltas = Summarize(rec.classes, true);
  size_t completed = rec.attempted - std::min(rec.attempted, rec.failed);
  std::map<std::string, double> m = {
      {"query_p50_ms", queries.p50_ms},
      {"query_tail_ms", queries.tail_ms},
      {"ops_per_s", static_cast<double>(completed) / (phase.wall_ms / 1e3)},
      {"setup_s", setup_s},
      {"peak_rss_mb", PeakRssMb()},
  };
  double error_rate = static_cast<double>(rec.failed) /
                      static_cast<double>(std::max<size_t>(1, rec.attempted));
  PrintClasses(rec);
  std::printf("end-to-end (%llu rounds, %.3f s timed):\n",
              static_cast<unsigned long long>(phase.rounds),
              phase.wall_ms / 1e3);
  PrintGroup("query", queries);
  PrintGroup("delta", deltas);
  std::printf("  ops_per_s         %.4f 1/s  (%zu ops completed)\n",
              m["ops_per_s"], completed);
  std::printf("  setup_s           %.4f s  (median of %d set-ups)\n", setup_s,
              kSetups);
  std::printf("  peak_rss_mb       %.2f MiB\n", m["peak_rss_mb"]);
  std::printf("  error_rate        %.6f  (%zu failed of %zu attempted)\n",
              error_rate, rec.failed, rec.attempted);
  bool correct = rec.failed == 0;
  PrintJson(correct, rec, kEndToEnd, std::size(kEndToEnd), m);
  return correct ? 0 : 1;
}

// What the facade adds beyond the layer calls: per query class, the
// median facade latency (untraced rounds) minus the median layer-call sum
// (traced rounds); the median over classes.
double FacadeOverheadMs(const Tracer& t, const Recorder& plain) {
  std::vector<double> per_class;
  for (const OpClass& c : plain.classes) {
    auto layers = t.times.find("layers." + c.name);
    if (c.is_delta || c.ms.empty() || layers == t.times.end()) continue;
    per_class.push_back(Median(c.ms) - Median(layers->second));
  }
  return Median(per_class);
}

// Layers off this workload's path get their metrics from kCountedRounds
// traced rounds of the workload that does reach them (delta_stream for
// the incremental layer, closure for SQL and graph).
void ProbeMissingLayers(const Args& args, std::map<std::string, double>* m,
                        std::map<std::string, std::string>* notes,
                        Recorder* rec) {
  bool missing = false;
  for (const Metric& metric : kPerLayer) missing |= m->count(metric.name) == 0;
  if (!missing) return;
  std::string other =
      args.workload == "delta_stream" ? "closure" : "delta_stream";
  std::unique_ptr<Workload> p = MakeWorkload(other, args.seed);
  Tracer tracer;
  Recorder probe;
  probe.classes = p->Classes();
  raqlet::Status status = p->Setup();
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench: probe set-up failed: %s\n",
                 status.ToString().c_str());
    ++rec->attempted;
    ++rec->failed;
    return;
  }
  p->RunRound(kWarmupRound, &probe, nullptr);
  for (uint64_t r = 0; r < kCountedRounds; ++r) {
    p->RunRound(r, &probe, &tracer);
  }
  p->Finish(&probe, &tracer);
  rec->attempted += probe.attempted;
  rec->failed += probe.failed;
  std::map<std::string, double> pm = LayerMetrics(tracer);
  for (const Metric& metric : kPerLayer) {
    if (m->count(metric.name) == 0 && pm.count(metric.name) != 0) {
      (*m)[metric.name] = pm[metric.name];
      (*notes)[metric.name] = "(probe: " + other + ")";
    }
  }
}

int RunTraced(const Args& args, Workload* w) {
  Tracer tracer;
  Phase phase = RunPhase(w, args.seconds, &tracer);
  tracer.counting = true;
  raqlet::Status probe = ProbeStorage(w, args.seed, 2, &tracer);
  Recorder rec = phase.rec;
  rec.attempted += phase.plain.attempted + (probe.ok() ? 0 : 1);
  rec.failed += phase.plain.failed + (probe.ok() ? 0 : 1);

  std::map<std::string, double> m = LayerMetrics(tracer);
  GroupSummary plain_q = Summarize(phase.plain.classes, false);
  GroupSummary traced_q = Summarize(phase.rec.classes, false);
  m["trace.overhead_ratio"] = traced_q.p50_ms / plain_q.p50_ms;
  m["raqlet.overhead_ms"] = FacadeOverheadMs(tracer, phase.plain);
  std::map<std::string, std::string> notes;
  ProbeMissingLayers(args, &m, &notes, &rec);

  PrintOpBreakdown(tracer, phase.rec);
  std::printf("per-layer (%llu rounds, every other one traced; counters over "
              "the first %llu traced rounds):\n",
              static_cast<unsigned long long>(phase.rounds),
              static_cast<unsigned long long>(kCountedRounds));
  for (const auto& [name, value] : m) {
    std::printf("  %-34s %.6g %s\n", name.c_str(), value, notes[name].c_str());
  }
  std::printf("  query_p50_ms: %.4f untraced, %.4f traced; the layer spans "
              "cover %.2f%% of traced op time\n",
              plain_q.p50_ms, traced_q.p50_ms, 100 * m["trace.layer_share"]);
  bool correct = rec.failed == 0;
  PrintJson(correct, rec, kPerLayer, std::size(kPerLayer), m);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      MakeWorkload(args.workload, 0) == nullptr) {
    std::fprintf(stderr,
                 "usage: raqlet_perfbench --workload table1|closure|"
                 "delta_stream --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  double setup_s = 0;
  std::unique_ptr<Workload> w = SetUp(args, &setup_s);
  if (w == nullptr) return 1;
  return args.trace ? RunTraced(args, w.get()) : RunUntraced(args, w.get(),
                                                               setup_s);
}
