#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <functional>

namespace perfbench {

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t RoundSeed(uint64_t seed, uint64_t stream, uint64_t round) {
  return Mix(Mix(Mix(seed) ^ stream) ^ round);
}

uint64_t Fingerprint(const std::vector<raqlet::Tuple>& rows,
                     const raqlet::SymbolTable& symbols) {
  uint64_t sum = 0;
  for (const raqlet::Tuple& row : rows) {
    sum += Mix(std::hash<std::string>{}(raqlet::TupleToString(row, &symbols)));
  }
  return Mix(sum ^ rows.size());
}

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double TailPercentile(size_t n) {
  if (n < 20) return 50;
  return 100.0 * (1.0 - 10.0 / static_cast<double>(n));
}

GroupSummary Summarize(const std::vector<OpClass>& classes, bool deltas) {
  GroupSummary out;
  std::vector<const OpClass*> group;
  for (const OpClass& c : classes) {
    if (c.is_delta == deltas && !c.ms.empty()) group.push_back(&c);
  }
  if (group.empty()) return out;
  out.classes = group.size();
  out.min_samples = group.front()->ms.size();
  for (const OpClass* c : group) {
    out.min_samples = std::min(out.min_samples, c->ms.size());
  }
  out.tail_percentile = TailPercentile(out.min_samples);
  std::vector<double> medians, tails;
  for (const OpClass* c : group) {
    std::vector<double> sorted = c->ms;
    std::sort(sorted.begin(), sorted.end());
    medians.push_back(Quantile(sorted, 0.5));
    tails.push_back(Quantile(sorted, out.tail_percentile / 100.0));
  }
  out.p50_ms = GeoMean(medians);
  out.tail_ms = GeoMean(tails);
  return out;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name)
    : tracer_(tracer), index_(static_cast<int>(tracer->spans_.size())) {
  int parent = tracer->stack_.empty() ? -1 : tracer->stack_.back();
  Clock::time_point now = Clock::now();
  tracer->spans_.push_back({std::move(name), now, now, parent, tracer->op_});
  tracer->stack_.push_back(index_);
}

Tracer::Scope::~Scope() {
  tracer_->spans_[index_].end = Clock::now();
  tracer_->stack_.pop_back();
}

double Tracer::LastOpMs() const {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->name == "op") return MsBetween(it->start, it->end);
  }
  return 0;
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::vector<double> child_ms(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ms[s.parent] += MsBetween(s.start, s.end);
  }
  std::map<std::string, SelfTime> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    SelfTime& st = out[spans_[i].name];
    st.total_ms += MsBetween(spans_[i].start, spans_[i].end) - child_ms[i];
    ++st.spans;
  }
  return out;
}

}  // namespace perfbench
