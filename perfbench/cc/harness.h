// Measurement plumbing shared by the three workloads: latency samples per
// operation class, the percentile/tail rule, ratios, the span recorder the
// traced run uses, and the report every workload fills in.
#ifndef FMTK_PERFBENCH_HARNESS_H_
#define FMTK_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Index of the nearest-rank q-percentile among n > 0 ascending samples:
/// the smallest sample with at least q of the samples at or below it.
std::size_t NearestRankIndex(std::size_t n, double q);

/// Samples that lie strictly above the nearest-rank q-percentile's rank.
std::size_t SamplesBeyond(std::size_t n, double q);

/// The tail rule: a percentile is reportable only when at least 10
/// samples lie beyond it.
bool TailReportable(std::size_t n, double q);

/// a / (a + b), or 0 when both are 0.
double ShareOf(double a, double b);

/// Latencies of one operation class. Each sample carries the kind of
/// operation inside the class, so a percentile can name the kind it landed
/// on and flag when its neighbourhood mixes kinds.
class ClassSamples {
 public:
  void Add(double ms, int kind) { samples_.push_back({ms, kind}); }
  std::size_t size() const { return samples_.size(); }

  struct Point {
    double value = 0.0;
    int kind = -1;
    /// True when the samples within 1% of n (at least 2) on either side of
    /// the rank are not all of `kind`: the percentile sits on a boundary
    /// between kinds and may flip from run to run.
    bool on_boundary = false;
  };
  /// Nearest-rank percentile q (NearestRankIndex) with its kind; sorts
  /// lazily.
  Point At(double q);

 private:
  struct Sample {
    double ms;
    int kind;
  };
  std::vector<Sample> samples_;
  bool sorted_ = false;
};

/// One span of the traced run: a timed call the benchmark made into a
/// layer, with the span that caused it. Spans of one operation share op.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t op = 0;
};

/// In-memory span store. Begin/End bracket a call; spans nest by the
/// stack of open spans. The traced run hands them to its Report, and they
/// are written out once, when the run ends.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int Begin(const std::string& name, std::uint64_t op);
  void End(int id);
  /// Records a span timed elsewhere (another thread's round trip).
  void Add(Span span) { spans_.push_back(std::move(span)); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total duration per span name.
  std::map<std::string, double> TotalByName() const;
  /// Self time per span name: duration minus the part of it that child
  /// spans cover (children are assumed sequential and inside the parent).
  std::map<std::string, double> SelfByName() const;
  /// Number of spans per name.
  std::map<std::string, std::size_t> CountByName() const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when the tracer is null (an untraced run).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, std::uint64_t op)
      : tracer_(tracer),
        id_(tracer_ != nullptr ? tracer_->Begin(name, op) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;  // Samples behind the value (0 = not a sample stat).
};

/// What one run reports. Metrics are keyed by name; the runner script
/// picks the ones BENCHMARK.json declares for the mode.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;
  std::vector<Span> spans;  // The traced run's spans; empty otherwise.

  void Set(const std::string& name, double value, const std::string& unit,
           std::size_t n = 0) {
    metrics[name] = Metric{value, unit, n};
  }
  /// Records a wrong answer: it counts as a failed operation.
  void Mismatch(const std::string& what);
  void Note(const std::string& line) { notes.push_back(line); }
};

/// Reports p50 and the tail (p99 for tail_q 0.99, p90 for 0.9) of one
/// class under `prefix` (e.g. "fo" -> fo_p50_ms, fo_p99_ms) and under the
/// slot alias (class1_p50_ms ...), each with n = the sample count. Notes
/// name the kind each percentile landed on and flag a kind boundary or a
/// tail with fewer than 10 samples beyond it.
void ReportClass(Report& report, const std::string& prefix,
                 const std::string& slot, ClassSamples& samples, double tail_q,
                 const std::vector<std::string>& kind_names);

/// Peak resident set size of this process in MB (getrusage).
double PeakRssMb();

/// Median of a non-empty vector.
double Median(std::vector<double> values);

/// Indices of the passes a deck-pass workload reports over, fastest
/// first: the fastest tenth of `pass_ms` (rounded up), at least `min_kept`,
/// at most all of them. Outside load on a shared host only ever slows a
/// pass, and every pass does the same work, so these measure the program.
std::vector<std::size_t> FastestPasses(const std::vector<double>& pass_ms,
                                       std::size_t min_kept);

/// Writes every span as one JSON object per line.
bool WriteJsonLines(const std::vector<Span>& spans, const std::string& path);

/// The final JSON line: every metric of the report, plus the counters.
std::string ReportJson(const Report& report);

/// 64-bit FNV-1a, for hashing generated operation sequences.
std::uint64_t Fnv1a(const std::string& bytes, std::uint64_t h = 1469598103934665603ULL);

}  // namespace perfbench

#endif  // FMTK_PERFBENCH_HARNESS_H_
