#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "base/json_out.h"

namespace perfbench {

std::size_t NearestRankIndex(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return std::min(index, n - 1);
}

std::size_t SamplesBeyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - 1 - NearestRankIndex(n, q);
}

bool TailReportable(std::size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

double ShareOf(double a, double b) {
  return a + b == 0.0 ? 0.0 : a / (a + b);
}

ClassSamples::Point ClassSamples::At(double q) {
  Point point;
  if (samples_.empty()) return point;
  if (!sorted_) {
    std::stable_sort(samples_.begin(), samples_.end(),
                     [](const Sample& a, const Sample& b) { return a.ms < b.ms; });
    sorted_ = true;
  }
  const std::size_t n = samples_.size();
  const std::size_t index = NearestRankIndex(n, q);
  point.value = samples_[index].ms;
  point.kind = samples_[index].kind;
  const std::size_t window = std::max<std::size_t>(2, n / 100);
  const std::size_t lo = index >= window ? index - window : 0;
  const std::size_t hi = std::min(n - 1, index + window);
  for (std::size_t i = lo; i <= hi; ++i) {
    if (samples_[i].kind != point.kind) point.on_boundary = true;
  }
  return point;
}

int Tracer::Begin(const std::string& name, std::uint64_t op) {
  Span span;
  span.name = name;
  span.start_ms = MsSince(origin_);
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[static_cast<std::size_t>(id)].end_ms = MsSince(origin_);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::TotalByName() const {
  std::map<std::string, double> total;
  for (const Span& span : spans_) total[span.name] += span.end_ms - span.start_ms;
  return total;
}

std::map<std::string, double> Tracer::SelfByName() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<std::size_t>(span.parent)] +=
          span.end_ms - span.start_ms;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[span.name] +=
        std::max(0.0, span.end_ms - span.start_ms - child_time[i]);
  }
  return self;
}

std::map<std::string, std::size_t> Tracer::CountByName() const {
  std::map<std::string, std::size_t> count;
  for (const Span& span : spans_) ++count[span.name];
  return count;
}

bool WriteJsonLines(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans) {
    std::string line = "{\"name\":";
    fmtk::JsonAppendString(line, span.name);
    line += ",\"start_ms\":" + fmtk::JsonNumber(span.start_ms);
    line += ",\"end_ms\":" + fmtk::JsonNumber(span.end_ms);
    line += ",\"parent\":" + std::to_string(span.parent);
    line += ",\"op\":" + std::to_string(span.op) + "}\n";
    out << line;
  }
  return static_cast<bool>(out);
}

void Report::Mismatch(const std::string& what) {
  ++failed;
  correct = false;
  if (notes.size() < 200) notes.push_back("MISMATCH " + what);
}

void ReportClass(Report& report, const std::string& prefix,
                 const std::string& slot, ClassSamples& samples, double tail_q,
                 const std::vector<std::string>& kind_names) {
  const std::size_t n = samples.size();
  const std::pair<std::string, double> points[] = {
      {"p50", 0.5}, {tail_q >= 0.99 ? "p99" : "p90", tail_q}};
  for (const auto& [label, q] : points) {
    const ClassSamples::Point point = samples.At(q);
    report.Set(prefix + "_" + label + "_ms", point.value, "ms", n);
    report.Set(slot + "_" + label + "_ms", point.value, "ms", n);
    std::string note = prefix + "_" + label + "_ms lands on kind ";
    note += point.kind >= 0 && static_cast<std::size_t>(point.kind) < kind_names.size()
                ? kind_names[static_cast<std::size_t>(point.kind)]
                : std::string("?");
    if (point.on_boundary) note += " (BOUNDARY: neighbouring samples mix kinds)";
    if (!TailReportable(n, q)) {
      note += " (TOO FEW SAMPLES: fewer than 10 beyond " + label + ")";
    }
    report.Note(note);
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<std::size_t> FastestPasses(const std::vector<double>& pass_ms,
                                       std::size_t min_kept) {
  std::vector<std::size_t> order(pass_ms.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return pass_ms[a] < pass_ms[b];
  });
  order.resize(std::min(order.size(), std::max(min_kept, (order.size() + 9) / 10)));
  return order;
}

std::string ReportJson(const Report& report) {
  std::string out = "{\"correct\":";
  out += report.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(report.attempted);
  out += ",\"failed\":" + std::to_string(report.failed);
  out += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    if (!first) out += ',';
    first = false;
    fmtk::JsonAppendString(out, name);
    out += ":{\"value\":";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", metric.value);
    out += buf;
    out += ",\"unit\":";
    fmtk::JsonAppendString(out, metric.unit);
    out += ",\"n\":" + std::to_string(metric.n) + "}";
  }
  out += "}}";
  return out;
}

std::uint64_t Fnv1a(const std::string& bytes, std::uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace perfbench
