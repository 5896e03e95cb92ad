// Self-tests of the benchmark's own arithmetic and generators: percentile
// and tail rules, the fastest-pass choice, ratios, span self time, and
// that one seed always yields the same operation sequence. Exits nonzero
// on the first failure.
#include <cmath>
#include <cstdio>
#include <vector>

#include "gen.h"
#include "harness.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  perfbench::ClassSamples s;
  for (int i = 100; i >= 1; --i) s.Add(i, 0);  // added out of order
  Expect(Near(s.At(0.5).value, 50), "p50 of 1..100 is 50");
  Expect(Near(s.At(0.99).value, 99), "p99 of 1..100 is 99");
  Expect(Near(s.At(1.0).value, 100), "p100 is the max");
  Expect(perfbench::NearestRankIndex(1, 0.5) == 0, "single sample");
  Expect(perfbench::NearestRankIndex(3, 0.5) == 1, "p50 of three");
  Expect(perfbench::NearestRankIndex(10, 0.01) == 0, "low q is the min");
  Expect(perfbench::SamplesBeyond(1000, 0.99) == 10, "10 beyond p99 of 1000");
  Expect(perfbench::TailReportable(1000, 0.99), "p99 reportable at n=1000");
  Expect(!perfbench::TailReportable(999, 0.99), "p99 not reportable at n=999");
  Expect(perfbench::TailReportable(100, 0.9), "p90 reportable at n=100");
  Expect(!perfbench::TailReportable(99, 0.9), "p90 not reportable at n=99");
}

void TestClassSamples() {
  perfbench::ClassSamples s;
  for (int i = 0; i < 90; ++i) s.Add(1.0 + i * 0.001, 0);
  for (int i = 0; i < 10; ++i) s.Add(10.0 + i, 1);
  const auto p50 = s.At(0.5);
  Expect(p50.kind == 0 && !p50.on_boundary, "p50 inside kind 0");
  const auto p90 = s.At(0.9);
  Expect(p90.kind == 0 && p90.on_boundary, "p90 on the kind boundary");
  const auto p99 = s.At(0.99);
  Expect(p99.kind == 1 && Near(p99.value, 18), "p99 in kind 1");
}

void TestReportClass() {
  // p50 and p90 of 1..20 under both names, with n beside them.
  perfbench::ClassSamples s;
  for (int i = 1; i <= 20; ++i) s.Add(i, 0);
  perfbench::Report report;
  perfbench::ReportClass(report, "fo", "class1", s, 0.9, {"k"});
  Expect(Near(report.metrics.at("fo_p50_ms").value, 10), "p50 under the class name");
  Expect(Near(report.metrics.at("class1_p90_ms").value, 18), "p90 under the slot name");
  Expect(report.metrics.at("class1_p90_ms").n == 20, "n is the sample count");
}

void TestFastestPasses() {
  // 30 passes taking 30, 29, ..., 1 ms: the fastest tenth is 3 passes, the
  // minimum lifts it to 5, and 4 passes with a minimum of 5 keep all 4.
  std::vector<double> ms;
  for (int i = 30; i >= 1; --i) ms.push_back(i);
  const auto tenth = perfbench::FastestPasses(ms, 1);
  Expect(tenth == std::vector<std::size_t>({29, 28, 27}), "fastest tenth, fastest first");
  Expect(perfbench::FastestPasses(ms, 5).size() == 5, "at least min_kept");
  Expect(perfbench::FastestPasses({4, 1, 3, 2}, 5) ==
             std::vector<std::size_t>({1, 3, 2, 0}),
         "at most all passes");
}

void TestRatios() {
  Expect(Near(perfbench::ShareOf(3, 1), 0.75), "share 3 of 4");
  Expect(Near(perfbench::ShareOf(0, 0), 0), "share of nothing");
  Expect(Near(perfbench::Median({3, 1, 2}), 2), "odd median");
  Expect(Near(perfbench::Median({4, 1, 2, 3}), 2.5), "even median");
}

void TestSelfTime() {
  perfbench::Tracer tracer;
  // parent [0, 10] with children [1, 4] and [5, 9]: self 3.
  tracer.Add({"parent", 0, 10, -1, 1});
  tracer.Add({"child", 1, 4, 0, 1});
  tracer.Add({"child", 5, 9, 0, 1});
  tracer.Add({"leaf", 20, 22.5, -1, 2});
  const auto self = tracer.SelfByName();
  Expect(Near(self.at("parent"), 3), "parent self time");
  Expect(Near(self.at("child"), 7), "children self time");
  Expect(Near(self.at("leaf"), 2.5), "leaf self time");
  Expect(tracer.CountByName().at("child") == 2, "span count");
  perfbench::Layers layers;
  layers.tracer.Add({"planner.plan", 0, 2, -1, 1});
  layers.tracer.Add({"planner.plan", 3, 7, -1, 2});
  layers.Count("plan_cache.hits", 3);
  layers.Count("plan_cache.misses", 1);
  perfbench::Report report;
  perfbench::ReportLayers(layers, report);
  Expect(Near(report.metrics.at("planner.plan_ms").value, 3), "mean layer time");
  Expect(Near(report.metrics.at("plan_cache.hit_ratio").value, 0.75), "hit ratio");
  Expect(Near(report.metrics.at("eval.exec_ms").value, 0), "unused layer is 0");
}

void TestDeterminism() {
  Expect(perfbench::ServeMixSequenceHash(7, 400) == perfbench::ServeMixSequenceHash(7, 400),
         "serve_mix sequence repeats for one seed");
  Expect(perfbench::ServeMixSequenceHash(7, 400) != perfbench::ServeMixSequenceHash(8, 400),
         "serve_mix sequence differs across seeds");
  Expect(perfbench::EngineMixSequenceHash(7, 400) == perfbench::EngineMixSequenceHash(7, 400),
         "engine_mix sequence repeats for one seed");
  Expect(perfbench::EngineMixSequenceHash(7, 400) != perfbench::EngineMixSequenceHash(8, 400),
         "engine_mix sequence differs across seeds");
  Expect(perfbench::ToolboxSequenceHash(7, 400) == perfbench::ToolboxSequenceHash(7, 400),
         "toolbox sequence repeats for one seed");
  Expect(perfbench::ToolboxSequenceHash(7, 400) != perfbench::ToolboxSequenceHash(8, 400),
         "toolbox sequence differs across seeds");
  perfbench::Zipf zipf(2000);
  perfbench::Rng rng(1);
  std::vector<int> counts(2000, 0);
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Draw(rng)];
  Expect(counts[0] > counts[1] && counts[1] > counts[9], "Zipf favours low ranks");
}

}  // namespace

int main() {
  TestPercentiles();
  TestClassSamples();
  TestReportClass();
  TestFastestPasses();
  TestRatios();
  TestSelfTime();
  TestDeterminism();
  std::printf("%s (%d failures)\n", failures == 0 ? "selftest OK" : "selftest FAILED",
              failures);
  return failures == 0 ? 0 : 1;
}
