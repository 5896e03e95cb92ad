// E18 (extension) — Big-structure backbone: streaming bulk ingest and
// incremental view maintenance.
//
// Claims reproduced: (1) sorted-run bulk construction (RelationBuilder)
// builds a fully indexed million-edge relation several times faster than
// tuple-at-a-time Add(), because run sorts + one k-way merge replace per
// tuple hash-map growth and posting appends; (2) maintaining a materialized
// Datalog fixpoint under a 1k-edge batch with the incremental session
// (delta rules for inserts, Backward/Forward for deletes) costs a small fraction of
// recomputing the fixpoint from scratch — the classic IVM win.
//
// The workload graph is a fixed-seed chain forest (chains of 8 edges), so
// transitive closure stays linear in the input and from-scratch
// recomputation is feasible to time; same-generation runs on a forest of
// depth-4 binary trees for the same reason. `--edges N` caps the ingest
// size (default 2^20 ~ 10^6); `--ivm-edges N` caps the maintenance graphs.
// `--json` emits one line per measurement for run_benches.sh.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "datalog/compiled_engine.h"
#include "datalog/ivm.h"
#include "datalog/program.h"
#include "structures/bulk_load.h"
#include "structures/relation.h"
#include "structures/relation_builder.h"
#include "structures/structure.h"

namespace {

using fmtk::CompiledDatalogEngine;
using fmtk::DatalogProgram;
using fmtk::EdgeListOptions;
using fmtk::Element;
using fmtk::IncrementalDatalogSession;
using fmtk::LoadedGraph;
using fmtk::LoadEdgeListText;
using fmtk::ParseStructureBinary;
using fmtk::Relation;
using fmtk::RelationBuilder;
using fmtk::Result;
using fmtk::SerializeStructureBinary;
using fmtk::Structure;
using fmtk::Tuple;

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Workload generation: a chain forest (chains of kChainEdges edges over
// consecutive ids) plus `spare` unused domain elements for insert batches.

constexpr std::size_t kChainEdges = 8;  // 9 nodes per chain.

struct ChainForest {
  std::vector<Tuple> edges;  // Shuffled with a fixed seed.
  std::size_t domain = 0;
  std::size_t chains = 0;
  std::size_t spare_base = 0;  // First unused element id.
};

ChainForest MakeChainForest(std::size_t edge_target, std::size_t spare) {
  ChainForest f;
  f.chains = std::max<std::size_t>(1, edge_target / kChainEdges);
  f.spare_base = f.chains * (kChainEdges + 1);
  f.domain = f.spare_base + spare;
  f.edges.reserve(f.chains * kChainEdges);
  for (std::size_t c = 0; c < f.chains; ++c) {
    const Element base = static_cast<Element>(c * (kChainEdges + 1));
    for (std::size_t i = 0; i < kChainEdges; ++i) {
      f.edges.push_back({static_cast<Element>(base + i),
                         static_cast<Element>(base + i + 1)});
    }
  }
  std::mt19937_64 rng(20260809);
  std::shuffle(f.edges.begin(), f.edges.end(), rng);
  return f;
}

std::string EdgesToText(const std::vector<Tuple>& edges) {
  std::string text;
  text.reserve(edges.size() * 16);
  char line[48];
  for (const Tuple& e : edges) {
    const int len = std::snprintf(line, sizeof(line), "%u %u\n",
                                  static_cast<unsigned>(e[0]),
                                  static_cast<unsigned>(e[1]));
    text.append(line, static_cast<std::size_t>(len));
  }
  return text;
}

// Forest of depth-4 full binary trees (31 nodes, 30 edges each): keeps the
// same-generation fixpoint linear in the number of trees.
ChainForest MakeTreeForest(std::size_t edge_target, std::size_t spare) {
  constexpr std::size_t kTreeNodes = 31;
  constexpr std::size_t kTreeEdges = 30;
  ChainForest f;
  f.chains = std::max<std::size_t>(1, edge_target / kTreeEdges);
  f.spare_base = f.chains * kTreeNodes;
  f.domain = f.spare_base + spare;
  f.edges.reserve(f.chains * kTreeEdges);
  for (std::size_t t = 0; t < f.chains; ++t) {
    const std::size_t base = t * kTreeNodes;
    for (std::size_t i = 0; 2 * i + 2 < kTreeNodes; ++i) {
      f.edges.push_back({static_cast<Element>(base + i),
                         static_cast<Element>(base + 2 * i + 1)});
      f.edges.push_back({static_cast<Element>(base + i),
                         static_cast<Element>(base + 2 * i + 2)});
    }
  }
  std::mt19937_64 rng(977);
  std::shuffle(f.edges.begin(), f.edges.end(), rng);
  return f;
}

Structure LoadForest(const ChainForest& f) {
  EdgeListOptions options;
  options.id_mode = EdgeListOptions::IdMode::kNumeric;
  options.domain_size = f.domain;
  Result<LoadedGraph> graph = LoadEdgeListText(EdgesToText(f.edges), options);
  return std::move(graph->structure);
}

// 1k fresh chains-of-8 edges over spare elements: a pure-growth insert
// batch whose derivations are local to the new chains.
std::vector<Tuple> FreshChainBatch(const ChainForest& f, std::size_t edges) {
  std::vector<Tuple> batch;
  Element next = static_cast<Element>(f.spare_base);
  while (batch.size() < edges) {
    for (std::size_t i = 0; i < kChainEdges && batch.size() < edges; ++i) {
      batch.push_back({next, static_cast<Element>(next + 1)});
      ++next;
    }
    ++next;  // Gap between fresh chains.
  }
  return batch;
}

// Mid-chain cuts in `count` distinct chains: every cut retracts the pairs
// that reach across it (nothing is rederivable).
std::vector<Tuple> MidChainCuts(const ChainForest& f, std::size_t count) {
  std::vector<Tuple> batch;
  const std::size_t step = std::max<std::size_t>(1, f.chains / count);
  for (std::size_t c = 0; c < f.chains && batch.size() < count; c += step) {
    const Element base = static_cast<Element>(c * (kChainEdges + 1));
    batch.push_back({static_cast<Element>(base + 3),
                     static_cast<Element>(base + 4)});
  }
  return batch;
}

// ---------------------------------------------------------------------------
// Measurements.

struct Measurement {
  std::string bench;
  std::size_t n = 0;          // Edges (ingest) or batch size (IVM).
  double wall_ms = 0;
  double per_sec = 0;         // Tuples/sec where meaningful.
  double baseline_ms = 0;     // The contrasted slow path, 0 if none.
  std::size_t out_tuples = 0;
};

double Speedup(const Measurement& m) {
  return m.baseline_ms > 0 && m.wall_ms > 0 ? m.baseline_ms / m.wall_ms : 0;
}

std::vector<Measurement> RunIngestSuite(std::size_t edge_target) {
  std::vector<Measurement> out;
  ChainForest forest = MakeChainForest(edge_target, /*spare=*/0);
  const std::size_t edges = forest.edges.size();
  const std::string text = EdgesToText(forest.edges);

  EdgeListOptions options;
  options.id_mode = EdgeListOptions::IdMode::kNumeric;
  options.domain_size = forest.domain;

  Structure loaded = [&] {
    const auto start = Clock::now();
    Result<LoadedGraph> graph = LoadEdgeListText(text, options);
    const double ms = MsSince(start);
    out.push_back({"edge_list_text", edges, ms, edges / (ms / 1e3), 0,
                   graph->structure.relation(0).size()});
    return std::move(graph->structure);
  }();

  {
    const std::string bytes = SerializeStructureBinary(loaded);
    const auto start = Clock::now();
    Result<Structure> parsed = ParseStructureBinary(bytes);
    const double ms = MsSince(start);
    out.push_back({"binary_parse", edges, ms, edges / (ms / 1e3), 0,
                   parsed->relation(0).size()});
  }

  // Bulk build vs tuple-at-a-time, both ending fully column-indexed.
  // Best-of-3 on each side: the builder finishes in tens of milliseconds,
  // where one scheduler preemption would otherwise swing the ratio.
  {
    double add_ms = 0;
    Relation incremental(0);
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = Clock::now();
      Relation built(2);
      for (const Tuple& e : forest.edges) {
        built.Add(e);
      }
      for (std::size_t c = 0; c < 2; ++c) {
        (void)built.column_index(c);
      }
      const double ms = MsSince(start);
      if (rep == 0 || ms < add_ms) {
        add_ms = ms;
      }
      incremental = std::move(built);
    }

    double bulk_ms = 0;
    Relation bulk(0);
    for (int rep = 0; rep < 3; ++rep) {
      const auto start = Clock::now();
      RelationBuilder builder(2);
      for (const Tuple& e : forest.edges) {
        builder.Add(e);
      }
      Relation built = builder.Build(/*build_column_indexes=*/true);
      const double ms = MsSince(start);
      if (rep == 0 || ms < bulk_ms) {
        bulk_ms = ms;
      }
      bulk = std::move(built);
    }
    out.push_back({"relation_builder", edges, bulk_ms, edges / (bulk_ms / 1e3),
                   add_ms, bulk.size()});
    if (!(bulk == incremental)) {
      std::fprintf(stderr, "FATAL: bulk build diverged from Add path\n");
      std::exit(1);
    }
  }
  return out;
}

std::vector<Measurement> RunIvmSuite(std::size_t ivm_edges,
                                     std::size_t batch_edges) {
  std::vector<Measurement> out;
  auto scratch_ms = [](const DatalogProgram& program, const Structure& edb) {
    const auto start = Clock::now();
    Result<CompiledDatalogEngine> engine =
        CompiledDatalogEngine::Create(program, edb);
    (void)*engine->Evaluate();
    return MsSince(start);
  };

  // Transitive closure on the chain forest.
  {
    const DatalogProgram tc = DatalogProgram::TransitiveClosure();
    ChainForest forest = MakeChainForest(ivm_edges, batch_edges + 256);
    Result<IncrementalDatalogSession> session =
        IncrementalDatalogSession::Create(tc, LoadForest(forest));

    const std::vector<Tuple> inserts = FreshChainBatch(forest, batch_edges);
    auto start = Clock::now();
    (void)session->ApplyInsert("E", inserts);
    const double ins_ms = MsSince(start);
    out.push_back({"ivm_tc_insert", batch_edges, ins_ms, 0,
                   scratch_ms(tc, session->edb()),
                   static_cast<std::size_t>(
                       session->last_stats().idb_inserted)});

    const std::vector<Tuple> cuts = MidChainCuts(forest, batch_edges);
    start = Clock::now();
    (void)session->ApplyDelete("E", cuts);
    const double del_ms = MsSince(start);
    out.push_back({"ivm_tc_delete", cuts.size(), del_ms, 0,
                   scratch_ms(tc, session->edb()),
                   static_cast<std::size_t>(
                       session->last_stats().idb_deleted)});
  }

  // Same-generation on the binary-tree forest (exercises fact schemas).
  {
    const DatalogProgram sg = DatalogProgram::SameGeneration();
    ChainForest forest = MakeTreeForest(ivm_edges / 4, 2 * batch_edges + 256);
    Result<IncrementalDatalogSession> session =
        IncrementalDatalogSession::Create(sg, LoadForest(forest));

    // Attach a pair of fresh children to one leaf per tree.
    std::vector<Tuple> inserts;
    Element next = static_cast<Element>(forest.spare_base);
    for (std::size_t t = 0; t < forest.chains && inserts.size() + 2 <= batch_edges;
         ++t) {
      const Element leaf = static_cast<Element>(t * 31 + 15);  // First leaf.
      inserts.push_back({leaf, next++});
      inserts.push_back({leaf, next++});
    }
    auto start = Clock::now();
    (void)session->ApplyInsert("E", inserts);
    const double ins_ms = MsSince(start);
    out.push_back({"ivm_sg_insert", inserts.size(), ins_ms, 0,
                   scratch_ms(sg, session->edb()),
                   static_cast<std::size_t>(
                       session->last_stats().idb_inserted)});

    // Detach one bottom-level leaf per tree: localized churn whose delete
    // cascade is bounded by the leaf's generation (its cousins keep their
    // same-generation pairs through the surviving arms).
    std::vector<Tuple> cuts;
    for (std::size_t t = 0; t < forest.chains && cuts.size() < batch_edges;
         ++t) {
      // Edge depth-3 node 7 -> first leaf 15.
      cuts.push_back({static_cast<Element>(t * 31 + 7),
                      static_cast<Element>(t * 31 + 15)});
    }
    start = Clock::now();
    (void)session->ApplyDelete("E", cuts);
    const double del_ms = MsSince(start);
    out.push_back({"ivm_sg_delete", cuts.size(), del_ms, 0,
                   scratch_ms(sg, session->edb()),
                   static_cast<std::size_t>(
                       session->last_stats().idb_deleted)});
  }
  return out;
}

void PrintTable(const std::vector<Measurement>& ingest,
                const std::vector<Measurement>& ivm) {
  std::printf("=== E18: bulk ingest & incremental maintenance ===\n");
  std::printf(
      "paper context: big finite structures only matter if you can load "
      "them and keep queries materialized under change\n\n");
  std::printf("-- ingest (chain forest) --\n");
  std::printf("%18s %10s %10s %14s %10s\n", "bench", "edges", "wall_ms",
              "tuples/sec", "vs Add");
  for (const Measurement& m : ingest) {
    if (Speedup(m) > 0) {
      std::printf("%18s %10zu %10.1f %14.0f %9.1fx\n", m.bench.c_str(), m.n,
                  m.wall_ms, m.per_sec, Speedup(m));
    } else {
      std::printf("%18s %10zu %10.1f %14.0f %10s\n", m.bench.c_str(), m.n,
                  m.wall_ms, m.per_sec, "-");
    }
  }
  std::printf("\n-- incremental maintenance (1k-edge batches) --\n");
  std::printf("%18s %10s %12s %12s %10s %12s\n", "bench", "batch",
              "maint_ms", "scratch_ms", "speedup", "idb_delta");
  for (const Measurement& m : ivm) {
    std::printf("%18s %10zu %12.2f %12.1f %9.1fx %12zu\n", m.bench.c_str(),
                m.n, m.wall_ms, m.baseline_ms, Speedup(m), m.out_tuples);
  }
  std::printf(
      "\nshape check: bulk build >= 5x tuple-at-a-time; per-batch "
      "maintenance >= 10x cheaper than from-scratch recomputation.\n\n");
}

void EmitJson(const std::vector<Measurement>& all) {
  for (const Measurement& m : all) {
    std::printf(
        "{\"bench\":\"%s\",\"n\":%zu,\"wall_ms\":%.3f,"
        "\"tuples_per_sec\":%.0f,\"baseline_ms\":%.3f,\"speedup\":%.2f,"
        "\"out_tuples\":%zu}\n",
        m.bench.c_str(), m.n, m.wall_ms, m.per_sec, m.baseline_ms,
        Speedup(m), m.out_tuples);
  }
}

// ---------------------------------------------------------------------------
// google-benchmark section (smaller sizes, steady-state timing).

void BM_RelationBuilderBuild(benchmark::State& state) {
  ChainForest forest =
      MakeChainForest(static_cast<std::size_t>(state.range(0)), 0);
  for (auto _ : state) {
    RelationBuilder builder(2);
    for (const Tuple& e : forest.edges) {
      builder.Add(e);
    }
    Relation r = builder.Build(true);
    benchmark::DoNotOptimize(r.size());
  }
}
BENCHMARK(BM_RelationBuilderBuild)->RangeMultiplier(4)->Range(1 << 14, 1 << 18);

void BM_RelationIncrementalAdd(benchmark::State& state) {
  ChainForest forest =
      MakeChainForest(static_cast<std::size_t>(state.range(0)), 0);
  for (auto _ : state) {
    Relation r(2);
    for (const Tuple& e : forest.edges) {
      r.Add(e);
    }
    for (std::size_t c = 0; c < 2; ++c) {
      benchmark::DoNotOptimize(&r.column_index(c));
    }
  }
}
BENCHMARK(BM_RelationIncrementalAdd)
    ->RangeMultiplier(4)
    ->Range(1 << 14, 1 << 18);

void BM_ApplyInsertTc(benchmark::State& state) {
  const DatalogProgram tc = DatalogProgram::TransitiveClosure();
  ChainForest forest = MakeChainForest(1 << 16, 1 << 14);
  Structure base = LoadForest(forest);
  const std::vector<Tuple> batch =
      FreshChainBatch(forest, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    Result<IncrementalDatalogSession> session =
        IncrementalDatalogSession::Create(tc, base);
    state.ResumeTiming();
    (void)session->ApplyInsert("E", batch);
  }
}
BENCHMARK(BM_ApplyInsertTc)->Arg(100)->Arg(1000);

}  // namespace

int main(int argc, char** argv) {
  std::size_t edge_target = std::size_t{1} << 20;  // ~1.05M edges.
  std::size_t ivm_edges = edge_target;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--edges") == 0 && i + 1 < argc) {
      edge_target = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--ivm-edges") == 0 && i + 1 < argc) {
      ivm_edges = static_cast<std::size_t>(std::atoll(argv[++i]));
    }
  }
  ivm_edges = std::min(ivm_edges, edge_target);
  std::vector<Measurement> ingest = RunIngestSuite(edge_target);
  std::vector<Measurement> ivm = RunIvmSuite(ivm_edges, 1000);
  if (json) {
    ingest.insert(ingest.end(), ivm.begin(), ivm.end());
    EmitJson(ingest);
    return 0;
  }
  PrintTable(ingest, ivm);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
