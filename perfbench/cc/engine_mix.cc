// engine_mix: one caller thread, in process, text in and verdict out,
// through EvaluateAuto, EvaluateQueryAuto and EvaluateDatalogAuto over a
// private plan cache that holds the whole working set (fewer than 128
// texts, warmed in set-up), plus IVM write batches.
//
// Operations come from a deck holding every card a fixed number of times,
// reshuffled per pass by the seed. The seed picks the order, variable names
// and batch contents; the multiset of operation shapes, random graphs and
// random sentences included, is the same under every seed, which keeps
// per-class percentiles steady across seeds.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "datalog/evaluator.h"
#include "datalog/ivm.h"
#include "datalog/program.h"
#include "gen.h"
#include "planner/plan_cache.h"
#include "structures/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fmtk::Element;
using fmtk::Structure;
using fmtk::Tuple;

constexpr std::size_t kThreads = 2;
constexpr int kAlphaVariants = 2;
// The traced run executes this many operations (not a time budget), so
// its counters repeat exactly from run to run.
constexpr std::size_t kTracedOps = 240;
// Outside load on a shared host comes and goes over seconds, so the
// measured phase runs whole deck passes and reports over the fastest of
// them (FastestPasses); 20 passes hold enough Datalog samples for its p99.
constexpr std::size_t kMinKeptPasses = 20;

enum Class { kFo = 0, kDatalog, kWrite, kClassCount };

enum St {
  kC512 = 0, kC4096, kDc1024, kG64, kR512, kR4096, kD128,
  kPath128, kPath64, kRs256, kT7, kT8, kT9, kStCount
};

struct FoCard {
  int kind;
  int variant;
  int structure;
};
// Bounded-degree (cycles, disjoint cycles, grid), sparse random (average
// degree 4) and dense random structures, across every route the planner
// takes; each well under 10 ms on its auto route.
const FoCard kFoCards[] = {
    {kForallExists, 0, kC512},  {kForallExists, 1, kC512},
    {kForallExists, 2, kC4096}, {kForallExists, 0, kDc1024},
    {kForallExists, 1, kDc1024}, {kForallExists, 0, kR512},
    {kForallExists, 2, kR4096}, {kTriangle, 0, kC4096},
    {kTriangle, 0, kR512},      {kTriangle, 0, kG64},
    {kTriangle, 0, kD128},      {kDiameter2, 0, kC512},
    {kDiameter2, 0, kC4096},    {kDiameter2, 0, kDc1024},
    {kHasSource, 0, kG64},      {kHasSource, 0, kR4096},
    {kHasSource, 0, kR512},     {kRandomRank3, 0, kD128},
    {kRandomRank3, 0, kD128},   {kTwoPathList, 0, kR512},
    {kTwoPathList, 0, kC4096},  {kTwoPathList, 0, kDc1024},
    {kTriangleList, 0, kR512},
    {kTriangleList, 0, kD128},  {kTriangleList, 0, kC4096},
    {kHopReach, 1, kR4096},     {kHopReach, 0, kG64},
};

struct DlCard {
  int kind;
  int structure;
};
const DlCard kDlCards[] = {
    {kTc, kPath128},       {kTc, kRs256},          {kTcNonlinear, kPath64},
    {kSameGeneration, kT7}, {kTcBound, kDc1024},
    {kTcBound, kT9},       {kTcBound, kPath128},   {kSgBound, kT9},
    {kSgBound, kT8},       {kReachability, kR4096}, {kReachability, kR512},
    {kBoundedHops, kG64},  {kBoundedHops, kR512},
};

// IVM views: transitive closure over a forest of 16-edge chains, and
// same-generation over a forest of depth-4 binary trees; both with spare
// nodes that insert batches attach. Each write card inserts a batch (one
// timed op: apply + read the view) and then deletes it again (a second
// timed op), so the views return to their base between cards and every
// read has an exact expected size.
constexpr std::size_t kChains = 256;
constexpr std::size_t kChainEdges = 16;
constexpr std::size_t kTrees = 128;
constexpr std::size_t kTreeNodes = 31;
constexpr std::size_t kSpare = 1024;
// Batch sizes 64, 192, ..., 960 edges: a near-continuous spread of write
// costs, so the class's percentiles sit inside a smooth distribution.
constexpr std::size_t kMinBatch = 64;
constexpr std::size_t kMaxBatch = 1024;
constexpr std::size_t kBatchStep = 128;

struct Entry {
  int structure = 0;
  std::string text;
  std::vector<std::string> outputs;
  int kind = 0;
  int group = 0;
  Element constant = 0;
};

struct WriteCard {
  int view = 0;  // 0 = tc, 1 = sg
  std::size_t batch = 0;
};

struct Op {
  int cls;
  int index;
};

struct Inputs {
  std::vector<Structure> structures;
  std::vector<Entry> fo;
  std::vector<Entry> dl;
  std::vector<WriteCard> writes;
  Structure tc_base{fmtk::Signature::Graph(), 0};
  Structure sg_base{fmtk::Signature::Graph(), 0};
};

Structure ChainForest() {
  Structure s(fmtk::Signature::Graph(), kChains * (kChainEdges + 1) + kSpare);
  for (std::size_t c = 0; c < kChains; ++c) {
    const auto base = static_cast<Element>(c * (kChainEdges + 1));
    for (Element i = 0; i < kChainEdges; ++i) s.AddTuple(0, {base + i, base + i + 1});
  }
  return s;
}

Structure TreeForest() {
  Structure s(fmtk::Signature::Graph(), kTrees * kTreeNodes + kSpare);
  for (std::size_t t = 0; t < kTrees; ++t) {
    const auto base = static_cast<Element>(t * kTreeNodes);
    for (Element i = 0; 2 * i + 2 < kTreeNodes; ++i) {
      s.AddTuple(0, {base + i, base + 2 * i + 1});
      s.AddTuple(0, {base + i, base + 2 * i + 2});
    }
  }
  return s;
}

Inputs BuildInputs(std::uint64_t seed) {
  Inputs in;
  // The random graphs and random sentences are the same under every seed:
  // a fresh draw can move one text's cost several-fold, and each text is
  // about 2% of the FO class, so the draw would set the class's p99.
  Rng graphs(StreamSeed(0, 11));
  Rng sentences(StreamSeed(0, 13));
  const auto src = [](Structure g, std::vector<Element> s) {
    return WithSources(g, s);
  };
  in.structures.resize(kStCount, Structure(fmtk::Signature::Graph(), 0));
  in.structures[kC512] = src(fmtk::MakeDirectedCycle(512), {0});
  in.structures[kC4096] = src(fmtk::MakeDirectedCycle(4096), {0});
  in.structures[kDc1024] = src(fmtk::MakeDisjointCycles(16, 64), {0});
  in.structures[kG64] = src(fmtk::MakeGrid(64, 64), {0});
  in.structures[kR512] = src(RandomSparseGraph(512, 2, graphs), {0, 1, 2, 3});
  in.structures[kR4096] = src(RandomSparseGraph(4096, 2, graphs), {0, 1, 2, 3});
  in.structures[kD128] = src(RandomSparseGraph(128, 12, graphs), {0});
  in.structures[kPath128] = src(fmtk::MakeDirectedPath(128), {0});
  in.structures[kPath64] = src(fmtk::MakeDirectedPath(64), {0});
  in.structures[kRs256] = src(RandomSparseGraph(256, 1, graphs), {0});
  in.structures[kT7] = src(fmtk::MakeFullBinaryTree(7), {0});
  in.structures[kT8] = src(fmtk::MakeFullBinaryTree(8), {0});
  in.structures[kT9] = src(fmtk::MakeFullBinaryTree(9), {0});

  Rng texts(StreamSeed(seed, 12));
  int group = 0;
  for (const FoCard& card : kFoCards) {
    std::set<std::string> seen;
    std::string random_text;
    if (card.kind == kRandomRank3) {
      random_text = RandomSentenceText(*GraphWithSources(), sentences);
    }
    for (int v = 0; v < kAlphaVariants; ++v) {
      Entry e;
      e.structure = card.structure;
      e.kind = card.kind;
      e.group = group;
      do {
        const FoRequest req = card.kind == kRandomRank3
                                  ? FoRequest{random_text, {}}
                                  : MakeFoRequest(card.kind, card.variant, texts);
        e.text = req.text;
        e.outputs = req.outputs;
      } while (!seen.insert(e.text).second && card.kind != kRandomRank3);
      in.fo.push_back(std::move(e));
      if (card.kind == kRandomRank3) break;  // one text: nothing to rename
    }
    ++group;
  }

  // Bound programs run at four constants spread over the structure (on
  // trees: one node per depth 1-4), so the class holds a spread of costs
  // that does not depend on the seed.
  for (const DlCard& card : kDlCards) {
    const bool bound = card.kind == kTcBound || card.kind == kSgBound;
    const std::size_t n = in.structures[card.structure].domain_size();
    const bool tree = card.structure >= kT7;
    for (std::size_t j = 0; j < (bound ? 4u : 1u); ++j) {
      Entry e;
      e.structure = card.structure;
      e.kind = card.kind;
      e.group = static_cast<int>(in.dl.size());
      e.constant = static_cast<Element>(tree ? (std::size_t{2} << j) - 1 : j * n / 4);
      const DatalogRequest req = MakeDatalogRequest(card.kind, e.constant);
      e.text = req.text;
      e.outputs = req.outputs;
      in.dl.push_back(std::move(e));
    }
  }

  for (int view = 0; view < 2; ++view) {
    for (std::size_t batch = kMinBatch; batch <= kMaxBatch; batch += kBatchStep) {
      in.writes.push_back({view, batch});
    }
  }
  in.tc_base = ChainForest();
  in.sg_base = TreeForest();
  return in;
}

// One pass of the deck: every FO text and every Datalog text twice, every
// write card once (two timed ops each).
std::vector<Op> Deck(const Inputs& in) {
  std::vector<Op> deck;
  for (int k = 0; k < 2; ++k) {
    for (std::size_t i = 0; i < in.fo.size(); ++i) deck.push_back({kFo, static_cast<int>(i)});
  }
  for (int k = 0; k < 2; ++k) {
    for (std::size_t i = 0; i < in.dl.size(); ++i) {
      deck.push_back({kDatalog, static_cast<int>(i)});
    }
  }
  for (std::size_t i = 0; i < in.writes.size(); ++i) {
    deck.push_back({kWrite, static_cast<int>(i)});
  }
  return deck;
}

class OpStream {
 public:
  OpStream(std::uint64_t seed, const Inputs& in)
      : rng_(StreamSeed(seed, 14)), base_(Deck(in)) {}
  Op Next() {
    if (pos_ == deck_.size()) {
      deck_ = base_;
      for (std::size_t i = deck_.size(); i > 1; --i) {
        std::swap(deck_[i - 1], deck_[rng_.Below(i)]);
      }
      pos_ = 0;
    }
    return deck_[pos_++];
  }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  std::vector<Op> base_;
  std::vector<Op> deck_;
  std::size_t pos_ = 0;
};

// A write batch and the view size expected after inserting it.
struct Batch {
  std::vector<Tuple> edges;
  std::size_t expected_after_insert = 0;
};

Batch MakeBatch(const WriteCard& card, std::size_t base_size, Rng& rng) {
  Batch b;
  if (card.view == 0) {
    // Half extensions (a chain's last node to a fresh spare node: 17 new
    // closure pairs each), half shortcuts inside one chain (no new pairs,
    // but DRed must overestimate and rederive on delete).
    const std::size_t extensions = card.batch / 2;
    const auto spare = static_cast<Element>(kChains * (kChainEdges + 1));
    for (std::size_t i = 0; i < extensions; ++i) {
      const auto chain = static_cast<Element>(rng.Below(kChains));
      b.edges.push_back({chain * static_cast<Element>(kChainEdges + 1) +
                             static_cast<Element>(kChainEdges),
                         spare + static_cast<Element>(i)});
    }
    std::set<Tuple> shortcuts;
    while (shortcuts.size() < card.batch - extensions) {
      const auto base = static_cast<Element>(rng.Below(kChains) * (kChainEdges + 1));
      const auto i = static_cast<Element>(rng.Below(kChainEdges - 1));
      const auto j = static_cast<Element>(i + 2 + rng.Below(kChainEdges - 1 - i));
      shortcuts.insert({base + i, base + j});
    }
    b.edges.insert(b.edges.end(), shortcuts.begin(), shortcuts.end());
    b.expected_after_insert = base_size + (kChainEdges + 1) * extensions;
  } else {
    // Fresh children under depth-4 leaves: k new nodes in one tree add the
    // k(k - 1) off-diagonal same-generation pairs (the program's fact rule
    // sg(x,x) already holds for every element).
    std::map<std::size_t, std::size_t> per_tree;
    const auto spare = static_cast<Element>(kTrees * kTreeNodes);
    for (std::size_t i = 0; i < card.batch; ++i) {
      const std::size_t tree = rng.Below(kTrees);
      const auto leaf = static_cast<Element>(tree * kTreeNodes + 15 + rng.Below(16));
      b.edges.push_back({leaf, spare + static_cast<Element>(i)});
      ++per_tree[tree];
    }
    b.expected_after_insert = base_size;
    for (const auto& [tree, k] : per_tree) b.expected_after_insert += k * (k - 1);
  }
  return b;
}

struct State {
  std::unique_ptr<fmtk::PlanCache> cache;
  fmtk::PlannerOptions planner;
  std::vector<std::optional<fmtk::IncrementalDatalogSession>> views;
  std::size_t base_size[2] = {0, 0};
  // Auto route per FO text (from the warm-up), for the answer checks.
  std::vector<fmtk::EngineKind> routes;
};

const char* ViewName(int view) { return view == 0 ? "tc" : "sg"; }

std::unique_ptr<State> Setup(Inputs& in, Layers* layers) {
  auto state = std::make_unique<State>();
  for (Structure& s : in.structures) s = LoadThroughBinary(s, layers);
  state->cache = std::make_unique<fmtk::PlanCache>();
  state->planner.cache = state->cache.get();
  state->planner.threads = kThreads;
  for (const Entry& e : in.fo) {
    fmtk::PlanExplanation explain;
    if (e.outputs.empty()) {
      (void)fmtk::EvaluateAuto(in.structures[e.structure], e.text, state->planner,
                               &explain);
    } else {
      (void)fmtk::EvaluateQueryAuto(in.structures[e.structure], e.text, e.outputs,
                                    state->planner, &explain);
    }
    state->routes.push_back(explain.chosen);
  }
  for (const Entry& e : in.dl) {
    fmtk::PlannerOptions options = state->planner;
    options.datalog_outputs = e.outputs;
    (void)fmtk::EvaluateDatalogAuto(in.structures[e.structure], e.text, options);
  }
  const fmtk::DatalogProgram programs[2] = {fmtk::DatalogProgram::TransitiveClosure(),
                                            fmtk::DatalogProgram::SameGeneration()};
  const Structure* bases[2] = {&in.tc_base, &in.sg_base};
  for (int v = 0; v < 2; ++v) {
    auto session = fmtk::IncrementalDatalogSession::Create(programs[v], *bases[v]);
    if (!session.ok()) {
      std::fprintf(stderr, "perfbench: IVM session: %s\n",
                   session.status().ToString().c_str());
      std::exit(1);
    }
    state->views.emplace_back(std::move(*session));
    state->base_size[v] = state->views[v]->Materialized().at(ViewName(v))->size();
  }
  return state;
}

struct Record {
  int cls;
  int index;
  double ms;
  int kind;
  std::string answer;
};

std::string DatalogSummary(const fmtk::Result<std::map<std::string, fmtk::Relation>>& r) {
  if (!r.ok()) return "error: " + r.status().ToString();
  std::string out;
  for (const auto& [name, relation] : *r) {
    out += name + "=" + std::to_string(relation.size()) + ";";
  }
  return out;
}

// Runs one operation; a write card runs as two timed ops (insert, delete).
// Layers, when set, gets the IVM spans and counters.
void Execute(const Op& op, Inputs& in, State& state, Rng& rng,
             std::vector<Record>& out, Report& report, Layers* layers,
             std::uint64_t op_id) {
  Tracer* t = layers != nullptr ? &layers->tracer : nullptr;
  if (op.cls == kFo) {
    const Entry& e = in.fo[op.index];
    const Structure& s = in.structures[e.structure];
    const auto start = Clock::now();
    std::string answer;
    {
      ScopedSpan span(t, "op.fo", op_id);
      if (e.outputs.empty()) {
        auto v = fmtk::EvaluateAuto(s, e.text, state.planner);
        answer = v.ok() ? (*v ? "true" : "false") : "error: " + v.status().ToString();
      } else {
        auto v = fmtk::EvaluateQueryAuto(s, e.text, e.outputs, state.planner);
        answer = v.ok() ? std::to_string(v->size()) : "error: " + v.status().ToString();
      }
    }
    out.push_back({kFo, op.index, MsSince(start), e.kind, answer});
    return;
  }
  if (op.cls == kDatalog) {
    const Entry& e = in.dl[op.index];
    fmtk::PlannerOptions options = state.planner;
    options.datalog_outputs = e.outputs;
    const auto start = Clock::now();
    std::string answer;
    {
      ScopedSpan span(t, "op.datalog", op_id);
      answer = DatalogSummary(
          fmtk::EvaluateDatalogAuto(in.structures[e.structure], e.text, options));
    }
    out.push_back({kDatalog, op.index, MsSince(start), e.kind, answer});
    return;
  }
  const WriteCard& card = in.writes[op.index];
  fmtk::IncrementalDatalogSession& view = *state.views[card.view];
  const Batch batch = MakeBatch(card, state.base_size[card.view], rng);
  const std::size_t expected[2] = {batch.expected_after_insert,
                                   state.base_size[card.view]};
  for (int phase = 0; phase < 2; ++phase) {
    const auto start = Clock::now();
    std::size_t size = 0;
    fmtk::Status status;
    {
      ScopedSpan span(t, "op.write", op_id);
      {
        ScopedSpan apply(t, phase == 0 ? "ivm.insert" : "ivm.delete", op_id);
        status = phase == 0 ? view.ApplyInsert("E", batch.edges)
                            : view.ApplyDelete("E", batch.edges);
      }
      size = view.Materialized().at(ViewName(card.view))->size();
    }
    const double ms = MsSince(start);
    out.push_back({kWrite, op.index, ms, card.view, std::to_string(size)});
    if (!status.ok() || size != expected[phase]) {
      report.Mismatch(std::string("ivm ") + ViewName(card.view) +
                      (phase == 0 ? " insert" : " delete") + " of " +
                      std::to_string(card.batch) + ": view has " +
                      std::to_string(size) + " rows, want " +
                      std::to_string(expected[phase]));
    }
    if (layers != nullptr) {
      const fmtk::IvmStats& s = view.last_stats();
      layers->Count("ivm.rounds", static_cast<double>(s.rounds));
      layers->Count("ivm.idb_inserted", static_cast<double>(s.idb_inserted));
      layers->Count("ivm.idb_deleted", static_cast<double>(s.idb_deleted));
      layers->Count("ivm.overestimate", static_cast<double>(s.overestimate));
      layers->Count("ivm.rederived", static_cast<double>(s.rederived));
    }
  }
}

// Every FO and Datalog answer against a different route, once per distinct
// (text group, structure); each IVM view against a from-scratch fixpoint.
void CheckAnswers(const Inputs& in, const State& state,
                  const std::vector<Record>& records, Report& report) {
  std::map<int, std::string> fo_ref;
  std::map<int, std::string> dl_ref;
  for (const Record& rec : records) {
    ++report.attempted;
    if (rec.cls == kWrite) continue;  // checked as it ran
    std::string expected;
    if (rec.cls == kFo) {
      const Entry& e = in.fo[rec.index];
      auto it = fo_ref.find(e.group);
      if (it == fo_ref.end()) {
        it = fo_ref.emplace(e.group, ReferenceFoAnswer(in.structures[e.structure], e.text,
                                                       e.outputs, state.routes[rec.index]))
                 .first;
      }
      expected = it->second;
    } else {
      const Entry& e = in.dl[rec.index];
      auto it = dl_ref.find(rec.index);
      if (it == dl_ref.end()) {
        auto program = fmtk::ParseDatalogProgram(e.text);
        auto result = fmtk::EvaluateDatalog(*program, in.structures[e.structure],
                                            fmtk::DatalogStrategy::kSemiNaive);
        if (result.ok() && !e.outputs.empty()) {
          std::map<std::string, fmtk::Relation> kept;
          for (auto& [name, relation] : *result) {
            if (std::find(e.outputs.begin(), e.outputs.end(), name) != e.outputs.end()) {
              kept.emplace(name, relation);
            }
          }
          *result = std::move(kept);
        }
        it = dl_ref.emplace(rec.index, DatalogSummary(result)).first;
      }
      expected = it->second;
    }
    if (rec.answer != expected) {
      const Entry& e = rec.cls == kFo ? in.fo[rec.index] : in.dl[rec.index];
      report.Mismatch((rec.cls == kFo ? std::string("fo") : std::string("datalog")) +
                      ": got '" + rec.answer + "' want '" + expected + "' for " +
                      e.text.substr(0, 120));
    }
  }
  const fmtk::DatalogProgram programs[2] = {fmtk::DatalogProgram::TransitiveClosure(),
                                            fmtk::DatalogProgram::SameGeneration()};
  for (int v = 0; v < 2; ++v) {
    auto scratch = fmtk::EvaluateDatalog(programs[v], state.views[v]->edb(),
                                         fmtk::DatalogStrategy::kSemiNaive);
    const fmtk::Relation* maintained = state.views[v]->Materialized().at(ViewName(v));
    if (!scratch.ok() || !(scratch->at(ViewName(v)) == *maintained)) {
      report.Mismatch(std::string("ivm view ") + ViewName(v) +
                      " differs from the from-scratch fixpoint");
    }
  }
}

// The rate and the class percentiles over the fastest deck passes
// (FastestPasses); pass p's records are [pass_begin[p], pass_begin[p + 1]).
void ReportEndToEnd(const std::vector<Record>& records,
                    const std::vector<std::size_t>& pass_begin,
                    const std::vector<double>& pass_ms, double setup_s, Report& report) {
  ClassSamples classes[kClassCount];
  const std::vector<std::size_t> kept = FastestPasses(pass_ms, kMinKeptPasses);
  double kept_ms = 0.0;
  std::size_t kept_ops = 0;
  for (const std::size_t pass : kept) {
    kept_ms += pass_ms[pass];
    kept_ops += pass_begin[pass + 1] - pass_begin[pass];
    for (std::size_t i = pass_begin[pass]; i < pass_begin[pass + 1]; ++i) {
      classes[records[i].cls].Add(records[i].ms, records[i].kind);
    }
  }
  ReportClass(report, "fo", "class1", classes[kFo], 0.99, FoTemplateNames());
  ReportClass(report, "datalog", "class2", classes[kDatalog], 0.99,
              DatalogTemplateNames());
  ReportClass(report, "write", "class3", classes[kWrite], 0.90, {"ivm_tc", "ivm_sg"});
  report.Set("ops_per_s", static_cast<double>(kept_ops) / (kept_ms / 1000.0), "1/s",
             kept_ops);
  report.Set("setup_s", setup_s, "s", kSetupRepeats);
  report.Note("kept the fastest " + std::to_string(kept.size()) + " of " +
              std::to_string(pass_ms.size()) + " deck passes (" +
              std::to_string(kept_ops / kept.size()) + " operations each)");
}

}  // namespace

std::uint64_t EngineMixSequenceHash(std::uint64_t seed, std::size_t count) {
  const Inputs in = BuildInputs(seed);
  OpStream stream(seed, in);
  std::uint64_t h = Fnv1a("engine_mix");
  for (std::size_t i = 0; i < count; ++i) {
    const Op op = stream.Next();
    if (op.cls == kFo) {
      h = Fnv1a(in.fo[op.index].text, h);
    } else if (op.cls == kDatalog) {
      h = Fnv1a(in.dl[op.index].text, h);
    } else {
      const WriteCard& card = in.writes[op.index];
      for (const Tuple& t : MakeBatch(card, 0, stream.rng()).edges) {
        h = Fnv1a(std::to_string(t[0]) + "," + std::to_string(t[1]), h);
      }
    }
  }
  return h;
}

void RunEngineMix(const RunConfig& config, Report& report) {
  if (!config.trace) {
    // Set-up is timed kSetupRepeats times: once before the measured phase
    // and the rest spread over it, between deck passes, so that the median
    // does not hang on the outside load of one moment.
    std::vector<double> setups;
    const auto timed_setup = [&setups, &config](Inputs* in) {
      const auto start = Clock::now();
      *in = BuildInputs(config.seed);
      auto fresh = Setup(*in, nullptr);
      setups.push_back(MsSince(start) / 1000.0);
      return fresh;
    };
    Inputs in;
    std::unique_ptr<State> state = timed_setup(&in);
    OpStream stream(config.seed, in);
    std::vector<Record> records;
    // Whole deck passes, each timed: every pass runs the same multiset of
    // operations, so pass times compare the machine's speed, not the mix.
    const std::size_t deck_size = Deck(in).size();
    std::vector<std::size_t> pass_begin;
    std::vector<double> pass_ms;
    const std::size_t repeats = kSetupRepeats;
    const auto spare_setup = [&] {
      Inputs spare;
      timed_setup(&spare);
    };
    const auto start = Clock::now();
    const auto deadline =
        start + std::chrono::microseconds(static_cast<long long>(config.seconds * 1e6));
    do {
      pass_begin.push_back(records.size());
      const auto pass_start = Clock::now();
      for (std::size_t i = 0; i < deck_size; ++i) {
        Execute(stream.Next(), in, *state, stream.rng(), records, report, nullptr, 0);
      }
      pass_ms.push_back(MsSince(pass_start));
      if (setups.size() < repeats &&
          MsSince(start) >= 1000.0 * config.seconds * static_cast<double>(setups.size()) /
                                static_cast<double>(repeats)) {
        spare_setup();
      }
    } while (Clock::now() < deadline);
    while (setups.size() < repeats) spare_setup();
    pass_begin.push_back(records.size());
    ReportEndToEnd(records, pass_begin, pass_ms, Median(setups), report);
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    CheckAnswers(in, *state, records, report);
    return;
  }

  // Traced run: the same fixed-length operation prefix three times, each
  // from a fresh set-up: untraced for the baseline rate, then traced with
  // the side decomposition of every operation, twice, so that any drift in
  // the exact counters between the two traced passes shows.
  double rates[2] = {0.0, 0.0};
  Layers passes[2];
  for (int pass = 0; pass < 3; ++pass) {
    Layers* layers = pass == 0 ? nullptr : &passes[pass - 1];
    Inputs in = BuildInputs(config.seed);
    auto state = Setup(in, layers);
    OpStream stream(config.seed, in);
    std::vector<Record> records;
    double op_ms = 0.0;
    for (std::size_t i = 0; i < kTracedOps; ++i) {
      const Op op = stream.Next();
      const std::size_t before = records.size();
      Execute(op, in, *state, stream.rng(), records, report, layers, i + 1);
      for (std::size_t r = before; r < records.size(); ++r) op_ms += records[r].ms;
      if (layers == nullptr) continue;
      if (op.cls == kFo) {
        const Entry& e = in.fo[op.index];
        DecomposeFo(in.structures[e.structure], e.text, e.outputs, state->planner,
                    e.kind == kForallExists, i + 1, *layers);
      } else if (op.cls == kDatalog) {
        const Entry& e = in.dl[op.index];
        DecomposeDatalog(in.structures[e.structure], e.text, e.outputs, state->planner,
                         i + 1, *layers);
      }
    }
    if (pass < 2) rates[pass] = static_cast<double>(records.size()) / (op_ms / 1000.0);
    CheckAnswers(in, *state, records, report);
    if (layers != nullptr) {
      const auto cache = state->cache->stats();
      layers->counters["plan_cache.hits"] = static_cast<double>(cache.hits);
      layers->counters["plan_cache.misses"] = static_cast<double>(cache.misses);
      layers->counters["plan_cache.evictions"] = static_cast<double>(cache.evictions);
      layers->counters["plan_cache.entries"] = static_cast<double>(cache.entries);
    }
  }
  CheckDrift(passes[0], passes[1], report);
  const Layers& layers = passes[0];
  ReportLayers(layers, report);
  report.Set("trace.ops_per_s_untraced", rates[0], "1/s");
  report.Set("trace.ops_per_s_traced", rates[1], "1/s");
  report.Set("trace.overhead_ops_per_s", rates[1] - rates[0], "1/s");
  report.spans = layers.tracer.spans();
}

}  // namespace perfbench
