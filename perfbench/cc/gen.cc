#include "gen.h"

#include <algorithm>
#include <random>

#include "analysis/fo_analyzer.h"
#include "logic/random_formula.h"

namespace perfbench {

using fmtk::Element;
using fmtk::Structure;

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL + 1);
  return rng.Next();
}

std::shared_ptr<const fmtk::Signature> GraphWithSources() {
  static const auto signature = [] {
    auto s = std::make_shared<fmtk::Signature>();
    s->AddRelation("E", 2);
    s->AddRelation("S", 1);
    return std::shared_ptr<const fmtk::Signature>(s);
  }();
  return signature;
}

Structure WithSources(const Structure& graph,
                      const std::vector<Element>& sources) {
  Structure s(GraphWithSources(), graph.domain_size());
  const fmtk::Relation& edges = graph.relation(0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Element* row = edges.TupleData(i);
    s.AddTuple(0, {row[0], row[1]});
  }
  for (Element v : sources) s.AddTuple(1, {v});
  return s;
}

Structure RandomSparseGraph(std::size_t n, std::size_t out_degree, Rng& rng) {
  Structure s(fmtk::Signature::Graph(), n);
  const std::size_t target = n * out_degree;
  std::size_t added = 0;
  while (added < target) {
    const auto a = static_cast<Element>(rng.Below(n));
    const auto b = static_cast<Element>(rng.Below(n));
    if (a != b && s.AddTuple(0, {a, b})) ++added;
  }
  return s;
}

Structure Relabeled(const Structure& s, Rng& rng) {
  const std::size_t n = s.domain_size();
  std::vector<Element> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<Element>(i);
  for (std::size_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  Structure out(s.signature_ptr(), n);
  for (std::size_t r = 0; r < s.signature().relation_count(); ++r) {
    const fmtk::Relation& rel = s.relation(r);
    for (std::size_t i = 0; i < rel.size(); ++i) {
      const Element* row = rel.TupleData(i);
      fmtk::Tuple t(row, row + rel.arity());
      for (Element& e : t) e = perm[e];
      out.AddTuple(r, std::move(t));
    }
  }
  return out;
}

const std::vector<std::string>& FoTemplateNames() {
  static const std::vector<std::string> names = {
      "triangle",    "diameter2",     "forall_exists", "has_source",
      "random_rank3", "two_path_list", "triangle_list", "hop_reach"};
  return names;
}

namespace {

// Distinct bound-variable names; a request draws its names without
// replacement, so alpha-variants of one template are distinct texts.
const char* const kNames[] = {"x", "y", "z", "u", "v", "w", "a", "b",
                              "c", "d", "p", "q", "r", "s", "t", "k"};
constexpr std::size_t kNameCount = sizeof(kNames) / sizeof(kNames[0]);

std::vector<std::string> FreshNames(std::size_t count, Rng& rng) {
  std::vector<std::string> pool(kNames, kNames + kNameCount);
  for (std::size_t i = kNameCount; i > 1; --i) {
    std::swap(pool[i - 1], pool[rng.Below(i)]);
  }
  pool.resize(count);
  return pool;
}

}  // namespace

FoRequest MakeFoRequest(int kind, int variant, Rng& rng) {
  FoRequest req;
  const std::vector<std::string> v = FreshNames(4, rng);
  const std::string &a = v[0], &b = v[1], &c = v[2], &d = v[3];
  const auto e = [](const std::string& x, const std::string& y) {
    return "E(" + x + "," + y + ")";
  };
  switch (kind) {
    case kTriangle:
      req.text = "exists " + a + ". exists " + b + ". exists " + c + ". " +
                 e(a, b) + " & " + e(b, c) + " & " + e(c, a);
      break;
    case kDiameter2:
      req.text = "forall " + a + ". forall " + b + ". " + a + " = " + b +
                 " | " + e(a, b) + " | (exists " + c + ". " + e(a, c) +
                 " & " + e(c, b) + ")";
      break;
    case kForallExists:
      // variant 0: every node has a successor; 1: a successor with a
      // successor; 2: every node has a predecessor.
      if (variant == 0) {
        req.text = "forall " + a + ". exists " + b + ". " + e(a, b);
      } else if (variant == 1) {
        req.text = "forall " + a + ". exists " + b + ". " + e(a, b) +
                   " & (exists " + c + ". " + e(b, c) + ")";
      } else {
        req.text = "forall " + a + ". exists " + b + ". " + e(b, a);
      }
      break;
    case kHasSource:
      req.text = "exists " + a + ". forall " + b + ". ~" + e(b, a);
      break;
    case kTwoPathList:
      req.text = "exists " + b + ". " + e(a, b) + " & " + e(b, c);
      req.outputs = {a, c};
      break;
    case kTriangleList:
      req.text = e(a, b) + " & " + e(b, c) + " & " + e(c, a);
      req.outputs = {a, b, c};
      break;
    case kHopReach:
      // variant + 1 hops from a source.
      if (variant == 0) {
        req.text = "exists " + a + ". S(" + a + ") & " + e(a, d);
      } else {
        req.text = "exists " + a + ". exists " + b + ". S(" + a + ") & " +
                   e(a, b) + " & " + e(b, d);
      }
      req.outputs = {d};
      break;
    default:
      break;
  }
  return req;
}

std::string RandomSentenceText(const fmtk::Signature& signature, Rng& rng) {
  std::mt19937_64 engine(rng.Next());
  fmtk::RandomFormulaOptions options;
  options.max_depth = 4;
  options.variable_pool = 3;
  while (true) {
    const fmtk::Formula f = fmtk::MakeRandomSentence(signature, options, engine);
    const fmtk::FoAnalysis analysis = fmtk::AnalyzeFormula(f);
    if (analysis.quantifier_rank >= 1 && analysis.quantifier_rank <= 3) {
      return f.ToString();
    }
  }
}

const std::vector<std::string>& DatalogTemplateNames() {
  static const std::vector<std::string> names = {
      "reachability", "bounded_hops", "same_generation", "tc_bound",
      "sg_bound",     "tc",           "tc_nonlinear"};
  return names;
}

DatalogRequest MakeDatalogRequest(int kind, Element constant) {
  DatalogRequest req;
  const std::string k = std::to_string(constant);
  switch (kind) {
    case kReachability:
      req.text =
          "node(x) :- E(x,y).\nnode(y) :- E(x,y).\nreach(x) :- S(x).\n"
          "reach(y) :- reach(x), E(x,y).\nunreach(x) :- node(x), !reach(x).\n";
      break;
    case kBoundedHops:
      req.text =
          "hop2(x,y) :- E(x,z), E(z,y).\nmeet(x) :- hop2(x,x).\n"
          "meet(x) :- E(x,x).\n";
      req.outputs = {"meet"};
      break;
    case kSameGeneration:
      req.text =
          "sg(x,y) :- E(p,x), E(p,y).\nsg(x,y) :- E(a,x), sg(a,b), E(b,y).\n";
      break;
    case kTcBound:
      req.text = "tc(x,y) :- E(x,y).\ntc(x,z) :- tc(x,y), E(y,z).\n"
                 "goal(x) :- tc(" + k + ",x).\n";
      req.outputs = {"goal"};
      break;
    case kSgBound:
      req.text =
          "sg(x,y) :- E(p,x), E(p,y).\nsg(x,y) :- E(a,x), sg(a,b), E(b,y).\n"
          "goal(y) :- sg(" + k + ",y).\n";
      req.outputs = {"goal"};
      break;
    case kTc:
      req.text = "tc(x,y) :- E(x,y).\ntc(x,z) :- tc(x,y), E(y,z).\n";
      break;
    case kTcNonlinear:
      req.text = "tc(x,y) :- E(x,y).\ntc(x,z) :- tc(x,y), tc(y,z).\n";
      break;
    default:
      break;
  }
  return req;
}

Zipf::Zipf(std::size_t n) : cdf_(n) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf_[r] = total;
  }
  for (double& x : cdf_) x /= total;
}

std::size_t Zipf::Draw(Rng& rng) const {
  const double u = rng.Unit();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

}  // namespace perfbench
