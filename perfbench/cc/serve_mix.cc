// serve_mix: a closed loop of 2 keep-alive loopback clients against an
// in-process QueryServer (2 workers, its own 8 x 64 plan cache).
//
// Mix by count: 75% POST /query, 15% POST /datalog, 5% GET /stats or
// /structure/<name>, 5% PUT /structure/<name>. /query texts are a Zipf
// (s = 1) draw over 2000 distinct texts with about 520 canonical forms:
// text and canonical entries share one 512-entry namespace of the plan
// cache and need about 5x its room, so evictions show. PUTs republish
// a relabeled (isomorphic) copy of a random registry graph as FMTKBIN1:
// they invalidate per-structure memos while reads keep running, and leave
// every constant-free answer unchanged, which keeps the answer checks
// exact under concurrency.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <thread>

#include "base/json_out.h"
#include "datalog/evaluator.h"
#include "datalog/program.h"
#include "gen.h"
#include "logic/parser.h"
#include "planner/canonical.h"
#include "planner/plan_cache.h"
#include "server/http.h"
#include "server/json_value.h"
#include "server/query_server.h"
#include "structures/bulk_load.h"
#include "structures/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fmtk::Element;
using fmtk::Structure;

constexpr int kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kFoPool = 2000;
constexpr int kBoundConstants = 6;
// Relabeled copies per republished graph: r2048 gets three quarters of the
// PUTs, so the write class's p50 and p90 both fall inside its share rather
// than on the boundary between the two sizes.
constexpr int kRelabels[] = {0, 0, 0, 1, 3, 0};
constexpr std::size_t kSideSamples = 120;
constexpr int kWindows = 30;
// A fifth of the stretches: enough /datalog samples for its p99.
constexpr std::size_t kMinKeptWindows = 6;
// Set-ups timed per run (each a few ms), reported as their median.
constexpr int kServeSetups = 40;

enum Class { kQuery = 0, kDatalog, kMeta, kWrite, kClassCount };
const char* const kClassNames[] = {"query", "datalog", "meta", "write"};

// Registry: cycles, a grid, sparse random graphs, a binary tree; each with
// a few source nodes S for the reachability requests.
enum Reg { kC64 = 0, kC1024, kG32, kR512, kR2048, kT10, kRegCount };
const char* const kRegNames[] = {"c64", "c1024", "g32", "r512", "r2048", "t10"};

struct Combo {
  int kind;
  int variant;
  int structure;
};
// Pool rank r draws combo r % size: the same popularity pattern under every
// seed (the seed picks variable names; random sentences and graphs are
// fixed), so the cost profile of a rank does not move with the seed. Every combo costs well
// under a few ms on the auto route. Guarded forall-exists sentences stay on
// the 64-cycle: on larger graphs their compiled cost (n/2 candidates per
// element) depends on element order and on which route the planner's scan
// feedback has settled on, which would move the tail from run to run.
const Combo kFoCombos[] = {
    {kTriangle, 0, kC1024},     {kHopReach, 0, kR2048},
    {kForallExists, 2, kC64},   {kRandomRank3, 0, kC64},
    {kTwoPathList, 0, kC64},    {kDiameter2, 0, kC1024},
    {kHasSource, 0, kG32},      {kTriangleList, 0, kR512},
    {kHopReach, 1, kR512},      {kForallExists, 1, kC64},
    {kRandomRank3, 0, kC64},    {kTriangle, 0, kR512},
    {kHasSource, 0, kR2048},    {kTwoPathList, 0, kC1024},
    {kForallExists, 1, kC64},   {kHopReach, 1, kT10},
    {kTriangle, 0, kC64},       {kDiameter2, 0, kC64},
    {kRandomRank3, 0, kC64},    {kTriangleList, 0, kC1024},
    {kHasSource, 0, kR512},     {kForallExists, 2, kG32},
    {kHopReach, 0, kG32},       {kTwoPathList, 0, kR512},
    {kTriangle, 0, kG32},       {kForallExists, 0, kC64},
    {kHasSource, 0, kC64},      {kRandomRank3, 0, kC64},
    {kTriangleList, 0, kG32},   {kHopReach, 1, kR2048},
    {kTriangle, 0, kT10},       {kHasSource, 0, kT10},
};
constexpr int kComboCount = sizeof(kFoCombos) / sizeof(kFoCombos[0]);

struct DlCombo {
  int kind;
  int structure;
};
const DlCombo kDlCombos[] = {
    {kReachability, kC1024},  {kReachability, kG32},  {kReachability, kR512},
    {kReachability, kR2048},  {kReachability, kT10},  {kBoundedHops, kC1024},
    {kBoundedHops, kG32},     {kBoundedHops, kR512},  {kBoundedHops, kR2048},
    {kBoundedHops, kT10},     {kSameGeneration, kC64}, {kTc, kC64},
    {kTcBound, kC64},         {kTcBound, kG32},       {kTcBound, kT10},
    {kSgBound, kC1024},       {kSgBound, kT10},
};

struct Entry {
  int structure = 0;
  std::string raw;      // Full HTTP request bytes.
  std::string text;     // Query text / program text ("" for meta, write).
  std::vector<std::string> outputs;
  int kind = 0;         // Template kind within the class.
  int group = 0;        // Requests of one group share one answer.
  Element constant = 0;  // Bound constant of tc_bound / sg_bound.
};

struct Inputs {
  std::vector<Structure> registry;
  std::vector<Entry> entries[kClassCount];
};

std::string Post(const char* path, const std::string& body) {
  return std::string("POST ") + path +
         " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string Get(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: perfbench\r\n\r\n";
}

Inputs BuildInputs(std::uint64_t seed) {
  Inputs in;
  // The registry graphs and their sources are the same under every seed:
  // the costs of reachability and listing on the random graphs move by a
  // fifth from one draw to the next, and that would set the class's tail.
  // The seed picks the texts, the request order and the republished copies.
  Rng graphs(StreamSeed(0, 1));
  const auto sources = [&](std::size_t n, std::size_t k) {
    std::vector<Element> s;
    for (std::size_t i = 0; i < k; ++i) s.push_back(static_cast<Element>(graphs.Below(n)));
    return s;
  };
  in.registry.push_back(WithSources(fmtk::MakeDirectedCycle(64), sources(64, 1)));
  in.registry.push_back(WithSources(fmtk::MakeDirectedCycle(1024), sources(1024, 1)));
  in.registry.push_back(WithSources(fmtk::MakeGrid(32, 32), sources(1024, 2)));
  in.registry.push_back(WithSources(RandomSparseGraph(512, 2, graphs), sources(512, 4)));
  in.registry.push_back(WithSources(RandomSparseGraph(2048, 2, graphs), sources(2048, 4)));
  in.registry.push_back(WithSources(fmtk::MakeFullBinaryTree(10), sources(2047, 2)));

  Rng texts(StreamSeed(seed, 2));
  // Random sentences, like the graphs, do not move with the seed: one can
  // cost a hundred times a template.
  Rng sentences(StreamSeed(0, 3));
  std::set<std::string> seen;
  for (std::size_t r = 0; r < kFoPool; ++r) {
    // The most popular ranks (the first round of combos) skip the random
    // sentences: one can cost a hundred times a template, and at a rank
    // that popular it alone would set the class's p99 under some seeds.
    int c = static_cast<int>(r % kComboCount);
    if (r < kComboCount && kFoCombos[c].kind == kRandomRank3) ++c;
    const Combo& combo = kFoCombos[c];
    Entry e;
    e.structure = combo.structure;
    e.kind = combo.kind;
    e.group = combo.kind == kRandomRank3 ? kComboCount + static_cast<int>(r) : c;
    while (true) {
      FoRequest req;
      if (combo.kind == kRandomRank3) {
        req.text = RandomSentenceText(*GraphWithSources(), sentences);
      } else {
        req = MakeFoRequest(combo.kind, combo.variant, texts);
      }
      if (seen.insert(req.text + "@" + kRegNames[combo.structure]).second) {
        e.text = req.text;
        e.outputs = req.outputs;
        break;
      }
    }
    std::string body = "{\"structure\":\"" + std::string(kRegNames[e.structure]) +
                       "\",\"query\":" + fmtk::JsonQuote(e.text);
    if (!e.outputs.empty()) {
      body += ",\"outputs\":[";
      for (std::size_t i = 0; i < e.outputs.size(); ++i) {
        body += (i > 0 ? "," : "") + fmtk::JsonQuote(e.outputs[i]);
      }
      body += "]";
    }
    body += ",\"max_rows\":32}";
    e.raw = Post("/query", body);
    in.entries[kQuery].push_back(std::move(e));
  }

  for (const DlCombo& combo : kDlCombos) {
    const bool bound = combo.kind == kTcBound || combo.kind == kSgBound;
    for (int c = 0; c < (bound ? kBoundConstants : 1); ++c) {
      Entry e;
      e.structure = combo.structure;
      e.kind = combo.kind;
      // Constants spread over the structure (on the tree, one node per
      // depth 1-6): a fixed spread of costs under every seed.
      const std::size_t n = in.registry[combo.structure].domain_size();
      e.constant = static_cast<Element>(combo.structure == kT10
                                            ? (std::size_t{2} << c) - 1
                                            : c * n / kBoundConstants);
      const DatalogRequest req = MakeDatalogRequest(combo.kind, e.constant);
      e.text = req.text;
      e.outputs = req.outputs;
      e.group = static_cast<int>(in.entries[kDatalog].size());
      std::string body = "{\"structure\":\"" +
                         std::string(kRegNames[combo.structure]) +
                         "\",\"program\":" + fmtk::JsonQuote(e.text);
      if (!e.outputs.empty()) {
        body += ",\"outputs\":[" + fmtk::JsonQuote(e.outputs[0]) + "]";
      }
      body += ",\"max_rows\":32}";
      e.raw = Post("/datalog", body);
      in.entries[kDatalog].push_back(std::move(e));
    }
  }

  in.entries[kMeta].push_back(Entry{0, Get("/stats")});
  for (int r = 0; r < kRegCount; ++r) {
    in.entries[kMeta].push_back(Entry{r, Get(std::string("/structure/") + kRegNames[r])});
  }

  Rng relabel(StreamSeed(seed, 4));
  for (int r = 0; r < kRegCount; ++r) {
    for (int k = 0; k < kRelabels[r]; ++k) {
      const std::string body =
          fmtk::SerializeStructureBinary(Relabeled(in.registry[r], relabel));
      Entry e;
      e.structure = r;
      e.text = body;
      e.raw = std::string("PUT /structure/") + kRegNames[r] +
              " HTTP/1.1\r\nHost: perfbench\r\nContent-Length: " +
              std::to_string(body.size()) + "\r\n\r\n" + body;
      in.entries[kWrite].push_back(std::move(e));
    }
  }
  return in;
}

struct Op {
  int cls;
  int index;
};

// One client's operation stream: a pure function of (seed, client).
class OpStream {
 public:
  OpStream(std::uint64_t seed, int client, const Inputs& in)
      : rng_(StreamSeed(seed, 100 + static_cast<std::uint64_t>(client))),
        zipf_(in.entries[kQuery].size()),
        in_(in) {}
  Op Next() {
    const double u = rng_.Unit();
    if (u < 0.75) return {kQuery, static_cast<int>(zipf_.Draw(rng_))};
    if (u < 0.90) return {kDatalog, Pick(kDatalog)};
    if (u < 0.95) return {kMeta, Pick(kMeta)};
    return {kWrite, Pick(kWrite)};
  }

 private:
  int Pick(int cls) {
    return static_cast<int>(rng_.Below(in_.entries[cls].size()));
  }
  Rng rng_;
  Zipf zipf_;
  const Inputs& in_;
};

/// A blocking keep-alive client over one loopback connection.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (fd_ >= 0 &&
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      int one = 1;
      setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      connected_ = true;
    }
  }
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return connected_; }

  /// Sends `raw` and reads one response; returns its status (0 on a
  /// transport failure). The body is left in body().
  int RoundTrip(const std::string& raw) {
    std::size_t sent = 0;
    while (sent < raw.size()) {
      const ssize_t n = send(fd_, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return 0;
      sent += static_cast<std::size_t>(n);
    }
    buffer_.clear();
    std::size_t head_end = std::string::npos;
    std::size_t body_size = 0;
    char chunk[16384];
    while (head_end == std::string::npos || buffer_.size() < head_end + body_size) {
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return 0;
      buffer_.append(chunk, static_cast<std::size_t>(n));
      if (head_end == std::string::npos) {
        const std::size_t pos = buffer_.find("\r\n\r\n");
        if (pos == std::string::npos) continue;
        head_end = pos + 4;
        const std::size_t cl = buffer_.find("Content-Length: ");
        if (cl == std::string::npos || cl > pos) return 0;
        body_size = static_cast<std::size_t>(std::atol(buffer_.c_str() + cl + 16));
      }
    }
    body_.assign(buffer_, head_end, body_size);
    return buffer_.size() >= 12 ? std::atoi(buffer_.c_str() + 9) : 0;
  }
  const std::string& body() const { return body_; }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
  std::string body_;
};

std::string FieldAfter(const std::string& body, const std::string& key) {
  const std::size_t pos = body.find(key);
  if (pos == std::string::npos) return "";
  std::size_t end = pos + key.size();
  while (end < body.size() && body[end] != ',' && body[end] != '}' &&
         body[end] != '"') {
    ++end;
  }
  return body.substr(pos + key.size(), end - pos - key.size());
}

// "pred=rows;..." for each relation of a /datalog response, in the
// response's (sorted) order.
std::string DatalogSummary(const std::string& body) {
  std::string out;
  std::size_t pos = body.find("\"relations\":{");
  if (pos == std::string::npos) return "no relations";
  pos += 13;
  while (pos < body.size() && body[pos] == '"') {
    const std::size_t name_end = body.find('"', pos + 1);
    const std::string name = body.substr(pos + 1, name_end - pos - 1);
    const std::size_t rc = body.find("\"row_count\":", name_end);
    const std::size_t rc_end = body.find(',', rc);
    out += name + "=" + body.substr(rc + 12, rc_end - rc - 12) + ";";
    const std::size_t close = body.find("]}", rc_end);
    if (close == std::string::npos) break;
    pos = close + 2;
    if (pos < body.size() && body[pos] == ',') ++pos;
  }
  return out;
}

std::string Summarize(int cls, const Entry& e, const std::string& body) {
  if (cls == kQuery) {
    return e.outputs.empty() ? FieldAfter(body, "\"result\":")
                             : FieldAfter(body, "\"row_count\":");
  }
  if (cls == kDatalog) return DatalogSummary(body);
  return "";
}

struct Record {
  int cls;
  int index;
  int status;
  double start_ms;  // Since the phase began.
  double ms;
  bool cold;
  std::string answer;
  std::string engine;
};

struct Server {
  std::unique_ptr<fmtk::PlanCache> cache;
  std::unique_ptr<fmtk::QueryServer> server;
  fmtk::PlannerOptions planner;
};

std::unique_ptr<Server> StartServer(const Inputs& in, Layers* layers) {
  auto s = std::make_unique<Server>();
  s->cache = std::make_unique<fmtk::PlanCache>();
  fmtk::QueryServerOptions options;
  options.http.port = 0;
  options.http.worker_threads = kWorkers;
  options.planner.cache = s->cache.get();
  options.planner.threads = 2;
  s->planner = options.planner;
  s->server = std::make_unique<fmtk::QueryServer>(options);
  for (int r = 0; r < kRegCount; ++r) {
    s->server->PutStructure(kRegNames[r], LoadThroughBinary(in.registry[r], layers),
                            "perfbench");
  }
  if (!s->server->Start().ok()) {
    std::fprintf(stderr, "perfbench: cannot start the query server\n");
    std::exit(1);
  }
  return s;
}

struct Phase {
  std::vector<Record> records[kClients];
  double elapsed_s = 0.0;
  std::size_t ops = 0;
};

// The closed loop: each client sends its next request as soon as the
// previous response is in, until `seconds` have passed.
Phase RunLoop(const Inputs& in, Server& server, std::uint64_t seed, double seconds) {
  Phase phase;
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<Client>(server.server->port()));
    if (!clients.back()->connected() ||
        clients.back()->RoundTrip(Get("/healthz")) != 200) {
      std::fprintf(stderr, "perfbench: cannot reach the query server\n");
      std::exit(1);
    }
  }
  // Room for every record up front: a growing vector's copy-on-doubling
  // would put a throughput-dependent spike into peak_rss_mb.
  for (auto& records : phase.records) {
    records.reserve(static_cast<std::size_t>(seconds * 8000) + 1024);
  }
  std::vector<std::atomic<bool>> first_seen(in.entries[kQuery].size());
  for (auto& flag : first_seen) flag.store(false);
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::microseconds(static_cast<long long>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      OpStream stream(seed, c, in);
      Client& client = *clients[c];
      while (Clock::now() < deadline) {
        const Op op = stream.Next();
        const Entry& e = in.entries[op.cls][op.index];
        const bool cold = op.cls == kQuery && !first_seen[op.index].exchange(true);
        const auto t0 = Clock::now();
        const int status = client.RoundTrip(e.raw);
        const double ms = MsSince(t0);
        const double start_ms =
            std::chrono::duration<double, std::milli>(t0 - start).count();
        Record rec{op.cls, op.index, status, start_ms, ms, cold, "", ""};
        if (status == 200) {
          rec.answer = Summarize(op.cls, e, client.body());
          if (op.cls == kQuery) rec.engine = FieldAfter(client.body(), "\"engine\":\"");
        }
        phase.records[c].push_back(std::move(rec));
      }
    });
  }
  for (auto& t : threads) t.join();
  phase.elapsed_s = MsSince(start) / 1000.0;
  for (const auto& r : phase.records) phase.ops += r.size();
  return phase;
}

// Answers of one run checked against a different route, once per distinct
// (group, structure): forced engines for FO, the semi-naive fixpoint of the
// unrewritten program for Datalog. Relabeled republishes are isomorphic to
// the registry graph, so the registry graph answers for them.
void CheckAnswers(const Inputs& in, const Phase& phase, Report& report) {
  std::map<std::pair<int, int>, std::string> fo_ref;
  std::map<int, std::string> dl_ref;
  // Full tc / sg relations per (kind, structure), shared by all bound
  // constants.
  std::map<std::pair<int, int>, fmtk::Relation> closures;
  for (const auto& records : phase.records) {
    for (const Record& rec : records) {
      ++report.attempted;
      if (rec.status / 100 != 2) {  // PUT answers 201
        report.Mismatch(std::string(kClassNames[rec.cls]) + " status " +
                        std::to_string(rec.status));
        continue;
      }
      const Entry& e = in.entries[rec.cls][rec.index];
      const Structure& s = in.registry[e.structure];
      std::string expected;
      if (rec.cls == kQuery) {
        auto it = fo_ref.find({e.group, e.structure});
        if (it == fo_ref.end()) {
          const auto engine = fmtk::ParseEngineKind(rec.engine);
          it = fo_ref.emplace(std::make_pair(e.group, e.structure),
                              ReferenceFoAnswer(s, e.text, e.outputs,
                                                engine.value_or(fmtk::EngineKind::kCompiled)))
                   .first;
        }
        expected = it->second;
      } else if (rec.cls == kDatalog) {
        auto it = dl_ref.find(rec.index);
        if (it == dl_ref.end()) {
          std::string summary;
          if (e.kind == kTcBound || e.kind == kSgBound) {
            const int base = e.kind == kTcBound ? kTc : kSameGeneration;
            auto cit = closures.find({base, e.structure});
            if (cit == closures.end()) {
              auto program = fmtk::ParseDatalogProgram(MakeDatalogRequest(base, 0).text);
              auto result = fmtk::EvaluateDatalog(*program, s,
                                                  fmtk::DatalogStrategy::kSemiNaive);
              cit = closures.emplace(std::make_pair(base, e.structure),
                                     result->begin()->second)
                        .first;
            }
            std::size_t rows = 0;
            for (std::size_t i = 0; i < cit->second.size(); ++i) {
              if (cit->second.TupleData(i)[0] == e.constant) ++rows;
            }
            summary = "goal=" + std::to_string(rows) + ";";
          } else {
            auto program = fmtk::ParseDatalogProgram(e.text);
            auto result =
                fmtk::EvaluateDatalog(*program, s, fmtk::DatalogStrategy::kSemiNaive);
            if (!result.ok()) {
              summary = "error";
            } else {
              for (const auto& [name, relation] : *result) {
                if (!e.outputs.empty() &&
                    std::find(e.outputs.begin(), e.outputs.end(), name) ==
                        e.outputs.end()) {
                  continue;
                }
                summary += name + "=" + std::to_string(relation.size()) + ";";
              }
            }
          }
          it = dl_ref.emplace(rec.index, summary).first;
        }
        expected = it->second;
      } else {
        continue;  // meta and write: the 2xx status is the check
      }
      if (rec.answer != expected) {
        report.Mismatch(std::string(kClassNames[rec.cls]) + " on " +
                        kRegNames[e.structure] + ": got '" + rec.answer +
                        "' want '" + expected + "' for " + e.text.substr(0, 120));
      }
    }
  }
}

// Five threads share the machine here, and outside load on a shared host
// comes and goes over seconds. So the run is cut into kWindows stretches of
// equal time, and the rate and each class's percentiles are taken over the
// fastest of them (FastestPasses on each stretch's time per request): the
// stretches outside load touched least.
void ReportEndToEnd(const Inputs& in, const Phase& phase, double setup_s,
                    Report& report) {
  const double window_ms = 1000.0 * phase.elapsed_s / kWindows;
  const auto window_of = [&](const Record& rec) {
    return std::min(kWindows - 1, static_cast<int>(rec.start_ms / window_ms));
  };
  std::vector<double> count(kWindows, 0.0);
  for (const auto& records : phase.records) {
    for (const Record& rec : records) ++count[window_of(rec)];
  }
  std::vector<double> ms_per_request(kWindows);
  for (int w = 0; w < kWindows; ++w) ms_per_request[w] = window_ms / std::max(1.0, count[w]);
  std::vector<bool> kept(kWindows, false);
  double kept_requests = 0.0;
  const std::vector<std::size_t> fastest = FastestPasses(ms_per_request, kMinKeptWindows);
  for (const std::size_t w : fastest) {
    kept[w] = true;
    kept_requests += count[w];
  }
  ClassSamples fo, datalog, write, fo_cold;
  std::size_t meta = 0;
  for (const auto& records : phase.records) {
    for (const Record& rec : records) {
      const int kind = in.entries[rec.cls][rec.index].kind;
      if (rec.cls == kQuery && rec.cold) fo_cold.Add(rec.ms, kind);
      if (!kept[window_of(rec)]) continue;
      switch (rec.cls) {
        case kQuery:
          fo.Add(rec.ms, kind);
          break;
        case kDatalog:
          datalog.Add(rec.ms, kind);
          break;
        case kWrite:
          write.Add(rec.ms, kind);
          break;
        default:
          ++meta;
      }
    }
  }
  ReportClass(report, "fo", "class1", fo, 0.99, FoTemplateNames());
  ReportClass(report, "datalog", "class2", datalog, 0.99, DatalogTemplateNames());
  ReportClass(report, "write", "class3", write, 0.90, {"put"});
  // A text's first appearance happens once per run, mostly early on, so
  // fo_cold_p50_ms covers the whole run.
  report.Set("fo_cold_p50_ms", fo_cold.At(0.5).value, "ms", fo_cold.size());
  report.Set("setup_s", setup_s, "s", kServeSetups);
  report.Note("meta requests (GET /stats, /structure/<name>) in the kept stretches: " +
              std::to_string(meta));
  report.Note("kept the fastest " + std::to_string(fastest.size()) + " of " +
              std::to_string(kWindows) + " stretches of the run");
  report.Set("ops_per_s",
             kept_requests / (static_cast<double>(fastest.size()) * window_ms / 1000.0),
             "1/s", static_cast<std::size_t>(kept_requests));
}

// Splits sampled requests of the traced phase into their stages, in
// process, on the warm server: Handle() on the same bytes, the HTTP and
// JSON parses, admission, evaluation and the engine's direct call; then
// the fresh-cache stages of the /query texts.
void DecomposeRequests(const Inputs& in, const Phase& phase, Server& server,
                       Layers& layers, Report& report) {
  Tracer* t = &layers.tracer;
  double rt[kClassCount] = {};
  std::size_t rt_n[kClassCount] = {};
  // The decomposition replays requests on warm state, so it is set
  // against the round trips of warm requests (a text's first appearance
  // pays parse, analyze and compile on top).
  for (const auto& records : phase.records) {
    for (const Record& rec : records) {
      if (rec.cold) continue;
      rt[rec.cls] += rec.ms;
      ++rt_n[rec.cls];
    }
  }
  std::set<std::pair<int, int>> sampled;
  std::size_t per_class[kClassCount] = {};
  std::size_t cold_compiles = 0;
  double handle_sum[kClassCount] = {};
  double unattributed_sum[kClassCount] = {};
  std::uint64_t op = 0;
  for (const Record& rec : phase.records[0]) {
    if (per_class[rec.cls] >= kSideSamples || !sampled.insert({rec.cls, rec.index}).second) {
      continue;
    }
    ++per_class[rec.cls];
    ++op;
    const Entry& e = in.entries[rec.cls][rec.index];
    fmtk::HttpRequestParser parser;
    {
      ScopedSpan span(t, "server.http_parse", op);
      parser.Parse(e.raw);
    }
    // The plan cache holds a quarter of the pool: bring this request's
    // entries back before timing the warm path.
    (void)server.server->Handle(parser.request());
    const auto t0 = Clock::now();
    {
      ScopedSpan span(t, "server.handle", op);
      (void)server.server->Handle(parser.request());
    }
    const double handle_ms = MsSince(t0);
    handle_sum[rec.cls] += handle_ms;
    if (rec.cls != kQuery && rec.cls != kDatalog) continue;
    const auto j0 = Clock::now();
    {
      ScopedSpan span(t, "server.json_parse", op);
      (void)fmtk::JsonValue::Parse(parser.request().body);
    }
    const double json_ms = MsSince(j0);
    const auto structure = server.server->GetStructure(kRegNames[e.structure]);
    Stages stages;
    if (rec.cls == kQuery) {
      stages = DecomposeFo(*structure, e.text, e.outputs, server.planner, false, op,
                           layers);
      if (DecomposeFoCold(*structure, e.text, op, layers)) ++cold_compiles;
    } else {
      stages = DecomposeDatalog(*structure, e.text, e.outputs, server.planner, op,
                                layers);
    }
    unattributed_sum[rec.cls] +=
        handle_ms - json_ms - stages.admission_ms - stages.evaluate_ms;
  }
  report.Note("cold decomposition: " + std::to_string(cold_compiles) + " of " +
              std::to_string(per_class[kQuery]) +
              " sampled /query texts had a new canonical form and compiled; the rest "
              "reused a canonical plan");
  for (const Entry& e : in.entries[kWrite]) {
    ScopedSpan span(t, "structures.load", ++op);
    auto loaded = fmtk::ParseStructureBinary(e.text);
    if (loaded.ok()) {
      layers.Count("structures.loaded_tuples", static_cast<double>(loaded->TupleCount()));
      ScopedSpan stats(t, "structures.stats", op);
      (void)loaded->Stats();
    }
  }
  // Round trip = HTTP (rt - handle) + JSON + admission + evaluate +
  // unattributed, per request of /query and /datalog, weighted by the
  // classes' shares of the traced phase.
  double http = 0.0, unattributed = 0.0, weight = 0.0;
  for (int c : {kQuery, kDatalog}) {
    if (per_class[c] == 0 || rt_n[c] == 0) continue;
    const double rt_mean = rt[c] / static_cast<double>(rt_n[c]);
    const double handle_mean = handle_sum[c] / static_cast<double>(per_class[c]);
    const double unattributed_mean = unattributed_sum[c] / static_cast<double>(per_class[c]);
    const double w = static_cast<double>(rt_n[c]);
    http += w * (rt_mean - handle_mean);
    unattributed += w * unattributed_mean;
    weight += w;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "stage check %s: round trip %.4f ms = http %.4f + handle %.4f "
                  "(of which unattributed %.4f, %.1f%% of the round trip)",
                  kClassNames[c], rt_mean, rt_mean - handle_mean, handle_mean,
                  unattributed_mean, 100.0 * unattributed_mean / rt_mean);
    report.Note(line);
    if (unattributed_mean < -0.1 * rt_mean) {
      report.Note(std::string("STAGE CHECK FAILED for ") + kClassNames[c] +
                  ": the stages exceed Handle() by more than 10% of the round trip");
    }
  }
  if (weight > 0) {
    layers.counters["server.http_ms"] = http / weight;
    layers.counters["server.unattributed_ms"] = unattributed / weight;
  }
}

// Distinct canonical forms among the /query texts: the plans the pool
// needs, as opposed to its text entries.
std::size_t CanonicalPlanCount(const Inputs& in) {
  std::set<std::string> forms;
  for (const Entry& e : in.entries[kQuery]) {
    auto f = fmtk::ParseFormula(e.text, GraphWithSources().get());
    if (f.ok()) forms.insert(fmtk::CanonicalizeFormula(*f).ToString());
  }
  return forms.size();
}

double SetupOnce(std::uint64_t seed, Inputs* inputs, std::unique_ptr<Server>* server,
                 Layers* layers) {
  const auto start = Clock::now();
  *inputs = BuildInputs(seed);
  *server = StartServer(*inputs, layers);
  return MsSince(start) / 1000.0;
}

}  // namespace

std::uint64_t ServeMixSequenceHash(std::uint64_t seed, std::size_t count) {
  const Inputs in = BuildInputs(seed);
  std::uint64_t h = Fnv1a("serve_mix");
  for (int c = 0; c < kClients; ++c) {
    OpStream stream(seed, c, in);
    for (std::size_t i = 0; i < count; ++i) {
      const Op op = stream.Next();
      h = Fnv1a(in.entries[op.cls][op.index].raw, h);
    }
  }
  return h;
}

void RunServeMix(const RunConfig& config, Report& report) {
  Inputs in;
  std::unique_ptr<Server> server;
  if (!config.trace) {
    // Set-up takes milliseconds here, so it is timed kServeSetups times:
    // half before the measured phase and half after it, so that the median
    // does not hang on the outside load of one moment.
    std::vector<double> setups;
    const auto set_up = [&](int times) {
      for (int i = 0; i < times; ++i) {
        if (server) server->server->Stop();
        server.reset();
        setups.push_back(SetupOnce(config.seed, &in, &server, nullptr));
      }
    };
    set_up(kServeSetups / 2);
    const Phase phase = RunLoop(in, *server, config.seed, config.seconds);
    const double peak_rss_mb = PeakRssMb();
    set_up(kServeSetups - kServeSetups / 2);
    ReportEndToEnd(in, phase, Median(setups), report);
    report.Set("peak_rss_mb", peak_rss_mb, "MB");
    report.Note("/query pool: " + std::to_string(in.entries[kQuery].size()) + " texts, " +
                std::to_string(CanonicalPlanCount(in)) + " distinct canonical forms");
    server->server->Stop();
    CheckAnswers(in, phase, report);
    return;
  }

  // Traced run: an untraced half for the baseline rate, then a traced half
  // on a fresh server, then the in-process request anatomy.
  SetupOnce(config.seed, &in, &server, nullptr);
  const Phase untraced = RunLoop(in, *server, config.seed, config.seconds / 2);
  server->server->Stop();
  CheckAnswers(in, untraced, report);
  server.reset();

  Layers layers;
  SetupOnce(config.seed, &in, &server, &layers);
  const Phase traced = RunLoop(in, *server, config.seed, config.seconds / 2);
  // Client round trips become root spans of their own; their ops are
  // numbered above the in-process decomposition's.
  std::uint64_t op = 1u << 20;
  for (int c = 0; c < kClients; ++c) {
    for (const Record& rec : traced.records[c]) {
      Span span;
      span.name = std::string("client.") + kClassNames[rec.cls];
      span.start_ms = rec.start_ms;
      span.end_ms = rec.start_ms + rec.ms;
      span.op = ++op;
      layers.tracer.Add(std::move(span));
    }
  }
  CheckAnswers(in, traced, report);
  const auto http = server->server->http_stats();
  const auto stats = server->server->stats();
  const auto cache = server->cache->stats();
  DecomposeRequests(in, traced, *server, layers, report);
  server->server->Stop();
  layers.counters["server.requests_shed"] = static_cast<double>(http.requests_shed);
  layers.counters["server.admission_rejected"] = static_cast<double>(stats.admission_rejected);
  layers.counters["server.heavy_lane_entries"] = static_cast<double>(stats.heavy_lane_entries);
  layers.counters["server.bytes_out_per_req"] =
      http.requests_handled == 0
          ? 0.0
          : static_cast<double>(http.bytes_out) / static_cast<double>(http.requests_handled);
  layers.counters["plan_cache.hits"] = static_cast<double>(cache.hits);
  layers.counters["plan_cache.misses"] = static_cast<double>(cache.misses);
  layers.counters["plan_cache.evictions"] = static_cast<double>(cache.evictions);
  layers.counters["plan_cache.entries"] = static_cast<double>(cache.entries);
  ReportLayers(layers, report);
  const double untraced_rate = static_cast<double>(untraced.ops) / untraced.elapsed_s;
  const double traced_rate = static_cast<double>(traced.ops) / traced.elapsed_s;
  report.Set("trace.ops_per_s_untraced", untraced_rate, "1/s", untraced.ops);
  report.Set("trace.ops_per_s_traced", traced_rate, "1/s", traced.ops);
  report.Set("trace.overhead_ops_per_s", traced_rate - untraced_rate, "1/s");
  report.spans = layers.tracer.spans();
}

}  // namespace perfbench
