#ifndef FMTK_SERVER_QUERY_SERVER_H_
#define FMTK_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "planner/planner.h"
#include "server/http.h"
#include "structures/structure.h"

namespace fmtk {

/// Admission control budgets for one request (ISSUE: reject or queue
/// requests whose analyzer cost measures exceed configurable budgets).
/// Every request is priced by PlanAuto — plan acquisition and routing
/// without execution, so repeat texts price off the plan cache for free —
/// and then checked against these knobs. Two tiers:
///
///   * hard budgets (max_*): the request is rejected with 429 and the
///     offending measure, without ever occupying a worker's engine time;
///   * the heavy lane (heavy_cost_units): requests priced above the
///     threshold serialize through a small semaphore with a bounded wait
///     list, so a burst of expensive queries cannot occupy every worker
///     and starve the cheap ones (that bounds the cheap-request p99; the
///     bench's admission experiment measures exactly this). When the wait
///     list is full the request is rejected 429 rather than queued.
struct AdmissionPolicy {
  /// 0 = unlimited, for every count-valued budget below.
  std::size_t max_quantifier_rank = 0;
  std::size_t max_variable_width = 0;
  /// Hard ceiling on the planner's chosen-engine cost estimate
  /// (compiled-slot-op units; 0 = unlimited).
  double max_cost_units = 0.0;
  /// Hard ceiling on estimated result rows of a query (domain^outputs
  /// before pruning; 0 = unlimited). Sentences are exempt (1 row).
  double max_estimated_rows = 0.0;

  /// Datalog budgets: rule count and recursion shape.
  std::size_t max_datalog_rules = 0;
  /// Reject nonlinear recursion (two+ recursive atoms per rule body) while
  /// still admitting linear recursion.
  bool reject_nonlinear_recursion = false;

  /// Heavy lane: requests with cost estimate >= this run through the lane
  /// (0 disables the lane entirely).
  double heavy_cost_units = 0.0;
  /// How many heavy requests may execute concurrently.
  std::size_t heavy_concurrency = 1;
  /// How many heavy requests may wait for the lane; the next one is
  /// rejected 429 ("heavy lane saturated").
  std::size_t heavy_max_waiting = 4;
};

struct QueryServerOptions {
  HttpServer::Options http;
  AdmissionPolicy admission;
  /// Engine routing knobs; `cache` nullptr = the process-global cache.
  PlannerOptions planner;
  /// Row cap applied to /query and /datalog result payloads (per relation)
  /// unless the request asks for less via "max_rows". Keeps a SELECT * off
  /// a 10^6-row answer from building a gigabyte response.
  std::size_t max_response_rows = 10'000;
};

/// The fmtk query server: a registry of named immutable structures plus
/// HTTP endpoints that evaluate FO queries and Datalog programs against
/// them through EvaluateAuto (so the sharded compiled-plan cache and the
/// cost-based router do the heavy lifting; a repeat query on a warm server
/// is a cache probe plus engine run, no parse/analyze/compile).
///
/// Endpoints (all JSON unless noted):
///   GET    /healthz            -> {"ok":true}
///   GET    /stats              -> server, plan cache, registry counters
///   GET    /structures         -> registry listing
///   PUT    /structure/<name>   -> load body as FMTKBIN1 | edge list | text
///                                 (?format=bin|edges|text, default sniffed)
///   GET    /structure/<name>   -> structure statistics
///   DELETE /structure/<name>   -> drop from the registry
///   POST   /query              -> {"structure","query","outputs"?,
///                                  "engine"?,"explain"?,"max_rows"?}
///   POST   /datalog            -> {"structure","program","outputs"?,
///                                  "max_rows"?}
///
/// Handle() is a pure request->response function safe to call from any
/// number of threads concurrently — the HTTP layer's workers do exactly
/// that, and the in-process concurrency tests call it directly without
/// sockets.
class QueryServer {
 public:
  explicit QueryServer(QueryServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Starts the HTTP front end (binds, spawns loop + workers).
  Status Start();
  void Stop();
  std::uint16_t port() const;

  /// Routes one request. Thread-safe; no socket required.
  HttpResponse Handle(const HttpRequest& request);

  /// Programmatic registry access (fmtk_serve --load, tests, benches).
  /// Publishing under an existing name atomically swaps the structure and
  /// bumps the name's generation; in-flight requests keep evaluating
  /// against the shared_ptr they resolved (immutable snapshot semantics).
  std::uint64_t PutStructure(std::string name, Structure structure,
                             std::string source);
  std::shared_ptr<const Structure> GetStructure(std::string_view name) const;
  bool DropStructure(std::string_view name);
  std::vector<std::string> StructureNames() const;

  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t datalog_queries = 0;
    std::uint64_t structure_loads = 0;
    std::uint64_t admission_rejected = 0;
    std::uint64_t heavy_lane_entries = 0;
    std::uint64_t heavy_lane_rejected = 0;
    std::uint64_t errors = 0;  // 4xx/5xx application responses.
  };
  Stats stats() const;

  /// The HTTP layer's counters (zero when running Handle() in-process).
  HttpServer::Stats http_stats() const;

 private:
  struct RegistryEntry {
    std::shared_ptr<const Structure> structure;
    std::uint64_t generation = 0;  // Server-side publish counter.
    std::string source;            // "bin:12345 bytes", "edges:...", ...
  };

  /// RAII heavy-lane entry: waits for a slot when the request is heavy and
  /// counts the entry, or the rejection (rejected() means 429) when the
  /// lane's wait queue is full.
  class HeavyLaneTicket;

  /// Bumps one server counter.
  void Count(std::uint64_t Stats::*counter);

  HttpResponse HandleQuery(const HttpRequest& request);
  HttpResponse HandleDatalog(const HttpRequest& request);
  HttpResponse HandlePutStructure(const HttpRequest& request,
                                  std::string_view name);
  HttpResponse HandleGetStructure(std::string_view name);
  HttpResponse HandleDeleteStructure(std::string_view name);
  HttpResponse HandleStructures();
  HttpResponse HandleStats();

  QueryServerOptions options_;
  std::unique_ptr<HttpServer> http_;

  mutable std::shared_mutex registry_mu_;
  std::map<std::string, RegistryEntry, std::less<>> registry_;
  std::atomic<std::uint64_t> next_generation_{1};

  // Heavy lane state.
  std::mutex heavy_mu_;
  std::condition_variable heavy_cv_;
  std::size_t heavy_running_ = 0;
  std::size_t heavy_waiting_ = 0;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

}  // namespace fmtk

#endif  // FMTK_SERVER_QUERY_SERVER_H_
