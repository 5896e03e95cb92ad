#include "server/query_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <utility>

#include "analysis/datalog_analyzer.h"
#include "analysis/fo_analyzer.h"
#include "base/json_out.h"
#include "datalog/program.h"
#include "logic/parser.h"
#include "server/json_value.h"
#include "structures/bulk_load.h"
#include "structures/io.h"
#include "structures/structure_stats.h"

namespace fmtk {

namespace {

std::int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

HttpResponse JsonError(int status, std::string_view message,
                       std::string_view diagnostics_json = {}) {
  std::string body = "{";
  JsonStringMember(body, "error", message);
  if (!diagnostics_json.empty()) {
    JsonKey(body, "diagnostics");
    body += diagnostics_json;
  }
  body += "}\n";
  return HttpResponse::Json(status, std::move(body));
}

/// Maps an engine Status to the HTTP status of an error response.
int HttpStatusFor(const Status& s) {
  switch (s.code()) {
    case StatusCode::kParseError:
      return 400;
    case StatusCode::kResourceExhausted:
      return 429;
    case StatusCode::kUnsupported:
      return 422;
    default:
      return 422;
  }
}

void AppendStructureStatsJson(std::string& out, std::string_view name,
                              const StructureStats& stats,
                              std::uint64_t server_generation) {
  out += '{';
  JsonStringMember(out, "name", name);
  JsonNumberMember(out, "generation", server_generation);
  JsonNumberMember(out, "domain_size", stats.domain_size);
  JsonNumberMember(out, "tuple_count", stats.tuple_count);
  JsonNumberMember(out, "relation_count", stats.relation_count);
  JsonNumberMember(out, "max_degree", stats.max_degree);
  JsonNumberMember(out, "avg_degree", stats.avg_degree);
  JsonNumberMember(out, "components", stats.component_count);
  out += '}';
}

/// Appends a relation's row members: the count, the truncation flag and
/// the rows as [[e,...],...], capped at `max_rows`.
void AppendRelationRowsJson(std::string& out, const Relation& relation,
                            std::size_t max_rows) {
  const std::size_t n = std::min(relation.size(), max_rows);
  JsonNumberMember(out, "row_count", relation.size());
  JsonBoolMember(out, "truncated", relation.size() > max_rows);
  JsonKey(out, "rows");
  out += '[';
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) out += ',';
    out += '[';
    const Element* row = relation.TupleData(i);
    for (std::size_t c = 0; c < relation.arity(); ++c) {
      if (c > 0) out += ',';
      out += std::to_string(row[c]);
    }
    out += ']';
  }
  out += ']';
}

/// FO diagnostics for an error response: re-runs parse + analysis with a
/// sink so the client gets the structured FMTK0xx list, not just the
/// Status message. Error paths only — admitted requests never pay this.
std::string FoDiagnosticsJson(std::string_view text, const Structure& s,
                              bool query_mode) {
  auto parsed = ParseFormulaWithSpans(text, &s.signature());
  if (!parsed.ok()) return {};
  FoAnalyzerOptions options;
  options.signature = &s.signature();
  options.spans = &parsed->spans;
  options.profile = query_mode ? FoProfile::kQuery : FoProfile::kModelCheck;
  const FoAnalysis analysis = AnalyzeFormula(parsed->formula, options);
  return analysis.diagnostics.ToJson();
}

HttpResponse FoError(const Status& status, std::string_view text,
                     const Structure& s, bool query_mode) {
  return JsonError(HttpStatusFor(status), status.message(),
                   FoDiagnosticsJson(text, s, query_mode));
}

/// Datalog diagnostics for an error response, the mirror of
/// FoDiagnosticsJson: re-parses and re-analyzes the client's text, so
/// messages and spans name the client's variables rather than the plan's
/// canonical v0, v1, ... When the analysis rejects the program, `status`
/// becomes its error. Error paths only — admitted requests never pay this.
std::string DatalogDiagnosticsJson(std::string_view text, const Structure& s,
                                   const std::vector<std::string>& outputs,
                                   Status* status) {
  auto program = ParseDatalogProgram(text, /*validate=*/false);
  if (!program.ok()) return {};
  DatalogAnalyzerOptions options;
  options.signature = &s.signature();
  options.outputs = outputs;
  const DatalogAnalysis analysis = AnalyzeProgram(*program, options);
  if (!analysis.ok()) *status = analysis.status();
  return analysis.diagnostics.ToJson();
}

HttpResponse DatalogError(Status status, std::string_view text,
                          const Structure& s,
                          const std::vector<std::string>& outputs) {
  const std::string diagnostics =
      DatalogDiagnosticsJson(text, s, outputs, &status);
  return JsonError(HttpStatusFor(status), status.message(), diagnostics);
}

/// A 429 from admission control: the reason, then the measures that priced
/// the request, which `measures` writes as members of "admission".
template <typename Measures>
HttpResponse AdmissionRejected(std::string_view reason,
                               const Measures& measures) {
  std::string body = "{";
  JsonStringMember(body, "error", "request rejected by admission control");
  JsonKey(body, "admission");
  body += '{';
  JsonBoolMember(body, "rejected", true);
  JsonStringMember(body, "reason", reason);
  measures(body);
  body += "}}\n";
  return HttpResponse::Json(429, std::move(body));
}

}  // namespace

// --- Heavy lane -------------------------------------------------------------

class QueryServer::HeavyLaneTicket {
 public:
  HeavyLaneTicket(QueryServer* server, bool heavy) : server_(server) {
    if (!heavy) return;
    const AdmissionPolicy& policy = server_->options_.admission;
    {
      std::unique_lock<std::mutex> lock(server_->heavy_mu_);
      rejected_ = server_->heavy_running_ >= policy.heavy_concurrency &&
                  server_->heavy_waiting_ >= policy.heavy_max_waiting;
      if (!rejected_) {
        ++server_->heavy_waiting_;
        server_->heavy_cv_.wait(lock, [&] {
          return server_->heavy_running_ < policy.heavy_concurrency;
        });
        --server_->heavy_waiting_;
        ++server_->heavy_running_;
        held_ = true;
      }
    }
    server_->Count(rejected_ ? &Stats::heavy_lane_rejected
                             : &Stats::heavy_lane_entries);
  }

  ~HeavyLaneTicket() {
    if (!held_) return;
    {
      std::lock_guard<std::mutex> lock(server_->heavy_mu_);
      --server_->heavy_running_;
    }
    server_->heavy_cv_.notify_one();
  }

  HeavyLaneTicket(const HeavyLaneTicket&) = delete;
  HeavyLaneTicket& operator=(const HeavyLaneTicket&) = delete;

  bool rejected() const { return rejected_; }
  bool heavy() const { return held_; }

 private:
  QueryServer* server_;
  bool held_ = false;
  bool rejected_ = false;
};

// --- Registry ---------------------------------------------------------------

QueryServer::QueryServer(QueryServerOptions options)
    : options_(std::move(options)) {}

QueryServer::~QueryServer() { Stop(); }

Status QueryServer::Start() {
  if (http_ != nullptr) return Status::InvalidArgument("server already started");
  http_ = std::make_unique<HttpServer>(
      options_.http,
      [this](const HttpRequest& request) { return Handle(request); });
  Status s = http_->Start();
  if (!s.ok()) http_.reset();
  return s;
}

void QueryServer::Stop() {
  if (http_ != nullptr) {
    http_->Stop();
    http_.reset();
  }
}

std::uint16_t QueryServer::port() const {
  return http_ == nullptr ? 0 : http_->port();
}

std::uint64_t QueryServer::PutStructure(std::string name, Structure structure,
                                        std::string source) {
  auto shared = std::make_shared<const Structure>(std::move(structure));
  const std::uint64_t generation =
      next_generation_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  RegistryEntry& entry = registry_[std::move(name)];
  entry.structure = std::move(shared);
  entry.generation = generation;
  entry.source = std::move(source);
  return generation;
}

std::shared_ptr<const Structure> QueryServer::GetStructure(
    std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  auto it = registry_.find(name);
  return it == registry_.end() ? nullptr : it->second.structure;
}

bool QueryServer::DropStructure(std::string_view name) {
  std::unique_lock<std::shared_mutex> lock(registry_mu_);
  auto it = registry_.find(name);
  if (it == registry_.end()) return false;
  registry_.erase(it);
  return true;
}

std::vector<std::string> QueryServer::StructureNames() const {
  std::shared_lock<std::shared_mutex> lock(registry_mu_);
  std::vector<std::string> names;
  names.reserve(registry_.size());
  for (const auto& [name, entry] : registry_) names.push_back(name);
  return names;
}

QueryServer::Stats QueryServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void QueryServer::Count(std::uint64_t Stats::*counter) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++(stats_.*counter);
}

HttpServer::Stats QueryServer::http_stats() const {
  return http_ == nullptr ? HttpServer::Stats{} : http_->stats();
}

// --- Routing ----------------------------------------------------------------

HttpResponse QueryServer::Handle(const HttpRequest& request) {
  HttpResponse response;
  const std::string_view path = request.path;
  if (path == "/healthz" && request.method == "GET") {
    response = HttpResponse::Json(200, "{\"ok\":true}\n");
  } else if (path == "/stats" && request.method == "GET") {
    response = HandleStats();
  } else if (path == "/structures" && request.method == "GET") {
    response = HandleStructures();
  } else if (path.rfind("/structure/", 0) == 0) {
    const std::string_view name = path.substr(11);
    if (name.empty() || name.size() > 128 ||
        name.find('/') != std::string_view::npos) {
      response = JsonError(400, "bad structure name");
    } else if (request.method == "PUT") {
      response = HandlePutStructure(request, name);
    } else if (request.method == "GET") {
      response = HandleGetStructure(name);
    } else if (request.method == "DELETE") {
      response = HandleDeleteStructure(name);
    } else {
      response = JsonError(405, "method not allowed");
    }
  } else if (path == "/query") {
    response = request.method == "POST" ? HandleQuery(request)
                                        : JsonError(405, "POST required");
  } else if (path == "/datalog") {
    response = request.method == "POST" ? HandleDatalog(request)
                                        : JsonError(405, "POST required");
  } else {
    response = JsonError(404, "no such endpoint");
  }
  if (response.status >= 400) Count(&Stats::errors);
  return response;
}

// --- /query -----------------------------------------------------------------

HttpResponse QueryServer::HandleQuery(const HttpRequest& request) {
  Count(&Stats::queries);
  auto body = JsonValue::Parse(request.body);
  if (!body.ok()) return JsonError(400, body.status().message());
  if (!body->is_object()) return JsonError(400, "request body must be a JSON object");

  const auto structure_name = body->FindString("structure");
  const auto query_text = body->FindString("query");
  if (!structure_name) return JsonError(400, "missing string field 'structure'");
  if (!query_text) return JsonError(400, "missing string field 'query'");

  std::vector<std::string> outputs;
  bool query_mode = false;
  if (const JsonValue* array = body->Find("outputs"); array != nullptr) {
    if (!array->is_array()) return JsonError(400, "'outputs' must be an array");
    query_mode = true;
    for (const JsonValue& item : array->array_items()) {
      if (!item.is_string()) {
        return JsonError(400, "'outputs' must hold variable names");
      }
      outputs.push_back(item.string_value());
    }
  }

  PlannerOptions planner = options_.planner;
  if (const auto engine = body->FindString("engine")) {
    const auto kind = ParseEngineKind(*engine);
    if (!kind) return JsonError(400, "unknown engine '" + *engine + "'");
    planner.force_engine = kind;
  }
  const bool want_explain = body->FindBool("explain").value_or(false);
  std::size_t max_rows = options_.max_response_rows;
  if (const auto requested = body->FindNumber("max_rows")) {
    if (*requested >= 0 && *requested < static_cast<double>(max_rows)) {
      max_rows = static_cast<std::size_t>(*requested);
    }
  }

  const std::shared_ptr<const Structure> structure =
      GetStructure(*structure_name);
  if (structure == nullptr) {
    return JsonError(404, "no structure named '" + *structure_name + "'");
  }

  // Plan once: one plan-cache probe and one route price the request (a
  // named engine by its own cost row) before any engine time is committed,
  // and the same plan is what executes below.
  auto plan =
      PlanAuto(*structure, *query_text, query_mode, outputs.size(), planner);
  if (!plan.ok()) {
    return FoError(plan.status(), *query_text, *structure, query_mode);
  }
  const AdmissionPolicy& policy = options_.admission;
  const double cost_units = plan->chosen_cost();
  const double estimated_rows =
      query_mode ? std::pow(static_cast<double>(structure->domain_size()),
                            static_cast<double>(outputs.size()))
                 : 1.0;
  std::string rejection;
  if (policy.max_quantifier_rank > 0 &&
      plan->quantifier_rank > policy.max_quantifier_rank) {
    rejection = "quantifier rank " + std::to_string(plan->quantifier_rank) +
                " exceeds budget " + std::to_string(policy.max_quantifier_rank);
  } else if (policy.max_variable_width > 0 &&
             plan->variable_width > policy.max_variable_width) {
    rejection = "variable width " + std::to_string(plan->variable_width) +
                " exceeds budget " + std::to_string(policy.max_variable_width);
  } else if (policy.max_cost_units > 0 && cost_units > policy.max_cost_units) {
    rejection = "estimated cost " + JsonNumber(cost_units) +
                " exceeds budget " + JsonNumber(policy.max_cost_units);
  } else if (policy.max_estimated_rows > 0 &&
             estimated_rows > policy.max_estimated_rows) {
    rejection = "estimated rows " + JsonNumber(estimated_rows) +
                " exceeds budget " + JsonNumber(policy.max_estimated_rows);
  }
  if (!rejection.empty()) {
    Count(&Stats::admission_rejected);
    return AdmissionRejected(rejection, [&](std::string& out) {
      JsonNumberMember(out, "cost_units", cost_units);
      JsonNumberMember(out, "quantifier_rank", plan->quantifier_rank);
      JsonNumberMember(out, "variable_width", plan->variable_width);
      JsonNumberMember(out, "node_count", plan->node_count);
      JsonNumberMember(out, "estimated_rows", estimated_rows);
    });
  }

  const bool heavy =
      policy.heavy_cost_units > 0 && cost_units >= policy.heavy_cost_units;
  HeavyLaneTicket ticket(this, heavy);
  if (ticket.rejected()) {
    return JsonError(429, "heavy lane saturated, retry later");
  }

  const std::int64_t started = NowMicros();
  std::string body_out = "{";
  JsonStringMember(body_out, "structure", *structure_name);
  JsonStringMember(body_out, "query", *query_text);
  if (!query_mode) {
    auto verdict = EvaluateAuto(*structure, *plan, planner);
    if (!verdict.ok()) {
      return FoError(verdict.status(), *query_text, *structure, query_mode);
    }
    JsonBoolMember(body_out, "result", *verdict);
  } else {
    auto rows = EvaluateQueryAuto(*structure, *plan, outputs);
    if (!rows.ok()) {
      return FoError(rows.status(), *query_text, *structure, query_mode);
    }
    JsonStringsMember(body_out, "columns", outputs);
    AppendRelationRowsJson(body_out, *rows, max_rows);
  }
  const std::int64_t wall_us = NowMicros() - started;

  JsonStringMember(body_out, "engine", EngineKindName(plan->chosen));
  JsonBoolMember(body_out, "cache_hit", plan->cache_hit);
  JsonNumberMember(body_out, "wall_us", wall_us);
  JsonKey(body_out, "admission");
  body_out += '{';
  JsonNumberMember(body_out, "cost_units", cost_units);
  JsonStringMember(body_out, "lane", ticket.heavy() ? "heavy" : "fast");
  body_out += '}';
  if (want_explain) {
    JsonKey(body_out, "explain");
    body_out += plan->ToJson();
  }
  body_out += "}\n";
  return HttpResponse::Json(200, std::move(body_out));
}

// --- /datalog ---------------------------------------------------------------

HttpResponse QueryServer::HandleDatalog(const HttpRequest& request) {
  Count(&Stats::datalog_queries);
  auto body = JsonValue::Parse(request.body);
  if (!body.ok()) return JsonError(400, body.status().message());
  if (!body->is_object()) return JsonError(400, "request body must be a JSON object");

  const auto structure_name = body->FindString("structure");
  const auto program_text = body->FindString("program");
  if (!structure_name) return JsonError(400, "missing string field 'structure'");
  if (!program_text) return JsonError(400, "missing string field 'program'");

  std::vector<std::string> outputs;
  if (const JsonValue* array = body->Find("outputs"); array != nullptr) {
    if (!array->is_array()) return JsonError(400, "'outputs' must be an array");
    for (const JsonValue& item : array->array_items()) {
      if (!item.is_string()) {
        return JsonError(400, "'outputs' must hold predicate names");
      }
      outputs.push_back(item.string_value());
    }
  }
  std::size_t max_rows = options_.max_response_rows;
  if (const auto requested = body->FindNumber("max_rows")) {
    if (*requested >= 0 && *requested < static_cast<double>(max_rows)) {
      max_rows = static_cast<std::size_t>(*requested);
    }
  }

  const std::shared_ptr<const Structure> structure =
      GetStructure(*structure_name);
  if (structure == nullptr) {
    return JsonError(404, "no structure named '" + *structure_name + "'");
  }

  // Plan once: one plan-cache probe yields the canonical program's
  // analysis, which prices the request before any fixpoint work, and the
  // same plan is what executes below. The request's outputs are the
  // optimizer's liveness/demand roots (the same set FMTK106 reports
  // against), so the planner can drop dead rules and specialize with magic
  // sets relative to what this request asked for.
  PlannerOptions planner = options_.planner;
  planner.datalog_outputs = outputs;
  auto plan = PlanDatalogAuto(*structure, *program_text, planner);
  if (!plan.ok()) {
    return DatalogError(plan.status(), *program_text, *structure, outputs);
  }

  const AdmissionPolicy& policy = options_.admission;
  // Coarse output-size bound: each IDB predicate holds at most n^arity
  // tuples.
  double estimated_rows = 0.0;
  const double n = static_cast<double>(structure->domain_size());
  for (const auto& [predicate, arity] : plan->head_arities) {
    estimated_rows += std::pow(n, static_cast<double>(arity));
  }
  std::string rejection;
  if (policy.max_datalog_rules > 0 &&
      plan->rule_count > policy.max_datalog_rules) {
    rejection = "program has " + std::to_string(plan->rule_count) +
                " rules, budget " + std::to_string(policy.max_datalog_rules);
  } else if (policy.reject_nonlinear_recursion && plan->nonlinear) {
    rejection = "nonlinear recursion is not admitted";
  } else if (policy.max_estimated_rows > 0 &&
             estimated_rows > policy.max_estimated_rows) {
    rejection = "estimated IDB rows " + JsonNumber(estimated_rows) +
                " exceeds budget " + JsonNumber(policy.max_estimated_rows);
  }
  if (!rejection.empty()) {
    Count(&Stats::admission_rejected);
    return AdmissionRejected(rejection, [&](std::string& out) {
      JsonNumberMember(out, "rules", plan->rule_count);
      JsonBoolMember(out, "recursive", plan->recursive);
      JsonBoolMember(out, "nonlinear", plan->nonlinear);
      JsonNumberMember(out, "estimated_rows", estimated_rows);
    });
  }

  // Recursive fixpoints ride the heavy lane when one is configured: their
  // cost is unbounded by any static per-request measure, which is exactly
  // what the lane exists to contain.
  HeavyLaneTicket ticket(this,
                         policy.heavy_cost_units > 0 && plan->recursive);
  if (ticket.rejected()) {
    return JsonError(429, "heavy lane saturated, retry later");
  }

  DatalogStats dstats;
  const std::int64_t started = NowMicros();
  auto relations = EvaluateDatalogAuto(*structure, *plan, planner, &dstats);
  const std::int64_t wall_us = NowMicros() - started;
  if (!relations.ok()) {
    return DatalogError(relations.status(), *program_text, *structure,
                        outputs);
  }

  std::string body_out = "{";
  JsonStringMember(body_out, "structure", *structure_name);
  JsonKey(body_out, "relations");
  body_out += '{';
  for (const auto& [predicate, relation] : *relations) {
    JsonKey(body_out, predicate);
    body_out += '{';
    JsonNumberMember(body_out, "arity", relation.arity());
    AppendRelationRowsJson(body_out, relation, max_rows);
    body_out += '}';
  }
  body_out += '}';
  JsonBoolMember(body_out, "cache_hit", plan->cache_hit);
  JsonKey(body_out, "analysis");
  body_out += plan->ToJson();
  JsonNumberMember(body_out, "wall_us", wall_us);
  JsonKey(body_out, "stats");
  body_out += '{';
  JsonNumberMember(body_out, "iterations", dstats.iterations);
  JsonNumberMember(body_out, "tuples_new", dstats.tuples_new);
  JsonNumberMember(body_out, "rule_applications", dstats.rule_applications);
  body_out += '}';
  JsonKey(body_out, "admission");
  body_out += '{';
  JsonStringMember(body_out, "lane", ticket.heavy() ? "heavy" : "fast");
  body_out += "}}\n";
  return HttpResponse::Json(200, std::move(body_out));
}

// --- Structure endpoints ----------------------------------------------------

HttpResponse QueryServer::HandlePutStructure(const HttpRequest& request,
                                             std::string_view name) {
  Count(&Stats::structure_loads);
  std::string_view format = request.QueryParam("format");
  if (format.empty()) {
    // Sniff: the binary magic, else the textual header keyword, else edges.
    if (request.body.rfind("FMTKBIN1", 0) == 0) {
      format = "bin";
    } else {
      std::string_view peek = request.body;
      while (!peek.empty()) {
        const std::size_t start = peek.find_first_not_of(" \t\r\n");
        if (start == std::string_view::npos) break;
        peek.remove_prefix(start);
        if (peek[0] != '#' && peek[0] != '%') break;
        const std::size_t eol = peek.find('\n');
        if (eol == std::string_view::npos) break;
        peek.remove_prefix(eol + 1);
      }
      format = peek.rfind("domain", 0) == 0 ? "text" : "edges";
    }
  }

  DiagnosticSink sink;
  std::optional<Structure> loaded;
  std::string source;
  if (format == "bin") {
    auto parsed = ParseStructureBinary(request.body, &sink);
    if (!parsed.ok()) {
      return JsonError(422, parsed.status().message(), sink.ToJson());
    }
    loaded.emplace(*std::move(parsed));
    source = "bin:" + std::to_string(request.body.size()) + " bytes";
  } else if (format == "edges") {
    EdgeListOptions edge_options;
    if (const std::string_view relation = request.QueryParam("relation");
        !relation.empty()) {
      edge_options.relation_name = std::string(relation);
    }
    edge_options.undirected = request.QueryParam("undirected") == "1";
    if (request.QueryParam("ids") == "numeric") {
      edge_options.id_mode = EdgeListOptions::IdMode::kNumeric;
    }
    auto parsed = LoadEdgeListText(request.body, edge_options, &sink);
    if (!parsed.ok()) {
      return JsonError(422, parsed.status().message(), sink.ToJson());
    }
    loaded.emplace(std::move(parsed->structure));
    source = "edges:" + std::to_string(parsed->stats.edges) + " edges";
  } else if (format == "text") {
    auto parsed = ParseStructure(request.body);
    if (!parsed.ok()) {
      return JsonError(422, parsed.status().message());
    }
    loaded.emplace(*std::move(parsed));
    source = "text:" + std::to_string(request.body.size()) + " bytes";
  } else {
    return JsonError(400, "unknown format '" + std::string(format) +
                              "' (want bin, edges, or text)");
  }

  const StructureStats structure_stats = loaded->Stats();
  const std::uint64_t generation =
      PutStructure(std::string(name), *std::move(loaded), source);

  std::string body_out = "{";
  JsonKey(body_out, "loaded");
  AppendStructureStatsJson(body_out, name, structure_stats, generation);
  JsonStringMember(body_out, "format", format);
  JsonKey(body_out, "diagnostics");
  body_out += sink.ToJson();
  body_out += "}\n";
  return HttpResponse::Json(201, std::move(body_out));
}

HttpResponse QueryServer::HandleGetStructure(std::string_view name) {
  const std::shared_ptr<const Structure> structure = GetStructure(name);
  std::uint64_t generation = 0;
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    auto it = registry_.find(name);
    if (it != registry_.end()) generation = it->second.generation;
  }
  if (structure == nullptr) {
    return JsonError(404, "no structure named '" + std::string(name) + "'");
  }
  std::string body_out;
  AppendStructureStatsJson(body_out, name, structure->Stats(), generation);
  body_out += "\n";
  return HttpResponse::Json(200, std::move(body_out));
}

HttpResponse QueryServer::HandleDeleteStructure(std::string_view name) {
  if (!DropStructure(name)) {
    return JsonError(404, "no structure named '" + std::string(name) + "'");
  }
  return HttpResponse::Json(200, "{\"dropped\":true}\n");
}

HttpResponse QueryServer::HandleStructures() {
  std::string body_out = "{";
  JsonKey(body_out, "structures");
  body_out += '[';
  {
    std::shared_lock<std::shared_mutex> lock(registry_mu_);
    bool first = true;
    for (const auto& [name, entry] : registry_) {
      if (!first) body_out += ',';
      first = false;
      AppendStructureStatsJson(body_out, name, entry.structure->Stats(),
                               entry.generation);
    }
  }
  body_out += "]}\n";
  return HttpResponse::Json(200, std::move(body_out));
}

HttpResponse QueryServer::HandleStats() {
  const Stats server = stats();
  const HttpServer::Stats http = http_stats();
  PlanCache* cache = options_.planner.cache != nullptr ? options_.planner.cache
                                                       : &DefaultPlanCache();

  std::string body_out = "{";
  JsonKey(body_out, "server");
  body_out += '{';
  JsonNumberMember(body_out, "queries", server.queries);
  JsonNumberMember(body_out, "datalog_queries", server.datalog_queries);
  JsonNumberMember(body_out, "structure_loads", server.structure_loads);
  JsonNumberMember(body_out, "admission_rejected", server.admission_rejected);
  JsonNumberMember(body_out, "heavy_lane_entries", server.heavy_lane_entries);
  JsonNumberMember(body_out, "heavy_lane_rejected",
                   server.heavy_lane_rejected);
  JsonNumberMember(body_out, "errors", server.errors);
  body_out += '}';
  JsonKey(body_out, "http");
  body_out += '{';
  JsonNumberMember(body_out, "connections_accepted",
                   http.connections_accepted);
  JsonNumberMember(body_out, "connections_rejected",
                   http.connections_rejected);
  JsonNumberMember(body_out, "requests_handled", http.requests_handled);
  JsonNumberMember(body_out, "requests_shed", http.requests_shed);
  JsonNumberMember(body_out, "parse_errors", http.parse_errors);
  JsonNumberMember(body_out, "timeouts", http.timeouts);
  JsonNumberMember(body_out, "bytes_in", http.bytes_in);
  JsonNumberMember(body_out, "bytes_out", http.bytes_out);
  body_out += '}';
  JsonKey(body_out, "plan_cache");
  body_out += '{';
  for (const auto& [section, counters] :
       {std::pair{"formulas", cache->formula_stats()},
        std::pair{"programs", cache->datalog_stats()}}) {
    JsonKey(body_out, section);
    body_out += '{';
    JsonNumberMember(body_out, "hits", counters.hits);
    JsonNumberMember(body_out, "misses", counters.misses);
    JsonNumberMember(body_out, "entries", counters.entries);
    body_out += '}';
  }
  body_out += '}';
  JsonNumberMember(body_out, "structures", StructureNames().size());
  body_out += "}\n";
  return HttpResponse::Json(200, std::move(body_out));
}

}  // namespace fmtk
