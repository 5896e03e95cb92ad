// Tests for the query server stack (PR 9): the JSON request parser, the
// HTTP request parser's malformed-input table, the QueryServer request
// router driven in-process (no sockets), real-socket round trips through
// the poll loop + worker pool, and the multithreaded hammer that the TSan
// CI leg runs against registry swaps and the shared plan cache.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "logic/parser.h"
#include "planner/plan_cache.h"
#include "server/http.h"
#include "server/json_value.h"
#include "server/query_server.h"
#include "structures/generators.h"
#include "structures/io.h"

namespace fmtk {
namespace {

// --- JsonValue --------------------------------------------------------------

TEST(JsonValueTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::Parse("null")->is_null());
  EXPECT_TRUE(JsonValue::Parse("true")->bool_value());
  EXPECT_FALSE(JsonValue::Parse("false")->bool_value());
  EXPECT_DOUBLE_EQ(JsonValue::Parse("-12.5e2")->number_value(), -1250.0);
  EXPECT_EQ(JsonValue::Parse("\"hi\"")->string_value(), "hi");
}

TEST(JsonValueTest, ParsesNestedDocument) {
  auto v = JsonValue::Parse(
      R"js({"structure":"g","outputs":["x","y"],"explain":true,"max_rows":10})js");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->FindString("structure"), "g");
  EXPECT_EQ(v->Find("outputs")->array_items().size(), 2u);
  EXPECT_EQ(v->FindBool("explain"), true);
  EXPECT_EQ(v->FindNumber("max_rows"), 10.0);
  EXPECT_EQ(v->Find("missing"), nullptr);
  EXPECT_FALSE(v->FindString("explain").has_value());  // Wrong type.
}

TEST(JsonValueTest, DecodesEscapesAndSurrogatePairs) {
  auto v = JsonValue::Parse(R"js("a\"b\\c\n\t\u00e9\ud83d\ude00")js");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->string_value(),
            "a\"b\\c\n\t\xc3\xa9\xf0\x9f\x98\x80");  // é and 😀 in UTF-8.
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",           "{",           "[1,]",        "{\"a\":}",
      "tru",        "01",          "1.",          "1e",
      "\"\x01\"",   "\"unterminated", "{\"a\" 1}", "[1] tail",
      "\"\\u12\"",  "\"\\ud800\"", "\"\\ud800\\u0020\"", "nan",
  };
  for (const char* text : bad) {
    EXPECT_FALSE(JsonValue::Parse(text).ok()) << text;
  }
}

TEST(JsonValueTest, RejectsExcessiveNesting) {
  std::string deep(300, '[');
  deep += std::string(300, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

// --- HttpRequestParser ------------------------------------------------------

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpRequestParser parser;
  const std::string raw = "GET /stats?x=1&y=2 HTTP/1.1\r\nHost: a\r\n\r\n";
  ASSERT_EQ(parser.Parse(raw), HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().path, "/stats");
  EXPECT_EQ(parser.request().QueryParam("y"), "2");
  EXPECT_EQ(parser.request().Header("host"), "a");  // Name lowercased.
  EXPECT_EQ(parser.consumed(), raw.size());
}

TEST(HttpParserTest, ParsesBodyAndPipelinedRemainder) {
  HttpRequestParser parser;
  const std::string raw =
      "POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nbodyGET /next...";
  ASSERT_EQ(parser.Parse(raw), HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().body, "body");
  EXPECT_EQ(raw.substr(parser.consumed()), "GET /next...");
}

TEST(HttpParserTest, ToleratesBareLfLineEndings) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Parse("GET / HTTP/1.1\nHost: b\n\n"),
            HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().Header("host"), "b");
}

TEST(HttpParserTest, IncrementalFeedingNeedsMoreThenCompletes) {
  HttpRequestParser parser;
  std::string buffer = "POST /q HTTP/1.1\r\nContent-Length: 10\r\n";
  EXPECT_EQ(parser.Parse(buffer), HttpRequestParser::State::kNeedMore);
  buffer += "\r\n12345";
  EXPECT_EQ(parser.Parse(buffer), HttpRequestParser::State::kNeedMore);
  buffer += "67890";
  ASSERT_EQ(parser.Parse(buffer), HttpRequestParser::State::kComplete);
  EXPECT_EQ(parser.request().body, "1234567890");
}

// The fuzz-ish malformed-input table: every entry must be rejected with
// the given status, never crash, never be accepted.
TEST(HttpParserTest, MalformedRequestTable) {
  struct Case {
    const char* raw;
    int status;
  };
  const Case cases[] = {
      {"\r\n\r\n", 400},                                  // Empty line.
      {"GET\r\n\r\n", 400},                               // No target.
      {"GET /\r\n\r\n", 400},                             // No version.
      {"GET / HTTP/2.0\r\n\r\n", 505},                    // Bad version.
      {"GET / HTTP/1.1 extra\r\n\r\n", 400},              // Extra token.
      {"G@T / HTTP/1.1\r\n\r\n", 400},                    // Bad method char.
      {"GET relative HTTP/1.1\r\n\r\n", 400},             // Non-origin form.
      {"GET /a\x01json HTTP/1.1\r\n\r\n", 400},           // Ctrl in target.
      {"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n", 400},     // No colon.
      {"GET / HTTP/1.1\r\n: empty\r\n\r\n", 400},         // Empty name.
      {"GET / HTTP/1.1\r\nBad Name: x\r\n\r\n", 400},     // Space in name.
      {"GET / HTTP/1.1\r\nA: b\r\n c\r\n\r\n", 400},      // Obs-fold.
      {"GET / HTTP/1.1\r\nA: b\x01\r\n\r\n", 400},        // Ctrl in value.
      {"POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400},
      {"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n",
       400},
      {"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
      {"POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n", 413},
  };
  HttpRequestParser::Limits limits;
  limits.max_body_bytes = 1024;
  for (const Case& c : cases) {
    HttpRequestParser parser(limits);
    EXPECT_EQ(parser.Parse(c.raw), HttpRequestParser::State::kError) << c.raw;
    EXPECT_EQ(parser.error_status(), c.status) << c.raw;
  }
}

TEST(HttpParserTest, OversizedHeaderBlockIs431) {
  HttpRequestParser::Limits limits;
  limits.max_header_bytes = 128;
  HttpRequestParser parser(limits);
  std::string raw = "GET / HTTP/1.1\r\nX: ";
  raw += std::string(500, 'a');  // Never even terminates the head.
  EXPECT_EQ(parser.Parse(raw), HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

// --- QueryServer::Handle (in-process, no sockets) ---------------------------

HttpRequest MakeRequest(std::string method, std::string target,
                        std::string body = {}) {
  HttpRequest r;
  r.method = std::move(method);
  const std::size_t qmark = target.find('?');
  r.path = target.substr(0, qmark);
  if (qmark != std::string::npos) r.query = target.substr(qmark + 1);
  r.target = std::move(target);
  r.body = std::move(body);
  return r;
}

Structure RingStructure(std::size_t n) { return MakeDirectedCycle(n); }

class QueryServerTest : public ::testing::Test {
 protected:
  QueryServerTest() {
    QueryServerOptions options;
    options.planner.cache = &cache_;
    server_ = std::make_unique<QueryServer>(options);
    server_->PutStructure("ring", RingStructure(8), "test");
  }

  PlanCache cache_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(QueryServerTest, HealthzAndUnknownRoutes) {
  EXPECT_EQ(server_->Handle(MakeRequest("GET", "/healthz")).status, 200);
  EXPECT_EQ(server_->Handle(MakeRequest("GET", "/nope")).status, 404);
  EXPECT_EQ(server_->Handle(MakeRequest("GET", "/query")).status, 405);
  EXPECT_EQ(server_->Handle(MakeRequest("PATCH", "/structure/x")).status, 405);
}

TEST_F(QueryServerTest, SentenceQueryEvaluatesAndReportsEngine) {
  const HttpResponse r = server_->Handle(MakeRequest(
      "POST", "/query",
      R"js({"structure":"ring","query":"forall x. exists y. E(x,y)"})js"));
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_NE(r.body.find("\"result\":true"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"engine\":"), std::string::npos);
  EXPECT_NE(r.body.find("\"admission\""), std::string::npos);
}

TEST_F(QueryServerTest, OutputQueryReturnsRows) {
  const HttpResponse r = server_->Handle(MakeRequest(
      "POST", "/query",
      R"js({"structure":"ring","query":"E(x,y)","outputs":["x","y"]})js"));
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_NE(r.body.find("\"row_count\":8"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"columns\":[\"x\",\"y\"]"), std::string::npos);
}

TEST_F(QueryServerTest, MaxRowsTruncatesResponse) {
  const HttpResponse r = server_->Handle(MakeRequest(
      "POST", "/query",
      R"js({"structure":"ring","query":"E(x,y)","outputs":["x","y"],)js"
      R"js("max_rows":3})js"));
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_NE(r.body.find("\"row_count\":8"), std::string::npos);
  EXPECT_NE(r.body.find("\"truncated\":true"), std::string::npos);
}

TEST_F(QueryServerTest, RepeatQueryHitsPlanCache) {
  const std::string body =
      R"js({"structure":"ring","query":"exists x. E(x,x)","explain":true})js";
  server_->Handle(MakeRequest("POST", "/query", body));
  const HttpResponse warm = server_->Handle(MakeRequest("POST", "/query", body));
  ASSERT_EQ(warm.status, 200);
  EXPECT_NE(warm.body.find("\"cache_hit\":true"), std::string::npos)
      << warm.body;
  EXPECT_NE(warm.body.find("\"text_cache_hit\":true"), std::string::npos);

  // Plan once, execute once: a warm request probes the formula cache
  // exactly once, whether or not it names an engine.
  const std::string forced =
      R"js({"structure":"ring","query":"exists x. E(x,x)",)js"
      R"js("engine":"compiled"})js";
  for (const std::string& request : {body, forced}) {
    const PlanCacheStats before = cache_.formula_stats();
    ASSERT_EQ(server_->Handle(MakeRequest("POST", "/query", request)).status,
              200);
    const PlanCacheStats after = cache_.formula_stats();
    EXPECT_EQ(after.hits + after.misses, before.hits + before.misses + 1)
        << request;
  }
}

TEST_F(QueryServerTest, ColdQueryReportsItsOwnCacheMiss) {
  const HttpResponse cold = server_->Handle(MakeRequest(
      "POST", "/query",
      R"js({"structure":"ring","query":"exists x. exists y. E(x,y)"})js"));
  ASSERT_EQ(cold.status, 200) << cold.body;
  EXPECT_NE(cold.body.find("\"cache_hit\":false"), std::string::npos)
      << cold.body;
}

TEST_F(QueryServerTest, UnknownStructureIs404AndBadBodyIs400) {
  EXPECT_EQ(server_
                ->Handle(MakeRequest(
                    "POST", "/query",
                    R"js({"structure":"missing","query":"exists x. E(x,x)"})js"))
                .status,
            404);
  EXPECT_EQ(server_->Handle(MakeRequest("POST", "/query", "{oops")).status,
            400);
  EXPECT_EQ(server_->Handle(MakeRequest("POST", "/query", "[1,2]")).status,
            400);
  EXPECT_EQ(server_
                ->Handle(MakeRequest("POST", "/query",
                                     R"js({"structure":"ring"})js"))
                .status,
            400);
  EXPECT_EQ(
      server_
          ->Handle(MakeRequest(
              "POST", "/query",
              R"js({"structure":"ring","query":"E(x,x)","engine":"warp"})js"))
          .status,
      400);
}

TEST_F(QueryServerTest, AnalyzerErrorCarriesDiagnosticsJson) {
  const HttpResponse r = server_->Handle(MakeRequest(
      "POST", "/query",
      R"js({"structure":"ring","query":"exists x. Q(x)"})js"));
  EXPECT_GE(r.status, 400);
  EXPECT_NE(r.body.find("\"diagnostics\""), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("FMTK001"), std::string::npos) << r.body;
}

TEST_F(QueryServerTest, AdmissionRejectsOverRankBudget) {
  QueryServerOptions options;
  options.planner.cache = &cache_;
  options.admission.max_quantifier_rank = 2;
  QueryServer strict(options);
  strict.PutStructure("ring", RingStructure(8), "test");
  const HttpResponse r = strict.Handle(MakeRequest(
      "POST", "/query",
      R"js({"structure":"ring","query":)js"
      R"js("exists x. exists y. exists z. exists w. E(x,y) & E(z,w)"})js"));
  ASSERT_EQ(r.status, 429) << r.body;
  EXPECT_NE(r.body.find("\"rejected\":true"), std::string::npos);
  EXPECT_NE(r.body.find("quantifier rank"), std::string::npos);
  EXPECT_EQ(strict.stats().admission_rejected, 1u);
}

TEST_F(QueryServerTest, AdmissionRejectsOverCostBudget) {
  QueryServerOptions options;
  options.planner.cache = &cache_;
  options.admission.max_cost_units = 0.5;  // Everything is over budget.
  QueryServer strict(options);
  strict.PutStructure("ring", RingStructure(8), "test");
  const HttpResponse r = strict.Handle(MakeRequest(
      "POST", "/query",
      R"js({"structure":"ring","query":"forall x. exists y. E(x,y)"})js"));
  ASSERT_EQ(r.status, 429) << r.body;
  EXPECT_NE(r.body.find("estimated cost"), std::string::npos) << r.body;
}

TEST_F(QueryServerTest, ForcedEngineCannotDodgeCostBudget) {
  // A forced engine is priced by its own row of the cost table, so naming
  // an engine in the request body cannot bypass a cost budget.
  QueryServerOptions options;
  options.planner.cache = &cache_;
  options.admission.max_cost_units = 0.5;
  QueryServer strict(options);
  strict.PutStructure("ring", RingStructure(8), "test");
  const HttpResponse r = strict.Handle(MakeRequest(
      "POST", "/query",
      R"js({"structure":"ring","query":"forall x. exists y. E(x,y)",)js"
      R"js("engine":"compiled"})js"));
  ASSERT_EQ(r.status, 429) << r.body;
  EXPECT_NE(r.body.find("estimated cost"), std::string::npos) << r.body;
}

TEST_F(QueryServerTest, HeavyLaneSerializesExpensiveQueries) {
  QueryServerOptions options;
  options.planner.cache = &cache_;
  options.admission.heavy_cost_units = 0.001;  // Everything is heavy.
  options.admission.heavy_concurrency = 1;
  options.admission.heavy_max_waiting = 8;
  QueryServer lane(options);
  lane.PutStructure("ring", RingStructure(8), "test");
  const HttpResponse r = lane.Handle(MakeRequest(
      "POST", "/query",
      R"js({"structure":"ring","query":"exists x. E(x,x)"})js"));
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_NE(r.body.find("\"lane\":\"heavy\""), std::string::npos) << r.body;
  EXPECT_EQ(lane.stats().heavy_lane_entries, 1u);
}

TEST_F(QueryServerTest, DatalogEvaluatesTransitiveClosure) {
  const HttpResponse r = server_->Handle(MakeRequest(
      "POST", "/datalog",
      R"js({"structure":"ring","program":)js"
      R"js("tc(x,y) :- E(x,y). tc(x,y) :- E(x,z), tc(z,y).")js"
      R"js(,"outputs":["tc"]})js"));
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_NE(r.body.find("\"row_count\":64"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"iterations\""), std::string::npos);
}

TEST_F(QueryServerTest, WarmDatalogRequestProbesThePlanCacheOnce) {
  // Plan once, execute once: the plan prices the request and is what runs,
  // so a warm /datalog is one text-layer hit and nothing else.
  const std::string body =
      R"js({"structure":"ring","program":)js"
      R"js("tc(x,y) :- E(x,y). tc(x,y) :- tc(x,z), tc(z,y).",)js"
      R"js("outputs":["tc"]})js";
  ASSERT_EQ(server_->Handle(MakeRequest("POST", "/datalog", body)).status,
            200);
  for (int i = 0; i < 3; ++i) {
    const PlanCacheStats before = cache_.datalog_stats();
    const HttpResponse warm =
        server_->Handle(MakeRequest("POST", "/datalog", body));
    ASSERT_EQ(warm.status, 200) << warm.body;
    EXPECT_NE(warm.body.find("\"text_cache_hit\":true"), std::string::npos);
    const PlanCacheStats after = cache_.datalog_stats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.entries, before.entries);
  }
}

TEST_F(QueryServerTest, DatalogResponseCarriesPlanAnalysis) {
  // The optimizer pre-pass reports what it did — strata, rewrites,
  // boundedness — as the response's "analysis" object.
  const HttpResponse r = server_->Handle(MakeRequest(
      "POST", "/datalog",
      R"js({"structure":"ring","program":)js"
      R"js("node(x) :- E(x,y). reach(y) :- E(0,y). )js"
      R"js(reach(y) :- reach(x), E(x,y). )js"
      R"js(unreach(x) :- node(x), !reach(x).")js"
      R"js(,"outputs":["unreach"]})js"));
  ASSERT_EQ(r.status, 200) << r.body;
  EXPECT_NE(r.body.find("\"analysis\":{"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"route\":\"datalog\""), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"strata\":["), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"boundedness\":["), std::string::npos) << r.body;
  // A ring reaches everything from 0, so the complement is empty — but the
  // predicate must still appear (arity known, zero rows), not vanish.
  EXPECT_NE(r.body.find("\"unreach\""), std::string::npos) << r.body;
  // Only the requested outputs are returned.
  EXPECT_EQ(r.body.find("\"node\":{"), std::string::npos) << r.body;
  EXPECT_EQ(r.body.find("\"reach\":{"), std::string::npos) << r.body;
}

TEST_F(QueryServerTest, UnstratifiableProgramIsRejectedWithDiagnostics) {
  // Negation inside a recursive component is a client error: the server
  // must answer 422 with the FMTK110 diagnostic and its span — never 500,
  // and never reach the fixpoint engine.
  const HttpResponse r = server_->Handle(MakeRequest(
      "POST", "/datalog",
      R"js({"structure":"ring","program":)js"
      R"js("win(x) :- E(x,y), !win(y)."})js"));
  ASSERT_EQ(r.status, 422) << r.body;
  EXPECT_NE(r.body.find("FMTK110"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"offset\""), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"length\""), std::string::npos) << r.body;
}

TEST_F(QueryServerTest, UnsafeNegatedVariableIsRejectedWithDiagnostics) {
  const HttpResponse r = server_->Handle(MakeRequest(
      "POST", "/datalog",
      R"js({"structure":"ring","program":)js"
      R"js("p(x) :- E(x,x), !E(x,z)."})js"));
  ASSERT_EQ(r.status, 422) << r.body;
  EXPECT_NE(r.body.find("FMTK111"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("\"offset\""), std::string::npos) << r.body;
}

TEST_F(QueryServerTest, DatalogAdmissionRejectsRecursionShape) {
  QueryServerOptions options;
  options.planner.cache = &cache_;
  options.admission.reject_nonlinear_recursion = true;
  QueryServer strict(options);
  strict.PutStructure("ring", RingStructure(8), "test");
  // Linear recursion passes ...
  EXPECT_EQ(strict
                .Handle(MakeRequest(
                    "POST", "/datalog",
                    R"js({"structure":"ring","program":)js"
                    R"js("tc(x,y) :- E(x,y). tc(x,y) :- E(x,z), tc(z,y)."})js"))
                .status,
            200);
  // ... the nonlinear variant is rejected before any fixpoint work.
  const HttpResponse r = strict.Handle(MakeRequest(
      "POST", "/datalog",
      R"js({"structure":"ring","program":)js"
      R"js("tc(x,y) :- E(x,y). tc(x,y) :- tc(x,z), tc(z,y)."})js"));
  ASSERT_EQ(r.status, 429) << r.body;
  EXPECT_NE(r.body.find("nonlinear"), std::string::npos);
}

TEST_F(QueryServerTest, StructureLifecycleOverHttpSurface) {
  const HttpResponse put = server_->Handle(MakeRequest(
      "PUT", "/structure/tri?format=text",
      "domain 3\nrelation E/2 { (0 1) (1 2) (2 0) }\n"));
  ASSERT_EQ(put.status, 201) << put.body;
  EXPECT_NE(put.body.find("\"generation\":"), std::string::npos);

  EXPECT_EQ(server_->Handle(MakeRequest("GET", "/structure/tri")).status, 200);
  const HttpResponse list = server_->Handle(MakeRequest("GET", "/structures"));
  EXPECT_NE(list.body.find("\"tri\""), std::string::npos);

  EXPECT_EQ(server_->Handle(MakeRequest("DELETE", "/structure/tri")).status,
            200);
  EXPECT_EQ(server_->Handle(MakeRequest("GET", "/structure/tri")).status, 404);
}

TEST_F(QueryServerTest, EdgeListUploadSniffsFormat) {
  const HttpResponse r = server_->Handle(MakeRequest(
      "PUT", "/structure/web", "# comment\n0 1\n1 2\n2 0\n0 1\n"));
  ASSERT_EQ(r.status, 201) << r.body;
  EXPECT_NE(r.body.find("\"format\":\"edges\""), std::string::npos) << r.body;
  // The duplicate edge surfaces as an FMTK204 warning in the diagnostics.
  EXPECT_NE(r.body.find("FMTK204"), std::string::npos) << r.body;
}

TEST_F(QueryServerTest, RegistrySwapBumpsGenerationAndKeepsServing) {
  const auto before = server_->GetStructure("ring");
  const std::uint64_t g1 =
      server_->PutStructure("ring", RingStructure(16), "swap");
  const auto after = server_->GetStructure("ring");
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(after->domain_size(), 16u);
  EXPECT_GT(g1, 0u);
  // The old snapshot stays valid for in-flight readers.
  EXPECT_EQ(before->domain_size(), 8u);
}

// --- Golden bodies ----------------------------------------------------------

// The body with the value of "wall_us" (its one timing-dependent field)
// replaced by 0.
std::string WithoutWallTime(std::string body) {
  const std::string key = "\"wall_us\":";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return body;
  const std::size_t start = at + key.size();
  std::size_t end = start;
  while (end < body.size() && body[end] >= '0' && body[end] <= '9') ++end;
  body.replace(start, end - start, "0");
  return body;
}

struct GoldenExchange {
  const char* method;
  const char* target;
  const char* request;
  int status;
  const char* body;  // Without the trailing newline.
};

void ExpectGoldenBodies(QueryServer& server,
                        const std::vector<GoldenExchange>& exchanges) {
  for (const GoldenExchange& exchange : exchanges) {
    const HttpResponse r = server.Handle(
        MakeRequest(exchange.method, exchange.target, exchange.request));
    EXPECT_EQ(r.status, exchange.status) << exchange.request;
    EXPECT_EQ(WithoutWallTime(r.body), std::string(exchange.body) + "\n")
        << exchange.method << ' ' << exchange.target << ' '
        << exchange.request;
  }
}

// Every response body, byte for byte (up to wall_us), in one fixed request
// sequence: cache hits, counters and generations depend on the order.
// /datalog plans before it prices or rejects a program, so every program
// probes the plan cache, as every /query formula does: of the 11 program
// misses, 4 are the two valid programs' text and canonical layers and 7 the
// rejected ones' (the parse error reaches only the text layer).
TEST_F(QueryServerTest, GoldenBodiesArePinned) {
  ExpectGoldenBodies(*server_, {
      {"POST", "/datalog",
       R"js({"structure":"ring","program":"tc(x,y) :- E(x,y). tc(x,y) :- E(x,z), tc(z,y).","outputs":["tc"],"max_rows":2})js",
       200, R"golden({"structure":"ring","relations":{"tc":{"arity":2,"row_count":64,"truncated":true,"rows":[[0,1],[1,2]]}},"cache_hit":false,"analysis":{"route":"datalog","cache_hit":false,"text_cache_hit":false,"optimized":true,"magic_applied":true,"fo_expressible":false,"strata":["stratum 0: {m__tc__bf,tc,tc__bf}"],"boundedness":["tc: unbounded (linear recursion)"],"rewrites":["magic-sets: specialized tc -> tc__bf (magic m__tc__bf, pattern bf)"]},"wall_us":0,"stats":{"iterations":10,"tuples_new":136,"rule_applications":52},"admission":{"lane":"fast"}})golden"},
      {"POST", "/datalog",
       R"js({"structure":"ring","program":"tc(x,y) :- E(x,y). tc(x,y) :- E(x,z), tc(z,y).","outputs":["tc"],"max_rows":2})js",
       200, R"golden({"structure":"ring","relations":{"tc":{"arity":2,"row_count":64,"truncated":true,"rows":[[0,1],[1,2]]}},"cache_hit":true,"analysis":{"route":"datalog","cache_hit":true,"text_cache_hit":true,"optimized":true,"magic_applied":true,"fo_expressible":false,"strata":["stratum 0: {m__tc__bf,tc,tc__bf}"],"boundedness":["tc: unbounded (linear recursion)"],"rewrites":["magic-sets: specialized tc -> tc__bf (magic m__tc__bf, pattern bf)"]},"wall_us":0,"stats":{"iterations":10,"tuples_new":136,"rule_applications":52},"admission":{"lane":"fast"}})golden"},
      {"POST", "/datalog",
       R"js({"structure":"ring","program":"hop2(x,y) :- E(x,z), E(z,y).\nmeet(x) :- hop2(x,x).\nmeet(x) :- E(x,x).\n","outputs":["meet","hop2"],"max_rows":3})js",
       200, R"golden({"structure":"ring","relations":{"hop2":{"arity":2,"row_count":8,"truncated":true,"rows":[[0,2],[1,3],[2,4]]},"meet":{"arity":1,"row_count":0,"truncated":false,"rows":[]}},"cache_hit":false,"analysis":{"route":"fo","cache_hit":false,"text_cache_hit":false,"optimized":true,"magic_applied":false,"fo_expressible":true,"strata":["stratum 0: {hop2,meet}"],"boundedness":["hop2: bounded (non-recursive after rewrites)","meet: bounded (non-recursive after rewrites)"],"rewrites":["fo-lowering: all predicates bounded: lowered 2 output predicate(s) to FO for engine routing"]},"wall_us":0,"stats":{"iterations":0,"tuples_new":0,"rule_applications":0},"admission":{"lane":"fast"}})golden"},
      {"POST", "/datalog",
       R"js({"structure":"ring","program":"tc(x,y) :- E(x,y"})js",
       400, R"golden({"error":"expected ')' at offset 16"})golden"},
      {"POST", "/datalog",
       R"js({"structure":"ring","program":"win(x) :- E(x,y), !win(y)."})js",
       422, R"golden({"error":"error[FMTK110]: predicate 'win' is defined through its own negation ('!win(y)'): the program has no stratification","diagnostics":[{"code":"FMTK110","severity":"error","message":"predicate 'win' is defined through its own negation ('!win(y)'): the program has no stratification","offset":0,"length":26,"notes":[{"message":"negated atom in the recursive component","offset":18,"length":7}]}]})golden"},
      {"POST", "/datalog",
       R"js({"structure":"ring","program":"p(x) :- E(x,x), !E(x,z)."})js",
       422, R"golden({"error":"error[FMTK111]: variable 'z' of negated atom '!E(x,z)' does not occur in a positive body atom","diagnostics":[{"code":"FMTK111","severity":"error","message":"variable 'z' of negated atom '!E(x,z)' does not occur in a positive body atom","offset":16,"length":7,"notes":[]}]})golden"},
      {"POST", "/datalog",
       R"js({"structure":"ring","program":"p(x) :- Q(x)."})js",
       422, R"golden({"error":"error[FMTK103]: EDB predicate 'Q' is not a relation of the signature {E/2}","diagnostics":[{"code":"FMTK103","severity":"error","message":"EDB predicate 'Q' is not a relation of the signature {E/2}","offset":8,"length":4,"notes":[]}]})golden"},
      {"POST", "/query",
       R"js({"structure":"ring","query":"forall x. exists y. E(x,y)","explain":true})js",
       200, R"golden({"structure":"ring","query":"forall x. exists y. E(x,y)","result":true,"engine":"compiled","cache_hit":false,"wall_us":0,"admission":{"cost_units":5.0999999999999996,"lane":"fast"},"explain":{"engine":"compiled","cache_hit":false,"text_cache_hit":false,"canonical":"forall %0. exists %1. E(%0,%1)","signature_fingerprint":"0xf2fbef4a37426066","measures":{"quantifier_rank":2,"variable_width":2,"node_count":3,"free_variables":0,"safe_range":false,"existential_positive":false},"estimated_instantiations":16,"guards":["%0:none","%1:correlated"],"structure":{"domain_size":8,"tuple_count":8,"max_degree":2,"avg_degree":2,"components":1,"diameter_bound":8},"rule":"default: compiled slot evaluation, O(n^qr) data complexity","theorem":"Sec. 2.2: data complexity of FO (fixed query => polynomial scan; FO is in AC0)","costs":[{"engine":"compiled","eligible":true,"cost":5.0999999999999996},{"engine":"naive","eligible":true,"cost":1192,"note":"reference oracle"},{"engine":"parallel","eligible":false,"cost":50001.275000000001,"note":"too little work to fan out"},{"engine":"relational","eligible":true,"cost":990},{"engine":"datalog","eligible":false,"cost":0,"note":"outside the existential-positive fragment"},{"engine":"bounded-degree","eligible":false,"cost":200256,"note":"histogram pass not clearly cheaper than the compiled scan"}]}})golden"},
      {"POST", "/query",
       R"js({"structure":"ring","query":"E(x,y)","outputs":["x","y"],"max_rows":3})js",
       200, R"golden({"structure":"ring","query":"E(x,y)","columns":["x","y"],"row_count":8,"truncated":true,"rows":[[0,1],[1,2],[2,3]],"engine":"compiled","cache_hit":false,"wall_us":0,"admission":{"cost_units":19.199999999999999,"lane":"fast"}})golden"},
      {"POST", "/query", R"js({"structure":"ring","query":"exists x. Q(x)"})js",
       422, R"golden({"error":"error[FMTK001]: relation 'Q' is not in the signature {E/2}","diagnostics":[{"code":"FMTK001","severity":"error","message":"relation 'Q' is not in the signature {E/2}","offset":10,"length":4,"notes":[]}]})golden"},
      {"POST", "/query", R"js({"structure":"ring","query":"exists x. (E(x"})js",
       400, R"golden({"error":"expected ')' after atom arguments at offset 14 (near '')"})golden"},
      {"PUT", "/structure/tri?format=text",
       "domain 3\nrelation E/2 { (0 1) (1 2) (2 0) }\n", 201,
       R"golden({"loaded":{"name":"tri","generation":2,"domain_size":3,"tuple_count":3,"relation_count":1,"max_degree":2,"avg_degree":2,"components":1},"format":"text","diagnostics":[]})golden"},
      {"GET", "/structure/ring", "", 200, R"golden({"name":"ring","generation":1,"domain_size":8,"tuple_count":8,"relation_count":1,"max_degree":2,"avg_degree":2,"components":1})golden"},
      {"GET", "/structure/tri", "", 200, R"golden({"name":"tri","generation":2,"domain_size":3,"tuple_count":3,"relation_count":1,"max_degree":2,"avg_degree":2,"components":1})golden"},
      {"GET", "/structures", "", 200, R"golden({"structures":[{"name":"ring","generation":1,"domain_size":8,"tuple_count":8,"relation_count":1,"max_degree":2,"avg_degree":2,"components":1},{"name":"tri","generation":2,"domain_size":3,"tuple_count":3,"relation_count":1,"max_degree":2,"avg_degree":2,"components":1}]})golden"},
      {"GET", "/stats", "", 200, R"golden({"server":{"queries":4,"datalog_queries":7,"structure_loads":1,"admission_rejected":0,"heavy_lane_entries":0,"heavy_lane_rejected":0,"errors":6},"http":{"connections_accepted":0,"connections_rejected":0,"requests_handled":0,"requests_shed":0,"parse_errors":0,"timeouts":0,"bytes_in":0,"bytes_out":0},"plan_cache":{"formulas":{"hits":0,"misses":9,"entries":6},"programs":{"hits":1,"misses":11,"entries":4}},"structures":2})golden"},
  });
}

// The 429 bodies. Both rejected programs were planned (two misses and two
// entries each), so a retry is priced from the cache.
TEST_F(QueryServerTest, GoldenAdmissionBodiesArePinned) {
  QueryServerOptions options;
  options.planner.cache = &cache_;
  options.admission.max_datalog_rules = 2;
  options.admission.reject_nonlinear_recursion = true;
  options.admission.max_quantifier_rank = 2;
  QueryServer strict(options);
  strict.PutStructure("ring", RingStructure(8), "test");
  ExpectGoldenBodies(strict, {
      {"POST", "/datalog",
       R"js({"structure":"ring","program":"tc(x,y) :- E(x,y). tc(x,y) :- E(x,z), tc(z,y). goal(x) :- tc(0,x)."})js",
       429, R"golden({"error":"request rejected by admission control","admission":{"rejected":true,"reason":"program has 3 rules, budget 2","rules":3,"recursive":true,"nonlinear":false,"estimated_rows":72}})golden"},
      {"POST", "/datalog",
       R"js({"structure":"ring","program":"tc(x,y) :- E(x,y). tc(x,y) :- tc(x,z), tc(z,y)."})js",
       429, R"golden({"error":"request rejected by admission control","admission":{"rejected":true,"reason":"nonlinear recursion is not admitted","rules":2,"recursive":true,"nonlinear":true,"estimated_rows":64}})golden"},
      {"POST", "/query",
       R"js({"structure":"ring","query":"exists x. exists y. exists z. E(x,y) & E(y,z)"})js",
       429, R"golden({"error":"request rejected by admission control","admission":{"rejected":true,"reason":"quantifier rank 3 exceeds budget 2","cost_units":79.5,"quantifier_rank":3,"variable_width":3,"node_count":6,"estimated_rows":1}})golden"},
      {"GET", "/stats", "", 200, R"golden({"server":{"queries":1,"datalog_queries":2,"structure_loads":0,"admission_rejected":3,"heavy_lane_entries":0,"heavy_lane_rejected":0,"errors":3},"http":{"connections_accepted":0,"connections_rejected":0,"requests_handled":0,"requests_shed":0,"parse_errors":0,"timeouts":0,"bytes_in":0,"bytes_out":0},"plan_cache":{"formulas":{"hits":0,"misses":2,"entries":2},"programs":{"hits":0,"misses":4,"entries":4}},"structures":1})golden"},
  });
}

// The admission measures /datalog reports (rules, recursion shape, the
// n^arity row estimate), pinned for the serve_mix program templates: an
// estimated-row budget below one rejects every program and prints them.
TEST_F(QueryServerTest, DatalogAdmissionMeasuresArePinned) {
  QueryServerOptions options;
  options.planner.cache = &cache_;
  options.admission.max_estimated_rows = 0.5;
  QueryServer strict(options);
  strict.PutStructure(
      "g",
      *ParseStructure("domain 6\nrelation E/2 { (0 1) (1 2) (2 3) (3 4) "
                      "(4 5) (5 0) (0 3) }\nrelation S/1 { (0) }\n"),
      "test");
  ExpectGoldenBodies(strict, {
      {"POST", "/datalog",
       R"js({"structure":"g","program":"node(x) :- E(x,y).\nnode(y) :- E(x,y).\nreach(x) :- S(x).\nreach(y) :- reach(x), E(x,y).\nunreach(x) :- node(x), !reach(x).\n"})js",
       429, R"golden({"error":"request rejected by admission control","admission":{"rejected":true,"reason":"estimated IDB rows 18 exceeds budget 0.5","rules":5,"recursive":true,"nonlinear":false,"estimated_rows":18}})golden"},
      {"POST", "/datalog",
       R"js({"structure":"g","program":"hop2(x,y) :- E(x,z), E(z,y).\nmeet(x) :- hop2(x,x).\nmeet(x) :- E(x,x).\n","outputs":["meet"]})js",
       429, R"golden({"error":"request rejected by admission control","admission":{"rejected":true,"reason":"estimated IDB rows 42 exceeds budget 0.5","rules":3,"recursive":false,"nonlinear":false,"estimated_rows":42}})golden"},
      {"POST", "/datalog",
       R"js({"structure":"g","program":"sg(x,y) :- E(p,x), E(p,y).\nsg(x,y) :- E(a,x), sg(a,b), E(b,y).\n"})js",
       429, R"golden({"error":"request rejected by admission control","admission":{"rejected":true,"reason":"estimated IDB rows 36 exceeds budget 0.5","rules":2,"recursive":true,"nonlinear":false,"estimated_rows":36}})golden"},
      {"POST", "/datalog",
       R"js({"structure":"g","program":"tc(x,y) :- E(x,y).\ntc(x,z) :- tc(x,y), E(y,z).\ngoal(x) :- tc(3,x).\n","outputs":["goal"]})js",
       429, R"golden({"error":"request rejected by admission control","admission":{"rejected":true,"reason":"estimated IDB rows 42 exceeds budget 0.5","rules":3,"recursive":true,"nonlinear":false,"estimated_rows":42}})golden"},
      {"POST", "/datalog",
       R"js({"structure":"g","program":"sg(x,y) :- E(p,x), E(p,y).\nsg(x,y) :- E(a,x), sg(a,b), E(b,y).\ngoal(y) :- sg(2,y).\n","outputs":["goal"]})js",
       429, R"golden({"error":"request rejected by admission control","admission":{"rejected":true,"reason":"estimated IDB rows 42 exceeds budget 0.5","rules":3,"recursive":true,"nonlinear":false,"estimated_rows":42}})golden"},
      {"POST", "/datalog",
       R"js({"structure":"g","program":"tc(x,y) :- E(x,y).\ntc(x,z) :- tc(x,y), E(y,z).\n"})js",
       429, R"golden({"error":"request rejected by admission control","admission":{"rejected":true,"reason":"estimated IDB rows 36 exceeds budget 0.5","rules":2,"recursive":true,"nonlinear":false,"estimated_rows":36}})golden"},
      {"POST", "/datalog",
       R"js({"structure":"g","program":"tc(x,y) :- E(x,y).\ntc(x,z) :- tc(x,y), tc(y,z).\n"})js",
       429, R"golden({"error":"request rejected by admission control","admission":{"rejected":true,"reason":"estimated IDB rows 36 exceeds budget 0.5","rules":2,"recursive":true,"nonlinear":true,"estimated_rows":36}})golden"},
  });
}

// --- Concurrency hammer (the TSan CI leg runs this binary) ------------------

// Many client threads issue mixed queries through Handle() while a writer
// thread keeps swapping the structure under the same name: exercises the
// registry shared_mutex, per-structure engine memos keyed by uid, and the
// sharded plan cache, all under real concurrency.
TEST(QueryServerConcurrencyTest, HammerWithRegistrySwaps) {
  QueryServerOptions options;
  PlanCache cache;
  options.planner.cache = &cache;
  options.admission.heavy_cost_units = 5000.0;  // Some requests go heavy.
  QueryServer server(options);
  server.PutStructure("g", RingStructure(12), "seed");

  constexpr int kClientThreads = 4;
  constexpr int kIterations = 120;
  std::atomic<int> failures{0};

  std::thread swapper([&] {
    for (int i = 0; i < 40; ++i) {
      server.PutStructure("g", RingStructure(8 + (i % 5)), "swap");
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      const char* queries[] = {
          R"js({"structure":"g","query":"forall x. exists y. E(x,y)"})js",
          R"js({"structure":"g","query":"exists x. E(x,x)"})js",
          R"js({"structure":"g","query":"E(x,y)","outputs":["x","y"]})js",
          R"js({"structure":"g","program":"tc(x,y) :- E(x,y). )js"
          R"js(tc(x,y) :- E(x,z), tc(z,y)."})js",
      };
      for (int i = 0; i < kIterations; ++i) {
        const int pick = (i + t) % 4;
        const char* endpoint = pick == 3 ? "/datalog" : "/query";
        const HttpResponse r =
            server.Handle(MakeRequest("POST", endpoint, queries[pick]));
        if (r.status != 200) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  swapper.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().queries + server.stats().datalog_queries,
            static_cast<std::uint64_t>(kClientThreads * kIterations));
}

// --- Real sockets through the poll loop + worker pool -----------------------

// Minimal blocking HTTP client for the tests: one round trip on an open
// socket (reads the response head, then Content-Length body bytes).
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return connected_; }

  /// Sends `raw` and returns the full response (head + body), or "" on
  /// any failure.
  std::string RoundTrip(const std::string& raw) {
    if (send(fd_, raw.data(), raw.size(), 0) !=
        static_cast<ssize_t>(raw.size())) {
      return {};
    }
    std::string response;
    char chunk[4096];
    std::size_t body_needed = std::string::npos;
    std::size_t head_end = std::string::npos;
    while (true) {
      if (head_end != std::string::npos &&
          response.size() >= head_end + body_needed) {
        return response;
      }
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return response;
      response.append(chunk, static_cast<std::size_t>(n));
      if (head_end == std::string::npos) {
        const std::size_t pos = response.find("\r\n\r\n");
        if (pos == std::string::npos) continue;
        head_end = pos + 4;
        const std::size_t cl = response.find("Content-Length: ");
        if (cl == std::string::npos || cl > pos) return response;
        body_needed = static_cast<std::size_t>(
            std::atol(response.c_str() + cl + 16));
      }
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class LiveServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    QueryServerOptions options;
    options.planner.cache = &cache_;
    options.http.port = 0;  // Ephemeral.
    options.http.worker_threads = 3;
    server_ = std::make_unique<QueryServer>(options);
    server_->PutStructure("g", RingStructure(8), "test");
    ASSERT_TRUE(server_->Start().ok());
  }
  void TearDown() override { server_->Stop(); }

  PlanCache cache_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(LiveServerTest, RoundTripsQueryOverRealSocket) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const std::string body =
      R"js({"structure":"g","query":"forall x. exists y. E(x,y)"})js";
  const std::string response = client.RoundTrip(
      "POST /query HTTP/1.1\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n\r\n" + body);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"result\":true"), std::string::npos) << response;
}

TEST_F(LiveServerTest, KeepAliveServesSequentialRequestsOnOneConnection) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  for (int i = 0; i < 3; ++i) {
    const std::string response =
        client.RoundTrip("GET /healthz HTTP/1.1\r\n\r\n");
    EXPECT_NE(response.find("{\"ok\":true}"), std::string::npos) << i;
    EXPECT_NE(response.find("Connection: keep-alive"), std::string::npos);
  }
}

TEST_F(LiveServerTest, MalformedRequestGets400AndClose) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const std::string response =
      client.RoundTrip("BROKEN_REQUEST\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  EXPECT_GE(server_->http_stats().parse_errors, 1u);
}

TEST_F(LiveServerTest, OversizedNumeralGets400AndServerKeepsServing) {
  // The count once escaped the parser as std::out_of_range and terminated
  // the process from a worker thread.
  auto post = [this](const std::string& path, const std::string& body) {
    TestClient client(server_->port());
    EXPECT_TRUE(client.connected());
    return client.RoundTrip("POST " + path +
                            " HTTP/1.1\r\nContent-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" + body);
  };
  std::string response = post(
      "/query",
      R"js({"structure":"g","query":"atleast 99999999999999999999999 x . x = x"})js");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  EXPECT_NE(response.find("count after 'atleast'"), std::string::npos)
      << response;
  response = post("/datalog",
                  R"js({"structure":"g","program":"p(x) :- E(4294967296, x).",)js"
                  R"js("outputs":["p"]})js");
  EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
  response = post("/query",
                  R"js({"structure":"g","query":"forall x. exists y. E(x,y)"})js");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"result\":true"), std::string::npos) << response;
}

TEST_F(LiveServerTest, DeepFormulaGets400AndServerKeepsServing) {
  // 20,000 '!' once overflowed a worker's stack and killed the process.
  auto query = [this](const std::string& text) {
    TestClient client(server_->port());
    EXPECT_TRUE(client.connected());
    const std::string body =
        R"js({"structure":"g","query":")js" + text + "\"}";
    return client.RoundTrip("POST /query HTTP/1.1\r\nContent-Length: " +
                            std::to_string(body.size()) + "\r\n\r\n" +
                            body);
  };
  for (const std::string& text :
       {std::string(20000, '!') + "true",
        std::string(20000, '(') + "true" + std::string(20000, ')')}) {
    const std::string response = query(text);
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos) << response;
    EXPECT_NE(response.find("nests deeper than"), std::string::npos)
        << response;
  }
  // A formula at the cap runs every pass (parse, canonicalize, analyze,
  // plan, compile, evaluate, print, destroy) on a worker's stack: each
  // printed negation below the first is parenthesized, so the text nests
  // about twice the cap.
  std::string deepest = "exists x. ";
  for (std::size_t i = 0; i + 2 < kMaxFormulaNesting; ++i) {
    deepest += i == 0 ? "!" : "!(";
  }
  deepest += "E(x,x)" + std::string(kMaxFormulaNesting - 3, ')');
  std::string response = query(deepest);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"result\":false"), std::string::npos) << response;
  response = query("forall x. exists y. E(x,y)");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  EXPECT_NE(response.find("\"result\":true"), std::string::npos) << response;
}

TEST_F(LiveServerTest, ConcurrentSocketClientsAllSucceed) {
  constexpr int kThreads = 6;
  constexpr int kRequests = 25;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      TestClient client(server_->port());
      if (!client.connected()) return;
      const std::string body =
          R"js({"structure":"g","query":"exists x. E(x,x)"})js";
      const std::string raw = "POST /query HTTP/1.1\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
      for (int i = 0; i < kRequests; ++i) {
        const std::string response = client.RoundTrip(raw);
        if (response.find("HTTP/1.1 200 OK") != std::string::npos) {
          ok.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads * kRequests);
  EXPECT_GE(server_->http_stats().requests_handled,
            static_cast<std::uint64_t>(kThreads * kRequests));
}

TEST_F(LiveServerTest, StatsEndpointReportsPlanCacheCounters) {
  TestClient client(server_->port());
  ASSERT_TRUE(client.connected());
  const std::string body = R"js({"structure":"g","query":"exists x. E(x,x)"})js";
  const std::string raw = "POST /query HTTP/1.1\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body;
  client.RoundTrip(raw);
  client.RoundTrip(raw);
  const std::string stats = client.RoundTrip("GET /stats HTTP/1.1\r\n\r\n");
  EXPECT_NE(stats.find("\"plan_cache\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"requests_handled\""), std::string::npos);
}

}  // namespace
}  // namespace fmtk
