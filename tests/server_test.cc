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
