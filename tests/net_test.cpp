// net/: the HTTP front-end must frame correctly under adversarial input
// (malformed, oversize, byte-dribbled and pipelined requests, partial
// writes), answer bit-identically to direct SelectionService calls, keep
// pipelined responses strictly ordered even when handlers finish out of
// order, and drain gracefully on stop() — all of it clean under ASan and
// TSan (the CI sanitizer jobs run this suite).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "model/simulated_machine.hpp"
#include "net/client.hpp"
#include "net/routes.hpp"
#include "net/server.hpp"
#include "obs/trace.hpp"
#include "scripted.hpp"
#include "serve/selection_service.hpp"
#include "support/str.hpp"

namespace {

using namespace lamb;
using net::Client;
using net::RequestParser;
using net::Responder;
using net::Response;
using net::ResponseParser;
using net::Router;
using net::Server;
using net::ServerConfig;
using serve::Query;
using serve::Recommendation;
using serve::SelectionService;
using serve::ServiceConfig;

ServiceConfig scripted_config() {
  ServiceConfig cfg;
  cfg.atlas.lo = 20;
  cfg.atlas.hi = 1200;
  cfg.atlas.coarse_step = 40;
  cfg.threads = 2;
  return cfg;
}

expr::FamilyRegistry scripted_registry() {
  expr::FamilyRegistry registry;
  registry.add("scripted", "test double", [] {
    return std::make_unique<lamb::testing::ScriptedFamily>();
  });
  return registry;
}

/// Tests that don't pin a loop count run with whatever LAMB_NET_TEST_LOOPS
/// says (the TSan CI job exports 2 so the whole suite exercises the
/// multi-reactor paths); explicit `cfg.loops` settings always win.
ServerConfig apply_test_loops(ServerConfig cfg) {
  if (cfg.loops == 0) {
    if (const char* env = std::getenv("LAMB_NET_TEST_LOOPS")) {
      const long n = std::strtol(env, nullptr, 10);
      if (n > 0) {
        cfg.loops = static_cast<std::size_t>(n);
      }
    }
  }
  return cfg;
}

/// A served SelectionService plus an independent but identically configured
/// reference service: the scripted machine's timings are pure functions, so
/// the two produce bit-identical recommendations and every HTTP answer can
/// be pinned against a direct in-process call.
class ServedService {
 public:
  explicit ServedService(ServerConfig server_cfg = {},
                         net::SelectionRoutesConfig routes_cfg = {})
      : registry_(scripted_registry()),
        ref_registry_(scripted_registry()),
        service_(machine_, scripted_config(), &registry_),
        reference_(ref_machine_, scripted_config(), &ref_registry_),
        routes_(service_, routes_cfg),
        server_(routes_.router(), apply_test_loops(std::move(server_cfg))) {
    routes_.attach_server(&server_);
    loop_ = std::thread([this] { server_.run(); });
    // The listeners exist before run(), so connects succeed already.
  }

  ~ServedService() { shutdown(); }

  void shutdown() {
    if (loop_.joinable()) {
      server_.stop();
      loop_.join();
    }
  }

  Client connect() { return Client("127.0.0.1", server_.port()); }
  Server& server() { return server_; }
  SelectionService& service() { return service_; }
  SelectionService& reference() { return reference_; }

 private:
  lamb::testing::ScriptedMachine machine_;
  lamb::testing::ScriptedMachine ref_machine_;
  expr::FamilyRegistry registry_;
  expr::FamilyRegistry ref_registry_;
  SelectionService service_;
  SelectionService reference_;
  net::SelectionRoutes routes_;
  Server server_;
  std::thread loop_;
};

// ------------------------------------------------------------- http parser

TEST(HttpParser, ParsesARequestFedByteByByte) {
  RequestParser parser(1 << 16);
  const std::string raw =
      "POST /v1/query?trace=1 HTTP/1.1\r\n"
      "Host: lamb\r\n"
      "Content-Length: 12\r\n"
      "\r\n"
      "scripted,300";
  for (std::size_t i = 0; i + 1 < raw.size(); ++i) {
    ASSERT_NE(parser.feed(raw.substr(i, 1)), RequestParser::State::kComplete)
        << "complete after only " << i + 1 << " bytes";
  }
  ASSERT_EQ(parser.feed(raw.substr(raw.size() - 1)),
            RequestParser::State::kComplete);
  const net::Request& req = parser.request();
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/v1/query");
  EXPECT_EQ(req.query_string, "trace=1");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_EQ(req.body, "scripted,300");
  EXPECT_TRUE(req.keep_alive);
  ASSERT_NE(req.header("host"), nullptr);  // case-insensitive
  EXPECT_EQ(*req.header("HOST"), "lamb");
}

TEST(HttpParser, PipelinedRequestsComeOutInOrder) {
  RequestParser parser(1 << 16);
  ASSERT_EQ(parser.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.0\r\n\r\n"),
            RequestParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/a");
  EXPECT_TRUE(parser.request().keep_alive);
  ASSERT_EQ(parser.advance(), RequestParser::State::kComplete);
  EXPECT_EQ(parser.request().path, "/b");
  EXPECT_FALSE(parser.request().keep_alive);  // 1.0 defaults to close
  EXPECT_EQ(parser.advance(), RequestParser::State::kNeedMore);
  EXPECT_EQ(parser.buffered(), 0u);
}

TEST(HttpParser, ToleratesBareLfAndHonorsConnectionHeaders) {
  RequestParser parser(1 << 16);
  ASSERT_EQ(parser.feed("GET /x HTTP/1.1\nConnection: close\n\n"),
            RequestParser::State::kComplete);
  EXPECT_FALSE(parser.request().keep_alive);

  RequestParser keep(1 << 16);
  ASSERT_EQ(keep.feed("GET /x HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"),
            RequestParser::State::kComplete);
  EXPECT_TRUE(keep.request().keep_alive);
}

TEST(HttpParser, RejectsProtocolViolationsWithTheRightStatus) {
  const auto status_for = [](std::string_view raw) {
    RequestParser parser(256);
    parser.feed(raw);
    return parser.state() == RequestParser::State::kError
               ? parser.error_status()
               : 0;
  };
  EXPECT_EQ(status_for("garbage\r\n\r\n"), 400);
  EXPECT_EQ(status_for("GET  /two-spaces HTTP/1.1\r\n\r\n"), 400);
  EXPECT_EQ(status_for("GET /x HTTP/2.0\r\n\r\n"), 505);
  EXPECT_EQ(status_for("GET /x HTTP/1.1\r\nBad Header Name: v\r\n\r\n"), 400);
  EXPECT_EQ(status_for("POST /x HTTP/1.1\r\nContent-Length: -4\r\n\r\n"),
            400);
  EXPECT_EQ(status_for("POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n"),
            413);
  EXPECT_EQ(
      status_for("POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
      501);
  // Conflicting duplicate Content-Length is a smuggling vector, not a pick.
  EXPECT_EQ(status_for("POST /x HTTP/1.1\r\nContent-Length: 5\r\n"
                       "Content-Length: 50\r\n\r\n"),
            400);
  // Header block exceeding the limit without ever completing.
  EXPECT_EQ(status_for("GET /x HTTP/1.1\r\nPad: " + std::string(300, 'y')),
            431);
}

TEST(HttpParser, ResponseRoundTripsThroughAppendResponse) {
  std::string wire;
  Response r;
  r.status = 200;
  r.content_type = "text/csv";
  r.body = "1,2,3\n";
  net::append_response(wire, r, /*keep_alive=*/true);

  ResponseParser parser(1 << 16);
  ASSERT_TRUE(parser.feed(wire));
  EXPECT_EQ(parser.response().status, 200);
  EXPECT_EQ(parser.response().body, "1,2,3\n");
  EXPECT_TRUE(parser.response().keep_alive);
  ASSERT_NE(parser.response().header("content-type"), nullptr);
  EXPECT_EQ(*parser.response().header("content-type"), "text/csv");
}

// ------------------------------------------------------------- wire format

TEST(WireFormat, QueryLineParsesDimsFlagsAndRejectsGarbage) {
  const Query q = net::parse_query_line("scripted, 300 ,dim=0,exact");
  EXPECT_EQ(q.family, "scripted");
  EXPECT_EQ(q.dims, expr::Instance{300});
  EXPECT_EQ(q.dim, 0);
  EXPECT_TRUE(q.exact);
  EXPECT_THROW(net::parse_query_line(",300"), std::invalid_argument);
  EXPECT_THROW(net::parse_query_line("scripted"), std::invalid_argument);
  EXPECT_THROW(net::parse_query_line("scripted,12x"), std::invalid_argument);
  EXPECT_THROW(net::parse_query_line("scripted,1.5"), std::invalid_argument);
  // Out-of-int-range values must be a 400, not a silent wrap to a small
  // positive dimension that answers for a different instance.
  EXPECT_THROW(net::parse_query_line("scripted,4294967297"),
               std::invalid_argument);
  EXPECT_THROW(net::parse_query_line("scripted,300,dim=4294967296"),
               std::invalid_argument);
}

TEST(WireFormat, RecommendationRoundTripsBitExactly) {
  Recommendation rec;
  rec.algorithm = 3;
  rec.flop_minimal = 1;
  rec.flops_reliable = false;
  rec.time_score = 0.1 + 0.2;  // not representable tidily: exercises %.17g
  rec.source = serve::Source::kAtlas;
  const Recommendation back =
      net::parse_recommendation(net::format_recommendation(rec));
  EXPECT_EQ(back, rec);  // payload equality (source excluded)
  EXPECT_EQ(back.source, rec.source);
  EXPECT_THROW(net::parse_recommendation("1,2,3"), std::invalid_argument);
  EXPECT_THROW(net::parse_recommendation("1,2,1,0.5,guess"),
               std::invalid_argument);
}

// ---------------------------------------------------------- served routes

TEST(NetServe, HealthzRoutesAndMethodMismatches) {
  ServedService served;
  Client client = served.connect();
  const auto health = client.request("GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
  EXPECT_EQ(client.request("GET", "/nope").status, 404);
  EXPECT_EQ(client.request("POST", "/healthz").status, 405);
  EXPECT_EQ(client.request("GET", "/v1/query").status, 405);
}

TEST(NetServe, QueryAnswersAreBitIdenticalToDirectCalls) {
  ServedService served;
  Client client = served.connect();
  for (const int d : {60, 300, 470, 890, 1150}) {
    for (const bool exact : {false, true}) {
      const Query q{"scripted", {d}, 0, exact};
      const Recommendation direct = served.reference().query(q);
      const std::string line =
          exact ? lamb::support::strf("scripted,%d,exact", d)
                : lamb::support::strf("scripted,%d", d);
      const auto http = client.request("POST", "/v1/query", line);
      ASSERT_EQ(http.status, 200) << http.body;
      EXPECT_EQ(net::parse_recommendation(http.body), direct)
          << "d=" << d << " exact=" << exact;
    }
  }
  // A repeated query must come back from the LRU, same payload.
  const auto again = client.request("POST", "/v1/query", "scripted,300");
  const Recommendation rec = net::parse_recommendation(again.body);
  EXPECT_EQ(rec.source, serve::Source::kCache);
  EXPECT_EQ(rec, served.reference().query(Query{"scripted", {300}, 0,
                                                false}));
}

TEST(NetServe, BatchAnswersMatchQueryBatchInInputOrder) {
  ServedService served;
  Client client = served.connect();
  std::vector<Query> queries;
  std::string body;
  for (int i = 0; i < 200; ++i) {
    const int d = 20 + (i * 37) % 1180;
    queries.push_back(Query{"scripted", {d}, 0, false});
    body += lamb::support::strf("scripted,%d\n", d);
  }
  queries.push_back(Query{"scripted", {333}, 0, true});
  body += "scripted,333,exact\n";

  const std::vector<Recommendation> direct =
      served.reference().query_batch(queries);
  const auto http = client.request("POST", "/v1/batch", body);
  ASSERT_EQ(http.status, 200) << http.body;

  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < http.body.size()) {
    const std::size_t nl = http.body.find('\n', pos);
    lines.push_back(http.body.substr(pos, nl - pos));
    pos = nl + 1;
  }
  ASSERT_EQ(lines.size(), direct.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(net::parse_recommendation(lines[i]), direct[i]) << "row " << i;
  }
  // The whole batch was one fused query_batch call on the service.
  EXPECT_EQ(served.service().stats().batch_calls, 1u);
  EXPECT_EQ(served.service().stats().batch_queries, queries.size());
}

TEST(NetServe, MalformedBodiesAnswer400AndKeepTheConnectionAlive) {
  ServedService served;
  Client client = served.connect();
  EXPECT_EQ(client.request("POST", "/v1/query", "").status, 400);
  EXPECT_EQ(client.request("POST", "/v1/query", "a,1\nb,2").status, 400);
  EXPECT_EQ(client.request("POST", "/v1/query", "scripted,nope").status,
            400);
  EXPECT_EQ(client.request("POST", "/v1/query", "unknownfam,10").status,
            400);
  // Arity mismatch is caught by the service's validation, also 400.
  EXPECT_EQ(client.request("POST", "/v1/query", "scripted,10,20").status,
            400);
  const auto batch = client.request("POST", "/v1/batch",
                                    "scripted,100\nscripted,oops\n");
  EXPECT_EQ(batch.status, 400);
  EXPECT_NE(batch.body.find("line 2"), std::string::npos) << batch.body;
  // All of the above were keep-alive failures; the connection still works.
  EXPECT_EQ(client.request("GET", "/healthz").status, 200);
}

TEST(NetServe, DimensionAboveTheBoundAnswers400) {
  // Sizes beyond expr::kMaxDimension would overflow FLOP counts.
  ServedService served;
  Client client = served.connect();
  EXPECT_EQ(client.request("POST", "/v1/query", "scripted,2000000000").status,
            400);
  EXPECT_EQ(client
                .request("POST", "/v1/query",
                         "scripted," + std::to_string(expr::kMaxDimension))
                .status,
            200);
}

TEST(NetServe, ProtocolErrorsCloseTheConnection) {
  ServedService served;
  {
    Client client = served.connect();
    client.send_raw("NONSENSE\r\n\r\n");
    const auto resp = client.receive();
    EXPECT_EQ(resp.status, 400);
    EXPECT_FALSE(resp.keep_alive);
    EXPECT_FALSE(client.connected());
  }
  {
    ServerConfig tiny;
    tiny.max_request_bytes = 512;
    ServedService small(tiny);
    Client client = small.connect();
    const auto resp =
        client.request("POST", "/v1/query", std::string(4096, 'x'));
    EXPECT_EQ(resp.status, 413);
    EXPECT_FALSE(resp.keep_alive);
  }
}

TEST(NetServe, DribbledRequestAndPipelinedBurstBothWork) {
  ServedService served;
  Client client = served.connect();
  // Bytes arrive a few at a time: the incremental parser must resume.
  const std::string raw =
      "POST /v1/query HTTP/1.1\r\nContent-Length: 12\r\n\r\nscripted,300";
  for (std::size_t i = 0; i < raw.size(); i += 3) {
    client.send_raw(raw.substr(i, 3));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(client.receive().status, 200);

  // A pipelined burst: all requests written before any response is read;
  // answers must come back in order.
  const int kBurst = 32;
  for (int i = 0; i < kBurst; ++i) {
    client.send("POST", "/v1/query",
                lamb::support::strf("scripted,%d", 20 + i));
  }
  for (int i = 0; i < kBurst; ++i) {
    const auto resp = client.receive();
    ASSERT_EQ(resp.status, 200);
    EXPECT_EQ(net::parse_recommendation(resp.body),
              served.reference().query(Query{"scripted", {20 + i}, 0,
                                             false}))
        << "pipelined answer " << i << " out of order";
  }
}

TEST(NetServe, PipelineBackpressurePausesReadsWithoutLosingRequests) {
  ServerConfig cfg;
  cfg.max_pipeline = 4;  // far smaller than the burst
  ServedService served(cfg);
  Client client = served.connect();
  const int kBurst = 64;
  for (int i = 0; i < kBurst; ++i) {
    client.send("GET", "/healthz");
  }
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_EQ(client.receive().status, 200) << "response " << i;
  }
}

TEST(NetServe, PartialWritesDeliverALargeBatchIntact) {
  ServerConfig cfg;
  cfg.so_sndbuf = 4096;  // shrink the send buffer: forces EPOLLOUT rounds
  ServedService served(cfg);
  Client client = served.connect();
  std::string body;
  const int kRows = 4000;
  for (int i = 0; i < kRows; ++i) {
    body += lamb::support::strf("scripted,%d\n", 20 + (i * 13) % 1180);
  }
  const auto resp = client.request("POST", "/v1/batch", body);
  ASSERT_EQ(resp.status, 200);
  // ~37 bytes per row: far larger than SO_SNDBUF, so several write rounds.
  EXPECT_EQ(static_cast<int>(
                std::count(resp.body.begin(), resp.body.end(), '\n')),
            kRows);
}

TEST(NetServe, BatchOverTheQueryLimitAnswers413) {
  net::SelectionRoutesConfig routes_cfg;
  routes_cfg.max_batch_queries = 100;
  ServedService served({}, routes_cfg);
  Client client = served.connect();
  std::string body;
  for (int i = 0; i < 101; ++i) {
    body += "scripted,300\n";
  }
  EXPECT_EQ(client.request("POST", "/v1/batch", body).status, 413);
  // None of it reached the service as a fused batch.
  EXPECT_EQ(served.service().stats().batch_calls, 0u);
}

TEST(NetServe, NeverReadingPipelinedClientIsDisconnected) {
  ServerConfig cfg;
  cfg.so_sndbuf = 4096;  // writes stall immediately once the client stops
  cfg.max_buffered_response_bytes = 64u << 10;
  ServedService served(cfg);
  Client client = served.connect();
  std::string body;
  for (int i = 0; i < 4000; ++i) {
    body += lamb::support::strf("scripted,%d\n", 20 + i % 1180);
  }
  // Each response is ~150 KB; pipeline several and read none: once the
  // unread backlog passes the cap the server must drop the connection
  // instead of buffering without bound.
  const auto read_all = [&] {
    for (int i = 0; i < 8; ++i) {
      client.send("POST", "/v1/batch", body);
    }
    // Never read; wait until the server cuts us off (we are its only
    // connection, so the active gauge dropping to zero IS the drop). The
    // gauge first has to see the connection: until the server accepts it,
    // it reads zero too. The deadline only bounds a regressed server that
    // buffers forever — the receives below then succeed and fail the
    // EXPECT_THROW.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    const auto wait_for_active = [&](bool connected) {
      while ((served.server().stats().connections_active > 0) != connected &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    wait_for_active(true);
    wait_for_active(false);
    for (int i = 0; i < 8; ++i) {
      client.receive();
    }
  };
  EXPECT_THROW(read_all(), net::NetError);
}

TEST(NetServe, ConnectionCloseIsHonored) {
  ServedService served;
  Client client = served.connect();
  client.send_raw(
      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
  const auto resp = client.receive();
  EXPECT_EQ(resp.status, 200);
  EXPECT_FALSE(resp.keep_alive);
  EXPECT_FALSE(client.connected());
}

TEST(NetServe, RejectsConnectionsOverTheLimit) {
  ServerConfig cfg;
  cfg.max_connections = 1;
  cfg.loops = 1;  // the cap is per-loop: pin one loop so "1" means 1
  ServedService served(cfg);
  Client first = served.connect();
  ASSERT_EQ(first.request("GET", "/healthz").status, 200);
  Client second = served.connect();  // accepted by the kernel, then closed
  EXPECT_THROW(second.request("GET", "/healthz"), net::NetError);
  EXPECT_EQ(first.request("GET", "/healthz").status, 200);  // unaffected
}

TEST(NetServe, MetricsExportServiceAndHttpCounters) {
  ServedService served;
  Client client = served.connect();
  ASSERT_EQ(client.request("POST", "/v1/query", "scripted,444").status, 200);
  ASSERT_EQ(client.request("POST", "/v1/query", "scripted,444").status, 200);
  ASSERT_EQ(client
                .request("POST", "/v1/batch",
                         "scripted,100\nscripted,200\n")
                .status,
            200);
  const auto metrics = client.request("GET", "/metrics");
  ASSERT_EQ(metrics.status, 200);
  const std::string& m = metrics.body;
  EXPECT_NE(m.find("lamb_selection_answers_total{source=\"atlas\"}"),
            std::string::npos);
  EXPECT_NE(m.find("lamb_selection_answers_total{source=\"cache\"} 1"),
            std::string::npos);
  EXPECT_NE(m.find("lamb_selection_batch_queries_total 2"),
            std::string::npos);
  // The repeat query was answered by the allocation-free cached fast path
  // on the reactor thread: only the cold miss reached query_async.
  EXPECT_NE(m.find("lamb_selection_async_calls_total 1"),
            std::string::npos);
  EXPECT_NE(m.find("lamb_http_requests_total 4"), std::string::npos);
  // Per-reactor series: the loop-count gauge anchors the label cardinality.
  EXPECT_NE(m.find(lamb::support::strf("lamb_net_loops %zu",
                                       served.server().loops())),
            std::string::npos);
  EXPECT_NE(m.find("lamb_net_loop_requests_total{loop=\"0\"}"),
            std::string::npos);
  EXPECT_NE(m.find("lamb_net_loop_connections{loop=\"0\"}"),
            std::string::npos);
  EXPECT_NE(m.find("lamb_http_request_duration_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(m.find("lamb_http_request_duration_seconds_count 3"),
            std::string::npos);  // recorded before this scrape's response
  // Live gauges: this client is the only connection, and its /metrics
  // request is the only one in flight while the body renders.
  EXPECT_NE(m.find("lamb_http_connections_active 1"), std::string::npos);
  EXPECT_NE(m.find("lamb_http_requests_in_flight 1"), std::string::npos);
  // The per-stage histogram family renders (zero-valued when tracing is
  // off) with HELP/TYPE ahead of the series.
  EXPECT_NE(m.find("# HELP lamb_stage_seconds"), std::string::npos);
  EXPECT_NE(m.find("lamb_stage_seconds_bucket{stage=\"route\""),
            std::string::npos);
}

/// RAII tracer configuration for one test: restores the disabled default
/// so the rest of the suite runs uninstrumented.
struct ScopedTracing {
  explicit ScopedTracing(obs::TracerConfig cfg) {
    obs::tracer().configure(cfg);
  }
  ~ScopedTracing() {
    obs::TracerConfig off;
    off.enabled = false;
    obs::tracer().configure(off);
  }
};

TEST(NetServe, ColdQueryOverHttpYieldsACompleteSpanTree) {
  obs::TracerConfig tc;
  tc.enabled = true;
  tc.sample_every = 1;
  const ScopedTracing tracing(tc);

  ServedService served;
  Client client = served.connect();
  ASSERT_EQ(client.request("POST", "/v1/query", "scripted,444").status, 200);

  // The query's trace is complete once its response arrived (end_request
  // runs before the response bytes flush). Find it by its root label via
  // the stage set: one trace holds request+parse+route AND the serving
  // stages the cold miss walked (lru probe, atlas resolution, slice
  // build). kKernel is absent — the scripted machine never calls
  // blas::gemm; obs_test pins that stage directly.
  std::map<std::uint64_t, std::vector<obs::SpanRecord>> by_trace;
  for (const obs::SpanRecord& span : obs::tracer().recent_spans()) {
    by_trace[span.trace_id].push_back(span);
  }
  bool found_complete = false;
  for (const auto& [trace_id, spans] : by_trace) {
    std::set<obs::Stage> stages;
    std::map<std::uint32_t, obs::SpanRecord> by_id;
    for (const obs::SpanRecord& span : spans) {
      stages.insert(span.stage);
      by_id.emplace(span.span_id, span);
    }
    if (!stages.count(obs::Stage::kRequest) ||
        !stages.count(obs::Stage::kParse) ||
        !stages.count(obs::Stage::kRoute) ||
        !stages.count(obs::Stage::kLru) ||
        !stages.count(obs::Stage::kAtlas) ||
        !stages.count(obs::Stage::kBuild)) {
      continue;
    }
    found_complete = true;
    // Well-formed: one root, no orphans, children inside their parents.
    std::size_t roots = 0;
    for (const obs::SpanRecord& span : spans) {
      if (span.parent_id == 0) {
        ++roots;
        continue;
      }
      const auto parent = by_id.find(span.parent_id);
      ASSERT_NE(parent, by_id.end());
      EXPECT_GE(span.t_start_ns, parent->second.t_start_ns);
      EXPECT_LE(span.t_end_ns, parent->second.t_end_ns);
    }
    EXPECT_EQ(roots, 1u);
  }
  EXPECT_TRUE(found_complete)
      << "no trace carried the full cold-query stage set";

  // The same capture renders from the live server as Chrome trace JSON.
  const auto trace = client.request("GET", "/debug/trace");
  ASSERT_EQ(trace.status, 200);
  EXPECT_NE(trace.body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.body.find("\"name\": \"request\""), std::string::npos);
  EXPECT_NE(trace.body.find("\"name\": \"build\""), std::string::npos);
}

TEST(NetServe, DebugSlowLogAndSampleRateRoundTrip) {
  obs::TracerConfig tc;
  tc.enabled = true;
  tc.sample_every = 1;
  tc.slow_threshold_ns = 0;  // every request is "slow"
  const ScopedTracing tracing(tc);

  ServedService served;
  Client client = served.connect();
  ASSERT_EQ(client.request("POST", "/v1/query", "scripted,444").status, 200);

  const auto slow = client.request("GET", "/debug/slow");
  ASSERT_EQ(slow.status, 200);
  EXPECT_NE(slow.body.find("\"trace_id\""), std::string::npos);
  EXPECT_NE(slow.body.find("/v1/query"), std::string::npos);
  EXPECT_NE(slow.body.find("\"spans\""), std::string::npos);

  // The sampling knob round-trips through the POST surface.
  const auto set = client.request("POST", "/debug/sample_rate", "16");
  ASSERT_EQ(set.status, 200);
  EXPECT_NE(set.body.find("\"sample_every\":16"), std::string::npos);
  EXPECT_EQ(obs::tracer().sample_every(), 16u);
  EXPECT_EQ(client.request("POST", "/debug/sample_rate", "many").status,
            400);
  EXPECT_EQ(client.request("POST", "/debug/sample_rate", "-3").status, 400);
  EXPECT_EQ(obs::tracer().sample_every(), 16u);  // rejected inputs held
}

// ------------------------------------------------- custom handler behavior

TEST(NetServe, OutOfOrderHandlersStillRespondInRequestOrder) {
  // First request finishes late (a detached thread answers after 50ms),
  // second immediately; the pipelined client must still read them in
  // request order — the server parks the early completion.
  Router router;
  router.handle("GET", "/slow", [](const net::Request&,
                                   Responder responder) {
    std::thread([responder]() mutable {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      responder.send(net::text_response(200, "slow\n"));
    }).detach();
  });
  router.get("/fast",
             [](const net::Request&) { return net::text_response(200,
                                                                 "fast\n"); });
  Server server(std::move(router), {});
  std::thread loop([&] { server.run(); });
  {
    Client client("127.0.0.1", server.port());
    client.send("GET", "/slow");
    client.send("GET", "/fast");
    EXPECT_EQ(client.receive().body, "slow\n");
    EXPECT_EQ(client.receive().body, "fast\n");
  }
  server.stop();
  loop.join();
}

TEST(NetServe, DroppedAndThrowingHandlersAnswer500) {
  Router router;
  router.handle("GET", "/drop", [](const net::Request&, Responder) {
    // Responder destroyed unsent: the server must answer on its behalf.
  });
  router.get("/throw", [](const net::Request&) -> Response {
    throw std::runtime_error("handler exploded");
  });
  Server server(std::move(router), {});
  std::thread loop([&] { server.run(); });
  {
    Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.request("GET", "/drop").status, 500);
    const auto thrown = client.request("GET", "/throw");
    EXPECT_EQ(thrown.status, 500);
    EXPECT_NE(thrown.body.find("handler exploded"), std::string::npos);
  }
  server.stop();
  loop.join();
}

TEST(NetServe, GracefulShutdownFinishesInFlightRequests) {
  std::atomic<bool> handler_started{false};
  Router router;
  router.handle("GET", "/slow", [&](const net::Request&,
                                    Responder responder) {
    handler_started.store(true);
    std::thread([responder]() mutable {
      std::this_thread::sleep_for(std::chrono::milliseconds(80));
      responder.send(net::text_response(200, "done\n"));
    }).detach();
  });
  Server server(std::move(router), {});
  std::thread loop([&] { server.run(); });

  Client busy("127.0.0.1", server.port());
  Client idle("127.0.0.1", server.port());
  busy.send("GET", "/slow");
  while (!handler_started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  // The in-flight request still completes and is flushed before run()
  // returns; the idle connection is closed without an answer.
  const auto resp = busy.receive();
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "done\n");
  loop.join();
  EXPECT_FALSE(server.running());
  EXPECT_THROW(
      {
        idle.send("GET", "/healthz");
        idle.receive();
      },
      net::NetError);
  // And the listener is gone: new connections are refused.
  EXPECT_THROW(Client("127.0.0.1", server.port()), net::NetError);
}

TEST(NetServe, DrainCompletesWhenTheFinalFlushHappensOnTheWritePath) {
  // Regression: stop() while a connection's responses are still stalled in
  // its output buffer (client not reading yet), then the client drains them
  // but holds the keep-alive socket open. The final flush happens on the
  // EPOLLOUT path, not a completion splice — run() must still notice the
  // connection is drained and return instead of hanging in epoll_wait.
  ServerConfig cfg;
  cfg.so_sndbuf = 4096;
  auto served = std::make_unique<ServedService>(cfg);
  Client client = served->connect();
  std::string body;
  for (int i = 0; i < 3000; ++i) {
    body += lamb::support::strf("scripted,%d\n", 20 + i % 1180);
  }
  const int kRequests = 4;
  for (int i = 0; i < kRequests; ++i) {
    client.send("POST", "/v1/batch", body);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  served->server().stop();  // drain begins with the backlog unread
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_EQ(client.receive().status, 200);
  }
  served->shutdown();  // joins run(); hangs forever without the drain sweep
  EXPECT_FALSE(served->server().running());
}

// ------------------------------------------------------------------ stress

TEST(NetServe, ConcurrentClientsGetBitIdenticalAnswers) {
  ServedService served;
  // Warm every slice answer once so the stress measures the serving path.
  served.service().query(Query{"scripted", {600}, 0, false});
  const int kThreads = 8;
  const int kRequests = 120;
  std::vector<std::vector<Recommendation>> direct(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kRequests; ++i) {
      const int d = 20 + ((t * 131 + i * 29) % 1180);
      direct[t].push_back(
          served.reference().query(Query{"scripted", {d}, 0, false}));
    }
  }
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Client client = served.connect();
      for (int i = 0; i < kRequests; ++i) {
        const int d = 20 + ((t * 131 + i * 29) % 1180);
        const auto resp =
            i % 7 == 0
                ? client.request(
                      "POST", "/v1/batch",
                      lamb::support::strf("scripted,%d\nscripted,%d\n", d,
                                          d))
                : client.request("POST", "/v1/query",
                                 lamb::support::strf("scripted,%d", d));
        if (resp.status != 200) {
          mismatches.fetch_add(1);
          continue;
        }
        const std::string first_line =
            resp.body.substr(0, resp.body.find('\n'));
        if (!(net::parse_recommendation(first_line) == direct[t][i])) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GE(served.server().stats().requests_total,
            static_cast<std::uint64_t>(kThreads * kRequests));
}

// ------------------------------------------------------------ multi-reactor

TEST(NetServe, AcceptorModeRoundRobinsConnectionsAcrossLoops) {
  ServerConfig cfg;
  cfg.loops = 3;
  cfg.listen = ServerConfig::Listen::kAcceptor;
  ServedService served(cfg);
  ASSERT_EQ(served.server().loops(), 3u);
  EXPECT_FALSE(served.server().sharded_listeners());
  // Nine sequential keep-alive connections: the acceptor deals them out
  // round-robin, so every loop ends up owning exactly three and answers
  // their requests on its own thread.
  std::vector<Client> clients;
  for (int i = 0; i < 9; ++i) {
    clients.push_back(served.connect());
    ASSERT_EQ(clients.back().request("GET", "/healthz").status, 200);
  }
  std::uint64_t total_requests = 0;
  for (std::size_t i = 0; i < served.server().loops(); ++i) {
    const net::HttpStats& s = served.server().loop_stats(i);
    EXPECT_EQ(s.connections_accepted.load(), 3u) << "loop " << i;
    EXPECT_EQ(s.requests_total.load(), 3u) << "loop " << i;
    total_requests += s.requests_total.load();
  }
  EXPECT_EQ(total_requests, 9u);
  EXPECT_EQ(served.server().stats().requests_total, 9u);
}

TEST(NetServe, ShardedListenersAnswerBitIdenticallyAcrossLoops) {
  ServerConfig cfg;
  cfg.loops = 4;
  ServedService served(cfg);
  ASSERT_EQ(served.server().loops(), 4u);
  // kAuto on Linux shards the listeners; the kernel spreads connections by
  // 4-tuple hash, so per-loop balance is probabilistic — assert totals and
  // answer fidelity instead.
  const int kConnections = 16;
  for (int c = 0; c < kConnections; ++c) {
    Client client = served.connect();
    const int d = 20 + (c * 73) % 1180;
    const auto resp = client.request(
        "POST", "/v1/query", lamb::support::strf("scripted,%d", d));
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_EQ(net::parse_recommendation(resp.body),
              served.reference().query(Query{"scripted", {d}, 0, false}))
        << "connection " << c;
  }
  const net::HttpStatsSnapshot merged = served.server().stats();
  EXPECT_EQ(merged.connections_accepted,
            static_cast<std::uint64_t>(kConnections));
  EXPECT_EQ(merged.requests_total, static_cast<std::uint64_t>(kConnections));
  EXPECT_EQ(merged.request_latency.count,
            static_cast<std::uint64_t>(kConnections));
}

TEST(NetServe, MultiLoopPipeliningStaysOrderedPerConnection) {
  ServerConfig cfg;
  cfg.loops = 2;
  cfg.listen = ServerConfig::Listen::kAcceptor;  // one connection per loop
  ServedService served(cfg);
  Client a = served.connect();
  Client b = served.connect();
  const int kBurst = 24;
  for (int i = 0; i < kBurst; ++i) {
    a.send("POST", "/v1/query", lamb::support::strf("scripted,%d", 20 + i));
    b.send("POST", "/v1/query",
           lamb::support::strf("scripted,%d", 1190 - i));
  }
  for (int i = 0; i < kBurst; ++i) {
    const auto ra = a.receive();
    ASSERT_EQ(ra.status, 200);
    EXPECT_EQ(net::parse_recommendation(ra.body),
              served.reference().query(Query{"scripted", {20 + i}, 0,
                                             false}))
        << "connection a answer " << i << " out of order";
    const auto rb = b.receive();
    ASSERT_EQ(rb.status, 200);
    EXPECT_EQ(net::parse_recommendation(rb.body),
              served.reference().query(Query{"scripted", {1190 - i}, 0,
                                             false}))
        << "connection b answer " << i << " out of order";
  }
}

TEST(NetServe, GracefulDrainAcrossLoops) {
  std::atomic<int> started{0};
  Router router;
  router.handle("GET", "/slow", [&](const net::Request&,
                                    Responder responder) {
    started.fetch_add(1);
    std::thread([responder]() mutable {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
      responder.send(net::text_response(200, "done\n"));
    }).detach();
  });
  ServerConfig cfg;
  cfg.loops = 2;
  cfg.listen = ServerConfig::Listen::kAcceptor;  // one connection per loop
  Server server(std::move(router), cfg);
  std::thread loop([&] { server.run(); });
  Client a("127.0.0.1", server.port());
  Client b("127.0.0.1", server.port());
  a.send("GET", "/slow");
  b.send("GET", "/slow");
  while (started.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  // Both loops finish and flush their in-flight request before run()
  // returns, regardless of which loop each connection landed on.
  EXPECT_EQ(a.receive().body, "done\n");
  EXPECT_EQ(b.receive().body, "done\n");
  loop.join();
  EXPECT_FALSE(server.running());
  // Every listener is gone: new connections are refused.
  EXPECT_THROW(Client("127.0.0.1", server.port()), net::NetError);
}

TEST(NetServe, StopIsIdempotentAcrossConcurrentCallers) {
  ServerConfig cfg;
  cfg.loops = 2;
  ServedService served(cfg);
  Client client = served.connect();
  ASSERT_EQ(client.request("GET", "/healthz").status, 200);
  // A SIGTERM handler and the CLI may race stop(); all callers must be
  // harmless, including repeats after run() has already returned.
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&] { served.server().stop(); });
  }
  for (std::thread& t : stoppers) {
    t.join();
  }
  served.shutdown();  // joins run(); internally calls stop() once more
  EXPECT_FALSE(served.server().running());
  served.server().stop();  // after the loops exited: still a no-op
}

TEST(NetServe, StopDuringColdBuildStillAnswers) {
  ServedService served;
  Client client = served.connect();
  // A cold query defers to the service's build pool; stop() while it is in
  // flight must drain, not drop it.
  client.send("POST", "/v1/query", "scripted,640");
  while (served.server().stats().requests_total < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  served.server().stop();
  const auto resp = client.receive();
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(net::parse_recommendation(resp.body),
            served.reference().query(Query{"scripted", {640}, 0, false}));
  served.shutdown();
  EXPECT_FALSE(served.server().running());
}

/// Reads the event-loop thread's allocation counter (alloc_counter.hpp) by
/// running a probe on the loop itself (between events), so the number
/// covers exactly what the loop allocated — handler, serialization, write
/// path and all. The reactor's pooled tickets, grow-only buffers and inline
/// completion path promise that a warm request adds nothing to it.
std::uint64_t loop_alloc_count(Server& server) {
  std::promise<std::uint64_t> probe;
  std::future<std::uint64_t> result = probe.get_future();
  server.run_on_loop(0, [&probe] {
    probe.set_value(lamb::testing::thread_alloc_count());
  });
  return result.get();
}

TEST(NetServe, WarmRequestPathDoesNotAllocateOnTheLoopThread) {
  ServerConfig cfg;
  cfg.loops = 1;  // the audited connection must live on loop 0
  ServedService served(cfg);
  Client client = served.connect();
  // Warm-up: the first request builds the slice and the LRU entry; the
  // rest grow the connection's buffers, the parser scratch, the ticket
  // pool and the flush queue to steady state.
  for (int i = 0; i < 64; ++i) {
    ASSERT_EQ(client.request("POST", "/v1/query", "scripted,300").status,
              200);
  }
  const std::uint64_t before = loop_alloc_count(served.server());
  const int kAudited = 100;
  for (int i = 0; i < kAudited; ++i) {
    ASSERT_EQ(client.request("POST", "/v1/query", "scripted,300").status,
              200);
  }
  const std::uint64_t after = loop_alloc_count(served.server());
  EXPECT_EQ(after - before, 0u)
      << (after - before) << " operator-new calls on the event-loop thread "
      << "across " << kAudited << " warm keep-alive requests";
}

TEST(NetServe, WarmQueryProbesTheLruOnce) {
  ServedService served;
  const Query q{"scripted", {300}, 0, false};
  // Publish the slice without touching the LRU.
  ASSERT_EQ(served.service().warm({q}), 1u);
  Client client = served.connect();
  const serve::ServiceStats before = served.service().stats();
  const auto first = client.request("POST", "/v1/query", "scripted,300");
  ASSERT_EQ(first.status, 200);
  EXPECT_EQ(net::parse_recommendation(first.body),
            served.reference().query(q));
  // The published slice answers from one LRU probe: one miss, one atlas
  // answer, and the answer goes into the LRU.
  const serve::ServiceStats published = served.service().stats();
  EXPECT_EQ(published.cache_misses - before.cache_misses, 1u);
  EXPECT_EQ(published.cache_hits - before.cache_hits, 0u);
  EXPECT_EQ(published.atlas_answers - before.atlas_answers, 1u);
  EXPECT_EQ(published.async_calls, before.async_calls);

  const auto second = client.request("POST", "/v1/query", "scripted,300");
  ASSERT_EQ(second.status, 200);
  const serve::ServiceStats hit = served.service().stats();
  EXPECT_EQ(hit.cache_hits - published.cache_hits, 1u);
  EXPECT_EQ(hit.cache_misses - published.cache_misses, 0u);
  EXPECT_EQ(hit.atlas_answers, published.atlas_answers);
  EXPECT_EQ(hit.cache_answers - published.cache_answers, 1u);
}

// ------------------------------------------------------------- net client

TEST(NetClient, ReadTimeoutThrowsInsteadOfHanging) {
  // A route that parks its Responder indefinitely: the client's io timeout
  // must bound receive() instead of hanging the caller forever.
  std::mutex mu;
  std::vector<Responder> parked;
  Router router;
  router.handle("GET", "/black-hole", [&](const net::Request&,
                                          Responder responder) {
    const std::lock_guard<std::mutex> lock(mu);
    parked.push_back(std::move(responder));
  });
  Server server(std::move(router), {});
  std::thread loop([&] { server.run(); });

  net::ClientConfig cc;
  cc.connect_timeout_s = 5.0;
  cc.io_timeout_s = 0.2;
  Client client("127.0.0.1", server.port(), cc);
  client.send("GET", "/black-hole");
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(client.receive(), net::NetError);
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(elapsed_s, 3.0) << "receive() did not respect the io timeout";

  {
    // Release the parked ticket while the server is still up: the dropped
    // Responder answers 500 into a connection nobody reads, harmlessly.
    const std::lock_guard<std::mutex> lock(mu);
    parked.clear();
  }
  server.stop();
  loop.join();
}

}  // namespace
