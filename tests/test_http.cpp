// HTTP/1.1 on the front door (docs/PROTOCOL.md §8), and the parser under
// it. Every `serve` port -- in-process shards and the process-shard fleet
// alike -- sniffs HTTP from the first request bytes. `GET /metrics`
// returns the same exposition the `metrics` verb produces (on the fleet:
// merged across worker processes), and `POST /v1/<verb>` carries exactly
// one protocol line, with parse errors mapped to 400, unknown
// verbs/paths to 404, and shed/retryable responses to 503.
//
// The HttpParser cases are table-driven units over sniff_transport and
// parse. The front-door cases run against both backends; the cross-worker
// merge and the down-shard 503 need worker processes and run on the fleet
// only.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "http_test_client.h"
#include "net/client.h"
#include "net/http.h"
#include "net/server.h"
#include "net/supervisor.h"

namespace emmark {
namespace {

using testfx::get_request;
using testfx::HttpConn;
using testfx::HttpResponse;
using testfx::post_request;

// --- sniff_transport / HttpParser ----------------------------------------------

TEST(HttpSniffTest, FirstBytesDecideTheTransport) {
  const struct {
    const char* buf;
    TransportSniff want;
  } cases[] = {
      {"", TransportSniff::kUndecided},
      {"G", TransportSniff::kUndecided},
      {"POS", TransportSniff::kUndecided},
      {"GET", TransportSniff::kUndecided},  // the space still decides
      {"GET ", TransportSniff::kHttp},
      {"POST /v1/insert HTTP/1.1\r\n", TransportSniff::kHttp},
      {"DELETE /x", TransportSniff::kHttp},
      {"insert id=a", TransportSniff::kLine},
      {"get /metrics", TransportSniff::kLine},  // protocol verbs are lowercase
      {"GETX", TransportSniff::kLine},
      {"\n", TransportSniff::kLine},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(sniff_transport(c.buf), c.want) << "buf: \"" << c.buf << "\"";
  }
}

TEST(HttpParserTest, FramingTable) {
  const std::string big_len = std::to_string(HttpParser::kMaxBodyBytes + 1);
  const struct {
    const char* name;
    std::string input;
    HttpParser::Status want;
    const char* error;  // substring of the error on kError
    const char* body;   // expected body on kRequest
  } cases[] = {
      {"get", "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n",
       HttpParser::Status::kRequest, nullptr, ""},
      {"post-body", "POST /v1/stats HTTP/1.1\r\nContent-Length: 4\r\n\r\nid=s",
       HttpParser::Status::kRequest, nullptr, "id=s"},
      {"header-only-prefix", "GET /metrics HTTP/1.1\r\nHost:",
       HttpParser::Status::kNeedMore, nullptr, nullptr},
      {"body-not-yet-here", "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab",
       HttpParser::Status::kNeedMore, nullptr, nullptr},
      {"body-at-limit-waits",
       "POST / HTTP/1.1\r\nContent-Length: " +
           std::to_string(HttpParser::kMaxBodyBytes) + "\r\n\r\n",
       HttpParser::Status::kNeedMore, nullptr, nullptr},
      {"body-over-limit",
       "POST / HTTP/1.1\r\nContent-Length: " + big_len + "\r\n\r\n",
       HttpParser::Status::kError, "body too large", nullptr},
      {"length-overflows",
       "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
       HttpParser::Status::kError, "body too large", nullptr},
      {"header-block-over-limit",
       "GET / HTTP/1.1\r\nX: " + std::string(HttpParser::kMaxHeaderBytes, 'a'),
       HttpParser::Status::kError, "header block too large", nullptr},
      {"terminated-header-over-limit",
       "GET / HTTP/1.1\r\nX: " + std::string(HttpParser::kMaxHeaderBytes, 'a') +
           "\r\n\r\n",
       HttpParser::Status::kError, "header block too large", nullptr},
      {"malformed-request-line", "GET/metrics\r\n\r\n",
       HttpParser::Status::kError, "malformed request line", nullptr},
      {"unsupported-version", "GET / HTTP/2.0\r\n\r\n",
       HttpParser::Status::kError, "unsupported HTTP version", nullptr},
      {"malformed-header", "GET / HTTP/1.1\r\nno-colon\r\n\r\n",
       HttpParser::Status::kError, "malformed header", nullptr},
      {"chunked", "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
       HttpParser::Status::kError, "transfer encoding", nullptr},
      {"length-not-a-number", "POST / HTTP/1.1\r\nContent-Length: 4x\r\n\r\nid=s",
       HttpParser::Status::kError, "bad Content-Length", nullptr},
      // Ambiguous framing: each of these used to parse.
      {"transfer-encoding-with-length",
       "POST / HTTP/1.1\r\nContent-Length: 4\r\nTransfer-Encoding: chunked"
       "\r\n\r\nid=s",
       HttpParser::Status::kError, "transfer encoding", nullptr},
      {"duplicate-length",
       "POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 2\r\n\r\nid=s",
       HttpParser::Status::kError, "duplicate Content-Length", nullptr},
      {"plus-signed-length", "POST / HTTP/1.1\r\nContent-Length: +4\r\n\r\nid=s",
       HttpParser::Status::kError, "bad Content-Length", nullptr},
      {"minus-signed-length", "POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
       HttpParser::Status::kError, "bad Content-Length", nullptr},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    HttpParser parser;
    std::string buf = c.input;
    HttpRequest req;
    std::string error;
    const HttpParser::Status got = parser.parse(buf, req, &error);
    EXPECT_EQ(got, c.want) << "error: " << error;
    if (got != c.want) continue;
    if (c.error != nullptr) {
      EXPECT_NE(error.find(c.error), std::string::npos) << error;
    }
    if (c.body != nullptr) {
      EXPECT_EQ(req.body, c.body);
      EXPECT_TRUE(buf.empty()) << "unconsumed: " << buf;
    }
    if (got == HttpParser::Status::kNeedMore) {
      EXPECT_EQ(buf, c.input) << "kNeedMore must not consume input";
    }
  }
}

TEST(HttpParserTest, PipelinedRequestsParseOneAtATime) {
  std::string buf = post_request("/v1/insert", "id=a") + get_request("/metrics") +
                    post_request("/v1/stats", "id=s");
  HttpParser parser;
  HttpRequest req;
  std::string error;
  ASSERT_EQ(parser.parse(buf, req, &error), HttpParser::Status::kRequest) << error;
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/v1/insert");
  EXPECT_EQ(req.body, "id=a");
  ASSERT_EQ(parser.parse(buf, req, &error), HttpParser::Status::kRequest) << error;
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.target, "/metrics");
  EXPECT_TRUE(req.body.empty());
  ASSERT_EQ(parser.parse(buf, req, &error), HttpParser::Status::kRequest) << error;
  EXPECT_EQ(req.target, "/v1/stats");
  EXPECT_EQ(req.body, "id=s");
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(parser.parse(buf, req, &error), HttpParser::Status::kNeedMore);
}

TEST(HttpParserTest, SplitReadsNeedMoreUntilComplete) {
  // Every split point of a request with a body: the prefix needs more,
  // and the completed buffer parses to the same request.
  const std::string whole =
      post_request("/v1/verify", "id=v codes=c.codes evidence=w.evid");
  for (size_t cut = 0; cut < whole.size(); ++cut) {
    HttpParser parser;
    HttpRequest req;
    std::string error;
    std::string buf = whole.substr(0, cut);
    ASSERT_EQ(parser.parse(buf, req, &error), HttpParser::Status::kNeedMore)
        << "cut " << cut;
    buf += whole.substr(cut);
    ASSERT_EQ(parser.parse(buf, req, &error), HttpParser::Status::kRequest)
        << "cut " << cut << ": " << error;
    EXPECT_EQ(req.body, "id=v codes=c.codes evidence=w.evid");
    EXPECT_TRUE(buf.empty());
  }
}

TEST(HttpParserTest, ConnectionHeaderDecidesKeepAlive) {
  const struct {
    const char* version;
    const char* connection;  // nullptr = no header
    bool close;
  } cases[] = {
      {"HTTP/1.1", nullptr, false},     {"HTTP/1.1", "keep-alive", false},
      {"HTTP/1.1", "close", true},      {"HTTP/1.1", "Close", true},
      {"HTTP/1.0", nullptr, true},      {"HTTP/1.0", "keep-alive", false},
      {"HTTP/1.0", "Keep-Alive", false}, {"HTTP/1.0", "close", true},
  };
  for (const auto& c : cases) {
    std::string buf = std::string("GET /metrics ") + c.version + "\r\n";
    if (c.connection != nullptr) {
      buf += std::string("Connection: ") + c.connection + "\r\n";
    }
    buf += "\r\n";
    HttpParser parser;
    HttpRequest req;
    std::string error;
    ASSERT_EQ(parser.parse(buf, req, &error), HttpParser::Status::kRequest) << error;
    EXPECT_EQ(req.close, c.close)
        << c.version << " Connection: " << (c.connection ? c.connection : "-");
  }
}

// --- the front door, both backends --------------------------------------------

enum class Backend { kInProcess, kFleet };

class HttpTestBase : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "emmark_http_test").string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }

  static RouterConfig router_config(size_t shards) {
    RouterConfig rc;
    rc.cache_dir = dir_ + "/cache";
    rc.train_steps_cap = 25;
    rc.store_capacity = 2;
    rc.shards = shards;
    return rc;
  }

  static SupervisorConfig config(const std::string& name, size_t shards) {
    SupervisorConfig sc;
    sc.worker_cmd = "./emmark_cli";
    sc.socket_dir = dir_ + "/sk_" + name;
    std::filesystem::create_directories(sc.socket_dir);
    sc.router = router_config(shards);
    return sc;
  }

  static bool wait_for(const std::function<bool()>& pred, int timeout_ms) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  static bool all_ready(const Supervisor& sup) {
    for (size_t i = 0; i < sup.workers(); ++i) {
      if (!sup.worker_ready(i)) return false;
    }
    return true;
  }

  /// Drops the exposition families whose values legitimately differ
  /// between two scrapes with no request traffic in between: connection
  /// gauges/counters (each scrape arrives on its own connection and, on
  /// the fleet, fans out over per-client worker links), the poll-cycle
  /// histogram, and the scrape counter itself. Everything else must match
  /// byte for byte.
  static std::string stable_series(const std::string& exposition) {
    static const char* kVolatile[] = {
        "emmark_metrics_scrapes_total",
        "emmark_server_connections",
        "emmark_server_poll_cycle_seconds",  // ticks with every poll cycle
        "emmark_supervisor_connections",
    };
    std::string out;
    size_t pos = 0;
    while (pos <= exposition.size()) {
      size_t nl = exposition.find('\n', pos);
      if (nl == std::string::npos) nl = exposition.size();
      std::string line = exposition.substr(pos, nl - pos);
      pos = nl + 1;
      std::string name = line;
      if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
        name = line.substr(7);
      }
      bool volatile_family = false;
      for (const char* fam : kVolatile) {
        if (name.rfind(fam, 0) == 0) {
          volatile_family = true;
          break;
        }
      }
      if (!volatile_family && !line.empty()) out += line + "\n";
    }
    return out;
  }

  static std::string dir_;
};

std::string HttpTestBase::dir_;

struct RunningSupervisor {
  explicit RunningSupervisor(SupervisorConfig sc)
      : sup(std::move(sc)), thread([this] { sup.run(); }) {}
  ~RunningSupervisor() { stop(); }
  void stop() {
    sup.request_stop();
    if (thread.joinable()) thread.join();
  }

  Supervisor sup;
  std::thread thread;
};

/// In-process `serve` (a SocketServer over its own router) on a run()
/// thread.
struct RunningServer {
  explicit RunningServer(const RouterConfig& rc)
      : router(rc), server(router), thread([this] { server.run(); }) {}
  ~RunningServer() {
    server.request_stop();
    thread.join();
  }

  RequestRouter router;
  SocketServer server;
  std::thread thread;
};

class HttpFrontDoorTest : public HttpTestBase,
                          public ::testing::WithParamInterface<Backend> {
 protected:
  /// Starts the backend under test; the fleet waits for every worker's
  /// handshake. Returns the front-door port, or 0 if the fleet never came
  /// up.
  uint16_t start(const std::string& name, size_t shards) {
    if (GetParam() == Backend::kInProcess) {
      server_ = std::make_unique<RunningServer>(router_config(shards));
      return server_->server.port();
    }
    fleet_ = std::make_unique<RunningSupervisor>(config(name, shards));
    if (!wait_for([&] { return all_ready(fleet_->sup); }, 30000)) return 0;
    return fleet_->sup.port();
  }

  void TearDown() override {
    server_.reset();
    fleet_.reset();
  }

 private:
  std::unique_ptr<RunningServer> server_;
  std::unique_ptr<RunningSupervisor> fleet_;
};

TEST_P(HttpFrontDoorTest, MetricsBodyMatchesTheMetricsVerbScrape) {
  // Acceptance: `curl /metrics` returns the same exposition bytes as the
  // line-protocol `metrics` verb. With no engine traffic between the two
  // scrapes, everything except the connection-accounting families and the
  // scrape counter itself is byte-identical.
  const uint16_t port = start("parity", 2);
  ASSERT_NE(port, 0);

  HttpConn http("127.0.0.1", port);
  HttpResponse r;
  http.send_raw(post_request("/v1/insert", "id=p model=opt-125m-sim quant=int4"));
  ASSERT_TRUE(http.read_response(r));
  ASSERT_EQ(r.status, 200) << r.body;

  http.send_raw(get_request("/metrics"));
  ASSERT_TRUE(http.read_response(r));
  ASSERT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["content-type"], "text/plain; version=0.0.4; charset=utf-8");
  ASSERT_GE(r.body.size(), 6u);
  EXPECT_EQ(r.body.substr(r.body.size() - 6), "# EOF\n");

  LineClient line("127.0.0.1", port);
  line.send_line("metrics id=m");
  const auto lines = line.recv_until("# EOF");
  std::string verb_scrape;
  for (const auto& l : lines) verb_scrape += l + "\n";

  const std::string from_http = stable_series(r.body);
  const std::string from_verb = stable_series(verb_scrape);
  EXPECT_EQ(from_http, from_verb);
  EXPECT_NE(from_http.find("emmark_requests_total{verb=\"insert\"} 1"),
            std::string::npos)
      << from_http;
}

TEST_P(HttpFrontDoorTest, PostV1CarriesOneProtocolLine) {
  const uint16_t port = start("post", 1);
  ASSERT_NE(port, 0);

  HttpConn http("127.0.0.1", port);
  HttpResponse r;
  http.send_raw(post_request("/v1/insert", "id=h model=opt-125m-sim quant=int4"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["content-type"], "application/json");
  EXPECT_NE(r.body.find("\"id\":\"h\",\"cmd\":\"insert\",\"ok\":true"),
            std::string::npos)
      << r.body;

  // stats works over HTTP too (a fan-out verb on the fleet), on the same
  // keep-alive connection.
  http.send_raw(post_request("/v1/stats", "id=s"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"cmd\":\"stats\",\"ok\":true"), std::string::npos)
      << r.body;

  // A runtime failure is still a well-formed protocol response: 200 with
  // "ok":false, exactly as the line transport reports it.
  http.send_raw(post_request("/v1/extract",
                             "id=x model=opt-125m-sim quant=int4 codes=" + dir_ +
                                 "/none.codes record=" + dir_ + "/none.rec"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("\"id\":\"x\",\"cmd\":\"extract\",\"ok\":false"),
            std::string::npos)
      << r.body;
}

TEST_P(HttpFrontDoorTest, ErrorStatusMapping) {
  const uint16_t port = start("errors", 1);
  ASSERT_NE(port, 0);

  HttpConn http("127.0.0.1", port);
  HttpResponse r;

  // 400: malformed parameter token (parse errors surface as status codes
  // for HTTP callers; line callers get the session's canonical line).
  http.send_raw(post_request("/v1/extract", "bogus"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("expected key=value"), std::string::npos) << r.body;

  // 400: missing required parameter, caught before the session sees it.
  http.send_raw(post_request("/v1/extract", "id=e model=opt-125m-sim quant=int4"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("missing parameter"), std::string::npos) << r.body;

  // 400: a request body must be a single protocol line.
  http.send_raw(post_request("/v1/insert", "id=a\nid=b"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 400);

  // 400: unknown quant spec (spec resolution errors are parse errors).
  http.send_raw(post_request("/v1/insert", "id=q quant=float99"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 400);
  EXPECT_NE(r.body.find("unknown quant spec"), std::string::npos) << r.body;

  // 404: unknown verb under /v1/, unknown path, wrong method.
  http.send_raw(post_request("/v1/nosuch", "id=n"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 404);
  http.send_raw(get_request("/nosuch"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 404);
  http.send_raw(get_request("/v1/insert"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 404);

  // 400 + close: a stream that cannot be framed (ambiguous length).
  http.send_raw(
      "POST /v1/stats HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n"
      "\r\nid=s");
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 400);
  EXPECT_EQ(r.headers["connection"], "close");
  EXPECT_TRUE(http.at_eof());
}

TEST_P(HttpFrontDoorTest, ConnectionHeaderIsHonored) {
  const uint16_t port = start("conn", 1);
  ASSERT_NE(port, 0);

  // Connection: close -> one response, then EOF.
  HttpConn closing("127.0.0.1", port);
  HttpResponse r;
  closing.send_raw(get_request("/metrics", /*close_conn=*/true));
  ASSERT_TRUE(closing.read_response(r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["connection"], "close");
  EXPECT_TRUE(closing.at_eof());

  // Default keep-alive: the connection serves request after request.
  HttpConn keep("127.0.0.1", port);
  for (int i = 0; i < 3; ++i) {
    keep.send_raw(post_request("/v1/stats", "id=ka-" + std::to_string(i)));
    ASSERT_TRUE(keep.read_response(r)) << "request " << i;
    EXPECT_EQ(r.status, 200);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, HttpFrontDoorTest,
    ::testing::Values(Backend::kInProcess, Backend::kFleet),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return info.param == Backend::kInProcess ? "InProcess" : "Fleet";
    });

// --- fleet only ------------------------------------------------------------------

class HttpFleetTest : public HttpTestBase {};

TEST_F(HttpFleetTest, GetMetricsMergesSeriesAcrossWorkerProcesses) {
  RunningSupervisor rs(config("metrics", 2));
  ASSERT_TRUE(wait_for([&] { return all_ready(rs.sup); }, 30000));

  HttpConn http("127.0.0.1", rs.sup.port());
  // One insert per shard so both worker processes carry the same series:
  // the merged scrape must sum them (quants homed per the shared ring;
  // int4 and gptq-int4 land on different shards of a 2-ring).
  HttpResponse r;
  http.send_raw(post_request("/v1/insert", "id=m0 model=opt-125m-sim quant=int4"));
  ASSERT_TRUE(http.read_response(r));
  ASSERT_EQ(r.status, 200) << r.body;
  http.send_raw(
      post_request("/v1/insert", "id=m1 model=opt-125m-sim quant=gptq-int4"));
  ASSERT_TRUE(http.read_response(r));
  ASSERT_EQ(r.status, 200) << r.body;

  http.send_raw(get_request("/metrics"));
  ASSERT_TRUE(http.read_response(r));
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.headers["content-type"], "text/plain; version=0.0.4; charset=utf-8");
  ASSERT_GE(r.body.size(), 6u);
  EXPECT_EQ(r.body.substr(r.body.size() - 6), "# EOF\n");
  // Supervisor-owned series, verbatim.
  EXPECT_NE(r.body.find("emmark_supervisor_worker_up{shard=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(r.body.find("emmark_supervisor_worker_up{shard=\"1\"} 1"),
            std::string::npos);
  // Cross-process merged series: each worker reports 1 insert; the fleet
  // scrape sums the collision into one sample.
  EXPECT_NE(r.body.find("emmark_requests_total{verb=\"insert\"} 2"),
            std::string::npos)
      << r.body;
}

TEST_F(HttpFleetTest, DownShardMapsTo503WithRetryableBody) {
  // A crash-looping worker (EMMARK_TEST_CRASH_ON=startup, inherited by
  // the spawned processes) leaves its shard down; HTTP callers see 503
  // with the structured retryable body, not a hang or a dropped
  // connection.
  ::setenv("EMMARK_TEST_CRASH_ON", "startup", 1);
  SupervisorConfig sc = config("down", 1);
  sc.respawn_backoff_ms = 200;
  sc.respawn_backoff_max_ms = 1000;
  {
    RunningSupervisor rs(sc);
    HttpConn http("127.0.0.1", rs.sup.port());
    HttpResponse r;
    http.send_raw(post_request("/v1/insert", "id=d model=opt-125m-sim quant=int4"));
    ASSERT_TRUE(http.read_response(r));
    EXPECT_EQ(r.status, 503);
    EXPECT_NE(r.body.find("\"retryable\":true"), std::string::npos) << r.body;
    ::unsetenv("EMMARK_TEST_CRASH_ON");
  }
  ::unsetenv("EMMARK_TEST_CRASH_ON");
}

}  // namespace
}  // namespace emmark
