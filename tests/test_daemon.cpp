// Daemon mode: the run_daemon() loop over in-memory streams, i.e. the
// stdio transport of the wire protocol specified in docs/PROTOCOL.md (the
// socket transport is covered by tests/test_server.cpp, including byte-
// identity between the two). Pins the acceptance shape -- N requests
// against one zoo model cost exactly one model build (store hit counters
// in the stats JSON) -- plus per-request error isolation, output ordering,
// and the line protocol's edges.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/daemon.h"
#include "model_zoo/store.h"
#include "model_zoo/zoo.h"
#include "util/serialize.h"
#include "wm/fingerprint.h"

namespace emmark {
namespace {

class DaemonTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = (std::filesystem::temp_directory_path() / "emmark_daemon_test").string();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  static void TearDownTestSuite() { std::filesystem::remove_all(dir_); }

  static DaemonConfig config() {
    DaemonConfig c;
    c.cache_dir = dir_ + "/cache";
    c.train_steps_cap = 25;
    c.store_capacity = 2;
    return c;
  }

  static std::string path(const std::string& name) { return dir_ + "/" + name; }

  static std::vector<std::string> run(const std::string& script) {
    return run_with(script, config());
  }

  static std::vector<std::string> run_with(const std::string& script,
                                           const DaemonConfig& cfg) {
    std::istringstream in(script);
    std::ostringstream out;
    EXPECT_EQ(run_daemon(in, out, cfg), 0);
    std::vector<std::string> lines;
    std::istringstream split(out.str());
    std::string line;
    while (std::getline(split, line)) lines.push_back(line);
    return lines;
  }

  static std::string dir_;
};

std::string DaemonTest::dir_;

TEST_F(DaemonTest, SessionCostsExactlyOneModelBuild) {
  // The acceptance criterion: >= 3 sequential requests against the same
  // zoo model, exactly one build, proven by the stats JSON.
  const std::vector<std::string> lines = run(
      "# transcript: insert once, extract twice, audit the cost\n"
      "insert id=a model=opt-125m-sim quant=int4 scheme=emmark bits=8 "
      "record=" + path("wm.rec") + " codes=" + path("dep.codes") + "\n"
      "extract id=b model=opt-125m-sim quant=int4 record=" + path("wm.rec") +
      " codes=" + path("dep.codes") + "\n"
      "extract id=c model=opt-125m-sim quant=int4 record=" + path("wm.rec") +
      " codes=" + path("dep.codes") + "\n"
      "stats id=s\n"
      "quit\n");

  ASSERT_EQ(lines.size(), 5u);  // a, b, c, stats, quit -- in request order
  EXPECT_NE(lines[0].find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"cmd\":\"insert\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  for (size_t i : {size_t{1}, size_t{2}}) {
    EXPECT_NE(lines[i].find("\"cmd\":\"extract\""), std::string::npos);
    EXPECT_NE(lines[i].find("\"ok\":true"), std::string::npos);
    EXPECT_NE(lines[i].find("\"wer_pct\":100"), std::string::npos) << lines[i];
  }
  EXPECT_NE(lines[1].find("\"id\":\"b\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"id\":\"c\""), std::string::npos);

  // One build, two (or more) hits: the whole session reused one model.
  const std::string& stats = lines[3];
  EXPECT_NE(stats.find("\"cmd\":\"stats\""), std::string::npos);
  EXPECT_NE(stats.find("\"builds\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"misses\":1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"hits\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"failed\":0"), std::string::npos) << stats;

  EXPECT_NE(lines[4].find("\"cmd\":\"quit\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"served\":3"), std::string::npos);
}

TEST_F(DaemonTest, RequestFailuresAreIsolatedAndOrdered) {
  const std::vector<std::string> lines = run(
      "insert id=good model=opt-125m-sim quant=int4 codes=" + path("g.codes") + "\n"
      "insert id=bad model=opt-125m-sim quant=int4 scheme=no-such-scheme\n"
      "extract id=missing model=opt-125m-sim quant=int4 record=" +
      path("nope.rec") + " codes=" + path("g.codes") + "\n"
      "frobnicate id=unknown\n"
      "insert id=tail model=opt-125m-sim quant=int4\n"
      "stats id=s\n");

  ASSERT_EQ(lines.size(), 6u);
  EXPECT_NE(lines[0].find("\"id\":\"good\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);

  // Unknown scheme fails in its own slot, after submission.
  EXPECT_NE(lines[1].find("\"id\":\"bad\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[1].find("no-such-scheme"), std::string::npos);

  // Missing artifact fails at submission; still one ordered JSON line.
  EXPECT_NE(lines[2].find("\"id\":\"missing\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":false"), std::string::npos);

  // Unknown commands report instead of killing the session.
  EXPECT_NE(lines[3].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("unknown command"), std::string::npos);

  // The daemon survives everything above and keeps serving.
  EXPECT_NE(lines[4].find("\"id\":\"tail\""), std::string::npos);
  EXPECT_NE(lines[4].find("\"ok\":true"), std::string::npos);

  // Store cost is still one build (same spec throughout; failures that
  // reached the store count as hits, not rebuilds).
  EXPECT_NE(lines[5].find("\"builds\":1"), std::string::npos) << lines[5];
}

TEST_F(DaemonTest, ForgedRecordLengthAnswersAnErrorLine) {
  // A client-named record whose scheme-name prefix claims 2 GiB in a
  // 20-byte file (header + one u64): the extract fails its own slot with
  // the archive length check instead of allocating the claimed size.
  const std::string forged = path("forged.rec");
  {
    BinaryWriter w(forged, "EMMSREC", 1);
    w.write_u64(2ull << 30);
    w.close();
  }
  ASSERT_EQ(std::filesystem::file_size(forged), 20u);
  const std::vector<std::string> lines = run(
      "insert id=a model=opt-125m-sim quant=int4 codes=" +
      path("forged.codes") + "\n"
      "extract id=b model=opt-125m-sim quant=int4 record=" + forged +
      " codes=" + path("forged.codes") + "\n"
      "insert id=c model=opt-125m-sim quant=int4\n");

  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"id\":\"b\""), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("archive length 2147483648 exceeds"), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("\"ok\":true"), std::string::npos) << lines[2];
}

TEST_F(DaemonTest, SeedFromIdGivesDistinctPlacementsPerRequest) {
  const std::vector<std::string> lines = run(
      "insert id=dev-0 model=opt-125m-sim quant=int4 seed-from-id=1 codes=" +
      path("d0.codes") + "\n"
      "insert id=dev-1 model=opt-125m-sim quant=int4 seed-from-id=1 codes=" +
      path("d1.codes") + "\n");
  ASSERT_EQ(lines.size(), 2u);
  for (const auto& line : lines) {
    EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
  }
  // Distinct derived seeds are reported back (and imply distinct stamps).
  const auto seed_of = [](const std::string& line) {
    const auto pos = line.find("\"seed\":");
    return line.substr(pos, line.find(',', pos) - pos);
  };
  EXPECT_NE(seed_of(lines[0]), seed_of(lines[1]));
}

TEST_F(DaemonTest, MalformedNumericParametersAreRejected) {
  // std::stoll/std::stod stop at the first non-numeric character, so
  // without a full-consumption check "bits=8x" would silently parse as 8
  // and mint a watermark the operator did not ask for. Every partially
  // numeric value must be a per-request error instead.
  const std::vector<std::string> lines = run(
      "insert id=m1 model=opt-125m-sim quant=int4 bits=8x\n"
      "insert id=m2 model=opt-125m-sim quant=int4 seed=12.5\n"
      "trace id=m3 model=opt-125m-sim quant=int4 codes=" + path("none.codes") +
      " set=" + path("none.set") + " min-wer=9o\n"
      "insert id=tail model=opt-125m-sim quant=int4 bits=8\n");

  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"id\":\"m1\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("expects an integer"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("8x"), std::string::npos) << lines[0];

  // An integer parameter must not quietly truncate a fractional value.
  EXPECT_NE(lines[1].find("\"id\":\"m2\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("expects an integer"), std::string::npos) << lines[1];

  // Rejected at parse time: the trace never reaches the engine, so the
  // nonexistent artifact paths are never opened.
  EXPECT_NE(lines[2].find("\"id\":\"m3\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"ok\":false"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("expects a number"), std::string::npos) << lines[2];

  // Well-formed numerics on the same session still work.
  EXPECT_NE(lines[3].find("\"id\":\"tail\""), std::string::npos);
  EXPECT_NE(lines[3].find("\"ok\":true"), std::string::npos) << lines[3];
}

TEST_F(DaemonTest, MetricsVerbExposesPrometheusTextOverStdio) {
  // `metrics` is the one multi-line response in the protocol: Prometheus
  // text exposition terminated by a "# EOF" line, available over the
  // stdio transport exactly like over sockets. After one insert the
  // per-verb latency histogram must hold that request.
  const std::vector<std::string> lines = run(
      "insert id=a model=opt-125m-sim quant=int4\n"
      "metrics\n"
      "quit\n");

  ASSERT_GE(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"id\":\"a\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines.back().find("\"cmd\":\"quit\""), std::string::npos);

  // Everything between the insert response and the quit line is the
  // exposition; its last line is the terminator.
  std::string exposition;
  for (size_t i = 1; i + 1 < lines.size(); ++i) exposition += lines[i] + "\n";
  EXPECT_EQ(lines[lines.size() - 2], "# EOF");
  EXPECT_NE(
      exposition.find("# TYPE emmark_request_latency_seconds histogram"),
      std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("emmark_request_latency_seconds_count{verb=\"insert"
                            "\",phase=\"total\"} 1"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("emmark_requests_total{verb=\"insert\"} 1"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("emmark_store_events_total{shard=\"0\",event=\""
                            "build\"} 1"),
            std::string::npos)
      << exposition;
  EXPECT_NE(exposition.find("emmark_metrics_scrapes_total 1"),
            std::string::npos)
      << exposition;
}

TEST_F(DaemonTest, VerifyAuditsEvidence) {
  // Verify runs through the engine like every other verb (the evidence
  // load and WER re-extraction happen on a worker); the response shape
  // and the in-order transcript are unchanged.
  const std::vector<std::string> lines = run(
      "insert id=a model=opt-125m-sim quant=int4 codes=" + path("v.codes") +
      " evidence=" + path("v.evid") + " owner=acme\n"
      "verify id=v model=opt-125m-sim quant=int4 evidence=" + path("v.evid") +
      " codes=" + path("v.codes") + " min-wer=90\n");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"cmd\":\"verify\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"verified\":true"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"owner\":\"acme\""), std::string::npos);
}

/// Replaces every "{dir}" in `text` with the suite's scratch directory.
std::string in_dir(std::string text, const std::string& dir) {
  for (size_t at = text.find("{dir}"); at != std::string::npos;
       at = text.find("{dir}", at + dir.size())) {
    text.replace(at, 5, dir);
  }
  return text;
}

/// One request line and the exact stdio response it draws ("" = none).
struct PinnedExchange {
  std::string request;
  std::string response;
};

/// Runs `table` as one stdio session and checks every response byte for
/// byte: responses arrive in request order, lines pinned to "" draw none.
void expect_pinned(const std::vector<std::string>& lines,
                   const std::vector<PinnedExchange>& table,
                   const std::string& dir) {
  std::vector<std::string> want;
  for (const PinnedExchange& row : table) {
    if (!row.response.empty()) want.push_back(in_dir(row.response, dir));
  }
  ASSERT_EQ(lines.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(lines[i], want[i]);
}

std::string script_of(const std::vector<PinnedExchange>& table,
                      const std::string& dir) {
  std::string script;
  for (const PinnedExchange& row : table) script += in_dir(row.request, dir) + "\n";
  return script;
}

TEST_F(DaemonTest, ResponseBytesArePinned) {
  // The exact stdio bytes of every response shape in docs/PROTOCOL.md:
  // each engine verb's success line, every error shape, silent blank and
  // comment lines, and the quit line. The cross-transport conformance
  // suite only compares transports with each other; this table pins the
  // bytes themselves, so a change made on every transport at once shows.
  {
    // The trace verb needs an enrolled fleet: stamp two devices from the
    // same original the session resolves and leak the second one's codes.
    ModelStoreConfig sc;
    sc.cache_dir = config().cache_dir;
    ModelStore store(sc);
    ModelSpec spec;
    spec.train_steps_cap = config().train_steps_cap;
    const ModelHandle handle = store.get(spec);
    std::vector<QuantizedModel> devices;
    WatermarkKey base;
    base.bits_per_layer = 8;
    base.candidate_ratio = 10;
    Fingerprinter::enroll("emmark", *handle.original, *handle.stats, base,
                          {"dev-a", "dev-b"}, devices)
        .save(path("pin.fps"));
    devices[1].save_codes(path("pin_dev_b.codes"));
  }
  const std::string m = "model=opt-125m-sim quant=int4";
  const std::vector<PinnedExchange> table = {
      {"insert id=i " + m + " codes={dir}/pin.codes record={dir}/pin.rec "
       "evidence={dir}/pin.evid owner=acme",
       R"j({"id":"i","cmd":"insert","ok":true,"scheme":"emmark","total_bits":104,"seed":100,"codes":"{dir}/pin.codes","record":"{dir}/pin.rec","evidence":"{dir}/pin.evid"})j"},
      {"extract id=x " + m + " codes={dir}/pin.codes record={dir}/pin.rec",
       R"j({"id":"x","cmd":"extract","ok":true,"scheme":"emmark","wer_pct":100,"matched_bits":104,"total_bits":104,"strength_log10":-31.3071})j"},
      {"verify id=v " + m + " codes={dir}/pin.codes evidence={dir}/pin.evid",
       R"j({"id":"v","cmd":"verify","ok":true,"verified":true,"owner":"acme","scheme":"emmark","why":"verified"})j"},
      {"trace id=t " + m + " codes={dir}/pin_dev_b.codes set={dir}/pin.fps",
       R"j({"id":"t","cmd":"trace","ok":true,"device":"dev-b","matched":true,"wer_pct":100,"runner_up_wer_pct":6.73077,"strength_log10":-31.3071})j"},
      {"", ""},
      {"   ", ""},
      {"# a comment draws no response", ""},
      {"extract id=e1 " + m,
       R"j({"id":"e1","cmd":"extract","ok":false,"error":"missing parameter: codes"})j"},
      {"extract id=e2 " + m + " codes={dir}/pin.codes",
       R"j({"id":"e2","cmd":"extract","ok":false,"error":"missing parameter: record"})j"},
      {"verify id=e3 " + m,
       R"j({"id":"e3","cmd":"verify","ok":false,"error":"missing parameter: codes"})j"},
      {"verify id=e4 " + m + " codes={dir}/pin.codes",
       R"j({"id":"e4","cmd":"verify","ok":false,"error":"missing parameter: evidence"})j"},
      {"trace id=e5 " + m,
       R"j({"id":"e5","cmd":"trace","ok":false,"error":"missing parameter: codes"})j"},
      {"trace id=e6 " + m + " codes={dir}/pin.codes",
       R"j({"id":"e6","cmd":"trace","ok":false,"error":"missing parameter: set"})j"},
      {"insert id=e7 " + m + " bits=banana",
       R"j({"id":"e7","cmd":"insert","ok":false,"error":"parameter bits expects an integer, got: banana"})j"},
      {"insert id=e8 " + m + " seed-from-id=yes",
       R"j({"id":"e8","cmd":"insert","ok":false,"error":"parameter seed-from-id expects an integer, got: yes"})j"},
      {"verify id=e9 " + m + " codes=a evidence=b min-wer=9o",
       R"j({"id":"e9","cmd":"verify","ok":false,"error":"parameter min-wer expects a number, got: 9o"})j"},
      {"trace id=e10 " + m + " codes=a set=b min-wer=high",
       R"j({"id":"e10","cmd":"trace","ok":false,"error":"parameter min-wer expects a number, got: high"})j"},
      {"insert id=e11 model=nope-9b-sim",
       R"j({"id":"e11","cmd":"insert","ok":false,"error":"unknown zoo model: nope-9b-sim"})j"},
      {"extract id=e12 model=nope-9b-sim",
       R"j({"id":"e12","cmd":"extract","ok":false,"error":"unknown zoo model: nope-9b-sim"})j"},
      {"insert id=e13 model=opt-125m-sim quant=float99",
       R"j({"id":"e13","cmd":"insert","ok":false,"error":"unknown quant spec: float99 (use int4, int8, or an explicit method like awq-int4)"})j"},
      {"frobnicate id=e14",
       R"j({"id":"e14","cmd":"frobnicate","ok":false,"error":"unknown command: frobnicate (known: insert extract verify trace stats metrics quit)"})j"},
      // A line whose parameters do not parse answers under an auto-id.
      {"insert id=e15 bogus",
       R"j({"id":"req-19","cmd":"insert","ok":false,"error":"expected key=value, got: bogus"})j"},
      {"quit", R"j({"cmd":"quit","ok":true,"served":4})j"},
  };
  expect_pinned(run(script_of(table, dir_)), table, dir_);
}

TEST_F(DaemonTest, ShedResponseBytesArePinned) {
  // Admission control at a bound of one: the cold extract parks as a
  // deferred slot while its build runs, so every later line homed on that
  // shard is shed -- before its own parameter errors are looked at.
  DaemonConfig cfg = config();
  cfg.max_queued = 1;
  const std::string m = "model=opt-1.3b-sim quant=int4";
  const std::vector<PinnedExchange> table = {
      {"extract id=q1 " + m + " codes={dir}/shed.codes record={dir}/shed.rec",
       R"j({"id":"q1","cmd":"extract","ok":false,"error":"cannot open for reading: {dir}/shed.codes"})j"},
      {"extract id=q2 " + m + " codes={dir}/shed.codes record={dir}/shed.rec",
       R"j({"id":"q2","cmd":"extract","ok":false,"error":"overloaded: shard 0 has 1 queued requests (bound 1); retry later","shed":true})j"},
      {"trace id=q3 " + m, R"j({"id":"q3","cmd":"trace","ok":false,"error":"overloaded: shard 0 has 1 queued requests (bound 1); retry later","shed":true})j"},
      {"insert id=q4 " + m + " bits=banana", R"j({"id":"q4","cmd":"insert","ok":false,"error":"overloaded: shard 0 has 1 queued requests (bound 1); retry later","shed":true})j"},
      // A spec error still comes first: it names no shard to shed on.
      {"verify id=q5 model=nope-9b-sim", R"j({"id":"q5","cmd":"verify","ok":false,"error":"unknown zoo model: nope-9b-sim"})j"},
  };
  expect_pinned(run_with(script_of(table, dir_), cfg), table, dir_);
}

TEST_F(DaemonTest, RejectedRequestsStartNoWork) {
  // A line rejected at parse time never reaches the store: no build
  // starts, no cache entry is touched, and the warm model of a capacity-1
  // store stays resident. Driven through the session directly, so each
  // store snapshot is taken exactly between the lines it brackets.
  DaemonConfig cfg = config();
  cfg.store_capacity = 1;
  RequestRouter router(cfg);
  auto session = router.open_session();
  std::vector<std::string> lines;
  const RequestRouter::LineSink emit = [&](const std::string& line) {
    lines.push_back(line);
  };
  const auto settle = [&] {
    while (session->inflight() > 0) {
      session->poll(emit);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  const auto store = [&] { return router.shard_stats()[0].store; };

  session->handle_line("insert id=warm model=opt-125m-sim quant=int4", emit);
  settle();
  const ModelStore::Stats warm = store();
  ASSERT_EQ(warm.resident, 1u);

  const std::string cold = "model=opt-1.3b-sim quant=int4";
  for (const std::string& line : {
           "extract id=r1 " + cold,
           "verify id=r2 " + cold,
           "trace id=r3 " + cold,
           "insert id=r4 " + cold + " bits=banana",
           "insert id=r5 " + cold + " seed-from-id=yes",
           "verify id=r6 " + cold + " codes=a evidence=b min-wer=9o",
           "trace id=r7 " + cold + " codes=a set=b min-wer=high",
       }) {
    session->handle_line(line, emit);
  }
  settle();
  ASSERT_EQ(lines.size(), 8u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  for (size_t i = 1; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("\"ok\":false"), std::string::npos) << lines[i];
  }
  const ModelStore::Stats after = store();
  EXPECT_EQ(after.hits, warm.hits);
  EXPECT_EQ(after.misses, warm.misses);
  EXPECT_EQ(after.builds, warm.builds);
  EXPECT_EQ(after.evictions, warm.evictions);
  EXPECT_EQ(after.resident, 1u);

  // The warm model is still resident: serving it again is a hit.
  session->handle_line("insert id=again model=opt-125m-sim quant=int4", emit);
  settle();
  ASSERT_EQ(lines.size(), 9u);
  EXPECT_NE(lines[8].find("\"ok\":true"), std::string::npos) << lines[8];
  EXPECT_EQ(store().hits, warm.hits + 1);
  EXPECT_EQ(store().builds, warm.builds);
  session->finish(emit);
}

}  // namespace
}  // namespace emmark
