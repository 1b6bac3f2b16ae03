// In-process half of the repo benchmark (see README.md). run.py drives it;
// every subcommand prints one JSON object on its last stdout line.
//
//   prepare --cache D --out D --spec M:Q [--spec ...]
//       Trains any missing zoo model into the cache, then writes, per spec,
//       the owner's record/codes/evidence and an 8-device fingerprint set
//       with one codes snapshot per device. Reports the expected verdicts.
//   eval --cache D --seconds S --trace 0|1 [--spans F]
//       The eval-ppl workload: builds llama2-70b-sim awq-int4 through
//       ModelStore::get, prints "ready", then repeats perplexity() over the
//       test stream for S seconds.
//   replay --cache D --mix F --spans F
//       Replays a serving mix (one protocol line per line, a tab, then the
//       expected outcome) through the modules' public functions, timing each
//       layer call.
//   calib
//       A fixed loop that calls no repo code, to tell host drift apart from
//       a code change.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/router.h"
#include "data/corpus.h"
#include "eval/perplexity.h"
#include "kernels/kernels.h"
#include "model_zoo/store.h"
#include "model_zoo/zoo.h"
#include "quant/qmodel.h"
#include "util/phaseprof.h"
#include "util/threadpool.h"
#include "wm/engine.h"
#include "wm/evidence.h"
#include "wm/fingerprint.h"
#include "wm/scheme.h"

namespace {

using namespace emmark;
using Clock = std::chrono::steady_clock;

constexpr const char* kEvalModel = "llama2-70b-sim";
constexpr int kFleetDevices = 8;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- spans -----------------------------------------------------------------

/// Spans recorded by the benchmark around its calls into each layer; kept
/// in memory and written once, when the run ends.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  int begin(const std::string& name, int parent, const std::string& request) {
    if (!on_) return -1;
    spans_.push_back({name, request, parent, now_ns(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int index) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = now_ns();
  }

  void write(const std::string& path) const {
    if (!on_ || path.empty()) return;
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
          << s.start_ns << ",\"end_ns\":" << s.end_ns << ",\"parent\":"
          << s.parent << ",\"request\":\"" << s.request << "\"}\n";
    }
  }

 private:
  struct Span {
    std::string name;
    std::string request;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  // steady_clock is CLOCK_MONOTONIC on Linux, the clock run.py stamps its
  // client spans with, so both kinds of span share one time axis.
  static int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }

  bool on_;
  std::vector<Span> spans_;
};

/// Per-layer wall-time samples, keyed by metric name.
class LayerTimes {
 public:
  explicit LayerTimes(SpanLog& spans) : spans_(spans) {}

  /// Times fn() as one sample of `metric`, recorded as a span under `parent`.
  template <typename Fn>
  auto time(const std::string& metric, int parent, const std::string& request,
            Fn&& fn) {
    const int span = spans_.begin(metric, parent, request);
    const auto start = Clock::now();
    struct Finish {
      LayerTimes& self;
      const std::string& metric;
      int span;
      Clock::time_point start;
      ~Finish() {
        self.samples_[metric].push_back(ms_since(start));
        self.spans_.end(span);
      }
    } finish{*this, metric, span, start};
    return fn();
  }

  double median_of(const std::string& metric) const {
    auto it = samples_.find(metric);
    return it == samples_.end() ? 0.0 : median(it->second);
  }

 private:
  SpanLog& spans_;
  std::map<std::string, std::vector<double>> samples_;
};

// --- arguments ---------------------------------------------------------------

struct Args {
  std::multimap<std::string, std::string> values;
  std::string get(const std::string& k, const std::string& def = "") const {
    auto it = values.find(k);
    return it == values.end() ? def : it->second;
  }
  std::vector<std::string> all(const std::string& k) const {
    std::vector<std::string> out;
    for (auto [it, end] = values.equal_range(k); it != end; ++it) out.push_back(it->second);
    return out;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad argument: " + key);
    key = key.substr(2);
    if (i + 1 < argc) {
      args.values.emplace(key, argv[++i]);
    } else {
      throw std::invalid_argument("missing value for --" + key);
    }
  }
  return args;
}

ModelSpec parse_spec(const std::string& text) {
  const auto colon = text.find(':');
  if (colon == std::string::npos) throw std::invalid_argument("spec is model:quant: " + text);
  ModelSpec spec;
  spec.model = text.substr(0, colon);
  spec.method = parse_quant_spec(text.substr(colon + 1), zoo_entry(spec.model).family);
  return spec;
}

std::string spec_dir_name(const std::string& text) {
  std::string out = text;
  std::replace(out.begin(), out.end(), ':', '_');
  return out;
}

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string info_json() {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "\"kernel_level\":\"%s\",\"pool_threads\":%zu",
                kernels::to_string(kernels::active_level()),
                ThreadPool::shared().size());
  return buf;
}

// --- calib -------------------------------------------------------------------

int cmd_calib() {
  std::vector<double> samples;
  volatile double sink = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    const auto start = Clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ull;
    double acc = 0.0;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x & 0xffff) * 1e-9;
    }
    sink = sink + acc;
    samples.push_back(ms_since(start));
  }
  std::printf("{\"calib_ms\":%.6f,\"kernel_level\":\"%s\"}\n", median(samples),
              kernels::to_string(kernels::active_level()));
  return 0;
}

// --- setup layers --------------------------------------------------------------

/// Times the steps ModelStore's build runs for each spec, outside the store:
/// zoo construction, checkpoint load, stats load, quantization.
void time_setup_layers(const std::string& cache, const std::vector<std::string>& specs,
                       int reps, LayerTimes& layers, SpanLog& spans) {
  for (int rep = 0; rep < reps; ++rep) {
    for (const std::string& text : specs) {
      const ModelSpec spec = parse_spec(text);
      const int root = spans.begin("model_zoo.build", -1, text);
      auto zoo = layers.time("model_zoo.zoo_ctor_ms", root, text,
                             [&] { return std::make_unique<ModelZoo>(cache); });
      auto fp = layers.time("model_zoo.ckpt_load_ms", root, text,
                            [&] { return zoo->model(spec.model); });
      auto stats = layers.time("model_zoo.stats_load_ms", root, text,
                               [&] { return zoo->stats(spec.model); });
      layers.time("quant.quantize_ms", root, text, [&] {
        return std::make_unique<QuantizedModel>(*fp, *stats, spec.method);
      });
      spans.end(root);
    }
  }
}

/// Per-spec sums of the setup-layer medians, as JSON members.
std::string setup_layers_json(const LayerTimes& layers, size_t spec_count) {
  const double n = static_cast<double>(spec_count);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"model_zoo.zoo_ctor_ms\":%.6f,\"model_zoo.ckpt_load_ms\":%.6f,"
                "\"model_zoo.stats_load_ms\":%.6f,\"quant.quantize_ms\":%.6f",
                layers.median_of("model_zoo.zoo_ctor_ms") * n,
                layers.median_of("model_zoo.ckpt_load_ms") * n,
                layers.median_of("model_zoo.stats_load_ms") * n,
                layers.median_of("quant.quantize_ms") * n);
  return buf;
}

// --- prepare -------------------------------------------------------------------

int cmd_prepare(const Args& args) {
  const std::string cache = args.get("cache");
  const std::string out = args.get("out");
  ModelStoreConfig config;
  config.cache_dir = cache;
  config.capacity = 64;
  ModelStore store(config);
  const auto scheme = WatermarkRegistry::create("emmark");
  WatermarkKey key;  // the protocol's defaults (docs/PROTOCOL.md, insert)
  key.bits_per_layer = 8;
  key.candidate_ratio = 10;

  std::string json = "{\"specs\":{";
  bool first = true;
  for (const std::string& text : args.all("spec")) {
    const ModelHandle handle = store.get(parse_spec(text));
    const std::string dir = out + "/" + spec_dir_name(text);
    std::filesystem::create_directories(dir + "/fleet");

    QuantizedModel owned = *handle.original;
    const SchemeRecord record = scheme->insert(owned, *handle.stats, key);
    record.save(dir + "/owner.rec");
    owned.save_codes(dir + "/owner.codes");
    OwnershipEvidence::create("owner", record, *handle.original, *handle.stats, 0)
        .save(dir + "/owner.evid");

    std::vector<std::string> ids;
    for (int i = 0; i < kFleetDevices; ++i) ids.push_back("edge-device-" + std::to_string(i));
    std::vector<QuantizedModel> devices;
    const FingerprintSet set =
        Fingerprinter::enroll("emmark", *handle.original, *handle.stats, key, ids, devices);
    set.save(dir + "/fleet.fps");
    for (size_t i = 0; i < devices.size(); ++i) {
      devices[i].save_codes(dir + "/fleet/" + ids[i] + ".codes");
    }

    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"total_bits\":%lld,\"devices\":%d}",
                  first ? "" : ",", text.c_str(),
                  static_cast<long long>(scheme->total_bits(record)), kFleetDevices);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

// --- eval ----------------------------------------------------------------------

/// Tokens and forward passes one perplexity() call runs, mirroring its
/// window tiling and merging (eval/perplexity.cpp) from the public config.
struct EvalShape {
  int64_t tokens = 0;
  int64_t forwards = 0;
};

EvalShape eval_shape(const std::vector<TokenId>& stream, const PplConfig& config) {
  EvalShape shape;
  int64_t rows_in_forward = 0;
  int64_t forward_seq_len = 0;
  for (const Batch& tile : tile_eval_batches(stream, config.batch_size, config.seq_len)) {
    shape.tokens += tile.batch_size * tile.seq_len;
    if (shape.forwards == 0 || config.max_tokens_per_forward <= 0 ||
        tile.seq_len != forward_seq_len ||
        (rows_in_forward + tile.batch_size) * tile.seq_len > config.max_tokens_per_forward) {
      ++shape.forwards;
      rows_in_forward = 0;
      forward_seq_len = tile.seq_len;
    }
    rows_in_forward += tile.batch_size;
  }
  return shape;
}

int cmd_eval(const Args& args) {
  const std::string cache = args.get("cache");
  const double seconds = std::stod(args.get("seconds", "10"));
  const bool trace = args.get("trace", "0") == "1";

  ModelStoreConfig config;
  config.cache_dir = cache;
  ModelStore store(config);
  ModelSpec spec;
  spec.model = kEvalModel;
  spec.method = QuantMethod::kAwqInt4;
  const std::vector<TokenId> test = make_corpus(synth_vocab(), CorpusConfig{}).test;
  const ModelHandle handle = store.get(spec);
  std::printf("ready\n");
  std::fflush(stdout);

  const QuantizedModel& model = *handle.original;
  SpanLog spans(trace);
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::map<std::string, std::vector<double>> phase_ms;
  std::vector<double> values;
  const auto start = Clock::now();
  // Traced runs alternate phaseprof off/on per check, so the tracing
  // overhead is measured on the same machine state as the traced numbers.
  for (int rep = 0; rep < 3 || ms_since(start) < seconds * 1000.0; ++rep) {
    const bool profiled = trace && rep % 2 == 1;
    phaseprof::set_enabled(profiled);
    phaseprof::reset();
    const int span = spans.begin(profiled ? "eval.ppl" : "eval.ppl.untraced", -1,
                                 "check-" + std::to_string(rep));
    const auto t0 = Clock::now();
    values.push_back(perplexity(model, test));
    const double wall = ms_since(t0);
    spans.end(span);
    phaseprof::set_enabled(false);
    (profiled ? traced_ms : untraced_ms).push_back(wall);
    if (profiled) {
      auto total = [](phaseprof::Phase p) {
        return static_cast<double>(phaseprof::total_ns(p)) * 1e-6;
      };
      const double gemm = total(phaseprof::Phase::kGemm);
      const double dequant = total(phaseprof::Phase::kDequant);
      const double attention = total(phaseprof::Phase::kAttention);
      const double nll = total(phaseprof::Phase::kSoftmaxNll);
      const double other = wall - gemm - attention - nll;
      phase_ms["tensor.gemm_ms"].push_back(gemm - dequant);
      phase_ms["quant.dequant_ms"].push_back(dequant);
      phase_ms["nn.attention_ms"].push_back(attention);
      phase_ms["eval.softmax_nll_ms"].push_back(nll);
      phase_ms["eval.other_ms"].push_back(other);
      phase_ms["eval.other_pct"].push_back(100.0 * other / wall);
    }
  }

  const double loop_s = ms_since(start) * 1e-3;
  bool identical = true;
  for (double v : values) identical = identical && v == values.front();
  std::printf("{\"ppl\":\"%.17g\",\"ppl_identical\":%s,\"checks\":%zu,\"loop_s\":%.6f,%s,"
              "\"lat_ms\":[",
              values.front(), identical ? "true" : "false", values.size(), loop_s,
              info_json().c_str());
  for (size_t i = 0; i < untraced_ms.size(); ++i) {
    std::printf("%s%.6f", i ? "," : "", untraced_ms[i]);
  }
  std::printf("]");
  if (trace) {
    LayerTimes setup_layers(spans);
    time_setup_layers(cache, {std::string(kEvalModel) + ":awq-int4"}, 1, setup_layers, spans);
    const EvalShape shape = eval_shape(test, PplConfig{});
    const double ppl_ms = median(traced_ms);
    const double gemm_ms = median(phase_ms["tensor.gemm_ms"]);
    const double dequant_ms = median(phase_ms["quant.dequant_ms"]);
    const double gmac = static_cast<double>(model.quantized_param_count()) *
                        static_cast<double>(shape.tokens) * 1e-9;
    const double code_bytes =
        static_cast<double>(model.code_bytes()) * static_cast<double>(shape.forwards);
    std::printf(",\"layers\":{%s,\"eval.ppl_ms\":%.6f,\"eval.untraced_ppl_ms\":%.6f",
                setup_layers_json(setup_layers, 1).c_str(), ppl_ms, median(untraced_ms));
    for (const auto& [name, samples] : phase_ms) {
      std::printf(",\"%s\":%.6f", name.c_str(), median(samples));
    }
    std::printf(",\"tensor.gemm_gmac\":%.6f,\"tensor.gemm_gmac_per_s\":%.6f,"
                "\"quant.code_bytes\":%.0f,\"quant.dequant_gb_per_s\":%.6f}",
                gmac, gmac / (gemm_ms * 1e-3), code_bytes,
                code_bytes * 1e-9 / (dequant_ms * 1e-3));
  }
  std::printf("}\n");
  spans.write(args.get("spans"));
  return 0;
}

// --- replay ----------------------------------------------------------------------

std::map<std::string, std::string> parse_line(const std::string& line, std::string& verb) {
  std::map<std::string, std::string> params;
  std::istringstream in(line);
  in >> verb;
  std::string token;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq != std::string::npos) params[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return params;
}

int cmd_replay(const Args& args) {
  const std::string cache = args.get("cache");
  SpanLog spans(true);
  LayerTimes layers(spans);

  std::vector<std::pair<std::string, std::string>> mix;  // line, expectation
  std::vector<std::string> specs;
  {
    std::ifstream in(args.get("mix"));
    std::string row;
    while (std::getline(in, row)) {
      const auto tab = row.find('\t');
      if (tab == std::string::npos) continue;
      mix.emplace_back(row.substr(0, tab), row.substr(tab + 1));
      std::string verb;
      auto p = parse_line(mix.back().first, verb);
      const std::string spec = p["model"] + ":" + p["quant"];
      if (std::find(specs.begin(), specs.end(), spec) == specs.end()) specs.push_back(spec);
    }
  }

  time_setup_layers(cache, specs, 3, layers, spans);

  ModelStoreConfig config;
  config.cache_dir = cache;
  config.capacity = 64;
  ModelStore store(config);
  const auto scheme = WatermarkRegistry::create("emmark");
  int64_t attempted = 0;
  int64_t failed = 0;
  double codes_bytes_written = 0.0;
  std::string first_failure;

  for (const auto& [line, expect] : mix) {
    std::string verb;
    auto p = parse_line(line, verb);
    const ModelSpec spec = parse_spec(p["model"] + ":" + p["quant"]);
    const std::string& id = p["id"];
    const ModelHandle handle = store.get(spec);
    const QuantizedModel& original = *handle.original;
    ++attempted;
    bool ok = false;
    const int root = spans.begin("replay." + verb, -1, id);
    if (verb == "insert") {
      auto model = layers.time("model_zoo.checkout_ms", root, id,
                               [&] { return store.checkout(spec); });
      WatermarkKey key;
      key.bits_per_layer = 8;
      key.candidate_ratio = 10;
      key.seed = WatermarkEngine::request_seed(0, id, 0);
      key.signature_seed = WatermarkEngine::request_seed(0, id, 1);
      const SchemeRecord record = layers.time("wm.insert_ms", root, id, [&] {
        return scheme->insert(*model, *handle.stats, key);
      });
      layers.time("quant.save_codes_ms", root, id, [&] {
        model->save_codes(p["codes"]);
        return 0;
      });
      codes_bytes_written += static_cast<double>(std::filesystem::file_size(p["codes"]));
      ok = "bits=" + std::to_string(scheme->total_bits(record)) == expect;
    } else {
      auto suspect = layers.time("model_zoo.checkout_ms", root, id,
                                 [&] { return store.checkout(spec); });
      layers.time("quant.load_codes_ms", root, id, [&] {
        suspect->load_codes(p["codes"]);
        return 0;
      });
      if (verb == "extract") {
        const SchemeRecord record = SchemeRecord::load(p["record"]);
        const ExtractionReport report = layers.time(
            "wm.extract_ms", root, id, [&] { return scheme->extract(*suspect, original, record); });
        ok = report.wer_pct() == 100.0 && expect == "wer=100";
      } else if (verb == "verify") {
        const OwnershipEvidence evidence = layers.time(
            "wm.evidence_load_ms", root, id, [&] { return OwnershipEvidence::load(p["evidence"]); });
        const bool digests = layers.time("wm.digest_ms", root, id, [&] {
          return digest_model_codes(original) == evidence.original_digest &&
                 digest_stats(*handle.stats) == evidence.stats_digest;
        });
        const bool rederives = layers.time("wm.rederive_ms", root, id, [&] {
          return scheme->rederives(evidence.record, original, *handle.stats);
        });
        const ExtractionReport report = layers.time("wm.extract_ms", root, id, [&] {
          return scheme->extract(*suspect, original, evidence.record);
        });
        ok = digests && rederives && report.wer_pct() >= 90.0 && expect == "verified=1";
      } else if (verb == "trace") {
        const FingerprintSet set = layers.time("wm.fpset_load_ms", root, id,
                                               [&] { return FingerprintSet::load(p["set"]); });
        const TraceResult result = layers.time("wm.trace_ms", root, id, [&] {
          return Fingerprinter::trace(*suspect, original, set, 90.0);
        });
        ok = "device=" + result.device_id == expect;
      }
    }
    spans.end(root);
    if (!ok) {
      ++failed;
      if (first_failure.empty()) first_failure = line + " expected " + expect;
    }
  }

  std::printf("{\"attempted\":%lld,\"failed\":%lld,\"first_failure\":\"%s\",\"layers\":{%s",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              json_escape(first_failure).c_str(),
              setup_layers_json(layers, specs.size()).c_str());
  for (const char* name : {"model_zoo.checkout_ms", "wm.insert_ms", "quant.save_codes_ms",
                           "quant.load_codes_ms", "wm.extract_ms", "wm.evidence_load_ms",
                           "wm.digest_ms", "wm.rederive_ms", "wm.trace_ms",
                           "wm.fpset_load_ms"}) {
    std::printf(",\"%s\":%.6f", name, layers.median_of(name));
  }
  std::printf(",\"quant.codes_mb_written\":%.6f}}\n", codes_bytes_written * 1e-6);
  spans.write(args.get("spans"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_driver prepare|eval|replay|calib [--key value]...\n");
    return 2;
  }
  try {
    const std::string cmd = argv[1];
    const Args args = parse_args(argc, argv, 2);
    if (cmd == "prepare") return cmd_prepare(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "calib") return cmd_calib();
    std::fprintf(stderr, "unknown subcommand: %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
