// Serial vs. pooled watermark hot paths (derive + extract + in-layer score),
// plus the SIMD kernel-dispatch levels.
//
// Phase 1 times EmMark derive, extract, and score_layer (row-chunked
// within a single layer -- the largest one) over the largest model-zoo
// config at several thread counts via ThreadPool::ScopedOverride. Phase 2
// pins the pool at one thread and sweeps every supported kernel level
// (scalar / sse2 / avx2) through the same paths, so the SIMD
// speedup is attributed separately from threading. A table prints per
// phase, plus one machine-readable JSON line (the repo's perf trajectory
// -- scripts/bench_baseline.sh, BENCH_5.json -- is tracked from it).
// Invariance of the *results* across thread counts and kernel levels is
// asserted here too -- a speedup that changed placements or scores would
// be worthless.
//
// Usage: bench_parallel_wm [--model <zoo-name>] [--repeats N]
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "kernels/kernels.h"
#include "util/argparse.h"
#include "util/threadpool.h"
#include "util/timer.h"

namespace {

using namespace emmark;
using namespace emmark::bench;

/// Largest zoo entry by quantized-parameter proxy.
const ZooEntry& largest_entry() {
  const auto& entries = zoo_entries();
  const ZooEntry* best = &entries.front();
  auto weight_proxy = [](const ZooEntry& e) {
    return e.n_layers * (4 * e.d_model * e.d_model + 3 * e.d_model * e.ffn_hidden);
  };
  for (const ZooEntry& e : entries) {
    if (weight_proxy(e) > weight_proxy(*best)) best = &e;
  }
  return *best;
}

double best_of(int repeats, const std::function<double()>& run_ms) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) best = std::min(best, run_ms());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_parallel_wm",
                 "Serial vs. pooled EmMark derive/extract timings");
  args.add_option("model", largest_entry().name, "zoo model to watermark");
  args.add_option("repeats", "5", "timing repeats per cell (best-of)");
  if (!args.parse(argc, argv)) return 2;
  const std::string model_name = args.get("model");
  const int repeats = std::max(1, static_cast<int>(args.get_int("repeats")));

  const auto& entries = zoo_entries();
  if (std::none_of(entries.begin(), entries.end(),
                   [&](const ZooEntry& e) { return e.name == model_name; })) {
    std::fprintf(stderr, "unknown zoo model: %s\navailable:", model_name.c_str());
    for (const ZooEntry& e : entries) std::fprintf(stderr, " %s", e.name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  print_header("Parallel watermark hot paths",
               "Serial vs. ThreadPool derive+extract, largest zoo config");

  BenchContext ctx;
  const ZooEntry& entry = zoo_entry(model_name);
  auto fp = ctx.zoo().model(model_name);
  auto stats = ctx.zoo().stats(model_name);
  const QuantizedModel original(*fp, *stats,
                                method_for(entry.family, QuantBits::kInt4));
  const WatermarkKey key = owner_key(QuantBits::kInt4);

  const EmMarkScheme emmark;
  QuantizedModel marked = original;
  const SchemeRecord record = emmark.insert(marked, *stats, key);

  // Largest quantization layer: the score_layer timing target.
  int64_t score_layer_index = 0;
  for (int64_t i = 1; i < original.num_layers(); ++i) {
    if (original.layer(i).weights.numel() >
        original.layer(score_layer_index).weights.numel()) {
      score_layer_index = i;
    }
  }
  const QuantizedLayer& score_target = original.layer(score_layer_index);
  const LayerActivationStats& score_act = stats->find(score_target.name);

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  if (std::find(thread_counts.begin(), thread_counts.end(),
                static_cast<size_t>(hw)) == thread_counts.end()) {
    thread_counts.push_back(hw);
    std::sort(thread_counts.begin(), thread_counts.end());
  }

  struct Row {
    size_t threads;
    double derive_ms;
    double extract_ms;
    double score_ms;
  };
  struct Cell {
    double derive_ms;
    double extract_ms;
    double score_ms;
  };
  std::vector<Row> rows;
  std::vector<LayerWatermark> reference;
  std::vector<double> score_reference;

  // Times the three hot paths under whatever pool/kernel context the
  // caller set up, and checks the results against the first cell measured:
  // every thread count AND every kernel level must reproduce the same
  // placements, scores, and (perfect) extraction -- a speedup that changed
  // any of them would be worthless. Returns false (after a FATAL line
  // naming `label`) on a mismatch.
  auto run_cell = [&](const std::string& label, Cell& out) -> bool {
    std::vector<LayerWatermark> derived;
    out.derive_ms = best_of(repeats, [&] {
      Timer t;
      derived = emmark.derive(original, *stats, key).as<WatermarkRecord>().layers;
      return t.milliseconds();
    });
    ExtractionReport report;
    out.extract_ms = best_of(repeats, [&] {
      Timer t;
      report = emmark.extract_derived(marked, original, *stats, key);
      return t.milliseconds();
    });
    std::vector<double> scores;
    out.score_ms = best_of(repeats, [&] {
      Timer t;
      scores = score_layer(score_target.weights, score_act.abs_mean,
                           key.alpha, key.beta);
      return t.milliseconds();
    });

    if (reference.empty()) {
      reference = derived;
    } else {
      for (size_t i = 0; i < reference.size(); ++i) {
        if (derived[i].locations != reference[i].locations ||
            derived[i].bits != reference[i].bits) {
          std::fprintf(stderr, "FATAL: %s changed layer %zu placements\n",
                       label.c_str(), i);
          return false;
        }
      }
    }
    if (report.matched_bits != report.total_bits ||
        report.total_bits != emmark.total_bits(record)) {
      std::fprintf(stderr, "FATAL: extraction mismatch at %s\n", label.c_str());
      return false;
    }
    if (score_reference.empty()) {
      score_reference = scores;
    } else if (scores != score_reference) {
      std::fprintf(stderr, "FATAL: %s changed layer scores\n", label.c_str());
      return false;
    }
    return true;
  };

  for (size_t n : thread_counts) {
    ThreadPool pool(n);
    ThreadPool::ScopedOverride over(pool);
    Cell cell;
    if (!run_cell("thread count " + std::to_string(n), cell)) return 1;
    rows.push_back({n, cell.derive_ms, cell.extract_ms, cell.score_ms});
  }

  const double base_derive = rows.front().derive_ms;
  const double base_extract = rows.front().extract_ms;
  const double base_score = rows.front().score_ms;
  TablePrinter table({"threads", "derive ms", "extract ms", "score ms",
                      "speedup (derive)", "speedup (score)"});
  for (const Row& row : rows) {
    table.add_row({std::to_string(row.threads), TablePrinter::fmt(row.derive_ms, 2),
                   TablePrinter::fmt(row.extract_ms, 2),
                   TablePrinter::fmt(row.score_ms, 3),
                   TablePrinter::fmt(base_derive / row.derive_ms, 2),
                   TablePrinter::fmt(base_score / row.score_ms, 2)});
  }
  table.print();
  std::printf("(score column: single largest layer, %lld x %lld weights)\n",
              static_cast<long long>(score_target.weights.rows()),
              static_cast<long long>(score_target.weights.cols()));
  std::printf("\n(hardware_concurrency = %u; counts above it oversubscribe)\n", hw);

  // --- kernel dispatch levels, single-threaded --------------------------
  // One pool thread isolates the SIMD contribution from threading; the
  // scalar row is the pre-SIMD reference the ">= 3x" acceptance gate in
  // BENCH_5.json is measured against.
  struct KernelRow {
    kernels::Level level;
    double derive_ms;
    double extract_ms;
    double score_ms;
  };
  std::vector<KernelRow> kernel_rows;
  {
    ThreadPool pool(1);
    ThreadPool::ScopedOverride over(pool);
    // Two timing windows per level, min-merged: these per-level ratios
    // feed bench_baseline.sh --compare's regression gate, and on shared
    // hosts scheduler-noise bursts span whole best-of windows -- a burst
    // inside a single window would skew the stored scalar/SIMD ratio.
    for (int pass = 0; pass < 2; ++pass) {
      size_t idx = 0;
      for (kernels::Level level : kernels::supported_levels()) {
        kernels::ScopedLevelOverride kernel(level);
        Cell cell;
        if (!run_cell(std::string("kernel level ") + kernels::to_string(level),
                      cell)) {
          return 1;
        }
        if (pass == 0) {
          kernel_rows.push_back({level, cell.derive_ms, cell.extract_ms,
                                 cell.score_ms});
        } else {
          KernelRow& row = kernel_rows[idx];
          row.derive_ms = std::min(row.derive_ms, cell.derive_ms);
          row.extract_ms = std::min(row.extract_ms, cell.extract_ms);
          row.score_ms = std::min(row.score_ms, cell.score_ms);
        }
        ++idx;
      }
    }
  }

  const double kernel_base_derive = kernel_rows.front().derive_ms;
  const double kernel_base_score = kernel_rows.front().score_ms;
  TablePrinter kernel_table({"kernel", "derive ms", "extract ms", "score ms",
                             "speedup (derive)", "speedup (score)"});
  for (const KernelRow& row : kernel_rows) {
    kernel_table.add_row({kernels::to_string(row.level),
                          TablePrinter::fmt(row.derive_ms, 2),
                          TablePrinter::fmt(row.extract_ms, 2),
                          TablePrinter::fmt(row.score_ms, 3),
                          TablePrinter::fmt(kernel_base_derive / row.derive_ms, 2),
                          TablePrinter::fmt(kernel_base_score / row.score_ms, 2)});
  }
  std::printf("\n");
  kernel_table.print();
  std::printf("(kernel rows: 1 pool thread, scalar row = pre-SIMD reference; "
              "active default = %s)\n",
              kernels::to_string(kernels::default_level()));

  // Machine-readable summary, one JSON object on its own line.
  std::printf("\nJSON: {\"bench\":\"parallel_wm\",\"model\":\"%s\",\"layers\":%lld,"
              "\"bits_per_layer\":%lld,\"repeats\":%d,\"hardware_threads\":%u,"
              "\"kernel_default\":\"%s\",\"rows\":[",
              model_name.c_str(), static_cast<long long>(original.num_layers()),
              static_cast<long long>(key.bits_per_layer), repeats, hw,
              kernels::to_string(kernels::default_level()));
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("%s{\"threads\":%zu,\"derive_ms\":%.3f,\"extract_ms\":%.3f,"
                "\"score_ms\":%.3f,\"derive_speedup\":%.3f,"
                "\"extract_speedup\":%.3f,\"score_speedup\":%.3f}",
                i ? "," : "", rows[i].threads, rows[i].derive_ms,
                rows[i].extract_ms, rows[i].score_ms,
                base_derive / rows[i].derive_ms,
                base_extract / rows[i].extract_ms,
                base_score / rows[i].score_ms);
  }
  std::printf("],\"kernels\":[");
  for (size_t i = 0; i < kernel_rows.size(); ++i) {
    std::printf("%s{\"kernel\":\"%s\",\"derive_ms\":%.3f,\"extract_ms\":%.3f,"
                "\"score_ms\":%.3f,\"derive_speedup\":%.3f,\"score_speedup\":%.3f}",
                i ? "," : "", kernels::to_string(kernel_rows[i].level),
                kernel_rows[i].derive_ms, kernel_rows[i].extract_ms,
                kernel_rows[i].score_ms,
                kernel_base_derive / kernel_rows[i].derive_ms,
                kernel_base_score / kernel_rows[i].score_ms);
  }
  // Every level this build defines, supported here or not: a baseline
  // naming any other level cannot be compared against this build.
  std::printf("],\"kernel_levels\":[");
  for (size_t i = 0; i < std::size(kernels::kAllLevels); ++i) {
    std::printf("%s\"%s\"", i ? "," : "",
                kernels::to_string(kernels::kAllLevels[i]));
  }
  std::printf("]}\n");
  return 0;
}
