// Reproduces the paper's §5.3/§5.4 caching ablation on the stu program:
// with common-computation-reuse (live_df persist hints) LaFP-on-Dask is
// much faster but holds the shared frame in memory; with caching off the
// speedup collapses while memory drops below the baseline's.
//
// Paper: caching on = 13x speedup, 2.3x memory increase;
//        caching off = 1.4x speedup, 0.8x memory.
//
// Part 2 measures the cross-query plan/result cache
// (lazy/result_cache.h): the same optimized program runs cold (fresh
// shared cache, inserts only) and then warm (spliced from the cache),
// one printed row per backend.
#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "bench/programs.h"
#include "lazy/result_cache.h"

using namespace lafp;
using namespace lafp::bench;

namespace {

/// Cold/warm repeated-program comparison on one backend. Returns false
/// on execution failure or a cold/warm checksum mismatch.
bool RunCrossQuery(const std::string& program,
                   const std::map<std::string, std::string>& paths,
                   exec::BackendKind backend, const std::string& dir) {
  BenchConfig config;
  config.backend = backend;
  config.optimized = true;
  config.result_cache = std::make_shared<lazy::ResultCache>();

  BenchResult cold = RunBenchmark(program, paths, config, dir);
  const int64_t cold_hits = config.result_cache->hits();
  const int64_t inserts = config.result_cache->inserts();
  BenchResult warm = RunBenchmark(program, paths, config, dir);
  const int64_t warm_hits = config.result_cache->hits() - cold_hits;

  const char* name = exec::BackendKindName(backend);
  if (!cold.success || !warm.success) {
    std::fprintf(stderr, "%s cross-query run failed: %s / %s\n", name,
                 cold.status.ToString().c_str(),
                 warm.status.ToString().c_str());
    return false;
  }
  if (warm.checksums != cold.checksums) {
    std::fprintf(stderr, "%s warm run diverged from cold run\n", name);
    return false;
  }

  const double speedup = warm.seconds > 0 ? cold.seconds / warm.seconds : 0;
  std::printf("%-22s %10.3f %10.3f %9.1fx %7lld %7lld\n", name,
              cold.seconds, warm.seconds, speedup,
              static_cast<long long>(inserts),
              static_cast<long long>(warm_hits));
  return true;
}

}  // namespace

int main() {
  std::string dir = BenchScratchDir();
  const char* quick = std::getenv("LAFP_BENCH_QUICK");
  int scale = (quick != nullptr && quick[0] == '1') ? 1 : 9;
  auto paths = GenerateForProgram("stu", dir, scale);
  if (!paths.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 paths.status().ToString().c_str());
    return 1;
  }

  BenchConfig baseline;  // plain Dask
  baseline.backend = exec::BackendKind::kDask;
  baseline.optimized = false;
  BenchConfig cached = baseline;
  cached.optimized = true;
  BenchConfig uncached = cached;
  uncached.enable_caching = false;

  BenchResult rb = RunBenchmark("stu", *paths, baseline, dir);
  BenchResult rc = RunBenchmark("stu", *paths, cached, dir);
  BenchResult ru = RunBenchmark("stu", *paths, uncached, dir);
  if (!rb.success || !rc.success || !ru.success) {
    std::fprintf(stderr, "a configuration failed: %s / %s / %s\n",
                 rb.status.ToString().c_str(),
                 rc.status.ToString().c_str(),
                 ru.status.ToString().c_str());
    return 1;
  }

  std::printf("Caching ablation: stu program, Dask backend, L dataset\n\n");
  std::printf("%-22s %10s %12s\n", "configuration", "time (s)",
              "peak (MB)");
  std::printf("%-22s %10.3f %12.1f\n", "Dask (baseline)", rb.seconds,
              rb.peak_bytes / 1e6);
  std::printf("%-22s %10.3f %12.1f\n", "LDask (caching on)", rc.seconds,
              rc.peak_bytes / 1e6);
  std::printf("%-22s %10.3f %12.1f\n", "LDask (caching off)", ru.seconds,
              ru.peak_bytes / 1e6);
  std::printf("\nspeedup vs Dask:  caching on %.1fx, caching off %.1fx\n",
              rb.seconds / rc.seconds, rb.seconds / ru.seconds);
  std::printf("memory vs Dask:   caching on %.1fx, caching off %.1fx\n",
              static_cast<double>(rc.peak_bytes) / rb.peak_bytes,
              static_cast<double>(ru.peak_bytes) / rb.peak_bytes);
  std::printf(
      "\nPaper reference: caching on = 13x speedup at 2.3x memory;\n"
      "caching off = 1.4x speedup at 0.8x memory. The shape to match:\n"
      "caching buys a large speedup at a memory premium.\n");

  std::printf(
      "\nCross-query result cache: repeated optimized runs of stu\n\n");
  std::printf("%-22s %10s %10s %10s %7s %7s\n", "backend", "cold (s)",
              "warm (s)", "speedup", "insert", "hits");
  bool ok = true;
  for (auto backend :
       {exec::BackendKind::kPandas, exec::BackendKind::kModin}) {
    ok = RunCrossQuery("stu", *paths, backend, dir) && ok;
  }
  std::printf("\n(warm runs splice cached subtrees; warm output must\n"
              " checksum-match the cold run)\n");
  return ok ? 0 : 1;
}
