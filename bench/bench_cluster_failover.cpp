// Cluster failover under worker murder (docs/cluster.md): a 3-worker
// treu::cluster fleet of MLP shards serving a mixed-tenant burst while a
// seed-deterministic fault::FaultPlan SIGKILLs workers mid-load. The sweep
// is worker-kill rate x failover budget (retry attempts), and the numbers
// reported are the ones the zero-loss contract is about: per-tenant goodput
// (fulfilled responses per second) and per-tenant p99 latency of the
// requests that survived, plus the kill / death / restart / failover tally.
// The --seed flag drives the FaultPlan, so any cell can be replayed exactly.
//
// Like cluster_test, this binary hosts its own worker processes: main()
// registers the "mlp" worker kind and calls maybe_run_worker() FIRST; a
// --treu-cluster-worker invocation never reaches the benchmark harness.

#include <benchmark/benchmark.h>

#include "common.hpp"

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "treu/cluster/codec.hpp"
#include "treu/cluster/controller.hpp"
#include "treu/cluster/model_worker.hpp"
#include "treu/cluster/worker.hpp"
#include "treu/core/manifest.hpp"
#include "treu/core/rng.hpp"
#include "treu/core/stats.hpp"
#include "treu/fault/fault_plan.hpp"
#include "treu/nn/mlp.hpp"

namespace {

constexpr std::size_t kDim = 6;
constexpr std::size_t kClasses = 3;
constexpr std::size_t kWorkers = 3;
constexpr std::uint32_t kTenants = 3;
constexpr std::size_t kBurst = 120;  // 40 requests per tenant

namespace cluster = treu::cluster;
namespace serve = treu::serve;
using MlpWorker =
    cluster::ModelWorker<std::vector<double>, treu::nn::ClassScores>;

std::uint64_t g_seed = 29;  // set from --seed in main before benchmarks run

std::unique_ptr<cluster::WorkerService> make_mlp_worker(
    const cluster::WorkerStartup &) {
  std::vector<std::unique_ptr<MlpWorker::Model>> models;
  for (int r = 0; r < 2; ++r) {
    treu::core::Rng rng(7);
    models.push_back(std::make_unique<treu::nn::MlpClassifier>(
        kDim, std::vector<std::size_t>{8}, kClasses, rng));
  }
  serve::ServeConfig config;
  config.max_batch_size = 8;
  config.max_queue_delay = std::chrono::microseconds(200);
  config.max_pending = 4096;
  const auto decode = [](std::span<const std::uint8_t> bytes,
                         std::vector<double> &out) {
    return cluster::decode_features(bytes, out) && out.size() == kDim;
  };
  const auto encode = [](const treu::nn::ClassScores &scores) {
    return cluster::encode_scores(scores);
  };
  return std::make_unique<MlpWorker>(std::move(models), config, decode,
                                     encode);
}

std::vector<double> features_for(std::uint64_t seq) {
  std::vector<double> f(kDim);
  treu::core::Rng rng(0x5EED5EEDULL, seq);
  for (double &v : f) v = rng.uniform(-1.0, 1.0);
  return f;
}

struct TenantCell {
  std::uint64_t fulfilled = 0;
  std::uint64_t failed = 0;
  double goodput_rps = 0.0;
  double p99_us = 0.0;
};

struct FailoverCellResult {
  std::array<TenantCell, kTenants> tenants;
  double goodput_rps = 0.0;  // fleet-wide fulfilled / wall second
  double fail_rate = 0.0;    // failed / offered
  std::uint64_t kills = 0;
  std::uint64_t deaths = 0;
  std::uint64_t restarts = 0;
  std::uint64_t failovers = 0;
  std::uint64_t retries = 0;
};

// One sweep cell: an open burst of kBurst requests round-robined across
// kTenants tenants against kWorkers worker processes, a FaultPlan killing
// workers at `kill_rate` per dispatch, and `attempts` cross-worker tries.
FailoverCellResult run_cell(double kill_rate, std::size_t attempts,
                            std::uint64_t seed) {
  treu::fault::FaultPlanConfig plan_config;
  plan_config.worker_kill_rate = kill_rate;
  treu::fault::FaultPlan plan(plan_config, seed);

  cluster::ClusterConfig config;
  config.worker_kind = "mlp";
  config.workers = kWorkers;
  config.heartbeat_interval = std::chrono::microseconds(5000);
  config.heartbeat_timeout = std::chrono::microseconds(50000);
  config.request_timeout = std::chrono::microseconds(100000);
  config.retry.max_attempts = attempts;
  config.retry.base_backoff = std::chrono::microseconds(200);
  config.retry.multiplier = 2.0;
  config.retry.max_backoff = std::chrono::microseconds(2000);
  config.auto_restart = true;
  config.max_restarts = 32;
  config.trace_seed = seed;
  config.injector = kill_rate > 0.0 ? &plan : nullptr;
  cluster::ClusterController ctrl(config);

  using clock = std::chrono::steady_clock;
  std::vector<std::future<cluster::ClusterResponse>> futs;
  std::vector<clock::time_point> submitted;
  futs.reserve(kBurst);
  submitted.reserve(kBurst);

  const auto start = clock::now();
  for (std::size_t i = 0; i < kBurst; ++i) {
    const auto tenant = static_cast<std::uint32_t>(i % kTenants);
    submitted.push_back(clock::now());
    futs.push_back(ctrl.submit(tenant, serve::Priority::Normal,
                               cluster::encode_features(features_for(i))));
  }

  FailoverCellResult r;
  std::array<std::vector<double>, kTenants> latency_us;
  std::uint64_t fulfilled = 0, failed = 0;
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto tenant = i % kTenants;
    try {
      (void)futs[i].get();
      ++fulfilled;
      ++r.tenants[tenant].fulfilled;
      latency_us[tenant].push_back(std::chrono::duration<double, std::micro>(
                                       clock::now() - submitted[i])
                                       .count());
    } catch (...) {
      ++failed;  // failover budget exhausted (or no live worker left)
      ++r.tenants[tenant].failed;
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(clock::now() - start).count();
  const cluster::ClusterStats stats = ctrl.stats();
  ctrl.shutdown();

  for (std::size_t t = 0; t < kTenants; ++t) {
    r.tenants[t].goodput_rps =
        static_cast<double>(r.tenants[t].fulfilled) / elapsed_s;
    r.tenants[t].p99_us = treu::core::quantile(latency_us[t], 0.99);
  }
  r.goodput_rps = static_cast<double>(fulfilled) / elapsed_s;
  r.fail_rate = static_cast<double>(failed) / kBurst;
  r.kills = stats.kills_injected;
  r.deaths = stats.worker_deaths;
  r.restarts = stats.worker_restarts;
  r.failovers = stats.failovers;
  r.retries = stats.retries;
  return r;
}

void print_report(std::uint64_t seed) {
  std::printf("== Cluster failover: worker-kill rate x failover budget ==\n");
  std::printf(
      "  (burst %zu, %zu workers, %u tenants, auto-restart on, seed %llu)\n",
      kBurst, kWorkers, kTenants, static_cast<unsigned long long>(seed));
  std::printf("  %7s %8s %12s %7s %6s %7s %9s", "kill%", "attempts",
              "goodput/s", "fail%", "kills", "deaths", "failovers");
  for (std::uint32_t t = 0; t < kTenants; ++t)
    std::printf("  t%u:good/s t%u:p99us", t, t);
  std::printf("\n");
  for (const double kill_rate : {0.0, 0.05, 0.15}) {
    for (const std::size_t attempts : {std::size_t{1}, std::size_t{4}}) {
      if (kill_rate == 0.0 && attempts > 1) continue;  // identical to 1
      const FailoverCellResult r = run_cell(kill_rate, attempts, seed);
      std::printf("  %7.0f %8zu %12.0f %7.1f %6llu %7llu %9llu",
                  kill_rate * 100.0, attempts, r.goodput_rps,
                  r.fail_rate * 100.0,
                  static_cast<unsigned long long>(r.kills),
                  static_cast<unsigned long long>(r.deaths),
                  static_cast<unsigned long long>(r.failovers));
      for (std::uint32_t t = 0; t < kTenants; ++t)
        std::printf("  %9.0f %8.0f", r.tenants[t].goodput_rps,
                    r.tenants[t].p99_us);
      std::printf("\n");
    }
  }
  std::printf("\n");
}

void BM_ClusterFailoverBurst(benchmark::State &state) {
  const double kill_rate = static_cast<double>(state.range(0)) / 100.0;
  const auto attempts = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    const FailoverCellResult r = run_cell(kill_rate, attempts, g_seed);
    state.counters["goodput_rps"] = r.goodput_rps;
    state.counters["fail_pct"] = r.fail_rate * 100.0;
    state.counters["kills"] = static_cast<double>(r.kills);
    state.counters["failovers"] = static_cast<double>(r.failovers);
    state.counters["t0_p99_us"] = r.tenants[0].p99_us;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_ClusterFailoverBurst)
    ->Args({0, 1})
    ->Args({5, 4})
    ->Args({15, 4})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace

int main(int argc, char **argv) {
  // Worker re-exec hook must run before any flag or benchmark machinery.
  treu::cluster::register_worker("mlp", make_mlp_worker);
  const int worker_rc = treu::cluster::maybe_run_worker(argc, argv);
  if (worker_rc >= 0) return worker_rc;

  const treu::bench::CommonFlags flags =
      treu::bench::parse_common_flags(argc, argv, /*default_seed=*/29);
  g_seed = flags.seed;
  print_report(flags.seed);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  treu::core::Manifest manifest;
  manifest.name = "bench_cluster_failover";
  manifest.description =
      "Cluster failover: worker-kill rate x failover budget, per-tenant "
      "goodput and p99";
  manifest.set("burst", static_cast<std::int64_t>(kBurst));
  manifest.set("workers", static_cast<std::int64_t>(kWorkers));
  manifest.set("tenants", static_cast<std::int64_t>(kTenants));
  manifest.set("kill_rates", std::string("0,0.05,0.15"));
  manifest.set("retry_attempts", std::string("1,4"));
  treu::bench::finish(flags, manifest);
  return 0;
}
