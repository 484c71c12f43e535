// Serving under injected faults (docs/resilience.md): put two MLP Q-network
// replicas behind treu::serve::BatchServer, attach a seed-deterministic
// fault::FaultPlan, and sweep fault rate × retry policy. Each cell is a
// saturating closed-loop burst with priority shedding and deadlines armed,
// so the numbers that matter under failure show up directly: goodput
// (successful responses per second, not offered load), p99 latency of the
// requests that did succeed, and the shed / failure split. The --seed flag
// drives the FaultPlan, so any cell can be replayed exactly.

#include <benchmark/benchmark.h>

#include "common.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <vector>

#include "treu/core/manifest.hpp"
#include "treu/core/rng.hpp"
#include "treu/core/stats.hpp"
#include "treu/fault/fault_plan.hpp"
#include "treu/rl/qnet.hpp"
#include "treu/serve/batch_server.hpp"

namespace {

constexpr std::size_t kStateDim = 16;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kActions = 4;
constexpr std::size_t kBurst = 384;

namespace serve = treu::serve;
using Server = serve::BatchServer<std::vector<double>, std::vector<double>>;

std::uint64_t g_seed = 17;  // set from --seed in main before benchmarks run

std::vector<std::vector<double>> make_states(std::size_t count,
                                             std::uint64_t seed) {
  treu::core::Rng rng(seed);
  std::vector<std::vector<double>> states(count);
  for (auto &s : states) {
    s.resize(kStateDim);
    for (double &x : s) x = rng.normal(0.0, 1.0);
  }
  return states;
}

struct FaultCellResult {
  double goodput_rps = 0.0;  // successful responses / wall second
  double p99_us = 0.0;       // latency of successful requests only
  double shed_rate = 0.0;    // shed / offered
  double fail_rate = 0.0;    // retry-exhausted or deadline-missed / offered
  std::uint64_t injected = 0;
  std::uint64_t retries = 0;
};

// One sweep cell: a saturating burst of kBurst requests with mixed
// priorities against two replicas, a FaultPlan throwing/stalling at
// `fault_rate`, and a bounded-retry policy with `attempts` tries.
FaultCellResult run_cell(double fault_rate, std::size_t attempts,
                         std::uint64_t seed) {
  treu::core::Rng weights_rng(3);
  treu::rl::MlpQNet a(kStateDim, kHidden, kActions, weights_rng, 0.01);
  treu::core::Rng weights_rng2(3);
  treu::rl::MlpQNet b(kStateDim, kHidden, kActions, weights_rng2, 0.01);

  treu::fault::FaultPlanConfig plan_config;
  plan_config.throw_rate = fault_rate * 0.7;
  plan_config.stall_rate = fault_rate * 0.3;
  plan_config.stall_min = std::chrono::microseconds(100);
  plan_config.stall_max = std::chrono::microseconds(400);
  treu::fault::FaultPlan plan(plan_config, seed);

  serve::ServeConfig config;
  config.max_batch_size = 16;
  config.max_queue_delay = std::chrono::microseconds(200);
  config.max_pending = kBurst / 2;  // burst overflows: shedding must act
  config.shed_watermark = 0.75;
  config.deadline = std::chrono::milliseconds(250);
  config.retry.max_attempts = attempts;
  config.retry.base_backoff = std::chrono::microseconds(50);
  config.retry.multiplier = 2.0;
  config.retry.jitter = 0.25;
  config.retry.jitter_seed = seed;
  config.breaker.failure_threshold = 8;
  config.breaker.cooldown = std::chrono::microseconds(2000);
  config.injector = &plan;
  Server server({&a, &b}, config);

  const auto states = make_states(kBurst, 5);
  using clock = std::chrono::steady_clock;
  std::vector<std::future<Server::Response>> futs;
  std::vector<clock::time_point> submitted;
  futs.reserve(kBurst);
  submitted.reserve(kBurst);

  const auto start = clock::now();
  for (std::size_t i = 0; i < states.size(); ++i) {
    const auto priority = static_cast<serve::Priority>(i % 3);
    submitted.push_back(clock::now());
    futs.push_back(server.submit(states[i], priority));
  }

  // Admission failures surface on the future, not as submit throws, so the
  // drain loop is where requests are classified.
  std::uint64_t ok = 0, shed = 0, rejected = 0, failed = 0;
  std::vector<double> latency_us;
  latency_us.reserve(futs.size());
  for (std::size_t i = 0; i < futs.size(); ++i) {
    try {
      (void)futs[i].get();
      ++ok;
      latency_us.push_back(std::chrono::duration<double, std::micro>(
                               clock::now() - submitted[i])
                               .count());
    } catch (const serve::ShedError &) {
      ++shed;
    } catch (const serve::RejectedError &) {
      ++rejected;
    } catch (...) {
      ++failed;  // retry-exhausted fault or deadline miss
    }
  }
  const double elapsed_s =
      std::chrono::duration<double>(clock::now() - start).count();
  const auto stats = server.stats();
  server.shutdown();

  FaultCellResult r;
  r.goodput_rps = static_cast<double>(ok) / elapsed_s;
  r.p99_us = treu::core::quantile(latency_us, 0.99);
  r.shed_rate = static_cast<double>(shed + rejected) / kBurst;
  r.fail_rate = static_cast<double>(failed) / kBurst;
  r.injected = plan.events() - plan.injected(treu::fault::FaultKind::None);
  r.retries = stats.retries;
  return r;
}

void print_report(std::uint64_t seed) {
  std::printf("== Serving under faults: fault rate x retry policy ==\n");
  std::printf("  (burst %zu, 2 replicas, shed watermark 0.75, seed %llu)\n",
              kBurst, static_cast<unsigned long long>(seed));
  std::printf("  %8s %8s %12s %10s %7s %7s %9s %8s\n", "fault%", "retries",
              "goodput/s", "p99 us", "shed%", "fail%", "injected", "backoffs");
  for (const double fault_rate : {0.0, 0.1, 0.3}) {
    for (const std::size_t attempts : {std::size_t{1}, std::size_t{3}}) {
      const FaultCellResult r = run_cell(fault_rate, attempts, seed);
      std::printf("  %8.0f %8zu %12.0f %10.1f %7.1f %7.1f %9llu %8llu\n",
                  fault_rate * 100.0, attempts, r.goodput_rps, r.p99_us,
                  r.shed_rate * 100.0, r.fail_rate * 100.0,
                  static_cast<unsigned long long>(r.injected),
                  static_cast<unsigned long long>(r.retries));
    }
  }
  std::printf("\n");
}

void BM_FaultedBurst(benchmark::State &state) {
  const double fault_rate = static_cast<double>(state.range(0)) / 100.0;
  const auto attempts = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    const FaultCellResult r = run_cell(fault_rate, attempts, g_seed);
    state.counters["goodput_rps"] = r.goodput_rps;
    state.counters["p99_us"] = r.p99_us;
    state.counters["shed_pct"] = r.shed_rate * 100.0;
    state.counters["fail_pct"] = r.fail_rate * 100.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBurst));
}
BENCHMARK(BM_FaultedBurst)
    ->Args({0, 1})
    ->Args({10, 1})
    ->Args({10, 3})
    ->Args({30, 3})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

int main(int argc, char **argv) {
  const treu::bench::CommonFlags flags =
      treu::bench::parse_common_flags(argc, argv, /*default_seed=*/17);
  g_seed = flags.seed;
  print_report(flags.seed);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  treu::core::Manifest manifest;
  manifest.name = "bench_serve_faults";
  manifest.description =
      "Serving under injected faults: fault rate x retry policy sweep";
  manifest.set("burst", static_cast<std::int64_t>(kBurst));
  manifest.set("replicas", std::int64_t{2});
  manifest.set("shed_watermark", 0.75);
  manifest.set("fault_rates", std::string("0,0.1,0.3"));
  manifest.set("retry_attempts", std::string("1,3"));
  treu::bench::finish(flags, manifest);
  return 0;
}
