// Serving — dynamic-batching throughput (docs/serving.md): put a small MLP
// Q-network behind treu::serve::BatchServer and measure it twice. Open loop:
// requests arrive on a fixed schedule regardless of completions, the honest
// way to see queueing delay — for each (arrival rate, batch cap) cell we
// report achieved throughput, p50/p99 end-to-end latency, and the mean batch
// the server formed. Closed loop: a saturating burst, so throughput vs batch
// cap shows how backlog converts to batch size. On the 1-core container the
// global pool runs batches inline on the batcher thread; numbers compress
// but every shape survives.

#include <benchmark/benchmark.h>

#include "common.hpp"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "treu/core/manifest.hpp"
#include "treu/core/rng.hpp"
#include "treu/core/stats.hpp"
#include "treu/rl/qnet.hpp"
#include "treu/serve/batch_server.hpp"

namespace {

constexpr std::size_t kStateDim = 16;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kActions = 4;

using Server = treu::serve::BatchServer<std::vector<double>, std::vector<double>>;

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

struct OpenLoopResult {
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double mean_batch = 0.0;
};

// Submit `states` at a fixed arrival rate, then drain the futures in FIFO
// order. The server serves FIFO, so by the time get(i) returns request i has
// just completed (or the waiter was behind, which only rounds latency up);
// latency_i = get-return - submit_i is honest end-to-end time.
OpenLoopResult open_loop(treu::rl::MlpQNet &net, std::size_t max_batch,
                         double rate_per_sec,
                         const std::vector<std::vector<double>> &states) {
  treu::serve::ServeConfig config;
  config.max_batch_size = max_batch;
  config.max_queue_delay = std::chrono::microseconds(1000);
  config.max_pending = states.size();
  Server server(net, config);

  using clock = std::chrono::steady_clock;
  const auto interarrival = std::chrono::nanoseconds(
      static_cast<std::int64_t>(1e9 / rate_per_sec));
  std::vector<std::future<Server::Response>> futs;
  std::vector<clock::time_point> submitted;
  futs.reserve(states.size());
  submitted.reserve(states.size());

  const auto start = clock::now();
  auto next = start;
  for (const auto &s : states) {
    std::this_thread::sleep_until(next);
    next += interarrival;
    submitted.push_back(clock::now());
    futs.push_back(server.submit(s));
  }

  std::vector<double> latency_us;
  latency_us.reserve(futs.size());
  for (std::size_t i = 0; i < futs.size(); ++i) {
    (void)futs[i].get();
    latency_us.push_back(std::chrono::duration<double, std::micro>(
                             clock::now() - submitted[i])
                             .count());
  }
  const double elapsed_s =
      std::chrono::duration<double>(clock::now() - start).count();

  OpenLoopResult r;
  r.throughput_rps = static_cast<double>(states.size()) / elapsed_s;
  r.p50_us = treu::core::quantile(latency_us, 0.50);
  r.p99_us = treu::core::quantile(latency_us, 0.99);
  const auto stats = server.stats();
  r.mean_batch = stats.batches == 0 ? 0.0
                                    : static_cast<double>(stats.completed) /
                                          static_cast<double>(stats.batches);
  server.shutdown();
  return r;
}

// Saturating burst: everything submitted at once, wall time measured to the
// last response.
double closed_loop_rps(treu::rl::MlpQNet &net, std::size_t max_batch,
                       const std::vector<std::vector<double>> &states) {
  treu::serve::ServeConfig config;
  config.max_batch_size = max_batch;
  config.max_queue_delay = std::chrono::microseconds(200);
  config.max_pending = states.size();
  Server server(net, config);

  const auto start = std::chrono::steady_clock::now();
  auto futs = server.submit_many(
      std::span<const std::vector<double>>(states.data(), states.size()));
  for (auto &f : futs) (void)f.get();
  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  server.shutdown();
  return static_cast<double>(states.size()) / elapsed_s;
}

void print_report() {
  std::printf("== Serving: dynamic batching, open + closed loop ==\n");
  treu::core::Rng rng(3);
  treu::rl::MlpQNet net(kStateDim, kHidden, kActions, rng, 0.01);
  const auto states = make_states(240, 3);

  std::printf("  open loop (240 requests per cell)\n");
  std::printf("  %9s %6s %12s %10s %10s %10s\n", "rate/s", "cap", "achieved/s",
              "p50 us", "p99 us", "mean batch");
  for (const double rate : {2000.0, 8000.0, 32000.0}) {
    for (const std::size_t cap : {std::size_t{1}, std::size_t{8},
                                  std::size_t{32}}) {
      const OpenLoopResult r = open_loop(net, cap, rate, states);
      std::printf("  %9.0f %6zu %12.0f %10.1f %10.1f %10.2f\n", rate, cap,
                  r.throughput_rps, r.p50_us, r.p99_us, r.mean_batch);
    }
  }

  std::printf("  closed loop (512-request saturating burst)\n");
  std::printf("  %6s %12s\n", "cap", "served/s");
  const auto burst = make_states(512, 4);
  for (const std::size_t cap :
       {std::size_t{1}, std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
    std::printf("  %6zu %12.0f\n", cap, closed_loop_rps(net, cap, burst));
  }
  std::printf("\n");
}

void BM_OpenLoop(benchmark::State &state) {
  treu::core::Rng rng(3);
  treu::rl::MlpQNet net(kStateDim, kHidden, kActions, rng, 0.01);
  const auto states = make_states(160, 3);
  const auto rate = static_cast<double>(state.range(0));
  const auto cap = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    const OpenLoopResult r = open_loop(net, cap, rate, states);
    state.counters["achieved_rps"] = r.throughput_rps;
    state.counters["p50_us"] = r.p50_us;
    state.counters["p99_us"] = r.p99_us;
    state.counters["mean_batch"] = r.mean_batch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(states.size()));
}
BENCHMARK(BM_OpenLoop)
    ->Args({4000, 1})
    ->Args({4000, 8})
    ->Args({4000, 32})
    ->Args({16000, 8})
    ->Args({16000, 32})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

void BM_ClosedLoopSaturation(benchmark::State &state) {
  treu::core::Rng rng(3);
  treu::rl::MlpQNet net(kStateDim, kHidden, kActions, rng, 0.01);
  const auto states = make_states(384, 4);
  const auto cap = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.counters["served_rps"] = closed_loop_rps(net, cap, states);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(states.size()));
}
BENCHMARK(BM_ClosedLoopSaturation)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

int main(int argc, char **argv) {
  const treu::bench::CommonFlags flags =
      treu::bench::parse_common_flags(argc, argv, /*default_seed=*/3);
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  treu::core::Manifest manifest;
  manifest.name = "bench_serve_throughput";
  manifest.description =
      "Serving: dynamic-batching throughput, open + closed loop";
  manifest.set("requests_per_cell", std::int64_t{240});
  manifest.set("burst", std::int64_t{512});
  treu::bench::finish(flags, manifest);
  return 0;
}
