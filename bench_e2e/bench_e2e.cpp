// bench_e2e: the end-to-end benchmark of the serving stack, from
// cluster::ClusterController through worker processes, serve::BatchServer
// and graph::PlanPredictor down to tensor::Kernel.
//
//   bench_e2e --seed N [--workload NAME|all] [--seconds S] [--trace 0|1]
//             [--json PATH]
//
// Every input comes from --seed: request features, the Poisson schedule,
// model weights of every version, and which worker each kill hits. Each
// metric is printed as "workload metric value unit n=<samples>", and the
// last line of stdout is one JSON object {correct, attempted, failed,
// metrics}. --trace 0 measures the end-to-end metrics with tracing off;
// --trace 1 is a separate traced run that reports the per-layer metrics.
// Any failed correctness check exits 1. See README.md for the workloads
// and the metric table.
//
// Like cluster_test, this binary hosts its own workers: main() registers
// the "e2e_mlp" kind and calls maybe_run_worker() first.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "loadgen.hpp"
#include "treu/cluster/controller.hpp"
#include "treu/graph/interp.hpp"
#include "treu/obs/json.hpp"
#include "treu/pipeline/registry.hpp"
#include "treu/tensor/kernels.hpp"
#include "worker.hpp"

namespace treu::bench_e2e {
namespace {

namespace fs = std::filesystem;
using Response = cluster::ClusterResponse;
using Future = std::future<Response>;

constexpr std::size_t kWorkers = 2;
constexpr int kSetupReps = 21;      // controller constructions per run
constexpr double kWarmupS = 1.0;    // discarded traffic before measuring
// Shares of --seconds in the traced run: a closed loop and two open loops.
constexpr double kClosedShare = 0.3;
constexpr double kTracedShare = 0.35;
constexpr std::size_t kClosedConcurrency = 128;
constexpr std::size_t kPeakWindows = 10;
constexpr std::size_t kIdleDeploys = 21;
constexpr std::size_t kP99Window = 1000;  // requests per p99 window
constexpr std::uint64_t kCheckEvery = 64;  // verify every 64th request
constexpr std::size_t kProbeRequests = 16;

/// The traffic mixes. Why each exists is in README.md.
struct Workload {
  const char *name;
  ModelShape shape;
  double rate_rps;        // open-loop arrival rate
  double deploy_every_s;  // > 0: publish and roll out a version this often
  double kill_every_s;    // > 0: SIGKILL a worker this often
};

constexpr Workload kWorkloads[] = {
    {"small_mlp", {32, 64}, 16000.0, 0.0, 0.0},
    {"wide_mlp", {128, 256}, 4000.0, 0.0, 0.0},
    {"deploy_under_load", {32, 64}, 4000.0, 0.5, 0.0},
    {"failover", {32, 64}, 8000.0, 0.0, 0.5},
};

struct Options {
  std::uint64_t seed = 1;
  std::string workload = "all";
  double seconds = 10.0;
  bool trace = false;
  std::string json_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t n = 0;
};

/// One workload's result: metrics, operation counts and failed checks.
struct Report {
  std::string workload;
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(std::string name, double value, std::string unit, std::size_t n) {
    metrics.push_back({std::move(name), value, std::move(unit), n});
  }
  void check(bool ok, const std::string &what) {
    if (!ok) errors.push_back(what);
  }
  [[nodiscard]] bool correct() const { return errors.empty(); }
};

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5).value; }

/// VmHWM of a process in MB; 0 when unreadable.
double vm_hwm_mb(const std::string &pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Work files of one workload run (registries, worker logs, traces), in
/// "work" beside the executable, i.e. inside the build tree.
std::string run_dir(const Workload &w, const Options &opt) {
  const fs::path exe = fs::read_symlink("/proc/self/exe");
  return (exe.parent_path() / "work").string() + "/" + w.name + "-" +
         std::to_string(opt.seed) + "-" + std::to_string(::getpid());
}

bool bits_equal(const std::vector<double> &a, const std::vector<double> &b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// An open- or closed-loop phase: request i (local) is global request
/// base + i.
struct Phase {
  std::uint64_t base = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  // end of the schedule
  std::vector<RequestTiming> t;
  std::vector<std::uint64_t> out_keys;  // logits key per request (traced)
};

struct DeployTiming {
  double publish_ms = 0.0;
  double vet_ms = 0.0;
  double reload_ms = 0.0;
  double total_ms = 0.0;
  double bytes = 0.0;
};

/// One workload run: the cluster, the model versions it has served, the
/// registry it deploys from, and the correctness checks on all of them.
class Run {
 public:
  Run(const Workload &w, const Options &opt, Report &report)
      : w_(w), opt_(opt), report_(report), dir_(run_dir(w, opt)) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  Run(const Run &) = delete;
  Run &operator=(const Run &) = delete;
  ~Run() {
    if (ctrl_) ctrl_->shutdown();
  }

  [[nodiscard]] const std::string &dir() const { return dir_; }
  [[nodiscard]] cluster::ClusterController &ctrl() { return *ctrl_; }

  /// Construct a cluster (spawn, capture and compile, Hello) and return
  /// how long the constructor took, in seconds. Replaces any earlier one.
  double start_cluster(bool traced) {
    stop_cluster();
    ++session_;
    log_dir_ = dir_ + "/session-" + std::to_string(session_);
    fs::create_directories(log_dir_);
    registry_ = std::make_unique<pipeline::ModelRegistry>(log_dir_ +
                                                          "/registry");
    started_.store(0);
    done_.store(0);

    cluster::ClusterConfig c;
    c.worker_kind = kWorkerKind;
    c.workers = kWorkers;
    c.worker_args = {"--dim",  std::to_string(w_.shape.dim),
                     "--width", std::to_string(w_.shape.width),
                     "--seed", std::to_string(opt_.seed),
                     "--trace", traced ? "1" : "0"};
    c.log_dir = log_dir_;
    c.max_inflight = 8192;
    c.trace_seed = opt_.seed;
    if (w_.kill_every_s > 0.0) {
      c.heartbeat_interval = std::chrono::microseconds(5000);
      c.heartbeat_timeout = std::chrono::microseconds(50000);
      c.retry.max_attempts = 4;
      c.retry.base_backoff = std::chrono::microseconds(200);
      c.retry.multiplier = 2.0;
      c.retry.max_backoff = std::chrono::microseconds(2000);
      c.auto_restart = true;
      c.max_restarts = 1000;
    } else {
      // A reload runs on the worker's reader thread, which answers no
      // heartbeat meanwhile; a slow reload is not a death.
      c.heartbeat_timeout = std::chrono::microseconds(2000000);
    }
    const std::int64_t t0 = mono_ns();
    ctrl_ = std::make_unique<cluster::ClusterController>(c);
    return ms_between(t0, mono_ns()) / 1e3;
  }

  /// Shut the cluster down (workers write their traces) and check its
  /// accounting.
  void stop_cluster() {
    if (!ctrl_) return;
    ctrl_->shutdown();
    const cluster::ClusterStats s = ctrl_->stats();
    const std::string at = "session " + std::to_string(session_) + ": ";
    report_.check(s.submitted == s.admitted + s.rejected + s.shed,
                  at + "submitted != admitted + rejected + shed");
    report_.check(s.admitted == s.fulfilled + s.failed,
                  at + "admitted != fulfilled + failed");
    report_.check(s.submitted == sent_, at + "cluster saw " +
                                            std::to_string(s.submitted) +
                                            " submits, bench sent " +
                                            std::to_string(sent_));
    report_.check(s.frames_torn == 0 && s.frames_corrupt == 0,
                  at + "torn or corrupt frames");
    if (w_.kill_every_s <= 0.0) {
      report_.check(s.failovers + s.retries + s.worker_deaths +
                            s.worker_restarts + s.duplicate_responses +
                            s.timeouts ==
                        0,
                    at + "failover machinery ran without kills");
    }
    sent_ = 0;
    ctrl_.reset();
  }

  /// Open loop at the workload's rate for `seconds`; with `disturb`, the
  /// workload's deploys or kills run meanwhile.
  Phase open_phase(std::uint64_t phase_id, double seconds, bool disturb,
                   bool traced, std::vector<DeployTiming> *deploys) {
    Phase p;
    p.base = phase_id << 40;
    const auto due = poisson_schedule(
        w_.rate_rps, seconds, core::Rng(opt_.seed, (3ULL << 60) + phase_id));
    p.out_keys.assign(traced ? due.size() : 0, 0);
    lo_.assign(due.size(), 0);
    p.start_ns = mono_ns() + 2'000'000;
    p.end_ns = p.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    const auto during = [&] {
      if (!disturb) return;
      if (w_.deploy_every_s > 0.0) {
        every(w_.deploy_every_s, p, [&] {
          DeployTiming d;
          if (deploy(d) && deploys != nullptr) deploys->push_back(d);
        });
      }
      if (w_.kill_every_s > 0.0) {
        core::Rng rng(opt_.seed, (4ULL << 60) + phase_id);
        every(w_.kill_every_s, p, [&] { kill_one(rng); });
      }
    };
    p.t = open_loop<Future>(p.start_ns, due, maker(p), sender(),
                            receiver(p, traced), during);
    finish_phase(p);
    return p;
  }

  /// Closed loop with `concurrency` requests outstanding for `seconds`.
  Phase closed_phase(std::uint64_t phase_id, double seconds,
                     std::size_t concurrency) {
    report_.check(wait_ready(), "workers not ready for the closed loop");
    Phase p;
    p.base = phase_id << 40;
    lo_.clear();  // no deploys run here, so done_ is constant
    p.start_ns = mono_ns();
    p.end_ns = p.start_ns + static_cast<std::int64_t>(seconds * 1e9);
    p.t = closed_loop<Future>(concurrency, p.end_ns, maker(p), sender(),
                              receiver(p, false));
    finish_phase(p);
    return p;
  }

  /// Publish version v+1, re-vet the registry, reload it on every shard.
  bool deploy(DeployTiming &d) {
    ++report_.attempted;
    const std::uint64_t v = started_.load() + 1;
    const auto model = make_model(w_.shape, opt_.seed, v);
    const std::vector<nn::Param *> params = model->params();
    const ckpt::TrainingCheckpoint snapshot =
        ckpt::TrainingCheckpoint::capture(params, nullptr, nullptr, v);
    const std::string digest = snapshot.weight_digest().hex();
    const std::string what = "deploy v" + std::to_string(v) + ": ";
    started_.store(v);

    const std::int64_t t0 = mono_ns();
    const pipeline::ModelRegistry::PublishReport pub =
        registry_->publish(snapshot);
    const std::int64_t t1 = mono_ns();
    const std::optional<pipeline::RegistryEntry> latest =
        registry_->latest_vetted();
    const std::int64_t t2 = mono_ns();
    bool ok = pub.committed && pub.logged && pub.vetted && latest &&
              latest->version == pub.entry.version &&
              latest->weight_digest == digest;
    report_.check(ok, what + "publish/vet failed " + pub.error);
    if (ok) {
      const std::string path = registry_->dir() + "/" + latest->filename;
      for (std::size_t s = 0; s < kWorkers; ++s) {
        const cluster::ReloadOutcome r = ctrl_->reload_worker(s, path, digest);
        const bool shard_ok = r.ok && r.weight_hash == digest &&
                              ctrl_->worker(s).weight_hash == digest;
        report_.check(shard_ok, what + "reload of shard " + std::to_string(s) +
                                    " failed " + r.error);
        ok = ok && shard_ok;
      }
      d.bytes = static_cast<double>(fs::file_size(path));
    }
    const std::int64_t t3 = mono_ns();
    if (!ok) {
      ++report_.failed;
      return false;
    }
    done_.store(v);
    d.publish_ms = ms_between(t0, t1);
    d.vet_ms = ms_between(t1, t2);
    d.reload_ms = ms_between(t2, t3);
    d.total_ms = ms_between(t0, t3);
    return true;
  }

  std::vector<DeployTiming> idle_deploys() {
    std::vector<DeployTiming> out;
    report_.check(wait_ready(), "workers not ready before deploys");
    for (std::size_t k = 0; k < kIdleDeploys; ++k) {
      DeployTiming d;
      if (deploy(d)) out.push_back(d);
    }
    return out;
  }

  /// A few requests after the last deploy, each checked against it.
  void probe(std::uint64_t phase_id) {
    report_.check(wait_ready(), "workers not ready for the probe");
    for (std::uint64_t i = 0; i < kProbeRequests; ++i) {
      const std::uint64_t id = (phase_id << 40) + i * kCheckEvery;
      const auto features = features_for(opt_.seed, w_.shape.dim, id);
      ++sent_;
      ++report_.attempted;
      try {
        Response r = ctrl_->submit(0, serve::Priority::Normal,
                                   cluster::encode_features(features))
                         .get();
        samples_.push_back({id, done_.load(), done_.load(), std::move(r.payload)});
      } catch (const std::exception &e) {
        ++report_.failed;
        note_failure(e.what());
      }
    }
    verify_samples();
  }

  /// Note each shard's VmHWM. A killed worker's successor starts low, so
  /// a shard keeps the highest value any of its processes reached.
  void note_rss() {
    for (std::size_t s = 0; s < kWorkers; ++s) {
      const cluster::WorkerInfo info = ctrl_->worker(s);
      if (info.live) {
        shard_hwm_mb_[s] =
            std::max(shard_hwm_mb_[s], vm_hwm_mb(std::to_string(info.pid)));
      }
    }
  }

  /// Sum of the shards' VmHWM in MB. The controller is left out: it
  /// shares this process with the load generator, whose per-request
  /// records grow with throughput.
  double rss_mb() {
    note_rss();
    double total = 0.0;
    for (const double mb : shard_hwm_mb_) total += mb;
    return total;
  }

  /// Local model of a version, built from the seed like the workers'.
  graph::PlanPredictor &reference(std::uint64_t version) {
    auto &slot = references_[version];
    if (!slot) {
      const auto model = make_model(w_.shape, opt_.seed, version);
      slot = compile_model(*model);
    }
    return *slot;
  }

 private:
  struct Sample {
    std::uint64_t id = 0;
    std::uint64_t lo = 0;  // versions the response may come from
    std::uint64_t hi = 0;
    std::vector<std::uint8_t> payload;
  };

  template <typename Fn>
  void every(double period_s, const Phase &p, Fn fn) {
    const auto period = static_cast<std::int64_t>(period_s * 1e9);
    for (std::int64_t t = p.start_ns + period / 2; t < p.end_ns; t += period) {
      sleep_until_ns(t);
      fn();
    }
  }

  [[nodiscard]] bool wait_ready() {
    const std::int64_t deadline = mono_ns() + 10'000'000'000;
    while (mono_ns() < deadline) {
      bool all = true;
      for (std::size_t s = 0; s < kWorkers; ++s) {
        const cluster::WorkerInfo info = ctrl_->worker(s);
        all = all && info.live && info.ready;
      }
      if (all) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  }

  /// Kill one worker picked from the seed, once both are serving, so
  /// that one shard is always left to fail over to.
  void kill_one(core::Rng &rng) {
    report_.check(wait_ready(), "worker did not come back after a kill");
    ctrl_->kill_worker(rng.uniform_index(kWorkers));
  }

  using Payload = std::vector<std::uint8_t>;

  [[nodiscard]] std::function<Payload(std::uint64_t)> maker(const Phase &p) {
    return [this, base = p.base](std::uint64_t i) {
      return cluster::encode_features(
          features_for(opt_.seed, w_.shape.dim, base + i));
    };
  }

  [[nodiscard]] std::function<Future(std::uint64_t, Payload &&)> sender() {
    return [this](std::uint64_t i, Payload &&payload) {
      if (i < lo_.size()) lo_[i] = done_.load();
      return ctrl_->submit(0, serve::Priority::Normal, std::move(payload));
    };
  }

  /// Consumes each future on the collector thread: keeps every 64th
  /// payload for verification and, when traced, each reply's logits key.
  [[nodiscard]] std::function<bool(std::uint64_t, Future &)> receiver(
      Phase &p, bool traced) {
    return [this, &p, traced](std::uint64_t i, Future &f) {
      Response r;
      try {
        r = f.get();
      } catch (const std::exception &e) {
        note_failure(e.what());
        return false;
      }
      if (traced) {
        Scores s;
        if (cluster::decode_scores(r.payload, s)) p.out_keys[i] = key_of(s.logits);
      }
      const std::uint64_t id = p.base + i;
      if (id % kCheckEvery == 0) {
        const std::uint64_t lo = i < lo_.size() ? lo_[i] : done_.load();
        samples_.push_back({id, lo, started_.load(), std::move(r.payload)});
      }
      return true;
    };
  }

  void note_failure(const char *what) {
    if (first_failure_.empty()) {
      first_failure_ = what;
      std::fprintf(stderr, "bench_e2e: %s: request failed: %s\n", w_.name,
                   what);
    }
  }

  void finish_phase(Phase &p) {
    std::uint64_t failed = 0, unresolved = 0;
    for (const RequestTiming &t : p.t) {
      if (t.done_ns == 0) ++unresolved;
      if (!t.ok) ++failed;
    }
    report_.check(unresolved == 0, std::to_string(unresolved) +
                                       " submitted requests never resolved");
    sent_ += p.t.size();
    report_.attempted += p.t.size();
    report_.failed += failed;
    verify_samples();
  }

  /// Compare each kept response bitwise (label and logits) with a local
  /// PlanPredictor of every version it may come from.
  void verify_samples() {
    for (const Sample &s : samples_) {
      Scores got;
      bool ok = cluster::decode_scores(s.payload, got);
      bool matched = false;
      const auto features = features_for(opt_.seed, w_.shape.dim, s.id);
      for (std::uint64_t v = s.lo; ok && !matched && v <= s.hi; ++v) {
        const Scores want = reference(v).predict_one(features);
        matched = want.label == got.label && bits_equal(want.logits, got.logits);
      }
      report_.check(matched, "response to request " + std::to_string(s.id) +
                                 " matches no version in [" +
                                 std::to_string(s.lo) + ", " +
                                 std::to_string(s.hi) + "]");
    }
    samples_.clear();
  }

  const Workload &w_;
  const Options &opt_;
  Report &report_;
  std::string dir_;
  std::string log_dir_;
  int session_ = 0;
  std::unique_ptr<pipeline::ModelRegistry> registry_;
  std::unique_ptr<cluster::ClusterController> ctrl_;
  std::atomic<std::uint64_t> started_{0};  // newest version being deployed
  std::atomic<std::uint64_t> done_{0};     // newest version on every shard
  std::vector<std::uint64_t> lo_;          // done_ when request i was sent
  std::vector<Sample> samples_;
  std::uint64_t sent_ = 0;
  double shard_hwm_mb_[kWorkers] = {};
  std::string first_failure_;
  std::map<std::uint64_t, std::unique_ptr<graph::PlanPredictor>> references_;
};

// ---- end-to-end metrics (--trace 0) ----------------------------------------

std::vector<double> latencies_ms(const Phase &p) {
  std::vector<double> out;
  out.reserve(p.t.size());
  for (const RequestTiming &t : p.t) {
    out.push_back(t.ok ? ms_between(t.due_ns, t.done_ns)
                       : std::numeric_limits<double>::infinity());
  }
  return out;
}

/// Median over consecutive windows of kP99Window requests of each
/// window's p99. A host hiccup (this runs on shared hosts) lifts the p99 of
/// the few windows it overlaps, not the metric.
Quantile windowed_p99_ms(const Phase &p) {
  const std::vector<double> lat = latencies_ms(p);
  if (lat.size() < kP99Window) return quantile(lat, 0.99);
  std::vector<double> p99s;
  for (std::size_t at = 0; at + kP99Window <= lat.size(); at += kP99Window) {
    p99s.push_back(
        quantile({lat.begin() + static_cast<std::ptrdiff_t>(at),
                  lat.begin() + static_cast<std::ptrdiff_t>(at + kP99Window)},
                 0.99)
            .value);
  }
  return {median(p99s), lat.size()};
}

/// Median over kPeakWindows equal windows of the closed loop of the
/// fulfilled requests per second.
double peak_rps(const Phase &p) {
  std::vector<double> counts(kPeakWindows, 0.0);
  const double span = static_cast<double>(p.end_ns - p.start_ns);
  for (const RequestTiming &t : p.t) {
    if (!t.ok || t.done_ns >= p.end_ns) continue;
    counts[static_cast<std::size_t>(static_cast<double>(t.done_ns - p.start_ns) /
                                    span * kPeakWindows)] += 1.0;
  }
  return median(counts) * kPeakWindows / (span / 1e9);
}

void run_untraced(const Workload &w, const Options &opt, Report &report) {
  Run run(w, opt, report);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupReps; ++r) {
    setup_s.push_back(run.start_cluster(false));
  }

  (void)run.open_phase(0, kWarmupS, false, false, nullptr);
  run.note_rss();  // before any kill replaces a worker
  const Phase nominal = run.open_phase(1, opt.seconds, true, false, nullptr);
  run.probe(2);
  const double rss = run.rss_mb();
  run.stop_cluster();

  std::size_t fulfilled = 0;
  std::int64_t last_done = nominal.start_ns;
  for (const RequestTiming &t : nominal.t) {
    if (!t.ok) continue;
    ++fulfilled;
    last_done = std::max(last_done, t.done_ns);
  }
  const Quantile p50 = quantile(latencies_ms(nominal), 0.5);
  report.add("p50_ms", p50.value, "ms", p50.n);
  const Quantile p99 = windowed_p99_ms(nominal);
  report.add("p99_ms", p99.value, "ms", p99.n);
  report.add("goodput_rps",
             static_cast<double>(fulfilled) /
                 (static_cast<double>(last_done - nominal.start_ns) / 1e9),
             "req/s", nominal.t.size());
  report.add("setup_s", median(setup_s), "s", setup_s.size());
  report.add("rss_mb", rss, "MB", kWorkers);
}

// ---- per-layer metrics (--trace 1) -----------------------------------------

/// Adds "<name>.p50" and "<name>.p99".
void add_spread(Report &report, const std::string &name,
                const std::vector<double> &v, const char *unit) {
  const Quantile p50 = quantile(v, 0.5);
  const Quantile p99 = quantile(v, 0.99);
  report.add(name + ".p50", p50.value, unit, p50.n);
  report.add(name + ".p99", p99.value, unit, p99.n);
}

/// Join the controller's stamps with the workers' records and report the
/// six contiguous stages of each request (lag, dispatch, wait, graph,
/// reply, return), which sum to its end-to-end latency.
double report_stages(Run &run, const Workload &w, const Options &opt,
                     const Phase &p, Report &report) {
  TraceRecords rec;
  std::size_t files = 0;
  for (const auto &entry : fs::recursive_directory_iterator(run.dir())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("trace-", 0) != 0) continue;
    ++files;
    report.check(read_trace_file(entry.path().string(), rec),
                 "unreadable trace file " + name);
  }
  report.check(files >= kWorkers, "workers wrote " + std::to_string(files) +
                                      " trace files");
  std::unordered_map<std::uint64_t, std::int64_t> decoded, encoded;
  for (const auto &s : rec.decoded) decoded.emplace(s.key, s.t_ns);
  for (const auto &s : rec.encoded) encoded.emplace(s.key, s.t_ns);
  std::unordered_map<std::uint64_t, const TraceRecords::Row *> rows;
  for (const auto &r : rec.rows) rows.emplace(r.in_key, &r);

  enum { kLag, kDispatch, kWait, kGraph, kReply, kReturn, kStages };
  // The graph stage is reported per batch below, as graph.batch_us.
  static const char *const kNames[kStages] = {
      "loadgen.lag_us", "cluster.dispatch_us", "serve.wait_us",
      nullptr,          "serve.reply_us",      "cluster.return_us"};
  std::vector<double> stage_us[kStages];
  std::vector<double> submit_us;
  double stage_sum[kStages] = {};
  std::size_t joined = 0, fulfilled = 0;
  for (std::size_t i = 0; i < p.t.size(); ++i) {
    const RequestTiming &t = p.t[i];
    submit_us.push_back(static_cast<double>(t.submitted_ns - t.submit_ns) / 1e3);
    if (!t.ok) continue;
    ++fulfilled;
    const std::uint64_t in_key =
        key_of(features_for(opt.seed, w.shape.dim, p.base + i));
    const auto d = decoded.find(in_key);
    const auto r = rows.find(in_key);
    const auto e = encoded.find(p.out_keys[i]);
    if (d == decoded.end() || r == rows.end() || e == encoded.end() ||
        r->second->out_key != p.out_keys[i]) {
      continue;
    }
    ++joined;
    const std::int64_t edges[kStages + 1] = {
        t.due_ns,          t.submit_ns, d->second, r->second->start_ns,
        r->second->end_ns, e->second,   t.done_ns};
    for (int s = 0; s < kStages; ++s) {
      const double us = static_cast<double>(edges[s + 1] - edges[s]) / 1e3;
      stage_us[s].push_back(us);
      stage_sum[s] += us;
    }
  }
  double total = 0.0;
  for (double v : stage_sum) total += v;
  for (int s = 0; s < kStages; ++s) {
    if (kNames[s] != nullptr) add_spread(report, kNames[s], stage_us[s], "us");
  }
  add_spread(report, "cluster.submit_us", submit_us, "us");
  static const char *const kShares[kStages] = {
      "stage.lag_share",   "stage.dispatch_share", "stage.wait_share",
      "stage.graph_share", "stage.reply_share",    "stage.return_share"};
  for (int s = 0; s < kStages; ++s) {
    report.add(kShares[s], total > 0.0 ? stage_sum[s] / total : 0.0, "ratio",
               joined);
  }
  report.add("trace.joined_share",
             fulfilled ? static_cast<double>(joined) / fulfilled : 0.0, "ratio",
             fulfilled);

  // Batches the replicas ran during the phase.
  std::vector<double> batch_us, row_us, batch_rows;
  double busy_ns = 0.0;
  for (const auto &b : rec.batches) {
    if (b.start_ns < p.start_ns || b.start_ns >= p.end_ns) continue;
    const double us = static_cast<double>(b.end_ns - b.start_ns) / 1e3;
    batch_us.push_back(us);
    row_us.push_back(us / static_cast<double>(b.rows));
    batch_rows.push_back(static_cast<double>(b.rows));
    busy_ns += static_cast<double>(b.end_ns - b.start_ns);
  }
  double mean_rows = 0.0;
  for (double r : batch_rows) mean_rows += r;
  if (!batch_rows.empty()) mean_rows /= static_cast<double>(batch_rows.size());
  add_spread(report, "graph.batch_us", batch_us, "us");
  const Quantile row = quantile(row_us, 0.5);
  report.add("graph.row_us.p50", row.value, "us", row.n);
  report.add("serve.batch_rows", mean_rows, "rows", batch_rows.size());
  report.add("serve.busy_share",
             busy_ns / (static_cast<double>(p.end_ns - p.start_ns) *
                        static_cast<double>(kWorkers * kReplicas)),
             "ratio", batch_rows.size());
  return median(batch_rows);
}

/// Median over 7 repetitions of the mean time of `fn` over >= 3 ms.
template <typename Fn>
double time_ns(Fn fn) {
  std::vector<double> reps;
  for (int r = 0; r < 7; ++r) {
    int calls = 0;
    const std::int64_t t0 = mono_ns();
    std::int64_t t1 = t0;
    while (t1 - t0 < 3'000'000) {
      fn();
      ++calls;
      t1 = mono_ns();
    }
    reps.push_back(static_cast<double>(t1 - t0) / calls);
  }
  return median(reps);
}

/// Replay each matmul node of the compiled plan through tensor::Kernel
/// with the node's own KernelParams, on the activations the plan computes
/// for a batch of `rows` requests (post-ReLU zeros matter: the plan skips
/// them). FLOPs and bytes are computed from the shapes, not measured.
void report_kernels(graph::PlanPredictor &plan, const Workload &w,
                    const Options &opt, std::size_t rows, Report &report) {
  tensor::Matrix x(rows, w.shape.dim);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto f = features_for(opt.seed, w.shape.dim, r);
    std::copy(f.begin(), f.end(), x.row(r).begin());
  }
  const graph::Graph &g = plan.plan().graph();
  auto &pool = tensor::Kernel::default_pool();
  std::vector<tensor::Matrix> vals(g.size());
  const auto value = [&](graph::NodeId id) -> const tensor::Matrix * {
    const graph::Node &n = g.node(id);
    return n.op == graph::OpKind::Const ? &n.value : &vals[id];
  };
  double kernel_ns = 0.0, flops = 0.0, bytes = 0.0;
  std::size_t k = 0;
  for (const graph::Node &node : g.nodes()) {
    if (node.op == graph::OpKind::Const) continue;
    if (node.op == graph::OpKind::Input) {
      vals[node.id] = x;
      continue;
    }
    std::vector<const tensor::Matrix *> in;
    for (const graph::NodeId id : node.inputs) in.push_back(value(id));
    const tensor::KernelParams kp =
        node.attrs.kernel_set ? node.attrs.kernel : graph::reference_params();
    vals[node.id] = graph::eval_node(node, in, kp, pool);
    if (node.op != graph::OpKind::MatMul &&
        node.op != graph::OpKind::FusedMatMulBiasAct) {
      continue;
    }
    const tensor::Matrix &a = *in[0];
    const tensor::Matrix &b = *in[1];
    const double ns =
        time_ns([&] { (void)tensor::Kernel::matmul(a, b, kp, pool); });
    const double f = 2.0 * static_cast<double>(rows * b.rows() * b.cols());
    kernel_ns += ns;
    flops += f;
    bytes += 8.0 * static_cast<double>(a.size() + b.size() + rows * b.cols());
    std::printf("# tensor.mm%zu: %zux%zux%zu (MxKxN)\n", k, rows, b.rows(),
                b.cols());
    report.add("tensor.mm" + std::to_string(k) + ".gflops", f / ns, "GFLOP/s",
               7);
    ++k;
  }
  report.check(k == 3, "expected 3 matmul nodes, found " + std::to_string(k));
  const double plan_ns = time_ns([&] { (void)plan.plan().run(x); });
  report.add("tensor.kernel_share", kernel_ns / plan_ns, "ratio", 7);
  report.add("tensor.flops_per_row", flops / static_cast<double>(rows), "FLOP",
             rows);
  report.add("tensor.bytes_per_row", bytes / static_cast<double>(rows), "B",
             rows);
}

void run_traced(const Workload &w, const Options &opt, Report &report) {
  Run run(w, opt, report);
  std::vector<double> compile_ms;
  const auto model = make_model(w.shape, opt.seed, 0);
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = mono_ns();
    (void)compile_model(*model);
    compile_ms.push_back(ms_between(t0, mono_ns()));
  }
  const double phase_s = opt.seconds * kTracedShare;

  // Untraced: the closed loop, then the twin of the traced phase, for the
  // tracing overhead.
  (void)run.start_cluster(false);
  (void)run.open_phase(0, kWarmupS, false, false, nullptr);
  const Phase closed = run.closed_phase(1, opt.seconds * kClosedShare,
                                        kClosedConcurrency);
  const Phase plain = run.open_phase(2, phase_s, true, false, nullptr);
  run.stop_cluster();

  (void)run.start_cluster(true);
  (void)run.open_phase(3, kWarmupS, false, true, nullptr);
  const cluster::ClusterStats before = run.ctrl().stats();
  std::vector<DeployTiming> deploys;
  const Phase traced = run.open_phase(4, phase_s, true, true, &deploys);
  const cluster::ClusterStats after = run.ctrl().stats();
  if (w.deploy_every_s <= 0.0) deploys = run.idle_deploys();
  run.probe(5);
  run.stop_cluster();

  const double rows = report_stages(run, w, opt, traced, report);
  report.add("trace.overhead_p50_ms",
             quantile(latencies_ms(traced), 0.5).value -
                 quantile(latencies_ms(plain), 0.5).value,
             "ms", traced.t.size());
  report.add("graph.compile_ms", median(compile_ms), "ms", compile_ms.size());
  report_kernels(run.reference(0), w, opt,
                 std::max<std::size_t>(1, static_cast<std::size_t>(
                                              std::lround(rows))),
                 report);

  report.add("peak_rps", peak_rps(closed), "req/s", closed.t.size());
  std::vector<double> total, publish, vet, reload;
  for (const DeployTiming &d : deploys) {
    total.push_back(d.total_ms);
    publish.push_back(d.publish_ms);
    vet.push_back(d.vet_ms);
    reload.push_back(d.reload_ms);
  }
  report.add("deploy_p50_ms", median(total), "ms", total.size());
  report.add("pipeline.publish_ms", median(publish), "ms", publish.size());
  report.add("pipeline.vet_ms", median(vet), "ms", vet.size());
  report.add("cluster.reload_ms", median(reload), "ms", reload.size());
  report.add("ckpt.bytes", deploys.empty() ? 0.0 : deploys.front().bytes, "B",
             deploys.size());

  const auto delta = [&](std::uint64_t cluster::ClusterStats::*field) {
    return static_cast<double>(after.*field - before.*field);
  };
  const std::size_t n = traced.t.size();
  report.add("cluster.failovers", delta(&cluster::ClusterStats::failovers),
             "count", n);
  report.add("cluster.retries", delta(&cluster::ClusterStats::retries),
             "count", n);
  report.add("cluster.worker_deaths",
             delta(&cluster::ClusterStats::worker_deaths), "count", n);
  report.add("cluster.worker_restarts",
             delta(&cluster::ClusterStats::worker_restarts), "count", n);
  report.add("cluster.duplicate_responses",
             delta(&cluster::ClusterStats::duplicate_responses), "count", n);
  report.add("cluster.timeouts", delta(&cluster::ClusterStats::timeouts),
             "count", n);
}

// ---- output ----------------------------------------------------------------

/// {"correct", "attempted", "failed", "metrics"}; with `prefix`, metric
/// keys are "<workload>.<metric>".
obs::json::Value result_json(const std::vector<Report> &reports, bool prefix) {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  obs::json::Object metrics;
  for (const Report &r : reports) {
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
    for (const Metric &m : r.metrics) {
      metrics[(prefix ? r.workload + "." : std::string()) + m.name] =
          obs::json::Object{{"value", m.value}, {"unit", m.unit}};
    }
  }
  return obs::json::Object{{"correct", correct},
                           {"attempted", attempted},
                           {"failed", failed},
                           {"metrics", std::move(metrics)}};
}

[[noreturn]] void usage(const char *why) {
  std::fprintf(stderr,
               "bench_e2e: %s\nusage: bench_e2e --seed N [--workload "
               "NAME|all] [--seconds S] [--trace 0|1] [--json PATH]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char **argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char *end = nullptr;
    if (arg == "--seed") {
      o.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val.c_str(), &end);
      if (!(o.seconds > 0.0)) usage("--seconds must be positive");
    } else if (arg == "--trace") {
      o.trace = std::strtoul(val.c_str(), &end, 10) != 0;
    } else {
      end = nullptr;
      if (arg == "--workload") {
        o.workload = val;
      } else if (arg == "--json") {
        o.json_path = val;
      } else {
        usage(("unknown flag " + arg).c_str());
      }
    }
    if (end != nullptr && (*end != '\0' || val.empty())) {
      usage(("bad value for " + arg).c_str());
    }
  }
  return o;
}

int bench_main(int argc, char **argv) {
  const Options opt = parse(argc, argv);
  std::vector<const Workload *> selected;
  for (const Workload &w : kWorkloads) {
    if (opt.workload == "all" || opt.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) usage(("unknown workload " + opt.workload).c_str());

  std::vector<Report> reports;
  for (const Workload *w : selected) {
    Report report;
    report.workload = w->name;
    try {
      if (opt.trace) {
        run_traced(*w, opt, report);
      } else {
        run_untraced(*w, opt, report);
      }
    } catch (const std::exception &e) {
      report.check(false, std::string("aborted: ") + e.what());
    }
    for (const Metric &m : report.metrics) {
      std::printf("%s %s %.6g %s n=%zu\n", w->name, m.name.c_str(), m.value,
                  m.unit.c_str(), m.n);
    }
    for (const std::string &e : report.errors) {
      std::fprintf(stderr, "bench_e2e: %s: CHECK FAILED: %s\n", w->name,
                   e.c_str());
    }
    reports.push_back(std::move(report));
  }

  bool correct = true;
  for (const Report &r : reports) correct = correct && r.correct();
  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path, std::ios::app);
    for (const Report &r : reports) {
      obs::json::Value line = result_json({r}, false);
      line.as_object()["workload"] = r.workload;
      line.as_object()["seed"] = opt.seed;
      line.as_object()["trace"] = opt.trace ? 1 : 0;
      out << line.dump() << "\n";
    }
    if (!out) std::fprintf(stderr, "bench_e2e: cannot write %s\n",
                           opt.json_path.c_str());
  }
  std::printf("%s\n", result_json(reports, selected.size() > 1).dump().c_str());
  std::fflush(stdout);
  if (correct) {
    std::error_code ec;
    for (const Workload *w : selected) fs::remove_all(run_dir(*w, opt), ec);
  }
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace treu::bench_e2e

int main(int argc, char **argv) {
  treu::cluster::register_worker(treu::bench_e2e::kWorkerKind,
                                 treu::bench_e2e::make_worker);
  const int worker_rc = treu::cluster::maybe_run_worker(argc, argv);
  if (worker_rc >= 0) return worker_rc;
  return treu::bench_e2e::bench_main(argc, argv);
}
