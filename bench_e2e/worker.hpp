#pragma once

// The "e2e_mlp" worker kind bench_e2e spawns, the model every process
// builds from the seed, and the per-request trace records workers keep.
//
// Each worker process serves two graph::PlanPredictor replicas compiled
// from capture_mlp behind a cluster::ModelWorker. With --trace 1 the
// bench-owned callbacks stamp CLOCK_MONOTONIC (shared by every process) at
// the decode callback, at the start and end of each predict_batch (a
// timing decorator around PlanPredictor) and at the encode callback. The
// records stay in memory and are written to the cluster's log_dir when the
// worker stops; the controller joins them with its own submit and
// completion stamps. Records are keyed by cluster::fnv1a64 over a
// request's feature doubles and over a reply's logits, the bytes both
// sides hold.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "loadgen.hpp"
#include "treu/ckpt/checkpoint.hpp"
#include "treu/cluster/codec.hpp"
#include "treu/cluster/model_worker.hpp"
#include "treu/cluster/wire.hpp"
#include "treu/cluster/worker.hpp"
#include "treu/core/rng.hpp"
#include "treu/graph/builder.hpp"
#include "treu/graph/plan_predictor.hpp"
#include "treu/nn/mlp.hpp"

namespace treu::bench_e2e {

inline constexpr const char *kWorkerKind = "e2e_mlp";
inline constexpr std::size_t kClasses = 10;
inline constexpr std::size_t kReplicas = 2;
/// Rng stream of model version v is kWeightStream + v; request i draws its
/// features from stream i, which stays far below.
inline constexpr std::uint64_t kWeightStream = 1ULL << 62;

struct ModelShape {
  std::size_t dim = 0;
  std::size_t width = 0;
};

/// MLP dim -> width -> width -> 10, weights drawn from (seed, version).
inline std::unique_ptr<nn::MlpClassifier> make_model(ModelShape shape,
                                                     std::uint64_t seed,
                                                     std::uint64_t version) {
  core::Rng rng(seed, kWeightStream + version);
  return std::make_unique<nn::MlpClassifier>(
      shape.dim, std::vector<std::size_t>{shape.width, shape.width}, kClasses,
      rng);
}

inline std::unique_ptr<graph::PlanPredictor> compile_model(
    nn::MlpClassifier &model) {
  return std::make_unique<graph::PlanPredictor>(graph::capture_mlp(model));
}

/// Request i's features: uniform(-1, 1) from Rng(seed, i).
inline std::vector<double> features_for(std::uint64_t seed, std::size_t dim,
                                        std::uint64_t i) {
  core::Rng rng(seed, i);
  std::vector<double> f(dim);
  for (double &v : f) v = rng.uniform(-1.0, 1.0);
  return f;
}

inline std::uint64_t key_of(std::span<const double> values) {
  return cluster::fnv1a64({reinterpret_cast<const std::uint8_t *>(
                               values.data()),
                           values.size() * sizeof(double)});
}

// ---- trace records ---------------------------------------------------------

struct TraceRecords {
  struct Stamp {
    std::uint64_t key = 0;
    std::int64_t t_ns = 0;
  };
  struct Batch {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t rows = 0;
  };
  struct Row {
    std::uint64_t in_key = 0;
    std::uint64_t out_key = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  std::vector<Stamp> decoded;  // key: features
  std::vector<Stamp> encoded;  // key: logits
  std::vector<Batch> batches;
  std::vector<Row> rows;
};

/// A worker's in-memory trace, filled from its reader, replica and reply
/// threads.
class TraceLog {
 public:
  TraceLog() {
    constexpr std::size_t kReserve = 1 << 18;
    r_.decoded.reserve(kReserve);
    r_.encoded.reserve(kReserve);
    r_.rows.reserve(kReserve);
    r_.batches.reserve(kReserve);
  }

  void decoded(std::uint64_t key, std::int64_t t) {
    std::lock_guard lock(mu_);
    r_.decoded.push_back({key, t});
  }

  void encoded(std::uint64_t key, std::int64_t t) {
    std::lock_guard lock(mu_);
    r_.encoded.push_back({key, t});
  }

  void batch(std::span<const std::vector<double>> in,
             const std::vector<nn::ClassScores> &out, std::int64_t start,
             std::int64_t end) {
    std::vector<TraceRecords::Row> rows(in.size());
    for (std::size_t r = 0; r < in.size(); ++r) {
      rows[r] = {key_of(in[r]), key_of(out[r].logits), start, end};
    }
    std::lock_guard lock(mu_);
    r_.batches.push_back({start, end, in.size()});
    r_.rows.insert(r_.rows.end(), rows.begin(), rows.end());
  }

  /// One record per line: "d key t", "e key t", "b start end rows",
  /// "r in_key out_key start end".
  bool write(const std::string &path) const {
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard lock(mu_);
    for (const auto &s : r_.decoded) {
      std::fprintf(f, "d %llu %lld\n", static_cast<unsigned long long>(s.key),
                   static_cast<long long>(s.t_ns));
    }
    for (const auto &s : r_.encoded) {
      std::fprintf(f, "e %llu %lld\n", static_cast<unsigned long long>(s.key),
                   static_cast<long long>(s.t_ns));
    }
    for (const auto &b : r_.batches) {
      std::fprintf(f, "b %lld %lld %zu\n", static_cast<long long>(b.start_ns),
                   static_cast<long long>(b.end_ns), b.rows);
    }
    for (const auto &w : r_.rows) {
      std::fprintf(f, "r %llu %llu %lld %lld\n",
                   static_cast<unsigned long long>(w.in_key),
                   static_cast<unsigned long long>(w.out_key),
                   static_cast<long long>(w.start_ns),
                   static_cast<long long>(w.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  TraceRecords r_;
};

/// Append the records of one file written by TraceLog::write. False when
/// the file cannot be opened or holds a malformed line.
inline bool read_trace_file(const std::string &path, TraceRecords &out) {
  std::FILE *f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  bool ok = true;
  char kind = 0;
  while (ok && std::fscanf(f, " %c", &kind) == 1) {
    unsigned long long a = 0, b = 0;
    long long s = 0, e = 0;
    std::size_t rows = 0;
    switch (kind) {
      case 'd':
      case 'e':
        ok = std::fscanf(f, "%llu %lld", &a, &s) == 2;
        (kind == 'd' ? out.decoded : out.encoded).push_back({a, s});
        break;
      case 'b':
        ok = std::fscanf(f, "%lld %lld %zu", &s, &e, &rows) == 3;
        out.batches.push_back({s, e, rows});
        break;
      case 'r':
        ok = std::fscanf(f, "%llu %llu %lld %lld", &a, &b, &s, &e) == 4;
        out.rows.push_back({a, b, s, e});
        break;
      default:
        ok = false;
    }
  }
  std::fclose(f);
  return ok;
}

// ---- the worker kind -------------------------------------------------------

using Scores = nn::ClassScores;
using Features = std::vector<double>;
using Worker = cluster::ModelWorker<Features, Scores>;

/// PlanPredictor with predict_batch timed into a TraceLog (null: untimed).
class TimedPredictor final : public nn::Predictor<Features, Scores> {
 public:
  TimedPredictor(std::unique_ptr<graph::PlanPredictor> plan, TraceLog *log)
      : plan_(std::move(plan)), log_(log) {}

  std::vector<Scores> predict_batch(std::span<const Features> in) override {
    if (log_ == nullptr) return plan_->predict_batch(in);
    const std::int64_t start = mono_ns();
    std::vector<Scores> out = plan_->predict_batch(in);
    log_->batch(in, out, start, mono_ns());
    return out;
  }

  std::string weight_hash() override { return plan_->weight_hash(); }

  graph::PlanPredictor &plan() noexcept { return *plan_; }

 private:
  std::unique_ptr<graph::PlanPredictor> plan_;
  TraceLog *log_;
};

/// Hot reload: load the checkpoint, swap its weights into each replica
/// through BatchServer's validated path (standby first, digest check,
/// rollback on mismatch).
inline bool reload_plans(Worker::Server &server, const std::string &path,
                         const std::string &digest, std::string &error) {
  const ckpt::LoadResult loaded = ckpt::load_checkpoint_file(path);
  if (!loaded.ok()) {
    error = "reload: " + loaded.error;
    return false;
  }
  std::vector<double> flat;
  for (const tensor::Matrix &m : loaded.checkpoint->params) {
    flat.insert(flat.end(), m.flat().begin(), m.flat().end());
  }
  std::mutex mu;
  std::map<Worker::Model *, std::vector<double>> previous;
  const auto apply = [&](Worker::Model &m) {
    graph::PlanPredictor &plan = static_cast<TimedPredictor &>(m).plan();
    {
      std::lock_guard lock(mu);
      previous.emplace(&m, plan.save_weights());
    }
    plan.load_weights(flat);
  };
  const auto rollback = [&](Worker::Model &m) {
    std::lock_guard lock(mu);
    const auto it = previous.find(&m);
    if (it != previous.end()) {
      static_cast<TimedPredictor &>(m).plan().load_weights(it->second);
    }
  };
  const serve::ReloadReport report =
      server.reload_weights(apply, digest, rollback);
  if (!report.ok) error = report.error;
  return report.ok;
}

/// ModelWorker plus the trace it writes when it stops.
class E2eService final : public cluster::WorkerService {
 public:
  E2eService(std::unique_ptr<TraceLog> log, std::string trace_path,
             std::unique_ptr<Worker> worker)
      : log_(std::move(log)),
        trace_path_(std::move(trace_path)),
        worker_(std::move(worker)) {}

  void start(std::function<void(const cluster::WorkerReply &)> emit) override {
    worker_->start(std::move(emit));
  }
  void handle_request(const cluster::Frame &frame) override {
    worker_->handle_request(frame);
  }
  std::uint64_t served() const override { return worker_->served(); }
  std::string weight_hash() const override { return worker_->weight_hash(); }
  bool reload(const std::string &path, const std::string &digest,
              std::string &error) override {
    return worker_->reload(path, digest, error);
  }

  void stop() override {
    worker_->stop();
    if (log_ && !written_) {
      written_ = true;
      if (!log_->write(trace_path_)) {
        std::fprintf(stderr, "e2e_mlp: cannot write %s\n", trace_path_.c_str());
      }
    }
  }

 private:
  std::unique_ptr<TraceLog> log_;  // outlives worker_, whose callbacks use it
  std::string trace_path_;
  bool written_ = false;
  std::unique_ptr<Worker> worker_;
};

/// Worker arguments: --dim N --width N --seed N --trace 0|1.
inline std::unique_ptr<cluster::WorkerService> make_worker(
    const cluster::WorkerStartup &startup) {
  ModelShape shape;
  std::uint64_t seed = 0;
  bool trace = false;
  const auto &args = startup.extra_args;
  for (std::size_t i = 0; i + 1 < args.size(); i += 2) {
    const unsigned long long v = std::strtoull(args[i + 1].c_str(), nullptr, 10);
    if (args[i] == "--dim") shape.dim = v;
    if (args[i] == "--width") shape.width = v;
    if (args[i] == "--seed") seed = v;
    if (args[i] == "--trace") trace = v != 0;
  }
  if (shape.dim == 0 || shape.width == 0) return nullptr;

  std::unique_ptr<TraceLog> owned_log;
  if (trace) owned_log = std::make_unique<TraceLog>();
  TraceLog *log = owned_log.get();

  const auto model = make_model(shape, seed, 0);
  std::vector<std::unique_ptr<Worker::Model>> replicas;
  for (std::size_t r = 0; r < kReplicas; ++r) {
    replicas.push_back(
        std::make_unique<TimedPredictor>(compile_model(*model), log));
  }
  serve::ServeConfig config;
  config.max_batch_size = 16;
  config.max_queue_delay = std::chrono::microseconds(200);
  config.max_pending = 4096;
  const std::size_t dim = shape.dim;
  const auto decode = [log, dim](std::span<const std::uint8_t> bytes,
                                 Features &out) {
    const std::int64_t t = mono_ns();
    if (!cluster::decode_features(bytes, out) || out.size() != dim) {
      return false;
    }
    if (log != nullptr) log->decoded(key_of(out), t);
    return true;
  };
  const auto encode = [log](const Scores &scores) {
    if (log != nullptr) log->encoded(key_of(scores.logits), mono_ns());
    return cluster::encode_scores(scores);
  };
  return std::make_unique<E2eService>(
      std::move(owned_log),
      startup.log_dir + "/trace-" + std::to_string(startup.shard) + "-" +
          std::to_string(::getpid()) + ".txt",
      std::make_unique<Worker>(std::move(replicas), config, decode, encode,
                               reload_plans));
}

}  // namespace treu::bench_e2e
