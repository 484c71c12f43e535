#include "treu/pipeline/registry.hpp"

#include <cstdio>
#include <sstream>
#include <utility>

#include "treu/core/sha256.hpp"
#include "treu/obs/obs.hpp"

namespace treu::pipeline {
namespace {

constexpr const char *kLogHeader = "treu-model-registry v1";
constexpr const char *kRecordTag = "entry";

bool valid_hex64(const std::string &s) {
  if (s.size() != 64) return false;
  for (const char c : s) {
    const bool ok =
        (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

// "entry v=<n> step=<n> file=<name> weights=<hex> bytes=<hex> prev=<hex>
//  d=<hex>"  (one line). Structural damage -> nullopt.
std::optional<RegistryEntry> parse_record(std::string_view line) {
  std::istringstream in{std::string(line)};
  std::string tag, v, step, file, weights, bytes, prev, d, extra;
  if (!(in >> tag >> v >> step >> file >> weights >> bytes >> prev >> d)) {
    return std::nullopt;
  }
  if (in >> extra) return std::nullopt;
  if (tag != kRecordTag) return std::nullopt;
  RegistryEntry e;
  const auto fv = ckpt::field(v, "v");
  const auto fstep = ckpt::field(step, "step");
  const auto ffile = ckpt::field(file, "file");
  const auto fweights = ckpt::field(weights, "weights");
  const auto fbytes = ckpt::field(bytes, "bytes");
  const auto fprev = ckpt::field(prev, "prev");
  const auto fd = ckpt::field(d, "d");
  if (!fv || !fstep || !ffile || !fweights || !fbytes || !fprev || !fd) {
    return std::nullopt;
  }
  const auto version = ckpt::parse_u64(*fv);
  const auto step_n = ckpt::parse_u64(*fstep);
  if (!version || !step_n) return std::nullopt;
  if (!valid_hex64(*fweights) || !valid_hex64(*fbytes) ||
      !valid_hex64(*fprev) || !valid_hex64(*fd)) {
    return std::nullopt;
  }
  // A record naming a path outside the registry dir is damaged or hostile.
  if (ffile->empty() || ffile->find('/') != std::string::npos) {
    return std::nullopt;
  }
  e.version = *version;
  e.step = *step_n;
  e.filename = *ffile;
  e.weight_digest = *fweights;
  e.file_digest = *fbytes;
  e.prev_digest = *fprev;
  e.entry_digest = *fd;
  return e;
}

std::string format_record(const RegistryEntry &e) {
  std::string line = kRecordTag;
  line += " v=" + std::to_string(e.version);
  line += " step=" + std::to_string(e.step);
  line += " file=" + e.filename;
  line += " weights=" + e.weight_digest;
  line += " bytes=" + e.file_digest;
  line += " prev=" + e.prev_digest;
  line += " d=" + e.entry_digest;
  return line;
}

// The check the log runs on each record: structurally sound (else Torn),
// then linked by digest to the entry before it (else Corrupt). Accepted
// entries collect in `chain`.
ckpt::RecordLog::Check chain_check(std::vector<RegistryEntry> &chain) {
  return [&chain](std::string_view line) {
    std::optional<RegistryEntry> e = parse_record(line);
    if (!e) return ckpt::DecodeFailure::Torn;
    const std::string prev = chain.empty() ? ModelRegistry::genesis_digest()
                                           : chain.back().entry_digest;
    if (e->prev_digest != prev || e->version != chain.size() + 1 ||
        e->entry_digest !=
            core::sha256(ModelRegistry::canonical_record(*e)).hex()) {
      return ckpt::DecodeFailure::Corrupt;
    }
    chain.push_back(std::move(*e));
    return ckpt::DecodeFailure::None;
  };
}

}  // namespace

std::string ModelRegistry::canonical_record(const RegistryEntry &e) {
  std::string text = "treu-registry-entry v1";
  text += " v=" + std::to_string(e.version);
  text += " step=" + std::to_string(e.step);
  text += " file=" + e.filename;
  text += " weights=" + e.weight_digest;
  text += " bytes=" + e.file_digest;
  text += " prev=" + e.prev_digest;
  return text;
}

std::string ModelRegistry::genesis_digest() {
  return core::sha256(std::string_view(kLogHeader)).hex();
}

ModelRegistry::ModelRegistry(std::string dir, fault::FileInjector *injector)
    : dir_(std::move(dir)),
      store_(dir_, injector),
      log_(log_path(), kLogHeader) {
  // CheckpointStore's constructor created the directory. Load the verified
  // chain and cut the log back to it, so the next append starts on a
  // record boundary after any crash.
  log_.recover(chain_check(entries_));
  for (auto &entry : entries_) entry.vetted = verify_entry(entry);
}

ModelRegistry::ScanReport ModelRegistry::scan() const {
  ScanReport report;
  const ckpt::RecordLog::ScanReport log =
      log_.scan(chain_check(report.entries));
  report.log_missing = log.missing;
  report.torn = log.torn;
  report.corrupt = log.corrupt;
  report.dropped = log.dropped;
  for (auto &entry : report.entries) {
    entry.vetted = verify_entry(entry);
    if (!entry.vetted) ++report.unvetted;
  }
  return report;
}

bool ModelRegistry::verify_entry(const RegistryEntry &entry) const {
  const auto bytes = ckpt::read_file(dir_ + "/" + entry.filename);
  if (!bytes) return false;
  return core::sha256(*bytes).hex() == entry.file_digest;
}

ckpt::LoadResult ModelRegistry::load(const RegistryEntry &entry) const {
  return ckpt::load_checkpoint_file(dir_ + "/" + entry.filename);
}

std::string ModelRegistry::head_digest() const {
  return entries_.empty() ? genesis_digest() : entries_.back().entry_digest;
}

std::uint64_t ModelRegistry::head_version() const {
  return entries_.empty() ? 0 : entries_.back().version;
}

std::optional<RegistryEntry> ModelRegistry::latest_vetted() const {
  const ScanReport report = scan();
  for (auto it = report.entries.rbegin(); it != report.entries.rend(); ++it) {
    if (it->vetted) return *it;
  }
  return std::nullopt;
}

std::optional<RegistryEntry> ModelRegistry::entry_for_version(
    std::uint64_t version) const {
  for (const auto &e : entries_) {
    if (e.version == version) return e;
  }
  return std::nullopt;
}

ModelRegistry::PublishReport ModelRegistry::publish(
    const ckpt::TrainingCheckpoint &ckpt, const PublishFaults &faults) {
  TREU_OBS_SPAN(publish_span, "pipeline.publish");
  TREU_OBS_SCOPED_LATENCY_US(publish_timer, "pipeline.publish_us");
  PublishReport report;

  const std::vector<std::uint8_t> bytes = ckpt.encode();
  const ckpt::CheckpointStore::WriteReport wr = store_.write(ckpt);
  report.committed = wr.checkpoint_committed;
  if (!wr.checkpoint_committed) {
    report.error = wr.error.empty() ? "checkpoint write did not commit"
                                    : wr.error;
    TREU_OBS_COUNTER_ADD("pipeline.publish.failed", 1);
    return report;
  }

  if (faults.corrupt_file) {
    // Rot the committed container at rest, after its digest was taken:
    // the chain record stays honest and verification must now reject it.
    if (auto on_disk = ckpt::read_file(wr.path)) {
      if (!on_disk->empty()) {
        (*on_disk)[on_disk->size() / 2] ^= 0x20;
        std::FILE *f = std::fopen(wr.path.c_str(), "wb");
        if (f != nullptr) {
          (void)std::fwrite(on_disk->data(), 1, on_disk->size(), f);
          (void)std::fclose(f);
        }
      }
    }
  }

  RegistryEntry entry;
  entry.version = head_version() + 1;
  entry.step = ckpt.step;
  entry.filename = ckpt::CheckpointStore::filename_for_step(ckpt.step);
  entry.weight_digest = ckpt.weight_digest().hex();
  entry.file_digest = core::sha256(bytes).hex();
  entry.prev_digest = head_digest();
  entry.entry_digest = core::sha256(canonical_record(entry)).hex();

  if (faults.tear_log) {
    log_.tear(format_record(entry));
    report.torn_log = true;
    report.error = "registry log append torn (simulated crash)";
    TREU_OBS_COUNTER_ADD("pipeline.publish.torn_log", 1);
    return report;
  }

  if (!log_.append(format_record(entry))) {
    report.error = log_.error();
    TREU_OBS_COUNTER_ADD("pipeline.publish.failed", 1);
    return report;
  }
  report.logged = true;
  entries_.push_back(entry);

  // Read-back verification: the publish is only as good as what a fresh
  // recovery would find.
  entry.vetted = verify_entry(entry);
  report.vetted = entry.vetted;
  report.entry = entry;
  entries_.back().vetted = entry.vetted;
  TREU_OBS_COUNTER_ADD("pipeline.publishes_total", 1);
  if (!report.vetted) {
    TREU_OBS_COUNTER_ADD("pipeline.publish.unvetted", 1);
  }
  TREU_OBS_FR_EVENT(PipelinePublish, 0, entry.version,
                    report.vetted ? 1 : 0);
  return report;
}

}  // namespace treu::pipeline
