#pragma once

// The checkpoint container format and the atomic write protocol.
//
// A checkpoint file is a versioned sequence of named, individually
// checksummed sections:
//
//   "TREUCKPT"                                 8-byte magic
//   u32 version (currently 1)
//   u32 section count
//   per section:
//     u32 name length | name bytes
//     u64 payload length | 32-byte SHA-256(payload) | payload bytes
//   32-byte SHA-256 of everything above        whole-file digest
//   "TREUEND\n"                                8-byte trailer
//
// All integers are little-endian and written byte-by-byte, so the encoding
// is identical on every platform. The per-section digests localize
// corruption ("optimizer section digest mismatch", not just "bad file");
// the whole-file digest plus the trailer catch truncation and any header
// tampering. decode_sections never throws on bad input — a recovery scan
// classifies failures (torn vs corrupt) instead of crashing on them.
//
// atomic_write_file is the durability half: write `path.tmp`, flush +
// fsync, rename onto `path`, fsync the directory. A crash at any point
// leaves either the old file, the new file, or a stranded `.tmp` — never a
// torn final file. The optional fault::FileInjector hook simulates exactly
// those crashes (plus at-rest bit rot) so the recovery scan can be soaked
// deterministically. A failed fsync of the file or of its directory fails
// the write: the rename is not reported durable when it may not be.
//
// RecordLog is the other durable shape: an append-only text log whose
// appends either land whole and fsynced or leave the file on its last
// record boundary. The model registry's hash chain and the rollout's
// write-ahead journal are both a RecordLog with their own record check.

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "treu/fault/file_fault.hpp"

namespace treu::ckpt {

inline constexpr char kMagic[8] = {'T', 'R', 'E', 'U', 'C', 'K', 'P', 'T'};
inline constexpr char kTrailer[8] = {'T', 'R', 'E', 'U', 'E', 'N', 'D', '\n'};
inline constexpr std::uint32_t kFormatVersion = 1;

/// Little-endian byte-buffer writer. Deliberately tiny: the format above
/// is the only consumer.
class ByteWriter {
 public:
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  // IEEE-754 bits, little-endian
  void bytes(std::span<const std::uint8_t> data);
  void str(std::string_view s);  // u32 length + bytes

  [[nodiscard]] const std::vector<std::uint8_t> &data() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buf_);
  }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Matching reader. Reads return nullopt past the end instead of throwing
/// — torn input is an expected case, not an exception.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::optional<std::uint32_t> u32() noexcept;
  [[nodiscard]] std::optional<std::uint64_t> u64() noexcept;
  [[nodiscard]] std::optional<double> f64() noexcept;
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> bytes(
      std::size_t n) noexcept;
  [[nodiscard]] std::optional<std::string> str() noexcept;

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// One named, checksummed chunk of a checkpoint.
struct Section {
  std::string name;
  std::vector<std::uint8_t> payload;
};

/// Serialize sections into the container format above.
[[nodiscard]] std::vector<std::uint8_t> encode_sections(
    std::span<const Section> sections);

/// Why a decode failed, for recovery-scan bookkeeping: Torn is structural
/// damage (truncation, bad magic/trailer, lengths past the end — what a
/// crashed write leaves), Corrupt is a checksum mismatch on structurally
/// intact bytes (what bit rot leaves).
enum class DecodeFailure : std::uint8_t { None = 0, Torn, Corrupt };

struct DecodeResult {
  std::vector<Section> sections;
  DecodeFailure failure = DecodeFailure::None;
  std::string error;  // empty on success

  [[nodiscard]] bool ok() const noexcept {
    return failure == DecodeFailure::None;
  }
};

/// Parse and verify a checkpoint container. Never throws on bad input.
[[nodiscard]] DecodeResult decode_sections(
    std::span<const std::uint8_t> bytes);

/// Outcome of one atomic write attempt.
struct AtomicWriteResult {
  /// True when `path` now holds the new bytes (note an injected FlipBit
  /// still commits — the corruption is at rest, by design).
  bool committed = false;
  /// Which fault, if any, the injector applied to this write.
  fault::FileFaultKind injected = fault::FileFaultKind::None;
  /// Non-injected I/O failure description; empty otherwise.
  std::string error;
};

/// Temp file + fsync + rename + directory fsync. `injector`, when set, is
/// consulted once and may tear, corrupt, or strand this write (simulating
/// a crash); the injected outcomes leave exactly the on-disk states a real
/// crash would.
[[nodiscard]] AtomicWriteResult atomic_write_file(
    const std::string &path, std::span<const std::uint8_t> bytes,
    fault::FileInjector *injector = nullptr);

/// Whole-file read; nullopt when the file cannot be opened or read.
[[nodiscard]] std::optional<std::vector<std::uint8_t>> read_file(
    const std::string &path);

/// fsync a directory, so the renames and file creations inside it are
/// durable. False when it cannot be opened or synced; errno says why.
[[nodiscard]] bool fsync_dir(const std::string &dir);

/// Base-10 digits to u64; nullopt when empty, not all digits, or past
/// UINT64_MAX.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(
    std::string_view digits) noexcept;

/// The value of a "<key>=<value>" token with exactly this key; nullopt
/// for any other key or an empty value.
[[nodiscard]] std::optional<std::string> field(std::string_view token,
                                               std::string_view key);

/// An append-only text log: a header line, then one newline-terminated
/// record per line.
///
/// A crash mid-append leaves a dangling fragment; rot or tampering leaves a
/// complete line that the owner's check rejects. scan() classifies both,
/// and recover() cuts the file back to the accepted prefix. append() keeps
/// the file on a record boundary whatever fails: a failed write or fsync is
/// cut back to the length before the append, and a log that cannot cut
/// back refuses every later append.
class RecordLog {
 public:
  /// Judges one complete record (its line without the newline): None
  /// accepts it, Torn (structural damage) or Corrupt (a failed digest or
  /// chain link) rejects it. Called in file order, so it may carry state
  /// from one record to the next.
  using Check = std::function<DecodeFailure(std::string_view record)>;

  struct ScanReport {
    bool missing = false;         // the file could not be read
    std::size_t torn = 0;         // rejected line or dangling fragment; all
                                  // lines when the header is damaged
    std::size_t corrupt = 0;      // rejected line the check called Corrupt
    std::size_t dropped = 0;      // lines after the rejected one
    std::size_t valid_bytes = 0;  // header plus the accepted records
  };

  RecordLog(std::string path, std::string header);

  /// Read-only and never throws on damage: passes each complete line after
  /// the header to `check` and stops at the first one it rejects.
  [[nodiscard]] ScanReport scan(const Check &check) const;

  /// scan(), then cut the file to the accepted prefix and fsync it. If that
  /// fails, the log refuses appends and error() says why.
  ScanReport recover(const Check &check);

  /// Append `record` (which holds no newline) as one line, after the header
  /// when the file is empty, then fsync. On failure returns false with
  /// error() set, and the file is back at its length before the call.
  [[nodiscard]] bool append(std::string_view record);

  /// A simulated crash mid-append: the first half of the record's line
  /// reaches the file and nothing is cut back. The log then refuses
  /// appends, as a dead process would; a fresh log's recover() drops the
  /// fragment.
  void tear(std::string_view record);

  /// Why the last append failed, or why the log refuses appends.
  [[nodiscard]] const std::string &error() const noexcept { return error_; }
  [[nodiscard]] const std::string &path() const noexcept { return path_; }

 private:
  bool write_line(std::string_view line);
  void refuse(std::string why);

  std::string path_;
  std::string header_;
  bool refusing_ = false;
  std::string error_;
};

}  // namespace treu::ckpt
