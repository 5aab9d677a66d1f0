// Versioned binary snapshots for crash-safe checkpoint/resume.
//
// A snapshot is a self-describing byte string: a magic header, the
// container format version, a payload kind + per-kind version, a
// length-prefixed payload, and a CRC32 trailer over everything before it.
// SnapshotWriter builds one; SnapshotReader::Open validates the frame
// strictly (magic, versions, kind, length, CRC) and rejects truncated,
// corrupt, or version-mismatched input with a clean Status — untrusted
// bytes can never crash or over-allocate, because every length prefix is
// checked against the bytes actually present before anything is resized.
//
// All integers are little-endian fixed-width; doubles are bit-cast to
// uint64_t, so round-trips are bit-exact and platform-stable.

#ifndef MDC_COMMON_SNAPSHOT_H_
#define MDC_COMMON_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mdc {

// "MDCS" — identifies any snapshot produced by this library.
inline constexpr uint32_t kSnapshotMagic = 0x4D444353;
// Version of the container frame itself (header + trailer layout).
inline constexpr uint32_t kSnapshotFormatVersion = 1;

// What the payload holds. A reader opened for one kind rejects all others,
// so a service journal record can never be fed to a lattice search and
// vice versa.
enum class SnapshotKind : uint32_t {
  kIncognito = 1,
  kSamarati = 2,
  kOptimalLattice = 3,
  kParetoLattice = 4,
  kStochastic = 5,
  kBatch = 6,           // Reserved: the retired batch-runner checkpoint.
  kServiceJob = 7,      // One admitted job's durable journal record.
  kServiceOutcome = 8,  // One job's terminal outcome record.
  kPerturb = 9,         // Perturbation column-sweep position.
};

// CRC-32 (IEEE 802.3 polynomial, reflected) of `bytes`.
uint32_t Crc32(std::string_view bytes);

// Accumulates payload fields, then frames them in Finish().
class SnapshotWriter {
 public:
  SnapshotWriter(SnapshotKind kind, uint32_t payload_version);

  void WriteU32(uint32_t value);
  void WriteU64(uint64_t value);
  void WriteI64(int64_t value);
  void WriteBool(bool value);
  void WriteDouble(double value);                 // Bit-exact.
  void WriteString(std::string_view value);       // u64 length + bytes.
  void WriteU64Vec(const std::vector<uint64_t>& values);
  void WriteI32Vec(const std::vector<int>& values);

  // magic | format | kind | payload_version | payload length | payload | crc.
  std::string Finish() const;

 private:
  SnapshotKind kind_;
  uint32_t payload_version_;
  std::string payload_;
};

// Strict sequential reader over a framed snapshot. Every accessor returns
// a clean Status on exhausted or malformed input.
class SnapshotReader {
 public:
  // Validates the frame and positions the reader at the payload start.
  // Rejects: short input, bad magic, container-format or payload-version
  // mismatch, wrong kind, length prefix disagreeing with the actual size,
  // and CRC mismatch.
  static StatusOr<SnapshotReader> Open(std::string_view bytes,
                                       SnapshotKind kind,
                                       uint32_t payload_version);

  StatusOr<uint32_t> ReadU32();
  StatusOr<uint64_t> ReadU64();
  StatusOr<int64_t> ReadI64();
  StatusOr<bool> ReadBool();
  StatusOr<double> ReadDouble();
  StatusOr<std::string> ReadString();
  StatusOr<std::vector<uint64_t>> ReadU64Vec();
  StatusOr<std::vector<int>> ReadI32Vec();

  size_t remaining() const { return payload_.size() - pos_; }

  // Error unless the whole payload has been consumed — catches payloads
  // from a newer writer that appended fields without bumping the version.
  Status ExpectEnd() const;

 private:
  explicit SnapshotReader(std::string payload) : payload_(std::move(payload)) {}

  Status Need(size_t bytes) const;

  std::string payload_;  // Owned copy: snapshots are small relative to runs.
  size_t pos_ = 0;
};

}  // namespace mdc

#endif  // MDC_COMMON_SNAPSHOT_H_
