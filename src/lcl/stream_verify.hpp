// The on-disk formats of out-of-core verification (docs/perf.md): the
// LCLLABv1 labelling, its slab geometry, and the LCLCKPv1 checkpoint of a
// resumable pass. A labelling file holds a fixed header (magic, sigma,
// dims, side) and then the row-major int32 labels, byte-identical to the
// in-core layout, so a memory-mapped file *is* a label buffer.
//
// A file is verified through verify(VerifyRequest) (lcl/verify_api.hpp)
// with VerifyRequest::file or ::labellingPath set. The engine views the
// mapping as a TorusD plus its labels and runs the in-core kernels over
// slabs of axis-0 rows (streamSlabRows), inline or sharded across its
// pool, dropping the pages behind the cursor; so a torus with >= 10^9
// nodes verifies with O(rows) resident memory, and counts are
// bit-identical to the in-core engine on every tier and thread count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "support/mmap_file.hpp"

namespace lclgrid {

namespace stream_format {

/// "LCLLABv1": 8 magic bytes, then three little-endian uint32 fields
/// (sigma, dims, side) and a reserved zero word, then size() int32
/// little-endian labels, row-major with axis 0 fastest -- the in-core
/// layout of Torus2D (dims = 2) and TorusD labellings.
inline constexpr unsigned char kMagic[8] = {'L', 'C', 'L', 'L',
                                            'A', 'B', 'v', '1'};
inline constexpr std::size_t kHeaderBytes = 24;

}  // namespace stream_format

/// Incremental writer for the on-disk labelling format: feed labels in any
/// chunking (typically one row at a time -- the point is writing a file
/// larger than RAM without a full-grid buffer). close() validates that
/// exactly side^dims labels were written and flushes; the destructor closes
/// without the completeness check (so an abandoned writer cannot throw).
class StreamLabellingWriter {
 public:
  StreamLabellingWriter(const std::string& path, int sigma, int dims, int n);
  ~StreamLabellingWriter();
  StreamLabellingWriter(const StreamLabellingWriter&) = delete;
  StreamLabellingWriter& operator=(const StreamLabellingWriter&) = delete;

  void appendLabels(std::span<const int> labels);
  void close();
  long long written() const { return written_; }

 private:
  std::string path_;
  void* file_ = nullptr;  // std::FILE*, kept out of the header
  long long expected_ = 0;
  long long written_ = 0;
  bool closed_ = false;
};

/// One-call writer for in-memory labellings (tests, small benches).
void writeLabellingFile(const std::string& path, int sigma, int dims, int n,
                        std::span<const int> labels);

/// A labelling memory-mapped from the on-disk format. Construction
/// validates the header and the payload size (std::runtime_error on bad
/// magic / malformed fields / truncated payload); labels() is the mapped
/// int32 payload, directly consumable by the in-core kernels.
class StreamLabelling {
 public:
  explicit StreamLabelling(const std::string& path);

  int sigma() const { return sigma_; }
  int dims() const { return dims_; }
  int n() const { return n_; }
  /// Total nodes: n()^dims().
  long long size() const { return size_; }
  /// Axis-0 rows (2D grid rows / TorusD lines): size() / n().
  long long lines() const { return size_ / n_; }
  const int* labels() const;

  /// Drops the resident pages of payload rows [rowBegin, rowEnd) --
  /// advisory (MmapFile::dropRange); the streaming pass calls this behind
  /// its cursor.
  void dropRows(long long rowBegin, long long rowEnd) const;

  /// Content fingerprint for checkpoint binding: FNV-1a over the header
  /// fields, the payload size, and the first/last 4 KiB of the payload.
  /// Deliberately O(1) in the file size -- a resumable pass must not
  /// re-read a multi-GiB payload just to identify it -- so it detects a
  /// swapped or re-generated file, not a single flipped label in the
  /// middle.
  std::uint64_t fingerprint() const;

 private:
  support::MmapFile file_;
  int sigma_ = 0;
  int dims_ = 0;
  int n_ = 0;
  long long size_ = 0;
};

/// Slab geometry of a streaming pass. rows == 0 picks a slab of ~8 MiB of
/// payload (at least one row).
struct StreamWindow {
  long long rows = 0;
  /// Crash-safe resume (count passes only -- verify early-exits and is
  /// cheap to rerun): when non-empty, the pass maintains a sidecar
  /// checkpoint file at this path, written atomically (tmp + fsync +
  /// rename) after every slab and removed on completion. A pass finding
  /// a checkpoint whose labelling and problem fingerprints match resumes
  /// from the recorded cursor; counts are bit-identical to an
  /// uninterrupted run because totals are exact int64 sums over disjoint
  /// row ranges (docs/robustness.md).
  std::string checkpointPath{};
};

/// Rows per slab of a file with `lines` axis-0 rows of `n` labels: the
/// requested count, else ~8 MiB of payload, clamped to [1, lines].
long long streamSlabRows(int n, long long lines, long long requested);

/// The sidecar checkpoint record of a resumable streaming count pass
/// ("LCLCKPv1", 64 bytes, docs/robustness.md). Exposed for tests and
/// recovery tooling; the pass reads and writes it internally.
struct StreamCheckpoint {
  /// False: the walk on the selected kernel. True: the functional walk
  /// (an uncompiled problem, or a restart after an out-of-range label).
  bool functionalPhase = false;
  std::uint64_t labellingFingerprint = 0;
  std::uint64_t problemFingerprint = 0;
  /// First row the resumed pass still has to process.
  long long nextRow = 0;
  /// Violations accumulated over rows [0, nextRow).
  std::int64_t total = 0;
};

/// Writes `checkpoint` durably (tmp file, fsync, rename). Returns false --
/// without throwing -- when the write fails: a checkpoint is an
/// optimisation, and a pass that cannot checkpoint degrades to a plain
/// uninterruptible pass rather than failing verification.
bool writeStreamCheckpoint(const std::string& path,
                           const StreamCheckpoint& checkpoint);

/// Loads a checkpoint; nullopt when the file is absent, truncated, has a
/// bad magic/version or fails its checksum. Fingerprint matching is the
/// caller's decision.
std::optional<StreamCheckpoint> loadStreamCheckpoint(const std::string& path);

/// Removes a checkpoint file (best-effort; absent is fine).
void removeStreamCheckpoint(const std::string& path);

}  // namespace lclgrid
