// ObservationLog: the runtime's training-data flight recorder.
//
// The paper's §5 bootstrap observation — runtime measurements *are* the
// model's training data — closes into a loop here: every measured candidate
// a background refinement produces is folded into a bounded log of
// (op, features, measured gflops, model-predicted gflops, model version)
// records. The retrainer (tuning/online.hpp) periodically folds the log into
// a Dataset and warm-start-trains the next model version.
//
// The in-memory log is a drop-oldest ring (bounded: an immortal server must
// not grow without bound); when a directory is configured every observation
// is additionally appended to `isaac_observations.txt` through the same
// AppendFile as the profile cache (common/append_file.hpp) — one flocked
// O_APPEND write per line — so concurrent threads and processes interleave
// whole lines, never torn ones, and offline analysis can replay production
// traffic.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/append_file.hpp"
#include "common/thread_annotations.hpp"
#include "tuning/dataset.hpp"

namespace isaac::tuning {

/// One production measurement, tagged with what the serving model believed
/// at the time — the (predicted, measured) pair is the drift signal.
struct Observation {
  std::string op;                   // OperationTraits<Op>::kind()
  std::vector<double> features;     // kNumFeatures raw features (shape + tuning)
  double measured_gflops = 0.0;
  double predicted_gflops = 0.0;
  std::uint64_t model_version = 0;  // version that served the prediction
};

class ObservationLog {
 public:
  /// `capacity` bounds the in-memory ring (oldest records drop first);
  /// `directory` != "" additionally flock-appends every record to
  /// `directory/isaac_observations.txt`.
  explicit ObservationLog(std::size_t capacity = 4096, std::string directory = "");

  void append(Observation obs);

  /// Records currently retained in the ring (≤ capacity).
  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  /// Records ever appended, including ones the ring has since dropped — the
  /// retrain_every cadence reads this.
  std::uint64_t total_appended() const;

  std::vector<Observation> snapshot() const;
  /// Take every retained record and clear the ring (the disk log, if any, is
  /// untouched — it is the durable history, not a queue).
  std::vector<Observation> drain();

  /// Fold observations into a training dataset: features → x, measured
  /// gflops → y. Records whose feature arity does not match kNumFeatures are
  /// skipped (a foreign-schema disk log must not poison training).
  static Dataset to_dataset(const std::vector<Observation>& observations);

  /// Parse the on-disk format back (malformed lines are skipped — the log is
  /// append-only across processes and a torn tail must not kill replay).
  static std::vector<Observation> load(std::istream& is);

  static const char* filename() noexcept { return "isaac_observations.txt"; }

  /// Disk-write health: a failed append degrades the log to memory-only, with
  /// one re-probe per retry interval (default 1s). The ring is unaffected —
  /// training never stalls on a sick disk, only the durable replay file does.
  /// Disk events are counted in the `obslog.disk_*` telemetry counters.
  bool disk_degraded() const noexcept { return disk_.degraded(); }
  void set_disk_retry_ms(double ms) noexcept { disk_.set_retry_ms(ms); }

 private:
  /// Append one record line through disk_ (a no-op without a directory) and
  /// count what happened.
  void append_to_disk(const Observation& obs);

  // obslog is a leaf-side rank: append() writes the disk line *before*
  // taking it, so no failpoint/telemetry/logging lock ever nests inside.
  mutable sync::Mutex mutex_{lock_rank::Rank::obslog};
  std::deque<Observation> ring_ ISAAC_GUARDED_BY(mutex_);
  std::size_t capacity_;
  std::string directory_;
  std::uint64_t total_ ISAAC_GUARDED_BY(mutex_) = 0;
  AppendFile disk_;
};

}  // namespace isaac::tuning
