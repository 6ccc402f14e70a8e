// AppendFile: one append-only text file that several threads and processes
// write whole lines to, with a memory-only degrade when the disk fails
// (DESIGN.md, "Failure domains"). The profile cache and the observation log
// both write through it.
//
// Each append creates the directory if needed, then writes the line under an
// exclusive flock with a single O_APPEND write(2) loop, so concurrent writers
// interleave whole lines, never torn ones. A failed write degrades the file:
// later appends are skipped until the retry interval passes, and the next
// append after it re-probes the disk. The first successful write clears the
// degrade. The caller owns what each outcome means to it: its counters and
// log lines.
//
// Lock-free: the degrade state is atomics, so appends from threads holding
// different locks (or none) need no extra coordination.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>

namespace isaac {

class AppendFile {
 public:
  /// What one append() did.
  enum class Outcome {
    written,         // the line reached the file
    recovered,       // the line reached the file and cleared a degrade
    skipped,         // degraded and inside the retry interval: nothing tried
    degraded,        // the write failed and degraded a healthy file
    reprobe_failed,  // the write failed again while degraded
  };

  /// `directory/filename` is the file. `fail` is evaluated once per
  /// attempted write (never for a skipped one), after the directory step:
  /// returning true makes that write fail without touching the file. Callers
  /// pass their failpoint through it.
  AppendFile(const std::string& directory, const char* filename, bool (*fail)());

  const std::filesystem::path& path() const noexcept { return path_; }

  /// Append `line` (newline included) as one write.
  Outcome append(const std::string& line);

  /// True while appends are skipped or re-probing after a failed write.
  bool degraded() const noexcept { return degraded_.load(std::memory_order_relaxed); }

  /// How long a failed disk stays skipped before the next append re-probes it
  /// (default 1 s).
  void set_retry_ms(double ms) noexcept {
    retry_us_.store(ms > 0.0 ? static_cast<std::uint64_t>(ms * 1000.0) : 0,
                    std::memory_order_relaxed);
  }

 private:
  /// The raw write (directories, fail hook, open + flock + write); false on
  /// any failure.
  bool write(const std::string& line) const;

  std::filesystem::path path_;
  bool (*fail_)();
  std::atomic<bool> degraded_{false};
  std::atomic<std::uint64_t> retry_at_us_{0};
  std::atomic<std::uint64_t> retry_us_{1000000};  // 1 s
};

}  // namespace isaac
