#include "common/append_file.hpp"

#include <chrono>
#include <fstream>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define ISAAC_HAVE_FLOCK 1
#endif

namespace isaac {

AppendFile::AppendFile(const std::string& directory, const char* filename, bool (*fail)())
    : path_(std::filesystem::path(directory) / filename), fail_(fail) {}

bool AppendFile::write(const std::string& line) const {
  std::error_code ec;
  std::filesystem::create_directories(path_.parent_path(), ec);
  if (fail_()) return false;
#if ISAAC_HAVE_FLOCK
  // Exclusive-flocked O_APPEND write of the whole line in one syscall, so
  // concurrent writers (threads or separate processes) cannot tear it.
  const int fd = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = false;
  if (::flock(fd, LOCK_EX) == 0) {
    std::size_t written = 0;
    ok = true;
    while (written < line.size()) {
      const ssize_t n = ::write(fd, line.data() + written, line.size() - written);
      if (n <= 0) {
        ok = false;
        break;
      }
      written += static_cast<std::size_t>(n);
    }
    ::flock(fd, LOCK_UN);
  }
  ::close(fd);
  return ok;
#else
  std::ofstream os(path_, std::ios::app);
  if (!os) return false;
  os << line;
  return static_cast<bool>(os);
#endif
}

AppendFile::Outcome AppendFile::append(const std::string& line) {
  const std::uint64_t now = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  // Degraded: skip the disk, but re-probe it once per retry interval — a
  // transient outage (disk filled, then freed) heals itself without a
  // restart. Lines skipped meanwhile are lost to the file only.
  if (degraded_.load(std::memory_order_relaxed) &&
      now < retry_at_us_.load(std::memory_order_relaxed)) {
    return Outcome::skipped;
  }
  if (write(line)) {
    return degraded_.exchange(false, std::memory_order_relaxed) ? Outcome::recovered
                                                                : Outcome::written;
  }
  retry_at_us_.store(now + retry_us_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  return degraded_.exchange(true, std::memory_order_relaxed) ? Outcome::reprobe_failed
                                                             : Outcome::degraded;
}

}  // namespace isaac
