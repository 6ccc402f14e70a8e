#include "tuning/observation_log.hpp"

#include <charconv>
#include <cmath>
#include <istream>
#include <limits>
#include <sstream>
#include <utility>

#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "telemetry/metrics.hpp"

namespace isaac::tuning {

namespace {

/// One observation per line:
///   op \t model_version \t predicted \t measured \t f0,f1,...,f14
/// Numbers carry max_digits10 precision so a replayed log reproduces the
/// exact doubles that were measured.
std::string format_line(const Observation& obs) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << obs.op << '\t' << obs.model_version << '\t' << obs.predicted_gflops << '\t'
     << obs.measured_gflops << '\t';
  for (std::size_t i = 0; i < obs.features.size(); ++i) {
    if (i) os << ',';
    os << obs.features[i];
  }
  os << '\n';
  return os.str();
}

bool parse_double(const std::string& token, double& out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end && std::isfinite(out);
}

bool parse_line(const std::string& line, Observation& obs) {
  const auto parts = strings::split(line, '\t');
  if (parts.size() != 5 || parts[0].empty()) return false;
  obs.op = parts[0];
  {
    const char* begin = parts[1].data();
    const char* end = begin + parts[1].size();
    const auto [ptr, ec] = std::from_chars(begin, end, obs.model_version);
    if (ec != std::errc{} || ptr != end) return false;
  }
  if (!parse_double(parts[2], obs.predicted_gflops)) return false;
  if (!parse_double(parts[3], obs.measured_gflops)) return false;
  const auto fields = strings::split(parts[4], ',');
  obs.features.clear();
  obs.features.reserve(fields.size());
  for (const auto& field : fields) {
    double v = 0.0;
    if (!parse_double(field, v)) return false;
    obs.features.push_back(v);
  }
  return !obs.features.empty();
}

}  // namespace

ObservationLog::ObservationLog(std::size_t capacity, std::string directory)
    : capacity_(capacity == 0 ? 1 : capacity),
      directory_(std::move(directory)),
      // Chaos site: disk-full / revoked-mount storms surface here as a failed
      // write, exercising the memory-only degrade.
      disk_(directory_, filename(), [] { return ISAAC_FAILPOINT_FIRED("obslog.write_fail"); }) {}

void ObservationLog::append(Observation obs) {
  append_to_disk(obs);
  {
    sync::MutexLock lock(mutex_);
    if (ring_.size() >= capacity_) ring_.pop_front();
    ring_.push_back(std::move(obs));
    ++total_;
  }
  ISAAC_TM_COUNT("model.observations");
}

std::size_t ObservationLog::size() const {
  sync::MutexLock lock(mutex_);
  return ring_.size();
}

std::uint64_t ObservationLog::total_appended() const {
  sync::MutexLock lock(mutex_);
  return total_;
}

std::vector<Observation> ObservationLog::snapshot() const {
  sync::MutexLock lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::vector<Observation> ObservationLog::drain() {
  sync::MutexLock lock(mutex_);
  std::vector<Observation> out{std::make_move_iterator(ring_.begin()),
                               std::make_move_iterator(ring_.end())};
  ring_.clear();
  return out;
}

Dataset ObservationLog::to_dataset(const std::vector<Observation>& observations) {
  Dataset out;
  for (const auto& obs : observations) {
    if (obs.features.size() != kNumFeatures) continue;
    if (!(obs.measured_gflops > 0.0)) continue;
    Sample s;
    s.x = obs.features;
    s.y = obs.measured_gflops;
    out.add(std::move(s));
  }
  return out;
}

std::vector<Observation> ObservationLog::load(std::istream& is) {
  std::vector<Observation> out;
  std::string line;
  while (std::getline(is, line)) {
    if (strings::trim(line).empty()) continue;
    Observation obs;
    if (parse_line(line, obs)) {
      out.push_back(std::move(obs));
    } else {
      ISAAC_TM_COUNT("obslog.load_corrupt");
      ISAAC_LOG_WARN() << "observation log: skipping malformed line: " << line;
    }
  }
  return out;
}

void ObservationLog::append_to_disk(const Observation& obs) {
  if (directory_.empty()) return;
  // Degraded: keep only the in-memory ring until the next re-probe window —
  // a sick disk must not slow or break the measurement path. Skipped records
  // are lost to the replay file but still reach training through the ring.
  switch (disk_.append(format_line(obs))) {
    case AppendFile::Outcome::written:
      break;
    case AppendFile::Outcome::recovered:
      ISAAC_TM_COUNT("obslog.disk_recovered");
      ISAAC_LOG_INFO() << "observation log: disk writes recovered, leaving memory-only mode";
      break;
    case AppendFile::Outcome::skipped:
      ISAAC_TM_COUNT("obslog.disk_write_skipped");
      break;
    case AppendFile::Outcome::degraded:
      ISAAC_TM_COUNT("obslog.disk_degraded");
      ISAAC_LOG_WARN() << "observation log: disk append failed; degrading to memory-only with "
                       << "periodic re-probe";
      break;
    case AppendFile::Outcome::reprobe_failed:
      ISAAC_TM_COUNT("obslog.disk_reprobe_failed");
      break;
  }
}

}  // namespace isaac::tuning
