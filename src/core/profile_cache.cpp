#include "core/profile_cache.hpp"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define ISAAC_HAVE_FLOCK 1
#endif

namespace isaac::core {

namespace {

/// Serialize one entry in the current schema (two columns when there is no
/// provenance) — shared by the append path and the compactor so both always
/// write the same format.
std::string format_line(const std::string& key, const std::string& value,
                        const std::string& meta) {
  return meta.empty() ? key + '\t' + value + '\n' : key + '\t' + value + '\t' + meta + '\n';
}

/// Parse one on-disk line into (key, value, meta). Current format:
/// key \t value \t provenance. Both older schemas are still read:
/// key \t value (no provenance column), and the oldest
/// kind \t key \t value, whose kind column is redundant (the key embeds it).
/// The two three-column schemas are disambiguated by the '|' the key always
/// contains and a bare kind never does.
bool parse_line(const std::string& line, std::string& key, std::string& value,
                std::string& meta) {
  const auto parts = strings::split(line, '\t');
  if (parts.size() == 2) {
    key = parts[0];
    value = parts[1];
    meta.clear();
    return true;
  }
  if (parts.size() == 3 && parts[0].find('|') != std::string::npos) {
    key = parts[0];
    value = parts[1];
    meta = parts[2];
    return true;
  }
  if (parts.size() == 3) {
    key = parts[1];
    value = parts[2];
    meta.clear();
    return true;
  }
  return false;
}

}  // namespace

ProfileCache::ProfileCache(std::string directory)
    : directory_(std::move(directory)),
      // Chaos site: a full disk / revoked mount / flock contention storm, all
      // surfaced as "the write failed" so the degrade path is what runs.
      disk_(directory_, "isaac_profiles.txt",
            [] { return ISAAC_FAILPOINT_FIRED("cache.write_fail"); }) {
  if (!directory_.empty()) load_from_disk();
}

EntryTier ProfileCache::tier_from_meta(const std::string& meta) {
  if (meta.find("tier=provisional") != std::string::npos) return EntryTier::provisional;
  if (meta.find("tier=fallback") != std::string::npos) return EntryTier::fallback;
  return EntryTier::refined;
}

void ProfileCache::load_from_disk() {
  const std::filesystem::path& file = disk_.path();

  // Parse into one ordered map first (last-wins), then distribute across the
  // shards; the single-threaded constructor needs no locks yet.
  std::map<std::string, Entry> live;
  std::size_t lines = 0;
  std::uint64_t corrupt = 0;

#if ISAAC_HAVE_FLOCK
  // Hold the same exclusive flock the appenders take for the whole
  // read-compact cycle, so a concurrent process can neither append between
  // our read and rewrite nor observe a half-truncated file.
  const int fd = ::open(file.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) return;  // no cache yet
  const bool locked = ::flock(fd, LOCK_EX) == 0;  // unlocked: load, skip compaction
  std::string contents;
  bool read_ok;
  {
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd, buf, sizeof buf)) > 0) contents.append(buf, static_cast<std::size_t>(n));
    // A read error would leave `contents` a truncated view of the file;
    // compacting from it would permanently drop the unread tail. Load what
    // was read, but never rewrite.
    read_ok = n == 0;
  }
#else
  std::ifstream in(file);
  if (!in) return;  // no cache yet
  const std::string contents{std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>()};
#endif
  {
    std::istringstream is(contents);
    std::string line, key, value, meta;
    while (std::getline(is, line)) {
      if (line.empty()) continue;
      ++lines;
      if (!parse_line(line, key, value, meta)) {
        // Quarantine, never fatal: a torn tail or foreign garbage costs the
        // one line, not the cache. Counted below; compaction (which rewrites
        // only parsed entries) heals the file.
        ++corrupt;
        continue;
      }
      const EntryTier entry_tier = tier_from_meta(meta);
      live[key] = Entry{value, meta, entry_tier, {}};
    }
  }
#if ISAAC_HAVE_FLOCK
  // Compact once stale duplicates outnumber live entries: appends never
  // rewrite, so re-tuned and tier-upgraded keys otherwise accumulate one
  // dead line per store forever. In-place through the flocked descriptor
  // keeps the inode stable, so writers blocked on the flock append to the
  // compacted file, not to a renamed-away orphan. Write first, truncate
  // last — never ftruncate(0) up front, which would turn any mid-write
  // failure into whole-file loss. Overwriting the head (shrinking: the
  // compacted lines are a subset of the old ones) bounds a failure to the
  // few head lines actually clobbered, and a truncate failure merely leaves
  // a stale tail that last-wins parsing already resolves.
  if (locked && read_ok && lines > 2 * live.size() && !live.empty()) {
    telemetry::Span span("cache.compact");
    ISAAC_TM_COUNT("cache.compaction");
    std::string compacted;
    for (const auto& [key, entry] : live) {
      compacted += format_line(key, entry.encoded, entry.meta);
    }
    bool ok = ::lseek(fd, 0, SEEK_SET) == 0;
    std::size_t written = 0;
    while (ok && written < compacted.size()) {
      const ssize_t n = ::write(fd, compacted.data() + written, compacted.size() - written);
      if (n <= 0) ok = false;
      written += n > 0 ? static_cast<std::size_t>(n) : 0;
    }
    ok = ok && ::ftruncate(fd, static_cast<off_t>(compacted.size())) == 0;
    if (ok) {
      ISAAC_LOG_INFO() << "profile cache: compacted " << lines << " lines down to "
                       << live.size() << " in " << file.string();
    } else {
      ISAAC_LOG_WARN() << "profile cache: compaction of " << file.string()
                       << " failed mid-write; entries preserved, file left uncompacted";
    }
  }
  if (locked) ::flock(fd, LOCK_UN);
  ::close(fd);
#endif

  // The constructor runs single-threaded, but the shard maps are guarded
  // members: take each writer lock anyway (uncontended, one-time cost) so the
  // population is analysis-clean instead of an escape hatch.
  for (auto& [key, entry] : live) {
    Shard& shard = shard_for(key);
    sync::WriterMutexLock lock(shard.mutex);
    shard.entries.emplace(key, std::move(entry));
  }
  ISAAC_TM_COUNT_N("cache.loaded_entries", live.size());
  if (corrupt > 0) {
    ISAAC_TM_COUNT_N("cache.load_corrupt", corrupt);
    ISAAC_LOG_WARN() << "profile cache: quarantined " << corrupt << " malformed line(s) in "
                     << file.string();
  }
  ISAAC_LOG_INFO() << "profile cache: loaded " << live.size() << " entries from "
                   << file.string();
}

std::string ProfileCache::provenance(const std::string& strategy, std::size_t budget) {
  return "strategy=" + strategy + ";budget=" + std::to_string(budget);
}

std::string ProfileCache::provenance(const std::string& strategy, std::size_t budget,
                                     EntryTier tier) {
  const char* name = tier == EntryTier::provisional ? "provisional"
                     : tier == EntryTier::fallback  ? "fallback"
                                                    : "refined";
  return provenance(strategy, budget) + ";tier=" + name;
}

void ProfileCache::append_to_disk(const std::string& key, const std::string& value,
                                  const std::string& meta) {
  if (directory_.empty()) return;
  // Entries skipped while degraded are lost to the file only (memory keeps
  // them); last-wins replay semantics make that safe.
  switch (disk_.append(format_line(key, value, meta))) {
    case AppendFile::Outcome::written:
      break;
    case AppendFile::Outcome::recovered:
      ISAAC_TM_COUNT("cache.disk_recovered");
      ISAAC_LOG_INFO() << "profile cache: disk writes recovered, leaving memory-only mode";
      break;
    case AppendFile::Outcome::skipped:
      ISAAC_TM_COUNT("cache.disk_write_skipped");
      break;
    case AppendFile::Outcome::degraded:
      ISAAC_TM_COUNT("cache.disk_degraded");
      ISAAC_LOG_WARN() << "profile cache: disk append failed; degrading to memory-only with "
                       << "periodic re-probe";
      break;
    case AppendFile::Outcome::reprobe_failed:
      ISAAC_TM_COUNT("cache.disk_reprobe_failed");
      break;
  }
}

}  // namespace isaac::core
