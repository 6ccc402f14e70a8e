// Filesystem cache for tuned kernel selections (paper §6: "the resulting
// predictions may be used directly ... cached on the filesystem").
//
// One keyed store for every operation: entries are (key, encoded tuning,
// provenance) strings, where the key is device|kind|shape-fields, the codec
// comes from OperationTraits<Op>, and the provenance records the search name,
// the measurement budget and the tier that produced the tuning (so every
// cached selection says where it came from). Typed accessors
// lookup<Op>/store<Op> decode on the way out, so adding an operation adds no
// code here.
//
// Entries carry a *tier* for the two-tier dispatch runtime: `provisional`
// marks a zero-measurement model prediction served while a background
// refinement is pending; `refined` marks the result of a full search;
// `fallback` marks a seed-grid entry served by the circuit breaker while the
// real selection path is failing (DESIGN.md, "Failure domains") — the bottom
// of the degradation ladder, upgradeable by anything better. upgrade<Op>()
// replaces a provisional or fallback entry in place and never demotes a
// refined one. The tier travels inside the provenance column as
// `tier=provisional|refined|fallback`; lines without the field (all legacy
// schemas) parse as refined.
//
// Failure domains: load_from_disk() quarantines malformed/torn lines (a
// corrupt cache degrades capacity, never correctness — counted in
// `cache.load_corrupt`), and a failing disk append flips the cache into
// memory-only mode with a periodic re-probe instead of hammering a dead disk
// on every store (common/append_file.hpp, shared with the observation log).
//
// Thread-safe and sharded: keys hash onto independent buckets, each guarded
// by its own shared_mutex, so hot-path lookups from many threads stop
// contending on one global lock. Disk appends go through AppendFile's flocked
// O_APPEND write so concurrent processes (or threads racing in one process) cannot
// interleave half-written lines; appends happen under the owning shard's
// exclusive lock, so the file's last-writer order matches the in-memory
// last-writer order per key. load_from_disk() compacts the append-only file
// (last-wins, under flock) once duplicate lines outnumber live entries.
#pragma once

#include <any>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "common/append_file.hpp"
#include "common/thread_annotations.hpp"
#include "core/operation.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace isaac::core {

/// How trustworthy a cached selection is. `provisional` = the model's instant
/// argmax (tier-1 dispatch), pending background refinement; `refined` = a
/// full search's winner; `fallback` = a seed-grid selection served under a
/// tripped circuit breaker, below provisional on the degradation ladder.
enum class EntryTier { provisional, refined, fallback };

class ProfileCache {
 public:
  /// directory == "" keeps the cache purely in memory.
  explicit ProfileCache(std::string directory = "");

  /// Typed lookup; `tier` (optional) reports the entry's tier on a hit, so
  /// the dispatch path learns "provisional, refinement may be owed" from the
  /// same shard acquisition as the lookup itself.
  template <typename Op>
  std::optional<typename OperationTraits<Op>::Tuning> lookup(
      const std::string& device, const typename OperationTraits<Op>::Shape& shape,
      EntryTier* tier = nullptr) const {
    using Tuning = typename OperationTraits<Op>::Tuning;
    const std::string k = key<Op>(device, shape);
    Shard& shard = shard_for(k);
    std::string encoded;
    {
      sync::ReaderMutexLock lock(shard.mutex);
      const auto it = shard.entries.find(k);
      if (it == shard.entries.end()) {
        ISAAC_TM_COUNT("cache.miss");
        return std::nullopt;
      }
      ISAAC_TM_COUNT("cache.hit");
      if (it->second.tier == EntryTier::provisional) ISAAC_TM_COUNT("cache.hit_provisional");
      if (tier) *tier = it->second.tier;
      // Hot path: entries decoded before (every store, or a prior lookup of a
      // disk-loaded entry) return without touching the textual codec.
      if (const auto* decoded = std::any_cast<Tuning>(&it->second.decoded)) return *decoded;
      encoded = it->second.encoded;
    }
    Tuning tuning;
    if (!OperationTraits<Op>::decode_tuning(encoded, tuning)) return std::nullopt;
    {
      // Memoize the decode for disk-loaded entries (paid once per entry).
      sync::WriterMutexLock lock(shard.mutex);
      const auto it = shard.entries.find(k);
      if (it != shard.entries.end() && !it->second.decoded.has_value() &&
          it->second.encoded == encoded) {
        it->second.decoded = tuning;
      }
    }
    return tuning;
  }

  /// Store unconditionally (last-writer wins). The entry's tier is parsed
  /// from `meta`'s `tier=` field — absent means refined, so legacy callers
  /// and legacy disk lines keep their old meaning.
  template <typename Op>
  void store(const std::string& device, const typename OperationTraits<Op>::Shape& shape,
             const typename OperationTraits<Op>::Tuning& tuning, std::string meta = "") {
    const std::string k = key<Op>(device, shape);
    const std::string value = OperationTraits<Op>::encode_tuning(tuning);
    Shard& shard = shard_for(k);
    // The disk append stays under the shard lock so the file's last-writer
    // order matches the in-memory last-writer order when stores race on one
    // key (same key -> same shard).
    const EntryTier entry_tier = tier_from_meta(meta);
    sync::WriterMutexLock lock(shard.mutex);
    ISAAC_TM_COUNT("cache.store");
    append_to_disk(k, value, meta);
    shard.entries[k] = Entry{value, std::move(meta), entry_tier, tuning};
  }

  /// Upgrade-in-place for the two-tier dispatch: replace the entry only while
  /// it is still provisional or fallback (or absent). Returns false — and
  /// writes nothing, in memory or on disk — when a refined entry already
  /// holds the key, so a straggling refinement can never demote a better
  /// result.
  template <typename Op>
  bool upgrade(const std::string& device, const typename OperationTraits<Op>::Shape& shape,
               const typename OperationTraits<Op>::Tuning& tuning, std::string meta) {
    const std::string k = key<Op>(device, shape);
    const std::string value = OperationTraits<Op>::encode_tuning(tuning);
    Shard& shard = shard_for(k);
    const EntryTier entry_tier = tier_from_meta(meta);
    // Span declared before the lock scope: its destructor pushes to the trace
    // ring *after* the shard unlocks, so no trace-ring lock nests in here.
    telemetry::Span span("cache.upgrade");
    sync::WriterMutexLock lock(shard.mutex);
    const auto it = shard.entries.find(k);
    if (it != shard.entries.end() && it->second.tier == EntryTier::refined) {
      ISAAC_TM_COUNT("cache.upgrade_reject");
      return false;
    }
    ISAAC_TM_COUNT("cache.upgrade");
    append_to_disk(k, value, meta);
    shard.entries[k] = Entry{value, std::move(meta), entry_tier, tuning};
    return true;
  }

  /// Canonical provenance string stored alongside a tuning:
  /// "strategy=<name>;budget=<n>[;tier=<tier>]".
  static std::string provenance(const std::string& strategy, std::size_t budget);
  static std::string provenance(const std::string& strategy, std::size_t budget,
                                EntryTier tier);

  /// Provenance recorded for a key ("" for pre-schema-bump entries); nullopt
  /// when the key is absent. Key derivation via key<Op>().
  std::optional<std::string> meta(const std::string& key) const {
    Shard& shard = shard_for(key);
    sync::ReaderMutexLock lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return std::nullopt;
    return it->second.meta;
  }

  /// The tier recorded for a key; nullopt when the key is absent.
  std::optional<EntryTier> tier(const std::string& key) const {
    Shard& shard = shard_for(key);
    sync::ReaderMutexLock lock(shard.mutex);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return std::nullopt;
    return it->second.tier;
  }

  std::size_t size() const noexcept {
    std::size_t total = 0;
    for (const auto& shard : shards_) {
      sync::ReaderMutexLock lock(shard.mutex);
      total += shard.entries.size();
    }
    return total;
  }

  /// Key derivation, exposed for tests: device|kind|shape-fields.
  template <typename Op>
  static std::string key(const std::string& device,
                         const typename OperationTraits<Op>::Shape& shape) {
    return device + '|' + OperationTraits<Op>::kind() + '|' +
           OperationTraits<Op>::shape_key(shape);
  }

  /// `tier=provisional` / `tier=fallback` anywhere in the provenance mark the
  /// entry's tier; anything else (including every legacy schema) is refined.
  static EntryTier tier_from_meta(const std::string& meta);

  // ---- disk failure domain (DESIGN.md, "Failure domains") ----

  /// True while the cache is running memory-only because an append failed;
  /// it re-probes the disk once per retry interval and clears itself on the
  /// first successful write. Hits, misses, stores, upgrades and every disk
  /// event are counted once, in the `cache.*` telemetry counters.
  bool disk_degraded() const noexcept { return disk_.degraded(); }

  /// How long a failed disk stays quarantined before the next write re-probes
  /// it (default 1 s; tests shrink it).
  void set_disk_retry_ms(double ms) noexcept { disk_.set_retry_ms(ms); }

 private:
  /// The encoded form is authoritative (it is what reaches disk); `decoded`
  /// memoizes the parsed tuning so cached dispatch never re-parses text.
  struct Entry {
    std::string encoded;
    std::string meta;  // provenance column ("" for legacy lines)
    EntryTier tier = EntryTier::refined;
    std::any decoded;
  };

  /// Hot-path lookups from N threads previously contended on one
  /// shared_mutex (reader-count cacheline ping-pong at 8+ threads); hashing
  /// keys across independent buckets removes the shared write to a single
  /// lock word. 16 shards comfortably cover the pool sizes the dispatch
  /// benches run at.
  static constexpr std::size_t kShards = 16;
  /// Cacheline-aligned so neighboring shards' lock words never false-share.
  struct alignas(64) Shard {
    mutable sync::SharedMutex mutex{lock_rank::Rank::cache_shard};
    std::map<std::string, Entry> entries ISAAC_GUARDED_BY(mutex);
  };

  Shard& shard_for(const std::string& key) const {
    return shards_[std::hash<std::string>{}(key) % kShards];
  }

  void load_from_disk();
  /// Append one entry line through disk_ (a no-op for an in-memory cache)
  /// and count what happened.
  void append_to_disk(const std::string& key, const std::string& value,
                      const std::string& meta);

  std::string directory_;
  mutable std::array<Shard, kShards> shards_;  // mutable: lookup memoizes decodes
  AppendFile disk_;
};

}  // namespace isaac::core
