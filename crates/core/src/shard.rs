//! A sharded, evicting, concurrency-safe view of the verdict cache — the
//! resident form served by `giallar serve`.
//!
//! [`crate::cache::VerdictCache`] is the single-process, load-verify-save
//! cache behind `giallar verify --cache`.  A long-lived daemon needs more:
//!
//! * **Sharding.**  Entries spread across `N` independently locked shards
//!   keyed by obligation fingerprint ([`ShardedVerdictCache::shard_of`]), so
//!   worker threads touching different obligations never contend on one
//!   lock.
//! * **Deterministic stat folding.**  Every shard keeps its own hit/miss/
//!   eviction counters; [`ShardedVerdictCache::fold_stats`] folds them in
//!   shard-index order, so for a deterministic request sequence the folded
//!   totals are reproducible regardless of which worker thread served which
//!   lookup.
//! * **Eviction.**  An [`EvictionPolicy`] bounds the resident set: an LRU
//!   capacity on total entries and/or a TTL on idle entries, both measured
//!   on a *logical* clock ([`ShardedVerdictCache::tick`], advanced by the
//!   server once per request batch) so eviction decisions are replayable —
//!   wall-clock time never changes which entry is dropped.
//! * **Pinning.**  A request batch pins the fingerprints it is serving
//!   ([`ShardedVerdictCache::pin`]); eviction and compaction skip pinned
//!   entries, so a concurrently served verdict can never be dropped mid
//!   request.
//! * **Compaction.**  Entries are tagged with the rule-library fingerprint
//!   and backend id that produced them; [`ShardedVerdictCache::compact`]
//!   drops entries from retired libraries or backends (e.g. differential
//!   `reference` verdicts once the comparison run is over), reclaiming
//!   memory that ordinary lookups would never hit again.
//!
//! The sharded cache interoperates with the persistent one:
//! [`ShardedVerdictCache::from_cache`] warm-starts a daemon from a
//! `giallar verify --cache` file and [`ShardedVerdictCache::to_cache`]
//! exports the resident entries for an atomic save on shutdown.
//!
//! # Example
//!
//! ```
//! use giallar_core::cache::CachedVerdict;
//! use giallar_core::shard::{EvictionPolicy, ShardedVerdictCache};
//! use smtlite::Fingerprint;
//!
//! // Two entries max; entries idle for more than 8 ticks expire.  One
//! // shard, so the capacity bound is exercised deterministically here; a
//! // server would use several and let fingerprints spread.
//! let policy = EvictionPolicy { max_entries: Some(2), ttl: Some(8) };
//! let cache = ShardedVerdictCache::new(1, policy);
//! cache.record(Fingerprint(1), CachedVerdict::Proved, "rewrite-equiv");
//! cache.record(Fingerprint(2), CachedVerdict::Proved, "rewrite-equiv");
//!
//! // The next batch touches fingerprint 1, leaving 2 least recently used;
//! // a third entry then pushes the cache over capacity and the eviction
//! // sweep drops fingerprint 2.
//! cache.tick();
//! assert!(cache.lookup(Fingerprint(1)).is_some());
//! cache.record(Fingerprint(3), CachedVerdict::Proved, "rewrite-equiv");
//! let summary = cache.evict();
//! assert_eq!(summary.evicted_lru, 1);
//! assert!(cache.lookup(Fingerprint(2)).is_none());
//!
//! let stats = cache.fold_stats();
//! assert_eq!((stats.total.hits, stats.total.misses), (1, 1));
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use smtlite::Fingerprint;

use crate::cache::{CachedVerdict, VerdictCache};
use crate::verifier::{Reached, VerdictStore};

/// Bounds on the resident entry set.  `None` disables the respective
/// mechanism; the all-`None` [`EvictionPolicy::unbounded`] keeps every entry
/// forever, matching the persistent cache's behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictionPolicy {
    /// Total entry capacity across all shards.  When a shard exceeds its
    /// slice of the capacity, least-recently-used unpinned entries are
    /// evicted until it fits.
    pub max_entries: Option<usize>,
    /// Idle time to live, in logical ticks: an unpinned entry last touched
    /// more than `ttl` ticks ago is evicted on the next [`evict`] sweep.
    ///
    /// [`evict`]: ShardedVerdictCache::evict
    pub ttl: Option<u64>,
}

impl EvictionPolicy {
    /// No eviction: every recorded entry stays resident.
    pub fn unbounded() -> EvictionPolicy {
        EvictionPolicy::default()
    }
}

/// Monotonic per-shard counters.  Totals fold deterministically in shard
/// order (see [`ShardedVerdictCache::fold_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups answered from the shard.
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Entries inserted (first-time records; overwrites count too).
    pub inserted: u64,
    /// Entries dropped by the LRU capacity bound.
    pub evicted_lru: u64,
    /// Entries dropped by the idle TTL.
    pub evicted_ttl: u64,
    /// Entries dropped by [`ShardedVerdictCache::compact`].
    pub compacted: u64,
    /// Entries dropped by [`ShardedVerdictCache::invalidate`].
    pub invalidated: u64,
}

impl ShardStats {
    fn fold(&mut self, other: &ShardStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserted += other.inserted;
        self.evicted_lru += other.evicted_lru;
        self.evicted_ttl += other.evicted_ttl;
        self.compacted += other.compacted;
        self.invalidated += other.invalidated;
    }
}

/// The deterministic fold of every shard's counters, plus a point-in-time
/// census of the resident set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedStats {
    /// Shard counters summed in shard-index order.
    pub total: ShardStats,
    /// Each shard's own counters, in shard-index order.
    pub per_shard: Vec<ShardStats>,
    /// Entries currently resident across all shards.
    pub entries: usize,
    /// Entries currently pinned by in-flight requests.
    pub pinned: usize,
}

/// What one [`ShardedVerdictCache::evict`] sweep removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictionSummary {
    /// Entries dropped for exceeding the LRU capacity.
    pub evicted_lru: u64,
    /// Entries dropped for exceeding the idle TTL.
    pub evicted_ttl: u64,
}

/// One resident verdict plus the bookkeeping eviction and compaction need.
#[derive(Debug, Clone)]
struct Entry {
    verdict: CachedVerdict,
    /// Rule-library fingerprint in force when the verdict was recorded.
    library: Fingerprint,
    /// Id of the backend that discharged the verdict, when known (entries
    /// imported from a persistent cache file carry no provenance and are
    /// only ever compacted by library drift).
    backend: Option<String>,
    /// Logical tick of the last lookup or record.
    last_used: u64,
    /// In-flight requests currently holding this entry; eviction and
    /// compaction skip entries with `pins > 0`.
    pins: u32,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Fingerprint, Entry>,
    stats: ShardStats,
}

impl Shard {
    /// Evicts until the shard holds at most `cap` entries, least recently
    /// used first (ties broken by fingerprint for determinism), skipping
    /// pinned entries.  Returns how many were dropped.
    fn enforce_cap(&mut self, cap: usize) -> u64 {
        if self.entries.len() <= cap {
            return 0;
        }
        let mut candidates: Vec<(u64, Fingerprint)> = self
            .entries
            .iter()
            .filter(|(_, entry)| entry.pins == 0)
            .map(|(fp, entry)| (entry.last_used, *fp))
            .collect();
        candidates.sort_unstable();
        let excess = self.entries.len() - cap;
        let mut dropped = 0;
        for (_, fp) in candidates.into_iter().take(excess) {
            self.entries.remove(&fp);
            dropped += 1;
        }
        self.stats.evicted_lru += dropped;
        dropped
    }

    /// Evicts unpinned entries idle for more than `ttl` ticks at `now`.
    fn expire(&mut self, ttl: u64, now: u64) -> u64 {
        let before = self.entries.len();
        self.entries
            .retain(|_, entry| entry.pins > 0 || now.saturating_sub(entry.last_used) <= ttl);
        let dropped = (before - self.entries.len()) as u64;
        self.stats.evicted_ttl += dropped;
        dropped
    }
}

/// The resident, sharded verdict cache.  See the [module docs](self) for
/// the design; all methods take `&self` (each shard is behind its own
/// mutex), so one instance is shared freely across worker threads.
#[derive(Debug)]
pub struct ShardedVerdictCache {
    shards: Vec<Mutex<Shard>>,
    policy: EvictionPolicy,
    /// Logical clock: advanced once per served request batch.
    clock: AtomicU64,
    /// The rule library entries recorded through [`Self::record`] are
    /// tagged with (compaction drops entries tagged otherwise).
    library: Fingerprint,
}

impl ShardedVerdictCache {
    /// An empty cache with `shards` shards (at least 1) bound to the
    /// current rewrite-rule library.
    pub fn new(shards: usize, policy: EvictionPolicy) -> ShardedVerdictCache {
        let shards = shards.max(1);
        ShardedVerdictCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            policy,
            clock: AtomicU64::new(0),
            library: qc_symbolic::rule_library_fingerprint(),
        }
    }

    /// Warm-starts a sharded cache from a persistent [`VerdictCache`] (e.g.
    /// the `giallar verify --cache` file): every entry is distributed to its
    /// shard with `last_used = 0` and no backend provenance (the v2 file
    /// format does not record which backend discharged an entry, so
    /// imported entries are only compacted by library drift).
    pub fn from_cache(cache: &VerdictCache, shards: usize, policy: EvictionPolicy) -> Self {
        let sharded = ShardedVerdictCache::new(shards, policy);
        for (fingerprint, verdict) in cache.entries() {
            let index = sharded.shard_of(fingerprint);
            let mut shard = sharded.shards[index].lock().expect("shard lock");
            shard.entries.insert(
                fingerprint,
                Entry {
                    verdict: verdict.clone(),
                    library: cache.rule_library_fingerprint(),
                    backend: None,
                    last_used: 0,
                    pins: 0,
                },
            );
        }
        sharded
    }

    /// Exports the resident entries as a persistent [`VerdictCache`] (for
    /// an atomic save on daemon shutdown).  The BTreeMap-backed export is
    /// deterministic: the file bytes depend only on the entry set, not on
    /// shard layout or insertion order.
    pub fn to_cache(&self) -> VerdictCache {
        let mut cache = VerdictCache::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            for (fingerprint, entry) in &shard.entries {
                cache.record(*fingerprint, entry.verdict.clone());
            }
        }
        cache
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The eviction policy in force.
    pub fn policy(&self) -> EvictionPolicy {
        self.policy
    }

    /// The rewrite-rule library fingerprint recorded entries are tagged
    /// with.
    pub fn rule_library_fingerprint(&self) -> Fingerprint {
        self.library
    }

    /// The shard index an obligation fingerprint lives in.  Fibonacci
    /// multiplicative mixing on top of the FNV-1a fingerprint keeps the
    /// mapping uniform even for fingerprints that share low bits.
    pub fn shard_of(&self, fingerprint: Fingerprint) -> usize {
        let mixed = fingerprint.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) as usize) % self.shards.len()
    }

    /// The current logical tick.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Advances the logical clock (the server calls this once per request
    /// batch) and returns the new tick.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up a verdict, counting a shard-local hit or miss and touching
    /// the entry's LRU position.
    pub fn lookup(&self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        let now = self.now();
        let mut shard = self.shards[self.shard_of(fingerprint)].lock().expect("shard lock");
        match shard.entries.get_mut(&fingerprint) {
            Some(entry) => {
                entry.last_used = now;
                let verdict = entry.verdict.clone();
                shard.stats.hits += 1;
                Some(verdict)
            }
            None => {
                shard.stats.misses += 1;
                None
            }
        }
    }

    /// Counts a served hit or miss against the fingerprint's shard, touching
    /// the entry's LRU position on a hit.
    ///
    /// The serve dispatcher resolves a request batch against a snapshot of
    /// the cache taken at batch start ([`Self::peek`] + [`Self::pin`]), then
    /// folds each request's outcome in arrival order through this method —
    /// so the folded counters reflect the snapshot every request actually
    /// saw, even when a fresh verdict recorded by an earlier request in the
    /// batch would have turned a later request's miss into a hit.
    pub fn note_served(&self, fingerprint: Fingerprint, hit: bool) {
        let now = self.now();
        let mut shard = self.shards[self.shard_of(fingerprint)].lock().expect("shard lock");
        if hit {
            shard.stats.hits += 1;
            if let Some(entry) = shard.entries.get_mut(&fingerprint) {
                entry.last_used = now;
            }
        } else {
            shard.stats.misses += 1;
        }
    }

    /// Looks up a verdict without counting or touching LRU state (tests and
    /// diagnostics).
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        let shard = self.shards[self.shard_of(fingerprint)].lock().expect("shard lock");
        shard.entries.get(&fingerprint).map(|entry| entry.verdict.clone())
    }

    /// Records a verdict discharged by `backend` (a stable backend id, e.g.
    /// `"rewrite-equiv"`), tagging it with the current rule library and
    /// touching its LRU position.  Overwrites any previous entry.
    pub fn record(&self, fingerprint: Fingerprint, verdict: CachedVerdict, backend: &str) {
        let now = self.now();
        let mut shard = self.shards[self.shard_of(fingerprint)].lock().expect("shard lock");
        let pins = shard.entries.get(&fingerprint).map_or(0, |entry| entry.pins);
        shard.entries.insert(
            fingerprint,
            Entry {
                verdict,
                library: self.library,
                backend: Some(backend.to_string()),
                last_used: now,
                pins,
            },
        );
        shard.stats.inserted += 1;
    }

    /// Pins an entry for the duration of a served request: a pinned entry
    /// is never evicted or compacted.  Returns whether the entry existed
    /// (pinning a missing fingerprint is a no-op).  Pins nest; every
    /// successful `pin` must be paired with one [`Self::unpin`].
    pub fn pin(&self, fingerprint: Fingerprint) -> bool {
        let mut shard = self.shards[self.shard_of(fingerprint)].lock().expect("shard lock");
        match shard.entries.get_mut(&fingerprint) {
            Some(entry) => {
                entry.pins += 1;
                true
            }
            None => false,
        }
    }

    /// Releases one pin on an entry.  Unpinning a missing or unpinned
    /// fingerprint is a no-op (the entry may have been invalidated while
    /// pinned — invalidation is an explicit edit, not an eviction).
    pub fn unpin(&self, fingerprint: Fingerprint) {
        let mut shard = self.shards[self.shard_of(fingerprint)].lock().expect("shard lock");
        if let Some(entry) = shard.entries.get_mut(&fingerprint) {
            entry.pins = entry.pins.saturating_sub(1);
        }
    }

    /// Removes one entry (the daemon's targeted re-check path, mirroring
    /// [`VerdictCache::invalidate`]), returning whether it existed.
    /// Invalidation ignores pins: it models an obligation *edit*, after
    /// which the entry would be stale for every future request.
    pub fn invalidate(&self, fingerprint: Fingerprint) -> bool {
        let mut shard = self.shards[self.shard_of(fingerprint)].lock().expect("shard lock");
        let removed = shard.entries.remove(&fingerprint).is_some();
        if removed {
            shard.stats.invalidated += 1;
        }
        removed
    }

    /// One eviction sweep under the policy: first expire idle entries (TTL),
    /// then enforce the LRU capacity, shard by shard.  Pinned entries are
    /// never dropped, even when that leaves a shard over capacity.
    pub fn evict(&self) -> EvictionSummary {
        let now = self.now();
        let mut summary = EvictionSummary::default();
        let cap = self.policy.max_entries.map(|total| total.div_ceil(self.shards.len()));
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard lock");
            if let Some(ttl) = self.policy.ttl {
                summary.evicted_ttl += shard.expire(ttl, now);
            }
            if let Some(cap) = cap {
                summary.evicted_lru += shard.enforce_cap(cap);
            }
        }
        summary
    }

    /// Drops every unpinned entry recorded under a retired rule library
    /// (any library other than the current one) or under one of the
    /// `retired_backends` ids.  Returns how many entries were dropped.
    ///
    /// This is how a daemon reclaims differential-run verdicts: after a
    /// `--backend reference` comparison, `compact(&["reference"])` removes
    /// the reference entries that default-routed requests will never hit.
    pub fn compact(&self, retired_backends: &[&str]) -> usize {
        let mut dropped = 0usize;
        for shard in &self.shards {
            let mut shard = shard.lock().expect("shard lock");
            let before = shard.entries.len();
            let library = self.library;
            shard.entries.retain(|_, entry| {
                entry.pins > 0
                    || (entry.library == library
                        && entry
                            .backend
                            .as_deref()
                            .is_none_or(|backend| !retired_backends.contains(&backend)))
            });
            let removed = before - shard.entries.len();
            shard.stats.compacted += removed as u64;
            dropped += removed;
        }
        dropped
    }

    /// Total resident entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.lock().expect("shard lock").entries.len()).sum()
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Folds every shard's counters in shard-index order.  The fold order
    /// is fixed, and each counter is only ever incremented under its
    /// shard's lock, so for a deterministic request sequence the folded
    /// totals are identical across runs and thread schedules.
    pub fn fold_stats(&self) -> FoldedStats {
        let mut total = ShardStats::default();
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let mut entries = 0usize;
        let mut pinned = 0usize;
        for shard in &self.shards {
            let shard = shard.lock().expect("shard lock");
            total.fold(&shard.stats);
            per_shard.push(shard.stats);
            entries += shard.entries.len();
            pinned += shard.entries.values().filter(|entry| entry.pins > 0).count();
        }
        FoldedStats { total, per_shard, entries, pinned }
    }
}

/// The daemon's store.  A hit stays pinned until its batch has folded, so
/// no eviction sweep or compaction drops it mid request; every reached
/// obligation is counted against its shard
/// ([`ShardedVerdictCache::note_served`]), and a fresh verdict is recorded
/// with the id of the backend that discharged it, which
/// [`ShardedVerdictCache::compact`] reads.
impl VerdictStore for &ShardedVerdictCache {
    fn resolve(&mut self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        if !self.pin(fingerprint) {
            return None;
        }
        let hit = self.peek(fingerprint);
        if hit.is_none() {
            // Invalidated between pin and peek: a miss.
            self.unpin(fingerprint);
        }
        hit
    }

    fn settle(&mut self, _pass: &str, reached: Vec<Reached>) {
        for Reached { fingerprint, fresh } in reached {
            self.note_served(fingerprint, fresh.is_none());
            if let Some((verdict, backend)) = fresh {
                self.record(fingerprint, verdict, backend);
            }
        }
    }

    fn release(&mut self, fingerprint: Fingerprint) {
        self.unpin(fingerprint);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proved(cache: &ShardedVerdictCache, fp: u64) {
        cache.record(Fingerprint(fp), CachedVerdict::Proved, "rewrite-equiv");
    }

    #[test]
    fn sharding_spreads_and_round_trips() {
        let cache = ShardedVerdictCache::new(8, EvictionPolicy::unbounded());
        for fp in 0..64 {
            proved(&cache, fp);
        }
        assert_eq!(cache.len(), 64);
        // Every entry is found in (only) its own shard.
        for fp in 0..64 {
            assert!(cache.lookup(Fingerprint(fp)).is_some());
        }
        // The mixer spreads consecutive fingerprints across shards.
        let hit_shards: std::collections::BTreeSet<usize> =
            (0..64).map(|fp| cache.shard_of(Fingerprint(fp))).collect();
        assert!(hit_shards.len() > 1, "all 64 entries landed in one shard");
        let stats = cache.fold_stats();
        assert_eq!(stats.total.hits, 64);
        assert_eq!(stats.total.misses, 0);
        assert_eq!(stats.entries, 64);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let policy = EvictionPolicy { max_entries: Some(2), ttl: None };
        let cache = ShardedVerdictCache::new(1, policy);
        proved(&cache, 1);
        cache.tick();
        proved(&cache, 2);
        cache.tick();
        // Touch 1 so 2 becomes the LRU entry.
        assert!(cache.lookup(Fingerprint(1)).is_some());
        proved(&cache, 3);
        let summary = cache.evict();
        assert_eq!(summary.evicted_lru, 1);
        assert!(cache.peek(Fingerprint(1)).is_some());
        assert!(cache.peek(Fingerprint(2)).is_none());
        assert!(cache.peek(Fingerprint(3)).is_some());
    }

    #[test]
    fn ttl_expires_idle_entries_only() {
        let policy = EvictionPolicy { max_entries: None, ttl: Some(2) };
        let cache = ShardedVerdictCache::new(2, policy);
        proved(&cache, 1);
        proved(&cache, 2);
        for _ in 0..3 {
            cache.tick();
        }
        // Keep 2 fresh; 1 has been idle for 3 > 2 ticks.
        assert!(cache.lookup(Fingerprint(2)).is_some());
        let summary = cache.evict();
        assert_eq!(summary.evicted_ttl, 1);
        assert!(cache.peek(Fingerprint(1)).is_none());
        assert!(cache.peek(Fingerprint(2)).is_some());
    }

    #[test]
    fn pinned_entries_survive_eviction_and_compaction() {
        let policy = EvictionPolicy { max_entries: Some(1), ttl: Some(0) };
        let cache = ShardedVerdictCache::new(1, policy);
        proved(&cache, 1);
        proved(&cache, 2);
        assert!(cache.pin(Fingerprint(1)));
        assert!(cache.pin(Fingerprint(2)));
        cache.tick();
        cache.tick();
        // Both entries violate the cap and the TTL, but both are pinned.
        let summary = cache.evict();
        assert_eq!(summary, EvictionSummary::default());
        assert_eq!(cache.compact(&["rewrite-equiv"]), 0);
        assert_eq!(cache.len(), 2);
        // Unpinning one releases exactly that one to the next sweep.
        cache.unpin(Fingerprint(2));
        let summary = cache.evict();
        assert_eq!(summary.evicted_ttl, 1);
        assert!(cache.peek(Fingerprint(1)).is_some());
        cache.unpin(Fingerprint(1));
    }

    #[test]
    fn pinning_missing_entries_is_a_no_op() {
        let cache = ShardedVerdictCache::new(2, EvictionPolicy::unbounded());
        assert!(!cache.pin(Fingerprint(9)));
        cache.unpin(Fingerprint(9));
        // Invalidation ignores pins (an edit makes the entry stale for
        // everyone), and unpinning after is still a no-op.
        proved(&cache, 1);
        assert!(cache.pin(Fingerprint(1)));
        assert!(cache.invalidate(Fingerprint(1)));
        cache.unpin(Fingerprint(1));
        assert!(cache.is_empty());
    }

    #[test]
    fn compaction_retires_backends_but_keeps_current_entries() {
        let cache = ShardedVerdictCache::new(4, EvictionPolicy::unbounded());
        cache.record(Fingerprint(1), CachedVerdict::Proved, "rewrite-equiv");
        cache.record(Fingerprint(2), CachedVerdict::Proved, "reference");
        cache.record(Fingerprint(3), CachedVerdict::Proved, "reference");
        assert_eq!(cache.compact(&[]), 0, "nothing retired, nothing dropped");
        assert_eq!(cache.compact(&["reference"]), 2);
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(Fingerprint(1)).is_some());
        let stats = cache.fold_stats();
        assert_eq!(stats.total.compacted, 2);
    }

    #[test]
    fn import_and_export_round_trip_through_the_persistent_cache() {
        let mut persistent = VerdictCache::new();
        persistent.record(Fingerprint(7), CachedVerdict::Proved);
        persistent.record(
            Fingerprint(8),
            CachedVerdict::Refuted { explanation: "wire 0".to_string(), site: None },
        );
        let sharded = ShardedVerdictCache::from_cache(&persistent, 4, EvictionPolicy::unbounded());
        assert_eq!(sharded.len(), 2);
        assert_eq!(
            sharded.peek(Fingerprint(8)),
            Some(CachedVerdict::Refuted { explanation: "wire 0".to_string(), site: None })
        );
        // Imported entries carry no backend provenance: backend compaction
        // never touches them, library compaction would.
        assert_eq!(sharded.compact(&["rewrite-equiv", "reference"]), 0);
        let exported = sharded.to_cache();
        assert_eq!(exported.to_json(), persistent.to_json(), "export is deterministic");
    }

    #[test]
    fn stats_fold_deterministically_for_a_replayed_sequence() {
        let run = || {
            let policy = EvictionPolicy { max_entries: Some(8), ttl: Some(3) };
            let cache = ShardedVerdictCache::new(4, policy);
            for round in 0..6u64 {
                cache.tick();
                for fp in 0..12u64 {
                    if cache.lookup(Fingerprint(fp)).is_none() {
                        cache.record(Fingerprint(fp), CachedVerdict::Proved, "rewrite-equiv");
                    }
                }
                cache.evict();
                if round == 3 {
                    cache.compact(&["reference"]);
                }
            }
            cache.fold_stats()
        };
        let first = run();
        let second = run();
        assert_eq!(first, second);
        assert_eq!(first.total.hits + first.total.misses, 72);
    }
}
