//! The incremental verification cache, grained per proof obligation.
//!
//! Giallar's pitch is push-button *re*-verification on every compiler change
//! (§1 of the paper).  PR 2 cached verdicts per pass, which re-discharged a
//! whole pass when a single branch of its loop body changed.  Format v2
//! re-grains the cache to **one entry per proof obligation**, keyed by a
//! stable content fingerprint of everything an obligation's verdict depends
//! on:
//!
//! * the obligation's canonical form (see
//!   [`crate::serialize::obligation_canonical_form`]) — description plus
//!   goal, injective on goals by construction,
//! * the rewrite-rule library fingerprint of
//!   [`qc_symbolic::rule_library_fingerprint`] — a verdict is only valid
//!   for the rule library it was discharged under, and
//! * the id of the [`crate::backend::SolverBackend`] that discharged it —
//!   verdicts from the reference backend and the production backend are
//!   separate entries, so a differential `--backend reference` run never
//!   poisons (or is answered by) the default entries.
//!
//! [`crate::verifier::verify_all_passes_cached`] consults the cache per
//! obligation (through its [`crate::verifier::VerdictStore`] impl) and
//! re-discharges only obligations whose fingerprint changed:
//! a pass with one edited branch re-checks exactly that branch.  Hit/miss
//! statistics are tracked globally and per pass ([`VerdictCache::pass_stats`]).
//! The cache persists to a JSON file (see [`VerdictCache::to_json`]); a v1
//! (pass-grained) file loads as an empty v2 cache — the old entries cannot
//! answer obligation-grained queries, so migration is a clean cold start,
//! never an error.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use smtlite::{FaultSite, Fingerprint, FingerprintBuilder, Verdict};

use crate::json::{self, Value};
use crate::obligation::ProofObligation;
use crate::serialize::obligation_canonical_form;
use crate::verifier::{Reached, VerdictStore};

/// Version of the cache file format; bump on any breaking schema change so
/// stale files are discarded instead of misread.  v1 was pass-grained; v2 is
/// obligation-grained.
pub const CACHE_FORMAT_VERSION: u32 = 2;

/// The stable fingerprint of one proof obligation under one rule library,
/// one discharging backend, and one discharge context — the cache key.
///
/// `register_width` is the solver register the obligation is discharged
/// over: the widest equivalence goal of its pass (see
/// [`crate::verifier::pass_register_width`]) for circuit-equivalence goals,
/// and `0` for arithmetic/trivial goals, whose discharge never touches a
/// register.  Folding it in keeps cached verdicts — including the exact
/// counterexample text, which mentions register wires — a faithful replay
/// of what a fresh discharge in the same pass context would produce, even
/// when an identical obligation appears in passes of different widths.
pub fn obligation_fingerprint(
    obligation: &ProofObligation,
    rule_library: Fingerprint,
    backend_id: &str,
    register_width: usize,
) -> Fingerprint {
    let mut builder = FingerprintBuilder::new();
    builder.write_str("giallar-obligation");
    builder.write_u64(u64::from(CACHE_FORMAT_VERSION));
    builder.write_u64(rule_library.0);
    builder.write_str(backend_id);
    builder.write_u64(register_width as u64);
    builder.write_str(&obligation_canonical_form(obligation));
    builder.finish()
}

/// One cached verdict.  Mirrors [`smtlite::Verdict`] with owned explanation
/// text so a warm run reproduces failure reports byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedVerdict {
    /// The obligation was discharged.
    Proved,
    /// The obligation failed with a counterexample explanation.
    Refuted {
        /// The solver's counterexample description.
        explanation: String,
        /// Structured fault coordinates, when the discharging layer could
        /// localise the failure (see [`smtlite::FaultSite`]).
        site: Option<FaultSite>,
    },
    /// The solver could not decide the obligation.
    Unknown {
        /// Why the solver gave up.
        reason: String,
    },
}

impl CachedVerdict {
    /// Captures a solver verdict for storage.
    pub fn from_verdict(verdict: &Verdict) -> Self {
        match verdict {
            Verdict::Proved => CachedVerdict::Proved,
            Verdict::Refuted { explanation, site } => {
                CachedVerdict::Refuted { explanation: explanation.clone(), site: *site }
            }
            Verdict::Unknown { reason } => CachedVerdict::Unknown { reason: reason.clone() },
        }
    }

    /// Reconstructs the solver verdict a stored entry stands for.
    pub fn to_verdict(&self) -> Verdict {
        match self {
            CachedVerdict::Proved => Verdict::Proved,
            CachedVerdict::Refuted { explanation, site } => {
                Verdict::Refuted { explanation: explanation.clone(), site: *site }
            }
            CachedVerdict::Unknown { reason } => Verdict::Unknown { reason: reason.clone() },
        }
    }

    /// Whether the entry records a proof.
    pub fn is_proved(&self) -> bool {
        matches!(self, CachedVerdict::Proved)
    }

    pub(crate) fn to_json_value(&self) -> Value {
        match self {
            CachedVerdict::Proved => {
                Value::object(vec![("verdict", Value::String("proved".to_string()))])
            }
            CachedVerdict::Refuted { explanation, site } => {
                let mut members = vec![
                    ("verdict", Value::String("refuted".to_string())),
                    ("explanation", Value::String(explanation.clone())),
                ];
                if let Some(site) = site {
                    members.push(("site", fault_site_to_json(site)));
                }
                Value::object(members)
            }
            CachedVerdict::Unknown { reason } => Value::object(vec![
                ("verdict", Value::String("unknown".to_string())),
                ("reason", Value::String(reason.clone())),
            ]),
        }
    }

    pub(crate) fn from_json_value(value: &Value) -> Result<Self, String> {
        let kind =
            value.get("verdict").and_then(Value::as_str).ok_or("cache entry: missing `verdict`")?;
        match kind {
            "proved" => Ok(CachedVerdict::Proved),
            "refuted" => Ok(CachedVerdict::Refuted {
                explanation: value
                    .get("explanation")
                    .and_then(Value::as_str)
                    .ok_or("cache entry: refuted without `explanation`")?
                    .to_string(),
                site: match value.get("site") {
                    None | Some(Value::Null) => None,
                    Some(site) => Some(fault_site_from_json(site)?),
                },
            }),
            "unknown" => Ok(CachedVerdict::Unknown {
                reason: value
                    .get("reason")
                    .and_then(Value::as_str)
                    .ok_or("cache entry: unknown without `reason`")?
                    .to_string(),
            }),
            other => Err(format!("cache entry: bad verdict `{other}`")),
        }
    }
}

/// Renders a structured fault site as a JSON object (`{"kind": ...}`).
/// Serialized only on refuted entries that carry a site, so caches and
/// certificates written before sites existed — and all proved entries —
/// keep their bytes.
pub fn fault_site_to_json(site: &FaultSite) -> Value {
    match site {
        FaultSite::Wire { wire } => Value::object(vec![
            ("kind", Value::String("wire".to_string())),
            ("wire", Value::Int(*wire as i64)),
        ]),
        FaultSite::WireMap { entry, len } => Value::object(vec![
            ("kind", Value::String("wire-map".to_string())),
            ("entry", entry.map_or(Value::Null, |e| Value::Int(e as i64))),
            ("len", Value::Int(*len as i64)),
        ]),
        FaultSite::Termination { consumed, kept } => Value::object(vec![
            ("kind", Value::String("termination".to_string())),
            ("consumed", Value::Int(*consumed)),
            ("kept", Value::Int(*kept)),
        ]),
    }
}

/// Parses a fault site rendered by [`fault_site_to_json`].
///
/// # Errors
///
/// Returns a description of the first malformed or missing member.
pub fn fault_site_from_json(value: &Value) -> Result<FaultSite, String> {
    let kind = value.get("kind").and_then(Value::as_str).ok_or("fault site: missing `kind`")?;
    let int = |name: &str| -> Result<i64, String> {
        value
            .get(name)
            .and_then(Value::as_int)
            .ok_or_else(|| format!("fault site: missing `{name}`"))
    };
    match kind {
        "wire" => Ok(FaultSite::Wire { wire: int("wire")? as usize }),
        "wire-map" => Ok(FaultSite::WireMap {
            entry: match value.get("entry") {
                None | Some(Value::Null) => None,
                Some(entry) => {
                    Some(entry.as_int().ok_or("fault site: non-integer `entry`")? as usize)
                }
            },
            len: int("len")? as usize,
        }),
        "termination" => {
            Ok(FaultSite::Termination { consumed: int("consumed")?, kept: int("kept")? })
        }
        other => Err(format!("fault site: bad kind `{other}`")),
    }
}

/// Hit/miss counts for one pass in one verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassCacheStats {
    /// Pass name.
    pub pass: String,
    /// Obligations answered from the cache.
    pub hits: usize,
    /// Obligations that had to be discharged.
    pub misses: usize,
}

/// A persistent map from obligation fingerprint to cached verdict, tagged
/// with the rule library fingerprint all entries were discharged under.
#[derive(Debug, Clone)]
pub struct VerdictCache {
    rule_library: Fingerprint,
    entries: BTreeMap<Fingerprint, CachedVerdict>,
    hits: usize,
    misses: usize,
    pass_stats: Vec<PassCacheStats>,
}

impl VerdictCache {
    /// An empty cache bound to the current rewrite-rule library.
    pub fn new() -> Self {
        VerdictCache {
            rule_library: qc_symbolic::rule_library_fingerprint(),
            entries: BTreeMap::new(),
            hits: 0,
            misses: 0,
            pass_stats: Vec::new(),
        }
    }

    /// Loads a cache from `path`.  A missing file yields an empty cache; a
    /// file written under a different format version (including v1) or rule
    /// library is discarded wholesale (every entry would be stale anyway).
    ///
    /// # Errors
    ///
    /// Returns an error for unreadable files or unparseable JSON.
    pub fn load(path: &Path) -> io::Result<Self> {
        match std::fs::read_to_string(path) {
            Ok(text) => VerdictCache::from_json(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
            Err(error) if error.kind() == io::ErrorKind::NotFound => Ok(VerdictCache::new()),
            Err(error) => Err(error),
        }
    }

    /// Loads a cache from `path`, recovering from corruption: a missing file
    /// is an empty cache, and an unreadable or unparseable file comes back
    /// as an empty cache plus a warning describing what was discarded (the
    /// next save overwrites the corrupt file).  This is the CLI entry point —
    /// a damaged cache must cost a cold run, not a failed verification.
    pub fn load_lenient(path: &Path) -> (Self, Option<String>) {
        match VerdictCache::load(path) {
            Ok(cache) => (cache, None),
            Err(error) => (
                VerdictCache::new(),
                Some(format!(
                    "ignoring unreadable cache {} ({error}); starting empty",
                    path.display()
                )),
            ),
        }
    }

    /// Persists the cache to `path` atomically: the JSON is written to a
    /// temporary file *unique to this save* and renamed into place, so a
    /// reader (or [`Self::load_lenient`]) can never observe a torn file.
    ///
    /// The temporary name folds in the process id and a per-process
    /// counter.  A *fixed* temporary name (the obvious `cache.tmp`) is not
    /// atomic under concurrency: with a daemon and a CLI run saving the
    /// same path, one writer can truncate the shared temporary file while
    /// the other is about to rename it, publishing a half-written cache.
    /// Unique temporaries make every rename the rename of a fully written
    /// file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (the temporary file is removed on a
    /// failed rename).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        static SAVE_SEQUENCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let sequence = SAVE_SEQUENCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp.{}.{}", std::process::id(), sequence));
        std::fs::write(&tmp, self.to_json())?;
        std::fs::rename(&tmp, path).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Parses a cache from its JSON form.  Entries recorded under a
    /// different format version (v1 files auto-migrate this way) or
    /// rewrite-rule library are discarded: the cache comes back empty but
    /// valid.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text)?;
        let version =
            doc.get("version").and_then(Value::as_int).ok_or("cache: missing `version`")?;
        let recorded_library = doc
            .get("rule_library_fingerprint")
            .and_then(Value::as_str)
            .and_then(Fingerprint::from_hex)
            .ok_or("cache: missing `rule_library_fingerprint`")?;
        let mut cache = VerdictCache::new();
        if version != i64::from(CACHE_FORMAT_VERSION) || recorded_library != cache.rule_library {
            // Format drift (a v1 pass-grained file, or a future v3) or
            // rule-library drift: every cached verdict is stale.  Migration
            // is a clean cold start, never an error.
            return Ok(cache);
        }
        let Some(Value::Object(entries)) = doc.get("entries") else {
            return Err("cache: missing `entries`".to_string());
        };
        for (key, entry) in entries {
            let fingerprint = Fingerprint::from_hex(key)
                .ok_or_else(|| format!("cache entry `{key}`: bad fingerprint key"))?;
            cache.entries.insert(fingerprint, CachedVerdict::from_json_value(entry)?);
        }
        Ok(cache)
    }

    /// Serializes the cache.  Format:
    ///
    /// ```json
    /// {
    ///   "version": 2,
    ///   "rule_library_fingerprint": "16 hex digits",
    ///   "entries": {
    ///     "<16-hex obligation fingerprint>": { "verdict": "proved" },
    ///     "<16-hex obligation fingerprint>": {
    ///       "verdict": "refuted", "explanation": "counterexample …"
    ///     }
    ///   }
    /// }
    /// ```
    ///
    /// Entry keys are [`obligation_fingerprint`]s — the backend id and rule
    /// library are folded into the key, so one file can hold verdicts from
    /// several backends side by side.
    pub fn to_json(&self) -> String {
        let entries: Vec<(String, Value)> = self
            .entries
            .iter()
            .map(|(fingerprint, verdict)| (fingerprint.to_hex(), verdict.to_json_value()))
            .collect();
        Value::object(vec![
            ("version", Value::Int(i64::from(CACHE_FORMAT_VERSION))),
            ("rule_library_fingerprint", Value::String(self.rule_library.to_hex())),
            ("entries", Value::Object(entries)),
        ])
        .to_pretty()
    }

    /// Looks up an entry without touching the hit/miss counters.  The
    /// parallel verification phase reads a shared snapshot through this and
    /// reports stats through [`Self::note_pass`] afterwards, keeping the
    /// counters deterministic regardless of thread scheduling.
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<&CachedVerdict> {
        self.entries.get(&fingerprint)
    }

    /// Looks up an entry, counting a hit or miss.
    pub fn lookup(&mut self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        match self.entries.get(&fingerprint) {
            Some(entry) => {
                self.hits += 1;
                Some(entry.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Records a freshly discharged verdict under its fingerprint.
    pub fn record(&mut self, fingerprint: Fingerprint, verdict: CachedVerdict) {
        self.entries.insert(fingerprint, verdict);
    }

    /// Removes one entry (e.g. to force a targeted re-check), returning
    /// whether it existed.  From the cache's point of view this is exactly
    /// what editing that obligation's canonical form does: the next run
    /// misses on it and re-discharges only it.
    pub fn invalidate(&mut self, fingerprint: Fingerprint) -> bool {
        self.entries.remove(&fingerprint).is_some()
    }

    /// Folds one pass's hit/miss counts into the totals and the per-pass
    /// statistics (in verification order).
    pub fn note_pass(&mut self, pass: &str, hits: usize, misses: usize) {
        self.hits += hits;
        self.misses += misses;
        self.pass_stats.push(PassCacheStats { pass: pass.to_string(), hits, misses });
    }

    /// Obligation-level cache hits since construction or the last
    /// [`Self::reset_stats`].
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Obligation-level cache misses since construction or the last
    /// [`Self::reset_stats`].
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// Per-pass hit/miss statistics for the runs since construction or the
    /// last [`Self::reset_stats`], in verification order.
    pub fn pass_stats(&self) -> &[PassCacheStats] {
        &self.pass_stats
    }

    /// Clears the hit/miss counters and per-pass statistics (e.g. between a
    /// cold and a warm run).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.pass_stats.clear();
    }

    /// Iterates over the stored entries in fingerprint order (used by
    /// [`crate::shard::ShardedVerdictCache::from_cache`] to warm-start the
    /// resident service from a persisted file).
    pub fn entries(&self) -> impl Iterator<Item = (Fingerprint, &CachedVerdict)> + '_ {
        self.entries.iter().map(|(fingerprint, verdict)| (*fingerprint, verdict))
    }

    /// Number of stored entries.  Identical obligations appearing in
    /// several passes share one entry, so this can be smaller than the
    /// total obligation count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache stores no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The rewrite-rule library fingerprint the entries are bound to.
    pub fn rule_library_fingerprint(&self) -> Fingerprint {
        self.rule_library
    }
}

impl Default for VerdictCache {
    fn default() -> Self {
        VerdictCache::new()
    }
}

/// The CLI's store: hits are read without counting ([`VerdictCache::peek`]),
/// each pass's walk is counted once through [`VerdictCache::note_pass`], and
/// fresh verdicts are recorded after it.  Nothing is pinned.
impl VerdictStore for VerdictCache {
    fn resolve(&mut self, fingerprint: Fingerprint) -> Option<CachedVerdict> {
        self.peek(fingerprint).cloned()
    }

    fn settle(&mut self, pass: &str, reached: Vec<Reached>) {
        let misses = reached.iter().filter(|r| r.fresh.is_some()).count();
        self.note_pass(pass, reached.len() - misses, misses);
        for Reached { fingerprint, fresh } in reached {
            if let Some((verdict, _)) = fresh {
                self.record(fingerprint, verdict);
            }
        }
    }

    fn release(&mut self, _fingerprint: Fingerprint) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendSelection, GoalClass};
    use crate::obligation::{Goal, ProofObligation};
    use crate::registry::verified_passes;

    fn sample_obligation(description: &str) -> ProofObligation {
        ProofObligation::new(description, Goal::TerminationDecrease { consumed: 2, kept: 1 })
    }

    #[test]
    fn cache_json_round_trips() {
        let mut cache = VerdictCache::new();
        cache.record(Fingerprint(0xdead_beef), CachedVerdict::Proved);
        cache.record(
            Fingerprint(7),
            CachedVerdict::Refuted {
                explanation: "branch \"x\": counterexample\nwire 0".to_string(),
                site: Some(FaultSite::Wire { wire: 0 }),
            },
        );
        cache.record(Fingerprint(9), CachedVerdict::Unknown { reason: "gave up".to_string() });
        let text = cache.to_json();
        let back = VerdictCache::from_json(&text).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.entries, cache.entries);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn lookup_counts_hits_and_misses_and_peek_does_not() {
        let mut cache = VerdictCache::new();
        cache.record(Fingerprint(1), CachedVerdict::Proved);
        assert!(cache.peek(Fingerprint(1)).is_some());
        assert!(cache.peek(Fingerprint(2)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert!(cache.lookup(Fingerprint(1)).is_some());
        assert!(cache.lookup(Fingerprint(2)).is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.note_pass("CXCancellation", 3, 1);
        assert_eq!((cache.hits(), cache.misses()), (4, 2));
        assert_eq!(cache.pass_stats().len(), 1);
        assert_eq!(cache.pass_stats()[0].pass, "CXCancellation");
        cache.reset_stats();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert!(cache.pass_stats().is_empty());
    }

    #[test]
    fn invalidate_removes_exactly_one_entry() {
        let mut cache = VerdictCache::new();
        cache.record(Fingerprint(1), CachedVerdict::Proved);
        cache.record(Fingerprint(2), CachedVerdict::Proved);
        assert!(cache.invalidate(Fingerprint(1)));
        assert!(!cache.invalidate(Fingerprint(1)));
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(Fingerprint(2)).is_some());
    }

    #[test]
    fn version_or_library_drift_discards_entries() {
        let mut cache = VerdictCache::new();
        cache.record(Fingerprint(1), CachedVerdict::Proved);
        let stale_version = cache.to_json().replace("\"version\": 2", "\"version\": 99");
        assert!(VerdictCache::from_json(&stale_version).unwrap().is_empty());
        let fp = cache.rule_library_fingerprint().to_hex();
        let stale_library = cache.to_json().replace(&fp, &Fingerprint(!0).to_hex());
        assert!(VerdictCache::from_json(&stale_library).unwrap().is_empty());
    }

    #[test]
    fn v1_pass_grained_files_load_as_an_empty_v2_cache() {
        // The exact shape PR 2 wrote: version 1, entries keyed by pass name
        // with per-pass report fields.  It must migrate to empty, not error.
        let v1 = format!(
            r#"{{
  "version": 1,
  "rule_library_fingerprint": "{}",
  "entries": {{
    "CXCancellation": {{
      "fingerprint": "00000000deadbeef",
      "pass_loc": 24, "subgoals": 4, "verified": true,
      "failure": null, "time_seconds": 0.0012
    }}
  }}
}}"#,
            VerdictCache::new().rule_library_fingerprint().to_hex()
        );
        let migrated = VerdictCache::from_json(&v1).unwrap();
        assert!(migrated.is_empty(), "a v1 file is a clean cold start");
    }

    #[test]
    fn malformed_cache_files_are_rejected() {
        assert!(VerdictCache::from_json("{}").is_err());
        assert!(VerdictCache::from_json("not json").is_err());
        let missing_entries = format!(
            "{{\"version\": {CACHE_FORMAT_VERSION}, \"rule_library_fingerprint\": \"{}\"}}",
            VerdictCache::new().rule_library_fingerprint().to_hex()
        );
        assert!(VerdictCache::from_json(&missing_entries).is_err());
        let bad_key = format!(
            "{{\"version\": {CACHE_FORMAT_VERSION}, \"rule_library_fingerprint\": \"{}\", \
             \"entries\": {{\"nope\": {{\"verdict\": \"proved\"}}}}}}",
            VerdictCache::new().rule_library_fingerprint().to_hex()
        );
        assert!(VerdictCache::from_json(&bad_key).is_err());
    }

    #[test]
    fn save_and_load_round_trip_on_disk_and_lenient_load_recovers() {
        let dir = std::env::temp_dir().join("giallar-cache-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("cache-{}.json", std::process::id()));
        let mut cache = VerdictCache::new();
        cache.record(Fingerprint(42), CachedVerdict::Proved);
        cache.save(&path).unwrap();
        let back = VerdictCache::load(&path).unwrap();
        assert_eq!(back.len(), 1);
        // A corrupt file errors on strict load and recovers on lenient load.
        std::fs::write(&path, "definitely { not json").unwrap();
        assert!(VerdictCache::load(&path).is_err());
        let (recovered, warning) = VerdictCache::load_lenient(&path);
        assert!(recovered.is_empty());
        assert!(warning.unwrap().contains("starting empty"));
        std::fs::remove_file(&path).unwrap();
        // Missing files load as an empty cache with no warning.
        assert!(VerdictCache::load(&path).unwrap().is_empty());
        let (empty, warning) = VerdictCache::load_lenient(&path);
        assert!(empty.is_empty());
        assert!(warning.is_none());
    }

    #[test]
    fn obligation_fingerprints_are_stable_and_sensitive() {
        let library = qc_symbolic::rule_library_fingerprint();
        let ob = sample_obligation("termination of branch 3");
        let first = obligation_fingerprint(&ob, library, "smtlite-arith", 0);
        assert_eq!(first, obligation_fingerprint(&ob, library, "smtlite-arith", 0));
        // The canonical form, the rule library, the backend id, and the
        // register width each shift the fingerprint.
        assert_ne!(
            first,
            obligation_fingerprint(
                &sample_obligation("termination of branch 4"),
                library,
                "smtlite-arith",
                0
            )
        );
        assert_ne!(first, obligation_fingerprint(&ob, Fingerprint(!library.0), "smtlite-arith", 0));
        assert_ne!(first, obligation_fingerprint(&ob, library, "reference", 0));
        assert_ne!(first, obligation_fingerprint(&ob, library, "smtlite-arith", 3));
    }

    #[test]
    fn registry_obligations_fingerprint_distinctly_per_canonical_form() {
        // Across the whole registry, two obligations collide exactly when
        // their canonical form and discharge context agree — the
        // fingerprint adds no collisions.
        let library = qc_symbolic::rule_library_fingerprint();
        let selection = BackendSelection::Default;
        let mut by_fingerprint: std::collections::BTreeMap<Fingerprint, String> =
            std::collections::BTreeMap::new();
        for pass in verified_passes() {
            let obligations = (pass.obligations)();
            let width = crate::verifier::pass_register_width(&obligations);
            for obligation in obligations {
                let class = GoalClass::of(&obligation.goal);
                let backend = selection.backend_id_for(class);
                let register = if class == GoalClass::CircuitEquivalence { width } else { 0 };
                let fingerprint = obligation_fingerprint(&obligation, library, backend, register);
                let canonical = format!(
                    "{register}:{}",
                    crate::serialize::obligation_canonical_form(&obligation)
                );
                if let Some(previous) = by_fingerprint.insert(fingerprint, canonical.clone()) {
                    assert_eq!(
                        previous, canonical,
                        "fingerprint collision between distinct obligations"
                    );
                }
            }
        }
        assert!(by_fingerprint.len() > 40, "registry should produce many distinct entries");
    }
}
