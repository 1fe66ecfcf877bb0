//! The `registry` workload: full-registry verification in process, at the
//! default backend and the default thread count, cold (empty cache) and
//! warm (cache loaded from its JSON text, all hits, saved back) interleaved.
//!
//! Cold verification is dominated by discharge, batch planning and thread
//! fan-out; warm verification by obligation generation, fingerprinting and
//! the cache file's JSON.  A discharge-layer change should move `op1_*` and
//! leave `op2_*` where it was.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

use giallar_core::backend::{BackendSelection, GoalClass};
use giallar_core::batch::{plan, BatchItem};
use giallar_core::cache::{CachedVerdict, VerdictCache};
use giallar_core::obligation::Goal;
use giallar_core::registry::{verified_passes, VerifiedPass};
use giallar_core::verifier::{
    fold_verdict_stream, obligation_fingerprints, pass_register_width, reports_agree,
    verify_passes_cached_with, Discharger, PassReport,
};

use crate::checks::{pinned_mutant_refuted, reports_match, table2};
use crate::stats::{ms_since, Samples, Span, Trace};
use crate::{Outcome, Rng, RunConfig, WARMUP_SECONDS};

const SELECTION: BackendSelection = BackendSelection::Default;

/// The program made ready: the pass registry built, the rule library
/// compiled and a solver context prewarmed to the registry's widest pass.
fn setup() -> Vec<VerifiedPass> {
    let passes = verified_passes();
    let width =
        passes.iter().map(|pass| pass_register_width(&(pass.obligations)())).max().unwrap_or(0);
    let mut discharger = Discharger::with_selection(SELECTION);
    discharger.prewarm(width);
    std::hint::black_box(discharger);
    passes
}

pub fn setup_probe() -> Result<f64, String> {
    let start = Instant::now();
    std::hint::black_box(setup());
    Ok(start.elapsed().as_secs_f64())
}

/// What one verification returned, for comparing an untraced run with its
/// traced reproduction.
struct Verified {
    reports: Vec<PassReport>,
    hits: usize,
    misses: usize,
    saved: String,
}

/// `giallar verify` on a fresh cache.
fn verify_cold(passes: &[VerifiedPass]) -> Verified {
    let mut cache = VerdictCache::new();
    let reports = verify_passes_cached_with(passes, &mut cache, SELECTION);
    Verified { reports, hits: cache.hits(), misses: cache.misses(), saved: cache.to_json() }
}

/// The second `giallar verify --cache f`: load, verify, save.
fn verify_warm(passes: &[VerifiedPass], text: &str) -> Result<Verified, String> {
    let mut cache = VerdictCache::from_json(text)?;
    let reports = verify_passes_cached_with(passes, &mut cache, SELECTION);
    let saved = cache.to_json();
    Ok(Verified { reports, hits: cache.hits(), misses: cache.misses(), saved })
}

/// Counts one traced verification leaves behind.
#[derive(Default, Clone, PartialEq)]
struct Counts {
    obligations: usize,
    hits: usize,
    misses: usize,
    items: usize,
    unique: usize,
    groups: usize,
    by_class: [usize; 3],
}

fn class_layer(class: GoalClass) -> (&'static str, usize) {
    match class {
        GoalClass::CircuitEquivalence => ("backend.circuit_equivalence_ms", 0),
        GoalClass::Arithmetic => ("backend.arithmetic_ms", 1),
        GoalClass::Trivial => ("backend.trivial_ms", 2),
    }
}

/// The cached verification path reproduced one public call at a time,
/// sequentially: obligations, fingerprints, the miss scan, the batch plan,
/// solver prewarm and discharge per goal class, then the registry-order
/// fold that records fresh verdicts.  `text` is the cache file to load
/// (`None`: a fresh cache).
fn verify_traced(
    passes: &[VerifiedPass],
    text: Option<&str>,
    span: &mut Span,
    counts: &mut Counts,
) -> Result<Verified, String> {
    let mut cache = match text {
        Some(text) => span.time("cache.load_ms", || VerdictCache::from_json(text))?,
        None => span.time("cache.load_ms", VerdictCache::new),
    };
    let library = cache.rule_library_fingerprint();
    let mut prepared = Vec::with_capacity(passes.len());
    for pass in passes {
        let obligations = span.time("registry.obligations_ms", || (pass.obligations)());
        let fingerprints = span.time("verifier.fingerprint_ms", || {
            obligation_fingerprints(&obligations, library, SELECTION)
        });
        counts.obligations += obligations.len();
        prepared.push((obligations, fingerprints));
    }
    let (items, missed) = span.time("cache.peek_ms", || {
        let mut items: Vec<BatchItem<&Goal>> = Vec::new();
        let missed: Vec<Vec<bool>> = prepared
            .iter()
            .map(|(obligations, fingerprints)| {
                let width = pass_register_width(obligations);
                obligations
                    .iter()
                    .zip(fingerprints)
                    .map(|(obligation, &fingerprint)| {
                        if cache.peek(fingerprint).is_some() {
                            return false;
                        }
                        let class = GoalClass::of(&obligation.goal);
                        let width = if class == GoalClass::CircuitEquivalence { width } else { 0 };
                        items.push(BatchItem {
                            selection: SELECTION,
                            class,
                            width,
                            fingerprint,
                            payload: &obligation.goal,
                        });
                        true
                    })
                    .collect()
            })
            .collect();
        (items, missed)
    });
    counts.items = items.len();
    counts.unique = items.iter().map(|item| item.fingerprint).collect::<HashSet<_>>().len();
    let groups = span.time("batch.plan_ms", || plan(items));
    counts.groups = groups.len();
    let mut discharged = HashMap::new();
    for group in &groups {
        let mut discharger = span.time("backend.prewarm_ms", || {
            let mut discharger = Discharger::with_selection(group.selection);
            discharger.prewarm(group.width);
            discharger
        });
        let (layer, index) = class_layer(group.class);
        for &(fingerprint, goal) in &group.work {
            let verdict = span.time(layer, || discharger.discharge(goal));
            counts.by_class[index] += 1;
            discharged.insert(fingerprint, CachedVerdict::from_verdict(&verdict));
        }
    }
    let mut reports = Vec::with_capacity(passes.len());
    for ((pass, (obligations, fingerprints)), missed) in passes.iter().zip(&prepared).zip(&missed) {
        let mut hits = 0;
        let mut misses = 0;
        let mut fresh = Vec::new();
        let mut stream = Vec::with_capacity(obligations.len());
        for ((obligation, &fingerprint), &miss) in obligations.iter().zip(fingerprints).zip(missed)
        {
            let verdict = if miss {
                misses += 1;
                let cached =
                    discharged.get(&fingerprint).ok_or("a planned miss was not discharged")?;
                fresh.push((fingerprint, cached.clone()));
                cached.to_verdict()
            } else {
                hits += 1;
                span.time("cache.peek_ms", || {
                    cache.peek(fingerprint).map(CachedVerdict::to_verdict)
                })
                .ok_or("a scanned hit left the cache")?
            };
            stream.push((verdict, obligation.description.clone()));
        }
        let fold = span.time("verifier.fold_ms", || fold_verdict_stream(stream));
        span.time("cache.record_ms", || {
            cache.note_pass(pass.name, hits, misses);
            for (fingerprint, verdict) in fresh {
                cache.record(fingerprint, verdict);
            }
        });
        reports.push(PassReport {
            name: pass.name.to_string(),
            pass_loc: pass.pass_loc,
            subgoals: obligations.len(),
            time_seconds: 0.0,
            verified: fold.verified,
            failure: fold.failure,
        });
    }
    let saved = span.time("cache.save_ms", || cache.to_json());
    counts.hits = cache.hits();
    counts.misses = cache.misses();
    Ok(Verified { reports, hits: cache.hits(), misses: cache.misses(), saved })
}

fn same(a: &Verified, b: &Verified) -> bool {
    reports_agree(&a.reports, &b.reports)
        && a.hits == b.hits
        && a.misses == b.misses
        && a.saved == b.saved
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let table = table2();
    let total: usize = table.iter().map(|(_, subgoals)| subgoals).sum();
    let passes = setup();
    // Known answers: Table 2 cold, and the cache file a cold run saves,
    // which every warm run loads and must save back unchanged.
    let reference = verify_cold(&passes);
    out.check(reports_match(&reference.reports, &table, None).is_ok(), || {
        format!("Table 2: {:?}", reports_match(&reference.reports, &table, None))
    });
    out.check(reference.hits == 0 && reference.misses == total, || {
        format!("cold run: {} hits, {} misses", reference.hits, reference.misses)
    });
    out.check_result(pinned_mutant_refuted(), "negative control");
    let warm_text = reference.saved.clone();

    let warmup = Instant::now();
    while warmup.elapsed().as_secs_f64() < WARMUP_SECONDS {
        std::hint::black_box(verify_cold(&passes));
        std::hint::black_box(verify_warm(&passes, &warm_text)?);
    }

    let mut rng = Rng::new(config.seed);
    let mut untraced: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut trace = Trace::default();
    // The counts of the first traced cold and warm run; later ones must
    // repeat them.
    let mut first_counts: [Option<Counts>; 2] = [None, None];
    let mut mismatches = 0usize;
    let mut busy_ms = 0.0;
    let mut ops = 0usize;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < config.seconds {
        // One block: a cold and a warm verification in seeded order, each
        // followed by its traced reproduction on a traced run.
        let mut block = [false, true];
        rng.shuffle(&mut block);
        for warm in block {
            let kind = if warm { "verify_warm" } else { "verify_cold" };
            let op_start = Instant::now();
            let result =
                if warm { verify_warm(&passes, &warm_text) } else { Ok(verify_cold(&passes)) };
            let ms = ms_since(op_start);
            busy_ms += ms;
            ops += 1;
            untraced.entry(kind).or_default().push(ms);
            let Some(verified) = out.check_result(result, kind) else { continue };
            let (hits, misses) = if warm { (total, 0) } else { (0, total) };
            out.check(
                reports_agree(&verified.reports, &reference.reports)
                    && verified.saved == reference.saved,
                || format!("{kind}: reports or saved cache differ from the known answer"),
            );
            out.check(verified.hits == hits && verified.misses == misses, || {
                format!("{kind}: {} hits, {} misses", verified.hits, verified.misses)
            });
            if config.trace {
                let mut span = Span::default();
                let mut counts = Counts::default();
                let text = warm.then_some(warm_text.as_str());
                match verify_traced(&passes, text, &mut span, &mut counts) {
                    Ok(traced) if same(&traced, &verified) => {}
                    _ => mismatches += 1,
                }
                trace.add(kind, span);
                if first_counts[usize::from(warm)].get_or_insert_with(|| counts.clone()) != &counts
                {
                    mismatches += 1;
                }
            }
        }
    }
    let (cold, warm) = (&untraced["verify_cold"], &untraced["verify_warm"]);
    out.latency("op1", "verify_cold", cold);
    out.latency("op2", "verify_warm", warm);
    out.metrics.set("ops_per_s", ops as f64 / (busy_ms / 1e3), "1/s");
    if config.trace {
        out.check(mismatches == 0, || format!("{mismatches} traced verifications differ"));
        trace.report(&untraced, &mut out.metrics);
        let [cold_counts, warm_counts] = first_counts.map(Option::unwrap_or_default);
        out.check(warm_counts.items == 0, || "a warm traced run planned discharge".to_string());
        let m = &mut out.metrics;
        m.set("registry.obligations", cold_counts.obligations as f64, "count");
        m.set("cache.hits", warm_counts.hits as f64, "count");
        m.set("cache.misses", cold_counts.misses as f64, "count");
        m.set("cache.bytes", warm_text.len() as f64, "bytes");
        m.set("batch.items", cold_counts.items as f64, "count");
        m.set("batch.groups", cold_counts.groups as f64, "count");
        let unique_ratio = cold_counts.unique as f64 / cold_counts.items.max(1) as f64;
        m.set("batch.unique_ratio", unique_ratio, "ratio");
        m.set("backend.circuit_equivalence_count", cold_counts.by_class[0] as f64, "count");
        m.set("backend.arithmetic_count", cold_counts.by_class[1] as f64, "count");
        m.set("backend.trivial_count", cold_counts.by_class[2] as f64, "count");
        m.set("trace.ops", (trace.ops("verify_cold") + trace.ops("verify_warm")) as f64, "count");
        m.set("trace.mismatches", mismatches as f64, "count");
    }
    Ok(out)
}
