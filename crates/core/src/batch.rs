//! Discharge batching: grouping cache-miss obligations by backend routing
//! before discharge.
//!
//! The batched verify scheduler ([`crate::verifier::verify_batched`]) plans
//! every miss of a batch here, whether the batch is one `giallar verify`
//! run or a `giallar serve` dispatch batch of concurrent requests; each
//! planned group then discharges on one freshly prewarmed solver context.
//!
//! Giallar's verdict-determinism contract (see `giallar_core::backend`)
//! makes a verdict a pure function of the obligation's canonical form, the
//! rewrite-rule library, the discharging backend, and the register width —
//! all of which are folded into the obligation fingerprint.  That purity is
//! what makes *cross-pass, cross-request* batching sound: any two missed
//! obligations with the same `(selection, goal class, width)` can share one
//! prewarmed solver context, and two occurrences of the same fingerprint
//! need only one discharge, without changing a single byte of any report.
//!
//! [`plan`] is the pure planning step: it deduplicates by fingerprint and
//! groups the remainder into [`DischargeGroup`]s with a deterministic order
//! (groups by selection/class/width, work within a group by fingerprint),
//! so the groups can discharge in parallel while the plan stays
//! replayable.

use std::collections::BTreeMap;

use crate::backend::{BackendSelection, GoalClass};
use smtlite::Fingerprint;

/// One missed obligation awaiting discharge.  `payload` is whatever the
/// caller needs to perform the discharge (the scheduler passes the goal).
#[derive(Debug)]
pub struct BatchItem<T> {
    /// The backend routing of the request that missed.
    pub selection: BackendSelection,
    /// The obligation's goal class.
    pub class: GoalClass,
    /// The discharge register width (the owning pass's widest equivalence
    /// register for circuit-equivalence goals, 0 otherwise) — part of the
    /// cache key, so it is part of the group key too.
    pub width: usize,
    /// The obligation's cache fingerprint.
    pub fingerprint: Fingerprint,
    /// Caller data carried to the discharge site.
    pub payload: T,
}

/// A set of missed obligations that share one solver context: same backend
/// selection, same goal class, same register width.
#[derive(Debug)]
pub struct DischargeGroup<T> {
    /// The backend routing all work in the group discharges under.
    pub selection: BackendSelection,
    /// The goal class all work in the group belongs to.
    pub class: GoalClass,
    /// The register width to prewarm the solver context to.
    pub width: usize,
    /// Deduplicated work, ordered by fingerprint.
    pub work: Vec<(Fingerprint, T)>,
}

/// Plans the discharge of a batch's misses: deduplicates by
/// fingerprint (the first payload wins — duplicates are the same canonical
/// obligation by construction of the fingerprint) and groups by
/// `(selection, class, width)`.
///
/// The returned group order and the work order within each group are
/// deterministic functions of the item set, independent of item order.
pub fn plan<T>(items: Vec<BatchItem<T>>) -> Vec<DischargeGroup<T>> {
    let mut groups: BTreeMap<(BackendSelection, GoalClass, usize), BTreeMap<Fingerprint, T>> =
        BTreeMap::new();
    for item in items {
        groups
            .entry((item.selection, item.class, item.width))
            .or_default()
            .entry(item.fingerprint)
            .or_insert(item.payload);
    }
    groups
        .into_iter()
        .map(|((selection, class, width), work)| DischargeGroup {
            selection,
            class,
            width,
            work: work.into_iter().collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(
        selection: BackendSelection,
        class: GoalClass,
        width: usize,
        fp: u64,
    ) -> BatchItem<u64> {
        BatchItem { selection, class, width, fingerprint: Fingerprint(fp), payload: fp * 10 }
    }

    #[test]
    fn groups_by_selection_class_and_width_with_fingerprint_dedup() {
        let items = vec![
            item(BackendSelection::Default, GoalClass::CircuitEquivalence, 5, 2),
            item(BackendSelection::Default, GoalClass::CircuitEquivalence, 5, 1),
            // Duplicate fingerprint: discharged once.
            item(BackendSelection::Default, GoalClass::CircuitEquivalence, 5, 2),
            // Same class, different width: separate solver context.
            item(BackendSelection::Default, GoalClass::CircuitEquivalence, 9, 3),
            item(BackendSelection::Default, GoalClass::Arithmetic, 0, 4),
            item(BackendSelection::Reference, GoalClass::Arithmetic, 0, 5),
        ];
        let groups = plan(items);
        assert_eq!(groups.len(), 4);
        // Deterministic group order: selection, then class, then width.
        assert_eq!(groups[0].width, 5);
        assert_eq!(groups[0].work.iter().map(|(fp, _)| fp.0).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(groups[1].width, 9);
        assert_eq!(groups[2].class, GoalClass::Arithmetic);
        assert_eq!(groups[3].selection, BackendSelection::Reference);
        let total: usize = groups.iter().map(|g| g.work.len()).sum();
        assert_eq!(total, 5, "six items minus one fingerprint duplicate");
    }

    #[test]
    fn plan_is_independent_of_item_order() {
        let build = |reverse: bool| {
            let mut items = vec![
                item(BackendSelection::Default, GoalClass::CircuitEquivalence, 5, 8),
                item(BackendSelection::Default, GoalClass::CircuitEquivalence, 5, 3),
                item(BackendSelection::Default, GoalClass::Trivial, 0, 6),
            ];
            if reverse {
                items.reverse();
            }
            plan(items)
                .into_iter()
                .map(|g| (g.width, g.work.into_iter().map(|(fp, _)| fp.0).collect::<Vec<_>>()))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(false), build(true));
    }
}
