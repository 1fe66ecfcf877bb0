//! Known answers and negative controls.  They run outside the timed region
//! and count into the run's attempted and failed operations, so a change
//! that gets faster by accepting everything fails the benchmark.

use giallar_core::certificate::{check_certificate, EquivalenceCertificate};
use giallar_core::json;
use giallar_core::mutate::{parse_seed, run_campaign, CampaignConfig};
use giallar_core::verifier::PassReport;

/// Table 2 as the registry must reproduce it: `(pass, subgoals)` in
/// registry order, every pass verified.
pub fn table2() -> Vec<(String, usize)> {
    include_str!("../expected/table2.txt")
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let (name, subgoals) = line.split_once(' ').expect("`<pass> <subgoals>` lines");
            (name.to_string(), subgoals.trim().parse().expect("a subgoal count"))
        })
        .collect()
}

/// Subgoals of one pass per Table 2.
pub fn subgoals_of(table: &[(String, usize)], pass: &str) -> Option<usize> {
    table.iter().find(|(name, _)| name == pass).map(|(_, subgoals)| *subgoals)
}

/// Checks reports against Table 2: the named passes in registry order, each
/// verified with its subgoal count.  `passes: None` expects the full table.
pub fn reports_match(
    reports: &[PassReport],
    table: &[(String, usize)],
    passes: Option<&[&str]>,
) -> Result<(), String> {
    let expected: Vec<&(String, usize)> = match passes {
        None => table.iter().collect(),
        Some(names) => table.iter().filter(|(name, _)| names.contains(&name.as_str())).collect(),
    };
    if reports.len() != expected.len() {
        return Err(format!("{} reports, expected {}", reports.len(), expected.len()));
    }
    for (report, (name, subgoals)) in reports.iter().zip(expected) {
        if report.name != *name || report.subgoals != *subgoals || !report.verified {
            return Err(format!(
                "{}: {} subgoals, verified {} (expected {name}: {subgoals} subgoals, verified)",
                report.name, report.subgoals, report.verified
            ));
        }
    }
    Ok(())
}

/// The pinned mutant: the first mutant of `CXCancellation` under the fuzz
/// campaign's documented seed must be refuted at its wounded obligation by
/// every backend routing.
pub fn pinned_mutant_refuted() -> Result<(), String> {
    let report = run_campaign(&CampaignConfig {
        seed: parse_seed("0xg1allar"),
        max_mutants: Some(1),
        pass_filter: Some("CXCancellation".to_string()),
    });
    match report.outcomes.first() {
        Some(outcome) if outcome.detected => Ok(()),
        Some(outcome) => Err(format!("pinned mutant {} of {} survived", outcome.id, outcome.pass)),
        None => Err("the pinned mutant was not enumerated".to_string()),
    }
}

/// A single-field tamper of an honest certificate text: the first entry of
/// `wire_map` is swapped with the second.  The checker must refuse it.
pub fn tampered_certificate_refused(honest: &str) -> Result<(), String> {
    let value = json::parse(honest)?;
    let mut cert = EquivalenceCertificate::from_json(&value)?;
    if cert.wire_map.len() < 2 {
        return Err("the tamper control needs a certificate of two or more wires".to_string());
    }
    cert.wire_map.swap(0, 1);
    let tampered = cert.to_json().to_pretty();
    let reparsed = EquivalenceCertificate::from_json(&json::parse(&tampered)?)?;
    match check_certificate(&reparsed) {
        Err(_) => Ok(()),
        Ok(()) => Err("a certificate with a tampered wire map was accepted".to_string()),
    }
}

/// FNV-1a over a document's bytes, to compare certificates without keeping
/// every one in memory.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_lists_44_passes_and_104_subgoals() {
        let table = table2();
        assert_eq!(table.len(), 44);
        assert_eq!(table.iter().map(|(_, s)| s).sum::<usize>(), 104);
    }
}
