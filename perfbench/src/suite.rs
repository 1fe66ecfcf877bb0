//! The `certify-suite` workload: bulk `compile --certify` and `check-cert`
//! over every QASMBench circuit that fits the 27-qubit falcon device, in
//! process on one thread.  Each pass covers the whole corpus in a seeded
//! order, each circuit with its fixed compile seed; a run measures whole
//! passes, at least three, so every circuit's certificate is checked in
//! every run.
//!
//! Size-dependent layers (QASM and JSON parsing, transpilation, symbolic
//! evidence, replay) dominate here, and the heavy circuits dominate the
//! throughput; the fixed per-call re-verification of the pipeline's passes
//! shows on the small circuits, i.e. in the medians.

use std::collections::BTreeMap;
use std::time::Instant;

use giallar_core::backend::{BackendRegistry, BackendSelection, GoalClass};
use giallar_core::cache::CachedVerdict;
use giallar_core::certificate::{
    certify_compilation, check_certificate, circuit_fingerprint, end_to_end_wire_map,
    EquivalenceCertificate,
};
use giallar_core::json;
use giallar_core::obligation::Goal;
use giallar_core::registry::verified_passes;
use giallar_core::verifier::verify_pass_with;
use giallar_core::wrapper::{baseline_transpile, giallar_pipeline_pass_names};
use qc_ir::qasm::{from_qasm, to_qasm};
use qc_ir::{Circuit, ConditionKind, CouplingMap};
use qc_symbolic::{SymCircuit, SymElement};

use crate::checks::{digest, tampered_certificate_refused};
use crate::stats::{ms_since, Samples, Span, Trace};
use crate::{Outcome, Rng, RunConfig, WARMUP_SECONDS};

const DEVICE: &str = "falcon27";
const SELECTION: BackendSelection = BackendSelection::Default;
/// The fewest passes a run makes, even past `--seconds`: three passes give
/// 108 samples per operation kind, enough for a true 90th percentile.  With
/// fewer, the tail would fall back to a lower percentile, i.e. to a smaller
/// circuit, and a slowdown that cost a pass would hide part of itself.
const MIN_PASSES: usize = 3;

/// One corpus circuit as the program receives it: a name, QASM text, and
/// the compile seed it is always compiled with.
struct Input {
    name: String,
    qasm: String,
    qubits: usize,
    compile_seed: u64,
}

/// The QASMBench circuits that fit the device, as QASM text.
fn corpus(max_qubits: usize) -> Result<Vec<Input>, String> {
    qasmbench::benchmark_suite()
        .into_iter()
        .filter(|bench| bench.circuit.num_qubits() <= max_qubits)
        .map(|bench| {
            let qasm = to_qasm(&bench.circuit).map_err(|e| format!("{}: {e:?}", bench.name))?;
            let compile_seed = compile_seed(&bench.name);
            Ok(Input { name: bench.name, qasm, qubits: bench.circuit.num_qubits(), compile_seed })
        })
        .collect()
}

/// The compile seed a circuit is always compiled with.  It is fixed per
/// circuit: routing, and with it the certificate size the parse cost grows
/// with, would otherwise change with the benchmark seed and move the
/// latency percentiles by more than any usable bound.
pub fn compile_seed(circuit: &str) -> u64 {
    digest(circuit.as_bytes()) % (1 << 16)
}

/// The program made ready: the device parsed, the rule library compiled
/// and a solver context prewarmed to the device width.
fn setup() -> Result<CouplingMap, String> {
    let device = CouplingMap::from_spec(DEVICE)?;
    let mut registry = BackendRegistry::new(SELECTION);
    registry.prewarm(device.num_qubits());
    std::hint::black_box(registry);
    Ok(device)
}

pub fn setup_probe() -> Result<f64, String> {
    let start = Instant::now();
    std::hint::black_box(setup()?);
    Ok(start.elapsed().as_secs_f64())
}

fn pipeline(device: &CouplingMap, seed: u64) -> Vec<String> {
    giallar_pipeline_pass_names(device, seed).into_iter().map(str::to_string).collect()
}

/// `giallar compile <file.qasm> --certify`: QASM text to certificate text.
fn certify(name: &str, qasm: &str, device: &CouplingMap, seed: u64) -> Result<String, String> {
    let circuit = from_qasm(qasm).map_err(|e| format!("{e:?}"))?;
    let result = baseline_transpile(&circuit, device, seed).map_err(|e| format!("{e:?}"))?;
    let pipeline = pipeline(device, seed);
    let cert = certify_compilation(name, DEVICE, seed, &circuit, &result, &pipeline, SELECTION);
    Ok(cert.to_json().to_pretty())
}

/// `giallar check-cert`: certificate text to a verdict.
fn check(text: &str) -> Result<(), String> {
    let value = json::parse(text)?;
    let cert = EquivalenceCertificate::from_json(&value)?;
    check_certificate(&cert)
}

/// Output shape of one traced compilation (the per-circuit row's counts).
struct Shape {
    qasm_bytes: usize,
    out_gates: usize,
    out_2q_gates: usize,
    out_depth: usize,
    wires: usize,
    json_bytes: usize,
}

/// [`certify`] reproduced one public call at a time, exactly as
/// `certify_compilation` composes them.
fn certify_traced(
    name: &str,
    qasm: &str,
    device: &CouplingMap,
    seed: u64,
    span: &mut Span,
) -> Result<(String, Shape), String> {
    let circuit = span.time("qasm.parse_ms", || from_qasm(qasm)).map_err(|e| format!("{e:?}"))?;
    let result = span
        .time("transpile.ms", || baseline_transpile(&circuit, device, seed))
        .map_err(|e| format!("{e:?}"))?;
    let register_width = result.circuit.num_qubits().max(circuit.num_qubits());
    let (wire_map, input, output) = span.time("certify.lift_ms", || {
        let wire_map = end_to_end_wire_map(&result, register_width);
        (wire_map, SymCircuit::from_circuit(&circuit), SymCircuit::from_circuit(&result.circuit))
    });
    let (verdict, evidence) = span.time("certify.evidence_ms", || {
        let goal = Goal::Equivalence { lhs: output.clone(), rhs: output.clone() };
        let mut registry = BackendRegistry::new(SELECTION);
        registry.prewarm(register_width);
        registry.discharge_with_evidence(&goal)
    });
    let (pipeline, failure) = span.time("certify.reverify_ms", || {
        let pipeline = pipeline(device, seed);
        let failure = reverify(&pipeline);
        (pipeline, failure)
    });
    let verdict = match failure {
        Some(failure) => CachedVerdict::Refuted { explanation: failure, site: None },
        None => CachedVerdict::from_verdict(&verdict),
    };
    let (input_fingerprint, output_fingerprint) = span.time("certify.fingerprint_ms", || {
        (circuit_fingerprint(&input), circuit_fingerprint(&output))
    });
    let cert = EquivalenceCertificate {
        circuit: name.to_string(),
        device: DEVICE.to_string(),
        seed,
        pipeline,
        register_width,
        rule_library: qc_symbolic::rule_library_fingerprint(),
        selection: SELECTION,
        backend: SELECTION.backend_id_for(GoalClass::CircuitEquivalence).to_string(),
        input,
        output,
        input_fingerprint,
        output_fingerprint,
        wire_map,
        evidence,
        verdict,
    };
    let text = span.time("json.write_ms", || cert.to_json().to_pretty());
    let shape = Shape {
        qasm_bytes: qasm.len(),
        out_gates: result.circuit.size(),
        out_2q_gates: result.circuit.two_qubit_gate_count(),
        out_depth: result.circuit.depth(),
        wires: register_width,
        json_bytes: text.len(),
    };
    Ok((text, shape))
}

/// Re-verifies a pipeline schedule pass by pass; the first failure, if any.
fn reverify(pipeline: &[String]) -> Option<String> {
    let passes = verified_passes();
    for name in pipeline {
        let Some(pass) = passes.iter().find(|p| p.name == name.as_str()) else {
            return Some(format!("pipeline pass `{name}` is not in the verified registry"));
        };
        let report = verify_pass_with(pass, SELECTION);
        if !report.verified {
            return Some(format!("pipeline pass `{name}` fails verification"));
        }
    }
    None
}

/// The concrete circuit a certificate embeds (opaque segments refused).
fn concrete_circuit(sym: &SymCircuit) -> Result<Circuit, String> {
    let mut num_clbits = 0;
    for element in sym.elements() {
        match element {
            SymElement::Gate(gate) => {
                for &c in &gate.clbits {
                    num_clbits = num_clbits.max(c + 1);
                }
                if let Some(cond) = &gate.condition {
                    if let ConditionKind::Classical { bit, .. } = cond.kind {
                        num_clbits = num_clbits.max(bit + 1);
                    }
                }
            }
            SymElement::Segment { name, .. } => {
                return Err(format!("certificate input contains opaque segment `{name}`"));
            }
        }
    }
    let mut circuit = Circuit::with_clbits(sym.num_qubits(), num_clbits);
    for element in sym.elements() {
        if let SymElement::Gate(gate) = element {
            circuit.push(gate.clone()).map_err(|e| format!("certificate input gate: {e}"))?;
        }
    }
    Ok(circuit)
}

/// [`check`] reproduced one public call at a time, in `check_certificate`'s
/// order: parse, decode, fingerprints, schedule re-verification, replay,
/// and the replayed output's evidence.
fn check_traced(text: &str, span: &mut Span) -> Result<(), String> {
    let value = span.time("json.parse_ms", || json::parse(text))?;
    let cert = span.time("json.from_value_ms", || EquivalenceCertificate::from_json(&value))?;
    let fingerprints_hold = span.time("check.fingerprint_ms", || {
        circuit_fingerprint(&cert.input) == cert.input_fingerprint
            && circuit_fingerprint(&cert.output) == cert.output_fingerprint
    });
    if !fingerprints_hold {
        return Err("circuit fingerprint mismatch".to_string());
    }
    let schedule = span.time("check.reverify_ms", || -> Result<CouplingMap, String> {
        if cert.rule_library != qc_symbolic::rule_library_fingerprint()
            || cert.backend != cert.selection.backend_id_for(GoalClass::CircuitEquivalence)
            || cert.wire_map.len() != cert.register_width
        {
            return Err("rule library, backend or wire map width mismatch".to_string());
        }
        let device = CouplingMap::from_spec(&cert.device)?;
        if cert.pipeline != pipeline(&device, cert.seed) {
            return Err("pipeline mismatch".to_string());
        }
        match reverify(&cert.pipeline) {
            Some(failure) => Err(format!("pipeline verification failed: {failure}")),
            None => Ok(device),
        }
    });
    let device = schedule?;
    let replayed = span.time("check.replay_ms", || -> Result<_, String> {
        let input = concrete_circuit(&cert.input)?;
        let replayed = baseline_transpile(&input, &device, cert.seed)
            .map_err(|e| format!("replaying the pipeline failed: {e:?}"))?;
        let width = replayed.circuit.num_qubits().max(input.num_qubits());
        if width != cert.register_width
            || end_to_end_wire_map(&replayed, cert.register_width) != cert.wire_map
        {
            return Err("replay does not reproduce the register or the wire map".to_string());
        }
        Ok(replayed)
    })?;
    span.time("check.evidence_ms", || {
        let goal = Goal::Equivalence {
            lhs: cert.output.clone(),
            rhs: SymCircuit::from_circuit(&replayed.circuit),
        };
        let mut registry = BackendRegistry::new(cert.selection);
        registry.prewarm(cert.register_width);
        let (verdict, evidence) = registry.discharge_with_evidence(&goal);
        if evidence != cert.evidence {
            return Err("evidence does not match a fresh discharge".to_string());
        }
        let fresh = CachedVerdict::from_verdict(&verdict);
        if cert.verdict != fresh || !fresh.is_proved() {
            return Err(format!("verdict {:?} does not certify equivalence", cert.verdict));
        }
        Ok(())
    })
}

/// One traced request's numbers, printed as a per-circuit row.
struct Row {
    name: String,
    qubits: usize,
    seed: u64,
    shape: Shape,
    certify_ms: f64,
    check_ms: f64,
    parse_ms: f64,
    transpile_ms: f64,
    replay_ms: f64,
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let device = setup()?;
    let inputs = corpus(device.num_qubits())?;
    // Negative control: a tampered honest certificate is refused.
    let smallest = inputs.iter().min_by_key(|input| input.qasm.len()).ok_or("empty corpus")?;
    let honest = certify(&smallest.name, &smallest.qasm, &device, 0)?;
    out.check_result(tampered_certificate_refused(&honest), "negative control");

    // Warm-up on the small circuits, smallest first, cycling.
    let mut by_size: Vec<&Input> = inputs.iter().collect();
    by_size.sort_by_key(|input| input.qasm.len());
    let warmup = Instant::now();
    for input in by_size.iter().cycle() {
        if warmup.elapsed().as_secs_f64() >= WARMUP_SECONDS {
            break;
        }
        let text = certify(&input.name, &input.qasm, &device, input.compile_seed)?;
        check(&text)?;
    }

    let mut rng = Rng::new(config.seed);
    let mut untraced: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut trace = Trace::default();
    let mut rows: Vec<Row> = Vec::new();
    let mut mismatches = 0usize;
    let mut circuits_done = 0usize;
    let mut busy_ms = 0.0;
    let mut passes = 0usize;
    let start = Instant::now();
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < config.seconds {
        let mut order: Vec<usize> = (0..inputs.len()).collect();
        rng.shuffle(&mut order);
        for index in order {
            let input = &inputs[index];
            let seed = input.compile_seed;
            let op_start = Instant::now();
            let text = certify(&input.name, &input.qasm, &device, seed);
            let certify_ms = ms_since(op_start);
            untraced.entry("certify").or_default().push(certify_ms);
            let Some(text) = out.check_result(text, &format!("certify {}", input.name)) else {
                continue;
            };
            let op_start = Instant::now();
            let verdict = check(&text);
            let check_ms = ms_since(op_start);
            untraced.entry("check_cert").or_default().push(check_ms);
            out.check_result(verdict.clone(), &format!("check-cert {} seed {seed}", input.name));
            busy_ms += certify_ms + check_ms;
            circuits_done += 1;
            if config.trace {
                let mut certify_span = Span::default();
                let mut check_span = Span::default();
                let traced =
                    certify_traced(&input.name, &input.qasm, &device, seed, &mut certify_span).map(
                        |(traced_text, shape)| {
                            let traced_verdict = check_traced(&traced_text, &mut check_span);
                            (traced_text == text && traced_verdict == verdict, shape)
                        },
                    );
                match traced {
                    Ok((true, shape)) => {
                        if passes == 0 {
                            rows.push(Row {
                                name: input.name.clone(),
                                qubits: input.qubits,
                                seed,
                                shape,
                                certify_ms,
                                check_ms,
                                parse_ms: check_span.get("json.parse_ms"),
                                transpile_ms: certify_span.get("transpile.ms"),
                                replay_ms: check_span.get("check.replay_ms"),
                            });
                        }
                    }
                    _ => mismatches += 1,
                }
                trace.add("certify", certify_span);
                trace.add("check_cert", check_span);
            }
        }
        passes += 1;
    }
    out.latency("op1", "certify", &untraced["certify"]);
    out.latency("op2", "check_cert", &untraced["check_cert"]);
    out.metrics.set("ops_per_s", circuits_done as f64 / (busy_ms / 1e3), "1/s");
    out.lines.push(format!("{passes} passes over {} circuits on {DEVICE}", inputs.len()));
    if config.trace {
        out.check(mismatches == 0, || format!("{mismatches} traced requests differ"));
        trace.report(&untraced, &mut out.metrics);
        report_rows(&rows, &trace, &mut out);
        out.metrics.set("trace.mismatches", mismatches as f64, "count");
        out.metrics.set(
            "trace.ops",
            (trace.ops("certify") + trace.ops("check_cert")) as f64,
            "count",
        );
    }
    Ok(out)
}

/// Per-circuit rows of the first traced pass, the corpus-wide counts, and
/// the JSON parse throughput and share.
fn report_rows(rows: &[Row], trace: &Trace, out: &mut Outcome) {
    let mut rows: Vec<&Row> = rows.iter().collect();
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    out.lines.push(format!(
        "{:<14} {:>3} {:>6} {:>6} {:>6} {:>6} {:>9} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "circuit",
        "q",
        "seed",
        "gates",
        "2q",
        "depth",
        "json_B",
        "wires",
        "certify_ms",
        "check_ms",
        "parse_ms",
        "xpile_ms",
        "replay_ms"
    ));
    let sum = |f: fn(&Shape) -> usize| rows.iter().map(|row| f(&row.shape)).sum::<usize>() as f64;
    for row in &rows {
        out.lines.push(format!(
            "{:<14} {:>3} {:>6} {:>6} {:>6} {:>6} {:>9} {:>5} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            row.name,
            row.qubits,
            row.seed,
            row.shape.out_gates,
            row.shape.out_2q_gates,
            row.shape.out_depth,
            row.shape.json_bytes,
            row.shape.wires,
            row.certify_ms,
            row.check_ms,
            row.parse_ms,
            row.transpile_ms,
            row.replay_ms,
        ));
    }
    let m = &mut out.metrics;
    m.set("qasm.bytes", sum(|s| s.qasm_bytes), "bytes");
    m.set("transpile.out_gates", sum(|s| s.out_gates), "count");
    m.set("transpile.out_2q_gates", sum(|s| s.out_2q_gates), "count");
    m.set("transpile.out_depth", sum(|s| s.out_depth), "count");
    m.set("certify.wires", sum(|s| s.wires), "count");
    m.set("json.bytes", sum(|s| s.json_bytes), "bytes");
    let parse_ms = trace.layer_total("json.parse_ms");
    let parsed_bytes: f64 = rows.iter().map(|row| row.shape.json_bytes as f64).sum();
    let first_pass_parse_ms: f64 = rows.iter().map(|row| row.parse_ms).sum();
    if first_pass_parse_ms > 0.0 {
        m.set("json.parse_mb_per_s", parsed_bytes / 1e6 / (first_pass_parse_ms / 1e3), "MB/s");
    }
    let check_layers = [
        "json.parse_ms",
        "json.from_value_ms",
        "check.fingerprint_ms",
        "check.reverify_ms",
        "check.replay_ms",
        "check.evidence_ms",
    ];
    let check_ms: f64 = check_layers.iter().map(|layer| trace.layer_total(layer)).sum();
    if check_ms > 0.0 {
        m.set("json.parse_share_of_check", parse_ms / check_ms, "ratio");
    }
}
