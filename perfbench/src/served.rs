//! The `served` workload: one in-process daemon (`Server::bind` on loopback
//! TCP), prewarmed before timing, driven closed-loop by two client
//! connections, each issuing an equal, seeded mix of full-registry verify,
//! single-pass verify, invalidate-then-verify, certify of a resident
//! (circuit, seed) and certify of a fresh seed.
//!
//! It is the only workload through the wire protocol, the socket, the
//! dispatcher and the sharded resident cache; two clients expose lock and
//! dispatcher waits.  It bypasses cache-file persistence.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use giallar_core::backend::BackendSelection;
use giallar_core::certificate::certify_compilation;
use giallar_core::json::Value;
use giallar_core::verifier::{reports_agree, PassReport};
use giallar_core::wrapper::{baseline_transpile, giallar_pipeline_pass_names};
use giallar_serve::protocol::{Op, Request, Response};
use giallar_serve::{Client, Endpoint, Engine, EngineConfig, Server, VerifyRequest};
use qc_ir::CouplingMap;

use crate::checks::{digest, reports_match, subgoals_of, table2};
use crate::stats::{ms_since, Samples, Span, Trace};
use crate::suite::compile_seed;
use crate::{Outcome, Rng, RunConfig, WARMUP_SECONDS};

const DEVICE: &str = "falcon27";
const SELECTION: BackendSelection = BackendSelection::Default;
/// Client connections (the machine this benchmark was tuned on has two
/// cores).
const CLIENTS: usize = 2;
/// Certify circuits are drawn from the suite's circuits of at most this
/// many qubits, so no single request dominates a run.
const MAX_CERTIFY_QUBITS: usize = 16;
/// Operations per client the traced run replays.
const TRACED_OPS: usize = 30;

/// One client operation.
#[derive(Clone)]
enum ServedOp {
    Full,
    Single(String),
    InvalidateVerify(String),
    CertifyHit(usize),
    CertifyMiss(String, u64),
}

/// The request kinds of the mix, each with the metric its untraced median
/// is reported under.  The pooled `served_verify` and `served_certify`
/// percentiles depend on the mix; these per-kind medians do not.
const MIX: [&str; 6] = [
    "mix.full_verify_ms",
    "mix.single_verify_ms",
    "mix.invalidate_ms",
    "mix.invalidated_verify_ms",
    "mix.certify_hit_ms",
    "mix.certify_miss_ms",
];

impl ServedOp {
    /// The wire requests the operation sends, in order, each with the
    /// pooled kind its latency is reported under and its kind in the mix.
    fn requests(&self, pool: &[(String, u64)]) -> Vec<(&'static str, &'static str, Op)> {
        let verify =
            |mix, passes| ("served_verify", mix, Op::Verify { passes, backend: SELECTION });
        let certify = |mix, circuit: &str, seed| {
            let (circuit, device) = (circuit.to_string(), DEVICE.to_string());
            ("served_certify", mix, Op::Certify { circuit, device, seed, backend: SELECTION })
        };
        match self {
            ServedOp::Full => vec![verify(MIX[0], None)],
            ServedOp::Single(pass) => vec![verify(MIX[1], Some(vec![pass.clone()]))],
            ServedOp::InvalidateVerify(pass) => vec![
                (
                    "served_invalidate",
                    MIX[2],
                    Op::Invalidate { pass: pass.clone(), backend: SELECTION },
                ),
                verify(MIX[3], Some(vec![pass.clone()])),
            ],
            ServedOp::CertifyHit(index) => {
                vec![certify(MIX[4], &pool[*index].0, pool[*index].1)]
            }
            ServedOp::CertifyMiss(circuit, seed) => vec![certify(MIX[5], circuit, *seed)],
        }
    }
}

/// The inputs every client draws from.
struct Inputs {
    passes: Vec<String>,
    circuits: Vec<String>,
    pool: Vec<(String, u64)>,
    seed: u64,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let passes = table2().into_iter().map(|(name, _)| name).collect();
        let circuits: Vec<String> = qasmbench::benchmark_suite()
            .into_iter()
            .filter(|bench| bench.circuit.num_qubits() <= MAX_CERTIFY_QUBITS)
            .map(|bench| bench.name)
            .collect();
        // Every certify circuit is resident under its fixed compile seed, so
        // each seed draws certify hits from the same documents.
        let pool =
            circuits.iter().map(|circuit| (circuit.clone(), compile_seed(circuit))).collect();
        Inputs { passes, circuits, pool, seed }
    }

    /// Client `client`'s operation sequence (endless; the same for a given
    /// seed, so the traced run can replay it).  Kinds, passes and circuits
    /// are dealt from shuffled decks rather than drawn independently, so
    /// every seed issues the same mix and only its order changes.
    ///
    /// The five operation kinds are equally frequent.  No recorded traffic
    /// gives their ratio (the repository's serve-latency scenarios time each
    /// kind on its own), so the mix assumes none; the `mix.*` metrics report
    /// each kind's median apart from the pooled percentiles.
    fn ops(&self, client: usize) -> impl Iterator<Item = ServedOp> + '_ {
        let mut rng = Rng::new(self.seed ^ (0x5eed_0000 + client as u64));
        let mut kinds = Deck::new(vec![0u8, 1, 2, 3, 4]);
        let mut passes = Deck::new((0..self.passes.len()).collect());
        let mut hits = Deck::new((0..self.pool.len()).collect());
        let mut misses = Deck::new((0..self.circuits.len()).collect());
        // Fresh compile seeds: disjoint per client and from the pool's.
        let mut fresh = (1u64 << 20) * (client as u64 + 1);
        std::iter::repeat_with(move || match kinds.deal(&mut rng) {
            0 => ServedOp::Full,
            1 => ServedOp::Single(self.passes[passes.deal(&mut rng)].clone()),
            2 => ServedOp::InvalidateVerify(self.passes[passes.deal(&mut rng)].clone()),
            3 => ServedOp::CertifyHit(hits.deal(&mut rng)),
            _ => {
                fresh += 1;
                ServedOp::CertifyMiss(self.circuits[misses.deal(&mut rng)].clone(), fresh)
            }
        })
    }
}

/// Items dealt in a shuffled order, reshuffled after each round.
struct Deck<T> {
    items: Vec<T>,
    next: usize,
}

impl<T: Copy> Deck<T> {
    fn new(items: Vec<T>) -> Deck<T> {
        let next = items.len();
        Deck { items, next }
    }

    fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == self.items.len() {
            rng.shuffle(&mut self.items);
            self.next = 0;
        }
        self.next += 1;
        self.items[self.next - 1]
    }
}

/// A running daemon on an OS-assigned loopback port.
struct Daemon {
    endpoint: String,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let server = Server::bind(engine, &Endpoint::parse("127.0.0.1:0"))
            .map_err(|e| format!("binding the daemon: {e}"))?;
        let endpoint = server.local_endpoint().to_string();
        let thread = std::thread::spawn(move || server.run());
        Ok(Daemon { endpoint, thread })
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect(&self.endpoint).map_err(|e| format!("connecting: {e}"))
    }

    /// Sends `shutdown` and waits for the daemon to drain.
    fn stop(self) -> Result<(), String> {
        self.client()?.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        match self.thread.join() {
            Ok(result) => result.map_err(|e| format!("daemon: {e}")),
            Err(_) => Err("the daemon thread panicked".to_string()),
        }
    }
}

/// The circuit certified once while prewarming.
const PREWARM_CIRCUIT: &str = "bell";

/// The program made ready: engine built, daemon bound and serving, one
/// full-registry verify and one certify answered.
fn setup() -> Result<Daemon, String> {
    let daemon = Daemon::start()?;
    let mut client = daemon.client()?;
    client.verify(None, SELECTION).map_err(|e| format!("prewarm verify: {e}"))?;
    client
        .certify(PREWARM_CIRCUIT, DEVICE, 0, SELECTION)
        .map_err(|e| format!("prewarm certify: {e}"))?;
    Ok(daemon)
}

pub fn setup_probe() -> Result<f64, String> {
    let start = Instant::now();
    let daemon = setup()?;
    let seconds = start.elapsed().as_secs_f64();
    daemon.stop()?;
    Ok(seconds)
}

/// The certificate an in-process `compile --certify` of the named suite
/// circuit emits.
fn in_process_certificate(circuit: &str, seed: u64) -> Result<String, String> {
    let bench = qasmbench::benchmark_suite()
        .into_iter()
        .find(|bench| bench.name == circuit)
        .ok_or_else(|| format!("unknown circuit {circuit}"))?;
    let device = CouplingMap::from_spec(DEVICE)?;
    let result = baseline_transpile(&bench.circuit, &device, seed).map_err(|e| format!("{e:?}"))?;
    let pipeline: Vec<String> =
        giallar_pipeline_pass_names(&device, seed).into_iter().map(str::to_string).collect();
    let cert = certify_compilation(
        &bench.name,
        DEVICE,
        seed,
        &bench.circuit,
        &result,
        &pipeline,
        SELECTION,
    );
    Ok(cert.to_json().to_pretty())
}

/// Decoded reports of a verify result.
fn decode_reports(result: &Value) -> Result<Vec<PassReport>, String> {
    result
        .get("reports")
        .and_then(Value::as_array)
        .ok_or("verify result without reports")?
        .iter()
        .map(PassReport::from_json_value)
        .collect()
}

fn int(result: &Value, key: &str) -> Option<usize> {
    result.get(key).and_then(Value::as_int).and_then(|v| usize::try_from(v).ok())
}

/// Checks a verify result: the requested passes per Table 2, and every
/// obligation answered as a hit or a miss.
fn check_verify(
    result: &Value,
    passes: Option<&str>,
    table: &[(String, usize)],
) -> Result<(), String> {
    let reports = decode_reports(result)?;
    let filter = passes.map(|pass| [pass]);
    reports_match(&reports, table, filter.as_ref().map(|f| &f[..]))?;
    let expected: usize = match passes {
        None => table.iter().map(|(_, subgoals)| subgoals).sum(),
        Some(pass) => subgoals_of(table, pass).ok_or("unknown pass")?,
    };
    let answered = int(result, "hits").unwrap_or(0) + int(result, "misses").unwrap_or(0);
    if answered != expected {
        return Err(format!("{answered} obligations answered, expected {expected}"));
    }
    Ok(())
}

/// The certificate document of a certify result, and its `cached` flag.
fn certificate_of(result: &Value) -> Result<(String, bool), String> {
    let cert = result.get("certificate").ok_or("certify result without a certificate")?;
    let cached = result.get("cached").and_then(Value::as_bool).ok_or("certify without `cached`")?;
    Ok((cert.to_pretty(), cached))
}

/// What one client saw during the timed window.
#[derive(Default)]
struct ClientLog {
    latencies: BTreeMap<&'static str, Samples>,
    by_mix: BTreeMap<&'static str, Samples>,
    requests: usize,
    checks: Vec<Result<(), String>>,
    misses: Vec<(String, u64, u64)>,
    window: Option<(Instant, Instant)>,
}

/// Checks one answer: verify reports per Table 2, resident certificates
/// cached and byte-identical to the in-process ones, fresh certificates not
/// cached (their bytes are compared after the run, off the clients'
/// threads).
fn check_answer(
    op: &ServedOp,
    request: &Op,
    result: &Value,
    table: &[(String, usize)],
    pool_digests: &[u64],
    misses: &mut Vec<(String, u64, u64)>,
) -> Result<(), String> {
    match request {
        Op::Verify { passes, .. } => {
            check_verify(result, passes.as_ref().map(|p| p[0].as_str()), table)
        }
        Op::Invalidate { .. } => {
            int(result, "removed").map(drop).ok_or("invalidate: no count".into())
        }
        Op::Certify { circuit, seed, .. } => {
            let (text, cached) = certificate_of(result)?;
            let text_digest = digest(text.as_bytes());
            match op {
                ServedOp::CertifyHit(index) if cached && text_digest == pool_digests[*index] => {
                    Ok(())
                }
                ServedOp::CertifyMiss(..) if !cached => {
                    misses.push((circuit.clone(), *seed, text_digest));
                    Ok(())
                }
                _ => {
                    Err(format!("certify {circuit} seed {seed}: cached {cached}, or bytes differ"))
                }
            }
        }
        _ => Err(format!("unexpected request `{}`", request.name())),
    }
}

/// Closed loop: issue the next operation once the previous one answered.
/// Operations in the warm-up are checked but not timed; the timed window
/// follows it.
fn client_loop(
    client: &mut Client,
    ops: impl Iterator<Item = ServedOp>,
    inputs: &Inputs,
    pool_digests: &[u64],
    table: &[(String, usize)],
    start: (&Barrier, Duration, Duration),
) -> ClientLog {
    let mut log = ClientLog::default();
    let (barrier, warmup, window) = start;
    barrier.wait();
    let timed_from = Instant::now() + warmup;
    let deadline = timed_from + window;
    for op in ops {
        let issued = Instant::now();
        if issued >= deadline {
            break;
        }
        let mut latencies = Vec::new();
        let mut check = Ok(());
        for (kind, mix, request) in op.requests(&inputs.pool) {
            let sent = request.clone();
            let start = Instant::now();
            let answer = client.request(sent);
            latencies.push((kind, mix, ms_since(start)));
            check = answer.map_err(|e| e.to_string()).and_then(|result| {
                check_answer(&op, &request, &result, table, pool_digests, &mut log.misses)
            });
            if check.is_err() {
                break;
            }
        }
        log.checks.push(check);
        if issued >= timed_from {
            for (kind, mix, ms) in latencies {
                log.latencies.entry(kind).or_default().push(ms);
                log.by_mix.entry(mix).or_default().push(ms);
                log.requests += 1;
            }
            log.window = Some((timed_from, Instant::now()));
        }
    }
    log
}

/// Certifies every pool pair once through the daemon, making them resident,
/// and returns their in-process certificate digests.
fn prime_pool(client: &mut Client, inputs: &Inputs) -> Result<Vec<u64>, String> {
    inputs
        .pool
        .iter()
        .map(|(circuit, seed)| {
            client.certify(circuit, DEVICE, *seed, SELECTION).map_err(|e| e.to_string())?;
            Ok(digest(in_process_certificate(circuit, *seed)?.as_bytes()))
        })
        .collect()
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let table = table2();
    let inputs = Inputs::new(config.seed);
    let daemon = setup()?;
    let pool_digests = prime_pool(&mut daemon.client()?, &inputs)?;
    let mut clients: Vec<Client> =
        (0..CLIENTS).map(|_| daemon.client()).collect::<Result<_, _>>()?;
    let barrier = Barrier::new(CLIENTS);
    let window = Duration::from_secs_f64(config.seconds);
    let warmup = Duration::from_secs_f64(WARMUP_SECONDS);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(index, client)| {
                let (inputs, digests, table, barrier) = (&inputs, &pool_digests, &table, &barrier);
                scope.spawn(move || {
                    let start = (barrier, warmup, window);
                    client_loop(client, inputs.ops(index), inputs, digests, table, start)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    drop(clients);
    daemon.stop()?;
    let windows = logs.iter().filter_map(|log| log.window);
    let wall = windows
        .clone()
        .map(|(_, end)| end)
        .max()
        .zip(windows.map(|(start, _)| start).min())
        .map_or(0.0, |(end, start)| (end - start).as_secs_f64());
    let mut untraced: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut by_mix: BTreeMap<&'static str, Samples> = BTreeMap::new();
    let mut requests = 0usize;
    for log in &logs {
        for (merged, latencies) in [(&mut untraced, &log.latencies), (&mut by_mix, &log.by_mix)] {
            for (kind, samples) in latencies {
                let merged = merged.entry(kind).or_default();
                for ms in samples.values() {
                    merged.push(*ms);
                }
            }
        }
        requests += log.requests;
        for check in &log.checks {
            out.check(check.is_ok(), || format!("served op: {:?}", check.as_ref().err()));
        }
    }
    // Every fresh certificate must match the in-process one byte for byte.
    for (circuit, seed, served) in logs.iter().flat_map(|log| &log.misses) {
        let local = in_process_certificate(circuit, *seed).map(|text| digest(text.as_bytes()));
        out.check(local.as_ref() == Ok(served), || {
            format!("served certificate of {circuit} seed {seed} differs from the in-process one")
        });
    }
    out.latency("op1", "served_verify", &untraced["served_verify"]);
    out.latency("op2", "served_certify", &untraced["served_certify"]);
    for mix in MIX {
        let samples = by_mix.get(mix).ok_or_else(|| format!("no {mix} request completed"))?;
        let (tail, percentile) = samples.tail();
        out.metrics.set(mix, samples.median(), "ms");
        out.lines.push(format!(
            "{mix}: {} samples, p50 {:.4} ms, p{percentile:.1} {tail:.4} ms",
            samples.len(),
            samples.median()
        ));
    }
    out.metrics.set("ops_per_s", requests as f64 / wall, "1/s");
    out.lines
        .push(format!("{requests} requests from {CLIENTS} closed-loop clients in {wall:.3} s"));
    if config.trace {
        traced_replay(&inputs, &table, &untraced, &mut out)?;
    }
    Ok(out)
}

/// A raw line client: the protocol's encode and decode timed apart from
/// the round trip.
struct LineClient {
    reader: BufReader<TcpStream>,
    next_id: i64,
}

impl LineClient {
    fn connect(endpoint: &str) -> Result<LineClient, String> {
        let stream = TcpStream::connect(endpoint).map_err(|e| format!("connecting: {e}"))?;
        Ok(LineClient { reader: BufReader::new(stream), next_id: 1 })
    }

    /// One request: encode, round trip, decode; returns the result, the
    /// round-trip milliseconds and the response's bytes.
    fn request(&mut self, op: Op, span: &mut Span) -> Result<(Value, f64, usize), String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = span.time("protocol.encode_ms", || Request::new(id, op).to_line());
        line.push('\n');
        let start = Instant::now();
        let stream = self.reader.get_mut();
        stream.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
        stream.flush().map_err(|e| e.to_string())?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply).map_err(|e| e.to_string())?;
        let round_trip = ms_since(start);
        let response = span.time("protocol.decode_ms", || Response::from_line(&reply))?;
        if response.id != id {
            return Err(format!("response id {} for request {id}", response.id));
        }
        Ok((response.result?, round_trip, reply.len()))
    }
}

/// Replays the first operations of every client's sequence, one at a time
/// and alternating clients, against a fresh daemon through a raw line
/// client, and the same operations against an identically prewarmed
/// in-process engine.  The daemon's answers must equal the engine's.
fn traced_replay(
    inputs: &Inputs,
    table: &[(String, usize)],
    untraced: &BTreeMap<&'static str, Samples>,
    out: &mut Outcome,
) -> Result<(), String> {
    let daemon = setup()?;
    prime_pool(&mut daemon.client()?, inputs)?;
    let engine = Engine::new(EngineConfig::default());
    engine.verify(&VerifyRequest::full_registry())?;
    engine.certify(PREWARM_CIRCUIT, DEVICE, 0, SELECTION)?;
    for (circuit, seed) in &inputs.pool {
        engine.certify(circuit, DEVICE, *seed, SELECTION)?;
    }
    let mut line = LineClient::connect(&daemon.endpoint)?;
    let sequences: Vec<Vec<ServedOp>> =
        (0..CLIENTS).map(|client| inputs.ops(client).take(TRACED_OPS).collect()).collect();
    let mut trace = Trace::default();
    let mut mismatches = 0usize;
    let mut response_bytes = 0usize;
    let mut engine_certifies = 0usize;
    let mut engine_hits = 0usize;
    for index in 0..TRACED_OPS {
        for sequence in &sequences {
            for (kind, _, op) in sequence[index].requests(&inputs.pool) {
                let mut span = Span::default();
                let (served, round_trip, bytes) = line.request(op.clone(), &mut span)?;
                response_bytes += bytes;
                let start = Instant::now();
                let same = match &op {
                    Op::Verify { passes, .. } => {
                        let request =
                            VerifyRequest { passes: passes.clone(), selection: SELECTION };
                        let local = engine.verify(&request)?;
                        let engine_ms = ms_since(start);
                        span.charge("engine.verify_ms", engine_ms);
                        span.charge("serve.wire_ms", round_trip - engine_ms);
                        let filter = passes.as_ref().map(|p| p[0].as_str());
                        check_verify(&served, filter, table).is_ok()
                            && reports_agree(&decode_reports(&served)?, &local.reports)
                            && int(&served, "hits") == Some(local.hits)
                            && int(&served, "misses") == Some(local.misses)
                    }
                    Op::Invalidate { pass, .. } => {
                        let removed = engine.invalidate(pass, SELECTION)?;
                        let engine_ms = ms_since(start);
                        span.charge("engine.invalidate_ms", engine_ms);
                        span.charge("serve.wire_ms", round_trip - engine_ms);
                        int(&served, "removed") == Some(removed)
                    }
                    Op::Certify { circuit, seed, .. } => {
                        let local = engine.certify(circuit, DEVICE, *seed, SELECTION)?;
                        let engine_ms = ms_since(start);
                        span.charge("engine.certify_ms", engine_ms);
                        span.charge("serve.wire_ms", round_trip - engine_ms);
                        engine_certifies += 1;
                        engine_hits += usize::from(local.cached);
                        let (text, cached) = certificate_of(&served)?;
                        text == local.certificate.to_json().to_pretty() && cached == local.cached
                    }
                    _ => false,
                };
                if !same {
                    mismatches += 1;
                }
                trace.add(kind, span);
            }
        }
    }
    drop(line);
    daemon.stop()?;
    out.check(mismatches == 0, || format!("{mismatches} traced served requests differ"));
    trace.report(untraced, &mut out.metrics);
    let m = &mut out.metrics;
    m.set("protocol.response_bytes", response_bytes as f64, "bytes");
    m.set("engine.certify_hit_ratio", engine_hits as f64 / engine_certifies.max(1) as f64, "ratio");
    m.set("trace.mismatches", mismatches as f64, "count");
    let ops = ["served_verify", "served_certify", "served_invalidate"]
        .iter()
        .map(|k| trace.ops(k))
        .sum::<usize>();
    m.set("trace.ops", ops as f64, "count");
    Ok(())
}
