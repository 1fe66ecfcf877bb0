//! End-to-end socket tests: a real server on a loopback TCP port (and a
//! Unix socket), driven by real clients.

use std::sync::Arc;
use std::thread;

use giallar_core::backend::BackendSelection;
use giallar_core::json::Value;
use giallar_serve::engine::{Engine, EngineConfig};
use giallar_serve::net::Endpoint;
use giallar_serve::server::Server;
use giallar_serve::Client;

/// Binds a server on a free loopback port and runs it on a background
/// thread; returns the address and the join handle.
fn start_tcp_server() -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let server = Server::bind(engine, &Endpoint::parse("127.0.0.1:0")).expect("bind");
    let addr = server.local_endpoint().to_string();
    (addr, thread::spawn(move || server.run()))
}

fn int(value: &Value, key: &str) -> i64 {
    value.get(key).and_then(Value::as_int).unwrap_or_else(|| panic!("missing int `{key}`"))
}

#[test]
fn full_session_over_tcp() {
    let (addr, handle) = start_tcp_server();
    let mut client = Client::connect(&addr).expect("connect");

    let status = client.status().expect("status");
    assert_eq!(int(&status, "passes"), 44);
    assert_eq!(int(&status, "subgoals"), 104);
    assert_eq!(int(&status, "entries"), 0);

    // Cold verify: all misses; the sharded cache fills.
    let cold = client.verify(None, BackendSelection::Default).expect("cold verify");
    assert_eq!(cold.get("all_verified").and_then(Value::as_bool), Some(true));
    assert_eq!(int(&cold, "hits"), 0);
    assert_eq!(int(&cold, "misses"), 104);
    let reports = match cold.get("reports") {
        Some(Value::Array(reports)) => reports,
        other => panic!("bad reports: {other:?}"),
    };
    assert_eq!(reports.len(), 44);

    // Warm verify: all hits, byte-identical reports modulo timing.
    let warm = client.verify(None, BackendSelection::Default).expect("warm verify");
    assert_eq!(int(&warm, "hits"), 104);
    assert_eq!(int(&warm, "misses"), 0);

    // Targeted invalidate forces exactly that pass to re-discharge.
    let invalidated =
        client.invalidate("CXCancellation", BackendSelection::Default).expect("invalidate");
    let removed = int(&invalidated, "removed");
    assert!(removed > 0);
    let reverify = client
        .verify(Some(vec!["CXCancellation".to_string()]), BackendSelection::Default)
        .expect("re-verify");
    assert_eq!(int(&reverify, "misses"), removed);

    // Server-side errors arrive as error responses, not broken connections.
    let err = client.verify(Some(vec!["Nope".to_string()]), BackendSelection::Default);
    assert!(err.unwrap_err().to_string().contains("unknown pass `Nope`"));

    // Compile a named circuit.
    let suite = qasmbench::benchmark_suite();
    let small = suite.iter().min_by_key(|b| b.circuit.num_qubits()).unwrap();
    let compiled = client.compile(&small.name, "falcon27", 7).expect("compile");
    assert!(int(compiled.get("output").expect("output"), "gates") > 0);

    // Compact the (absent) reference backend: nothing to drop.
    let compacted = client.compact(vec!["reference".to_string()]).expect("compact");
    assert_eq!(int(&compacted, "removed"), 0);

    let stopping = client.shutdown().expect("shutdown");
    assert_eq!(stopping.get("stopping").and_then(Value::as_bool), Some(true));
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn concurrent_clients_agree_and_share_the_cache() {
    let (addr, handle) = start_tcp_server();

    // Eight clients fire the same full-registry verify concurrently; the
    // dispatcher batches whatever queues together, deduplicates the misses
    // by fingerprint, and every response must agree.
    let mut joins = Vec::new();
    for _ in 0..8 {
        let addr = addr.clone();
        joins.push(thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("connect");
            client.verify(None, BackendSelection::Default).expect("verify")
        }));
    }
    let results: Vec<Value> = joins.into_iter().map(|j| j.join().expect("client")).collect();
    for result in &results {
        assert_eq!(result.get("all_verified").and_then(Value::as_bool), Some(true));
        assert_eq!(int(result, "hits") + int(result, "misses"), 104);
    }

    // Afterwards the cache is warm: a fresh client sees all hits, and the
    // folded stats account for exactly 8 * 104 served obligations.
    let mut client = Client::connect(&addr).expect("connect");
    let warm = client.verify(None, BackendSelection::Default).expect("warm");
    assert_eq!(int(&warm, "hits"), 104);
    let status = client.status().expect("status");
    let stats = status.get("stats").expect("stats");
    assert_eq!(int(stats, "hits") + int(stats, "misses"), 9 * 104);
    assert_eq!(int(&status, "served"), 9);

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn unix_socket_transport_works() {
    let path = std::env::temp_dir().join(format!("giallar-serve-test-{}.sock", std::process::id()));
    let endpoint = Endpoint::Unix(path.clone());
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let server = Server::bind(engine, &endpoint).expect("bind unix");
    let spec = server.local_endpoint().to_string();
    assert_eq!(spec, format!("unix:{}", path.display()));
    let handle = thread::spawn(move || server.run());

    let mut client = Client::connect(&spec).expect("connect unix");
    let verified = client
        .verify(Some(vec!["CXCancellation".to_string()]), BackendSelection::Default)
        .expect("verify");
    assert_eq!(verified.get("all_verified").and_then(Value::as_bool), Some(true));
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn malformed_lines_get_an_error_response_without_killing_the_connection() {
    use std::io::{BufRead, BufReader, Write};

    let (addr, handle) = start_tcp_server();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.write_all(b"this is not json\n").expect("write");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let response = giallar_serve::Response::from_line(&line).expect("parse");
    assert_eq!(response.id, -1);
    assert!(response.result.unwrap_err().contains("request:"));

    // The connection is still alive and serves a well-formed request.
    stream
        .write_all(br#"{"schema":"giallar-serve/v1","id":5,"op":"status"}"#)
        .and_then(|()| stream.write_all(b"\n"))
        .expect("write status");
    line.clear();
    reader.read_line(&mut line).expect("read status");
    let response = giallar_serve::Response::from_line(&line).expect("parse status");
    assert_eq!(response.id, 5);
    assert!(response.result.is_ok());

    stream
        .write_all(br#"{"schema":"giallar-serve/v1","id":6,"op":"shutdown"}"#)
        .and_then(|()| stream.write_all(b"\n"))
        .expect("write shutdown");
    line.clear();
    reader.read_line(&mut line).expect("read shutdown");
    handle.join().expect("server thread").expect("server run");
}

#[test]
fn a_newline_free_line_just_over_the_cap_is_refused_once_and_promptly() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};

    use giallar_serve::server::MAX_REQUEST_LINE;

    let (addr, handle) = start_tcp_server();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let started = Instant::now();

    // The daemon receives the line over hundreds of reads; framing must
    // scan each byte once, not rescan the whole buffer after every read.
    stream.write_all(&vec![b'x'; MAX_REQUEST_LINE + 1]).expect("write oversized line");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read cap error");
    let response = giallar_serve::Response::from_line(&line).expect("parse cap error");
    assert_eq!(response.id, -1);
    let error = response.result.unwrap_err();
    assert!(error.contains(&format!("exceeds {MAX_REQUEST_LINE} bytes")), "{error}");

    // End the oversized line, then ask for status: the very next answer is
    // the status, so the line drew exactly one cap error.
    stream
        .write_all(b"\n{\"schema\":\"giallar-serve/v1\",\"id\":3,\"op\":\"status\"}\n")
        .expect("write status");
    line.clear();
    reader.read_line(&mut line).expect("read status");
    let response = giallar_serve::Response::from_line(&line).expect("parse status");
    assert_eq!(response.id, 3);
    assert_eq!(int(&response.result.expect("status ok"), "passes"), 44);
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(5), "cap error and status took {elapsed:?}");

    Client::connect(&addr).expect("connect").shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}
