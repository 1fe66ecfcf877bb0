//! Scheduling must never change what the verifier says.  `giallar verify`
//! and the `giallar serve` daemon share one batched scheduler: the rayon
//! pool (`--jobs`, or `RAYON_NUM_THREADS` for the daemon) bounds obligation
//! generation and the parallel discharge of the planned groups, and the
//! in-order fold makes every report a pure function of the pass list, the
//! backend and the cache state.  These tests pin that contract at the
//! process boundary, in process and over the wire.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::Duration;

fn giallar() -> Command {
    Command::new(env!("CARGO_BIN_EXE_giallar"))
}

fn verify_stdout(extra: &[&str]) -> (Vec<u8>, Option<i32>) {
    let output = giallar()
        .arg("verify")
        .arg("--deterministic")
        .args(extra)
        .output()
        .expect("run giallar verify");
    (output.stdout, output.status.code())
}

#[test]
fn jobs_one_report_is_byte_identical_to_the_default_pool() {
    let (default_pool, default_code) = verify_stdout(&[]);
    let (sequential, sequential_code) = verify_stdout(&["--jobs", "1"]);
    assert_eq!(default_code, Some(0));
    assert_eq!(sequential_code, Some(0));
    assert!(!default_pool.is_empty(), "verify produced no report");
    assert_eq!(
        default_pool, sequential,
        "--jobs 1 must produce a byte-identical deterministic report"
    );
}

#[test]
fn jobs_one_matches_a_wide_pool_under_every_backend() {
    for backend in ["default", "reference"] {
        let (wide, wide_code) = verify_stdout(&["--backend", backend, "--jobs", "8"]);
        let (narrow, narrow_code) = verify_stdout(&["--backend", backend, "--jobs", "1"]);
        assert_eq!(wide_code, Some(0), "backend {backend}");
        assert_eq!(narrow_code, Some(0), "backend {backend}");
        assert_eq!(wide, narrow, "scheduling leaked into the {backend} report");
    }
}

/// A `giallar serve` daemon on a private Unix socket, shut down on drop.
struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    fn start(threads: &str) -> Daemon {
        let socket = std::env::temp_dir()
            .join(format!("giallar-jobs-{}-{threads}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = giallar()
            .args(["serve", "--listen", &format!("unix:{}", socket.display())])
            .env("RAYON_NUM_THREADS", threads)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("start giallar serve");
        let daemon = Daemon { child, socket };
        for _ in 0..200 {
            if daemon.client(&["status"]).status.success() {
                return daemon;
            }
            sleep(Duration::from_millis(50));
        }
        panic!("daemon under RAYON_NUM_THREADS={threads} never became ready");
    }

    fn client(&self, args: &[&str]) -> std::process::Output {
        giallar()
            .arg("client")
            .args(["--connect", &format!("unix:{}", self.socket.display())])
            .args(args)
            .output()
            .expect("run giallar client")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.client(&["shutdown"]);
        for _ in 0..100 {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            sleep(Duration::from_millis(50));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

#[test]
fn served_reports_match_a_sequential_verify_on_one_and_eight_threads() {
    let backends = ["default", "reference"];
    let expected: Vec<Vec<u8>> = backends
        .iter()
        .map(|backend| {
            let (report, code) =
                verify_stdout(&["--format", "json", "--backend", backend, "--jobs", "1"]);
            assert_eq!(code, Some(0), "backend {backend}");
            report
        })
        .collect();
    for threads in ["1", "8"] {
        let daemon = Daemon::start(threads);
        for (backend, expected) in backends.iter().zip(&expected) {
            // The warm round must be answered entirely from the resident
            // cache: all 104 registry obligations hit.
            for (round, min_hits) in [("cold", "0"), ("warm", "104")] {
                let output = daemon.client(&[
                    "verify",
                    "--format",
                    "json",
                    "--deterministic",
                    "--backend",
                    backend,
                    "--min-cache-hits",
                    min_hits,
                ]);
                assert!(output.status.success(), "{round} {backend} verify failed");
                assert_eq!(
                    &output.stdout, expected,
                    "{round} {backend} report served under RAYON_NUM_THREADS={threads} \
                     differs from `giallar verify --jobs 1`"
                );
            }
        }
    }
}
