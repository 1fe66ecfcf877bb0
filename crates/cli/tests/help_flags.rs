//! `giallar <subcommand> --help` (or `-h`) prints that subcommand's usage
//! to stdout and exits 0, instead of refusing the flag as unknown.

use std::process::Command;

/// Runs `giallar <args>` with each help spelling and checks the usage of
/// `subcommand` comes back on stdout with exit 0.
fn assert_help(args: &[&str], subcommand: &str, option: &str) {
    for help in ["--help", "-h"] {
        let output =
            Command::new(env!("CARGO_BIN_EXE_giallar")).args(args).arg(help).output().unwrap();
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(0), "{args:?} {help}: {stderr}");
        assert!(stderr.is_empty(), "{args:?} {help} wrote to stderr: {stderr}");
        assert!(
            stdout.starts_with(&format!("USAGE:\n    giallar {subcommand} [OPTIONS]\n")),
            "{args:?} {help}: {stdout}"
        );
        assert!(stdout.contains(option), "{args:?} {help} does not list {option}: {stdout}");
        // Only this subcommand's block, not the whole usage text.
        assert!(!stdout.contains("SUBCOMMANDS:"), "{args:?} {help}: {stdout}");
    }
}

#[test]
fn verify_help() {
    assert_help(&["verify"], "verify", "--expect-passes");
}

#[test]
fn compile_help() {
    assert_help(&["compile"], "compile", "--certify <path>");
    // Help wins over the other arguments, a positional input included.
    assert_help(&["compile", "bell", "--seed", "3"], "compile", "--list");
}

#[test]
fn check_cert_help() {
    assert_help(&["check-cert"], "check-cert", "certificate file");
}

#[test]
fn bench_help() {
    assert_help(&["bench"], "bench", "--check <dir>");
}

#[test]
fn fuzz_help() {
    assert_help(&["fuzz"], "fuzz", "--generate");
}

#[test]
fn serve_help() {
    assert_help(&["serve"], "serve", "--listen <spec>");
}

#[test]
fn client_help() {
    // No daemon is contacted: help is answered before any connection.
    assert_help(&["client"], "client", "--connect <spec>");
    assert_help(&["client", "--connect", "127.0.0.1:1", "verify"], "client", "--per-pass");
}
