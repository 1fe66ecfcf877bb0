//! `--backend` on names the binary does not route: the flag must be
//! refused as a usage error (exit 2) whose diagnostic is one line naming
//! the flag and listing the known routings — never a panic or a silent
//! fallback to some other backend.

use std::process::Command;

#[test]
fn retired_backend_is_a_usage_error_listing_the_known_backends() {
    for subcommand in [&["verify"][..], &["compile", "bell"][..]] {
        let output = Command::new(env!("CARGO_BIN_EXE_giallar"))
            .args(subcommand)
            .args(["--backend", "saturate"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert_eq!(output.status.code(), Some(2), "{subcommand:?}: {stderr}");
        assert!(stdout.is_empty(), "{subcommand:?} ran anyway: {stdout}");
        // Usage errors print one diagnostic line, then the usage text.
        let errors: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("usage error:") || l.starts_with("error:"))
            .collect();
        assert_eq!(errors.len(), 1, "{subcommand:?}: expected one error line: {stderr}");
        assert_eq!(stderr.lines().next(), Some(errors[0]), "diagnostic must come first: {stderr}");
        assert!(errors[0].contains("--backend"), "error does not name the flag: {}", errors[0]);
        assert!(
            errors[0].contains("known backends: default, reference"),
            "error does not list the known backends: {}",
            errors[0]
        );
        assert!(!stderr.contains("panicked"), "panic leaked: {stderr}");
    }
}
