//! `xbar … | head` closes stdout before the command is done. The binary
//! must then end quietly with exit 0, not panic on the broken pipe.

use std::process::{Command, Output, Stdio};

/// Run `xbar args` with stdout on a pipe whose read end is already closed,
/// so the first line it prints meets a broken pipe.
fn run_into_closed_pipe(args: &str) -> Output {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_xbar"))
        .args(args.split_whitespace())
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("xbar starts")
}

#[test]
fn closed_stdout_ends_the_command_quietly_with_exit_0() {
    for args in [
        "solve --n 8 --class poisson:rho=0.3",
        "sim --n 8 --class poisson:rho=0.3 --duration 200 --warmup 10",
        "admit --n 8 --class poisson:rho=0.1 --replay-events 1000",
    ] {
        let out = run_into_closed_pipe(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args}: {stderr}");
        assert!(stderr.is_empty(), "{args}: {stderr}");
    }
}

#[test]
fn errors_still_reach_stderr_with_their_exit_code() {
    let out = run_into_closed_pipe("solve --n 8 --class poisson");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error:"));
}
