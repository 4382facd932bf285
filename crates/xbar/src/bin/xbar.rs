//! `xbar` — command-line front-end: solve a crossbar model (analytically)
//! or simulate it, straight from shell arguments.
//!
//! ```text
//! xbar solve --n 32 --class poisson:rho=0.0012,tilde --class bpp:alpha=0.0012,beta=0.0012,tilde,w=0.0001
//! xbar solve --n 200 --cross-check --cross-check-tol 1e-9 --class poisson:rho=1e-5
//! xbar sim   --n 16 --class bpp:alpha=0.02,beta=0.01 --duration 50000 --seed 7
//! xbar sim   --n 8 --class poisson:rho=0.1 --port-mtbf 500 --port-mttr 50
//! xbar serve --n 16 --class poisson:rho=0.1 --data-dir /var/lib/xbar --tail events.log
//! ```
//!
//! All the parsing and execution logic lives in [`xbar::cli`] so it can be
//! tested (including property tests asserting it never panics). This
//! binary only maps [`xbar::cli::CliError`] onto process exit codes:
//! 0 success, 2 usage/model error, 3 solve failure, 4 cross-check failure,
//! 5 simulator configuration error, 6 metrics/invariant failure, 7 serve
//! tenant(s) quarantined. A stdout closed by its reader (`xbar … | head`)
//! ends the command quietly with exit 0.

use std::panic::{self, PanicHookInfo};
use std::process::ExitCode;

/// Whether `info` is std's print macros failing on a closed stdout.
fn stdout_closed(info: &PanicHookInfo<'_>) -> bool {
    info.payload_as_str()
        .is_some_and(|m| m.starts_with("failed printing to stdout") && m.contains("Broken pipe"))
}

fn main() -> ExitCode {
    let report = panic::take_hook();
    panic::set_hook(Box::new(move |info| {
        if stdout_closed(info) {
            std::process::exit(0);
        }
        report(info)
    }));
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match xbar::cli::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
