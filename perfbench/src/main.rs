//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints a table of every metric (value, unit, sample count), the host
//! fingerprint, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits non-zero
//! when any output fails its check. `--workload all` runs every workload in
//! a process of its own.

use perfbench::digest::DEFAULT_SEED;
use perfbench::report::{self, Outcome, END_TO_END, PER_LAYER};
use perfbench::spans::{self, Spans};
use perfbench::study::Kind;
use perfbench::{host, serve_zipf, spice_mc, study};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const WORKLOADS: [&str; 4] = [
    "hammer_quick",
    "latency_retention_quick",
    "spice_mc",
    "serve_zipf",
];

const USAGE: &str =
    "usage: perfbench --workload <hammer_quick|latency_retention_quick|spice_mc|serve_zipf|all> \
[--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a u64"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Where runs write spans and server caches: `out/` in this package.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args, spans: &Spans) -> Outcome {
    let out = out_dir();
    match (args.workload.as_str(), args.trace) {
        ("hammer_quick", false) => study::untraced(Kind::Hammer, args.seed, args.seconds),
        ("hammer_quick", true) => study::traced(Kind::Hammer, args.seed, spans),
        ("latency_retention_quick", false) => {
            study::untraced(Kind::LatencyRetention, args.seed, args.seconds)
        }
        ("latency_retention_quick", true) => {
            study::traced(Kind::LatencyRetention, args.seed, spans)
        }
        ("spice_mc", false) => spice_mc::untraced(args.seed, args.seconds),
        ("spice_mc", true) => spice_mc::traced(args.seed, spans),
        ("serve_zipf", false) => serve_zipf::untraced(args.seed, args.seconds, &out),
        ("serve_zipf", true) => serve_zipf::traced(args.seed, args.seconds, &out, spans),
        (other, _) => unreachable!("workload {other} was validated"),
    }
}

/// Writes the traced run's spans and prints per-name self times.
fn write_spans(args: &Args, spans: &Spans) {
    let records = spans.records();
    println!("# spans: name count total_ms self_ms");
    for (name, (count, total, own)) in spans::self_times(&records) {
        println!(
            "{name:<28} {count:>6} {:>12.3} {:>12.3}",
            total as f64 / 1e3,
            own as f64 / 1e3
        );
    }
    let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, spans::to_jsonl(&records)));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// `--workload all`: each workload in its own process, one after another.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: current_exe: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("perfbench: {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    if args.setup_only {
        return match serve_zipf::setup_only(args.seed, &out_dir()) {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let steal_start = host::steal_ticks();
    let spans = Spans::new();
    let outcome = run(&args, &spans);
    print!("{}", report::table(&args.workload, &outcome));
    if args.trace {
        write_spans(&args, &spans);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    println!(
        "# fingerprint {} seed {} seconds {}",
        host::fingerprint(root, steal_start),
        args.seed,
        args.seconds
    );
    let defs = if args.trace { PER_LAYER } else { END_TO_END };
    match report::result_line(&outcome, defs) {
        Ok(line) => {
            println!("{line}");
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: no result: {e}");
            ExitCode::FAILURE
        }
    }
}
