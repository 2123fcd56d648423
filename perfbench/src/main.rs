//! End-to-end, layer-by-layer request benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chat_cold|session_growth|serve_shared \
//!     --seed N --seconds S --trace 0|1 [--scale full|tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` replays a
//! fixed amount of the same work with spans around every layer call and
//! reports the per-layer metrics. Human-readable detail goes first; the
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A successful answer that differs
//! from its reference makes the run exit with code 1.

mod chat;
mod measure;
mod oracle;
mod report;
mod rng;
mod serve;
mod stats;
mod trace;
mod world;

use report::Report;

const WORKLOADS: [&str; 3] = ["chat_cold", "session_growth", "serve_shared"];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                args.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--scale must be full or tiny, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} ({})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// A `/proc/self/status` memory field, in MB (0 where unavailable).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set size of this process (`VmRSS`), in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// Directory, under the working directory, that takes the program's
/// temporary files (spill files go to `std::env::temp_dir()`), so a run
/// writes nothing outside the tree it runs in.
const TEMP_DIR: &str = ".bench_tmp";

/// Point `TMPDIR` at [`TEMP_DIR`]. Called before any thread starts.
fn keep_temp_files_local() -> std::io::Result<()> {
    let dir = std::env::current_dir()?.join(TEMP_DIR);
    std::fs::create_dir_all(&dir)?;
    std::env::set_var("TMPDIR", &dir);
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = keep_temp_files_local() {
        eprintln!("perfbench: cannot create {TEMP_DIR}: {e}");
        std::process::exit(2);
    }
    let report: Report = match args.workload.as_str() {
        "serve_shared" => serve::run(&args),
        _ => measure::run_chat(&args),
    };
    println!(
        "perfbench {} seed={} seconds={} trace={} scale={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.tiny { "tiny" } else { "full" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    // Spill directories are removed as their jobs end; drop the parent if
    // nothing is left in it.
    let _ = std::fs::remove_dir(TEMP_DIR);
    print!("{}", report.human());
    println!("{}", report.json());
    if !report.correct {
        std::process::exit(1);
    }
}
