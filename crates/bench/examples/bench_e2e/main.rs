//! `bench_e2e`: the repository's one end-to-end benchmark.
//!
//! One command runs one workload in its own process, checks every result
//! against an oracle, and prints every metric by name with its unit; the
//! last line of standard output is the result as one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/examples/bench_e2e/Cargo.toml -- \
//!     --workload tpch_local --seed 1 --seconds 12 --trace 0
//! cargo run --release -p xorbits-bench --example bench_e2e -- --quick
//! ```
//!
//! See `README.md` beside this file for the workloads, the metrics and
//! which layer each metric belongs to.

mod affinity;
mod check;
mod inputs;
mod json;
mod layers;
mod metrics;
mod oracle;
mod workloads;

use metrics::{Report, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{Budget, Ctx, RUN_SECONDS, WORKLOADS};

/// Input builds per run: at least `MIN`, then more until `SETUP_SECONDS`
/// have gone by. `setup_s` is the fastest of them; the first two or three
/// are always page-fault-cold, so few builds would report the allocator.
const SETUP_BUILDS_MIN: usize = 5;
const SETUP_BUILDS_MAX: usize = 40;
const SETUP_SECONDS: f64 = 0.5;

const USAGE: &str =
    "usage: bench_e2e --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]
                 [--sf <scale factor>] [--passes <n>] [--json-all]
       bench_e2e --selfcheck [--seed <u64>] [--seconds <s>]
       bench_e2e --quick [--seed <u64>]
workloads: tpch_local tpch_parallel tpch_cluster tpch_spill session_aged serving";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sf: Option<f64>,
    passes: Option<usize>,
    json_all: bool,
    selfcheck: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        sf: None,
        passes: None,
        json_all: false,
        selfcheck: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds: not a positive number")?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is not 0 or 1")),
                }
            }
            "--sf" => {
                args.sf = Some(
                    value("a scale factor")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or("--sf: not a positive number")?,
                )
            }
            "--passes" => {
                args.passes = Some(
                    value("a pass count")?
                        .parse()
                        .map_err(|e| format!("--passes: {e}"))?,
                )
            }
            "--json-all" => args.json_all = true,
            "--selfcheck" => args.selfcheck = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `tmpfs` or `disk`, from the mount that holds `dir`.
fn filesystem_kind(dir: &Path) -> &'static str {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let mut best: (usize, &str) = (0, "disk");
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        if let (Some(_), Some(point), Some(fstype)) = (f.next(), f.next(), f.next()) {
            if dir.starts_with(point) && point.len() >= best.0 {
                best = (
                    point.len(),
                    if fstype == "tmpfs" { "tmpfs" } else { "disk" },
                );
            }
        }
    }
    best.1
}

/// `git rev-parse HEAD`, where the working directory is a repository.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Build outputs, spill files and span logs all stay under the build
/// directory, which the checkout ignores.
fn scratch_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("bench_e2e")
}

fn run_workload(args: &Args, workload: &str) -> Result<i32, String> {
    let Some(&(name, default_sf, _)) = WORKLOADS.iter().find(|w| w.0 == workload) else {
        return Err(format!("no such workload: {workload}\n{USAGE}"));
    };
    let sf = args.sf.unwrap_or(default_sf);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let thread_cap = nproc.min(2);
    let threads = if name == "tpch_parallel" {
        thread_cap
    } else {
        1
    };
    xorbits_dataframe::par::set_kernel_threads(threads);
    let pinned = affinity::pin(threads);
    let budget = match args.passes {
        Some(n) => Budget::Passes(n),
        None => Budget::Seconds(args.seconds),
    };
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let spill_dir = scratch.join(format!("spill-{name}-{}", std::process::id()));

    println!(
        "bench_e2e: workload={name} seed={} trace={}",
        args.seed, args.trace as u8
    );
    println!(
        "  conditions: nproc={nproc} thread_cap={thread_cap} threads={threads} pinned_to={pinned:?} sf={sf} budget={} spill_dir={} commit={}",
        match budget {
            Budget::Seconds(s) => format!("{s}s"),
            Budget::Passes(n) => format!("{n}passes"),
        },
        filesystem_kind(&scratch),
        commit()
    );

    // set-up, many times over: the previous build is dropped before the
    // next so that peak memory holds one copy of the tables
    let mut setup_s = f64::INFINITY;
    let mut built = None;
    let setting_up = Instant::now();
    for build in 0..SETUP_BUILDS_MAX {
        if build >= SETUP_BUILDS_MIN && setting_up.elapsed().as_secs_f64() > SETUP_SECONDS {
            break;
        }
        drop(built.take());
        let t = Instant::now();
        let inputs = inputs::build(name, sf, args.seed).map_err(|e| format!("set-up: {e}"))?;
        setup_s = setup_s.min(t.elapsed().as_secs_f64());
        built = Some(inputs);
    }
    let inputs = built.expect("at least one build");

    let wanted: Vec<usize> = if inputs.streams.is_empty() {
        (0..inputs.ops.len()).collect()
    } else {
        inputs.streams.concat()
    };
    let oracle = oracle::Oracle::compute(&inputs, &workloads::engine_config(threads), &wanted)
        .map_err(|e| format!("oracle: {e}"))?;
    let ctx = Ctx {
        workload: name,
        inputs: &inputs,
        oracle: &oracle,
        seed: args.seed,
        budget,
        threads,
        sf,
        setup_s,
        spill_dir,
        spans: args.trace.then(layers::Spans::new),
    };

    let mut report = Report::default();
    let passes = workloads::run(&ctx, &mut report).map_err(|e| format!("{name}: {e}"))?;

    println!(
        "  passes={passes} ops_attempted={} ops_failed={}",
        report.tally.attempted, report.tally.failed
    );
    let tables: &[&[(&str, &str)]] = match (args.json_all, args.trace) {
        (true, _) => &[END_TO_END, PER_LAYER],
        (false, false) => &[END_TO_END],
        (false, true) => &[PER_LAYER],
    };
    report.print_table(&[END_TO_END]);
    if let Some(spans) = &ctx.spans {
        report.print_table(&[PER_LAYER]);
        let path = scratch.join(format!("{name}.trace.json"));
        match std::fs::write(&path, spans.to_json(name)) {
            Ok(()) => println!("  spans -> {}", path.display()),
            Err(e) => eprintln!("  spans: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", report.result_line(tables));
    Ok(report.tally.exit_code())
}

fn main() {
    // every knob is passed by constructor; nothing may leak in from outside
    let knobs: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("XORBITS_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
    if cfg!(debug_assertions) {
        eprintln!("bench_e2e: this is a debug build; run it with --release");
        std::process::exit(2);
    }
    let code = match parse_args() {
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            2
        }
        Ok(args) if args.quick => check::quick(args.seed),
        Ok(args) if args.selfcheck => check::selfcheck(args.seed, args.seconds),
        Ok(args) => match &args.workload {
            None => {
                eprintln!("{USAGE}");
                2
            }
            Some(w) => run_workload(&args, w).unwrap_or_else(|e| {
                eprintln!("bench_e2e: {e}");
                2
            }),
        },
    };
    std::process::exit(code);
}
