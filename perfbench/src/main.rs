//! The repository benchmark: drives the threaded OXII cluster through
//! the public `parblockchain` API on seeded workloads, checks the
//! results, and prints every metric with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lowc|highc-xapp|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Standard error carries a readable table; the last line of standard
//! output is the result object (`correct`, `attempted`, `failed`,
//! `metrics`), preceded by a `meta` line recording the seed, core count
//! and source revision. With `--trace 0` the metrics are the end-to-end
//! ones, measured with tracing off; with `--trace 1` they are the
//! per-layer ones from a traced run. The exit code is non-zero when any
//! correctness check fails.

mod alloc;
mod cpu;
mod layers;
mod phases;
mod report;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{Metric, END_TO_END, PER_LAYER};
use workloads::{Scratch, Workload, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Environment variables `ClusterSpec::new` reads. Any of them would
/// silently change what is measured, so the benchmark refuses to run
/// while one is set.
const PINNED_ENV: [&str; 4] = [
    "PARBLOCK_DATA_DIR",
    "PARBLOCK_PIPELINE_DEPTH",
    "PARBLOCK_EXEC_MODE",
    "PARBLOCK_LEGACY_MAILBOXES",
];

/// Where the store measurements keep their data, relative to the
/// working directory; wiped after every use.
const DATA_ROOT: &str = ".bench_data";

struct Args {
    workloads: Vec<Workload>,
    label: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut map = std::collections::BTreeMap::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value.clone());
    }
    let get = |key: &str| map.get(key).ok_or_else(|| format!("--{key} is required"));
    let label = get("workload")?.clone();
    let workloads = if label == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workloads::by_name(&label).ok_or_else(|| format!("unknown workload {label:?}"))?]
    };
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1 to 600".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workloads,
        label,
        seed,
        seconds,
        trace,
    })
}

/// The git revision when run from a clone (read from `.git` directly),
/// `none` otherwise.
fn git_rev() -> String {
    // lint:allow(file-io) — records which revision was measured
    let read = |path: &str| std::fs::read_to_string(Path::new(".git").join(path)).ok();
    let Some(head) = read("HEAD") else {
        return "none".into();
    };
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return head.trim().to_string();
    };
    read(reference)
        .or_else(|| {
            let packed = read("packed-refs")?;
            let line = packed.lines().find(|l| l.ends_with(reference))?;
            line.split_whitespace().next().map(str::to_string)
        })
        .map_or_else(|| "unknown".into(), |rev| rev.trim().to_string())
}

/// SHA-256 over the measured program's sources (path and contents of
/// every file under `crates/` and the root manifests, in path order):
/// the revision of a checkout that is not a git clone.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        // lint:allow(file-io) — hashes the measured sources to identify them
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in files {
        // lint:allow(file-io) — hashes the measured sources to identify them
        if let Ok(content) = std::fs::read(&file) {
            bytes.extend_from_slice(file.to_string_lossy().as_bytes());
            bytes.push(0);
            bytes.extend_from_slice(&content);
        }
    }
    parblock_crypto::sha256(&bytes).to_hex()
}

/// Runs `f` and returns its result with the wall time it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    // lint:allow(wall-clock) — the benchmark measures real elapsed time
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// One workload, untraced or traced. Returns its metrics.
fn run_workload(
    w: &Workload,
    args: &Args,
    scratch: &mut Scratch,
    gate: &mut phases::Gate,
) -> Vec<Metric> {
    let plan = phases::Plan::new(w, args.seconds);
    eprintln!(
        "[{}] seed {} | latency: {} × {:.1} s at {} tx/s | capacity: {} × {} tx backlog",
        w.name,
        args.seed,
        plan.segments,
        plan.segment.as_secs_f64(),
        w.rate_tps,
        plan.reps,
        plan.backlog
    );
    let mark = gate.mark();
    let setup_s = if args.trace {
        None
    } else {
        Some(phases::setup(w, args.seed, &plan, gate))
    };
    let e2e = phases::end_to_end(w, args.seed, &plan, gate);
    match setup_s {
        Some(setup_s) => vec![
            Metric::new("setup_s", setup_s),
            Metric::new("commit_p50_ms", e2e.p50_ms),
            Metric::new("commit_p99_ms", e2e.p99_ms),
            Metric::new("peak_tps", e2e.peak_tps),
            Metric::new("cpu_us_per_tx", e2e.cpu_us_per_tx),
        ],
        None => {
            let uncommitted_frac = gate.uncommitted_frac_since(mark);
            phases::traced(w, args.seed, &plan, &e2e, uncommitted_frac, scratch, gate)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set: Vec<&str> = PINNED_ENV
        .iter()
        .copied()
        .filter(|var| std::env::var_os(var).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: it changes the measured cluster",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "{}",
        report::meta_json(&[
            ("workload", args.label.clone()),
            ("seed", args.seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", u8::from(args.trace).to_string()),
            ("nproc", nproc.to_string()),
            ("git_rev", git_rev()),
            ("src_sha256", source_digest()),
        ])
    );

    let mut scratch =
        Scratch::new(PathBuf::from(DATA_ROOT).join(format!("run-{}", std::process::id())));
    let mut gate = phases::Gate::default();
    let expected = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut all = Vec::new();
    for w in &args.workloads {
        let metrics = run_workload(w, &args, &mut scratch, &mut gate);
        if let Err(e) = report::check_complete(&metrics, expected) {
            gate.violations.push(format!("{}: {e}", w.name));
        }
        eprint!("{}", report::table(w.name, &metrics));
        if args.workloads.len() == 1 {
            all = metrics;
        } else {
            let prefix = |m: Metric| Metric {
                name: format!("{}.{}", w.name, m.name),
                ..m
            };
            all.extend(metrics.into_iter().map(prefix));
        }
    }
    drop(scratch);
    // lint:allow(file-io) — removes the scratch root; fails, harmlessly,
    // while another run still uses it
    let _ = std::fs::remove_dir(DATA_ROOT);

    for v in &gate.violations {
        eprintln!("perfbench: CORRECTNESS VIOLATION: {v}");
    }
    let correct = gate.violations.is_empty();
    println!(
        "{}",
        report::result_json(correct, gate.attempted, gate.failed, &all)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
