//! The timed phases of one workload run: set-up, the open-loop latency
//! phase, the backlog-drain capacity phase, and the traced run.

use std::collections::HashSet;
use std::time::Duration;

use parblock_sim::{check_convergence, check_exactly_once, check_serializability, serial_replay};
use parblock_types::ArrivalProcess;
use parblock_workload::{ArrivalGen, WorkloadGen};
use parblockchain::{
    run, run_fixed, run_sim, ClusterSpec, LoadSpec, RunReport, SimConfig, SimOutcome, Stage,
    TraceConfig, TraceReport,
};

use crate::report::{median, Metric};
use crate::workloads::{Scratch, Workload, BLOCK_TXS};
use crate::{alloc, cpu, layers, timed};

/// Offered rate of a backlog: every transaction is due at once.
const BACKLOG_RATE_TPS: f64 = 1e9;

/// Longest a capacity repetition may take to commit its backlog.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// Blocks in the deterministic run behind the layer pass and the
/// allocation counts.
const SIM_BLOCKS: usize = 50;

/// Largest relative difference allowed between the allocation counts
/// of two same-seed deterministic runs. Everything else those runs
/// produce repeats exactly, but std's `HashMap` draws fresh hash keys
/// per map, and whether a table full of tombstones rehashes in place or
/// grows into a new allocation depends on them: a few allocations in a
/// million differ between runs.
const ALLOC_DRIFT: f64 = 1e-4;

/// Grace period after the on-disk segment's last arrival.
const DISK_DRAIN: Duration = Duration::from_secs(2);

/// Fewest latency samples per segment: p99 then has at least ten
/// samples beyond it.
const MIN_SAMPLES: u64 = 1_000;

/// How a run of `seconds` is spent.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Set-ups timed for `setup_s` (the median is reported).
    pub setups: usize,
    /// Latency-phase segments, each on a fresh cluster.
    pub segments: usize,
    /// Length of each segment's arrival schedule, warm-up included.
    pub segment: Duration,
    /// Leading span of each segment left out of the samples.
    pub warmup: Duration,
    /// Grace period after the last arrival.
    pub drain: Duration,
    /// Capacity-phase repetitions, each on a fresh cluster.
    pub reps: usize,
    /// Transactions in each repetition's backlog.
    pub backlog: usize,
}

impl Plan {
    /// Gives the latency phase about 45 % of `seconds` and the capacity
    /// phase about 40 %. Both report medians over many short runs on
    /// fresh clusters: on a small shared host one long run is at the
    /// mercy of whatever else the host does meanwhile.
    pub fn new(w: &Workload, seconds: u64) -> Plan {
        let seconds = seconds as f64;
        let segments = 8;
        let warmup = Duration::from_millis(300);
        let measured = (0.45 * seconds / segments as f64).max(1.0);
        let reps = 7;
        let blocks = w.nominal_peak_tps * 0.4 * seconds / reps as f64 / BLOCK_TXS as f64;
        Plan {
            setups: 9,
            segments,
            segment: Duration::from_secs_f64(measured) + warmup,
            warmup,
            drain: Duration::from_millis(300),
            reps,
            backlog: (blocks.round() as usize).max(10) * BLOCK_TXS,
        }
    }
}

/// Submissions and failures across phases, and every correctness
/// violation seen.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    /// Counts a run's submissions and checks its accounting: OXII
    /// aborts nothing, and every arrival of the schedule was submitted
    /// or shed and then committed or counted as failed.
    fn account(&mut self, phase: &str, report: &RunReport, scheduled: u64) {
        self.attempted += report.submitted + report.admission_shed;
        self.failed += report.aborted + report.outstanding + report.admission_shed;
        self.check(report.aborted == 0, || {
            format!("{phase}: OXII aborted {} transactions", report.aborted)
        });
        self.check(
            report.submitted + report.admission_shed == scheduled,
            || {
                format!(
                    "{phase}: {} submitted + {} shed of {scheduled} scheduled arrivals",
                    report.submitted, report.admission_shed
                )
            },
        );
        self.check(
            report.committed + report.aborted + report.outstanding == report.submitted,
            || {
                format!(
                    "{phase}: {} committed + {} aborted + {} outstanding != {} submitted",
                    report.committed, report.aborted, report.outstanding, report.submitted
                )
            },
        );
    }

    /// The current `(attempted, failed)` counts.
    pub fn mark(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    /// The failure share since `mark`: uncommitted ÷ attempted.
    pub fn uncommitted_frac_since(&self, (attempted, failed): (u64, u64)) -> f64 {
        (self.failed - failed) as f64 / (self.attempted - attempted).max(1) as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Builds the spec, generates the arrival schedule and transaction
/// stream of one latency segment, and commits a warm-up block on a
/// fresh cluster: the work before a run's first timed arrival. Returns
/// the median wall time of `plan.setups` set-ups.
pub fn setup(w: &Workload, seed: u64, plan: &Plan, gate: &mut Gate) -> f64 {
    let mut times = Vec::with_capacity(plan.setups);
    for _ in 0..plan.setups {
        let ((txs, warm), took) = timed(|| {
            let spec = w.spec(seed);
            let arrivals = ArrivalGen::new(ArrivalProcess::Uniform, w.rate_tps, seed)
                .take_until(plan.segment)
                .len();
            let txs = WorkloadGen::new(spec.workload_config()).take_txs(arrivals);
            let warm = run_fixed(&spec, BLOCK_TXS, BACKLOG_RATE_TPS, DRAIN_TIMEOUT);
            (txs, warm)
        });
        times.push(took.as_secs_f64());
        let distinct: HashSet<_> = txs.iter().map(|tx| tx.id()).collect();
        gate.check(distinct.len() == txs.len(), || {
            format!(
                "setup: {} transaction ids for {} inputs",
                distinct.len(),
                txs.len()
            )
        });
        gate.check(
            warm.committed == BLOCK_TXS as u64 && warm.aborted == 0,
            || {
                format!(
                    "setup: warm-up block committed {} of {BLOCK_TXS}",
                    warm.committed
                )
            },
        );
    }
    median(&times)
}

/// One latency segment's outcome.
struct Segment {
    report: RunReport,
    /// CPU seconds of every thread but the driver.
    cluster_cpu_s: f64,
    /// CPU seconds of the driver (this) thread.
    driver_cpu_s: f64,
}

/// Runs one open-loop segment at `rate_tps` on a fresh cluster;
/// latency is timed from each intended arrival.
fn latency_segment(
    spec: &ClusterSpec,
    rate_tps: f64,
    plan: &Plan,
    gate: &mut Gate,
    phase: &str,
) -> Segment {
    let load = LoadSpec {
        rate_tps,
        duration: plan.segment,
        drain: plan.drain,
        warmup: plan.warmup,
        arrival: ArrivalProcess::Uniform,
        ..LoadSpec::default()
    };
    let scheduled = ArrivalGen::new(load.arrival, rate_tps, spec.seed)
        .take_until(load.duration)
        .len() as u64;
    let (p0, d0) = (cpu::process_s(), cpu::thread_s());
    let report = run(spec, &load);
    let (p1, d1) = (cpu::process_s(), cpu::thread_s());
    gate.account(phase, &report, scheduled);
    gate.check(report.measured_committed >= MIN_SAMPLES, || {
        format!(
            "{phase}: {} latency samples, fewer than {MIN_SAMPLES}",
            report.measured_committed
        )
    });
    gate.check(report.latency_overflow == 0, || {
        format!("{phase}: more samples than the exact latency buffer holds")
    });
    Segment {
        report,
        cluster_cpu_s: (p1 - p0) - (d1 - d0),
        driver_cpu_s: d1 - d0,
    }
}

/// Submits a backlog at once and times first submit → last commit.
fn capacity_rep(spec: &ClusterSpec, plan: &Plan, gate: &mut Gate, phase: &str) -> RunReport {
    let report = run_fixed(spec, plan.backlog, BACKLOG_RATE_TPS, DRAIN_TIMEOUT);
    gate.account(phase, &report, plan.backlog as u64);
    gate.check(report.committed == plan.backlog as u64, || {
        format!(
            "{phase}: committed {} of a {} backlog",
            report.committed, plan.backlog
        )
    });
    report
}

/// The untraced end-to-end figures: medians over latency segments of
/// p50, p99 and non-driver CPU per committed transaction, and the
/// median drain throughput over capacity repetitions.
pub struct EndToEnd {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub cpu_us_per_tx: f64,
    pub peak_tps: f64,
}

/// Runs the latency segments and capacity repetitions alternately, each
/// on a fresh cluster, so that drift in the host's speed during a run
/// reaches both phases alike; the medians keep one segment's stall out
/// of the figures.
pub fn end_to_end(w: &Workload, seed: u64, plan: &Plan, gate: &mut Gate) -> EndToEnd {
    let (mut p50, mut p99, mut cpu, mut tps) = (vec![], vec![], vec![], vec![]);
    let spec = w.spec(seed);
    for i in 0..plan.segments.max(plan.reps) {
        if i < plan.segments {
            let s = latency_segment(
                &spec,
                w.rate_tps,
                plan,
                gate,
                &format!("latency segment {i}"),
            );
            let r = &s.report;
            p50.push(ms(r.latency_percentile(0.5)));
            p99.push(ms(r.latency_percentile(0.99)));
            cpu.push(s.cluster_cpu_s * 1e6 / r.committed.max(1) as f64);
            eprintln!(
                "  latency segment {i}: {} samples, p50 {:.3} ms, p99 {:.3} ms, \
                 {:.1} us CPU/tx, driver {} overruns (max lag {:.1} ms)",
                r.measured_committed,
                p50[i],
                p99[i],
                cpu[i],
                r.driver_overruns,
                ms(r.driver_max_lag)
            );
        }
        if i < plan.reps {
            let r = capacity_rep(&spec, plan, gate, &format!("capacity rep {i}"));
            tps.push(r.throughput_tps());
            eprintln!(
                "  capacity rep {i}: {:.1} tx/s over {:.3} s",
                tps[i],
                r.window.as_secs_f64()
            );
        }
    }
    EndToEnd {
        p50_ms: median(&p50),
        p99_ms: median(&p99),
        cpu_us_per_tx: median(&cpu),
        peak_tps: median(&tps),
    }
}

/// A percentile in µs of the gap between two stages (a histogram of
/// nanoseconds); `to = None` takes whichever stage was recorded next.
fn gap_us(trace: &TraceReport, from: Stage, to: Option<Stage>, p: f64) -> Option<f64> {
    let pair = trace
        .pairs
        .iter()
        .find(|pair| pair.from == from && to.is_none_or(|to| pair.to == to))?;
    Some(pair.hist.percentile(p) as f64 / 1e3)
}

fn metric_or_na(name: &str, value: Option<f64>) -> Metric {
    value.map_or_else(|| Metric::na(name), |v| Metric::new(name, v))
}

/// The deterministic run behind the layer pass and the allocation
/// counts. The serial-replay, convergence and exactly-once oracles must
/// pass, and a second run must reproduce the message count and run
/// report exactly and the allocation counts within [`ALLOC_DRIFT`].
/// Returns `(outcome, allocations, bytes)`.
fn sim(w: &Workload, seed: u64, gate: &mut Gate) -> (SimOutcome, u64, u64) {
    let spec = w.spec(seed);
    let count = SIM_BLOCKS * BLOCK_TXS;
    let config = SimConfig::new(spec.clone(), count, w.rate_tps);
    let (outcome, allocs, bytes) = alloc::count(|| run_sim(&config));
    let (again, allocs_again, bytes_again) = alloc::count(|| run_sim(&config));
    let drift = |a: u64, b: u64| a.abs_diff(b) as f64 / a.max(1) as f64;
    gate.check(
        drift(allocs, allocs_again) <= ALLOC_DRIFT && drift(bytes, bytes_again) <= ALLOC_DRIFT,
        || {
            format!(
                "sim: allocations not reproduced ({allocs} / {bytes} B, then \
                 {allocs_again} / {bytes_again} B)"
            )
        },
    );
    gate.check(outcome.report.messages == again.report.messages, || {
        format!(
            "sim: messages not reproduced ({} then {})",
            outcome.report.messages, again.report.messages
        )
    });
    gate.check(outcome.report.digest() == again.report.digest(), || {
        "sim: run report not reproduced".to_string()
    });

    let genesis = WorkloadGen::new(spec.workload_config()).genesis();
    let replay = serial_replay(&outcome.observer_chain, &genesis, &spec.registry());
    gate.check(outcome.completed, || "sim: did not drain".to_string());
    gate.check(
        outcome.report.committed == count as u64
            && outcome.report.aborted == 0
            && replay.aborted == 0,
        || {
            format!(
                "sim: committed {} aborted {} (replay aborted {}) of {count}",
                outcome.report.committed, outcome.report.aborted, replay.aborted
            )
        },
    );
    for (oracle, verdict) in [
        (
            "serial-replay",
            check_serializability(&spec, &outcome, &replay),
        ),
        ("convergence", check_convergence(&outcome, &replay)),
        ("exactly-once", check_exactly_once(&outcome)),
    ] {
        if let Err(e) = verdict {
            gate.violations.push(format!("sim {oracle} oracle: {e}"));
        }
    }
    (outcome, allocs, bytes)
}

/// The store layer inside the cluster: a traced segment with every
/// node persisting the workload's inputs (WAL, fsync, checkpoints).
fn store_in_cluster(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    scratch: &mut Scratch,
    gate: &mut Gate,
) -> Vec<Metric> {
    const NAMES: [&str; 4] = [
        "store.commit_p50_ms",
        "store.fsyncs_per_block",
        "store.wal_bytes_per_tx",
        "store.durable_p50_us",
    ];
    let Some(rate) = w.disk_rate_tps else {
        return NAMES.iter().map(|name| Metric::na(name)).collect();
    };
    let dir = scratch.dir();
    let mut spec = dir.on_disk(w.spec(seed));
    spec.trace = TraceConfig::on();
    // Host fsync stalls of a few hundred milliseconds occur; the longer
    // drain lets the last arrivals commit rather than count as failed.
    let plan = Plan {
        drain: DISK_DRAIN,
        ..*plan
    };
    let r = latency_segment(&spec, rate, &plan, gate, "on-disk latency segment").report;
    vec![
        Metric::new(NAMES[0], ms(r.latency_percentile(0.5))),
        Metric::new(NAMES[1], r.fsync_count as f64 / r.blocks.max(1) as f64),
        Metric::new(
            NAMES[2],
            r.wal_bytes_written as f64 / r.committed.max(1) as f64,
        ),
        metric_or_na(
            NAMES[3],
            gap_us(&r.trace, Stage::Committed, Some(Stage::Durable), 0.5),
        ),
    ]
}

/// The traced run: one latency segment (with the per-thread CPU
/// sampler) and one capacity repetition with lifecycle tracing on, the
/// on-disk segment, the deterministic run with allocation counting,
/// and the layer pass over that run's blocks. `base` holds this run's
/// untraced figures, and `uncommitted_frac` their failure share.
pub fn traced(
    w: &Workload,
    seed: u64,
    plan: &Plan,
    base: &EndToEnd,
    uncommitted_frac: f64,
    scratch: &mut Scratch,
    gate: &mut Gate,
) -> Vec<Metric> {
    let mut spec = w.spec(seed);
    spec.trace = TraceConfig::on();
    let sampler = cpu::Sampler::start();
    let seg = latency_segment(&spec, w.rate_tps, plan, gate, "traced latency segment");
    let roles = sampler.finish();
    let r = &seg.report;
    let per_tx =
        |role: &str| roles.get(role).copied().unwrap_or(0.0) * 1e6 / r.committed.max(1) as f64;
    let traced_peak = capacity_rep(&spec, plan, gate, "traced capacity rep").throughput_tps();
    let store = store_in_cluster(w, seed, plan, scratch, gate);

    let (outcome, allocs, bytes) = sim(w, seed, gate);
    let sim_txs = outcome.submitted.len().max(1) as f64;
    let genesis = WorkloadGen::new(spec.workload_config()).genesis();
    let store_dir = w.disk_rate_tps.map(|_| scratch.dir());
    let pass = layers::run(
        &spec,
        &outcome.observer_chain,
        &genesis,
        store_dir.as_ref().map(|d| d.path()),
    )
    .unwrap_or_else(|e| {
        gate.violations.push(format!("layer pass: {e}"));
        layers::LayerPass::default()
    });
    drop(store_dir);
    let ceiling = layers::ceiling_tps(&spec, pass.txs, pass.critical_path_sum);

    let (depth_sum, starts) = r
        .pipeline_occupancy
        .iter()
        .enumerate()
        .fold((0, 0), |(sum, n), (depth, &c)| {
            (sum + depth as u64 * c, n + c)
        });
    let p50_traced = ms(r.latency_percentile(0.5));
    let t = &r.trace;
    let gap = |from, to, p| gap_us(t, from, Some(to), p);
    let mut metrics = vec![
        Metric::new("driver.cpu_s", seg.driver_cpu_s),
        Metric::new(
            "driver.cpu_share",
            seg.driver_cpu_s / (seg.driver_cpu_s + seg.cluster_cpu_s).max(f64::MIN_POSITIVE),
        ),
        Metric::new("driver.max_lag_ms", ms(r.driver_max_lag)),
        Metric::new("driver.overruns", r.driver_overruns as f64),
        Metric::new("orderer.cpu_us_per_tx", per_tx("orderer")),
        metric_or_na(
            "orderer.sequence_p50_us",
            gap(Stage::Submitted, Stage::Sequenced, 0.5),
        ),
        metric_or_na(
            "orderer.sequence_p99_us",
            gap(Stage::Submitted, Stage::Sequenced, 0.99),
        ),
        metric_or_na(
            "cutter.cut_wait_p50_us",
            gap(Stage::Sequenced, Stage::Cut, 0.5),
        ),
        metric_or_na(
            "sched.cut_to_ready_p50_us",
            gap(Stage::Cut, Stage::GraphReady, 0.5),
        ),
        metric_or_na(
            "sched.cut_to_ready_p99_us",
            gap(Stage::Cut, Stage::GraphReady, 0.99),
        ),
        metric_or_na(
            "sched.ready_to_dispatch_p50_us",
            gap(Stage::GraphReady, Stage::Dispatched, 0.5),
        ),
        Metric::new(
            "sched.pipeline_occupancy_mean",
            depth_sum as f64 / starts.max(1) as f64,
        ),
        Metric::new("sched.boundary_stall_ms", ms(r.boundary_stall)),
        Metric::new("executor.cpu_us_per_tx", per_tx("executor")),
        Metric::new("pool.cpu_us_per_tx", per_tx("pool")),
        metric_or_na(
            "executor.exec_p50_us",
            gap(Stage::Dispatched, Stage::Executed, 0.5),
        ),
        // The next recorded stage: committed under the pessimistic
        // engine, validated under the optimistic one.
        metric_or_na(
            "executor.commit_wait_p50_us",
            gap_us(t, Stage::Executed, None, 0.5),
        ),
        Metric::new(
            "executor.useful_ratio",
            r.committed as f64 / (r.committed + r.re_executions).max(1) as f64,
        ),
        Metric::new("network.cpu_us_per_tx", per_tx("network")),
        Metric::new(
            "network.msgs_per_tx",
            outcome.report.messages as f64 / sim_txs,
        ),
        Metric::new("alloc.per_tx", allocs as f64 / sim_txs),
        Metric::new("alloc.bytes_per_tx", bytes as f64 / sim_txs),
        Metric::new("capacity.peak_tps", base.peak_tps),
        metric_or_na("model.ceiling_tps", ceiling),
        metric_or_na("model.efficiency", ceiling.map(|c| base.peak_tps / c)),
        Metric::new(
            "trace.overhead_frac",
            ((p50_traced / base.p50_ms - 1.0) + (base.peak_tps / traced_peak - 1.0)) / 2.0,
        ),
        Metric::new("uncommitted_frac", uncommitted_frac),
    ];
    metrics.extend(store);
    metrics.extend(pass.metrics);
    metrics
}
