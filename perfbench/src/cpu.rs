//! CPU time from `/proc`: the whole process, the calling thread, and a
//! sampler that attributes the cluster's threads to roles by name.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `USER_HZ`: the unit of the `utime`/`stime` fields, 100 on every
/// Linux ABI this runs on.
const TICKS_PER_S: f64 = 100.0;

/// How often the sampler re-reads every thread. A thread's CPU after
/// its last sample is lost when it exits; cluster threads idle through
/// the run's drain period before they exit, so little is lost.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// Name of the sampler's own thread (its CPU is attributed to no role).
const SAMPLER_NAME: &str = "perfbench-cpu";

/// `(comm, utime + stime in ticks)` of one `/proc/.../stat` file.
fn parse_stat(text: &str) -> Option<(String, u64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text.get(open + 1..close)?.to_string();
    let fields: Vec<&str> = text.get(close + 1..)?.split_whitespace().collect();
    // After the `)`: state is field 3 of stat(5), utime 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((comm, utime + stime))
}

fn read_stat(path: &str) -> Option<(String, u64)> {
    // lint:allow(file-io) — CPU accounting reads /proc, never the store
    parse_stat(&std::fs::read_to_string(path).ok()?)
}

/// CPU seconds of the whole process, exited threads included.
pub fn process_s() -> f64 {
    read_stat("/proc/self/stat").map_or(0.0, |(_, t)| t as f64 / TICKS_PER_S)
}

/// CPU seconds of the calling thread.
pub fn thread_s() -> f64 {
    read_stat("/proc/thread-self/stat").map_or(0.0, |(_, t)| t as f64 / TICKS_PER_S)
}

/// The role a thread's name gives it (`None` for threads that belong
/// to no cluster layer: the driver and the sampler).
pub fn role(comm: &str) -> Option<&'static str> {
    const ROLES: [(&str, &str); 4] = [
        ("orderer-", "orderer"),
        ("executor-", "executor"),
        ("exec-worker-", "pool"),
        ("simnet-delivery", "network"),
    ];
    ROLES
        .iter()
        .find(|(prefix, _)| comm.starts_with(prefix))
        .map(|&(_, role)| role)
}

/// Samples every thread of the process until stopped, keeping each
/// thread's last reading.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<BTreeMap<u64, (String, u64)>>,
}

fn thread_ids() -> Vec<u64> {
    // lint:allow(file-io) — CPU accounting reads /proc, never the store
    std::fs::read_dir("/proc/self/task")
        .map(|dir| {
            dir.flatten()
                .filter_map(|entry| entry.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

fn sample_into(seen: &mut BTreeMap<u64, (String, u64)>, baseline: &BTreeSet<u64>) {
    for tid in thread_ids() {
        if baseline.contains(&tid) {
            continue;
        }
        if let Some(reading) = read_stat(&format!("/proc/self/task/{tid}/stat")) {
            seen.insert(tid, reading);
        }
    }
}

impl Sampler {
    /// Starts sampling. Threads alive now (the driver) are excluded.
    pub fn start() -> Sampler {
        let baseline: BTreeSet<u64> = thread_ids().into_iter().collect();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        // lint:allow(thread-spawn) — the sampler watches the cluster from
        // outside it, and is joined by `finish`
        let handle = std::thread::Builder::new()
            .name(SAMPLER_NAME.into())
            .spawn(move || {
                let mut seen = BTreeMap::new();
                // The stop flag only ends the loop; it publishes no data.
                while !flag.load(Ordering::Relaxed) {
                    sample_into(&mut seen, &baseline);
                    std::thread::sleep(SAMPLE_EVERY);
                }
                sample_into(&mut seen, &baseline);
                seen
            })
            .expect("spawn the CPU sampler thread");
        Sampler { stop, handle }
    }

    /// Stops sampling and returns CPU seconds per role.
    pub fn finish(self) -> BTreeMap<&'static str, f64> {
        self.stop.store(true, Ordering::Relaxed);
        let seen = self.handle.join().expect("the CPU sampler thread panicked");
        let mut by_role = BTreeMap::new();
        for (comm, ticks) in seen.values() {
            if let Some(role) = role(comm) {
                *by_role.entry(role).or_insert(0.0) += *ticks as f64 / TICKS_PER_S;
            }
        }
        by_role
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_and_parens_in_the_name() {
        let line = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 250 17 0 0 20 0 1 0";
        assert_eq!(parse_stat(line), Some(("a (b) c".to_string(), 267)));
    }

    #[test]
    fn the_process_includes_the_calling_thread() {
        let thread = thread_s();
        let process = process_s();
        assert!(process >= thread, "{process} < {thread}");
    }

    #[test]
    fn roles_follow_thread_names() {
        assert_eq!(role("orderer-n0"), Some("orderer"));
        assert_eq!(role("executor-n3"), Some("executor"));
        assert_eq!(role("exec-worker-15"), Some("pool"));
        assert_eq!(role("simnet-delivery"), Some("network"));
        assert_eq!(role("perfbench"), None);
        assert_eq!(role(SAMPLER_NAME), None);
    }
}
