//@ path: crates/network/src/engine.rs
// Known-good: the network engine (its delivery workers) is the one
// sanctioned home of thread spawns.
fn work() {}

pub fn spawn_worker() {
    std::thread::spawn(work);
}
