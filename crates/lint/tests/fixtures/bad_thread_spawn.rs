//@ path: crates/core/src/fixture_spawn.rs
// Known-bad: threads spawned outside the network engine escape the
// deterministic simulation harness.
fn work() {}

pub fn run_detached() {
    std::thread::spawn(work); //~ thread-spawn
}

pub fn run_named() -> std::io::Result<()> {
    let handle = std::thread::Builder::new() //~ thread-spawn
        .name("worker".into())
        .spawn(work)?;
    drop(handle);
    Ok(())
}
