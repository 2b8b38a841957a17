//! An idle pool parks: the bounded spin must never become a busy loop.
//!
//! Alone in its binary because it reads the CPU time of the whole process,
//! which any test running beside it would add to.

#[cfg(target_os = "linux")]
#[test]
fn idle_pool_uses_no_cpu() {
    use std::time::Duration;

    /// utime + stime of this process, in clock ticks (`man 5 proc`, fields
    /// 14 and 15 of `/proc/self/stat`; counted from the `)` that ends the
    /// command name, which may itself hold spaces).
    fn cpu_ticks() -> u64 {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat");
        let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
        let mut fields = after_comm.split_whitespace().skip(11);
        let mut tick = || fields.next().expect("utime, stime").parse::<u64>().expect("ticks");
        tick() + tick()
    }
    // USER_HZ, the unit of those fields, is 100 on every Linux ABI: 10 ms.
    const TICK_MS: u64 = 10;

    let pool = legw_parallel::ThreadPool::new(4);
    let sum = std::sync::atomic::AtomicUsize::new(0);
    pool.run(64, |i| {
        sum.fetch_add(i, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(sum.into_inner(), 64 * 63 / 2);

    // Ten times the 200 µs spin bound, and then some for a loaded box.
    std::thread::sleep(Duration::from_millis(20));
    let before = cpu_ticks();
    std::thread::sleep(Duration::from_millis(200));
    let spent_ms = (cpu_ticks() - before) * TICK_MS;
    // Three workers spinning would have burnt 600 ms.
    assert!(spent_ms < 20, "idle pool used {spent_ms} ms of CPU in 200 ms");
    drop(pool);
}
