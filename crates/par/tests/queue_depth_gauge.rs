//! `par.queue.depth` reads 0 once a fan-out has drained: the gauge is
//! set under the queue lock at every push and at every pop, so the last
//! write after a scope joins is the pop that emptied the queue.
//!
//! This file holds a single test so that it runs in its own process:
//! no other test can be pushing onto the global pool while it reads the
//! gauge.

use rhychee_par::{for_each_mut, Parallelism};
use rhychee_telemetry as telemetry;

#[test]
fn queue_depth_gauge_reads_zero_after_a_fan_out() {
    telemetry::set_enabled(true);
    let mut items = vec![0u64; 64];
    for_each_mut(Parallelism::Fixed(4), &mut items, |i, x| *x = i as u64 * 3);
    telemetry::set_enabled(false);
    assert!(items.iter().enumerate().all(|(i, &x)| x == i as u64 * 3));
    let tasks = telemetry::metrics::global().counter("par.tasks").get();
    assert!(tasks >= 4, "the fan-out went through the pool ({tasks} tasks)");
    let depth = telemetry::metrics::global().gauge("par.queue.depth").get();
    assert_eq!(depth, 0.0, "a drained queue must not report a stale depth");
}
