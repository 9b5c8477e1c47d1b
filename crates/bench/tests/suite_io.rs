//! The page I/O of the whole figure suite, pinned: every registered
//! experiment run in registry order, summing the modeled I/O of the
//! figures that drive a real generated database (`validate`,
//! `ablation`).

use asr_bench::experiments::registry;
use asr_pagesim::IoSnapshot;

#[test]
fn figure_suite_io_is_pinned() {
    let entries = registry();
    assert_eq!(entries.len(), 16);
    let mut io = IoSnapshot::default();
    for (_, _, run) in entries {
        io.merge(&run().io);
    }
    assert_eq!((io.reads, io.writes, io.buffer_hits), (44_341, 168, 46_292));
}
