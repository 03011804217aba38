//! Stand-alone layer probes of the traced run: public functions of one layer,
//! called alone and timed from here.

use crate::sys;
use linrv_core::view::{InvocationPair, View};
use linrv_history::{OpId, ProcessId};
use linrv_snapshot::{AfekSnapshot, DoubleCollectSnapshot, LockedSnapshot, Snapshot};
use linrv_spec::ops;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Entries of the probed snapshots: the `n` of the long workloads.
const ENTRIES: usize = 4;
/// Writes (and scans) timed per backend.
const SNAPSHOT_CALLS: usize = 2000;

/// A view of `len` invocation pairs, as the DRV wrapper would publish it.
fn view_of(len: usize) -> View {
    (0..len)
        .map(|i| InvocationPair {
            process: ProcessId::new((i % ENTRIES) as u32),
            op_id: OpId::new(i as u64),
            operation: if i % 2 == 0 {
                ops::queue::enqueue(i as i64)
            } else {
                ops::queue::dequeue()
            },
        })
        .collect()
}

/// Mean nanoseconds of one write and one scan, over [`SNAPSHOT_CALLS`] calls
/// each, single-threaded, payloads cloned before the clock starts.
fn write_scan_ns(snapshot: &dyn Snapshot<View>, payload: &View) -> (f64, f64) {
    let payloads: Vec<View> = (0..SNAPSHOT_CALLS).map(|_| payload.clone()).collect();
    let start = Instant::now();
    for (i, value) in payloads.into_iter().enumerate() {
        snapshot.write(i % ENTRIES, value);
    }
    let write_ns = start.elapsed().as_nanos() as f64 / SNAPSHOT_CALLS as f64;
    let start = Instant::now();
    for i in 0..SNAPSHOT_CALLS {
        black_box(snapshot.scan(i % ENTRIES));
    }
    let scan_ns = start.elapsed().as_nanos() as f64 / SNAPSHOT_CALLS as f64;
    (write_ns, scan_ns)
}

/// `snapshot.<backend>.{write,scan}_ns` with a view of `view_len` pairs as
/// payload, and `snapshot.afek.retained_bytes_per_write`.
pub fn snapshot_backends(view_len: usize, layers: &mut BTreeMap<String, f64>) {
    let payload = view_of(view_len.max(1));
    let backends: [(&str, Box<dyn Snapshot<View>>); 3] = [
        ("afek", Box::new(AfekSnapshot::new(ENTRIES, View::new()))),
        (
            "double-collect",
            Box::new(DoubleCollectSnapshot::new(ENTRIES, View::new())),
        ),
        (
            "locked",
            Box::new(LockedSnapshot::new(ENTRIES, View::new())),
        ),
    ];
    for (backend, snapshot) in backends {
        let (write_ns, scan_ns) = write_scan_ns(&*snapshot, &payload);
        layers.insert(format!("snapshot.{backend}.write_ns"), write_ns);
        layers.insert(format!("snapshot.{backend}.scan_ns"), scan_ns);
    }
    // The passes above left the heap warm: whatever they freed is there to be
    // reused. One more identical pass therefore grows the resident set only
    // by what such a pass never gives back.
    let before = sys::rss_kb();
    let snapshot = AfekSnapshot::new(ENTRIES, View::new());
    write_scan_ns(&snapshot, &payload);
    drop(snapshot);
    let retained = sys::rss_kb().saturating_sub(before) as f64 * 1024.0 / SNAPSHOT_CALLS as f64;
    layers.insert("snapshot.afek.retained_bytes_per_write".into(), retained);
}

/// `obs.record_ns` (one histogram record with recording on) and
/// `obs.disabled_ns` (one span start + drop with recording off).
pub fn obs(layers: &mut BTreeMap<String, f64>) {
    const CALLS: u64 = 200_000;
    let histogram = linrv_obs::Histogram::standalone();
    let was = linrv_obs::enabled();
    linrv_obs::set_enabled(true);
    let start = Instant::now();
    for i in 0..CALLS {
        histogram.record(black_box(i));
    }
    let record_ns = start.elapsed().as_nanos() as f64 / CALLS as f64;
    linrv_obs::set_enabled(false);
    let start = Instant::now();
    for _ in 0..CALLS {
        drop(black_box(linrv_obs::Span::start(&histogram)));
    }
    let disabled_ns = start.elapsed().as_nanos() as f64 / CALLS as f64;
    linrv_obs::set_enabled(was);
    layers.insert("obs.record_ns".into(), record_ns);
    layers.insert("obs.disabled_ns".into(), disabled_ns);
}
