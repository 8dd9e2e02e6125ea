//! Machine-speed calibration.
//!
//! The reference box is a shared 2-vCPU VM. Neighbours slow it in phases of
//! a fraction of a second to ten seconds: cache-resident code by up to 1.5
//! times, memory-bound code by more than 2 times — more than any bound the
//! benchmark could set. So a measured phase stops about every 40 ms to time
//! a fixed kernel, and every wall-clock duration is divided by the speed
//! factor the probes on either side of it read: reported times are what the
//! work would have taken at the reference speed. Request paths and set-up
//! are calibrated by a cache-resident kernel. A restart rebuilds every table,
//! which is memory-bound when the log is long and cache-resident when it is
//! short, so it is calibrated by the geometric mean of that kernel and a
//! memory-bound one: in calibration runs on a noisy box each kernel alone
//! left one workload's restart time swinging by a quarter, their mean none by
//! more than a sixth. The raw timings stay in the result file. The kernels
//! use only `std`, never the code under test, so no change to the program can
//! move them.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Time of [`request_kernel`] on the reference box in a quiet phase, ns.
const REQUEST_NOMINAL_NS: f64 = 3_300_000.0;
/// Time of [`memory_kernel`] on the reference box in a quiet phase, ns.
const MEMORY_NOMINAL_NS: f64 = 8_600_000.0;

/// The instruction mix of the request path — small allocations, string
/// formatting, ordered and hashed maps with string keys, buffer copies — on
/// a working set that stays in cache.
fn request_kernel() -> u64 {
    let mut ordered: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut hashed: HashMap<String, u64> = HashMap::new();
    let mut text = String::new();
    let mut sum = 0u64;
    for i in 0..12_000u64 {
        let key = format!("uid:{}", i % 211);
        text.clear();
        let _ = write!(
            text,
            "SELECT balance FROM account WHERE userid = '{key}' AND seq = {i}"
        );
        let row = text.as_bytes().to_vec();
        sum += row.iter().map(|&b| u64::from(b)).sum::<u64>();
        *hashed.entry(key.clone()).or_insert(0) += row.len() as u64;
        if let Some(old) = ordered.insert(key, row) {
            sum += old.len() as u64;
        }
        if i % 3 == 0 {
            let probe = format!("uid:{}", (i * 7) % 211);
            sum += ordered.get(&probe).map_or(0, |v| v.len() as u64);
            sum += hashed.get(&probe).copied().unwrap_or(0);
        }
    }
    sum + ordered.len() as u64 + hashed.len() as u64
}

/// What a restart does — build a tree of rows in key order of arrival, then
/// look rows up all over it — on a working set of a few megabytes.
fn memory_kernel() -> u64 {
    let mut rows: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..30_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        rows.insert(x, vec![i as u8; 96]);
    }
    let keys: Vec<u64> = rows.keys().copied().step_by(3).collect();
    keys.iter()
        .rev()
        .map(|k| rows.get(k).map_or(0, |row| u64::from(row[0])))
        .sum()
}

fn time(kernel: fn() -> u64, nominal_ns: f64) -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_nanos() as f64 / nominal_ns
}

/// Times one pass of the request kernel and returns the machine's current
/// slowness for cache-resident work: 1.0 at the reference speed, 1.5 when
/// everything takes half as long again.
pub fn speed_factor() -> f64 {
    time(request_kernel, REQUEST_NOMINAL_NS)
}

/// The same for a restart: the geometric mean of the request kernel's and
/// the memory kernel's slowness.
pub fn restart_factor() -> f64 {
    (speed_factor() * time(memory_kernel, MEMORY_NOMINAL_NS)).sqrt()
}
