//! Implication 4: smooth bursty I/O below the throughput budget.
//!
//! The ESSD's maximum bandwidth is a *paid budget* (Observation 4), so a
//! workload that bursts must either buy the peak or queue. This example
//! runs the same bursty write demand against an elastic SSD twice —
//! unsmoothed (all requests at the burst instant) and smoothed (spread
//! across the burst interval) — and then uses the planner to compute the
//! cheapest budget that still meets a latency deadline.
//!
//! Run with: `cargo run --release --example burst_smoothing`

use unwritten_contract::core::implications::plan_smoothing;
use unwritten_contract::prelude::*;
use unwritten_contract::workload::{AddressStream, Shaper, Trace, TraceEntry};

/// One burst every second…
const BURST_PERIOD: SimDuration = SimDuration::from_secs(1);
/// …of 200 x 256 KiB writes (~50 MB per burst, ~0.05 GB/s average).
const BURST_IOS: u64 = 200;
const IO_SIZE: u32 = 256 << 10;
const BURSTS: u64 = 10;
const CAPACITY: u64 = 2 << 30;

/// A random-write trace with one request at each of `arrivals`.
fn writes_at(arrivals: impl Iterator<Item = SimTime>) -> Trace {
    let mut stream = AddressStream::new(AccessPattern::RandWrite, IO_SIZE, 0, CAPACITY, 21);
    Trace::from_entries(
        arrivals
            .map(|at| {
                let (kind, offset) = stream.next_io();
                TraceEntry {
                    at,
                    kind,
                    offset,
                    len: IO_SIZE,
                }
            })
            .collect(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Open-loop replay: every request goes out at its arrival, so bursts
    // queue inside the device.
    let open_loop = ReplayConfig::open_loop().with_window(SimDuration::from_secs(1));

    // Unsmoothed: every burst lands at once.
    let mut dev = Essd::new(EssdConfig::alibaba_pl3(CAPACITY));
    let bursty = writes_at((0..BURSTS).flat_map(|b| {
        let at = SimTime::ZERO + BURST_PERIOD * b;
        std::iter::repeat_n(at, BURST_IOS as usize)
    }));
    let bursty_report = replay_with(&mut dev, &bursty, &open_loop)?;

    // Smoothed: the same demand spread evenly inside each period.
    let mut dev = Essd::new(EssdConfig::alibaba_pl3(CAPACITY));
    let gap = SimDuration::from_nanos(BURST_PERIOD.as_nanos() / BURST_IOS);
    let smooth = writes_at((0..BURSTS).flat_map(|b| {
        let start = SimTime::ZERO + BURST_PERIOD * b;
        (0..BURST_IOS).map(move |i| start + gap * i)
    }));
    let smooth_report = replay_with(&mut dev, &smooth, &open_loop)?;

    // Or let the Shaper do the smoothing mechanically: replay the same
    // bursty trace through a paced device adapter.
    let trace = Trace::bursty_writes(BURSTS, BURST_IOS, BURST_PERIOD, IO_SIZE, 1 << 30, 21);
    let shaped_rate = 0.09e9; // the planner's answer, see below
    let mut shaped_dev = Shaper::new(
        Essd::new(EssdConfig::alibaba_pl3(CAPACITY)),
        shaped_rate,
        4 << 20,
    );
    let shaped_report = replay_with(&mut shaped_dev, &trace, &ReplayConfig::open_loop())?;

    println!("ESSD-2, {BURSTS} bursts of {BURST_IOS} x 256 KiB writes:");
    // bursty   = bursts hit the device as-is;
    // smoothed = the application spreads submissions inside each period;
    // shaper   = a pacing layer drains each burst at the planner's minimum
    //            budget, trading bounded delay (the 500 ms deadline) for a
    //            5.8x smaller purchased rate.
    for (label, r) in [
        ("bursty", &bursty_report),
        ("smoothed", &smooth_report),
        ("shaper", &shaped_report),
    ] {
        let (avg, p999) = r.headline_latency();
        println!(
            "  {:<9} avg {:>9.1} us   p99.9 {:>10.1} us   max {:>10.1} us",
            label,
            avg.as_micros_f64(),
            p999.as_micros_f64(),
            r.latency.max().as_micros_f64()
        );
    }

    // The planner: what budget must we buy with / without smoothing? The
    // demand trace uses 100 ms windows so the burst's instantaneous peak
    // is visible to the planner.
    let sub_windows = 10u64;
    let demand: Vec<u64> = (0..BURSTS * sub_windows)
        .map(|w| {
            if w % sub_windows == 0 {
                BURST_IOS * IO_SIZE as u64
            } else {
                0
            }
        })
        .collect();
    let plan = plan_smoothing(
        &demand,
        SimDuration::from_nanos(BURST_PERIOD.as_nanos() / sub_windows),
        SimDuration::from_millis(500),
    );
    println!("\nbudget planning for a 500 ms queueing deadline:");
    println!("  {plan}");
    println!(
        "\nImplication 4: smoothing the same demand over the timeline meets \
         the deadline\nwith a fraction of the throughput budget — budget is \
         money on an elastic SSD.\nThe shaper row shows the planner's \
         minimum-budget operating point: every burst\nis absorbed within \
         the 500 ms deadline while paying for ~0.09 GB/s instead of\nthe \
         0.52 GB/s peak."
    );
    Ok(())
}
