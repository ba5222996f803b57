//! The repository benchmark: end-to-end metrics of four workloads and,
//! in a separate traced run, per-layer timings and counts.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload endurance|latency_grid|fleet_1024|serve_loopback \
//!     --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! `--trace 0` repeats units of the named workload for `--seconds`
//! seconds with no timing wrappers and reports the end-to-end metrics.
//! `--trace 1` runs an untraced and a traced unit of every workload (the
//! named one repeatedly for `--seconds`), checks that both simulate the
//! same bytes, reports the tracing overhead, the per-layer readings of
//! the traced units and the isolated layer micro-suite.
//!
//! Every metric is printed as `name = value unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `README.md` for what each metric means.

mod alloc;
mod micro;
mod stats;
mod sys;
mod timed;
mod workloads;

use stats::{median, percentile, ratio};
use std::time::Instant;
use workloads::{Opts, Tracer, Unit, Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// The fewest units a `--trace 0` run measures, however short `--seconds`.
const MIN_UNITS: usize = 3;

const USAGE: &str = "usage: uc-perfbench --workload <endurance|latency_grid|fleet_1024|\
serve_loopback> --seed <n> --seconds <s> --trace <0|1>";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} expects a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Counts `unit`'s I/Os as attempted, and as failed if it failed a
    /// check or its output differs from `expected`.
    fn account(&mut self, label: &str, unit: &Unit, expected: &str) {
        self.attempted += unit.ios;
        self.failed += unit.refused;
        let mut failures = unit.failures.clone();
        if unit.output != expected {
            failures.push(format!("{label}: output differs from the run's first unit"));
        }
        if !failures.is_empty() {
            self.failed += unit.ios.max(1);
            self.failures
                .extend(failures.into_iter().map(|f| format!("{label}: {f}")));
        }
    }
}

/// `--trace 0`: repeat untraced units and report end-to-end medians.
fn end_to_end(args: &Args) -> Outcome {
    let w = args.workload;
    let started = Instant::now();
    let mut units: Vec<Unit> = Vec::new();
    let mut peaks = Vec::new();
    while units.len() < MIN_UNITS || started.elapsed().as_secs_f64() < args.seconds {
        let opts = Opts {
            seed: args.seed,
            check: units.is_empty(),
        };
        alloc::reset_peak();
        let unit = w.run(&opts, None);
        peaks.push(alloc::peak_bytes() as f64 / (1u64 << 20) as f64);
        eprintln!(
            "unit {}: setup {:.6} s, measured {:.3} s, {:.0} I/Os per s",
            units.len(),
            unit.setup_s,
            unit.wall_s,
            unit.ios_per_s()
        );
        units.push(unit);
    }

    let mut out = Outcome::default();
    let first = units[0].output.clone();
    for (i, unit) in units.iter().enumerate() {
        out.account(&format!("{} unit {i}", w.name()), unit, &first);
    }
    if args.seed == DEFAULT_SEED {
        if let Some(reference) = w.reference() {
            if reference != first {
                out.failed += units[0].ios.max(1);
                out.failures.push(format!(
                    "{}: output differs from the uc-core experiment's at the default seed",
                    w.name()
                ));
            }
        }
    }

    let per_unit = |f: &dyn Fn(&Unit) -> f64| median(&units.iter().map(f).collect::<Vec<_>>());
    let rtt = |p: f64| per_unit(&|u| percentile(&mut u.rtt_ns.clone(), p) as f64 / 1e3);
    println!(
        "{}: {} unit(s), {} simulated I/Os, {} round-trip samples, peak RSS {:.1} MiB",
        w.name(),
        units.len(),
        out.attempted,
        units.iter().map(|u| u.rtt_ns.len()).sum::<usize>(),
        sys::peak_rss_mib()
    );
    out.metric("sim_ios_per_s", per_unit(&|u| u.ios_per_s()), "1/s");
    out.metric(
        "ios_per_cpu_s",
        per_unit(&|u| u.ios as f64 / u.cpu_s.max(1e-9)),
        "1/s",
    );
    out.metric("setup_s", per_unit(&|u| u.setup_s), "s");
    out.metric("peak_heap_mib", median(&peaks), "MiB");
    out.metric(
        "allocs_per_io",
        per_unit(&|u| ratio(u.allocs as f64, u.ios as f64)),
        "count",
    );
    out.metric("rtt_p50_us", rtt(50.0), "us");
    out.metric("rtt_p90_us", rtt(90.0), "us");
    out
}

/// `--trace 1`: untraced and traced units of every workload, the
/// per-layer readings of the traced ones, and the micro-suite.
fn per_layer(args: &Args) -> Outcome {
    let tracer = Tracer::new();
    let started = Instant::now();
    let mut out = Outcome::default();
    // Rates of (untraced, traced) units, per workload in `ALL` order.
    let mut rates: Vec<(Vec<f64>, Vec<f64>)> = vec![Default::default(); Workload::ALL.len()];
    let mut pair = |w: Workload, rates: &mut (Vec<f64>, Vec<f64>)| {
        let opts = Opts {
            seed: args.seed,
            check: rates.0.is_empty(),
        };
        let plain = w.run(&opts, None);
        let traced = w.run(
            &Opts {
                check: false,
                ..opts
            },
            Some(&tracer),
        );
        out.account(&format!("{} untraced", w.name()), &plain, &plain.output);
        out.account(&format!("{} traced", w.name()), &traced, &plain.output);
        rates.0.push(plain.ios_per_s());
        rates.1.push(traced.ios_per_s());
    };
    // One pair of every workload, then more pairs of the named one
    // until the run's time is spent.
    for (w, r) in Workload::ALL.into_iter().zip(rates.iter_mut()) {
        pair(w, r);
    }
    let named = Workload::ALL
        .iter()
        .position(|&w| w == args.workload)
        .expect("parsed workloads are in ALL");
    while started.elapsed().as_secs_f64() < args.seconds {
        pair(args.workload, &mut rates[named]);
    }
    let overheads: Vec<(Workload, f64)> = Workload::ALL
        .into_iter()
        .zip(&rates)
        .map(|(w, (plain, traced))| {
            println!("{}: {} untraced/traced pair(s)", w.name(), plain.len());
            (w, median(plain) / median(traced) - 1.0)
        })
        .collect();
    println!(
        "traced outputs identical to untraced: {}",
        out.failures.is_empty()
    );

    let values = tracer.values.lock().expect("tracer values").clone();
    for (name, (value, unit)) in &values {
        out.metric(*name, *value, unit);
    }
    for (prefix, sink) in [("ssd", &tracer.ssd), ("essd", &tracer.essd)] {
        let mut samples = sink.lock().expect("device sink").clone();
        for (op, ns) in [
            ("write", &mut samples.write_ns),
            ("read", &mut samples.read_ns),
        ] {
            for p in [50.0, 99.0] {
                out.metric(
                    format!("{prefix}.submit_{op}_ns.p{p}"),
                    percentile(ns, p) as f64,
                    "ns",
                );
            }
        }
        out.metric(
            format!("{prefix}.submit_allocs_per_call"),
            ratio(samples.allocs as f64, samples.calls as f64),
            "allocs/op",
        );
    }
    let mut fleet_ns = tracer.fleet_device.lock().expect("fleet sink").all_ns();
    out.metric(
        "fleet.device_submit_ns.p50",
        percentile(&mut fleet_ns, 50.0) as f64,
        "ns",
    );
    for (w, overhead) in overheads {
        out.metric(format!("trace.overhead.{}", w.name()), overhead, "ratio");
    }
    for m in micro::run() {
        out.metric(m.name, m.ns_per_op, "ns");
        out.metric(
            format!("{}.allocs_per_op", m.name),
            m.allocs_per_op,
            "allocs/op",
        );
    }
    out
}

/// Renders a metric value as a JSON number (non-finite values as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("uc-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "uc-perfbench: workload {} seed {} seconds {} trace {} ({} cores available)",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let out = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    for f in &out.failures {
        println!("FAILED {f}");
    }
    for m in &out.metrics {
        println!("{} = {} {}", m.name, json_number(m.value), m.unit);
    }
    let attempted = out.attempted.max(1);
    println!(
        "error_rate = {} ({} failed of {attempted} attempted)",
        ratio(out.failed as f64, attempted as f64),
        out.failed
    );
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&args(
            "bin --workload fleet_1024 --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::Fleet1024);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(parse_args(&args("bin --workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("bin --workload endurance --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args(
            "bin --workload endurance --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
    }
}
