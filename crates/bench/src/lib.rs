//! Runner binaries for the Unwritten Contract reproduction.
//!
//! This crate hosts:
//!
//! * **figure/table binaries** (`src/bin/`): `table1`, `fig2`, `fig3`,
//!   `fig4`, `fig5`, `contract`, `trace`, `fleet` and `serve` — each
//!   regenerates one artifact of the paper (or, for `trace`/`fleet`/
//!   `serve`, a contract report beyond it) and prints the same
//!   rows/series the paper reports. Grid experiments fan their cells out
//!   across every core (`UC_THREADS` overrides; reports are
//!   byte-identical at any width), and every binary takes
//!   `--scale <mult>` / `UC_SCALE` to grow the roster toward the paper's
//!   TB-scale capacities,
//! * **shared argument parsing** ([`parse_count`], [`parse_value`],
//!   [`DurableArgs`], [`fleet_config_from_args`]), so every binary reads
//!   a flag the same way,
//! * **the `ablations` binary**: deterministic tables for three design
//!   choices of the device models (GC policy, replication factor, chunk
//!   size). Host-time performance is measured by `perfbench/`, the
//!   repository benchmark, not by this crate.

#![forbid(unsafe_code)]

pub use uc_core::devices::{DeviceKind, DeviceRoster};

use std::path::PathBuf;
use uc_core::experiments::fleet::FleetRunConfig;
use uc_core::experiments::Store;
use uc_fleet::{RebalancePolicy, ShapeMix};
use uc_sim::SimDuration;

/// Reads the value of `--flag <s>` as a string, if present.
///
/// # Panics
///
/// Panics if the flag is the last argument (no value follows).
pub fn parse_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} expects a value"))
            .clone()
    })
}

/// Reads the value of `--flag <n>` as a positive integer, if present.
///
/// # Panics
///
/// Panics if the value is missing, not an integer, or zero.
pub fn parse_count(args: &[String], flag: &str) -> Option<usize> {
    parse_value(args, flag).map(|v| {
        let n = v
            .parse::<usize>()
            .unwrap_or_else(|_| panic!("{flag} expects a positive integer, got {v:?}"));
        assert!(n > 0, "{flag} expects a positive integer, got 0");
        n
    })
}

/// The durable-run flags of the `fig3`, `trace` and `fleet` binaries:
/// `--checkpoint-dir <dir>`, `--resume` and `--kill-after <n>`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DurableArgs {
    /// Where step-boundary checkpoints are persisted (none: in memory).
    pub checkpoint_dir: Option<PathBuf>,
    /// Continue from the newest valid on-disk checkpoints.
    pub resume: bool,
    /// Crash-testing hook: exit 42 after this many checkpoint saves.
    pub kill_after: Option<u64>,
}

impl DurableArgs {
    /// Parses the durable-run flags.
    ///
    /// # Panics
    ///
    /// Panics if `--resume` or `--kill-after` is given without
    /// `--checkpoint-dir`, or on a malformed value.
    pub fn from_args(args: &[String]) -> Self {
        let durable = DurableArgs {
            checkpoint_dir: parse_value(args, "--checkpoint-dir").map(PathBuf::from),
            resume: args.iter().any(|a| a == "--resume"),
            kill_after: parse_count(args, "--kill-after").map(|n| n as u64),
        };
        if durable.checkpoint_dir.is_none() {
            assert!(!durable.resume, "--resume requires --checkpoint-dir");
            assert!(
                durable.kill_after.is_none(),
                "--kill-after requires --checkpoint-dir"
            );
        }
        durable
    }

    /// Opens the checkpoint store these flags ask for, if any.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint directory cannot be created.
    pub fn store(&self) -> Option<Store> {
        let dir = self.checkpoint_dir.as_ref()?;
        let mut store = Store::create(dir)
            .unwrap_or_else(|e| panic!("cannot create checkpoint dir {}: {e}", dir.display()))
            .with_resume(self.resume);
        if let Some(n) = self.kill_after {
            store = store.with_kill_after(n);
        }
        eprintln!(
            "persisting checkpoints to {} ({})",
            dir.display(),
            if self.resume { "resuming" } else { "fresh run" }
        );
        Some(store)
    }
}

/// Parses `s:d:b` into a [`ShapeMix`].
fn parse_mix(v: &str) -> ShapeMix {
    let parts: Vec<u32> = v
        .split(':')
        .map(|p| {
            p.parse::<u32>()
                .unwrap_or_else(|_| panic!("--shape-mix expects s:d:b integers, got {v:?}"))
        })
        .collect();
    assert!(
        parts.len() == 3 && parts.iter().any(|&p| p > 0),
        "--shape-mix expects three ratios with at least one nonzero, got {v:?}"
    );
    ShapeMix {
        steady: parts[0],
        diurnal: parts[1],
        bursty: parts[2],
    }
}

/// The fleet definition the `fleet` binary runs and `serve --fleet`
/// serves, from `--tenants` (default 256), `--devices` (8), `--epochs`
/// (4), `--duration-ms` (200), `--seed`, `--shape-mix` (`2:1:1`),
/// `--rebalance` and `--scale` — one construction, so the two reports
/// can be diffed byte for byte.
///
/// # Panics
///
/// Panics on a malformed flag value.
pub fn fleet_config_from_args(args: &[String]) -> FleetRunConfig {
    let tenants = parse_count(args, "--tenants").unwrap_or(256);
    let devices = parse_count(args, "--devices").unwrap_or(8);
    let epochs = parse_count(args, "--epochs").unwrap_or(4);
    let duration_ms = parse_count(args, "--duration-ms").unwrap_or(200);
    let seed = parse_value(args, "--seed")
        .map(|v| {
            v.parse::<u64>()
                .unwrap_or_else(|_| panic!("--seed expects an integer, got {v:?}"))
        })
        .unwrap_or(0xF1EE7);
    let mix = parse_value(args, "--shape-mix")
        .map(|v| parse_mix(&v))
        .unwrap_or_else(ShapeMix::default_mix);
    let mut config = FleetRunConfig::new(tenants, devices).with_scale(scale_from_args(args));
    config.fleet = config
        .fleet
        .with_mix(mix)
        .with_epochs(epochs)
        .with_duration(SimDuration::from_millis(duration_ms as u64))
        .with_seed(seed);
    if args.iter().any(|a| a == "--rebalance") {
        config.fleet = config.fleet.with_rebalance(RebalancePolicy::default());
    }
    config
}

/// Reads `--scale <mult>` from `args`, falling back to the `UC_SCALE`
/// environment variable, defaulting to 1.
///
/// Shared by every figure/table binary (`--scale 1024` reproduces the
/// paper's TB-scale geometry on any of them).
///
/// # Panics
///
/// Panics if the flag or variable is present but not a positive integer.
pub fn scale_from_args(args: &[String]) -> u64 {
    let from_flag = parse_value(args, "--scale").map(|v| {
        v.parse::<u64>()
            .unwrap_or_else(|_| panic!("--scale expects a positive integer, got {v:?}"))
    });
    let scale = from_flag.or_else(|| {
        std::env::var("UC_SCALE").ok().map(|v| {
            v.trim()
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("UC_SCALE expects a positive integer, got {v:?}"))
        })
    });
    let scale = scale.unwrap_or(1);
    assert!(scale > 0, "scale multiplier must be positive");
    scale
}

/// The roster every binary measures: the paper's geometry at the scale the
/// command line (or `UC_SCALE`) selects.
pub fn roster_from_args(args: &[String]) -> DeviceRoster {
    DeviceRoster::scaled_default().with_scale(scale_from_args(args))
}

/// The synthetic trace for a named arrival shape, sized to `span` bytes
/// of offsets and seeded deterministically.
///
/// Shared between the `trace` binary (local and `--remote` replay) and
/// the `serve` binary's in-process mode, so a networked client and the
/// loopback-determinism baseline generate the *same* trace from the same
/// `(shape, quick, span, seed)` tuple.
///
/// # Panics
///
/// Panics if `shape` is not `bursty`, `steady`, or `diurnal`.
pub fn generated_trace(shape: &str, quick: bool, span: u64, seed: u64) -> uc_trace::Trace {
    use uc_sim::SimDuration;
    let duration = if quick {
        SimDuration::from_millis(100)
    } else {
        SimDuration::from_secs(1)
    };
    let spec = match shape {
        "bursty" => uc_trace::TraceSpec::bursty(
            SimDuration::from_millis(2),
            SimDuration::from_millis(6),
            40_000.0,
        ),
        "steady" => uc_trace::TraceSpec::steady(10_000.0),
        "diurnal" => uc_trace::TraceSpec::diurnal(2_000.0, 30_000.0, duration),
        other => panic!("--shape expects bursty|steady|diurnal, got {other:?}"),
    };
    spec.with_duration(duration)
        .with_io_size(64 << 10)
        .with_write_ratio(0.8)
        .with_span(span)
        .with_seed(seed)
        .generate()
}

/// The process's peak resident set size in bytes, if the platform
/// exposes it (`VmHWM` in `/proc/self/status` on Linux; `None`
/// elsewhere).
///
/// Benchmark binaries record this next to their wall-clock numbers so a
/// perf regression that trades time for memory is still visible in the
/// uploaded artifacts.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A flat machine-readable benchmark record, hand-rolled (this workspace
/// carries no JSON dependency): one object per file, insertion-ordered
/// keys, written atomically enough for CI artifact upload (single
/// `write`).
///
/// # Example
///
/// ```
/// let json = uc_bench::BenchJson::new("fleet")
///     .u64("tenants", 256)
///     .f64("wall_seconds", 1.25)
///     .str("mode", "rebalance");
/// assert_eq!(
///     json.render(),
///     r#"{"bench":"fleet","tenants":256,"wall_seconds":1.25,"mode":"rebalance"}"#
/// );
/// ```
#[derive(Debug, Clone)]
pub struct BenchJson {
    fields: Vec<(String, String)>,
}

impl BenchJson {
    /// A record identifying the benchmark `name` (always the first key).
    pub fn new(name: &str) -> Self {
        let mut json = BenchJson { fields: Vec::new() };
        json.push_str("bench", name);
        json
    }

    fn push_raw(&mut self, key: &str, rendered: String) {
        self.fields.push((Self::escape(key), rendered));
    }

    fn push_str(&mut self, key: &str, value: &str) {
        self.push_raw(key, format!("\"{}\"", Self::escape(value)));
    }

    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Appends an unsigned-integer field.
    pub fn u64(mut self, key: &str, value: u64) -> Self {
        self.push_raw(key, value.to_string());
        self
    }

    /// Appends a floating-point field (non-finite values become `null` —
    /// JSON has no NaN).
    pub fn f64(mut self, key: &str, value: f64) -> Self {
        let rendered = if value.is_finite() {
            format!("{value}")
        } else {
            "null".to_string()
        };
        self.push_raw(key, rendered);
        self
    }

    /// Appends a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.push_str(key, value);
        self
    }

    /// Appends an optional unsigned-integer field (`None` becomes
    /// `null`, keeping the key set stable across platforms).
    pub fn opt_u64(mut self, key: &str, value: Option<u64>) -> Self {
        let rendered = match value {
            Some(v) => v.to_string(),
            None => "null".to_string(),
        };
        self.push_raw(key, rendered);
        self
    }

    /// The rendered single-line JSON object.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{key}\":{value}"));
        }
        out.push('}');
        out
    }

    /// Writes the record (plus a trailing newline) to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error.
    pub fn write_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.render() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn scale_flag_parses_and_defaults() {
        assert_eq!(scale_from_args(&args(&["bin"])), 1);
        assert_eq!(scale_from_args(&args(&["bin", "--scale", "8"])), 8);
        assert_eq!(
            roster_from_args(&args(&["bin", "--scale", "4"])).ssd_capacity(),
            4 * DeviceRoster::scaled_default().ssd_capacity()
        );
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn scale_flag_rejects_garbage() {
        let _ = scale_from_args(&args(&["bin", "--scale", "huge"]));
    }

    #[test]
    #[should_panic(expected = "expects a value")]
    fn scale_flag_requires_value() {
        let _ = scale_from_args(&args(&["bin", "--scale"]));
    }

    #[test]
    fn count_and_value_flags_parse() {
        let a = args(&["bin", "--segments", "4", "--shape", "steady"]);
        assert_eq!(parse_count(&a, "--segments"), Some(4));
        assert_eq!(parse_count(&a, "--phases"), None);
        assert_eq!(parse_value(&a, "--shape").as_deref(), Some("steady"));
        assert_eq!(parse_value(&a, "--trace"), None);
    }

    #[test]
    #[should_panic(expected = "--segments expects a positive integer, got 0")]
    fn count_flag_rejects_zero() {
        let _ = parse_count(&args(&["bin", "--segments", "0"]), "--segments");
    }

    #[test]
    #[should_panic(expected = "--phases expects a value")]
    fn count_flag_requires_value() {
        let _ = parse_count(&args(&["bin", "--phases"]), "--phases");
    }

    #[test]
    fn durable_flags_parse() {
        assert_eq!(
            DurableArgs::from_args(&args(&["bin"])),
            DurableArgs::default()
        );
        let parsed = DurableArgs::from_args(&args(&[
            "bin",
            "--checkpoint-dir",
            "ckpt",
            "--resume",
            "--kill-after",
            "5",
        ]));
        assert_eq!(
            parsed,
            DurableArgs {
                checkpoint_dir: Some(PathBuf::from("ckpt")),
                resume: true,
                kill_after: Some(5),
            }
        );
        assert!(DurableArgs::default().store().is_none());
    }

    #[test]
    #[should_panic(expected = "--resume requires --checkpoint-dir")]
    fn resume_flag_requires_checkpoint_dir() {
        let _ = DurableArgs::from_args(&args(&["bin", "--resume"]));
    }

    #[test]
    #[should_panic(expected = "--kill-after requires --checkpoint-dir")]
    fn kill_after_flag_requires_checkpoint_dir() {
        let _ = DurableArgs::from_args(&args(&["bin", "--kill-after", "2"]));
    }

    #[test]
    fn fleet_flags_build_the_config() {
        let config = fleet_config_from_args(&args(&[
            "bin",
            "--tenants",
            "12",
            "--devices",
            "2",
            "--shape-mix",
            "1:0:1",
            "--rebalance",
        ]));
        assert_eq!(config.fleet.tenants, 12);
        assert_eq!(config.fleet.devices, 2);
        assert_eq!(config.fleet.epochs, 4);
        assert_eq!(config.fleet.mix.diurnal, 0);
        assert!(config.fleet.rebalance.is_some());
        assert_eq!(fleet_config_from_args(&args(&["bin"])).fleet.tenants, 256);
    }

    #[test]
    #[should_panic(expected = "--shape-mix expects three ratios")]
    fn shape_mix_rejects_all_zero() {
        let _ = fleet_config_from_args(&args(&["bin", "--shape-mix", "0:0:0"]));
    }

    #[test]
    fn opt_u64_renders_null_for_none() {
        let json = BenchJson::new("x")
            .opt_u64("present", Some(9))
            .opt_u64("absent", None);
        assert_eq!(json.render(), r#"{"bench":"x","present":9,"absent":null}"#);
    }

    #[test]
    fn generated_trace_is_deterministic_per_seed() {
        let a = generated_trace("steady", true, 1 << 30, 42);
        let b = generated_trace("steady", true, 1 << 30, 42);
        let c = generated_trace("steady", true, 1 << 30, 43);
        assert_eq!(a.entries(), b.entries());
        assert_ne!(a.entries(), c.entries());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_bytes().unwrap() > 0);
    }

    #[test]
    fn bench_json_renders_and_escapes() {
        let json = BenchJson::new("fig3")
            .u64("devices", 3)
            .f64("gbps", 2.5)
            .f64("bad", f64::NAN)
            .str("note", "a \"quoted\"\nline");
        assert_eq!(
            json.render(),
            r#"{"bench":"fig3","devices":3,"gbps":2.5,"bad":null,"note":"a \"quoted\"\nline"}"#
        );
    }
}
