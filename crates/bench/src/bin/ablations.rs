//! Ablation tables for three design choices of the simulated devices:
//!
//! * GC victim policy (greedy / cost-benefit / FIFO): steady-state write
//!   amplification under sustained random overwrites;
//! * replication factor (1/2/3): mean 4 KiB random-write latency on the
//!   ESSD write path;
//! * chunk size (256 KiB / 4 MiB / 32 MiB): random- over sequential-write
//!   throughput gain.
//!
//! Every row is a deterministic simulated quantity, so two runs print the
//! same bytes. Host wall-clock cost is measured by `perfbench/`, not here.
//!
//! ```text
//! cargo run --release -p uc-bench --bin ablations
//! ```

use uc_essd::{Essd, EssdConfig};
use uc_flash::{FlashGeometry, FlashTiming};
use uc_ftl::{Ftl, FtlConfig, GcPolicy};
use uc_sim::SimTime;
use uc_workload::{run_job, AccessPattern, JobSpec};

fn gc_policy_wa(policy: GcPolicy) -> f64 {
    let g = FlashGeometry::new(2, 2, 1, 64, 64, 4096).expect("valid geometry");
    let mut ftl = Ftl::new(
        FtlConfig::new(g, FlashTiming::mlc())
            .with_over_provisioning(0.08)
            .with_gc_policy(policy),
    );
    let pages = ftl.logical_pages();
    let mut now = SimTime::ZERO;
    let mut state = 77u64;
    for _ in 0..pages * 3 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        now = ftl.write_page(now, state % pages);
    }
    ftl.stats().write_amplification()
}

fn replication_latency_us(replication: usize) -> f64 {
    let mut cfg = EssdConfig::alibaba_pl3(128 << 20);
    cfg.cluster = cfg.cluster.with_replication(replication);
    let mut dev = Essd::new(cfg);
    let spec = JobSpec::new(AccessPattern::RandWrite, 4096, 1).with_io_limit(500);
    let report = run_job(&mut dev, &spec).expect("job");
    report.latency.mean().as_micros_f64()
}

fn chunk_gain(chunk_bytes: u64) -> f64 {
    let mut cfg = EssdConfig::alibaba_pl3(256 << 20);
    cfg.cluster = cfg.cluster.with_chunk_bytes(chunk_bytes);
    let run = |pattern| {
        let mut dev = Essd::new(cfg.clone());
        let spec = JobSpec::new(pattern, 64 << 10, 16).with_io_limit(800);
        run_job(&mut dev, &spec).expect("job").throughput_gbps()
    };
    run(AccessPattern::RandWrite) / run(AccessPattern::SeqWrite)
}

fn main() {
    for policy in [GcPolicy::Greedy, GcPolicy::CostBenefit, GcPolicy::Fifo] {
        println!(
            "ablation_gc_policy/{policy}: steady WA = {:.2}",
            gc_policy_wa(policy)
        );
    }
    for r in [1usize, 2, 3] {
        println!(
            "ablation_replication/{r}-way: 4K write latency = {:.1} us",
            replication_latency_us(r)
        );
    }
    for (label, bytes) in [
        ("256KiB", 256u64 << 10),
        ("4MiB", 4 << 20),
        ("32MiB", 32 << 20),
    ] {
        println!(
            "ablation_chunk_size/{label}: rand/seq write gain = {:.2}x",
            chunk_gain(bytes)
        );
    }
}
