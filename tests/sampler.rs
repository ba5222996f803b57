//! The shipped latency distributions sample exactly what libm gives.
//!
//! `LatencyDist::sample` takes the Box–Muller cosine from a table and
//! falls back to libm only when the table could move the nanosecond.
//! These tests draw a million samples from every distribution the
//! device models ship, next to a twin generator driving a plain libm
//! sampler written out here, and require every sample and the final
//! generator states to match.

use std::f64::consts::TAU;
use unwritten_contract::cluster::NodeConfig;
use unwritten_contract::essd::EssdConfig;
use unwritten_contract::net::NetConfig;
use unwritten_contract::prelude::*;

const DRAWS: usize = 1 << 20;

/// A libm Box–Muller sampler, written independently of `uc-sim`'s.
fn reference(dist: &LatencyDist, rng: &mut SimRng) -> SimDuration {
    let normal = |rng: &mut SimRng| {
        let u1 = 1.0 - rng.next_f64();
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
    };
    let nanos = |v: f64| SimDuration::from_nanos(v.max(0.0) as u64);
    match dist {
        LatencyDist::Constant(v) => *v,
        LatencyDist::Uniform { low, high } if low == high => *low,
        LatencyDist::Uniform { low, high } => {
            SimDuration::from_nanos(rng.range_u64(low.as_nanos(), high.as_nanos() + 1))
        }
        LatencyDist::Normal { mean, std_dev } => {
            let (m, sd) = (mean.as_nanos() as f64, std_dev.as_nanos() as f64);
            nanos(m + sd * normal(rng))
        }
        LatencyDist::LogNormal { median, sigma } => {
            nanos(((median.as_nanos() as f64).ln() + sigma * normal(rng)).exp())
        }
        LatencyDist::BoundedPareto { scale, shape, cap } => {
            nanos(rng.bounded_pareto(scale.as_nanos() as f64, *shape, cap.as_nanos() as f64))
        }
        LatencyDist::Mixture {
            base,
            tail,
            tail_prob,
        } => {
            if rng.chance(*tail_prob) {
                reference(tail, rng)
            } else {
                reference(base, rng)
            }
        }
    }
}

fn assert_matches_libm(name: &str, dist: &LatencyDist, seed: u64) {
    let (mut rng, mut twin) = (SimRng::new(seed), SimRng::new(seed));
    for i in 0..DRAWS {
        let (got, want) = (dist.sample(&mut rng), reference(dist, &mut twin));
        assert_eq!(got, want, "{name}: draw {i} of {dist:?}");
    }
    assert_eq!(rng, twin, "{name}: the generators drifted apart");
}

fn node_dists(node: &NodeConfig) -> [(&'static str, &LatencyDist); 4] {
    [
        ("lane_header", &node.lane_header),
        ("per_io", &node.per_io),
        ("staged_ack", &node.staged_ack),
        ("replica_hop", &node.replica_hop),
    ]
}

fn assert_essd_matches_libm(cfg: &EssdConfig) {
    assert_matches_libm("stack_per_io", &cfg.stack_per_io, 11);
    assert_matches_libm("net.one_way", &cfg.net.one_way, 12);
    for (name, dist) in node_dists(&cfg.cluster.node) {
        assert_matches_libm(name, dist, 13);
    }
}

#[test]
fn samsung_970_pro_firmware_matches_libm() {
    let cfg = SsdConfig::samsung_970_pro(256 << 20);
    assert_matches_libm("firmware_per_cmd", &cfg.firmware_per_cmd, 10);
}

#[test]
fn aws_io2_stack_fabric_and_nodes_match_libm() {
    assert_essd_matches_libm(&EssdConfig::aws_io2(256 << 20));
}

#[test]
fn alibaba_pl3_stack_fabric_and_nodes_match_libm() {
    assert_essd_matches_libm(&EssdConfig::alibaba_pl3(256 << 20));
}

#[test]
fn default_network_and_node_match_libm() {
    assert_matches_libm("intra_dc", &NetConfig::intra_dc().one_way, 14);
    for (name, dist) in node_dists(&NodeConfig::default()) {
        assert_matches_libm(name, dist, 15);
    }
}
