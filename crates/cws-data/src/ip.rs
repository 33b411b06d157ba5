//! Synthetic IP packet/flow traces (the "IP dataset1 / dataset2" stand-ins).
//!
//! The paper aggregates router packet traces by destination IP or by
//! 4-tuple, with weight assignments such as total bytes, packet counts,
//! distinct-flow counts and uniform weights, and splits the stream into time
//! periods (hours / halves) for the dispersed experiments. This module
//! generates flow records with the same structure: Zipf-popular destinations,
//! Pareto-distributed per-flow packet counts, log-normal packet sizes, and
//! per-period churn plus volume noise.

use std::collections::HashMap;

use cws_core::weights::MultiWeighted;
use cws_hash::{KeyHasher, RandomSource};

use crate::dataset::LabeledDataset;
use crate::distributions::{lognormal, pareto, rng_for, zipf_mandelbrot, CategoricalSampler};

/// Configuration of the synthetic trace.
#[derive(Debug, Clone, PartialEq)]
pub struct IpTraceConfig {
    /// Number of distinct flows (4-tuples) in the trace.
    pub num_flows: usize,
    /// Number of distinct destination IPs.
    pub num_dest_ips: usize,
    /// Number of time periods (hours / halves) for the dispersed view.
    pub num_periods: usize,
    /// Probability that a flow is absent from a given period.
    pub churn: f64,
    /// Zipf exponent of the destination-IP popularity.
    pub popularity_exponent: f64,
    /// Shape of the per-flow packet-count Pareto distribution (smaller =
    /// heavier tail).
    pub packet_shape: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for IpTraceConfig {
    fn default() -> Self {
        Self {
            num_flows: 20_000,
            num_dest_ips: 2_000,
            num_periods: 4,
            churn: 0.35,
            popularity_exponent: 1.1,
            packet_shape: 1.3,
            seed: 0x1900_dead_beef,
        }
    }
}

/// Which aggregation key to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpKey {
    /// Aggregate by destination IP.
    DestIp,
    /// Aggregate by (srcIP, destIP, srcPort, destPort) 4-tuple.
    FourTuple,
}

/// Which numeric attribute to use as the weight in the dispersed view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpAttribute {
    /// Total bytes.
    Bytes,
    /// Packet count.
    Packets,
    /// Number of distinct flows (4-tuples) under the key.
    Flows,
}

impl IpAttribute {
    /// Label used in tables and figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            IpAttribute::Bytes => "bytes",
            IpAttribute::Packets => "packets",
            IpAttribute::Flows => "flows",
        }
    }
}

/// One synthetic flow with per-period volumes.
#[derive(Debug, Clone, PartialEq)]
struct FlowRecord {
    four_tuple: u64,
    dest_ip: u64,
    /// Packets per period (0 when absent).
    packets: Vec<f64>,
    /// Bytes per period.
    bytes: Vec<f64>,
}

/// A generated trace.
#[derive(Debug, Clone, PartialEq)]
pub struct IpTrace {
    config: IpTraceConfig,
    flows: Vec<FlowRecord>,
}

impl IpTrace {
    /// Generates a trace from the configuration.
    ///
    /// # Panics
    /// Panics on degenerate configurations (zero flows, zero periods,
    /// churn outside `[0, 1)`).
    #[must_use]
    pub fn generate(config: &IpTraceConfig) -> Self {
        assert!(config.num_flows > 0 && config.num_dest_ips > 0, "need flows and destinations");
        assert!(config.num_periods > 0, "need at least one period");
        assert!((0.0..1.0).contains(&config.churn), "churn must be in [0, 1)");

        let popularity = zipf_mandelbrot(config.num_dest_ips, config.popularity_exponent, 2.0);
        let destinations = CategoricalSampler::new(&popularity);
        let hasher = KeyHasher::new(config.seed ^ 0x1b);
        let mut rng = rng_for(config.seed, 1);

        let mut flows = Vec::with_capacity(config.num_flows);
        for flow_index in 0..config.num_flows {
            let dest = destinations.sample(&mut rng) as u64;
            // Key identifiers: hashed so that subpopulation predicates over
            // key bits behave like predicates over real attributes.
            let four_tuple = hasher.hash_pair(flow_index as u64, 0x47);
            let dest_ip = hasher.hash_pair(dest, 0x0d);
            // Base volume of the flow: heavy-tailed packets, log-normal mean
            // packet size around 600 bytes.
            let base_packets = pareto(&mut rng, 1.0, config.packet_shape).min(1e7);
            let packet_size = lognormal(&mut rng, 6.2, 0.5).clamp(40.0, 1500.0);
            let mut packets = Vec::with_capacity(config.num_periods);
            let mut bytes = Vec::with_capacity(config.num_periods);
            for _period in 0..config.num_periods {
                if rng.next_unit() < config.churn {
                    packets.push(0.0);
                    bytes.push(0.0);
                } else {
                    let period_packets =
                        (base_packets * lognormal(&mut rng, 0.0, 0.6)).max(1.0).round();
                    packets.push(period_packets);
                    bytes.push((period_packets * packet_size).round());
                }
            }
            flows.push(FlowRecord { four_tuple, dest_ip, packets, bytes });
        }
        Self { config: config.clone(), flows }
    }

    /// The configuration used to generate the trace.
    #[must_use]
    pub fn config(&self) -> &IpTraceConfig {
        &self.config
    }

    fn key_of(&self, flow: &FlowRecord, key: IpKey) -> u64 {
        match key {
            IpKey::DestIp => flow.dest_ip,
            IpKey::FourTuple => flow.four_tuple,
        }
    }

    /// The colocated view: aggregate the whole trace by `key`.
    ///
    /// Weight assignments mirror the paper's: for destination-IP keys they
    /// are `bytes`, `packets`, `flows` (distinct 4-tuples per destination)
    /// and `uniform`; for 4-tuple keys they are `bytes`, `packets` and
    /// `uniform` (a distinct-flow count would coincide with `uniform`).
    #[must_use]
    pub fn colocated(&self, key: IpKey) -> LabeledDataset {
        let labels: Vec<String> = match key {
            IpKey::DestIp => vec!["bytes", "packets", "flows", "uniform"],
            IpKey::FourTuple => vec!["bytes", "packets", "uniform"],
        }
        .into_iter()
        .map(str::to_string)
        .collect();
        let num_assignments = labels.len();
        let uniform_assignment = num_assignments - 1;
        let mut builder = MultiWeighted::builder(num_assignments);
        for flow in &self.flows {
            let id = self.key_of(flow, key);
            let total_bytes: f64 = flow.bytes.iter().sum();
            let total_packets: f64 = flow.packets.iter().sum();
            if total_packets == 0.0 {
                continue;
            }
            builder.add(id, 0, total_bytes);
            builder.add(id, 1, total_packets);
            if key == IpKey::DestIp {
                // One distinct 4-tuple contributing to this destination.
                builder.add(id, 2, 1.0);
            }
        }
        // The uniform assignment: one unit per distinct key.
        for id in builder_keys(&builder) {
            builder.add(id, uniform_assignment, 1.0);
        }
        let name = match key {
            IpKey::DestIp => "ip/destIP".to_string(),
            IpKey::FourTuple => "ip/4tuple".to_string(),
        };
        LabeledDataset::new(name, builder.build(), labels)
    }

    /// The dispersed view: one weight assignment per time period, weights
    /// given by `attribute`, aggregated by `key`.
    #[must_use]
    pub fn dispersed(&self, key: IpKey, attribute: IpAttribute) -> LabeledDataset {
        let periods = self.config.num_periods;
        let mut builder = MultiWeighted::builder(periods);
        // Flow counting needs per-period de-duplication by key.
        let mut flow_counts: Vec<HashMap<u64, f64>> = vec![HashMap::new(); periods];
        for flow in &self.flows {
            let id = self.key_of(flow, key);
            // Indexes three parallel per-period arrays, so a plain range
            // reads better than zipped iterators here.
            #[allow(clippy::needless_range_loop)]
            for period in 0..periods {
                if flow.packets[period] == 0.0 {
                    continue;
                }
                match attribute {
                    IpAttribute::Bytes => {
                        builder.add(id, period, flow.bytes[period]);
                    }
                    IpAttribute::Packets => {
                        builder.add(id, period, flow.packets[period]);
                    }
                    IpAttribute::Flows => {
                        *flow_counts[period].entry(id).or_insert(0.0) += 1.0;
                    }
                }
            }
        }
        if attribute == IpAttribute::Flows {
            for (period, counts) in flow_counts.into_iter().enumerate() {
                for (id, count) in counts {
                    builder.add(id, period, count);
                }
            }
        }
        let labels = (1..=periods).map(|p| format!("period{p}")).collect();
        let name = format!(
            "ip/{}/{}",
            match key {
                IpKey::DestIp => "destIP",
                IpKey::FourTuple => "4tuple",
            },
            attribute.label()
        );
        LabeledDataset::new(name, builder.build(), labels)
    }
}

/// Snapshot of the keys currently in a builder (helper to add the uniform
/// assignment after the volume assignments).
fn builder_keys(builder: &cws_core::weights::MultiWeightedBuilder) -> Vec<u64> {
    // The builder does not expose its keys directly; rebuilding from a clone
    // is cheap relative to trace generation and keeps the builder API small.
    builder.clone().build().keys().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> IpTraceConfig {
        IpTraceConfig {
            num_flows: 3000,
            num_dest_ips: 400,
            num_periods: 4,
            churn: 0.3,
            popularity_exponent: 1.1,
            packet_shape: 1.3,
            seed: 42,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = IpTrace::generate(&small_config());
        let b = IpTrace::generate(&small_config());
        assert_eq!(a, b);
        assert_eq!(a.flows.len(), 3000);
        let mut other = small_config();
        other.seed = 43;
        assert_ne!(a, IpTrace::generate(&other));
    }

    #[test]
    fn colocated_views_have_expected_shape() {
        let trace = IpTrace::generate(&small_config());
        let by_dest = trace.colocated(IpKey::DestIp);
        let by_tuple = trace.colocated(IpKey::FourTuple);
        assert_eq!(by_dest.num_assignments(), 4);
        assert_eq!(by_tuple.num_assignments(), 3);
        assert!(by_dest.num_keys() <= 400);
        assert!(by_dest.num_keys() > 100);
        assert!(by_tuple.num_keys() > by_dest.num_keys());
        // Bytes dominate packets which dominate flow counts.
        let bytes = by_dest.data.assignment_total(0);
        let packets = by_dest.data.assignment_total(1);
        let flows = by_dest.data.assignment_total(2);
        let uniform = by_dest.data.assignment_total(3);
        assert!(bytes > packets && packets > flows);
        assert_eq!(uniform, by_dest.num_keys() as f64);
        // For destIP keys the flow assignment counts distinct 4-tuples.
        assert!(flows >= uniform);
    }

    #[test]
    fn dispersed_views_have_one_assignment_per_period() {
        let trace = IpTrace::generate(&small_config());
        for attribute in [IpAttribute::Bytes, IpAttribute::Packets, IpAttribute::Flows] {
            let view = trace.dispersed(IpKey::DestIp, attribute);
            assert_eq!(view.num_assignments(), 4);
            for period in 0..4 {
                assert!(view.data.assignment_total(period) > 0.0, "{attribute:?}");
            }
        }
    }

    #[test]
    fn churn_creates_partial_overlap_between_periods() {
        let trace = IpTrace::generate(&small_config());
        let view = trace.dispersed(IpKey::FourTuple, IpAttribute::Packets);
        let data = &view.data;
        let both = data.iter().filter(|(_, w)| w[0] > 0.0 && w[1] > 0.0).count();
        let only_first = data.iter().filter(|(_, w)| w[0] > 0.0 && w[1] == 0.0).count();
        assert!(both > 0, "some keys persist across periods");
        assert!(only_first > 0, "some keys churn out");
    }

    #[test]
    fn flows_attribute_counts_tuples_per_destination() {
        let trace = IpTrace::generate(&small_config());
        let view = trace.dispersed(IpKey::DestIp, IpAttribute::Flows);
        // Every weight is a positive integer count bounded by the flow count.
        for (_, weights) in view.data.iter() {
            for &w in weights {
                assert!((0.0..=3000.0).contains(&w));
                assert_eq!(w.fract(), 0.0);
            }
        }
        // Popular destinations should attract many flows.
        let max_count =
            view.data.iter().flat_map(|(_, w)| w.iter().copied()).fold(0.0f64, f64::max);
        assert!(max_count > 10.0, "max flow count {max_count}");
    }

    #[test]
    fn weights_are_skewed() {
        let trace = IpTrace::generate(&small_config());
        let view = trace.colocated(IpKey::DestIp);
        let mut bytes: Vec<f64> = view.data.iter().map(|(_, w)| w[0]).collect();
        bytes.sort_by(|a, b| b.total_cmp(a));
        let top_share: f64 =
            bytes[..view.num_keys() / 20].iter().sum::<f64>() / bytes.iter().sum::<f64>();
        assert!(top_share > 0.3, "top 5% of destinations carry {top_share} of bytes");
    }
}
