//! Per-figure experiment drivers.
//!
//! Each function regenerates one figure of the paper's evaluation (§4) as a
//! table of rows — one row per x-axis point per system — plus the ablations
//! the README's ablation commands run (`ablation_nodes`, `ablation_signcost`,
//! `ablation_suspicion`).  Absolute values are those of the calibrated
//! simulation; the *shape* (who wins, by what rough factor, where the knee
//! falls) is what reproduces the paper.

use serde::{Deserialize, Serialize};

use fs_common::config::NodeBudget;
use fs_common::id::MemberId;
use fs_common::time::{SimDuration, SimTime};
use fs_crypto::cost::CryptoCostModel;
use fs_harness::{FaultSchedule, NewTopService, Protocol, Scenario, Workload};
use fs_newtop::suspector::SuspectorConfig;

use crate::measure::{label, measure, system_name, RunMetrics};

/// Common knobs of an experiment sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Messages each member multicasts (the paper uses 1000; smaller values
    /// keep regeneration quick while preserving the shapes).
    pub messages_per_member: u64,
    /// Interval between consecutive multicasts of one member.
    pub send_interval: SimDuration,
    /// Random seed.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            messages_per_member: default_messages(),
            send_interval: SimDuration::from_millis(40),
            seed: 2003,
        }
    }
}

/// Number of messages per member used by the figure binaries; override with
/// the `FS_BENCH_MESSAGES` environment variable (the paper uses 1000).
pub fn default_messages() -> u64 {
    crate::env::env_u64("FS_BENCH_MESSAGES", 150)
}

/// The paper's experimental set-up (§4) — [`Scenario::new`]'s defaults —
/// around NewTOP with the given crash-mode suspector.  The figures pass
/// [`SuspectorConfig::disabled`]: the paper eliminates false suspicions
/// (large timeouts on a lightly loaded LAN); ping traffic itself is
/// negligible but we disable it so message counts reflect the ordering
/// protocol only.
fn scenario_for(
    protocol: Protocol,
    members: u32,
    suspector: SuspectorConfig,
    config: &ExperimentConfig,
) -> Scenario {
    Scenario::new(NewTopService::new().suspector(suspector))
        .members(members)
        .protocol(protocol)
        .seed(config.seed)
}

fn workload_for(payload: usize, config: &ExperimentConfig) -> Workload {
    Workload::paper_default()
        .messages(config.messages_per_member)
        .interval(config.send_interval)
        .payload_size(payload)
}

/// One row of a figure table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureRow {
    /// The x-axis value (group size for Figures 6 and 7, payload bytes for
    /// Figure 8).
    pub x: u64,
    /// Which system the row belongs to (its [`system_name`]).
    pub system: String,
    /// The full metrics of the run.
    pub metrics: RunMetrics,
}

/// A regenerated figure: its identity and its rows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    /// Which paper figure this regenerates ("figure-6", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The meaning of the x axis.
    pub x_label: String,
    /// The rows, grouped by x then system.
    pub rows: Vec<FigureRow>,
}

impl Figure {
    /// The rows of the system `protocol` deploys, in x order.
    pub fn series(&self, protocol: Protocol) -> Vec<&FigureRow> {
        self.rows
            .iter()
            .filter(|r| r.system == system_name(protocol))
            .collect()
    }

    /// Renders the figure as an aligned text table (one line per x value).
    pub fn to_table(&self, value: impl Fn(&RunMetrics) -> f64, value_label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {} — {}\n", self.id, self.title));
        out.push_str(&format!(
            "{:>10}  {:>14}  {:>14}  {:>9}\n",
            self.x_label,
            label(Protocol::Crash),
            label(Protocol::FailSignal),
            "overhead"
        ));
        let xs: Vec<u64> = {
            let mut xs: Vec<u64> = self.rows.iter().map(|r| r.x).collect();
            xs.sort_unstable();
            xs.dedup();
            xs
        };
        for x in xs {
            let at = |protocol| {
                self.rows
                    .iter()
                    .find(|r| r.x == x && r.system == system_name(protocol))
                    .map(|r| value(&r.metrics))
            };
            let (newtop, fs) = (at(Protocol::Crash), at(Protocol::FailSignal));
            let overhead = match (newtop, fs) {
                (Some(n), Some(f)) if n.is_finite() && n != 0.0 => {
                    format!("{:+.0}%", (f - n) / n * 100.0)
                }
                _ => "-".to_string(),
            };
            out.push_str(&format!(
                "{:>10}  {:>14}  {:>14}  {:>9}\n",
                x,
                newtop
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "-".into()),
                fs.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into()),
                overhead
            ));
        }
        out.push_str(&format!(
            "({value_label}; {} messages/member)\n",
            self.rows
                .first()
                .map(|r| r.metrics.messages_per_member)
                .unwrap_or(0)
        ));
        out
    }
}

fn sweep(
    id: &str,
    title: &str,
    x_label: &str,
    points: impl Iterator<Item = (u64, u32, usize)>,
    config: &ExperimentConfig,
) -> Figure {
    sweep_with_faults(id, title, x_label, points, config, |_| {
        FaultSchedule::none()
    })
}

fn sweep_with_faults(
    id: &str,
    title: &str,
    x_label: &str,
    points: impl Iterator<Item = (u64, u32, usize)>,
    config: &ExperimentConfig,
    faults: impl Fn(u32) -> FaultSchedule,
) -> Figure {
    let mut rows = Vec::new();
    for (x, members, payload) in points {
        let workload = workload_for(payload, config);
        for protocol in [Protocol::Crash, Protocol::FailSignal] {
            let scenario = scenario_for(protocol, members, SuspectorConfig::disabled(), config)
                .faults(faults(members));
            let metrics = measure(scenario, &workload);
            eprintln!(
                "  [{id}] x={x} {}: latency {:.1} ms, throughput {:.1} msg/s, complete={}",
                label(protocol),
                metrics.mean_latency_ms,
                metrics.throughput_msgs_per_sec,
                metrics.is_complete()
            );
            rows.push(FigureRow {
                x,
                system: metrics.system.clone(),
                metrics,
            });
        }
    }
    Figure {
        id: id.to_string(),
        title: title.to_string(),
        x_label: x_label.to_string(),
        rows,
    }
}

/// Figure 6: symmetric total-order latency for 3-byte messages, group sizes
/// 2–10, NewTOP vs FS-NewTOP.
pub fn figure6(config: &ExperimentConfig) -> Figure {
    sweep(
        "figure-6",
        "Ordering latency vs group size (3-byte messages, symmetric total order)",
        "members",
        (2..=10u32).map(|n| (u64::from(n), n, 3)),
        config,
    )
}

/// Figure 7: throughput for 3-byte messages, group sizes 2–15.
pub fn figure7(config: &ExperimentConfig) -> Figure {
    sweep(
        "figure-7",
        "Throughput vs group size (3-byte messages)",
        "members",
        (2..=15u32).map(|n| (u64::from(n), n, 3)),
        config,
    )
}

/// Mild, uniform link degradation: every inter-member link loses 0.5 % of
/// its messages and gains 1 ms of jittered one-way delay shortly after the
/// workload starts.  Small enough that neither suspicion timeouts nor the
/// FS pairs' δ are threatened — the graceful-degradation regime, as opposed
/// to the A2-violation regime of `examples/a2_violation.rs`.
fn mild_degradation(members: u32) -> FaultSchedule {
    let onset = SimTime::from_millis(200);
    let mut faults = FaultSchedule::none();
    for a in 0..members {
        for b in (a + 1)..members {
            faults = faults
                .lossy_link(onset, MemberId(a), MemberId(b), 0.005)
                .slow_link(
                    onset,
                    MemberId(a),
                    MemberId(b),
                    SimDuration::from_millis(1),
                    SimDuration::from_micros(500),
                );
        }
    }
    faults
}

/// The graceful-degradation variant of Figure 6: the same latency sweep run
/// under `mild_degradation` on every link.  Latency rises for both
/// systems, and the delivered fraction (`RunMetrics::total_deliveries` vs
/// `RunMetrics::expected_deliveries`) records what the loss cost — with no
/// fail-signals and no false suspicions, since the degradation stays well
/// inside the timing assumptions.
pub fn figure6_degraded(config: &ExperimentConfig) -> Figure {
    sweep_with_faults(
        "figure-6-degraded",
        "Ordering latency vs group size under mild link loss and delay",
        "members",
        (2..=10u32).map(|n| (u64::from(n), n, 3)),
        config,
        mild_degradation,
    )
}

/// The graceful-degradation variant of Figure 7 (throughput sweep under
/// `mild_degradation`).
pub fn figure7_degraded(config: &ExperimentConfig) -> Figure {
    sweep_with_faults(
        "figure-7-degraded",
        "Throughput vs group size under mild link loss and delay",
        "members",
        (2..=15u32).map(|n| (u64::from(n), n, 3)),
        config,
        mild_degradation,
    )
}

/// Figure 8: throughput for a 10-member group, payload sizes 0k–10k.
pub fn figure8(config: &ExperimentConfig) -> Figure {
    sweep(
        "figure-8",
        "Throughput vs message size (10 members)",
        "kbytes",
        (0..=10u64).map(|k| (k, 10, if k == 0 { 3 } else { (k as usize) * 1000 })),
        config,
    )
}

/// Ablation A3: how the signature cost model shapes the FS-NewTOP overhead
/// (free vs modern HMAC vs 2003-era RSA), at a fixed group size.
pub fn ablation_sign_cost(config: &ExperimentConfig, members: u32) -> Vec<(String, RunMetrics)> {
    let models: [(&str, CryptoCostModel); 3] = [
        ("free", CryptoCostModel::free()),
        ("modern-hmac", CryptoCostModel::modern_hmac()),
        ("era-2003-rsa", CryptoCostModel::era_2003()),
    ];
    let workload = workload_for(3, config);
    let quiet = |protocol| scenario_for(protocol, members, SuspectorConfig::disabled(), config);
    let mut out = Vec::new();
    for (name, model) in models {
        let scenario = quiet(Protocol::FailSignal).crypto_costs(model);
        out.push((name.to_string(), measure(scenario, &workload)));
    }
    // The crash-tolerant baseline for reference.
    let baseline = measure(quiet(Protocol::Crash), &workload);
    out.push(("newtop-baseline".to_string(), baseline));
    out
}

/// Ablation A1: node-count arithmetic (4f+2 vs 3f+1 vs 2f+1), straight from
/// the paper's cost analysis.
pub fn ablation_node_budget(max_faults: u32) -> Vec<(u32, u32, u32, u32)> {
    (0..=max_faults)
        .map(|f| {
            let b = NodeBudget::new(f);
            (
                f,
                b.application_replicas(),
                b.fail_signal_nodes(),
                b.classical_bft_nodes(),
            )
        })
        .collect()
}

/// Ablation A2: false suspicions.  Runs crash-tolerant NewTOP with an
/// aggressive suspector under inflated message delays and reports how many
/// (false) view changes the applications observed; the FS-NewTOP system run
/// under the same conditions observes none.
pub fn ablation_false_suspicion(config: &ExperimentConfig) -> (u64, u64) {
    use fs_newtop::app::AppProcess;
    use fs_simnet::link::LinkModel;

    let members = 4u32;
    // A small ping timeout combined with slow, heavily jittered links makes
    // timeout-based suspicion fire even though nobody has failed.
    let suspector = SuspectorConfig::aggressive(SimDuration::from_millis(2));
    let workload = workload_for(3, config).messages(config.messages_per_member.min(30));

    // Replace the lightly loaded LAN with a slow, jittery asynchronous
    // network: real delays now exceed the suspector's expectations, which is
    // exactly the condition under which timeout-based suspicions become
    // false.  Both systems run over the same inflated network, configured
    // through the scenario's topology axis (`examples/a2_violation.rs`
    // stages the finer-grained, mid-run variant of this experiment through
    // `FaultSchedule::slow_link`).
    let slow_net = LinkModel::AsyncNet {
        base: SimDuration::from_millis(80),
        bandwidth_bps: 1_250_000,
        jitter_mean: SimDuration::from_millis(40),
        drop_prob: 0.0,
    };

    let count_views = |protocol: Protocol| -> u64 {
        let mut run = scenario_for(protocol, members, suspector, config)
            .workload(workload)
            .link_model(slow_net)
            .build();
        run.run_until(SimTime::from_secs(600));
        (0..members)
            .map(|i| {
                run.app::<AppProcess>(i)
                    .map_or(0, |a| a.views_seen().len() as u64)
            })
            .sum()
    };
    (
        count_views(Protocol::Crash),
        count_views(Protocol::FailSignal),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            messages_per_member: 3,
            send_interval: SimDuration::from_millis(30),
            seed: 7,
        }
    }

    #[test]
    fn node_budget_table_matches_paper() {
        let table = ablation_node_budget(3);
        assert_eq!(table[1], (1, 3, 6, 4));
        assert_eq!(table[2], (2, 5, 10, 7));
    }

    #[test]
    fn figure_table_rendering_contains_both_systems() {
        // A miniature figure-6 sweep over two group sizes only.
        let config = tiny();
        let fig = sweep(
            "figure-6-mini",
            "mini",
            "members",
            [(2u64, 2u32, 3usize), (3, 3, 3)].into_iter(),
            &config,
        );
        assert_eq!(fig.rows.len(), 4);
        assert_eq!(fig.series(Protocol::Crash).len(), 2);
        let table = fig.to_table(|m| m.mean_latency_ms, "mean ordering latency, ms");
        assert!(table.contains("NewTOP"));
        assert!(table.contains("FS-NewTOP"));
        assert!(table.contains("members"));
    }

    #[test]
    fn sign_cost_ablation_orders_costs() {
        let out = ablation_sign_cost(&tiny(), 3);
        let get = |name: &str| {
            out.iter()
                .find(|(n, _)| n == name)
                .map(|(_, m)| m.mean_latency_ms)
                .unwrap()
        };
        assert!(get("free") <= get("era-2003-rsa"));
        assert!(get("modern-hmac") <= get("era-2003-rsa"));
    }

    #[test]
    fn false_suspicion_ablation_shows_the_benefit() {
        let (newtop_views, fs_views) = ablation_false_suspicion(&tiny());
        // The timeout-based suspector splits the group even though nobody
        // failed; the fail-signal suspector never does.
        assert!(newtop_views > 0, "expected false suspicions in NewTOP");
        assert_eq!(fs_views, 0, "FS-NewTOP must not split without a failure");
    }

    #[test]
    fn default_messages_env_override() {
        // Without the env var the default is used.
        assert!(default_messages() >= 1);
    }
}
