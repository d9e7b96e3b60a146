//! The fail-signal transformation in isolation: wrap a deterministic machine
//! into a self-checking pair, inject an authenticated Byzantine fault into
//! one replica, and watch the pair convert it into the process's unique,
//! double-signed fail-signal — the property (fs1) that lets FS-NewTOP treat
//! failure notifications as trustworthy.
//!
//! Run with:
//! ```text
//! cargo run --example fail_signal_demo
//! ```

use std::sync::Arc;

use fs_smr_suite::common::codec::Wire;
use fs_smr_suite::common::id::{FsId, ProcessId};
use fs_smr_suite::common::rng::DetRng;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::common::Frame;
use fs_smr_suite::crypto::cost::CryptoCostModel;
use fs_smr_suite::crypto::keys::{provision, KeyDirectory, SignerId};
use fs_smr_suite::failsignal::message::FsoInbound;
use fs_smr_suite::failsignal::provision::{FsPairBuilder, FsPairSpec};
use fs_smr_suite::failsignal::receiver::{FsDelivery, FsReceiver};
use fs_smr_suite::faults::{FaultKind, FaultPlan, FaultyActor};
use fs_smr_suite::simnet::actor::{Actor, Context};
use fs_smr_suite::simnet::node::NodeConfig;
use fs_smr_suite::simnet::sim::Simulation;
use fs_smr_suite::smr::machine::{AddressMap, EchoMachine};

const LEADER: ProcessId = ProcessId(0);
const FOLLOWER: ProcessId = ProcessId(1);
/// The pair's local process: it feeds the requests and receives what the
/// pair emits.
const LOCAL: ProcessId = ProcessId(2);

/// The client of the FS process: feeds a few requests to both wrappers of
/// the pair, then verifies, deduplicates and logs what the pair emits.
struct Local {
    to_send: u32,
    sent: u32,
    receiver: FsReceiver,
    outputs: Vec<Vec<u8>>,
    fail_signals: Vec<FsId>,
}

impl Actor for Local {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.set_timer(
            SimDuration::from_millis(10),
            fs_smr_suite::simnet::TimerId(1),
        );
    }
    fn on_message(&mut self, _ctx: &mut dyn Context, _from: ProcessId, payload: Frame) {
        match self.receiver.accept_frame(&payload) {
            Some(FsDelivery::Output { bytes, .. }) => self.outputs.push(bytes.to_vec()),
            Some(FsDelivery::FailSignal { fs }) => self.fail_signals.push(fs),
            None => {}
        }
    }
    fn on_timer(&mut self, ctx: &mut dyn Context, _timer: fs_smr_suite::simnet::TimerId) {
        if self.sent >= self.to_send {
            return;
        }
        let request = FsoInbound::Raw(format!("request-{}", self.sent).into()).to_frame();
        ctx.send(LEADER, request.clone());
        ctx.send(FOLLOWER, request);
        self.sent += 1;
        ctx.set_timer(
            SimDuration::from_millis(20),
            fs_smr_suite::simnet::TimerId(1),
        );
    }
}

fn run_scenario(title: &str, fault: Option<FaultPlan>) {
    println!("\n=== {title} ===");
    let mut rng = DetRng::new(42);
    let (mut keys, directory): (_, Arc<KeyDirectory>) = provision([LEADER, FOLLOWER], &mut rng);

    let spec = FsPairSpec::new(FsId(1), LEADER, FOLLOWER);
    let (leader, follower) = FsPairBuilder::new(spec)
        .crypto_costs(CryptoCostModel::era_2003())
        .addresses(AddressMap::local_only(LOCAL))
        .build(
            keys.remove(&SignerId(LEADER)).unwrap(),
            keys.remove(&SignerId(FOLLOWER)).unwrap(),
            Arc::clone(&directory),
            (Box::new(EchoMachine::new(0)), Box::new(EchoMachine::new(0))),
        );

    let mut sim = Simulation::new(7);
    let node_a = sim.add_node(NodeConfig::era_2003());
    let node_b = sim.add_node(NodeConfig::era_2003());
    let node_c = sim.add_node(NodeConfig::era_2003());

    sim.spawn_with(LEADER, node_a, Box::new(leader));
    // Optionally wrap the follower with a fault injector.
    let follower_actor: Box<dyn Actor> = match fault {
        Some(plan) => Box::new(FaultyActor::new(Box::new(follower), plan, 99)),
        None => Box::new(follower),
    };
    sim.spawn_with(FOLLOWER, node_b, follower_actor);
    let mut receiver = FsReceiver::new(directory);
    receiver.register_source(FsId(1), spec.signers());
    sim.spawn_with(
        LOCAL,
        node_c,
        Box::new(Local {
            to_send: 5,
            sent: 0,
            receiver,
            outputs: Vec::new(),
            fail_signals: Vec::new(),
        }),
    );

    sim.run_until(SimTime::from_secs(30));

    let destination = sim.actor::<Local>(LOCAL).expect("local process exists");
    println!(
        "valid outputs accepted by the destination: {}",
        destination.outputs.len()
    );
    for out in destination.outputs.iter().take(3) {
        println!("  output: {}", String::from_utf8_lossy(out));
    }
    if destination.fail_signals.is_empty() {
        println!("no fail-signal emitted (both replicas stayed correct)");
    } else {
        println!(
            "fail-signal received from FS process {:?} — the destination now KNOWS the process is faulty",
            destination.fail_signals
        );
    }
}

fn main() {
    println!("== the fail-signal (FS) process construction ==");
    run_scenario(
        "failure-free run: every output is compared and double-signed",
        None,
    );
    run_scenario(
        "one replica starts corrupting its outputs (authenticated Byzantine fault)",
        Some(FaultPlan::after(
            4,
            FaultKind::CorruptOutputs { probability: 1.0 },
        )),
    );
    run_scenario(
        "one replica crashes silently: the partner's comparison timeout converts it into a fail-signal",
        Some(FaultPlan::after(4, FaultKind::Crash)),
    );
}
