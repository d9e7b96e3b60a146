//! The six workloads: what each deploys, how its cells are sized, and how
//! the repetitions of its cells reduce to the declared metrics.
//!
//! Every workload runs the crash and the fail-signal protocol side by side on
//! identical inputs.  Two kinds of cell exist:
//!
//! * **closed** — capacity and host cost.  `Admission::Block`, a near-zero
//!   arrival interval and a fixed in-flight bound per load generator keep the
//!   system saturated; a fixed request count (never a time limit) makes the
//!   simulated outputs exact.  Capacity is completions over the window from
//!   first submission to last completion, never `run_until`'s return value,
//!   which includes minutes of trailing timers.
//! * **paced** — latency.  Open-loop Poisson arrivals at a fixed rate well
//!   under the fail-signal capacity, enough completions for a p99 with ten
//!   samples beyond it.
//!
//! Host-timed cells repeat, interleaved crash / fail-signal, after one untimed
//! warm-up pair.  Host noise on a shared box only ever adds time, so the
//! end-to-end host cost takes minima: per slice of identical work over the
//! repetitions on the simulator (see [`Slicing`]), per repetition on threads.

use std::time::Instant;

use fs_smr_suite::common::id::MemberId;
use fs_smr_suite::common::time::{SimDuration, SimTime};
use fs_smr_suite::crypto::sha256::CompressBackend;
use fs_smr_suite::faults::{FaultKind, FaultPlan};
use fs_smr_suite::harness::{Admission, FaultSchedule, Protocol, RuntimeKind, Workload};

use crate::cells::{
    protocol_tag, run_cell, time_builds, CellRun, CellSpec, Expect, Facts, Service, Slicing, Target,
};
use crate::host;
use crate::report::Values;
use crate::roles::FrameClass;
use crate::spans::Spans;
use crate::stats;
use crate::units;

/// The static description of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// The `--workload` name.
    pub name: &'static str,
    /// One line on which layers do the work (also in `BENCHMARK.json`).
    pub why: &'static str,
    /// What is deployed.
    pub target: Target,
    /// The runtime whose cells are host-timed.  A threaded workload also
    /// runs its scenario once on the simulator (its "sim twin") for the
    /// simulated-clock metrics.
    pub runtime: RuntimeKind,
    /// Request payload in bytes.
    pub payload: usize,
    /// Requests per ordering round.
    pub batch: u32,
    /// Closed cells: in-flight bound per load generator, chosen so that
    /// doubling it raises simulated capacity by less than 5 % on both
    /// protocols (the checks are recorded in `README.md`).
    pub in_flight: u32,
    /// Closed cells: requests per load generator, fail-signal protocol.
    pub closed_fs: u64,
    /// Closed cells: requests per load generator, crash protocol (more, so
    /// both timed windows last about as long).
    pub closed_crash: u64,
    /// Paced simulator cells: Poisson rate per load generator, requests per
    /// simulated second; at most half the fail-signal closed capacity.
    pub paced_sim_rate: f64,
    /// Paced threaded cells: Poisson rate per load generator, requests per
    /// wall second (threaded workloads only).
    pub paced_thr_rate: f64,
    /// Paced cells: requests per load generator.
    pub paced_requests: u64,
    /// Paced cells run under a rolling restart of every member, and one
    /// extra fail-signal cell runs with a corrupting follower wrapper.
    pub faults: bool,
}

const GROUP3_NEWTOP: Target = Target::Group {
    service: Service::NewTop,
    members: 3,
};
const GROUP3_KV: Target = Target::Group {
    service: Service::Kv,
    members: 3,
};

/// The six workloads, in reporting order.
pub const PLANS: [Plan; 6] = [
    Plan {
        name: "sim_newtop_n3_small",
        why: "3 members, 3-byte payloads, unbatched: per-message overhead dominates (scheduler, protocol state machines, small-MAC sign/verify, headers)",
        target: GROUP3_NEWTOP,
        runtime: RuntimeKind::Sim,
        payload: 3,
        batch: 1,
        in_flight: 8,
        closed_fs: 1_000,
        closed_crash: 10_000,
        paced_sim_rate: 30.0,
        paced_thr_rate: 0.0,
        paced_requests: 1_000,
        faults: false,
    },
    Plan {
        name: "sim_newtop_n3_10k",
        why: "same group with 10240-byte payloads: MAC hashing and bytes moved do almost all the work, the scheduler almost none; crypto and codec gains show here",
        target: GROUP3_NEWTOP,
        runtime: RuntimeKind::Sim,
        payload: 10_240,
        batch: 1,
        in_flight: 8,
        closed_fs: 120,
        closed_crash: 1_200,
        paced_sim_rate: 5.0,
        paced_thr_rate: 0.0,
        paced_requests: 400,
        faults: false,
    },
    Plan {
        name: "sim_newtop_n9_small",
        why: "9 members, 3-byte payloads: symmetric-order ack fan-out and events per delivery dominate; newtop and simnet.sim do the work, crypto per byte does not",
        target: Target::Group {
            service: Service::NewTop,
            members: 9,
        },
        runtime: RuntimeKind::Sim,
        payload: 3,
        batch: 1,
        in_flight: 8,
        closed_fs: 45,
        closed_crash: 450,
        paced_sim_rate: 1.0,
        paced_thr_rate: 0.0,
        paced_requests: 250,
        faults: false,
    },
    Plan {
        name: "thr_kv_n3_batch8",
        why: "sequenced KV, batch 8, threaded runtime: channel transport, node threads and batching do the work; signatures are amortised 8x, so a crypto gain barely moves it",
        target: GROUP3_KV,
        runtime: RuntimeKind::Threaded,
        payload: 3,
        batch: 8,
        in_flight: 32,
        closed_fs: 2_800,
        closed_crash: 20_000,
        paced_sim_rate: 100.0,
        paced_thr_rate: 1_000.0,
        paced_requests: 1_200,
        faults: false,
    },
    Plan {
        name: "sim_kv_n3_faults",
        why: "sequenced KV (fixed sequencer), unbatched, rolling restart of all members under paced load plus a corrupting follower: recovery, view change and snapshot transfer do the work",
        target: GROUP3_KV,
        runtime: RuntimeKind::Sim,
        payload: 3,
        batch: 1,
        in_flight: 8,
        closed_fs: 1_500,
        closed_crash: 15_000,
        paced_sim_rate: 30.0,
        paced_thr_rate: 0.0,
        paced_requests: 1_000,
        faults: true,
    },
    Plan {
        name: "sim_kv_cluster8_batch8",
        why: "8 shards x 3 members behind ClusterRouter, hash partitioner, batch 8: capacity x shards without a rate bound; harness.cluster routing and batching do the work",
        target: Target::Cluster {
            shards: 8,
            members: 3,
        },
        runtime: RuntimeKind::Sim,
        payload: 3,
        batch: 8,
        in_flight: 512,
        closed_fs: 24_000,
        closed_crash: 60_000,
        paced_sim_rate: 500.0,
        paced_thr_rate: 0.0,
        paced_requests: 3_000,
        faults: false,
    },
];

/// Looks a plan up by its `--workload` name.
pub fn plan(name: &str) -> Option<&'static Plan> {
    PLANS.iter().find(|p| p.name == name)
}

/// What the command line chose.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// `--seed`: reaches every `Scenario::seed` / `Cluster::seed` and nothing
    /// else.
    pub seed: u64,
    /// `--seconds`: how long the workload measures.
    pub seconds: f64,
    /// `--trace 1`: also run the traced repetitions and unit costs.
    pub trace: bool,
    /// `--quick`: an eighth of the requests, two repetitions; smoke use only.
    pub quick: bool,
    /// `--in-flight K`: overrides the closed cells' in-flight bound, to
    /// re-run the doubling check.
    pub in_flight: Option<u32>,
}

impl Options {
    /// False when an option makes the numbers incomparable with a default
    /// run.
    pub fn comparable(&self) -> bool {
        !self.quick && self.in_flight.is_none()
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every measured metric, end-to-end and (traced runs) per-layer.
    pub values: Values,
    /// Requests offered, all cells and repetitions.
    pub attempted: u64,
    /// Requests that neither completed nor died with their own crashed
    /// issuer, plus violated checks.
    pub failed: u64,
    /// Violated output checks, by name.
    pub violations: Vec<String>,
    /// The traced repetitions, for the trace file.
    pub traced: Vec<CellRun>,
    /// Per-cell repetition counts and sample counts, for the human report.
    pub notes: Vec<String>,
}

impl Plan {
    fn generators(&self) -> u64 {
        self.target.generators()
    }

    fn members(&self) -> u32 {
        match self.target {
            Target::Group { members, .. } | Target::Cluster { members, .. } => members,
        }
    }

    fn is_kv(&self) -> bool {
        !matches!(
            self.target,
            Target::Group {
                service: Service::NewTop,
                ..
            }
        )
    }

    fn base_workload(&self) -> Workload {
        Workload::paper_default()
            .payload_size(self.payload)
            .batch_max(self.batch)
    }

    fn closed(&self, protocol: Protocol, runtime: RuntimeKind, opts: &Options) -> CellSpec {
        let mut requests = match protocol {
            Protocol::Crash => self.closed_crash,
            Protocol::FailSignal => self.closed_fs,
        };
        if runtime != self.runtime {
            // The sim twin of a threaded workload runs once, for exact
            // simulated outputs; it does not need a host-timed window.
            requests /= SIM_TWIN_DIVISOR;
        }
        CellSpec {
            kind: "closed",
            target: self.target,
            protocol,
            runtime,
            workload: self
                .base_workload()
                .messages(scale(requests, opts))
                .interval(SimDuration::from_nanos(1))
                .clients(1)
                .max_in_flight(opts.in_flight.unwrap_or(self.in_flight))
                .admission(Admission::Block),
            faults: FaultSchedule::none(),
            retry_deadline: None,
            seed: opts.seed,
            expect: Expect::Clean,
        }
    }

    /// The paced cell, fault-free.  On the faults workload the load comes
    /// from a `ClusterRouter` in front of the group (a one-shard cluster): a
    /// client that stays up while members restart, keeps sending on schedule
    /// and resubmits what a down sequencer dropped, so an outage shows up as
    /// latency instead of as silently lost requests.
    /// [`Runner::under_restarts`] adds the restart schedule.
    fn paced(&self, protocol: Protocol, runtime: RuntimeKind, opts: &Options) -> CellSpec {
        let rate = match runtime {
            RuntimeKind::Sim => self.paced_sim_rate,
            RuntimeKind::Threaded => self.paced_thr_rate,
        };
        let behind_router = self.faults && runtime == RuntimeKind::Sim;
        let (target, requests) = if behind_router {
            let target = Target::Cluster {
                shards: 1,
                members: self.members(),
            };
            (target, self.paced_requests * self.generators())
        } else {
            (self.target, self.paced_requests)
        };
        CellSpec {
            kind: "paced",
            target,
            protocol,
            runtime,
            workload: self
                .base_workload()
                .messages(scale(requests, opts))
                .interval(SimDuration::from_nanos((1e9 / rate) as u64))
                .poisson(),
            faults: FaultSchedule::none(),
            retry_deadline: behind_router.then_some(RETRY_DEADLINE),
            seed: opts.seed,
            expect: Expect::Clean,
        }
    }

    /// The group-shaped twin of the faults workload's paced cell: only the
    /// sequencer's own driver sends, so no request depends on a member that
    /// is down, and every restarted member's driver can be asked for its
    /// `rejoin_latency()` — which the cluster handle cannot.
    fn recovery(&self, protocol: Protocol, opts: &Options) -> CellSpec {
        let mut spec = self.paced(protocol, RuntimeKind::Sim, opts);
        spec.kind = "recovery";
        spec.target = self.target;
        spec.workload = spec.workload.senders(1);
        spec.retry_deadline = None;
        spec
    }

    /// One fail-signal cell whose member-1 follower wrapper corrupts every
    /// output after a clean warm-up.
    fn corrupt(&self, opts: &Options) -> CellSpec {
        const FAULTY: u32 = 1;
        const ACTIVATE_AFTER: u64 = 200;
        CellSpec {
            kind: "corrupt",
            target: self.target,
            protocol: Protocol::FailSignal,
            runtime: RuntimeKind::Sim,
            workload: self
                .base_workload()
                .messages(120)
                .interval(SimDuration::from_nanos((1e9 / self.paced_sim_rate) as u64))
                .poisson(),
            faults: FaultSchedule::none().follower(
                MemberId(FAULTY),
                FaultPlan::after(
                    ACTIVATE_AFTER,
                    FaultKind::CorruptOutputs { probability: 1.0 },
                ),
            ),
            retry_deadline: None,
            seed: opts.seed,
            expect: Expect::FailSignal {
                faulty: FAULTY,
                activate_after: ACTIVATE_AFTER,
            },
        }
    }

    /// The cluster workload's one-shard baseline: same router path, an
    /// eighth of the in-flight bound and of the requests.
    fn one_shard(&self, opts: &Options) -> Option<CellSpec> {
        let Target::Cluster { shards, members } = self.target else {
            return None;
        };
        let mut spec = self.closed(Protocol::FailSignal, RuntimeKind::Sim, opts);
        spec.kind = "one_shard";
        spec.target = Target::Cluster { shards: 1, members };
        spec.workload = spec
            .workload
            .messages(spec.workload.messages / u64::from(shards))
            .max_in_flight(spec.workload.max_in_flight / shards);
        Some(spec)
    }
}

fn scale(requests: u64, opts: &Options) -> u64 {
    if opts.quick {
        (requests / 8).max(16)
    } else {
        requests
    }
}

/// Sim twins of a threaded workload's closed cells offer this many times
/// fewer requests than the host-timed threaded cells.
const SIM_TWIN_DIVISOR: u64 = 2;

/// The router of the faults workload resubmits a command that has not
/// completed within this long.
const RETRY_DEADLINE: SimDuration = SimDuration::from_millis(200);

/// A planned restart takes its member down in a quiet moment: this long
/// after an arrival that is followed by no other for at least
/// [`QUIET_GAP`].  Four fail-signal latencies fit in the offset, so the
/// pipeline has drained.  (A fail-signal member that crashes with frames in
/// flight between its two wrappers loses them, and the pair then — rightly —
/// converts the crash into its fail-signal: that is the paper's semantics,
/// and the corrupt cell's business, not a planned restart's.)
const QUIET_OFFSET: SimDuration = SimDuration::from_millis(80);

/// See [`QUIET_OFFSET`].
const QUIET_GAP: SimDuration = SimDuration::from_millis(100);

/// The first instant at or after `not_before` that lies [`QUIET_OFFSET`]
/// into an arrival gap of at least [`QUIET_GAP`]; after the last arrival
/// everything is quiet.  `arrivals` ascend.
fn quiet_instant(arrivals: &[SimTime], not_before: SimTime) -> SimTime {
    let first = arrivals.partition_point(|&at| at + QUIET_OFFSET < not_before);
    for (i, &at) in arrivals.iter().enumerate().skip(first) {
        let quiet_until = arrivals.get(i + 1).copied();
        if quiet_until.is_none_or(|next| next.duration_since(at) >= QUIET_GAP) {
            return at + QUIET_OFFSET;
        }
    }
    not_before
}

/// Followers first, the sequencer last, one member at a time: each goes
/// down at the first quiet instant after 15 %, 40 % and 65 % of the offered
/// window and stays down for a tenth of it, while requests keep arriving on
/// schedule.
fn rolling_restart(
    members: u32,
    offered_window: SimDuration,
    arrivals: &[SimTime],
) -> (FaultSchedule, Expect) {
    let order: Vec<u32> = (1..members).chain([0]).collect();
    let mut faults = FaultSchedule::none();
    for (k, &member) in order.iter().enumerate() {
        let nominal = SimTime::ZERO + offered_window * (3 + 5 * k as u64) / 20;
        let down = quiet_instant(arrivals, nominal);
        let up = down + offered_window / 10;
        faults = faults
            .crash_member_at(down, MemberId(member))
            .recover_member_at(up, MemberId(member));
    }
    (faults, Expect::Restarts { members: order })
}

const PROTOCOLS: [Protocol; 2] = [Protocol::Crash, Protocol::FailSignal];

fn idx(protocol: Protocol) -> usize {
    match protocol {
        Protocol::Crash => 0,
        Protocol::FailSignal => 1,
    }
}

/// Repetitions of one cell kind, per protocol (`[crash, fs]`).
type Reps = [Vec<CellRun>; 2];

/// Runs and checks cells, and accumulates the workload-wide tallies.
struct Runner<'a> {
    opts: &'a Options,
    spans: &'a mut Spans,
    outcome: Outcome,
}

impl Runner<'_> {
    fn run(
        &mut self,
        spec: &CellSpec,
        rep: &str,
        traced: bool,
        slicing: Option<Slicing>,
    ) -> CellRun {
        let run = run_cell(spec, rep, traced, slicing, self.spans);
        self.tally(spec, &run);
        run
    }

    fn tally(&mut self, spec: &CellSpec, run: &CellRun) {
        let load = run.facts.load;
        match spec.expect {
            Expect::Clean => {
                self.outcome.attempted += load.offered;
                self.outcome.failed += load.offered.saturating_sub(run.facts.completions);
            }
            // Under restarts the gate also releases what a crashing issuer
            // had in flight: those requests died with their client and are
            // reported as `faults.abandoned_in_flight`, not as failures of
            // the system.
            Expect::Restarts { .. } => {
                self.outcome.attempted += load.offered;
                self.outcome.failed += load.offered.saturating_sub(load.completed);
            }
            // A fail-signalled member stops serving by design: the cell is
            // a check of the conversion, not a measurement of service, and
            // its requests are neither attempted nor failed operations.
            Expect::FailSignal { .. } => {}
        }
        self.outcome.failed += run.violations.len() as u64;
        self.outcome
            .violations
            .extend(run.violations.iter().cloned());
    }

    /// Both protocols of `make`, once each.
    fn pair(&mut self, make: impl Fn(Protocol) -> CellSpec, rep: &str) -> Reps {
        PROTOCOLS.map(|protocol| vec![self.run(&make(protocol), rep, false, None)])
    }

    /// Runs `spec` (a fault-free open-loop cell) under a rolling restart of
    /// every member.  A fault-free, traced pilot run of the very same cell
    /// yields the arrival instants — the arrival process does not depend on
    /// what the system does with the requests — and the restarts are placed
    /// in their quiet gaps.  The faulted run is traced too: the trace is
    /// the only fail-signal probe a cluster offers.
    fn under_restarts(&mut self, spec: &CellSpec, members: u32) -> CellRun {
        let mut pilot = spec.clone();
        pilot.kind = "pilot";
        let pilot = self.run(&pilot, "0", true, None);
        let arrivals = &pilot.trace.as_ref().expect("traced pilot").generator_sends;
        let offered_window = spec.workload.interval * spec.workload.messages;
        let mut faulted = spec.clone();
        (faulted.faults, faulted.expect) = rolling_restart(members, offered_window, arrivals);
        self.run(&faulted, "0", true, None)
    }

    /// Every run of one simulator cell must report the same simulated facts
    /// as the first.
    fn check_determinism<'r>(&mut self, runs: impl IntoIterator<Item = &'r CellRun>) {
        let mut runs = runs.into_iter();
        let Some(first) = runs.next() else { return };
        for rep in runs {
            if rep.facts != first.facts {
                let message = format!(
                    "determinism: a repetition of {} produced different simulated facts",
                    rep.label
                );
                self.outcome.failed += 1;
                self.outcome.violations.push(message);
            }
        }
    }
}

fn host_cpu_us_per_delivery(run: &CellRun) -> f64 {
    run.host.run_cpu_s * 1e6 / run.facts.deliveries as f64
}

fn capacity_per_s(facts: &Facts) -> f64 {
    facts.completions as f64 * 1e9 / facts.window_ns as f64
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

fn per_delivery(count: u64, facts: &Facts) -> f64 {
    count as f64 / facts.deliveries as f64
}

fn medians(reps: &[CellRun], f: impl Fn(&CellRun) -> f64) -> f64 {
    stats::median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// `build()` calls per set-up sample: after every closed repetition the cell
/// is built this many times in a row and the fastest build is one sample;
/// `setup_s` is the median of the samples.
const SETUP_BATCH: u32 = 25;

/// Host wall time one slice of a sliced simulator run aims for: long next to
/// the clock's resolution (two `Instant::now()` calls, ~50 ns), short next to
/// the host's slow phases.  Finer slices can only bring the sum of per-slice
/// minima closer to the undisturbed time.
const SLICE_TARGET_S: f64 = 0.0005;

/// How to slice later repetitions of `spec`, given one finished run of it.
fn slicing_of(spec: &CellSpec, earlier: &CellRun) -> Slicing {
    let active = spec.workload.start_delay + SimDuration::from_nanos(earlier.facts.window_ns);
    Slicing {
        active_until: SimTime::ZERO + active,
        slices: ((earlier.host.run_wall_s / SLICE_TARGET_S) as u32).clamp(20, 4_000),
    }
}

/// Host nanoseconds per ordered delivery of a sliced simulator cell with the
/// host's slow phases taken out: slice `i` is identical work in every
/// repetition, so the fastest sample of each slice, summed, is the whole
/// cell at the host's undisturbed pace.
fn undisturbed_ns_per_delivery(reps: &[CellRun]) -> f64 {
    let slices = reps[0].slice_wall_ns.len();
    let total: f64 = (0..slices)
        .map(|i| stats::min(&reps.iter().map(|r| r.slice_wall_ns[i]).collect::<Vec<_>>()))
        .sum();
    total / reps[0].facts.deliveries as f64
}

/// The two host-clock end-to-end values of one protocol's closed cells:
/// CPU microseconds per ordered delivery, ordered deliveries per wall second.
///
/// Simulator cells are single-threaded, so their undisturbed wall time is
/// both their CPU cost and the inverse of the wall pace the simulator can
/// sustain.  Threaded
/// cells take medians over repetitions: process CPU (all threads) around
/// `run_until`, and deliveries over the wall window from first submission
/// to last completion.
fn host_cost(runtime: RuntimeKind, reps: &[CellRun]) -> (f64, f64) {
    match runtime {
        RuntimeKind::Sim => {
            let ns = undisturbed_ns_per_delivery(reps);
            (ns / 1e3, 1e9 / ns)
        }
        RuntimeKind::Threaded => (
            medians(reps, host_cpu_us_per_delivery),
            medians(reps, |r| {
                r.facts.deliveries as f64 * 1e9 / r.facts.window_ns as f64
            }),
        ),
    }
}

/// Runs one workload and reduces it to the declared metrics.
pub fn measure(plan: &Plan, opts: &Options, spans: &mut Spans) -> Outcome {
    let started = Instant::now();
    let mut runner = Runner {
        opts,
        spans,
        outcome: Outcome::default(),
    };
    if CompressBackend::active() != CompressBackend::Simd {
        runner.outcome.failed += 1;
        runner.outcome.violations.push(format!(
            "backend: the active SHA-256 backend is {:?}, not Simd",
            CompressBackend::active()
        ));
    }
    let threaded = plan.runtime == RuntimeKind::Threaded;
    let sim = RuntimeKind::Sim;

    // Simulated-clock latency: one paced cell per protocol, outputs exact.
    let sim_paced: Reps = if plan.faults {
        PROTOCOLS.map(|p| vec![runner.under_restarts(&plan.paced(p, sim, opts), plan.members())])
    } else {
        runner.pair(|p| plan.paced(p, sim, opts), "0")
    };

    // Closed cells on the host-timed runtime: an untimed warm-up pair (which
    // also tells the simulator cells where their active window ends), then
    // interleaved repetitions until the measuring time is used up.
    let min_reps = if opts.quick { 2 } else { 10 };
    let mut sim_twin: Reps = Default::default();
    let mut thr_paced: Reps = Default::default();
    if threaded {
        sim_twin = PROTOCOLS.map(|p| {
            let spec = plan.closed(p, sim, opts);
            let pilot = runner.run(&spec, "pilot", false, None);
            vec![runner.run(&spec, "0", false, Some(slicing_of(&spec, &pilot)))]
        });
        thr_paced = runner.pair(|p| plan.paced(p, plan.runtime, opts), "0");
    }
    let warmup = runner.pair(|p| plan.closed(p, plan.runtime, opts), "warmup");
    let slicing = PROTOCOLS
        .map(|p| (!threaded).then(|| slicing_of(&plan.closed(p, sim, opts), &warmup[idx(p)][0])));
    let mut closed: Reps = Default::default();
    let mut setups: [Vec<f64>; 2] = Default::default();
    while closed[0].len() < min_reps || started.elapsed().as_secs_f64() < opts.seconds {
        let rep = closed[0].len().to_string();
        for protocol in PROTOCOLS {
            let spec = plan.closed(protocol, plan.runtime, opts);
            let run = runner.run(&spec, &rep, false, slicing[idx(protocol)]);
            closed[idx(protocol)].push(run);
            // Set-up is sampled between the repetitions, so its samples are
            // spread over the host's fast and slow phases like theirs.
            setups[idx(protocol)].push(time_builds(&spec, SETUP_BATCH, runner.spans));
        }
    }
    if !threaded {
        for protocol in PROTOCOLS {
            runner.check_determinism(warmup[idx(protocol)].iter().chain(&closed[idx(protocol)]));
        }
    }
    // Where the simulated-clock closed-cell facts come from.
    let sim_closed = if threaded { &sim_twin } else { &closed };

    let corrupt = plan
        .faults
        .then(|| runner.run(&plan.corrupt(opts), "0", opts.trace, None));

    // ---- end-to-end metrics --------------------------------------------
    let mut values = Values::new();
    let mut setup_s = 0.0;
    for protocol in PROTOCOLS {
        let tag = protocol_tag(protocol);
        let reps = &closed[idx(protocol)];
        let closed_sim = &sim_closed[idx(protocol)][0].facts;
        let paced_sim = &sim_paced[idx(protocol)][0].facts;
        setup_s += stats::median(&setups[idx(protocol)]);
        let (cpu_us, wall_per_s) = host_cost(plan.runtime, reps);
        let names = &METRICS[idx(protocol)];
        values.insert(names.cpu_us_per_delivery, cpu_us);
        values.insert(names.sim_capacity_per_s, capacity_per_s(closed_sim));
        values.insert(names.sim_latency_ms_p50, ms(paced_sim.latency_p50_ns));
        if let Some(p99) = names.sim_latency_ms_p99 {
            values.insert(p99, ms(paced_sim.latency_p99_ns));
        }
        values.insert(names.wall_capacity_per_s, wall_per_s);
        runner.outcome.notes.push(format!(
            "{tag}: {} closed repetitions of {} requests ({} deliveries, {} host-timed slices each), {} paced latency samples (highest supported percentile p{})",
            reps.len(),
            reps[0].facts.load.offered,
            reps[0].facts.deliveries,
            reps[0].slice_wall_ns.len(),
            paced_sim.completions,
            stats::highest_supported_percentile(paced_sim.completions as usize)
                .map_or("-".to_string(), |p| format!("{}", p * 100.0)),
        ));
        if !opts.quick && paced_sim.completions < 1_100 {
            runner.outcome.failed += 1;
            runner.outcome.violations.push(format!(
                "samples: {tag} paced cell completed {} requests, p99 needs 1100",
                paced_sim.completions
            ));
        }
    }
    values.insert("setup_s", setup_s);

    // ---- per-layer metrics (traced run) ----------------------------------
    if opts.trace {
        per_layer(
            plan,
            &mut runner,
            &mut values,
            Measured {
                closed: &closed,
                sim_closed,
                sim_paced: &sim_paced,
                thr_paced: &thr_paced,
                corrupt: corrupt.as_ref(),
            },
        );
    }
    values.insert("peak_rss_mb", host::peak_rss_mb());

    let mut outcome = runner.outcome;
    outcome.values = values;
    outcome
}

/// The end-to-end metric names of one protocol.
struct ProtocolMetrics {
    cpu_us_per_delivery: &'static str,
    sim_capacity_per_s: &'static str,
    sim_latency_ms_p50: &'static str,
    /// Declared for the fail-signal protocol only.
    sim_latency_ms_p99: Option<&'static str>,
    wall_capacity_per_s: &'static str,
}

/// Indexed like [`PROTOCOLS`].
const METRICS: [ProtocolMetrics; 2] = [
    ProtocolMetrics {
        cpu_us_per_delivery: "crash_cpu_us_per_delivery",
        sim_capacity_per_s: "crash_sim_capacity_per_s",
        sim_latency_ms_p50: "crash_sim_latency_ms_p50",
        sim_latency_ms_p99: None,
        wall_capacity_per_s: "crash_wall_capacity_per_s",
    },
    ProtocolMetrics {
        cpu_us_per_delivery: "fs_cpu_us_per_delivery",
        sim_capacity_per_s: "fs_sim_capacity_per_s",
        sim_latency_ms_p50: "fs_sim_latency_ms_p50",
        sim_latency_ms_p99: Some("fs_sim_latency_ms_p99"),
        wall_capacity_per_s: "fs_wall_capacity_per_s",
    },
];

/// The untraced repetitions the per-layer section builds on.
struct Measured<'a> {
    closed: &'a Reps,
    sim_closed: &'a Reps,
    sim_paced: &'a Reps,
    thr_paced: &'a Reps,
    corrupt: Option<&'a CellRun>,
}

fn per_layer(plan: &Plan, runner: &mut Runner<'_>, values: &mut Values, m: Measured<'_>) {
    let opts = runner.opts;
    let sim = RuntimeKind::Sim;
    let threaded = plan.runtime == RuntimeKind::Threaded;
    const CRASH: usize = 0;
    const FS: usize = 1;

    // One extra, traced repetition of every simulator cell.  The closed
    // cells are sliced like the untraced ones, so the two paces compare, and
    // sample the scheduler's queue depth at mid-window.
    let mut traced: Reps = Default::default();
    let mut traced_paced: Reps = Default::default();
    for protocol in PROTOCOLS {
        let spec = plan.closed(protocol, sim, opts);
        let slicing = slicing_of(&spec, &m.sim_closed[idx(protocol)][0]);
        let run = runner.run(&spec, "traced", true, Some(slicing));
        runner.check_determinism([&m.sim_closed[idx(protocol)][0], &run]);
        traced[idx(protocol)].push(run);
        // The faults workload's paced cells ran traced already.
        let run = if plan.faults {
            m.sim_paced[idx(protocol)][0].clone()
        } else {
            let run = runner.run(&plan.paced(protocol, sim, opts), "traced", true, None);
            runner.check_determinism([&m.sim_paced[idx(protocol)][0], &run]);
            run
        };
        traced_paced[idx(protocol)].push(run);
    }
    let recovery: Option<[CellRun; 2]> = plan
        .faults
        .then(|| PROTOCOLS.map(|p| runner.under_restarts(&plan.recovery(p, opts), plan.members())));
    let one_shard = plan
        .one_shard(opts)
        .map(|spec| runner.run(&spec, "0", false, None));

    let fs_closed = &m.sim_closed[FS][0].facts;
    let crash_closed = &m.sim_closed[CRASH][0].facts;
    let fs_trace = traced[FS][0].trace.as_ref().expect("traced repetition");
    let pending = fs_trace
        .pending_events
        .unwrap_or((opts.in_flight.unwrap_or(plan.in_flight)) as usize);
    let round_bytes = (plan.payload + 16) * plan.batch as usize;
    let unit = units::measure(round_bytes, pending, runner.spans);

    // Host cost of the fail-signal closed cell, as the end-to-end metric
    // reduces it, and its spread over the repetitions.
    let fs_cpu_reps: Vec<f64> = m.closed[FS].iter().map(host_cpu_us_per_delivery).collect();
    let (fs_cpu, _) = host_cost(plan.runtime, &m.closed[FS]);
    let (crash_cpu, _) = host_cost(plan.runtime, &m.closed[CRASH]);
    let quartiles = stats::quartiles(&fs_cpu_reps).unwrap_or([fs_cpu; 3]);

    // common
    values.insert("common.codec.encode_ns", unit.encode_ns);
    values.insert("common.codec.decode_ns", unit.decode_ns);
    values.insert(
        "common.codec.fs_bytes_per_delivery",
        per_delivery(fs_closed.net.bytes_sent, fs_closed),
    );
    values.insert(
        "common.codec.crash_bytes_per_delivery",
        per_delivery(crash_closed.net.bytes_sent, crash_closed),
    );

    // The simulator's own fail-signal cost: the base of every share below
    // (on the threaded workload this is the sim twin, not the threaded cell).
    let untraced_sim_cpu = undisturbed_ns_per_delivery(&m.sim_closed[FS]) / 1e3;

    // crypto: protocol-implied operations x unit cost, for the simulator
    // run.  Every signed output costs its wrapper two MACs over its own
    // bytes (content signature, counter-signature), priced on the measured
    // size line.  Verification is all but free *on the simulator*: every
    // node shares one host thread, and signing seeds that thread's
    // verification memo, so the partner's check of the candidate and every
    // destination's check of the double signature are memo probes.
    let outputs = fs_trace.frames.signed_outputs as f64;
    let verified = fs_trace.frames.double_signed() as f64;
    let signed_bytes = (fs_trace.frames.signed_output_bytes as f64
        - outputs * unit.envelope_bytes as f64)
        .max(0.0);
    let crypto_ns = 2.0 * (outputs * unit.mac_base_ns + signed_bytes * unit.mac_per_byte_ns)
        + (outputs + verified) * unit.verify_memo_ns;
    let crypto_us = crypto_ns / 1e3 / fs_closed.deliveries as f64;
    values.insert("crypto.sign_ns", unit.sign_ns);
    values.insert("crypto.verify_ns", unit.verify_ns);
    values.insert("crypto.verify_memo_ns", unit.verify_memo_ns);
    values.insert(
        "crypto.verify_batch8_ns_per_mac",
        unit.verify_batch8_ns_per_mac,
    );
    values.insert(
        "crypto.hmac_mb_per_s",
        unit.signing_bytes as f64 * 1e3 / unit.sign_ns,
    );
    values.insert("crypto.est_us_per_delivery", crypto_us);
    values.insert("crypto.est_share", crypto_us / untraced_sim_cpu);

    // failsignal
    let fs_paced = &m.sim_paced[FS][0].facts;
    let crash_paced = &m.sim_paced[CRASH][0].facts;
    values.insert("failsignal.sign_output_ns", unit.sign_output_ns);
    values.insert("failsignal.accept_ns", unit.accept_ns);
    values.insert(
        "failsignal.pair_frames_per_delivery",
        per_delivery(fs_trace.frames.of(FrameClass::Pair), fs_closed),
    );
    values.insert(
        "failsignal.external_frames_per_delivery",
        per_delivery(fs_trace.frames.of(FrameClass::External), fs_closed),
    );
    values.insert("failsignal.lift_cpu_ratio", fs_cpu / crash_cpu);
    values.insert(
        "failsignal.lift_frames_ratio",
        per_delivery(fs_closed.net.messages_sent, fs_closed)
            / per_delivery(crash_closed.net.messages_sent, crash_closed),
    );
    values.insert(
        "failsignal.lift_sim_latency_ratio",
        fs_paced.latency_p50_ns as f64 / crash_paced.latency_p50_ns as f64,
    );
    let every_cell = m
        .closed
        .iter()
        .chain(m.sim_closed)
        .chain(m.sim_paced)
        .chain(m.thr_paced)
        .flatten()
        .chain(m.corrupt);
    values.insert(
        "failsignal.fail_signals",
        f64::from(every_cell.map(|r| r.facts.fail_signalled).sum::<u32>()),
    );
    let detect_ns = m
        .corrupt
        .and_then(|r| r.trace.as_ref())
        .and_then(|t| t.detect_ns);
    values.insert("failsignal.detect_sim_ms", detect_ns.map_or(0.0, ms));

    // newtop / smr: the crash cell is the bare ordering protocol.
    let crash_frames = per_delivery(crash_closed.net.messages_sent, crash_closed);
    let crash_events = per_delivery(crash_closed.net.events_processed, crash_closed);
    let (newtop_frames, newtop_events) = if plan.is_kv() {
        (0.0, 0.0)
    } else {
        (crash_frames, crash_events)
    };
    values.insert("newtop.frames_per_delivery", newtop_frames);
    values.insert("newtop.sim_events_per_delivery", newtop_events);
    values.insert(
        "smr.frames_per_command",
        if plan.is_kv() {
            crash_closed.net.messages_sent as f64 / crash_closed.completions as f64
        } else {
            0.0
        },
    );
    let rejoins = |protocol: usize| -> &[u64] {
        recovery
            .as_ref()
            .map_or(&[], |cells| &cells[protocol].facts.rejoin_ns)
    };
    let worst = |rejoins: &[u64]| rejoins.iter().copied().max().map_or(0.0, ms);
    let all_rejoins: Vec<f64> = rejoins(FS)
        .iter()
        .chain(rejoins(CRASH))
        .map(|&ns| ms(ns))
        .collect();
    values.insert("smr.fs_rejoin_sim_ms", worst(rejoins(FS)));
    values.insert("smr.crash_rejoin_sim_ms", worst(rejoins(CRASH)));
    values.insert(
        "smr.snapshot_rejoin_sim_ms_p50",
        if all_rejoins.is_empty() {
            0.0
        } else {
            stats::median(&all_rejoins)
        },
    );

    // simnet.sim
    let sched_ns = fs_closed.net.events_processed as f64 * unit.sched_hold_ns;
    // One traced repetition against the typical single untraced one: both
    // carry one repetition's worth of host noise.
    let whole_run_wall = |r: &CellRun| r.slice_wall_ns.iter().sum::<f64>();
    let trace_overhead =
        whole_run_wall(&traced[FS][0]) / medians(&m.sim_closed[FS], whole_run_wall);
    values.insert(
        "simnet.sim.fs_events_per_delivery",
        per_delivery(fs_closed.net.events_processed, fs_closed),
    );
    values.insert("simnet.sim.crash_events_per_delivery", crash_events);
    values.insert(
        "simnet.sim.timers_per_delivery",
        per_delivery(fs_closed.net.timers_fired, fs_closed),
    );
    values.insert(
        "simnet.sim.cpu_ns_per_event",
        untraced_sim_cpu * 1e3 * fs_closed.deliveries as f64
            / fs_closed.net.events_processed as f64,
    );
    values.insert("simnet.sched.pending_events", pending as f64);
    values.insert("simnet.sched.hold_ns", unit.sched_hold_ns);
    values.insert("simnet.trace.overhead_ratio", trace_overhead);

    // simnet.threaded: zero on simulator workloads, where no thread runs.
    let fs_host = &m.closed[FS];
    values.insert(
        "simnet.threaded.busy_share",
        medians(fs_host, |r| {
            r.facts.net.busy_ns as f64 / 1e9 / (r.host.run_wall_s * f64::from(plan.members()))
        }),
    );
    values.insert(
        "simnet.threaded.cores_used",
        medians(fs_host, |r| r.host.run_cpu_s / r.host.run_wall_s),
    );
    let thr_latency = |reps: &[CellRun], pick: fn(&Facts) -> u64| {
        reps.first().map_or(0.0, |r| ms(pick(&r.facts)))
    };
    values.insert(
        "simnet.threaded.fs_wall_latency_ms_p50",
        thr_latency(&m.thr_paced[FS], |f| f.latency_p50_ns),
    );
    values.insert(
        "simnet.threaded.fs_wall_latency_ms_p99",
        thr_latency(&m.thr_paced[FS], |f| f.latency_p99_ns),
    );
    values.insert(
        "simnet.threaded.crash_wall_latency_ms_p50",
        thr_latency(&m.thr_paced[CRASH], |f| f.latency_p50_ns),
    );
    values.insert(
        "simnet.threaded.settle_s",
        medians(fs_host, |r| r.host.settle_wall_s),
    );

    // simnet.load: the paced cell on the host-timed runtime.  Achieved over
    // planned rate, taking the arrival span as the window less one median
    // latency (the last request's own completion time).
    let host_paced = if threaded {
        &m.thr_paced[FS][0]
    } else {
        &m.sim_paced[FS][0]
    };
    let rate = if threaded {
        plan.paced_thr_rate
    } else {
        plan.paced_sim_rate
    };
    let load = host_paced.facts.load;
    let arrival_span_s = host_paced
        .facts
        .window_ns
        .saturating_sub(host_paced.facts.latency_p50_ns) as f64
        / 1e9;
    let generators = plan
        .paced(Protocol::FailSignal, plan.runtime, opts)
        .target
        .generators();
    let achieved = load.offered as f64 / generators as f64 / arrival_span_s;
    values.insert("simnet.load.offered_rate_error", achieved / rate);
    values.insert(
        "simnet.load.shed_ratio",
        load.shed as f64 / load.offered as f64,
    );
    values.insert(
        "simnet.load.blocked_ratio",
        fs_closed.load.blocked as f64 / fs_closed.load.offered as f64,
    );

    // harness
    values.insert(
        "harness.build_s_fs",
        medians(fs_host, |r| r.host.build_wall_s),
    );
    values.insert(
        "harness.build_s_crash",
        medians(&m.closed[CRASH], |r| r.host.build_wall_s),
    );
    values.insert(
        "harness.inspect_s",
        medians(fs_host, |r| r.host.inspect_wall_s),
    );
    let shards = match plan.target {
        Target::Cluster { shards, .. } => f64::from(shards),
        Target::Group { .. } => 1.0,
    };
    values.insert(
        "harness.cluster.scaling_efficiency",
        one_shard.as_ref().map_or(0.0, |one| {
            capacity_per_s(fs_closed) / (shards * capacity_per_s(&one.facts))
        }),
    );
    values.insert(
        "harness.cluster.router_frames_per_command",
        fs_trace.frames.of(FrameClass::Router) as f64 / fs_closed.completions as f64,
    );

    // faults
    let fault_cells = [&m.sim_paced[CRASH][0], &m.sim_paced[FS][0]];
    values.insert(
        "faults.injected",
        m.corrupt.map_or(0.0, |r| r.facts.injected as f64),
    );
    values.insert(
        "faults.dropped_down",
        fault_cells
            .iter()
            .map(|r| r.facts.net.dropped_down as f64)
            .sum(),
    );
    values.insert(
        "faults.lifecycle_events",
        fault_cells
            .iter()
            .map(|r| r.facts.net.lifecycle_events as f64)
            .sum(),
    );
    values.insert(
        "faults.abandoned_in_flight",
        recovery
            .iter()
            .flatten()
            .map(|r| r.facts.load.completed.saturating_sub(r.facts.completions))
            .sum::<u64>() as f64,
    );

    // bench
    let codec_ns = fs_closed.net.messages_sent as f64 * unit.encode_ns
        + fs_closed.net.messages_delivered as f64 * unit.decode_ns;
    let attributed_us = crypto_us + (codec_ns + sched_ns) / 1e3 / fs_closed.deliveries as f64;
    values.insert("bench.reps", fs_host.len() as f64);
    values.insert("bench.cpu_rep_median_us", quartiles[1]);
    values.insert("bench.cpu_rep_iqr_us", quartiles[2] - quartiles[0]);
    values.insert("bench.latency_samples", fs_paced.completions as f64);
    values.insert(
        "bench.unattributed_us_per_delivery",
        untraced_sim_cpu - attributed_us,
    );
    values.insert(
        "bench.failed_ratio",
        runner.outcome.failed as f64 / runner.outcome.attempted.max(1) as f64,
    );

    runner.outcome.traced.extend(
        traced
            .into_iter()
            .chain(traced_paced)
            .flatten()
            .chain(recovery.into_iter().flatten())
            .chain(m.corrupt.filter(|r| r.trace.is_some()).cloned()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_named_once_and_sized_for_p99() {
        for (i, plan) in PLANS.iter().enumerate() {
            assert!(PLANS[..i].iter().all(|p| p.name != plan.name));
            assert!(self::plan(plan.name).is_some());
            assert!(
                plan.why.len() <= 200 && !plan.why.contains('\n'),
                "{}",
                plan.name
            );
            assert!(
                plan.paced_requests * plan.generators() >= 1_100,
                "{}: p99 needs 1100 completions",
                plan.name
            );
            assert_eq!(
                plan.runtime == RuntimeKind::Threaded,
                plan.name.starts_with("thr_")
            );
        }
        assert!(plan("no_such_workload").is_none());
    }

    #[test]
    fn restarts_wait_for_a_quiet_gap() {
        let at = |ms: u64| SimTime::from_millis(ms);
        // Arrivals every 30 ms, except a 120 ms gap after t = 3 150 ms.
        let arrivals: Vec<SimTime> = (0..200)
            .map(|k| at(30 * k + if k > 105 { 90 } else { 0 }))
            .collect();
        assert_eq!(arrivals[105], at(3_150));
        assert_eq!(arrivals[106], at(3_270));
        assert_eq!(
            quiet_instant(&arrivals, at(3_000)),
            at(3_150) + QUIET_OFFSET
        );
        // Asked for later than that gap, only the end of the arrivals is quiet.
        assert_eq!(
            quiet_instant(&arrivals, at(3_300)),
            arrivals[199] + QUIET_OFFSET
        );
        // No arrivals at all: any instant is quiet.
        assert_eq!(quiet_instant(&[], at(77)), at(77));
        assert_eq!(quiet_instant(&arrivals, at(60_000)), at(60_000));
    }

    #[test]
    fn rolling_restart_takes_members_down_one_at_a_time() {
        let window = SimDuration::from_secs(20);
        let (faults, expect) = rolling_restart(3, window, &[]);
        assert_eq!(
            expect,
            Expect::Restarts {
                members: vec![1, 2, 0]
            }
        );
        let entries = faults.lifecycle_entries();
        assert_eq!(entries.len(), 6);
        let times: Vec<u64> = entries
            .iter()
            .map(|e| e.at.as_nanos() / 1_000_000)
            .collect();
        // down/up pairs at 15 %, 40 % and 65 % of the window, 10 % long.
        assert_eq!(times, vec![3_000, 5_000, 8_000, 10_000, 13_000, 15_000]);
    }

    #[test]
    fn quick_runs_are_marked_incomparable() {
        let mut opts = Options {
            seed: 1,
            seconds: 1.0,
            trace: false,
            quick: false,
            in_flight: None,
        };
        assert!(opts.comparable());
        assert_eq!(scale(800, &opts), 800);
        opts.quick = true;
        assert!(!opts.comparable());
        assert_eq!(scale(800, &opts), 100);
        opts.quick = false;
        opts.in_flight = Some(16);
        assert!(!opts.comparable());
    }
}
