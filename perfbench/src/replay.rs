//! The traced pass: replays a `ScenarioSpec` through the public call of
//! each layer, exactly as `tapestry_workload::runner::run_timed` drives
//! it, and records a span around every call. The replay must consume the
//! runner's random stream in the same order, so its engine totals equal
//! the untraced run's; `main` checks that they do before it reports any
//! per-layer number.

use crate::spans::Spans;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use tapestry_core::TapestryNetwork;
use tapestry_id::{root_id, Guid};
use tapestry_membership::JoinCoalescer;
use tapestry_sim::{NodeIdx, SimStats, SimTime};
use tapestry_trace::metrics;
use tapestry_workload::{ChurnEvent, PopularitySampler, ScenarioSpec};

/// The salt the runner mixes into the scenario seed for its op stream.
const RUNNER_RNG_SALT: u64 = 0x5CE7_A1E5;

/// The runner's member sample for the Theorem 2 root check.
const ROOT_CHECK_MEMBER_SAMPLE: usize = 256;

/// The layer a span belongs to, by span name.
pub fn layer_of(span: &str) -> &'static str {
    match span {
        "bootstrap" => "bootstrap",
        "publish" | "drain_results" => "publish",
        "run_until" | "run_to_idle" => "dispatch",
        "locate_async" | "publish_async" | "probe_all_async" | "optimize_all_async" => "inject",
        "check_property1" => "checks.prop1",
        "check_property2" => "checks.prop2",
        "distinct_roots_sampled" => "checks.thm2",
        "insert_node_via" | "coalescer.request" | "coalescer.pump" | "coalescer.force" | "kill"
        | "leave_async" | "finish_bookkeeping" => "membership",
        "drop" => "teardown",
        "to_json" => "report",
        "harvest" => "runner.harvest",
        // The replay root: event generation and the runner's other
        // per-phase bookkeeping.
        _ => "runner",
    }
}

/// What one traced replay observed.
#[derive(Debug)]
pub struct Replay {
    /// Engine events processed over the whole run.
    pub events: u64,
    /// Overlay messages sent over the whole run.
    pub messages: u64,
    /// Timers fired over the whole run.
    pub timers: u64,
    /// Locates issued, over all phases.
    pub issued: u64,
    /// Locates that found a live server, over all phases.
    pub found_live: u64,
    /// Events processed inside `run_until` / `run_to_idle` spans.
    pub dispatch_events: u64,
    /// Events processed inside the catalog publish loop.
    pub publish_events: u64,
    /// Events processed per kind (`tapestry_sim::EVENT_KINDS` order).
    pub events_by_kind: [u64; 3],
    /// Largest pending-event count seen at a dispatch-span boundary.
    pub queue_depth_max: usize,
    /// Mean routing-table entries per node right after bootstrap.
    pub avg_table_entries: f64,
    /// Property 2 slots checked, over all checked phases.
    pub prop2_pairs: u64,
    /// Coalesced join waves launched.
    pub waves: u64,
    /// The engine's named counters at the end of the run.
    pub stats: SimStats,
    /// Index of the replay's root span.
    pub root_span: usize,
}

/// Per-phase locate accounting, mirroring the runner's `OpStats`.
#[derive(Debug, Default)]
struct Ops {
    issued: u64,
    found_live: u64,
}

/// The replay's state besides the network: spans and dispatch probes.
struct Tracer<'a> {
    spans: &'a mut Spans,
    dispatch_events: u64,
    queue_depth_max: usize,
}

impl Tracer<'_> {
    fn dispatch(
        &mut self,
        net: &mut TapestryNetwork,
        name: &'static str,
        deadline: Option<SimTime>,
    ) {
        let before = net.engine().events_processed();
        self.queue_depth_max = self.queue_depth_max.max(net.engine().pending());
        let open = self.spans.enter(name);
        match deadline {
            Some(t) => net.run_until(t),
            None => net.run_to_idle(),
        };
        self.spans.exit(open);
        self.queue_depth_max = self.queue_depth_max.max(net.engine().pending());
        self.dispatch_events += net.engine().events_processed() - before;
    }

    fn run_until(&mut self, net: &mut TapestryNetwork, t: SimTime) {
        self.dispatch(net, "run_until", Some(t));
    }

    fn run_to_idle(&mut self, net: &mut TapestryNetwork) {
        self.dispatch(net, "run_to_idle", None);
    }
}

/// One catalog object and its current server.
struct ObjectRec {
    guid: Guid,
    server: NodeIdx,
}

/// Membership operations in flight.
#[derive(Default)]
struct Membership {
    coalescer: Option<JoinCoalescer>,
    free: Vec<NodeIdx>,
    joining: Vec<NodeIdx>,
    leaving: Vec<NodeIdx>,
}

enum Action {
    Op,
    Churn(ChurnEvent),
}

/// Replay `spec` with spans around every layer call.
pub fn replay(spec: &ScenarioSpec, spans: &mut Spans) -> Result<Replay, String> {
    spec.validate()?;
    if spec.trace_sample > 0 || spec.metrics_window > 0 {
        return Err("the traced replay covers runs without hop tracing or telemetry".into());
    }
    let root_span = spans.len();
    let root = spans.enter("run");
    let mut tr = Tracer { spans, dispatch_events: 0, queue_depth_max: 0 };

    let bootstrap = tr.spans.enter("bootstrap");
    let space = spec.build_space();
    let total_points = space.len();
    let mut net = TapestryNetwork::bootstrap_threaded(
        spec.cfg,
        space,
        spec.seed,
        spec.initial_nodes,
        spec.threads,
    );
    tr.spans.exit(bootstrap);
    let avg_table_entries = net.snapshot().avg_table_entries;

    let mut rng = StdRng::seed_from_u64(spec.seed ^ RUNNER_RNG_SALT);
    let mut mem = Membership {
        coalescer: spec.join_batch.map(JoinCoalescer::new),
        free: (spec.initial_nodes..total_points).rev().collect(),
        ..Default::default()
    };

    let publish_start = net.engine().events_processed();
    let mut objects = Vec::with_capacity(spec.objects);
    for _ in 0..spec.objects {
        let server = random_member(&net, &mut rng);
        let guid = net.random_guid();
        tr.spans.time("publish", || net.publish(server, guid));
        objects.push(ObjectRec { guid, server });
    }
    tr.spans.time("drain_results", || net.drain_results());
    let publish_events = net.engine().events_processed() - publish_start;

    let mut total = Ops::default();
    let mut prop2_pairs = 0u64;
    for phase in &spec.phases {
        let start = net.engine().now();
        let end = start + phase.duration;
        let mut events: Vec<(SimTime, Action)> = Vec::new();
        for t in phase.traffic.arrival.times(start, end, &mut rng) {
            events.push((t, Action::Op));
        }
        for c in &phase.churn {
            for (t, ev) in c.events(start, end, &mut rng) {
                events.push((t, Action::Churn(ev)));
            }
        }
        if phase.target_nodes.is_some() {
            return Err("the traced replay does not cover node-count schedules".into());
        }
        events.sort_by_key(|&(t, _)| t);

        let sampler = PopularitySampler::new(phase.traffic.popularity, spec.objects);
        let mut ops = Ops::default();
        let mut pending: BTreeMap<NodeIdx, u64> = BTreeMap::new();
        for (t, action) in events {
            tr.run_until(&mut net, t);
            match action {
                Action::Op => {
                    let write = phase.traffic.write_fraction > 0.0
                        && rng.gen_range(0.0..1.0) < phase.traffic.write_fraction;
                    let obj = &mut objects[sampler.sample(&mut rng)];
                    if write {
                        if !net.engine().alive(obj.server) {
                            obj.server = random_member(&net, &mut rng);
                        }
                        tr.spans.time("publish_async", || net.publish_async(obj.server, obj.guid));
                    } else {
                        let origin = random_member(&net, &mut rng);
                        tr.spans.time("locate_async", || net.locate_async(origin, obj.guid));
                        *pending.entry(origin).or_insert(0) += 1;
                        ops.issued += 1;
                    }
                }
                Action::Churn(ev) => apply_churn(ev, &mut net, &mut rng, &mut mem, tr.spans)?,
            }
            if let Some(c) = mem.coalescer.as_mut() {
                tr.spans.time("coalescer.pump", || c.pump(&mut net));
            }
            settle(&mut net, &mut mem, false, tr.spans);
            harvest(&mut net, &mut pending, &mut ops, tr.spans);
        }

        tr.run_until(&mut net, end);
        tr.run_to_idle(&mut net);
        if let Some(c) = mem.coalescer.as_mut() {
            tr.spans.time("coalescer.force", || c.force(&mut net));
            tr.run_to_idle(&mut net);
        }
        settle(&mut net, &mut mem, true, tr.spans);
        tr.run_to_idle(&mut net);
        harvest(&mut net, &mut pending, &mut ops, tr.spans);

        if phase.checks && !net.partition_active() {
            prop2_pairs += spot_checks(&net, spec, &objects, tr.spans)?;
        }
        // The runner snapshots every phase end (table sizes for its
        // report); the replay does too, so the two runs do the same work.
        let _ = net.snapshot();
        total.issued += ops.issued;
        total.found_live += ops.found_live;
    }

    let stats = net.engine().stats().clone();
    let out = Replay {
        events: net.engine().events_processed(),
        messages: stats.messages,
        timers: stats.timers,
        issued: total.issued,
        found_live: total.found_live,
        dispatch_events: tr.dispatch_events,
        publish_events,
        events_by_kind: net.engine().events_by_kind(),
        queue_depth_max: tr.queue_depth_max,
        avg_table_entries,
        prop2_pairs,
        waves: mem.coalescer.as_ref().map_or(0, |c| c.outcome().waves),
        stats,
        root_span,
    };
    tr.spans.time("drop", || drop((net, mem)));
    spans.exit(root);
    Ok(out)
}

/// The runner's set-up, untraced: metric-space build, bootstrap and the
/// catalog publish loop. Returns the network ready for the first phase.
pub fn setup(spec: &ScenarioSpec) -> TapestryNetwork {
    let mut net = TapestryNetwork::bootstrap_threaded(
        spec.cfg,
        spec.build_space(),
        spec.seed,
        spec.initial_nodes,
        spec.threads,
    );
    let mut rng = StdRng::seed_from_u64(spec.seed ^ RUNNER_RNG_SALT);
    for _ in 0..spec.objects {
        let server = random_member(&net, &mut rng);
        let guid = net.random_guid();
        net.publish(server, guid);
    }
    net.drain_results();
    net
}

/// Uniformly random live member, drawn exactly as the runner draws it.
fn random_member(net: &TapestryNetwork, rng: &mut StdRng) -> NodeIdx {
    let members = net.members();
    members[rng.gen_range(0..members.len())]
}

/// One scripted membership event, as the runner applies it.
fn apply_churn(
    ev: ChurnEvent,
    net: &mut TapestryNetwork,
    rng: &mut StdRng,
    mem: &mut Membership,
    spans: &mut Spans,
) -> Result<(), String> {
    match ev {
        ChurnEvent::Join => {
            if let Some(idx) = mem.free.pop() {
                let gw = random_member(net, rng);
                match mem.coalescer.as_mut() {
                    Some(c) => spans.time("coalescer.request", || c.request(net, idx, gw)),
                    None => spans.time("insert_node_via", || net.insert_node_via(idx, gw)),
                }
                mem.joining.push(idx);
            }
        }
        ChurnEvent::Leave { graceful, min_nodes } => {
            let candidates: Vec<NodeIdx> =
                net.node_ids().into_iter().filter(|i| !mem.leaving.contains(i)).collect();
            if candidates.len() <= min_nodes.max(2) {
                return Ok(());
            }
            let victim = candidates[rng.gen_range(0..candidates.len())];
            if graceful {
                spans.time("leave_async", || net.leave_async(victim));
                mem.leaving.push(victim);
            } else {
                spans.time("kill", || net.kill(victim));
            }
        }
        ChurnEvent::Probe => spans.time("probe_all_async", || net.probe_all_async()),
        ChurnEvent::Optimize => spans.time("optimize_all_async", || net.optimize_all_async()),
        other => return Err(format!("the traced replay does not cover {other:?}")),
    }
    Ok(())
}

/// Poll in-flight joins and leaves; at phase end reap the stuck ones.
/// Like the runner, this runs after every event, also when nothing is in
/// flight, so the membership layer's time includes the empty polls.
fn settle(net: &mut TapestryNetwork, mem: &mut Membership, finalize: bool, spans: &mut Spans) {
    let open = spans.enter("finish_bookkeeping");
    let Membership { free, joining, leaving, .. } = mem;
    joining.retain(|&idx| {
        if net.finish_insert_bookkeeping(idx) {
            return false;
        }
        if finalize {
            if net.engine().alive(idx) {
                net.kill(idx);
            }
            free.push(idx);
            return false;
        }
        true
    });
    leaving.retain(|&idx| {
        if !net.engine().alive(idx) {
            return false;
        }
        if net.finish_leave_bookkeeping(idx) {
            return false;
        }
        if finalize {
            net.kill(idx);
            return false;
        }
        true
    });
    spans.exit(open);
}

/// Collect completed locates from the origins with locates in flight,
/// recording them into the engine's named histograms as the runner does.
fn harvest(
    net: &mut TapestryNetwork,
    pending: &mut BTreeMap<NodeIdx, u64>,
    ops: &mut Ops,
    spans: &mut Spans,
) {
    if pending.is_empty() {
        return;
    }
    let open = spans.enter("harvest");
    let mut results = Vec::new();
    pending.retain(|&origin, in_flight| {
        if !net.engine().alive(origin) {
            return false;
        }
        let collected = net.take_results(origin);
        *in_flight = in_flight.saturating_sub(collected.len() as u64);
        results.extend(collected);
        *in_flight > 0
    });
    let mut live_hits = Vec::new();
    for r in &results {
        if r.server.is_some_and(|s| net.engine().alive(s.idx)) {
            ops.found_live += 1;
            live_hits.push((r.completed_at - r.issued_at).0);
        }
    }
    let stats = net.engine_mut().stats_mut();
    for r in &results {
        metrics::LOCATE_LATENCY_UNITS.record_to(stats, (r.completed_at - r.issued_at).0);
        metrics::LOCATE_HOPS.record_to(stats, r.hops as u64);
    }
    for lat in live_hits {
        metrics::LOCATE_LATENCY_UNITS_FOUND_LIVE.record_to(stats, lat);
    }
    spans.exit(open);
}

/// The between-phase invariant checks, in the runner's order. Returns the
/// Property 2 slot count; the outcomes themselves are gated on the
/// untraced run's report.
fn spot_checks(
    net: &TapestryNetwork,
    spec: &ScenarioSpec,
    objects: &[ObjectRec],
    spans: &mut Spans,
) -> Result<u64, String> {
    let (_, prop2_total) = spans.time("check_property2", || net.check_property2());
    let member_cap = if spec.exhaustive_checks { usize::MAX } else { ROOT_CHECK_MEMBER_SAMPLE };
    for o in objects.iter().step_by((objects.len() / 6).max(1)) {
        let target = root_id(spec.cfg.space, o.guid, 0);
        spans.time("distinct_roots_sampled", || net.distinct_roots_sampled(&target, member_cap));
    }
    let violations = spans.time("check_property1", || net.check_property1().len());
    if violations > 0 {
        return Err(format!("traced replay: {violations} Property 1 violations"));
    }
    Ok(prop2_total as u64)
}
