//! The repository benchmark (see `BENCHMARK.json` and `WORKLOADS.md`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload static-large|churn-repair|app-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times the public `runner::run_timed` from outside with no
//! spans and prints the end-to-end metrics. `--trace 1` replays the same
//! spec through each layer's public calls with a span around every call,
//! checks the replay did exactly the timed run's work, writes the spans
//! to `perfbench/out/spans-<workload>.tsv` (or `--spans PATH`) and prints
//! the per-layer metrics. Either way the last stdout line is one JSON
//! object; on any correctness failure the process exits 1 and prints no
//! metric.

mod gate;
mod replay;
mod spans;
mod workloads;

use gate::Repeats;
use replay::{layer_of, Replay};
use spans::Spans;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tapestry_sim::Histogram;
use tapestry_trace::{metrics, Counter};
use tapestry_workload::{run_instrumented, run_timed, RunTotals, ScenarioReport, ScenarioSpec};
use workloads::{Size, Workload};

/// Fewest timed repetitions a run makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// One reported metric.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What one benchmark run prints.
#[derive(Debug)]
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// The timed samples behind each median, by metric name.
    samples: Vec<(&'static str, Vec<f64>)>,
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::StaticLarge,
        seed: 42,
        seconds: 30.0,
        trace: false,
        spans: None,
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds >= 0.0 && args.seconds <= 600.0) {
                    return Err(bad("expected 0 to 600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--spans" => args.spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let spec = args.workload.spec(args.seed, Size::Full);
    let result = if args.trace {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| format!("perfbench/out/spans-{}.tsv", args.workload.name()));
        layer_pass(args.workload, &spec, args.seconds, Some(&path))
    } else {
        end_to_end_pass(args.workload, &spec, args.seconds)
    };
    match result.and_then(|o| render(&o).map(|json| (o, json))) {
        Ok((outcome, json)) => {
            println!(
                "workload {} seed {} trace {}",
                args.workload.name(),
                args.seed,
                args.trace as u8
            );
            for m in &outcome.metrics {
                println!("metric {} {} {}", m.name, m.value, m.unit);
            }
            for (name, values) in &outcome.samples {
                let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
                println!("samples {name} n={} {}", values.len(), shown.join(" "));
            }
            println!("ops_attempted {}", outcome.attempted);
            println!("ops_failed {}", outcome.failed);
            println!("{json}");
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. Refuses a value JSON cannot carry.
fn render(o: &Outcome) -> Result<String, String> {
    let mut fields = Vec::with_capacity(o.metrics.len());
    for m in &o.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite", m.name));
        }
        fields
            .push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        fields.join(", ")
    ))
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Wall and CPU seconds of one measured call.
#[derive(Debug, Clone, Copy)]
struct Cost {
    wall_s: f64,
    cpu_s: f64,
}

/// Run `f`, measuring its wall time and the CPU time this process spent
/// meanwhile.
fn measure<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (t, c) = (Instant::now(), process_cpu_s());
    let out = f();
    (out, Cost { wall_s: t.elapsed().as_secs_f64(), cpu_s: process_cpu_s() - c })
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process CPU time through 64-bit Linux clock_gettime");

/// CPU seconds this process has consumed, over all its threads (exited
/// ones included): `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. Unlike wall
/// time it leaves out time the hypervisor steals from the virtual CPUs.
fn process_cpu_s() -> f64 {
    /// `struct timespec` on 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout of
    // 64-bit Linux (checked by the `compile_error!` gate above), and
    // `clock_gettime` writes nothing beyond it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Measure one whole `run_timed` call. The network is dropped before the
/// call returns, so the cost includes teardown.
fn timed_run(spec: &ScenarioSpec) -> Result<(Cost, ScenarioReport, RunTotals), String> {
    let (result, cost) = measure(|| run_timed(black_box(spec)));
    let (report, totals, _) = result?;
    Ok((cost, report, totals))
}

/// Locates issued plus joins requested, and those that failed: a locate
/// fails unless it found a live server, a join unless it completed.
fn op_accounting(r: &ScenarioReport) -> (u64, u64) {
    let joins_ok: u64 = r.phases.iter().map(|p| p.churn.joins_ok).sum();
    let joins_failed: u64 = r.phases.iter().map(|p| p.churn.joins_failed).sum();
    let o = &r.total_ops;
    (o.issued + joins_ok + joins_failed, (o.issued - o.found_live) + joins_failed)
}

/// The end-to-end pass, with no spans: an untimed warm-up run, then
/// set-ups for a quarter of `seconds` and whole `run_timed` calls for the
/// rest, reporting the median CPU seconds of each. (Wall times are printed
/// beside them; on a shared virtual machine they swing with stolen time.)
fn end_to_end_pass(w: Workload, spec: &ScenarioSpec, seconds: f64) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut reps = Repeats::default();
    // The warm-up goes through the call `run_timed` wraps, which also
    // hands back the engine's exact hop-count histogram.
    let (report, totals, _, telemetry) = run_instrumented(spec)?;
    reps.check(w, report, totals)?;
    let peak_rss_mb = peak_rss_mb()?;
    let hops = telemetry
        .stats
        .histogram(metrics::LOCATE_HOPS.0.key)
        .ok_or("the run recorded no locate hop histogram")?;
    let hops_p99 = continuous_quantile(hops, 0.99);

    let mut setup = Vec::new();
    while setup.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds / 4.0 {
        let (net, cost) = measure(|| replay::setup(black_box(spec)));
        setup.push(cost);
        drop(black_box(net));
    }
    let mut run = Vec::new();
    while run.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let (cost, report, totals) = timed_run(spec)?;
        run.push(cost);
        reps.check(w, report, totals)?;
    }
    let cpu = |costs: &[Cost]| costs.iter().map(|c| c.cpu_s).collect::<Vec<_>>();
    let wall = |costs: &[Cost]| costs.iter().map(|c| c.wall_s).collect::<Vec<_>>();
    let (report, totals) = reps.first().expect("at least one repetition");
    let o = &report.total_ops;
    let last_checked = report
        .phases
        .iter()
        .rev()
        .find_map(|p| p.invariants)
        .expect("the gate requires a checked phase");
    let metrics = vec![
        Metric { name: "setup_s", value: median(&cpu(&setup)), unit: "s" },
        Metric { name: "run_s", value: median(&cpu(&run)), unit: "s" },
        Metric { name: "peak_rss_mb", value: peak_rss_mb, unit: "MB" },
        Metric {
            name: "locate_ok_frac",
            value: o.found_live as f64 / o.issued as f64,
            unit: "ratio",
        },
        Metric { name: "locate_latency_p50", value: report.total_latency.p50, unit: "sim_units" },
        Metric { name: "locate_latency_p99", value: report.total_latency.p99, unit: "sim_units" },
        Metric { name: "hops_mean", value: report.total_hops.mean, unit: "hops" },
        Metric { name: "hops_p99", value: hops_p99, unit: "hops" },
        Metric { name: "messages", value: totals.messages as f64, unit: "count" },
        Metric {
            name: "table_optimal_frac",
            value: last_checked.prop2_optimal as f64 / last_checked.prop2_total.max(1) as f64,
            unit: "ratio",
        },
    ];
    let (attempted, failed) = op_accounting(report);
    let samples = vec![
        ("setup_s", cpu(&setup)),
        ("setup_wall_s", wall(&setup)),
        ("run_s", cpu(&run)),
        ("run_wall_s", wall(&run)),
    ];
    Ok(Outcome { metrics, attempted, failed, samples })
}

/// The `q` quantile of integer samples held exactly in `h` (values below
/// 64), treating each integer `k` as spread evenly over `[k - 0.5, k + 0.5)`.
/// Unlike the nearest-rank percentile it moves smoothly with the share of
/// samples in the tail, so a mesh whose 99th-percentile locate sits on
/// the boundary between two hop counts does not flip between them.
fn continuous_quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    // Samples <= k: the largest rank whose nearest-rank value is <= k
    // (rank r is percentile 100·(r - 0.5)/n, away from rounding edges).
    let at_most = |k: u64| -> u64 {
        let (mut lo, mut hi) = (0u64, n);
        while lo < hi {
            let mid = (lo + hi).div_ceil(2);
            if h.percentile(100.0 * (mid as f64 - 0.5) / n as f64) <= k {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    };
    let target = q * n as f64;
    let mut k = h.min();
    while (at_most(k) as f64) < target && k < h.max() {
        k += 1;
    }
    let below = if k == 0 { 0 } else { at_most(k - 1) };
    let here = (at_most(k) - below).max(1);
    k as f64 - 0.5 + ((target - below as f64) / here as f64).clamp(0.0, 1.0)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The per-layer counters, read through the registry's typed handles and
/// reported under their canonical names.
fn layer_counters() -> [(&'static str, Counter); 9] {
    [
        ("repair.pings", metrics::REPAIR_PINGS),
        ("repair.queries", metrics::REPAIR_QUERIES),
        ("repair.facts", metrics::REPAIR_FACTS),
        ("repair.events", metrics::REPAIR_EVENTS),
        ("repair.promotions", metrics::REPAIR_PROMOTIONS),
        ("membership.join.messages", metrics::JOIN_MESSAGES),
        ("maintenance.optimize.table_shares", metrics::OPTIMIZE_TABLE_SHARES),
        ("maintenance.optimize.republished", metrics::OPTIMIZE_REPUBLISHED),
        ("routing.hops", metrics::ROUTE_HOPS),
    ]
}

/// Every per-layer counter name must be a canonical registry name bound
/// to the handle that reads it, so a rename cannot silently zero it.
fn check_registry() -> Result<(), String> {
    for (name, handle) in layer_counters() {
        let def = metrics::REGISTRY
            .iter()
            .find(|d| d.canonical == name)
            .ok_or_else(|| format!("counter {name} is not in the metrics registry"))?;
        if !std::ptr::eq(*def, handle.0) {
            return Err(format!("counter {name} is registered under another handle"));
        }
    }
    Ok(())
}

/// Layers whose traced self time is charged against `run_s`; what
/// `run_s` holds beyond their sum is the runner's own bookkeeping.
const TIMED_LAYERS: [&str; 9] = [
    "bootstrap",
    "publish",
    "dispatch",
    "inject",
    "checks.prop1",
    "checks.prop2",
    "checks.thm2",
    "membership",
    "teardown",
];

/// The per-layer pass: untraced `run_timed` calls, for their wall time,
/// alternated with traced replays (so both see the same host conditions),
/// each replay checked against the timed run's totals.
fn layer_pass(
    w: Workload,
    spec: &ScenarioSpec,
    seconds: f64,
    spans_path: Option<&str>,
) -> Result<Outcome, String> {
    check_registry()?;
    let start = Instant::now();
    let mut reps = Repeats::default();
    let mut spans = Spans::default();
    let mut run_s = Vec::new();
    let mut traced_wall = Vec::new();
    let mut layer_s: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut events_per_s = Vec::new();
    let mut report_bytes = 0;
    let mut first: Option<Replay> = None;
    while run_s.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        let (cost, report, totals) = timed_run(spec)?;
        run_s.push(cost.wall_s);
        reps.check(w, report, totals)?;
        let (report, totals) = reps.first().expect("checked above");

        let r = replay::replay(spec, &mut spans)?;
        gate::check_fidelity(&r, report, totals)?;
        traced_wall.push(spans.wall_s(r.root_span));
        report_bytes = spans.time("to_json", || report.to_json()).len();
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, secs) in spans.self_times_since(r.root_span) {
            *by_layer.entry(layer_of(name)).or_insert(0.0) += secs;
        }
        events_per_s
            .push(r.dispatch_events as f64 / by_layer.get("dispatch").copied().unwrap_or(0.0));
        for layer in TIMED_LAYERS.iter().chain(&["runner.harvest", "report"]) {
            layer_s.entry(layer).or_default().push(by_layer.get(layer).copied().unwrap_or(0.0));
        }
        match &first {
            Some(r0)
                if (r0.dispatch_events, r0.queue_depth_max)
                    != (r.dispatch_events, r.queue_depth_max) =>
            {
                return Err("two traced replays of one spec differ".into());
            }
            Some(_) => {}
            None => first = Some(r),
        }
    }
    if let Some(path) = spans_path {
        write_spans(path, &spans)?;
    }
    let r = first.expect("at least one traced replay");
    let (report, _) = reps.first().expect("at least one repetition");
    let self_s = |layer: &str| median(&layer_s[layer]);
    let run_median = median(&run_s);
    let timed_layers: f64 = TIMED_LAYERS.iter().map(|l| self_s(l)).sum();
    let churn = report
        .phases
        .iter()
        .fold((0, 0), |(ok, failed), p| (ok + p.churn.joins_ok, failed + p.churn.joins_failed));
    let join_msgs = metrics::JOIN_MESSAGES.read(&r.stats);
    let o = &report.total_ops;
    let count = |name, v: u64| Metric { name, value: v as f64, unit: "count" };
    let secs = |name, value| Metric { name, value, unit: "s" };
    let mut out = vec![
        secs("bootstrap.wall_s", self_s("bootstrap")),
        Metric { name: "bootstrap.avg_table_entries", value: r.avg_table_entries, unit: "entries" },
        secs("publish.wall_s", self_s("publish")),
        count("publish.events", r.publish_events),
        secs("checks.prop1_s", self_s("checks.prop1")),
        secs("checks.prop2_s", self_s("checks.prop2")),
        secs("checks.thm2_s", self_s("checks.thm2")),
        count("checks.prop2_pairs", r.prop2_pairs),
        secs("teardown.wall_s", self_s("teardown")),
        secs("dispatch.wall_s", self_s("dispatch")),
        count("dispatch.events", r.dispatch_events),
        Metric { name: "dispatch.events_per_s", value: median(&events_per_s), unit: "1/s" },
        count("dispatch.deliver", r.events_by_kind[0]),
        count("dispatch.timer", r.events_by_kind[1]),
        count("dispatch.contact_failed", r.events_by_kind[2]),
        count("dispatch.queue_depth_max", r.queue_depth_max as u64),
        secs("inject.wall_s", self_s("inject")),
    ];
    for (name, handle) in layer_counters() {
        out.push(count(name, handle.read(&r.stats)));
    }
    out.extend([
        secs("membership.wall_s", self_s("membership")),
        count("membership.joins_ok", churn.0),
        count("membership.joins_failed", churn.1),
        Metric {
            name: "membership.join_msgs_mean",
            value: tapestry_membership::mean_messages_per_join(join_msgs, churn.0),
            unit: "msgs/join",
        },
        count("membership.waves", r.waves),
        count("locate.lost", o.lost),
        count("locate.found_dead", o.found_dead),
        count("locate.not_found", o.not_found),
        secs("run.wall_s", run_median),
        secs("runner.overhead_s", run_median - timed_layers),
        secs("runner.harvest_s", self_s("runner.harvest")),
        secs("report.wall_s", self_s("report")),
        count("report.bytes", report_bytes as u64),
        secs("trace.overhead_s", median(&traced_wall) - run_median),
    ]);
    let (attempted, failed) = op_accounting(report);
    let samples = vec![("run_wall_s", run_s), ("traced_wall_s", traced_wall)];
    Ok(Outcome { metrics: out, attempted, failed, samples })
}

fn write_spans(path: &str, spans: &Spans) -> Result<(), String> {
    let path = std::path::Path::new(path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, spans.to_tsv()).map_err(|e| format!("writing {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` value in `BENCHMARK.json`.
    fn benchmark_names() -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        text.split("\"name\": \"").skip(1).map(|s| s[..s.find('"').unwrap()].to_string()).collect()
    }

    /// The smoke test: every workload at tiny size through both passes,
    /// with the correctness gate and the replay fidelity check, at the
    /// default and the held-out seed.
    #[test]
    fn every_workload_passes_both_passes_at_tiny_size() {
        let mut names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        for w in Workload::ALL {
            for seed in [42, 43] {
                let spec = w.spec(seed, Size::Tiny);
                let e2e = end_to_end_pass(w, &spec, 0.0).unwrap_or_else(|e| panic!("{w:?}: {e}"));
                let layers =
                    layer_pass(w, &spec, 0.0, None).unwrap_or_else(|e| panic!("{w:?}: {e}"));
                assert!(e2e.attempted > 0 && e2e.failed <= e2e.attempted);
                assert_eq!((e2e.attempted, e2e.failed), (layers.attempted, layers.failed));
                for m in e2e.metrics.iter().chain(&layers.metrics) {
                    assert!(m.value.is_finite(), "{w:?} {}", m.name);
                    if !names.iter().any(|n| n == m.name) {
                        names.push(m.name.to_string());
                    }
                }
                assert!(render(&e2e).unwrap().starts_with("{\"correct\": true, "));
            }
        }
        let mut listed = benchmark_names();
        listed.sort();
        names.sort();
        assert_eq!(listed, names, "BENCHMARK.json lists exactly the printed metrics");
    }

    #[test]
    fn continuous_quantile_spreads_each_integer_over_its_unit() {
        let mut h = Histogram::new();
        for (v, n) in [(3, 50), (4, 40), (5, 9), (6, 1)] {
            (0..n).for_each(|_| h.record(v));
        }
        assert!((continuous_quantile(&h, 0.5) - 3.5).abs() < 1e-9);
        assert!((continuous_quantile(&h, 0.7) - 4.0).abs() < 1e-9);
        assert!((continuous_quantile(&h, 0.99) - 5.5).abs() < 1e-9);
        assert!((continuous_quantile(&h, 0.995) - 6.0).abs() < 1e-9);
        assert_eq!(continuous_quantile(&Histogram::new(), 0.99), 0.0);
    }

    #[test]
    fn registry_binds_every_layer_counter() {
        check_registry().unwrap();
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload app-mix --seed 43 --seconds 5 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::AppMix, 43, 5.0, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload app-mix --trace 2").is_err());
        assert!(parse("--seed 1").is_err(), "workload is required");
    }
}
