//! End-to-end tests of the statically built network: mesh invariants,
//! surrogate routing uniqueness (Theorem 2), publication and location
//! (Figs. 2–3), and Property 4.

use tapestry_core::{TapestryConfig, TapestryNetwork};
use tapestry_id::{Guid, Id};
use tapestry_metric::TorusSpace;

fn net(n: usize, seed: u64) -> TapestryNetwork {
    let space = TorusSpace::random(n, 1000.0, seed);
    TapestryNetwork::build(TapestryConfig::default(), Box::new(space), seed)
}

#[test]
fn static_build_satisfies_property1() {
    let net = net(64, 1);
    assert!(net.check_property1().is_empty(), "no false holes after static build");
}

#[test]
fn static_build_satisfies_property2_exactly() {
    let net = net(64, 2);
    let (optimal, total) = net.check_property2();
    assert_eq!(optimal, total, "static build keeps the closest neighbor as primary");
    assert!(total > 0);
}

#[test]
fn surrogate_routing_has_unique_root_theorem2() {
    let mut net = net(96, 3);
    for _ in 0..20 {
        let guid = net.random_guid();
        let roots = net.distinct_roots(&guid.id());
        assert_eq!(roots.len(), 1, "Theorem 2: all sources agree on the root of {guid}");
    }
}

#[test]
fn surrogate_of_existing_node_is_that_node() {
    let net = net(48, 4);
    for &m in net.node_ids().iter().take(10) {
        let id = net.id_of(m);
        assert_eq!(net.root_from(m, &id), m);
        // And from everywhere else too: routing toward an existing name
        // reaches exactly that node.
        for &o in net.node_ids().iter().take(5) {
            assert_eq!(net.root_from(o, &id), m);
        }
    }
}

#[test]
fn publish_then_locate_finds_object_from_everywhere() {
    let mut net = net(64, 5);
    let members = net.node_ids();
    let server = members[7];
    let guid = net.random_guid();
    net.publish(server, guid);
    for &origin in members.iter().take(20) {
        let r = net.locate(origin, guid).expect("locate completes");
        let s = r.server.expect("deterministic location (paper property 1 of intro)");
        assert_eq!(s.idx, server);
    }
}

#[test]
fn locate_unpublished_object_reports_not_found() {
    let mut net = net(32, 6);
    let origin = net.node_ids()[0];
    let guid = net.random_guid();
    let r = net.locate(origin, guid).expect("completion");
    assert!(r.server.is_none());
    assert!(r.reached_root, "failure is only declared at the root");
}

#[test]
fn publish_deposits_pointers_along_path_property4() {
    let mut net = net(64, 7);
    let members = net.node_ids();
    for i in 0..8 {
        let guid = net.random_guid();
        net.publish(members[i * 3], guid);
    }
    assert!(net.check_property4().is_empty(), "every path node holds a pointer");
}

#[test]
fn replicas_all_reachable_and_closest_tends_to_win() {
    let mut net = net(128, 8);
    let members = net.node_ids();
    let guid = net.random_guid();
    let (s1, s2) = (members[3], members[100]);
    net.publish(s1, guid);
    net.publish(s2, guid);
    let mut found = std::collections::BTreeSet::new();
    for &origin in &members {
        let r = net.locate(origin, guid).expect("completes");
        found.insert(r.server.expect("found").idx);
    }
    assert!(found.contains(&s1) || found.contains(&s2));
    assert!(found.iter().all(|s| *s == s1 || *s == s2));
}

#[test]
fn query_stretch_is_bounded_on_torus() {
    // The PRR/Tapestry claim: constant expected stretch on
    // growth-restricted metrics. We assert a loose aggregate bound.
    let mut net = net(128, 9);
    let members = net.node_ids();
    let mut stretches = Vec::new();
    for t in 0..12 {
        let guid = net.random_guid();
        let server = members[(t * 11) % members.len()];
        net.publish(server, guid);
        for &origin in members.iter().take(30) {
            if origin == server {
                continue;
            }
            let direct = net.nearest_replica_distance(origin, guid).unwrap();
            let r = net.locate(origin, guid).expect("completes");
            if let Some(s) = r.stretch(direct) {
                assert!(s >= 1.0 - 1e-9, "stretch below 1 is impossible, got {s}");
                stretches.push(s);
            }
        }
    }
    let mean = stretches.iter().sum::<f64>() / stretches.len() as f64;
    assert!(mean < 12.0, "mean stretch should be small, got {mean}");
}

#[test]
fn routing_toward_arbitrary_guid_terminates() {
    let net = net(64, 10);
    let members = net.node_ids();
    for v in [0u64, 1, 0xFFFF_FFFF, 0x1234_5678] {
        let id = Id::from_u64(net.config().space, v);
        let path = net.surrogate_path(members[0], &id);
        assert!(path.len() <= 16, "path of {} hops is too long", path.len());
    }
}

#[test]
fn multi_root_configuration_still_locates() {
    let cfg = TapestryConfig { roots_per_object: 3, ..Default::default() };
    let space = TorusSpace::random(64, 1000.0, 11);
    let mut net = TapestryNetwork::build(cfg, Box::new(space), 11);
    let members = net.node_ids();
    let guid = Guid::from_u64(cfg.space, 0xABCD_EF01);
    net.publish(members[5], guid);
    for &origin in members.iter().take(16) {
        let r = net.locate(origin, guid).expect("completes");
        assert_eq!(r.server.expect("found").idx, members[5]);
    }
    // Each of the three roots has a pointer.
    for i in 0..3 {
        let root = net.root_of(guid, i);
        let now = net.engine().now();
        assert!(net
            .node(root)
            .unwrap()
            .store()
            .lookup(guid, now)
            .any(|e| e.server.idx == members[5]));
    }
}

#[test]
fn snapshot_space_is_logarithmic_per_node() {
    let net = net(256, 12);
    let snap = net.snapshot();
    assert_eq!(snap.n, 256);
    // Table 1: space O(n log n) → per node O(b · log_b n · R) entries.
    assert!(snap.avg_table_entries > 4.0);
    assert!(
        (snap.max_table_entries as f64) < 16.0 * 8.0 * 3.0,
        "max {} exceeds b·levels·R",
        snap.max_table_entries
    );
}

/// The parallel bootstrap must produce tables bit-identical to the
/// sequential one: every slot of every node, including entry order and
/// exact distances, plus the invariant sweeps (which themselves fan out
/// when threads > 1). This pins the deterministic-fill-order contract of
/// the `std::thread::scope` fan-out in `populate_tables`.
#[test]
fn parallel_bootstrap_is_bit_identical_to_sequential() {
    let n = 300;
    let seed = 77;
    let seq = net(n, seed);
    for threads in [2, 4, 7] {
        let space = TorusSpace::random(n, 1000.0, seed);
        let par = TapestryNetwork::build_threaded(
            TapestryConfig::default(),
            Box::new(space),
            seed,
            threads,
        );
        assert_eq!(par.threads(), threads);
        for i in 0..n {
            let a = seq.node(i).expect("seq node");
            let b = par.node(i).expect("par node");
            for l in 0..seq.config().levels() {
                for j in 0..seq.config().base() as u8 {
                    let sa: Vec<(usize, u64)> = a
                        .table()
                        .slot(l, j)
                        .iter_with_dist()
                        .map(|(r, d)| (r.idx, d.to_bits()))
                        .collect();
                    let sb: Vec<(usize, u64)> = b
                        .table()
                        .slot(l, j)
                        .iter_with_dist()
                        .map(|(r, d)| (r.idx, d.to_bits()))
                        .collect();
                    assert_eq!(sa, sb, "threads={threads} node {i} slot ({l},{j}) diverged");
                }
            }
        }
        assert_eq!(seq.check_property1(), par.check_property1(), "threads={threads}");
        assert_eq!(seq.check_property2(), par.check_property2(), "threads={threads}");
    }
}

#[test]
fn sampled_distinct_roots_agree_with_exhaustive() {
    let space = TorusSpace::random(200, 1000.0, 23);
    let net = TapestryNetwork::build(TapestryConfig::default(), Box::new(space), 23);
    for v in [0u64, 7, 0xDEAD_BEEF] {
        let target = Id::from_u64(net.config().space, v);
        let full = net.distinct_roots(&target);
        // Under Theorem 2 the exhaustive set is a singleton, and any
        // member sample must observe exactly that root.
        assert_eq!(full.len(), 1, "Theorem 2 on the static build");
        assert_eq!(net.distinct_roots_sampled(&target, 16), full, "sampled ⊆ agreed root");
        // A cap at or above n degenerates to the exhaustive walk.
        assert_eq!(net.distinct_roots_sampled(&target, 10_000), full);
        // Sampling is deterministic.
        assert_eq!(
            net.distinct_roots_sampled(&target, 16),
            net.distinct_roots_sampled(&target, 16)
        );
    }
}

/// Every origin holding a completed locate is on the ready list, once,
/// and the list's order is the same at every thread count: locates from
/// all 300 members start at one instant, enough for the engine's
/// parallel same-instant drain.
#[test]
fn ready_origins_cover_every_completed_locate() {
    let n = 300;
    let run = |threads| {
        let space = TorusSpace::random(n, 1000.0, 31);
        let mut net = TapestryNetwork::build_threaded(
            TapestryConfig::default(),
            Box::new(space),
            31,
            threads,
        );
        let guid = net.random_guid();
        net.publish(0, guid);
        assert!(net.take_ready_origins().is_empty(), "publishing completes no locate");
        for origin in 0..n {
            net.locate_async(origin, guid);
        }
        net.run_to_idle();
        let ready = net.take_ready_origins();
        let with_results: Vec<usize> =
            (0..n).filter(|&o| !net.take_results(o).is_empty()).collect();
        assert_eq!(with_results.len(), n, "every locate completed");
        let mut listed = ready.clone();
        listed.sort_unstable();
        listed.dedup();
        assert_eq!(listed.len(), ready.len(), "each origin listed once");
        assert_eq!(listed, with_results, "ready list = origins holding results");
        assert!(net.take_ready_origins().is_empty(), "taking drains the list");
        ready
    };
    assert_eq!(run(1), run(2), "ready-list order is thread-count independent");
}

/// A driver that never drains the ready list (synchronous `locate`
/// collects through `take_results` only) leaves at most one entry per
/// node on it.
#[test]
fn ready_list_is_bounded_without_draining() {
    let n = 64;
    let mut net = net(n, 41);
    let guid = net.random_guid();
    net.publish(3, guid);
    for _ in 0..10 * n {
        let origin = net.random_member();
        assert!(net.locate(origin, guid).is_some(), "locate completes");
    }
    let ready = net.take_ready_origins();
    assert!(ready.len() <= n, "{} entries for {n} nodes", ready.len());
    let mut listed = ready.clone();
    listed.sort_unstable();
    listed.dedup();
    assert_eq!(listed.len(), ready.len(), "each origin listed once");
}
